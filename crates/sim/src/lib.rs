//! Simulation and measurement harness for compiled ECL designs.
//!
//! Reproduces the paper's evaluation setup (Section 4): a design is run
//! either as **one synchronous task** (the whole program compiled to a
//! single EFSM) or as **several asynchronous tasks** on the `rtk`
//! kernel, and both are measured for memory footprint (via `codegen`'s
//! cost model) and execution cycles split into task vs. RTOS time.
//!
//! * [`runner`] — the task runner: N compiled designs as RTOS tasks
//!   (N = 1 gives the paper's "1 task" rows); plus an interpreter-backed
//!   runner used for differential testing;
//! * [`tb`] — testbenches: the 500-packet stream for the protocol stack
//!   and the record/playback scenario for the voice pager;
//! * [`trace`] — ring-buffered signal-trace recording with a VCD-style
//!   dump, fed by both runners (the substrate for `ecl-observe`
//!   monitors and offline waveform inspection);
//! * [`measure`](mod@measure) — end-to-end measurement producing
//!   Table 1 rows;
//! * [`designs`] — the ECL sources of the two evaluated designs
//!   (Figures 1–4 and the reconstructed audio buffer controller).

pub mod designs;
pub mod measure;
pub mod runner;
pub mod tb;
pub mod trace;

pub use measure::{measure, Measurement};
pub use runner::{
    AsyncRunner, CoverageReport, InterpRunner, Present, Runner, RunnerSnapshot, SharedProgram,
    SimError, Snapshot, TaskCoverage, TaskProgram,
};
pub use tb::{InstantEvents, PacketTb, PagerTb};
pub use trace::{Recorder, Trace, TraceEvent, TraceRecord};
