//! # ecl-repro — facade crate
//!
//! Reproduction of "ECL: A Specification Environment for System-Level
//! Design" (Lavagno & Sentovich, DAC 1999). This crate re-exports the
//! workspace's public surface so downstream users can depend on one
//! crate; the implementation lives in the member crates (see README.md
//! and DESIGN.md for the architecture).
//!
//! ## The staged pipeline
//!
//! Compilation is exposed as typed stages — `Source → Parsed →
//! Elaborated → Split → EsterelIr → Machine → Artifacts` — so tools
//! can stop at, inspect, or re-enter any point:
//!
//! ```
//! use ecl_repro::prelude::*;
//!
//! let src = "module m(input pure a, output pure o) {
//!              while (1) { await (a); emit (o); } }";
//! let machine = Source::new(src)
//!     .parse().unwrap()          // -> Parsed
//!     .elaborate("m").unwrap()   // -> Elaborated
//!     .split().unwrap()          // -> Split
//!     .ir()                      // -> EsterelIr
//!     .compile(&Default::default()).unwrap(); // -> Machine
//! machine.validate().unwrap();
//! let artifacts = Artifacts::emit(&machine).unwrap();
//! assert!(artifacts.c().contains("m"));
//! ```
//!
//! ## Designs for simulation
//!
//! Runners take a [`prelude::Design`] — the split stage bundled for
//! execution — and compile the EFSM themselves; a partitioned top
//! level yields one design per task:
//!
//! ```
//! use ecl_repro::prelude::*;
//!
//! let src = "module a(input pure i, output pure m) { while (1) { await (i); emit (m); } }
//!            module b(input pure m, output pure o) { while (1) { await (m); emit (o); } }
//!            module top(input pure i, output pure o) {
//!              signal pure mid; par { a(i, mid); b(mid, o); } }";
//! let parsed = Source::new(src).parse().unwrap();
//! let mono = parsed.elaborate("top").unwrap().split().unwrap().to_design();
//! let parts = parsed.partition("top").unwrap();
//! assert_eq!(parts.len(), 2);
//! let runner = AsyncRunner::new(parts, &Default::default(), Default::default(), Default::default());
//! assert!(runner.is_ok());
//! assert_eq!(mono.entry, "top");
//! ```

pub use codegen;
pub use ecl_core;
pub use ecl_faults;
pub use ecl_fleet;
pub use ecl_observe;
pub use ecl_syntax;
pub use ecl_telemetry;
pub use ecl_types;
pub use efsm;
pub use esterel;
pub use rtk;
pub use sim;

/// The names most users need.
pub mod prelude {
    // Staged pipeline (preferred surface).
    pub use codegen::artifacts::Artifacts;
    pub use ecl_core::pipeline::{Elaborated, EsterelIr, Machine, Parsed, Source, Split};
    pub use ecl_syntax::diag::{Diagnostic, Diagnostics, EclError, Severity, Stage};

    pub use ecl_core::{Design, SplitStrategy};

    // Back ends, machines, simulation.
    pub use codegen::cost::{rtos_cost, task_cost, CostParams};
    pub use efsm::{Backend, BitSet, DataHooks, Efsm, NoHooks, SigId, SigTable};
    pub use esterel::CompileOptions;
    pub use sim::measure::measure;
    pub use sim::runner::{
        AsyncRunner, InterpRunner, Present, Runner, SimError, SimErrorKind, WatchdogBudget,
    };
    pub use sim::tb::{PacketTb, PagerTb};
    pub use sim::trace::Trace;

    // Observers: monitor synthesis and online checking.
    pub use ecl_observe::{
        check_async, check_async_with, check_interp, check_interp_with, synthesize_all, Monitor,
        MonitorReport, MonitorSpec, Verdict,
    };

    // Deterministic fault injection (inert without an installed plan).
    pub use ecl_faults::{FaultPlan, InjectionStats};

    // Supervised session fleets: checkpoint/restore, restart with
    // backoff, admission control and graceful degradation.
    pub use ecl_fleet::{
        FleetConfig, FleetHealth, FleetReport, Pressure, RestartPolicy, SessionReport, SessionSpec,
        SessionStatus, Supervisor,
    };
}
