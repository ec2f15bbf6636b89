//! Back ends and cost models for compiled ECL designs.
//!
//! Reproduces the synthesis stage of the paper's flow (Section 3, phase
//! 3): "The EFSM is compiled into an optimized software (C) or hardware
//! implementation (VHDL or Verilog)". Three pieces:
//!
//! * [`c_backend`] — emits the C implementation of an EFSM in the POLIS
//!   style: a `switch`-dispatched reaction function whose body is the
//!   state's s-graph, plus the frame struct and the extracted data
//!   functions (printed back with `ecl-syntax`'s pretty printer — the
//!   data sub-language of ECL *is* C);
//! * [`verilog`] — emits synthesizable Verilog RTL for pure-control
//!   machines (the paper: hardware is an option when "the
//!   data-dominated C part is empty"), with a gate estimate;
//! * [`cost`] — a MIPS-R3000-flavoured size/latency model: code and
//!   data bytes per task, an RTOS footprint model, and per-construct
//!   cycle charges used by the simulator. Table 1 of the paper is
//!   regenerated with this model (shape, not absolute bytes — see
//!   EXPERIMENTS.md).

pub mod artifacts;
pub mod c_backend;
pub mod cost;
pub mod verilog;

pub use artifacts::Artifacts;
pub use c_backend::emit_monitor_c;
pub use cost::{CostParams, RtosCost, TaskCost};
