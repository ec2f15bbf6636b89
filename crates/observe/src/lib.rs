//! `ecl-observe` — observer specifications compiled to monitor EFSMs,
//! checked online in the simulator and offline against recorded
//! traces.
//!
//! The ECL paper positions the environment for *specification and
//! validation*; this crate adds the validation half in the spirit of
//! assertion-monitor synthesis (Gadkari & Ramesh): temporal properties
//! are written as `observer` declarations next to the design's
//! modules, synthesized through the **same** Esterel → EFSM pipeline
//! as the design itself, and run lockstep with it:
//!
//! * [`synth`] — `observer` AST → kernel Esterel → deterministic
//!   monitor [`efsm::Efsm`] (one `fail_i` output per property);
//! * [`monitor`] — monitor execution: per-instant stepping over
//!   present signal names, `Pass`/`Fail{instant, witness}` verdicts,
//!   mangling-tolerant name resolution, trace replay;
//! * [`check`] — online checking against both simulator runners (the
//!   constructive interpreter and the RTOS-backed task runner), with
//!   ring-buffered [`sim::Trace`] recording on the side;
//! * [`stage`] — the `Monitored` terminal pipeline stage next to
//!   `codegen::Artifacts`, batch-compiled and memoized by
//!   [`ecl_core::Workspace`], including monitor C emission;
//! * [`session`] — panic-isolated batch checking: one poisoned or
//!   panicking session surfaces as a contained
//!   [`SessionOutcome::Poisoned`] while its siblings complete.
//!
//! # Example
//!
//! ```
//! use ecl_core::Source;
//! use ecl_observe::{check_interp, synthesize_all};
//! use sim::tb::InstantEvents;
//!
//! let src = "
//!   module m(input pure a, output pure o) { while (1) { await (a); emit (o); } }
//!   observer w(input pure a, input pure o) { whenever (a) expect (o); }";
//! let parsed = Source::new(src).parse().unwrap();
//! let specs = synthesize_all(parsed.ast()).unwrap();
//! let design = parsed.elaborate("m").unwrap().split().unwrap().to_design();
//! let tick = |on: bool| InstantEvents {
//!     pure: if on { vec!["a".into()] } else { vec![] },
//!     valued: vec![],
//! };
//! let run = check_interp(&design, &[tick(false), tick(true)], &specs, 0).unwrap();
//! assert!(run.report.all_pass());
//! ```

pub mod check;
pub mod monitor;
pub mod session;
pub mod stage;
pub mod synth;

pub use check::{check_async, check_async_with, check_interp, check_interp_with, MonitoredRun};
pub use monitor::{name_matches, Monitor, MonitorReport, Verdict, Violation};
pub use session::{run_session, run_sessions, SessionOutcome};
pub use stage::{Monitored, WorkspaceObserveExt};
pub use synth::{synthesize, synthesize_all, MonitorSpec, PropInfo};
