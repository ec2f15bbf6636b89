//! Kernel Esterel: IR, constructive interpreter, and EFSM compilation.
//!
//! The ECL compiler (paper Section 3) translates the reactive part of an
//! ECL program into Esterel and relies on "the native Esterel compiler"
//! to produce an extended FSM. This crate is that substrate, built from
//! scratch:
//!
//! * [`ir`] — the kernel statements (`nothing`, `pause`, `emit`,
//!   `present`, sequence, `loop`, parallel, `trap`/`exit`, `suspend`)
//!   plus the two *data* extension points the ECL splitter needs
//!   (`Action` and `IfData` with opaque ids), and builders for the
//!   derived forms used by ECL (`halt`, `await`, `abort`, `weak_abort`,
//!   `suspend`, with optional handlers);
//! * [`interp`] — a reference interpreter implementing the constructive
//!   semantics: three-valued signal statuses, Must-execution with
//!   Can-based absence inference, exact-once data actions;
//! * [`compile`](mod@compile) — compilation to an [`efsm::Efsm`]:
//!   reachable control states are sets of active pause points, and each
//!   state's reaction is explored path-by-path into a POLIS-style
//!   s-graph (inputs become `Test` nodes, data predicates `TestPred`
//!   nodes; local signals are resolved by guess-and-check and compiled
//!   away).
//!
//! Completion codes follow Berry: `0` terminated, `1` paused, `k ≥ 2`
//! exit of the trap at depth `k − 2`.
//!
//! # Example
//!
//! ```
//! use esterel::ir::{ProgramBuilder, Stmt};
//! let mut b = ProgramBuilder::new("abro_lite");
//! let a = b.input("a");
//! let o = b.output("o");
//! // loop { await a; emit o }
//! let body = Stmt::loop_(Stmt::seq(vec![Stmt::await_(a.into()), Stmt::emit(o)]));
//! let prog = b.finish(body).unwrap();
//! let efsm = esterel::compile::compile(&prog, &Default::default()).unwrap();
//! assert!(efsm.states.len() >= 2);
//! ```

pub mod compile;
mod engine;
pub mod interp;
pub mod ir;

pub use compile::{compile, CompileError, CompileOptions};
pub use interp::{Machine, Reaction, RuntimeError};
pub use ir::{Program, ProgramBuilder, SigExpr, Stmt};
