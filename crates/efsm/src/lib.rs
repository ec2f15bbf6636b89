//! Extended finite state machines (EFSMs) in the POLIS/CFSM style.
//!
//! The ECL paper compiles the reactive part of a program to an EFSM and
//! hands it to the POLIS flow for software/hardware synthesis. POLIS
//! represents each control state's reaction as an *s-graph* — a decision
//! DAG of signal-presence tests, data-predicate tests, data actions and
//! emissions, terminating in the next control state. This crate
//! implements that representation plus the structural checks and
//! optimizations the paper relies on ("logic synthesis and optimization
//! can be applied to reduce size or improve speed", Section 3):
//!
//! * [`machine`] — the [`Efsm`] type and its single-instant executor;
//! * [`table`] — the control layout: each state's s-graph laid out
//!   once as a linear op array, one op per live node (the compiled
//!   execution backend's control half);
//! * [`sgraph`] — s-graph nodes, path enumeration and structural checks;
//! * [`opt`] — hash-consing reduction, dead-test elimination,
//!   unreachable-state pruning, and observational state minimization
//!   (partition refinement);
//! * [`dot`] — Graphviz export;
//! * [`bitset`] — the small fixed bit set used for control points.
//!
//! Data is *opaque* at this level: predicates, actions and emission
//! values are ids resolved by a [`DataHooks`] implementation supplied by
//! the caller (the ECL compiler's glue layer).

pub mod bitset;
pub mod dot;
pub mod machine;
pub mod opt;
pub mod sgraph;
pub mod sig;
pub mod table;

pub use bitset::BitSet;
pub use machine::{Efsm, SigKind, Signal, SignalInfo, State, StateId, StepOut};
pub use sgraph::{Node, NodeId, Path};
pub use sig::{SigId, SigTable};
pub use table::{CompiledEfsm, ResidualOp};

/// Which execution backend drives reactions.
///
/// One knob for the whole stack: a runner's reactions and monitor
/// stepping key off the same two-valued choice. Control and data
/// compile into one fused program per task, so they switch together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The reference tree interpreter: per-node s-graph walking for
    /// control, expression-tree evaluation for data. Canonical
    /// semantics, the reference every differential test compares
    /// against.
    Walker,
    /// The production backend: each control state's s-graph laid out
    /// as one op stream, presence tests as two-way branches and the
    /// predicates, actions and valued emits inlined as bytecode — one
    /// dispatch loop per reaction, no [`DataHooks`] call inside it.
    #[default]
    Compiled,
}

/// Opaque id of a data predicate (resolved by [`DataHooks::eval_pred`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u32);

/// Opaque id of a data action (resolved by [`DataHooks::run_action`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionId(pub u32);

/// Opaque id of an emission value expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// Callbacks that give data meaning to the opaque ids during execution.
///
/// The ECL runtime implements this against the module's local variable
/// frame; pure-control machines can use [`NoHooks`].
///
/// The ECL runtime's implementation is the tree-walking reference: the
/// s-graph walker and the constructive interpreter call it. Compiled
/// reactions do not: they inline each hook's bytecode into the fused
/// program and must match this reference bit for bit — values, errors,
/// call order and the fuel the runtime charges kernel cycles from.
pub trait DataHooks {
    /// Evaluate data predicate `pred` against the current data state.
    fn eval_pred(&mut self, pred: PredId) -> bool;
    /// Execute data action `action` (mutates the data state).
    fn run_action(&mut self, action: ActionId);
    /// Compute the value for a valued emission of `sig` and store it as
    /// the signal's current value.
    fn emit_value(&mut self, sig: Signal, expr: ExprId);
}

/// Hooks for machines with no data part.
///
/// # Panics
///
/// Panics if the machine actually contains data predicates — a machine
/// stepped with `NoHooks` must be pure control.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl DataHooks for NoHooks {
    fn eval_pred(&mut self, pred: PredId) -> bool {
        panic!("NoHooks cannot evaluate data predicate {pred:?}: machine is not pure control")
    }
    fn run_action(&mut self, _action: ActionId) {}
    fn emit_value(&mut self, _sig: Signal, _expr: ExprId) {}
}

/// Hooks that answer every predicate with a constant (useful in tests).
#[derive(Debug, Clone, Copy)]
pub struct ConstHooks(pub bool);

impl DataHooks for ConstHooks {
    fn eval_pred(&mut self, _pred: PredId) -> bool {
        self.0
    }
    fn run_action(&mut self, _action: ActionId) {}
    fn emit_value(&mut self, _sig: Signal, _expr: ExprId) {}
}
