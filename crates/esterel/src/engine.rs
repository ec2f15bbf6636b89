//! Shared single-instant execution engine.
//!
//! Both the constructive interpreter ([`crate::interp`]) and the EFSM
//! compiler ([`crate::compile`]) need to execute one synchronous instant
//! over the frozen program tree. The control skeleton (sequencing,
//! parallel synchronization with max-codes, traps, suspension, pause
//! selection/resumption) is identical; what differs is how signal
//! statuses, data predicates, actions and emissions are resolved. That
//! difference is abstracted behind the [`Sem`] trait.
//!
//! The engine is *restartable*: a pass that cannot resolve a signal test
//! returns [`ExecOut::Blocked`] and the driver re-runs the pass after
//! refining its knowledge. Drivers guarantee exactly-once data effects
//! across re-runs by keying on `(node, occurrence)` — the traversal is
//! deterministic, so the k-th visit of a node is the same logical visit
//! in every pass.

use crate::ir::{Node, Program, SigExpr, StmtId, Tri};
use efsm::{ActionId, BitSet, ExprId, PredId, Signal};

/// Resolution callbacks for one instant.
pub trait Sem {
    /// Current status of a signal (may be refined between passes).
    fn status(&mut self, s: Signal) -> Tri;
    /// Called when a test cannot be decided because `s` is unknown.
    fn blocked_on(&mut self, s: Signal);
    /// Evaluate a data predicate at `(node, occurrence)`. `None` means
    /// the run must block/fork (compiler); the interpreter always
    /// answers.
    fn pred(&mut self, at: (StmtId, u32), p: PredId) -> Option<bool>;
    /// Execute a data action at `(node, occurrence)` (exactly once per
    /// instant — implementations use the key to deduplicate re-runs).
    fn action(&mut self, at: (StmtId, u32), a: ActionId);
    /// Emit a signal. Returning `false` aborts the run as inconsistent
    /// (used by the compiler's guess-and-check on internal signals).
    fn emit(&mut self, at: (StmtId, u32), s: Signal, value: Option<ExprId>) -> bool;
}

/// Result of one execution pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecOut {
    /// The pass completed with Berry completion `code` and the set of
    /// pause points active for the next instant.
    Done {
        /// Completion code: 0 terminated, 1 paused, k≥2 exit.
        code: u32,
        /// Pauses selected for the next instant.
        pauses: BitSet,
    },
    /// A signal test could not be decided ([`Sem::blocked_on`] was
    /// called with the culprit).
    Blocked,
    /// The run is inconsistent (guess-and-check failure) or the
    /// program misbehaved dynamically.
    Failed(ExecFailure),
}

/// Why a pass failed hard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecFailure {
    /// A loop body terminated instantaneously twice (should be caught
    /// statically; kept as a dynamic backstop).
    InstantaneousLoop,
    /// An emission contradicted an assumed-absent signal.
    InconsistentEmission(Signal),
}

/// Per-node visit counters of one pass, indexed by node id.
///
/// A driver owns one and lends it to every pass: starting a pass
/// clears only the counters the previous pass touched, so a pass costs
/// what it visits, not the program's size.
#[derive(Debug, Clone, Default)]
pub struct Occurrences {
    count: Vec<u32>,
    touched: Vec<StmtId>,
}

impl Occurrences {
    /// Zero every counter for a program of `size` nodes.
    fn reset(&mut self, size: usize) {
        for id in self.touched.drain(..) {
            self.count[id.0 as usize] = 0;
        }
        if self.count.len() < size {
            self.count.resize(size, 0);
        }
    }

    /// The occurrence number of this visit of `id`.
    fn next(&mut self, id: StmtId) -> u32 {
        let c = &mut self.count[id.0 as usize];
        if *c == 0 {
            self.touched.push(id);
        }
        *c += 1;
        *c - 1
    }
}

/// One execution pass over the program.
pub struct Engine<'p, S: Sem> {
    prog: &'p Program,
    /// Selection (active pauses) from the previous instant.
    sel: &'p BitSet,
    /// Per-node visit counters for this pass.
    occ: &'p mut Occurrences,
    /// The driver's resolution strategy.
    pub sem: S,
}

impl<'p, S: Sem> Engine<'p, S> {
    /// Create an engine for one pass, counting visits in `occ`.
    pub fn new(prog: &'p Program, sel: &'p BitSet, occ: &'p mut Occurrences, sem: S) -> Self {
        occ.reset(prog.size());
        Engine {
            prog,
            sel,
            occ,
            sem,
        }
    }

    /// Evaluate a signal expression three-valued. On Unknown, the first
    /// relevant unknown signal is reported via [`Sem::blocked_on`]; the
    /// implementation may *resolve* it there (the compiler's oracle), in
    /// which case evaluation retries. If the status stays unknown the
    /// test blocks.
    fn eval_expr(&mut self, e: &SigExpr) -> Option<bool> {
        loop {
            match eval3_with(e, &mut self.sem) {
                Tri::True => return Some(true),
                Tri::False => return Some(false),
                Tri::Unknown => {
                    let s = first_unknown_with(e, &mut self.sem)?;
                    self.sem.blocked_on(s);
                    if self.sem.status(s) == Tri::Unknown {
                        return None;
                    }
                }
            }
        }
    }

    /// Execute node `id`; `start` selects start vs. resume mode.
    pub fn exec(&mut self, id: StmtId, start: bool) -> ExecOut {
        use ExecOut::*;
        let prog = self.prog;
        match prog.node(id) {
            Node::Nothing => Done {
                code: 0,
                pauses: BitSet::new(),
            },
            Node::Pause(p) => {
                if start {
                    let mut b = BitSet::new();
                    b.insert(*p as usize);
                    Done { code: 1, pauses: b }
                } else {
                    // Resumed ⇒ this pause was selected ⇒ it terminates.
                    Done {
                        code: 0,
                        pauses: BitSet::new(),
                    }
                }
            }
            Node::Emit(s, value) => {
                let occ = self.occ.next(id);
                if self.sem.emit((id, occ), *s, *value) {
                    Done {
                        code: 0,
                        pauses: BitSet::new(),
                    }
                } else {
                    Failed(ExecFailure::InconsistentEmission(*s))
                }
            }
            Node::Present(cond, t, e) => {
                if start {
                    match self.eval_expr(cond) {
                        Some(true) => self.exec(*t, true),
                        Some(false) => self.exec(*e, true),
                        None => Blocked,
                    }
                } else {
                    // Resume the branch holding the selection; the test
                    // is not re-evaluated.
                    if prog.selected(*t, self.sel) {
                        self.exec(*t, false)
                    } else {
                        self.exec(*e, false)
                    }
                }
            }
            Node::IfData(p, t, e) => {
                if start {
                    let occ = self.occ.next(id);
                    match self.sem.pred((id, occ), *p) {
                        Some(true) => self.exec(*t, true),
                        Some(false) => self.exec(*e, true),
                        None => Blocked,
                    }
                } else if prog.selected(*t, self.sel) {
                    self.exec(*t, false)
                } else {
                    self.exec(*e, false)
                }
            }
            Node::Action(a) => {
                let occ = self.occ.next(id);
                self.sem.action((id, occ), *a);
                Done {
                    code: 0,
                    pauses: BitSet::new(),
                }
            }
            Node::Seq(children) => {
                let mut idx = 0;
                let mut mode_start = start;
                if !start {
                    // Find the child holding the selection.
                    match prog.selected_child(children, self.sel) {
                        Some(i) => idx = i,
                        None => {
                            // Selection vanished (should not happen).
                            return Done {
                                code: 0,
                                pauses: BitSet::new(),
                            };
                        }
                    }
                    mode_start = false;
                }
                while idx < children.len() {
                    match self.exec(children[idx], mode_start) {
                        Done { code: 0, .. } => {
                            idx += 1;
                            mode_start = true;
                        }
                        other => return other,
                    }
                }
                Done {
                    code: 0,
                    pauses: BitSet::new(),
                }
            }
            Node::Loop(body) => {
                let first = self.exec(*body, start);
                match first {
                    Done { code: 0, .. } => {
                        // Body finished within the instant: restart once.
                        match self.exec(*body, true) {
                            Done { code: 0, .. } => Failed(ExecFailure::InstantaneousLoop),
                            other => other,
                        }
                    }
                    other => other,
                }
            }
            Node::Par(children) => {
                let mut blocked = false;
                let mut code = 0u32;
                let mut pauses = BitSet::new();
                for &c in children {
                    let child_out = if start {
                        self.exec(c, true)
                    } else if prog.selected(c, self.sel) {
                        self.exec(c, false)
                    } else {
                        // Terminated in an earlier instant.
                        Done {
                            code: 0,
                            pauses: BitSet::new(),
                        }
                    };
                    match child_out {
                        Done {
                            code: c2,
                            pauses: p2,
                        } => {
                            code = code.max(c2);
                            pauses.union_with(&p2);
                        }
                        Blocked => blocked = true,
                        Failed(f) => return Failed(f),
                    }
                }
                if blocked {
                    Blocked
                } else {
                    Done { code, pauses }
                }
            }
            Node::Trap(body) => match self.exec(*body, start) {
                Done { code: 2, .. } => Done {
                    // Caught: the whole body is killed, pauses dropped.
                    code: 0,
                    pauses: BitSet::new(),
                },
                Done { code, pauses } if code > 2 => Done {
                    code: code - 1,
                    pauses,
                },
                other => other,
            },
            Node::Exit(d) => Done {
                code: d + 2,
                pauses: BitSet::new(),
            },
            Node::Suspend(guard, body) => {
                if start {
                    // The guard is not tested in the starting instant.
                    self.exec(*body, true)
                } else {
                    match self.eval_expr(guard) {
                        Some(true) => {
                            // Frozen: keep the body's current selection.
                            let m = prog.meta(*body);
                            let mut kept = BitSet::new();
                            for b in self.sel.iter() {
                                if b >= m.pause_lo as usize && b < m.pause_hi as usize {
                                    kept.insert(b);
                                }
                            }
                            Done {
                                code: 1,
                                pauses: kept,
                            }
                        }
                        Some(false) => self.exec(*body, false),
                        None => Blocked,
                    }
                }
            }
        }
    }
}

/// Evaluate three-valued against [`Sem::status`].
fn eval3_with<S: Sem>(e: &SigExpr, sem: &mut S) -> Tri {
    match e {
        SigExpr::Const(true) => Tri::True,
        SigExpr::Const(false) => Tri::False,
        SigExpr::Sig(s) => sem.status(*s),
        SigExpr::Not(x) => eval3_with(x, sem).not(),
        SigExpr::And(a, b) => eval3_with(a, sem).and(eval3_with(b, sem)),
        SigExpr::Or(a, b) => eval3_with(a, sem).or(eval3_with(b, sem)),
    }
}

/// First unknown signal that matters for `e`'s value.
fn first_unknown_with<S: Sem>(e: &SigExpr, sem: &mut S) -> Option<Signal> {
    if eval3_with(e, sem) != Tri::Unknown {
        return None;
    }
    match e {
        SigExpr::Const(_) => None,
        SigExpr::Sig(s) => (sem.status(*s) == Tri::Unknown).then_some(*s),
        SigExpr::Not(x) => first_unknown_with(x, sem),
        SigExpr::And(a, b) | SigExpr::Or(a, b) => {
            first_unknown_with(a, sem).or_else(|| first_unknown_with(b, sem))
        }
    }
}

/// Suppress unused warnings for ids used only through trait calls.
#[allow(dead_code)]
fn _phantom(_: ActionId, _: PredId) {}
