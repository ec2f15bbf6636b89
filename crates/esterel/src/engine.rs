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
#[derive(Debug, PartialEq, Eq)]
pub enum ExecOut<'a> {
    /// The pass completed with Berry completion `code` and the set of
    /// pause points active for the next instant.
    Done {
        /// Completion code: 0 terminated, 1 paused, k≥2 exit.
        code: u32,
        /// Pauses selected for the next instant, lent from the
        /// driver's [`Occurrences`] until its next pass.
        pauses: &'a BitSet,
    },
    /// A signal test could not be decided ([`Sem::blocked_on`] was
    /// called with the culprit).
    Blocked,
    /// The run is inconsistent (guess-and-check failure) or the
    /// program misbehaved dynamically.
    Failed(ExecFailure),
}

/// Why a pass failed hard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecFailure {
    /// A loop body terminated instantaneously twice (should be caught
    /// statically; kept as a dynamic backstop).
    InstantaneousLoop,
    /// An emission contradicted an assumed-absent signal.
    InconsistentEmission(Signal),
}

/// What executing one node returns. Its pauses are not returned: they
/// go into the pass's one pause set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Code {
    /// Completed with this Berry completion code.
    Done(u32),
    /// See [`ExecOut::Blocked`].
    Blocked,
    /// See [`ExecOut::Failed`].
    Failed(ExecFailure),
}

/// Per-node visit counters and the selected pauses of one pass.
///
/// A driver owns one and lends it to every pass: starting a pass
/// clears only the counters the previous pass touched, so a pass costs
/// what it visits, not the program's size. A pass that ends blocked or
/// failed leaves its pauses behind; the next pass clears them.
#[derive(Debug, Clone, Default)]
pub struct Occurrences {
    count: Vec<u32>,
    touched: Vec<StmtId>,
    /// Pauses the current pass selected for the next instant.
    pauses: BitSet,
}

impl Occurrences {
    /// Zero every counter for a program of `size` nodes and empty the
    /// pause set.
    fn reset(&mut self, size: usize) {
        for id in self.touched.drain(..) {
            self.count[id.0 as usize] = 0;
        }
        if self.count.len() < size {
            self.count.resize(size, 0);
        }
        self.pauses.clear();
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
    /// Per-node visit counters and the pause set of this pass.
    occ: &'p mut Occurrences,
    /// The driver's resolution strategy.
    sem: S,
}

impl<'p, S: Sem> Engine<'p, S> {
    /// Create an engine for one pass, counting visits and collecting
    /// pauses in `occ`.
    pub fn new(prog: &'p Program, sel: &'p BitSet, occ: &'p mut Occurrences, sem: S) -> Self {
        occ.reset(prog.size());
        Engine {
            prog,
            sel,
            occ,
            sem,
        }
    }

    /// Run the pass from the program's root; `start` selects start vs.
    /// resume mode.
    pub fn run(mut self, start: bool) -> ExecOut<'p> {
        match self.exec(self.prog.root(), start) {
            Code::Done(code) => ExecOut::Done {
                code,
                pauses: &self.occ.pauses,
            },
            Code::Blocked => ExecOut::Blocked,
            Code::Failed(f) => ExecOut::Failed(f),
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

    /// Execute node `id`; `start` selects start vs. resume mode. The
    /// pauses it selects go into the pass's pause set.
    fn exec(&mut self, id: StmtId, start: bool) -> Code {
        use Code::*;
        let prog = self.prog;
        match prog.node(id) {
            Node::Nothing => Done(0),
            Node::Pause(p) => {
                if start {
                    self.occ.pauses.insert(*p as usize);
                    Done(1)
                } else {
                    // Resumed ⇒ this pause was selected ⇒ it terminates.
                    Done(0)
                }
            }
            Node::Emit(s, value) => {
                let occ = self.occ.next(id);
                if self.sem.emit((id, occ), *s, *value) {
                    Done(0)
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
                Done(0)
            }
            Node::Seq(children) => {
                let mut idx = 0;
                if !start {
                    // Find the child holding the selection; none means
                    // the selection vanished (should not happen).
                    match prog.selected_child(children, self.sel) {
                        Some(i) => idx = i,
                        None => return Done(0),
                    }
                }
                let mut mode_start = start;
                while idx < children.len() {
                    match self.exec(children[idx], mode_start) {
                        Done(0) => {
                            idx += 1;
                            mode_start = true;
                        }
                        other => return other,
                    }
                }
                Done(0)
            }
            Node::Loop(body) => match self.exec(*body, start) {
                // Body finished within the instant: restart once.
                Done(0) => match self.exec(*body, true) {
                    Done(0) => Failed(ExecFailure::InstantaneousLoop),
                    other => other,
                },
                other => other,
            },
            Node::Par(children) => {
                let mut blocked = false;
                let mut code = 0u32;
                for &c in children {
                    let child = if start {
                        self.exec(c, true)
                    } else if prog.selected(c, self.sel) {
                        self.exec(c, false)
                    } else {
                        // Terminated in an earlier instant.
                        Done(0)
                    };
                    match child {
                        Done(c2) => code = code.max(c2),
                        Blocked => blocked = true,
                        Failed(f) => return Failed(f),
                    }
                }
                if blocked {
                    Blocked
                } else {
                    Done(code)
                }
            }
            Node::Trap(body) => match self.exec(*body, start) {
                Done(2) => {
                    // Caught: the whole body is killed. A node that
                    // completes with code 0 leaves no pause behind, and
                    // DFS numbering gives the body the pause range
                    // `[pause_lo, pause_hi)`, so the set's members in
                    // that range are exactly the body's pauses.
                    let m = prog.meta(*body);
                    let (lo, hi) = (m.pause_lo as usize, m.pause_hi as usize);
                    let pauses = &mut self.occ.pauses;
                    for w in lo / 64..hi.div_ceil(64) {
                        let mut bits = pauses.word(w);
                        while bits != 0 {
                            let b = w * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            if (lo..hi).contains(&b) {
                                pauses.remove(b);
                            }
                        }
                    }
                    Done(0)
                }
                Done(code) if code > 2 => Done(code - 1),
                other => other,
            },
            Node::Exit(d) => Done(d + 2),
            Node::Suspend(guard, body) => {
                if start {
                    // The guard is not tested in the starting instant.
                    self.exec(*body, true)
                } else {
                    match self.eval_expr(guard) {
                        Some(true) => {
                            // Frozen: keep the body's current selection.
                            let m = prog.meta(*body);
                            let range = m.pause_lo as usize..m.pause_hi as usize;
                            for b in self.sel.iter().filter(|b| range.contains(b)) {
                                self.occ.pauses.insert(b);
                            }
                            Done(1)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ProgramBuilder, Stmt};

    /// Signal statuses fixed for the pass; data is never consulted.
    struct Fixed(Vec<Tri>);

    impl Sem for Fixed {
        fn status(&mut self, s: Signal) -> Tri {
            self.0[s.0 as usize]
        }
        fn blocked_on(&mut self, _: Signal) {}
        fn pred(&mut self, _: (StmtId, u32), _: PredId) -> Option<bool> {
            Some(false)
        }
        fn action(&mut self, _: (StmtId, u32), _: ActionId) {}
        fn emit(&mut self, _: (StmtId, u32), _: Signal, _: Option<ExprId>) -> bool {
            true
        }
    }

    /// One pass of `prog` from selection `sel` (start mode when `None`)
    /// with signal 0 at `s`: the code and the selected pauses.
    fn pass(
        prog: &Program,
        occ: &mut Occurrences,
        sel: Option<&[usize]>,
        s: Tri,
    ) -> Option<(u32, Vec<usize>)> {
        let bits: BitSet = sel.unwrap_or(&[]).iter().copied().collect();
        match Engine::new(prog, &bits, occ, Fixed(vec![s])).run(sel.is_none()) {
            ExecOut::Done { code, pauses } => Some((code, pauses.iter().collect())),
            _ => None,
        }
    }

    fn program(body: Stmt) -> Program {
        let mut b = ProgramBuilder::new("t");
        b.input("s");
        b.finish(body).unwrap()
    }

    #[test]
    fn trap_caught_from_one_par_branch_drops_its_siblings_pauses() {
        // par { pause₀ } { trap { par { pause₁ } { exit 0 } }; pause₂ }
        let prog = program(Stmt::par(vec![
            Stmt::pause(),
            Stmt::seq(vec![
                Stmt::trap(Stmt::par(vec![Stmt::pause(), Stmt::exit(0)])),
                Stmt::pause(),
            ]),
        ]));
        let mut occ = Occurrences::default();
        assert_eq!(
            pass(&prog, &mut occ, None, Tri::False),
            Some((1, vec![0, 2]))
        );
    }

    #[test]
    fn exit_through_two_traps_keeps_pauses_until_caught() {
        // trap { trap { par { pause₀ } { exit d } }; pause₁ }; pause₂
        let prog = |d| {
            program(Stmt::seq(vec![
                Stmt::trap(Stmt::seq(vec![
                    Stmt::trap(Stmt::par(vec![Stmt::pause(), Stmt::exit(d)])),
                    Stmt::pause(),
                ])),
                Stmt::pause(),
            ]))
        };
        let mut occ = Occurrences::default();
        // Caught by the inner trap: the outer body goes on to pause₁.
        assert_eq!(
            pass(&prog(0), &mut occ, None, Tri::False),
            Some((1, vec![1]))
        );
        // Through the inner trap to the outer: both bodies die.
        assert_eq!(
            pass(&prog(1), &mut occ, None, Tri::False),
            Some((1, vec![2]))
        );
    }

    #[test]
    fn frozen_suspend_keeps_exactly_its_bodys_selected_pauses() {
        // par { suspend (s) { par { loop { pause₀; pause₁ } } { loop pause₂ } } }
        //     { pause₃; pause₄ }
        let prog = program(Stmt::par(vec![
            Stmt::suspend(
                Signal(0).into(),
                Stmt::par(vec![
                    Stmt::loop_(Stmt::seq(vec![Stmt::pause(), Stmt::pause()])),
                    Stmt::loop_(Stmt::pause()),
                ]),
            ),
            Stmt::seq(vec![Stmt::pause(), Stmt::pause()]),
        ]));
        let mut occ = Occurrences::default();
        let sel: &[usize] = &[1, 2, 3];
        // Frozen: pause₁ and pause₂ stay, pause₃ moves on to pause₄.
        assert_eq!(
            pass(&prog, &mut occ, Some(sel), Tri::True),
            Some((1, vec![1, 2, 4]))
        );
        assert_eq!(
            pass(&prog, &mut occ, Some(sel), Tri::False),
            Some((1, vec![0, 2, 4]))
        );
    }

    #[test]
    fn a_blocked_pass_leaves_no_pause_to_the_next() {
        // par { pause₀ } { present (s) { pause₁ } }
        let prog = program(Stmt::par(vec![
            Stmt::pause(),
            Stmt::present(Signal(0).into(), Stmt::pause(), Stmt::nothing()),
        ]));
        let mut occ = Occurrences::default();
        assert_eq!(pass(&prog, &mut occ, None, Tri::Unknown), None);
        assert_eq!(
            pass(&prog, &mut occ, Some(&[0]), Tri::False),
            Some((0, vec![]))
        );
        assert_eq!(pass(&prog, &mut occ, None, Tri::False), Some((1, vec![0])));
    }
}
