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
//!
//! A pass reads the previous instant's pauses through a [`Selection`],
//! which the compiler fills once per state and the interpreter once
//! per reaction, and which every pass shares.

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

/// The selected pauses of one state, with each node marked when its
/// subtree holds one of them.
///
/// [`Selection::fill`] walks up from each selected pause towards the
/// root and stops where an earlier walk joined, so a fill costs the
/// selected pauses times their depth, and a resume-mode visit reads one
/// mark. Pauses are walked in increasing order, and DFS numbering gives
/// siblings increasing pause ranges, so the first walk into a node
/// arrives through its first holding child: the mark records that
/// child, which is where a `Seq` resumes. The compiler and the
/// interpreter each size one selection for their program and refill it
/// for every state or reaction.
#[derive(Debug)]
pub struct Selection {
    /// The selected pauses.
    pauses: BitSet,
    /// Per node: [`UNMARKED`] when its subtree holds no selected pause,
    /// else the index of the child the first walk arrived through (0
    /// for a pause itself).
    marks: Vec<u32>,
    /// The marked nodes, unmarked by the next fill.
    marked: Vec<StmtId>,
}

/// The mark of a node whose subtree holds no selected pause.
const UNMARKED: u32 = u32::MAX;

impl Selection {
    /// An empty selection with room for every pause and node of `prog`.
    pub fn new(prog: &Program) -> Self {
        Selection {
            pauses: BitSet::with_capacity(prog.n_pauses() as usize),
            marks: vec![UNMARKED; prog.size()],
            marked: Vec::with_capacity(prog.size()),
        }
    }

    /// Select `pauses` (pause indices of `prog`, the program this
    /// selection was sized for), replacing the previous selection.
    pub fn fill(&mut self, prog: &Program, pauses: &BitSet) {
        for id in self.marked.drain(..) {
            self.marks[id.0 as usize] = UNMARKED;
        }
        self.pauses.clone_from(pauses);
        for p in pauses.iter() {
            let (mut id, mut from) = (prog.pause_node(p), 0);
            while self.marks[id.0 as usize] == UNMARKED {
                self.marks[id.0 as usize] = from;
                self.marked.push(id);
                let Some((parent, index)) = prog.parent(id) else {
                    break;
                };
                (id, from) = (parent, index);
            }
        }
    }

    /// The selected pauses.
    pub fn pauses(&self) -> &BitSet {
        &self.pauses
    }

    /// Does the subtree of `id` hold a selected pause?
    #[inline]
    pub fn holds(&self, id: StmtId) -> bool {
        self.marks[id.0 as usize] != UNMARKED
    }

    /// The index of the first child of `id` whose subtree holds a
    /// selected pause, if `id`'s does.
    #[inline]
    pub fn first_child(&self, id: StmtId) -> Option<usize> {
        let m = self.marks[id.0 as usize];
        (m != UNMARKED).then_some(m as usize)
    }
}

/// One execution pass over the program.
pub struct Engine<'p, S: Sem> {
    prog: &'p Program,
    /// Selection (active pauses) from the previous instant.
    sel: &'p Selection,
    /// Per-node visit counters and the pause set of this pass.
    occ: &'p mut Occurrences,
    /// The driver's resolution strategy.
    sem: S,
}

impl<'p, S: Sem> Engine<'p, S> {
    /// Create an engine for one pass, counting visits and collecting
    /// pauses in `occ`.
    pub fn new(prog: &'p Program, sel: &'p Selection, occ: &'p mut Occurrences, sem: S) -> Self {
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
                    if self.sel.holds(*t) {
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
                } else if self.sel.holds(*t) {
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
                    // Resume the child holding the selection; none
                    // means the selection vanished (should not happen).
                    match self.sel.first_child(id) {
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
                    } else if self.sel.holds(c) {
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
                            let sel = self.sel.pauses().iter();
                            for b in sel.filter(|b| range.contains(b)) {
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
        let mut marks = Selection::new(prog);
        marks.fill(prog, &sel.unwrap_or(&[]).iter().copied().collect());
        match Engine::new(prog, &marks, occ, Fixed(vec![s])).run(sel.is_none()) {
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

    /// A random kernel statement tree over signal 0, with exits bound
    /// by the `traps` enclosing traps and every loop body pausing.
    fn gen_stmt(rng: &mut impl rand::Rng, depth: u32, traps: u32) -> Stmt {
        let arms = if depth == 0 { 5 } else { 12 };
        match rng.gen_range(0..arms) {
            0 => Stmt::Nothing,
            1 | 2 => Stmt::Pause,
            3 => Stmt::emit(Signal(0)),
            4 if traps > 0 => Stmt::Exit(rng.gen_range(0..traps)),
            4 => Stmt::Action(ActionId(0)),
            5 => Stmt::present(
                Signal(0).into(),
                gen_stmt(rng, depth - 1, traps),
                gen_stmt(rng, depth - 1, traps),
            ),
            6 => Stmt::if_data(
                PredId(0),
                gen_stmt(rng, depth - 1, traps),
                gen_stmt(rng, depth - 1, traps),
            ),
            7 | 8 => {
                let n = rng.gen_range(1..5);
                Stmt::Seq((0..n).map(|_| gen_stmt(rng, depth - 1, traps)).collect())
            }
            9 => {
                let n = rng.gen_range(1..4);
                Stmt::Par((0..n).map(|_| gen_stmt(rng, depth - 1, traps)).collect())
            }
            10 => Stmt::trap(gen_stmt(rng, depth - 1, traps + 1)),
            _ if rng.gen_bool(0.5) => Stmt::loop_(Stmt::Seq(vec![
                gen_stmt(rng, depth - 1, traps),
                Stmt::Pause,
            ])),
            _ => Stmt::suspend(Signal(0).into(), gen_stmt(rng, depth - 1, traps)),
        }
    }

    /// The children of `id` in order.
    fn children(prog: &Program, id: StmtId) -> Vec<StmtId> {
        match prog.node(id) {
            Node::Present(_, t, e) | Node::IfData(_, t, e) => vec![*t, *e],
            Node::Seq(v) | Node::Par(v) => v.clone(),
            Node::Loop(b) | Node::Trap(b) | Node::Suspend(_, b) => vec![*b],
            _ => Vec::new(),
        }
    }

    /// On random programs and random pause subsets, refilled into one
    /// selection per program: a node is marked exactly when a selected
    /// pause lies in its range `[pause_lo, pause_hi)`, and a marked
    /// node's first child is its first child whose range holds one
    /// (where a `Seq` resumes).
    #[test]
    fn selection_marks_exactly_the_holding_subtrees() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let mut deep = 0;
        for _ in 0..400 {
            let depth = rng.gen_range(1..6);
            // One program in four is a wide sequence or parallel, so
            // selections span more than one bitset word.
            let body = if rng.gen_bool(0.25) {
                let n = rng.gen_range(16..64);
                let wide: Vec<Stmt> = (0..n).map(|_| gen_stmt(&mut rng, depth, 0)).collect();
                match rng.gen_bool(0.5) {
                    true => Stmt::Seq(wide),
                    false => Stmt::Par(wide),
                }
            } else {
                gen_stmt(&mut rng, depth, 0)
            };
            let prog = program(body);
            let n = prog.n_pauses() as usize;
            deep += usize::from(n > 64);
            let mut sel = Selection::new(&prog);
            for _ in 0..8 {
                let density = f64::from(rng.gen_range(0..5u32)) / 4.0;
                let pauses: BitSet = (0..n).filter(|_| rng.gen_bool(density)).collect();
                sel.fill(&prog, &pauses);
                assert_eq!(sel.pauses(), &pauses);
                let in_range = |id: StmtId| {
                    let m = prog.meta(id);
                    (m.pause_lo as usize..m.pause_hi as usize).any(|b| pauses.contains(b))
                };
                for i in 0..prog.size() {
                    let id = StmtId(i as u32);
                    assert_eq!(
                        sel.holds(id),
                        in_range(id),
                        "{id:?} of {prog:?} at {pauses:?}"
                    );
                    let kids = children(&prog, id);
                    if !kids.is_empty() {
                        let first = kids.iter().position(|c| in_range(*c));
                        assert_eq!(
                            sel.first_child(id),
                            first,
                            "{id:?} of {prog:?} at {pauses:?}"
                        );
                    }
                }
            }
        }
        assert!(deep > 0, "no program spans two bitset words");
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
