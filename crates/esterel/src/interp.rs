//! Constructive reference interpreter.
//!
//! Executes one instant at a time: inputs are fully known, outputs and
//! locals start [`Tri::Unknown`] and are refined monotonically. Each
//! pass runs the shared engine; when it blocks on an unknown signal, the
//! driver runs a *Can* (potential) analysis over the whole program — if
//! no potential execution can emit the signal, it is set absent and the
//! pass restarts. Failure to make progress means the program is not
//! constructive (e.g. `present S else emit S`).
//!
//! Data effects (actions, predicate evaluations, valued emissions) are
//! journaled by `(node, occurrence)` so that restarts never re-execute
//! them — see `engine.rs` for why that key is stable. They resolve
//! through the same [`DataHooks`] ids the compiled EFSM uses, so the
//! runtime's data backend (the register bytecode VM, or its
//! tree-walker under `Backend::Walker`) accelerates this interpreter
//! and the compiled machine identically — one journal entry per hook
//! call either way.

use crate::engine::{Engine, ExecFailure, ExecOut, Occurrences, Sem};
use crate::ir::{Node, Program, SigExpr, StmtId, Tri};
use efsm::{ActionId, BitSet, DataHooks, ExprId, PredId, SigKind, Signal};
use std::collections::HashMap;
use std::fmt;

/// Error raised while executing an instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// No execution order can resolve these signals (causality cycle).
    NonConstructive {
        /// The signals still unknown when progress stopped.
        unresolved: Vec<Signal>,
    },
    /// A loop body completed twice in one instant.
    InstantaneousLoop,
    /// An emission contradicted an inferred absence — this indicates a
    /// bug in the Can analysis and is surfaced loudly.
    CausalityViolation(Signal),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NonConstructive { unresolved } => {
                write!(
                    f,
                    "program is not constructive; unresolved signals: {unresolved:?}"
                )
            }
            RuntimeError::InstantaneousLoop => write!(f, "loop body ran twice in one instant"),
            RuntimeError::CausalityViolation(s) => {
                write!(f, "signal {s:?} emitted after being inferred absent")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The outcome of one instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Reaction {
    /// Signals emitted this instant, in emission order (no duplicates).
    pub emitted: Vec<Signal>,
    /// True when the program terminated (or was already dead).
    pub terminated: bool,
}

impl Reaction {
    /// Whether `s` was emitted this instant.
    pub fn has(&self, s: Signal) -> bool {
        self.emitted.contains(&s)
    }
}

/// Journal entries carried across passes within one instant.
#[derive(Debug, Clone, PartialEq)]
enum Journal {
    ActionDone,
    Pred(bool),
    EmitDone,
}

/// The interpreter: program + current selection.
#[derive(Debug)]
pub struct Machine<'p> {
    prog: &'p Program,
    sel: BitSet,
    started: bool,
    dead: bool,
    /// Count of constructive fixpoint passes over the lifetime (metric).
    pub passes: u64,
    /// Unknown-signal count after the previous pass (progress check).
    last_unknowns: usize,
    /// Visit counters, reused by every pass.
    occ: Occurrences,
}

/// Per-pass semantics implementation for the interpreter.
struct InterpSem<'a, 'h> {
    status: &'a mut Vec<Tri>,
    order: &'a mut Vec<Signal>,
    journal: &'a mut HashMap<(StmtId, u32), Journal>,
    hooks: &'a mut (dyn DataHooks + 'h),
    violated: &'a mut Option<Signal>,
}

impl<'a, 'h> Sem for InterpSem<'a, 'h> {
    fn status(&mut self, s: Signal) -> Tri {
        self.status[s.0 as usize]
    }

    fn blocked_on(&mut self, _s: Signal) {}

    fn pred(&mut self, at: (StmtId, u32), p: PredId) -> Option<bool> {
        if let Some(Journal::Pred(v)) = self.journal.get(&at) {
            return Some(*v);
        }
        let v = self.hooks.eval_pred(p);
        self.journal.insert(at, Journal::Pred(v));
        Some(v)
    }

    fn action(&mut self, at: (StmtId, u32), a: ActionId) {
        if self.journal.contains_key(&at) {
            return;
        }
        self.hooks.run_action(a);
        self.journal.insert(at, Journal::ActionDone);
    }

    fn emit(&mut self, at: (StmtId, u32), s: Signal, value: Option<ExprId>) -> bool {
        match self.status[s.0 as usize] {
            Tri::False => {
                // Can said this could never be emitted: internal bug.
                *self.violated = Some(s);
                return false;
            }
            Tri::True | Tri::Unknown => {}
        }
        self.status[s.0 as usize] = Tri::True;
        if !self.journal.contains_key(&at) {
            if let Some(e) = value {
                self.hooks.emit_value(s, e);
            }
            if !self.order.contains(&s) {
                self.order.push(s);
            }
            self.journal.insert(at, Journal::EmitDone);
        }
        true
    }
}

impl<'p> Machine<'p> {
    /// Create a machine at the program's initial (not yet started) state.
    pub fn new(prog: &'p Program) -> Self {
        Machine {
            prog,
            sel: BitSet::new(),
            started: false,
            dead: false,
            passes: 0,
            last_unknowns: usize::MAX,
            occ: Occurrences::default(),
        }
    }

    /// Has the program terminated?
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The current selection (active pause points).
    pub fn selection(&self) -> &BitSet {
        &self.sel
    }

    /// Run one instant with the signals of `inputs` (a presence set
    /// over this program's signal indices) present.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NonConstructive`] when signal statuses cannot be
    /// resolved; [`RuntimeError::InstantaneousLoop`] as a dynamic
    /// backstop for the static loop check.
    pub fn react_set(
        &mut self,
        inputs: &BitSet,
        hooks: &mut dyn DataHooks,
    ) -> Result<Reaction, RuntimeError> {
        if self.dead {
            return Ok(Reaction {
                emitted: vec![],
                terminated: true,
            });
        }
        let n = self.prog.signals().len();
        let mut status: Vec<Tri> = (0..n)
            .map(|i| {
                let info = &self.prog.signals()[i];
                if info.kind == SigKind::Input {
                    if inputs.contains(i) {
                        Tri::True
                    } else {
                        Tri::False
                    }
                } else {
                    Tri::Unknown
                }
            })
            .collect();
        let mut order: Vec<Signal> = Vec::new();
        let mut journal: HashMap<(StmtId, u32), Journal> = HashMap::new();
        let start = !self.started;
        self.last_unknowns = usize::MAX;

        loop {
            self.passes += 1;
            let mut violated = None;
            let sem = InterpSem {
                status: &mut status,
                order: &mut order,
                journal: &mut journal,
                hooks,
                violated: &mut violated,
            };
            let mut engine = Engine::new(self.prog, &self.sel, &mut self.occ, sem);
            let out = engine.exec(self.prog.root(), start);
            match out {
                ExecOut::Done { code, pauses } => {
                    self.started = true;
                    self.sel = pauses.normalized();
                    self.dead = code == 0 || self.sel.is_empty();
                    return Ok(Reaction {
                        emitted: order,
                        terminated: self.dead,
                    });
                }
                ExecOut::Failed(ExecFailure::InstantaneousLoop) => {
                    return Err(RuntimeError::InstantaneousLoop)
                }
                ExecOut::Failed(ExecFailure::InconsistentEmission(s)) => {
                    return Err(RuntimeError::CausalityViolation(violated.unwrap_or(s)))
                }
                ExecOut::Blocked => {
                    // The pass itself may have made progress (an
                    // emission resolved a signal another branch was
                    // waiting on): count unknowns across passes.
                    let unknowns = status.iter().filter(|s| **s == Tri::Unknown).count();
                    let mut progress = unknowns < self.last_unknowns;
                    self.last_unknowns = unknowns;
                    // Can-based absence inference.
                    let can = self.can_root(&status, &journal, start);
                    #[allow(clippy::needless_range_loop)]
                    for i in 0..n {
                        if status[i] == Tri::Unknown && !can.emits.contains(i) {
                            status[i] = Tri::False;
                            self.last_unknowns -= 1;
                            progress = true;
                        }
                    }
                    if !progress {
                        let unresolved = (0..n)
                            .filter(|i| status[*i] == Tri::Unknown)
                            .map(|i| Signal(i as u32))
                            .collect();
                        return Err(RuntimeError::NonConstructive { unresolved });
                    }
                }
            }
        }
    }

    // -- Can (potential) analysis ---------------------------------------

    fn can_root(
        &self,
        status: &[Tri],
        journal: &HashMap<(StmtId, u32), Journal>,
        start: bool,
    ) -> Can {
        let mut ctx = CanCtx {
            prog: self.prog,
            sel: &self.sel,
            status,
            journal,
        };
        ctx.can(self.prog.root(), start)
    }
}

/// Potential behavior: which signals may still be emitted, which
/// completion codes are possible.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Can {
    emits: BitSet,
    /// Bitmask of possible completion codes.
    codes: u64,
}

impl Can {
    fn terminated() -> Can {
        Can {
            emits: BitSet::new(),
            codes: 1,
        }
    }
}

struct CanCtx<'a> {
    prog: &'a Program,
    sel: &'a BitSet,
    status: &'a [Tri],
    // Journal is used for already-decided predicates at occurrence 0;
    // deeper occurrences conservatively fork both ways.
    journal: &'a HashMap<(StmtId, u32), Journal>,
}

impl<'a> CanCtx<'a> {
    fn eval3(&self, e: &SigExpr) -> Tri {
        e.eval3(&|s: Signal| self.status[s.0 as usize])
    }

    fn can(&mut self, id: StmtId, start: bool) -> Can {
        let prog = self.prog;
        match prog.node(id) {
            Node::Nothing => Can::terminated(),
            Node::Pause(p) => {
                if start {
                    Can {
                        emits: BitSet::new(),
                        codes: 1 << 1,
                    }
                } else if self.sel.contains(*p as usize) {
                    Can::terminated()
                } else {
                    // Not selected: no behavior; callers avoid this.
                    Can::terminated()
                }
            }
            Node::Emit(s, _) => {
                let mut emits = BitSet::new();
                emits.insert(s.0 as usize);
                Can { emits, codes: 1 }
            }
            Node::Present(c, t, e) => {
                if start {
                    match self.eval3(c) {
                        Tri::True => self.can(*t, true),
                        Tri::False => self.can(*e, true),
                        Tri::Unknown => union(self.can(*t, true), self.can(*e, true)),
                    }
                } else if prog.selected(*t, self.sel) {
                    self.can(*t, false)
                } else {
                    self.can(*e, false)
                }
            }
            Node::IfData(_, t, e) => {
                if start {
                    // If the first occurrence was already decided this
                    // instant, use it; otherwise fork both ways.
                    if let Some(Journal::Pred(v)) = self.journal.get(&(id, 0)) {
                        return self.can(if *v { *t } else { *e }, true);
                    }
                    union(self.can(*t, true), self.can(*e, true))
                } else if prog.selected(*t, self.sel) {
                    self.can(*t, false)
                } else {
                    self.can(*e, false)
                }
            }
            Node::Action(_) => Can::terminated(),
            Node::Seq(children) => {
                let mut idx = 0;
                let mut mode_start = start;
                if !start {
                    match prog.selected_child(children, self.sel) {
                        Some(i) => idx = i,
                        None => return Can::terminated(),
                    }
                }
                let mut emits = BitSet::new();
                let mut codes = 0u64;
                let mut reachable = true;
                while idx < children.len() {
                    if !reachable {
                        break;
                    }
                    let c = self.can(children[idx], mode_start);
                    emits.union_with(&c.emits);
                    codes |= c.codes & !1;
                    reachable = c.codes & 1 != 0;
                    mode_start = true;
                    idx += 1;
                }
                if reachable {
                    codes |= 1;
                }
                Can { emits, codes }
            }
            Node::Loop(body) => {
                let first = self.can(*body, start);
                if first.codes & 1 != 0 {
                    // Body may finish: a second (start-mode) iteration
                    // may also run this instant.
                    let second = self.can(*body, true);
                    let mut emits = first.emits;
                    emits.union_with(&second.emits);
                    Can {
                        emits,
                        codes: (first.codes & !1) | (second.codes & !1),
                    }
                } else {
                    first
                }
            }
            Node::Par(children) => {
                let mut emits = BitSet::new();
                let mut codes = 1u64; // neutral element {0}
                for &c in children {
                    let child = if start {
                        self.can(c, true)
                    } else if prog.selected(c, self.sel) {
                        self.can(c, false)
                    } else {
                        Can::terminated()
                    };
                    emits.union_with(&child.emits);
                    codes = max_combine(codes, child.codes);
                }
                Can { emits, codes }
            }
            Node::Trap(body) => {
                let c = self.can(*body, start);
                let mut codes = c.codes & 0b11;
                if c.codes & (1 << 2) != 0 {
                    codes |= 1;
                }
                codes |= (c.codes >> 3) << 2;
                Can {
                    emits: c.emits,
                    codes,
                }
            }
            Node::Exit(d) => Can {
                emits: BitSet::new(),
                codes: 1 << (d + 2).min(62),
            },
            Node::Suspend(guard, body) => {
                if start {
                    self.can(*body, true)
                } else {
                    match self.eval3(guard) {
                        Tri::True => Can {
                            emits: BitSet::new(),
                            codes: 1 << 1,
                        },
                        Tri::False => self.can(*body, false),
                        Tri::Unknown => union(
                            Can {
                                emits: BitSet::new(),
                                codes: 1 << 1,
                            },
                            self.can(*body, false),
                        ),
                    }
                }
            }
        }
    }
}

fn union(a: Can, b: Can) -> Can {
    let mut emits = a.emits;
    emits.union_with(&b.emits);
    Can {
        emits,
        codes: a.codes | b.codes,
    }
}

/// Max-combination of two completion-code sets (parallel rule).
fn max_combine(a: u64, b: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..63 {
        if a & (1 << i) == 0 {
            continue;
        }
        for j in 0..63 {
            if b & (1 << j) != 0 {
                out |= 1 << i.max(j);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ProgramBuilder, Stmt};
    use efsm::NoHooks;

    fn react(m: &mut Machine<'_>, present: &[Signal]) -> Reaction {
        let set: BitSet = present.iter().map(|s| s.0 as usize).collect();
        m.react_set(&set, &mut NoHooks).expect("constructive")
    }

    #[test]
    fn await_is_delayed() {
        let mut b = ProgramBuilder::new("t");
        let a = b.input("a");
        let o = b.output("o");
        let p = b
            .finish(Stmt::seq(vec![Stmt::await_(a.into()), Stmt::emit(o)]))
            .unwrap();
        let mut m = Machine::new(&p);
        // Instant 0: a present — but await starts this instant, so it
        // must NOT fire (paper: "some later instant").
        let r0 = react(&mut m, &[a]);
        assert!(r0.emitted.is_empty());
        assert!(!r0.terminated);
        // Instant 1: a present → fires, o emitted, program terminates.
        let r1 = react(&mut m, &[a]);
        assert_eq!(r1.emitted, vec![o]);
        assert!(r1.terminated);
        // Dead afterwards.
        let r2 = react(&mut m, &[a]);
        assert!(r2.emitted.is_empty());
        assert!(r2.terminated);
    }

    #[test]
    fn await_immediate_fires_in_first_instant() {
        let mut b = ProgramBuilder::new("t");
        let a = b.input("a");
        let o = b.output("o");
        let p = b
            .finish(Stmt::seq(vec![
                Stmt::await_immediate(a.into()),
                Stmt::emit(o),
            ]))
            .unwrap();
        let mut m = Machine::new(&p);
        let r0 = react(&mut m, &[a]);
        assert_eq!(r0.emitted, vec![o]);
    }

    #[test]
    fn abro_kernel() {
        // The classic ABRO: await a || await b; emit o, reset by r.
        let mut bld = ProgramBuilder::new("abro");
        let a = bld.input("a");
        let b = bld.input("b");
        let r = bld.input("r");
        let o = bld.output("o");
        let body = Stmt::loop_(Stmt::seq(vec![
            Stmt::abort(
                Stmt::seq(vec![
                    Stmt::par(vec![Stmt::await_(a.into()), Stmt::await_(b.into())]),
                    Stmt::emit(o),
                    Stmt::halt(),
                ]),
                r.into(),
            ),
            // abort terminates when r occurs; loop needs non-instant path:
        ]));
        let p = bld.finish(body).unwrap();
        let mut m = Machine::new(&p);
        // Start.
        assert!(react(&mut m, &[]).emitted.is_empty());
        // a then b → o.
        assert!(react(&mut m, &[a]).emitted.is_empty());
        assert_eq!(react(&mut m, &[b]).emitted, vec![o]);
        // Nothing more until reset.
        assert!(react(&mut m, &[a, b]).emitted.is_empty());
        // Reset restarts the awaits (delayed: they watch from the next
        // instant), so a+b together right after the reset fire them.
        assert!(react(&mut m, &[r]).emitted.is_empty());
        assert_eq!(react(&mut m, &[a, b]).emitted, vec![o]);
        assert!(!m.is_dead());
    }

    #[test]
    fn strong_abort_blocks_final_instant() {
        // do { await a; emit o } abort (r): r and a together in a later
        // instant → body frozen, no o.
        let mut bld = ProgramBuilder::new("t");
        let a = bld.input("a");
        let r = bld.input("r");
        let o = bld.output("o");
        let p = bld
            .finish(Stmt::abort(
                Stmt::seq(vec![Stmt::await_(a.into()), Stmt::emit(o)]),
                r.into(),
            ))
            .unwrap();
        let mut m = Machine::new(&p);
        react(&mut m, &[]);
        let rx = react(&mut m, &[a, r]);
        assert!(rx.emitted.is_empty(), "strong abort must block the body");
        assert!(rx.terminated);
    }

    #[test]
    fn weak_abort_allows_final_instant() {
        let mut bld = ProgramBuilder::new("t");
        let a = bld.input("a");
        let r = bld.input("r");
        let o = bld.output("o");
        let p = bld
            .finish(Stmt::weak_abort(
                Stmt::seq(vec![Stmt::await_(a.into()), Stmt::emit(o)]),
                r.into(),
            ))
            .unwrap();
        let mut m = Machine::new(&p);
        react(&mut m, &[]);
        let rx = react(&mut m, &[a, r]);
        assert_eq!(
            rx.emitted,
            vec![o],
            "weak abort runs the body's last instant"
        );
        assert!(rx.terminated);
    }

    #[test]
    fn abort_handler_runs_only_on_abort() {
        let mut bld = ProgramBuilder::new("t");
        let a = bld.input("a");
        let r = bld.input("r");
        let o = bld.output("o");
        let h = bld.output("h");
        let body = Stmt::abort_handle(
            Stmt::seq(vec![Stmt::await_(a.into()), Stmt::emit(o)]),
            r.into(),
            Stmt::emit(h),
        );
        let p = bld.finish(body).unwrap();
        // Case 1: normal termination (a, no r): no handler.
        let mut m = Machine::new(&p);
        react(&mut m, &[]);
        let rx = react(&mut m, &[a]);
        assert_eq!(rx.emitted, vec![o]);
        // Case 2: aborted (r): handler runs.
        let mut m2 = Machine::new(&p);
        react(&mut m2, &[]);
        let rx2 = react(&mut m2, &[r]);
        assert_eq!(rx2.emitted, vec![h]);
    }

    #[test]
    fn suspend_freezes_body() {
        let mut bld = ProgramBuilder::new("t");
        let s = bld.input("s");
        let o = bld.output("o");
        // suspend { loop { emit o; pause } } when s
        let p = bld
            .finish(Stmt::suspend(s.into(), Stmt::sustain(o)))
            .unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(react(&mut m, &[]).emitted, vec![o]); // start: no test
        assert_eq!(react(&mut m, &[s]).emitted, vec![] as Vec<Signal>); // frozen
        assert_eq!(react(&mut m, &[]).emitted, vec![o]); // resumes
    }

    #[test]
    fn local_signal_broadcast_within_instant() {
        // par { present l then emit o; halt } || { emit l; halt }
        // present is IMMEDIATE: l emitted in the same instant is seen.
        let mut bld = ProgramBuilder::new("t");
        let o = bld.output("o");
        let l = bld.local("l");
        let body = Stmt::par(vec![
            Stmt::seq(vec![
                Stmt::present(l.into(), Stmt::emit(o), Stmt::nothing()),
                Stmt::halt(),
            ]),
            Stmt::seq(vec![Stmt::emit(l), Stmt::halt()]),
        ]);
        let p = bld.finish(body).unwrap();
        let mut m = Machine::new(&p);
        let r = react(&mut m, &[]);
        assert!(r.has(o), "local emission must be visible in-instant");
    }

    #[test]
    fn absence_inferred_constructively() {
        // present l then emit o1 else emit o2 — l never emitted → o2.
        let mut bld = ProgramBuilder::new("t");
        let o1 = bld.output("o1");
        let o2 = bld.output("o2");
        let l = bld.local("l");
        let p = bld
            .finish(Stmt::present(l.into(), Stmt::emit(o1), Stmt::emit(o2)))
            .unwrap();
        let mut m = Machine::new(&p);
        let r = react(&mut m, &[]);
        assert_eq!(r.emitted, vec![o2]);
    }

    #[test]
    fn non_constructive_detected() {
        // present l else emit l — paradox.
        let mut bld = ProgramBuilder::new("t");
        let l = bld.local("l");
        let p = bld
            .finish(Stmt::present(l.into(), Stmt::nothing(), Stmt::emit(l)))
            .unwrap();
        let mut m = Machine::new(&p);
        let err = m.react_set(&BitSet::new(), &mut NoHooks).unwrap_err();
        assert!(matches!(err, RuntimeError::NonConstructive { .. }));
    }

    #[test]
    fn self_justifying_emission_is_non_constructive() {
        // present l then emit l — logically coherent only with l
        // absent, but *constructively* rejected (textbook example).
        // The EFSM compiler's logical semantics accepts it with the
        // absence-minimal behavior; see DESIGN.md.
        let mut bld = ProgramBuilder::new("t");
        let l = bld.local("l");
        let o = bld.output("o");
        let p = bld
            .finish(Stmt::seq(vec![
                Stmt::present(l.into(), Stmt::emit(l), Stmt::nothing()),
                Stmt::emit(o),
            ]))
            .unwrap();
        let mut m = Machine::new(&p);
        let err = m.react_set(&BitSet::new(), &mut NoHooks).unwrap_err();
        assert!(matches!(err, RuntimeError::NonConstructive { .. }));
    }

    #[test]
    fn par_exit_kills_sibling() {
        // trap { par { halt } { exit 0 } }; emit o — exits immediately.
        let mut bld = ProgramBuilder::new("t");
        let o = bld.output("o");
        let p = bld
            .finish(Stmt::seq(vec![
                Stmt::trap(Stmt::par(vec![Stmt::halt(), Stmt::exit(0)])),
                Stmt::emit(o),
            ]))
            .unwrap();
        let mut m = Machine::new(&p);
        let r = react(&mut m, &[]);
        assert_eq!(r.emitted, vec![o]);
        assert!(r.terminated);
    }

    #[test]
    fn await_delta_splits_instants() {
        let mut bld = ProgramBuilder::new("t");
        let o = bld.output("o");
        let p = bld
            .finish(Stmt::seq(vec![Stmt::await_delta(), Stmt::emit(o)]))
            .unwrap();
        let mut m = Machine::new(&p);
        assert!(react(&mut m, &[]).emitted.is_empty());
        assert_eq!(react(&mut m, &[]).emitted, vec![o]);
    }

    #[test]
    fn data_actions_run_exactly_once_per_instant() {
        use efsm::{ActionId, DataHooks, ExprId, PredId};
        #[derive(Default)]
        struct Counter {
            runs: Vec<u32>,
        }
        impl DataHooks for Counter {
            fn eval_pred(&mut self, _p: PredId) -> bool {
                true
            }
            fn run_action(&mut self, a: ActionId) {
                self.runs.push(a.0);
            }
            fn emit_value(&mut self, _s: Signal, _e: ExprId) {}
        }
        // A program that forces a constructive retry: par branch 1
        // blocks on local l (resolved by inference), branch 2 runs an
        // action first.
        let mut bld = ProgramBuilder::new("t");
        let o = bld.output("o");
        let l = bld.local("l");
        let body = Stmt::par(vec![
            Stmt::seq(vec![
                Stmt::action(ActionId(7)),
                Stmt::present(l.into(), Stmt::nothing(), Stmt::emit(o)),
                Stmt::halt(),
            ]),
            Stmt::halt(),
        ]);
        let p = bld.finish(body).unwrap();
        let mut m = Machine::new(&p);
        let mut hooks = Counter::default();
        let r = m.react_set(&BitSet::new(), &mut hooks).unwrap();
        assert!(r.has(o));
        assert_eq!(hooks.runs, vec![7], "action must run exactly once");
    }

    #[test]
    fn sequence_of_emissions_keeps_order() {
        let mut bld = ProgramBuilder::new("t");
        let o1 = bld.output("o1");
        let o2 = bld.output("o2");
        let o3 = bld.output("o3");
        let p = bld
            .finish(Stmt::seq(vec![
                Stmt::emit(o2),
                Stmt::emit(o1),
                Stmt::emit(o3),
            ]))
            .unwrap();
        let mut m = Machine::new(&p);
        let r = react(&mut m, &[]);
        assert_eq!(r.emitted, vec![o2, o1, o3]);
    }
}
