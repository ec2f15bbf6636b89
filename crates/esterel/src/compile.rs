//! Compilation of Esterel programs to EFSMs (automaton style).
//!
//! This reproduces the role of the "native Esterel compiler" in the ECL
//! flow: enumerate the reachable control states (sets of active pause
//! points) and, for each, build the reaction as a POLIS-style s-graph.
//!
//! Per state, the instant is executed symbolically: input signals start
//! unknown and are *forked* into `Test` nodes when a test needs them;
//! data predicates fork into `TestPred` nodes; local (and own-output)
//! signals are resolved by guess-and-check — both statuses are explored,
//! and a completed run is kept only if its guesses are consistent with
//! its actual emissions. Constructive programs have exactly one
//! consistent resolution per input/predicate valuation; when two exist
//! (logically nondeterministic programs) the absence-minimal one is
//! chosen and counted in [`CompileReport::ambiguous_choices`].
//!
//! Actions and emissions are recorded in path order, so the generated
//! s-graph preserves the data-flow order of the source (a predicate
//! reading a variable written earlier in the same instant sits *below*
//! the corresponding `Do` node).

use crate::engine::{Engine, ExecOut, Occurrences, Sem};
use crate::ir::{Program, StmtId, Tri};
use efsm::sgraph::{Node as ENode, NodeId};
use efsm::{ActionId, BitSet, Efsm, ExprId, PredId, SigKind, Signal, StateId};
use std::collections::HashMap;
use std::fmt;

/// Options controlling compilation.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Maximum number of control states before giving up.
    pub max_states: usize,
    /// Maximum symbolic runs per state (breadth of the decision tree).
    pub max_runs_per_state: usize,
    /// Run the EFSM optimizer on the result.
    pub optimize: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            max_states: 1 << 16,
            max_runs_per_state: 1 << 16,
            optimize: true,
        }
    }
}

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// State budget exhausted ("potential explosive growth of code
    /// size", as the paper warns).
    TooManyStates {
        /// The configured limit.
        limit: usize,
    },
    /// Decision-tree budget exhausted for one state.
    TooManyRuns {
        /// The configured limit.
        limit: usize,
    },
    /// No consistent resolution of internal signals for some input
    /// valuation (non-constructive / incoherent program).
    NoCoherentBehavior {
        /// Debug name of the state being expanded.
        state: String,
    },
    /// The program misbehaved during symbolic execution.
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyStates { limit } => {
                write!(f, "state explosion: more than {limit} control states")
            }
            CompileError::TooManyRuns { limit } => {
                write!(
                    f,
                    "decision explosion: more than {limit} symbolic runs in one state"
                )
            }
            CompileError::NoCoherentBehavior { state } => {
                write!(
                    f,
                    "no coherent signal resolution in state {state} (non-constructive program)"
                )
            }
            CompileError::Internal(m) => write!(f, "internal compiler error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Side statistics from a compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileReport {
    /// Reachable control states (including the dead state, if any).
    pub states: u32,
    /// Total symbolic runs executed.
    pub runs: u64,
    /// Internal-signal choices where both statuses were coherent and
    /// the absence-minimal one was picked.
    pub ambiguous_choices: u64,
}

/// Compile with a report.
///
/// # Errors
///
/// See [`CompileError`].
pub fn compile_with_report(
    prog: &Program,
    opts: &CompileOptions,
) -> Result<(Efsm, CompileReport), CompileError> {
    Compiler::new(prog, opts).run()
}

/// Compile a program into an EFSM.
///
/// # Errors
///
/// See [`CompileError`].
pub fn compile(prog: &Program, opts: &CompileOptions) -> Result<Efsm, CompileError> {
    compile_with_report(prog, opts).map(|(m, _)| m)
}

/// Control state key: `None` = not started yet; `Some(sel)` = selection;
/// the empty selection is the dead state.
type StateKey = Option<BitSet>;

struct Compiler<'p> {
    prog: &'p Program,
    opts: &'p CompileOptions,
    efsm: Efsm,
    ids: HashMap<StateKey, StateId>,
    work: Vec<StateKey>,
    report: CompileReport,
    /// Visit counters, reused by every pass of every run.
    occ: Occurrences,
}

/// One linear event along a symbolic run.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    Do(ActionId),
    Emit(Signal, Option<ExprId>),
}

/// What a symbolic run needs next, if anything.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RunOut {
    /// Blocked at a choice: events so far, plus the choice kind (and
    /// the predicate id for `Choice::Pred` keys).
    Need {
        prefix_len: usize,
        choice: Choice,
        pred: Option<PredId>,
    },
    /// Completed.
    Done {
        events_len: usize,
        code: u32,
        next_sel: BitSet,
        coherent: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Choice {
    /// Fork on an environment input: becomes a `Test` node.
    Input(Signal),
    /// Guess an internal (local or own-output) signal.
    Internal(Signal),
    /// Fork on a data predicate occurrence: becomes a `TestPred` node.
    Pred(StmtId, u32),
}

/// Semantics for a symbolic run with a descriptor-keyed oracle.
///
/// The run executes fixpoint *passes* (like the interpreter): emissions
/// made by later parallel branches resolve signals earlier branches
/// blocked on, so no oracle entry is needed for them. Only choices that
/// remain unresolved after a quiescent pass become oracle entries — and
/// hence `Test`/`TestPred` nodes or internal guesses.
struct SymSem<'a> {
    prog: &'a Program,
    oracle: &'a HashMap<Choice, bool>,
    status: Vec<Tri>,
    emitted: BitSet,
    /// Journaled events: recorded once per (node, occurrence).
    events: Vec<Ev>,
    recorded: std::collections::HashSet<(StmtId, u32)>,
    /// Choices requested this pass but absent from the oracle, with the
    /// event-prefix length at first encounter.
    needs: Vec<(Choice, usize)>,
    /// Predicate ids by occurrence key (for `TestPred` nodes).
    pred_ids: HashMap<(StmtId, u32), PredId>,
    incoherent: bool,
}

impl<'a> SymSem<'a> {
    fn new(prog: &'a Program, oracle: &'a HashMap<Choice, bool>) -> Self {
        let mut status = vec![Tri::Unknown; prog.signals().len()];
        // Pre-apply oracle entries for signals.
        for (c, v) in oracle {
            match c {
                Choice::Input(s) | Choice::Internal(s) => {
                    status[s.0 as usize] = if *v { Tri::True } else { Tri::False };
                }
                Choice::Pred(_, _) => {}
            }
        }
        SymSem {
            prog,
            oracle,
            status,
            emitted: BitSet::new(),
            events: Vec::new(),
            recorded: std::collections::HashSet::new(),
            needs: Vec::new(),
            pred_ids: HashMap::new(),
            incoherent: false,
        }
    }

    fn known(&self) -> usize {
        self.status.iter().filter(|s| **s != Tri::Unknown).count()
    }

    fn note_need(&mut self, c: Choice) {
        if !self.needs.iter().any(|(n, _)| *n == c) {
            self.needs.push((c, self.events.len()));
        }
    }
}

impl<'a> Sem for &mut SymSem<'a> {
    fn status(&mut self, s: Signal) -> Tri {
        self.status[s.0 as usize]
    }

    fn blocked_on(&mut self, s: Signal) {
        let kind = self.prog.signals()[s.0 as usize].kind;
        let choice = if kind == SigKind::Input {
            Choice::Input(s)
        } else {
            Choice::Internal(s)
        };
        // Oracle entries were pre-applied; reaching here means unknown.
        self.note_need(choice);
    }

    fn pred(&mut self, at: (StmtId, u32), p: PredId) -> Option<bool> {
        let key = Choice::Pred(at.0, at.1);
        self.pred_ids.insert((at.0, at.1), p);
        if let Some(v) = self.oracle.get(&key) {
            return Some(*v);
        }
        self.note_need(key);
        None
    }

    fn action(&mut self, at: (StmtId, u32), a: ActionId) {
        if self.recorded.insert(at) {
            self.events.push(Ev::Do(a));
        }
    }

    fn emit(&mut self, at: (StmtId, u32), s: Signal, value: Option<ExprId>) -> bool {
        if self.status[s.0 as usize] == Tri::False {
            // Contradicts an assumed absence.
            self.incoherent = true;
            return false;
        }
        self.status[s.0 as usize] = Tri::True;
        self.emitted.insert(s.0 as usize);
        if self.recorded.insert(at) {
            self.events.push(Ev::Emit(s, value));
        }
        true
    }
}

impl<'p> Compiler<'p> {
    fn new(prog: &'p Program, opts: &'p CompileOptions) -> Self {
        let mut efsm = Efsm::new(prog.name());
        for s in prog.signals() {
            efsm.add_signal(&s.name, s.kind, s.valued);
        }
        Compiler {
            prog,
            opts,
            efsm,
            ids: HashMap::new(),
            work: Vec::new(),
            report: CompileReport::default(),
            occ: Occurrences::default(),
        }
    }

    fn state_id(&mut self, key: StateKey) -> StateId {
        if let Some(id) = self.ids.get(&key) {
            return *id;
        }
        let name = match &key {
            None => "boot".to_string(),
            Some(sel) if sel.is_empty() => "dead".to_string(),
            Some(sel) => {
                let bits: Vec<String> = sel.iter().map(|b| b.to_string()).collect();
                format!("p{}", bits.join("_"))
            }
        };
        // Placeholder root; patched when the state is expanded.
        let placeholder = self.efsm.add_node(ENode::Goto { target: StateId(0) });
        let id = self.efsm.add_state(name, placeholder);
        self.ids.insert(key.clone(), id);
        self.work.push(key);
        id
    }

    fn run(mut self) -> Result<(Efsm, CompileReport), CompileError> {
        let boot = self.state_id(None);
        self.efsm.init = boot;
        let mut done = 0usize;
        while done < self.work.len() {
            if self.ids.len() > self.opts.max_states {
                return Err(CompileError::TooManyStates {
                    limit: self.opts.max_states,
                });
            }
            let key = self.work[done].clone();
            done += 1;
            let sid = self.ids[&key];
            let root = self.expand(&key)?;
            self.efsm.states[sid.0 as usize].root = root;
        }
        self.report.states = self.efsm.states.len() as u32;
        if self.opts.optimize {
            efsm::opt::optimize(&mut self.efsm);
            self.report.states = self.efsm.states.len() as u32;
        }
        self.efsm.validate().map_err(CompileError::Internal)?;
        Ok((self.efsm, self.report))
    }

    /// Execute one symbolic run for state `key` under `oracle`,
    /// iterating fixpoint passes until quiescence.
    fn sym_run(
        &mut self,
        key: &StateKey,
        oracle: &HashMap<Choice, bool>,
    ) -> Result<(RunOut, Vec<Ev>), CompileError> {
        self.report.runs += 1;
        let (start, sel) = match key {
            None => (true, BitSet::new()),
            Some(sel) => (false, sel.clone()),
        };
        if let Some(sel) = key {
            if sel.is_empty() {
                // Dead state: stays dead, no behavior.
                return Ok((
                    RunOut::Done {
                        events_len: 0,
                        code: 0,
                        next_sel: BitSet::new(),
                        coherent: true,
                    },
                    Vec::new(),
                ));
            }
        }
        let mut sem = SymSem::new(self.prog, oracle);
        let mut last_known = usize::MAX;
        loop {
            sem.needs.clear();
            let mut engine = Engine::new(self.prog, &sel, &mut self.occ, &mut sem);
            let out = engine.exec(self.prog.root(), start);
            match out {
                ExecOut::Failed(_) => {
                    return Ok((
                        RunOut::Done {
                            events_len: sem.events.len(),
                            code: 0,
                            next_sel: BitSet::new(),
                            coherent: false,
                        },
                        sem.events,
                    ));
                }
                ExecOut::Done { code, pauses } => {
                    // Validate assumed-present internals were emitted.
                    let mut coherent = !sem.incoherent;
                    for (c, v) in oracle {
                        if let Choice::Internal(sig) = c {
                            if *v && !sem.emitted.contains(sig.0 as usize) {
                                coherent = false;
                            }
                        }
                    }
                    return Ok((
                        RunOut::Done {
                            events_len: sem.events.len(),
                            code,
                            next_sel: pauses.normalized(),
                            coherent,
                        },
                        sem.events,
                    ));
                }
                ExecOut::Blocked => {
                    let known = sem.known();
                    if known != last_known {
                        // Progress: an emission resolved something.
                        last_known = known;
                        continue;
                    }
                    // Quiescent: pick a fork. Inputs and predicates are
                    // real decision nodes and take priority; internal
                    // signals are guessed only when nothing else moves.
                    let pick = sem
                        .needs
                        .iter()
                        .find(|(c, _)| !matches!(c, Choice::Internal(_)))
                        .or_else(|| sem.needs.first())
                        .copied();
                    let Some((choice, prefix)) = pick else {
                        return Err(CompileError::Internal(
                            "blocked without a recorded choice".into(),
                        ));
                    };
                    let pred = match choice {
                        Choice::Pred(id, occ) => sem.pred_ids.get(&(id, occ)).copied(),
                        _ => None,
                    };
                    return Ok((
                        RunOut::Need {
                            prefix_len: prefix,
                            choice,
                            pred,
                        },
                        sem.events,
                    ));
                }
            }
        }
    }

    /// Build the s-graph for one control state.
    fn expand(&mut self, key: &StateKey) -> Result<NodeId, CompileError> {
        let mut runs = 0usize;
        let mut oracle: HashMap<Choice, bool> = HashMap::new();
        let out = self.build(key, &mut oracle, 0, &mut runs)?;
        match out {
            Some(node) => Ok(node),
            None => Err(CompileError::NoCoherentBehavior {
                state: match key {
                    None => "boot".into(),
                    Some(s) => format!("{s:?}"),
                },
            }),
        }
    }

    /// Recursive decision-tree construction. `skip` is the number of
    /// events already materialized by ancestors. Returns `None` when no
    /// coherent completion exists under this oracle (backtracking point
    /// for internal-signal guesses).
    fn build(
        &mut self,
        key: &StateKey,
        oracle: &mut HashMap<Choice, bool>,
        skip: usize,
        runs: &mut usize,
    ) -> Result<Option<NodeId>, CompileError> {
        *runs += 1;
        if *runs > self.opts.max_runs_per_state {
            return Err(CompileError::TooManyRuns {
                limit: self.opts.max_runs_per_state,
            });
        }
        let (out, events) = self.sym_run(key, oracle)?;
        match out {
            RunOut::Done {
                events_len,
                code,
                next_sel,
                coherent,
            } => {
                if !coherent {
                    return Ok(None);
                }
                let next_key = if code == 0 {
                    Some(BitSet::new()) // dead
                } else {
                    Some(next_sel)
                };
                let target = self.state_id(next_key);
                let mut node = self.efsm.add_node(ENode::Goto { target });
                for ev in events[skip..events_len].iter().rev() {
                    node = self.chain(ev, node);
                }
                Ok(Some(node))
            }
            RunOut::Need {
                prefix_len,
                choice,
                pred,
            } => {
                let sub = |me: &mut Self,
                           oracle: &mut HashMap<Choice, bool>,
                           v: bool,
                           runs: &mut usize|
                 -> Result<Option<NodeId>, CompileError> {
                    oracle.insert(choice, v);
                    let r = me.build(key, oracle, prefix_len, runs);
                    oracle.remove(&choice);
                    r
                };
                let inner = match choice {
                    Choice::Input(sig) => {
                        let f = sub(self, oracle, false, runs)?;
                        let t = sub(self, oracle, true, runs)?;
                        match (t, f) {
                            (Some(t), Some(f)) => Some(self.efsm.add_node(ENode::Test {
                                sig,
                                then_: t,
                                else_: f,
                            })),
                            // One input valuation has no coherent
                            // continuation *under the current guesses*:
                            // backtrack to the nearest internal guess.
                            _ => None,
                        }
                    }
                    Choice::Pred(_, _) => {
                        let p = pred.ok_or_else(|| {
                            CompileError::Internal("pred choice without id".into())
                        })?;
                        let f = sub(self, oracle, false, runs)?;
                        let t = sub(self, oracle, true, runs)?;
                        match (t, f) {
                            (Some(t), Some(f)) => Some(self.efsm.add_node(ENode::TestPred {
                                pred: p,
                                then_: t,
                                else_: f,
                            })),
                            // A data valuation with no coherent
                            // continuation is assumed unreachable (the
                            // interpreter has a dynamic backstop).
                            (Some(t), None) => Some(t),
                            (None, Some(f)) => Some(f),
                            (None, None) => None,
                        }
                    }
                    Choice::Internal(_) => {
                        // Guess: prefer the absence-minimal behavior.
                        match sub(self, oracle, false, runs)? {
                            Some(f) => Some(f),
                            None => {
                                self.report.ambiguous_choices += 1;
                                sub(self, oracle, true, runs)?
                            }
                        }
                    }
                };
                match inner {
                    Some(node) => {
                        let mut node = node;
                        for ev in events[skip..prefix_len].iter().rev() {
                            node = self.chain(ev, node);
                        }
                        Ok(Some(node))
                    }
                    None => Ok(None),
                }
            }
        }
    }

    /// Prepend one event node.
    fn chain(&mut self, ev: &Ev, next: NodeId) -> NodeId {
        match ev {
            Ev::Do(a) => self.efsm.add_node(ENode::Do { action: *a, next }),
            Ev::Emit(s, v) => self.efsm.add_node(ENode::Emit {
                sig: *s,
                value: *v,
                next,
            }),
        }
    }
}
impl From<CompileError> for ecl_syntax::EclError {
    fn from(e: CompileError) -> Self {
        ecl_syntax::EclError::msg(
            ecl_syntax::Stage::Efsm,
            e.to_string(),
            ecl_syntax::Span::dummy(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Machine;
    use crate::ir::{ProgramBuilder, Stmt};
    use efsm::NoHooks;

    /// One EFSM instant from `st` with `present` (local indices): the
    /// next state and the emissions.
    fn step(m: &Efsm, st: StateId, present: &BitSet) -> (StateId, Vec<Signal>) {
        let mut emitted = Vec::new();
        let next = m.step_bits(st, present, &mut NoHooks, &mut emitted).next;
        (next, emitted)
    }

    fn opts() -> CompileOptions {
        CompileOptions::default()
    }

    /// Compile and differential-test against the interpreter on random
    /// input sequences.
    fn check_equiv(prog: &Program, seeds: u64, steps: usize) {
        use rand::{Rng, SeedableRng};
        let machine = compile(prog, &opts()).expect("compiles");
        machine.validate().expect("valid");
        let inputs: Vec<Signal> = prog
            .signals()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == SigKind::Input)
            .map(|(i, _)| Signal(i as u32))
            .collect();
        for seed in 0..seeds {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut interp = Machine::new(prog);
            let mut st = machine.init;
            for _ in 0..steps {
                let mut present = BitSet::new();
                for s in &inputs {
                    if rng.gen_bool(0.4) {
                        present.insert(s.0 as usize);
                    }
                }
                let r1 = interp
                    .react_set(&present, &mut NoHooks)
                    .expect("constructive");
                let (next, emitted) = step(&machine, st, &present);
                st = next;
                // Compare emitted OUTPUT signal sets (order may differ
                // only for distinct signals emitted by parallel branches;
                // compare as sorted lists).
                let mut e1: Vec<u32> = r1
                    .emitted
                    .iter()
                    .filter(|s| prog.signals()[s.0 as usize].kind == SigKind::Output)
                    .map(|s| s.0)
                    .collect();
                let mut e2: Vec<u32> = emitted
                    .iter()
                    .filter(|s| machine.signal_info(**s).kind == SigKind::Output)
                    .map(|s| s.0)
                    .collect();
                e1.sort();
                e2.sort();
                assert_eq!(e1, e2, "divergence (seed {seed})");
            }
        }
    }

    #[test]
    fn compiles_await_emit_loop() {
        let mut b = ProgramBuilder::new("t");
        let a = b.input("a");
        let o = b.output("o");
        let p = b
            .finish(Stmt::loop_(Stmt::seq(vec![
                Stmt::await_(a.into()),
                Stmt::emit(o),
            ])))
            .unwrap();
        let m = compile(&p, &opts()).unwrap();
        // boot + waiting state (+ possibly dead).
        assert!(m.states.len() >= 2, "{:?}", m.states.len());
        check_equiv(&p, 5, 50);
    }

    #[test]
    fn compiles_abro() {
        let mut bld = ProgramBuilder::new("abro");
        let a = bld.input("a");
        let b = bld.input("b");
        let r = bld.input("r");
        let o = bld.output("o");
        let body = Stmt::loop_(Stmt::abort(
            Stmt::seq(vec![
                Stmt::par(vec![Stmt::await_(a.into()), Stmt::await_(b.into())]),
                Stmt::emit(o),
                Stmt::halt(),
            ]),
            r.into(),
        ));
        let p = bld.finish(body).unwrap();
        check_equiv(&p, 8, 60);
    }

    #[test]
    fn compiles_local_signal_communication() {
        // Two parallel halves talk through local l within the instant.
        let mut bld = ProgramBuilder::new("t");
        let a = bld.input("a");
        let o = bld.output("o");
        let l = bld.local("l");
        let body = Stmt::loop_(Stmt::seq(vec![
            Stmt::pause(),
            Stmt::par(vec![
                Stmt::present(a.into(), Stmt::emit(l), Stmt::nothing()),
                Stmt::present(l.into(), Stmt::emit(o), Stmt::nothing()),
            ]),
        ]));
        let p = bld.finish(body).unwrap();
        let m = compile(&p, &opts()).unwrap();
        // Local signal must be compiled away: no Test on `l`.
        for node in &m.nodes {
            if let efsm::sgraph::Node::Test { sig, .. } = node {
                assert_eq!(m.signal_info(*sig).kind, SigKind::Input);
            }
        }
        check_equiv(&p, 6, 40);
    }

    #[test]
    fn compiles_suspend() {
        let mut bld = ProgramBuilder::new("t");
        let s = bld.input("s");
        let o = bld.output("o");
        let p = bld
            .finish(Stmt::suspend(s.into(), Stmt::sustain(o)))
            .unwrap();
        check_equiv(&p, 6, 40);
    }

    #[test]
    fn compiles_weak_abort_with_handler() {
        let mut bld = ProgramBuilder::new("t");
        let a = bld.input("a");
        let r = bld.input("r");
        let o = bld.output("o");
        let h = bld.output("h");
        let body = Stmt::loop_(Stmt::seq(vec![
            Stmt::weak_abort_handle(
                Stmt::seq(vec![Stmt::await_(a.into()), Stmt::emit(o), Stmt::halt()]),
                r.into(),
                Stmt::emit(h),
            ),
            Stmt::pause(),
        ]));
        let p = bld.finish(body).unwrap();
        check_equiv(&p, 8, 60);
    }

    #[test]
    fn dead_state_self_loops() {
        let mut b = ProgramBuilder::new("t");
        let o = b.output("o");
        let p = b.finish(Stmt::emit(o)).unwrap();
        let m = compile(&p, &opts()).unwrap();
        let mut st = m.init;
        // First instant emits o and dies.
        let (next, emitted) = step(&m, st, &BitSet::new());
        assert_eq!(emitted.len(), 1);
        st = next;
        for _ in 0..3 {
            let (next, emitted) = step(&m, st, &BitSet::new());
            assert!(emitted.is_empty());
            st = next;
        }
    }

    #[test]
    fn non_constructive_program_rejected() {
        let mut bld = ProgramBuilder::new("t");
        let l = bld.local("l");
        let p = bld
            .finish(Stmt::present(l.into(), Stmt::nothing(), Stmt::emit(l)))
            .unwrap();
        let err = compile(&p, &opts()).unwrap_err();
        assert!(matches!(err, CompileError::NoCoherentBehavior { .. }));
    }

    #[test]
    fn state_cap_enforced() {
        // 8 parallel toggles on *independent* inputs → 2^8 states.
        let mut bld = ProgramBuilder::new("t");
        let mut branches = Vec::new();
        for i in 0..8 {
            let tick = bld.input(&format!("t{i}"));
            let o = bld.output(&format!("b{i}"));
            branches.push(Stmt::loop_(Stmt::seq(vec![
                Stmt::await_(tick.into()),
                Stmt::emit(o),
                Stmt::await_(tick.into()),
            ])));
        }
        let p = bld.finish(Stmt::par(branches)).unwrap();
        let tight = CompileOptions {
            max_states: 10,
            ..opts()
        };
        assert!(matches!(
            compile(&p, &tight).unwrap_err(),
            CompileError::TooManyStates { .. }
        ));
    }

    #[test]
    fn report_counts_runs() {
        let mut b = ProgramBuilder::new("t");
        let a = b.input("a");
        let o = b.output("o");
        let p = b
            .finish(Stmt::loop_(Stmt::seq(vec![
                Stmt::await_(a.into()),
                Stmt::emit(o),
            ])))
            .unwrap();
        let (_, rep) = compile_with_report(&p, &opts()).unwrap();
        assert!(rep.runs > 0);
        assert_eq!(rep.ambiguous_choices, 0);
    }

    #[test]
    fn present_else_branch_in_machine() {
        let mut b = ProgramBuilder::new("t");
        let a = b.input("a");
        let yes = b.output("yes");
        let no = b.output("no");
        let p = b
            .finish(Stmt::loop_(Stmt::seq(vec![
                Stmt::pause(),
                Stmt::present(a.into(), Stmt::emit(yes), Stmt::emit(no)),
            ])))
            .unwrap();
        check_equiv(&p, 4, 30);
        let m = compile(&p, &opts()).unwrap();
        let a_m = m.signal("a").unwrap();
        let yes_m = m.signal("yes").unwrap();
        let no_m = m.signal("no").unwrap();
        // Steady state: emit yes on a, no otherwise.
        let mut st = m.init;
        st = step(&m, st, &BitSet::new()).0;
        let on: BitSet = [a_m.0 as usize].into_iter().collect();
        let (next, emitted) = step(&m, st, &on);
        assert_eq!(emitted, vec![yes_m]);
        let (_, emitted) = step(&m, next, &BitSet::new());
        assert_eq!(emitted, vec![no_m]);
    }
}
