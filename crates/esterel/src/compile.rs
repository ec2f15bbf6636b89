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

use crate::engine::{Engine, ExecOut, Occurrences, Selection, Sem};
use crate::ir::{Node, Program, StmtId, Tri};
use ecl_syntax::fxmap::FxHashMap;
use efsm::sgraph::{Node as ENode, NodeId};
use efsm::{ActionId, BitSet, Efsm, ExprId, PredId, SigKind, Signal, StateId};
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
    /// Total symbolic runs executed: one per leaf and one per decision
    /// node of every state's decision tree.
    pub runs: u64,
    /// Total engine passes over the program, summed over the runs.
    pub passes: u64,
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
/// the empty selection is the dead state. Every selection is
/// [`Program::n_pauses`] bits wide, so keys compare by value without
/// trimming.
type StateKey = Option<BitSet>;

/// The choices a decision tree has fixed so far.
type Oracle = FxHashMap<Choice, bool>;

struct Compiler<'p> {
    prog: &'p Program,
    opts: &'p CompileOptions,
    efsm: Efsm,
    /// Selection states by key (the boot state is never a target).
    ids: FxHashMap<BitSet, StateId>,
    /// States to expand; `work[i]` is the key of `StateId(i)`.
    work: Vec<StateKey>,
    report: CompileReport,
    /// The selection of the state being expanded, filled once per state
    /// and read by every pass of its runs.
    sel: Selection,
    /// Visit counters and pause set, reused by every pass of every run.
    occ: Occurrences,
    /// What a run knows, reused by every run.
    run: RunScratch,
    /// The prefix events of the decision nodes being built, outermost
    /// first: each copies its own before recursing and chains them
    /// after.
    prefixes: Vec<Ev>,
    /// The next-state key of the last completed run.
    next_key: BitSet,
}

/// One linear event along a symbolic run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Do(ActionId),
    Emit(Signal, Option<ExprId>),
}

/// What a symbolic run needs next, if anything. Its events are the
/// run scratch's journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunOut {
    /// Blocked at a choice, first requested after `prefix_len` events
    /// (in whichever pass requested it first): the runs that know the
    /// choice journal those same events before it.
    Need { prefix_len: usize, choice: Choice },
    /// Completed; the next selection is [`Compiler::next_key`].
    Done { code: u32, coherent: bool },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Choice {
    /// Fork on an environment input: becomes a `Test` node.
    Input(Signal),
    /// Guess an internal (local or own-output) signal.
    Internal(Signal),
    /// Fork on a data predicate occurrence: becomes a `TestPred` node
    /// on the `IfData` node's predicate.
    Pred(StmtId, u32),
}

/// What one symbolic run knows. A compilation owns one; each run
/// resets it, and once grown it never reallocates.
#[derive(Debug, Default)]
struct RunScratch {
    status: Vec<Tri>,
    emitted: BitSet,
    /// Journaled events, each recorded once per `(node, occurrence)`.
    events: Vec<Ev>,
    /// `journaled[n]`: how many occurrences of node `n` are journaled.
    /// A pass visits a node's occurrences in order 0, 1, 2, …, so the
    /// journaled ones are always a prefix.
    journaled: Vec<u32>,
    /// Nodes whose `journaled` count is nonzero.
    touched: Vec<StmtId>,
    /// Choices requested this pass but absent from the oracle.
    needs: Vec<Choice>,
    /// Every choice requested in this run, with the number of events
    /// journaled when it was first requested: until then, a run that
    /// knows the choice journals the same events.
    met: Vec<(Choice, usize)>,
    incoherent: bool,
}

impl RunScratch {
    /// Start a run of `prog` under `oracle`: nothing journaled, and
    /// every signal unknown but those the oracle fixes.
    fn reset(&mut self, prog: &Program, oracle: &Oracle) {
        self.status.clear();
        self.status.resize(prog.signals().len(), Tri::Unknown);
        for (c, v) in oracle {
            match c {
                Choice::Input(s) | Choice::Internal(s) => {
                    self.status[s.0 as usize] = if *v { Tri::True } else { Tri::False };
                }
                Choice::Pred(_, _) => {}
            }
        }
        self.emitted.clear();
        self.events.clear();
        for id in self.touched.drain(..) {
            self.journaled[id.0 as usize] = 0;
        }
        if self.journaled.len() < prog.size() {
            self.journaled.resize(prog.size(), 0);
        }
        self.needs.clear();
        self.met.clear();
        self.incoherent = false;
    }

    fn known(&self) -> usize {
        self.status.iter().filter(|s| **s != Tri::Unknown).count()
    }

    fn note_need(&mut self, c: Choice) {
        if !self.needs.contains(&c) {
            self.needs.push(c);
        }
        if !self.met.iter().any(|(m, _)| *m == c) {
            self.met.push((c, self.events.len()));
        }
    }

    /// Journal `ev` at `(id, occ)` unless an earlier pass did.
    fn journal(&mut self, (id, occ): (StmtId, u32), ev: Ev) {
        let n = &mut self.journaled[id.0 as usize];
        if occ < *n {
            return;
        }
        debug_assert_eq!(occ, *n, "journaled occurrences of {id:?} are not a prefix");
        if *n == 0 {
            self.touched.push(id);
        }
        *n += 1;
        self.events.push(ev);
    }
}

/// Semantics for one pass of a symbolic run with a descriptor-keyed
/// oracle.
///
/// The run executes fixpoint *passes* (like the interpreter): emissions
/// made by later parallel branches resolve signals earlier branches
/// blocked on, so no oracle entry is needed for them. Only choices that
/// remain unresolved after a quiescent pass become oracle entries — and
/// hence `Test`/`TestPred` nodes or internal guesses.
struct SymSem<'a> {
    prog: &'a Program,
    oracle: &'a Oracle,
    run: &'a mut RunScratch,
}

impl Sem for SymSem<'_> {
    fn status(&mut self, s: Signal) -> Tri {
        self.run.status[s.0 as usize]
    }

    fn blocked_on(&mut self, s: Signal) {
        let kind = self.prog.signals()[s.0 as usize].kind;
        let choice = if kind == SigKind::Input {
            Choice::Input(s)
        } else {
            Choice::Internal(s)
        };
        // Oracle entries were pre-applied; reaching here means unknown.
        self.run.note_need(choice);
    }

    fn pred(&mut self, at: (StmtId, u32), _: PredId) -> Option<bool> {
        let key = Choice::Pred(at.0, at.1);
        if let Some(v) = self.oracle.get(&key) {
            return Some(*v);
        }
        self.run.note_need(key);
        None
    }

    fn action(&mut self, at: (StmtId, u32), a: ActionId) {
        self.run.journal(at, Ev::Do(a));
    }

    fn emit(&mut self, at: (StmtId, u32), s: Signal, value: Option<ExprId>) -> bool {
        let run = &mut *self.run;
        if run.status[s.0 as usize] == Tri::False {
            // Contradicts an assumed absence.
            run.incoherent = true;
            return false;
        }
        run.status[s.0 as usize] = Tri::True;
        run.emitted.insert(s.0 as usize);
        run.journal(at, Ev::Emit(s, value));
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
            ids: FxHashMap::default(),
            work: Vec::new(),
            report: CompileReport::default(),
            sel: Selection::new(prog),
            occ: Occurrences::default(),
            run: RunScratch::default(),
            prefixes: Vec::new(),
            next_key: BitSet::with_capacity(prog.n_pauses() as usize),
        }
    }

    /// Add a state for `key` with a placeholder root, patched when the
    /// state is expanded, and queue its expansion.
    fn add_state(&mut self, key: StateKey) -> StateId {
        let name = match &key {
            None => "boot".to_string(),
            Some(sel) if sel.is_empty() => "dead".to_string(),
            Some(sel) => {
                let bits: Vec<String> = sel.iter().map(|b| b.to_string()).collect();
                format!("p{}", bits.join("_"))
            }
        };
        let placeholder = self.efsm.add_node(ENode::Goto { target: StateId(0) });
        self.work.push(key);
        self.efsm.add_state(name, placeholder)
    }

    /// The state selecting [`Compiler::next_key`], added if new: the
    /// key is copied only then.
    fn next_state(&mut self) -> StateId {
        if let Some(id) = self.ids.get(&self.next_key) {
            return *id;
        }
        let id = self.add_state(Some(self.next_key.clone()));
        self.ids.insert(self.next_key.clone(), id);
        id
    }

    fn run(mut self) -> Result<(Efsm, CompileReport), CompileError> {
        self.efsm.init = self.add_state(None);
        let mut done = 0usize;
        while done < self.work.len() {
            if self.efsm.states.len() > self.opts.max_states {
                return Err(CompileError::TooManyStates {
                    limit: self.opts.max_states,
                });
            }
            let key = std::mem::take(&mut self.work[done]);
            let root = self.expand(&key)?;
            self.efsm.states[done].root = root;
            done += 1;
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
    /// iterating fixpoint passes until quiescence. The run's events are
    /// left in the run scratch.
    fn sym_run(&mut self, key: &StateKey, oracle: &Oracle) -> Result<RunOut, CompileError> {
        self.report.runs += 1;
        let start = key.is_none();
        self.run.reset(self.prog, oracle);
        if key.as_ref().is_some_and(BitSet::is_empty) {
            // Dead state: stays dead, no behavior.
            return Ok(RunOut::Done {
                code: 0,
                coherent: true,
            });
        }
        let mut last_known = usize::MAX;
        loop {
            self.report.passes += 1;
            self.run.needs.clear();
            let sem = SymSem {
                prog: self.prog,
                oracle,
                run: &mut self.run,
            };
            match Engine::new(self.prog, &self.sel, &mut self.occ, sem).run(start) {
                ExecOut::Failed(_) => {
                    return Ok(RunOut::Done {
                        code: 0,
                        coherent: false,
                    });
                }
                ExecOut::Done { code, pauses } => {
                    // Validate assumed-present internals were emitted.
                    let mut coherent = !self.run.incoherent;
                    for (c, v) in oracle {
                        if let Choice::Internal(sig) = c {
                            if *v && !self.run.emitted.contains(sig.0 as usize) {
                                coherent = false;
                            }
                        }
                    }
                    self.next_key.clear();
                    self.next_key.union_with(pauses);
                    return Ok(RunOut::Done { code, coherent });
                }
                ExecOut::Blocked => {
                    let known = self.run.known();
                    if known != last_known {
                        // Progress: an emission resolved something.
                        last_known = known;
                        continue;
                    }
                    // Quiescent: pick a fork. Inputs and predicates are
                    // real decision nodes and take priority; internal
                    // signals are guessed only when nothing else moves.
                    let needs = &self.run.needs;
                    let pick = needs
                        .iter()
                        .find(|c| !matches!(c, Choice::Internal(_)))
                        .or_else(|| needs.first());
                    let Some(&choice) = pick else {
                        return Err(CompileError::Internal(
                            "blocked without a recorded choice".into(),
                        ));
                    };
                    let met = self.run.met.iter().find(|(c, _)| *c == choice);
                    let prefix_len = met.map_or(0, |(_, at)| *at);
                    return Ok(RunOut::Need { prefix_len, choice });
                }
            }
        }
    }

    /// Build the s-graph for one control state.
    fn expand(&mut self, key: &StateKey) -> Result<NodeId, CompileError> {
        if let Some(sel) = key {
            self.sel.fill(self.prog, sel);
        }
        let mut runs = 0usize;
        let mut oracle = Oracle::default();
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
        oracle: &mut Oracle,
        skip: usize,
        runs: &mut usize,
    ) -> Result<Option<NodeId>, CompileError> {
        *runs += 1;
        if *runs > self.opts.max_runs_per_state {
            return Err(CompileError::TooManyRuns {
                limit: self.opts.max_runs_per_state,
            });
        }
        match self.sym_run(key, oracle)? {
            RunOut::Done { code, coherent } => {
                if !coherent {
                    return Ok(None);
                }
                // The ancestors chained `prefixes` above this leaf: the
                // run journaled exactly those events first.
                debug_assert!(
                    self.run.events.starts_with(&self.prefixes),
                    "a decision reorders the events before it"
                );
                if code == 0 {
                    self.next_key.clear(); // dead
                }
                let target = self.next_state();
                let mut node = self.efsm.add_node(ENode::Goto { target });
                for i in (skip..self.run.events.len()).rev() {
                    node = self.chain(self.run.events[i], node);
                }
                Ok(Some(node))
            }
            RunOut::Need { prefix_len, choice } => {
                // A choice this run met before its ancestors' decisions
                // is decided here, after their events.
                let prefix_len = prefix_len.max(skip);
                // The subtrees' runs overwrite the scratch: keep this
                // node's prefix until they are built.
                let base = self.prefixes.len();
                self.prefixes
                    .extend_from_slice(&self.run.events[skip..prefix_len]);
                let sub = |me: &mut Self,
                           oracle: &mut Oracle,
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
                    Choice::Pred(id, _) => {
                        let Node::IfData(pred, ..) = *self.prog.node(id) else {
                            return Err(CompileError::Internal(
                                "predicate choice off an `IfData` node".into(),
                            ));
                        };
                        let f = sub(self, oracle, false, runs)?;
                        let t = sub(self, oracle, true, runs)?;
                        match (t, f) {
                            (Some(t), Some(f)) => Some(self.efsm.add_node(ENode::TestPred {
                                pred,
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
                let node = inner.map(|mut node| {
                    for i in (base..self.prefixes.len()).rev() {
                        node = self.chain(self.prefixes[i], node);
                    }
                    node
                });
                self.prefixes.truncate(base);
                Ok(node)
            }
        }
    }

    /// Prepend one event node.
    fn chain(&mut self, ev: Ev, next: NodeId) -> NodeId {
        match ev {
            Ev::Do(action) => self.efsm.add_node(ENode::Do { action, next }),
            Ev::Emit(sig, value) => self.efsm.add_node(ENode::Emit { sig, value, next }),
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
    fn decision_precedes_events_journaled_after_its_first_request() {
        // par { if (p) emit y } { emit x }: the first pass blocks on `p`
        // before the second branch emits `x`, and the second pass asks
        // for `p` again after `x` is journaled. The test on `p` still
        // comes first, so both paths emit `x` once and only the true one
        // emits `y`.
        let mut b = ProgramBuilder::new("t");
        let x = b.output("x");
        let y = b.output("y");
        let p = b
            .finish(Stmt::par(vec![
                Stmt::if_data(PredId(0), Stmt::emit(y), Stmt::nothing()),
                Stmt::emit(x),
            ]))
            .unwrap();
        let m = compile(&p, &opts()).unwrap();
        let paths = m.paths_of(m.init, 8).unwrap();
        assert_eq!(paths.len(), 2);
        for path in paths {
            let count = |s| path.emits.iter().filter(|(e, _)| *e == s).count();
            assert_eq!(count(x), 1, "{path:?}");
            assert_eq!(count(y), usize::from(path.preds == [(PredId(0), true)]));
        }
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
