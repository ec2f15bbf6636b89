//! Fused per-state instant programs: the compiled execution backend
//! for EFSM states, pure *and* mixed.
//!
//! The s-graph walker ([`Efsm::step_bits`]) re-decides one branch per
//! node every instant. The key observation behind fusion is that
//! signal-presence is *invariant within a reaction*: the input bitset
//! does not change mid-walk, so every presence decision the walk would
//! make can be resolved up front by a word-wise mask scan over rows of
//! `(watch_mask, match_mask)`. What cannot be resolved up front is the
//! data part — predicate outcomes depend on variables that earlier
//! actions in the same reaction may have written — so each row carries
//! a residual program: straight-line bytecode for exactly the
//! predicates, actions and (valued) emissions the walk would execute
//! once its presence branches are pinned, in exactly that order.
//!
//! * A row whose residual is pure (resolved tests, presence-only
//!   emissions, goto) compiles to a *simple row*: an emission slice
//!   memcpy plus a precomputed successor — the PR 4 fast path,
//!   unchanged.
//! * Any other row gets an entry point into a shared `FusedOp`
//!   arena. Ops carry explicit successor pcs (direct-threaded
//!   dispatch); `Pad` ops sit positionally where resolved presence
//!   tests sat in the walk, so `nodes_visited` — and every cycle/trace
//!   quantity charged from it — stays bit-identical to the walker,
//!   including tests hidden behind predicate branches the reaction
//!   does not take.
//!
//! A [`CompiledEfsm`] is built once per machine (runner construction,
//! monitor synthesis) and is observationally identical to the walker:
//! per instant it produces the same emissions in the same order, the
//! same data-hook call sequence, the same next state, and the same
//! `nodes_visited` count. States whose row enumeration would explode
//! past [`ROW_CAP`] stay on the walker (correct, just not fused); the
//! differential proptests in `tests/differential.rs` enforce the
//! equivalence either way.

use crate::machine::{Efsm, Signal, StateId, StepOut};
use crate::sgraph::{Node, NodeId};
use crate::{ActionId, BitSet, DataHooks, ExprId, PredId};
use ecl_telemetry::metrics as tm;
use std::collections::HashMap;

/// Per-state cap on fused rows. An s-graph with `n` independent
/// presence tests can need `2^n` rows; past this bound the state stays
/// on the walker (correct, just not fused) instead of exploding memory.
pub const ROW_CAP: usize = 512;

/// Sentinel for [`RowMeta::entry`]: the row is simple (emission slice
/// plus precomputed successor), with no residual program.
const NO_PROG: u32 = u32::MAX;

/// How one control state executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StateExec {
    /// Dense rows `lo..hi` (indices into the row arrays).
    Table { lo: u32, hi: u32 },
    /// Exactly one row, necessarily input-independent (rows partition
    /// the input space, so a lone row has an empty watch set): fire it
    /// without touching the masks. Halted/latched monitor states live
    /// here, and so does every mixed state with no presence tests —
    /// its whole reaction is one residual program.
    Always { row: u32 },
    /// Fall back to [`Efsm::step_bits`] (row enumeration blew
    /// [`ROW_CAP`]).
    Walk,
}

/// One op of a row's residual program. Ops live in a shared arena on
/// the [`CompiledEfsm`] and name their successors by pc — dispatch is
/// direct-threaded, no decode loop state beyond the pc itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FusedOp {
    /// Evaluate a data predicate and branch.
    Pred {
        pred: PredId,
        then_: u32,
        else_: u32,
    },
    /// Run a data action.
    Action { action: ActionId, next: u32 },
    /// Emit `sig` (computing its value first when `value` is set).
    Emit {
        sig: Signal,
        value: Option<ExprId>,
        next: u32,
    },
    /// Charge `n` nodes without doing anything: stands in for `n`
    /// presence tests the mask scan already resolved, placed exactly
    /// where the walk would have visited them.
    Pad { n: u32, next: u32 },
    /// End of reaction: move to `target` for the next instant (charges
    /// the goto node).
    End { target: StateId },
}

/// Metadata of one fused transition row (masks live in the shared
/// word array, simple-row emissions in the shared signal array, the
/// residual program in the shared op arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowMeta {
    /// Simple row: next control state when this row fires. Unused
    /// (placeholder) when `entry != NO_PROG` — a residual program can
    /// reach different successors on different predicate outcomes, so
    /// its `End` ops carry the target.
    next: StateId,
    /// Simple row: nodes the replaced walk would have visited (tests +
    /// emits + the goto), kept so [`StepOut::nodes_visited`] — and
    /// everything charged from it — is bit-identical to the walker.
    /// Program rows accumulate this per-op instead.
    nodes: u32,
    /// Simple row: emissions `emits[start..end]`, in walk order.
    emit_start: u32,
    emit_end: u32,
    /// Entry pc of the residual program, or [`NO_PROG`] for a simple
    /// row.
    entry: u32,
}

/// The fused compiled backend of one [`Efsm`].
///
/// Holds no reference to the machine; callers pass the same machine to
/// [`CompiledEfsm::step_table`] (checked by a debug assertion on the
/// state count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledEfsm {
    /// Words per mask: `ceil(signals / 64)` of the source machine.
    words: usize,
    /// Execution mode per state.
    states: Vec<StateExec>,
    /// Row masks, `2 * words` per row: watch words then match words.
    masks: Vec<u64>,
    /// Row metadata, parallel to the mask stride.
    rows: Vec<RowMeta>,
    /// Emission lists of all simple rows, concatenated.
    emits: Vec<Signal>,
    /// Residual programs of all program rows, in one arena.
    ops: Vec<FusedOp>,
    /// Number of states fused (not on walker fallback).
    fused: u32,
}

/// A partial signal-presence assignment: the literals a row requires.
/// Built by cube specialization — unlike raw path cubes it never
/// contains duplicate or contradictory literals.
type Cube = Vec<(Signal, bool)>;

/// Look up `sig` in a cube.
fn cube_lookup(cube: &[(Signal, bool)], sig: Signal) -> Option<bool> {
    cube.iter().find(|&&(s, _)| s == sig).map(|&(_, p)| p)
}

/// First presence test reachable from `root` that `cube` does not
/// resolve, or `None` if the cube pins every reachable one. Resolved
/// tests constrain reachability (only the assigned branch is
/// followed); predicate branches are both live at compile time.
/// `seen` is caller-provided scratch, one slot per node.
fn first_unresolved_test(
    nodes: &[Node],
    root: NodeId,
    cube: &[(Signal, bool)],
    seen: &mut [bool],
) -> Option<Signal> {
    seen.fill(false);
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut seen[id.0 as usize], true) {
            continue;
        }
        match nodes[id.0 as usize] {
            Node::Test { sig, then_, else_ } => match cube_lookup(cube, sig) {
                Some(true) => stack.push(then_),
                Some(false) => stack.push(else_),
                None => return Some(sig),
            },
            Node::TestPred { then_, else_, .. } => {
                stack.push(else_);
                stack.push(then_);
            }
            Node::Do { next, .. } | Node::Emit { next, .. } => stack.push(next),
            Node::Goto { .. } => {}
        }
    }
    None
}

/// Specialize the state rooted at `root` into complete cubes: split on
/// one unresolved presence test at a time until every reachable test
/// is pinned. The splits form a binary decision tree, so the returned
/// cubes partition the input space. Returns `None` when more than
/// `cap` cubes would result.
fn enumerate_cubes(m: &Efsm, root: NodeId, cap: usize) -> Option<Vec<Cube>> {
    let mut seen = vec![false; m.nodes.len()];
    let mut complete: Vec<Cube> = Vec::new();
    let mut work: Vec<Cube> = vec![Vec::new()];
    while let Some(cube) = work.pop() {
        // Every pending cube yields at least one complete cube, so
        // `complete + work` is a lower bound on the final row count
        // (and reaches it): the check rejects exactly the states that
        // would exceed the cap.
        if complete.len() + work.len() > cap {
            return None;
        }
        match first_unresolved_test(&m.nodes, root, &cube, &mut seen) {
            Some(sig) => {
                let mut then_cube = cube.clone();
                then_cube.push((sig, true));
                let mut else_cube = cube;
                else_cube.push((sig, false));
                work.push(else_cube);
                work.push(then_cube);
            }
            None => complete.push(cube),
        }
    }
    Some(complete)
}

/// Walk the residual of `cube` from `root`; if it is straight-line
/// pure (resolved tests, presence-only emissions, goto) return its
/// emissions, successor, and exact walker node count. Mixed residuals
/// return `None` and compile to a program instead. Node counts come
/// from the walk itself — a path can test the same signal at two
/// distinct nodes, so `cube.len()` would undercount.
fn try_simple_row(
    m: &Efsm,
    root: NodeId,
    cube: &[(Signal, bool)],
) -> Option<(Vec<Signal>, StateId, u32)> {
    let mut id = root;
    let mut nodes = 0u32;
    let mut emits = Vec::new();
    loop {
        nodes += 1;
        match m.nodes[id.0 as usize] {
            Node::Test { sig, then_, else_ } => {
                id = if cube_lookup(cube, sig)? {
                    then_
                } else {
                    else_
                };
            }
            Node::Emit {
                sig,
                value: None,
                next,
            } => {
                emits.push(sig);
                id = next;
            }
            Node::Goto { target } => return Some((emits, target, nodes)),
            _ => return None,
        }
    }
}

impl CompiledEfsm {
    /// Fuse every state of `m` into transition rows with residual
    /// programs; states past [`ROW_CAP`] are marked for walker
    /// fallback.
    pub fn compile(m: &Efsm) -> CompiledEfsm {
        let words = m.signals.len().div_ceil(64);
        let mut c = CompiledEfsm {
            words,
            states: Vec::with_capacity(m.states.len()),
            masks: Vec::new(),
            rows: Vec::new(),
            emits: Vec::new(),
            ops: Vec::new(),
            fused: 0,
        };
        for (si, _) in m.states.iter().enumerate() {
            let exec = c.compile_state(m, StateId(si as u32));
            c.states.push(exec);
            if !matches!(exec, StateExec::Walk) {
                c.fused += 1;
            }
        }
        c
    }

    /// Fuse one state, or decide it must stay on the walker.
    fn compile_state(&mut self, m: &Efsm, s: StateId) -> StateExec {
        let root = m.states[s.0 as usize].root;
        let Some(cubes) = enumerate_cubes(m, root, ROW_CAP) else {
            return StateExec::Walk; // row explosion: keep walking
        };
        let lo = self.rows.len() as u32;
        // Scan-friendly row order: fewest required-present literals
        // first. Under sparse inputs (the reactive-system norm, e.g.
        // idle instants with nothing present) the emptier rows are the
        // likelier ones, so the scan usually hits in the first row or
        // two. Rows are mutually exclusive, so reordering cannot
        // change which row fires.
        let mut order: Vec<&Cube> = cubes.iter().collect();
        order.sort_by_key(|c| c.iter().filter(|&&(_, present)| present).count());
        for cube in order {
            let mut watch = vec![0u64; self.words];
            let mut matched = vec![0u64; self.words];
            for &(sig, present) in cube.iter() {
                let (w, b) = (sig.0 as usize / 64, sig.0 as usize % 64);
                watch[w] |= 1u64 << b;
                if present {
                    matched[w] |= 1u64 << b;
                }
            }
            let meta = if let Some((emits, target, nodes)) = try_simple_row(m, root, cube) {
                let emit_start = self.emits.len() as u32;
                self.emits.extend(emits);
                RowMeta {
                    next: target,
                    nodes,
                    emit_start,
                    emit_end: self.emits.len() as u32,
                    entry: NO_PROG,
                }
            } else {
                let mut memo = HashMap::new();
                let entry = self.emit_node(m, root, cube, &mut memo);
                RowMeta {
                    next: StateId(0),
                    nodes: 0,
                    emit_start: 0,
                    emit_end: 0,
                    entry,
                }
            };
            self.masks.extend_from_slice(&watch);
            self.masks.extend_from_slice(&matched);
            self.rows.push(meta);
        }
        let hi = self.rows.len() as u32;
        if hi - lo == 1
            && self.masks[lo as usize * 2 * self.words..][..self.words]
                .iter()
                .all(|&w| w == 0)
        {
            StateExec::Always { row: lo }
        } else {
            StateExec::Table { lo, hi }
        }
    }

    /// Append `op` to the arena, returning its pc.
    fn push_op(&mut self, op: FusedOp) -> u32 {
        self.ops.push(op);
        (self.ops.len() - 1) as u32
    }

    /// Compile the residual of `cube` below node `id` to ops,
    /// returning the entry pc. Memoized per node (the residual is a
    /// DAG — shared suffixes compile once); resolved presence tests
    /// become `Pad` charges, collapsed into runs when consecutive.
    fn emit_node(
        &mut self,
        m: &Efsm,
        id: NodeId,
        cube: &[(Signal, bool)],
        memo: &mut HashMap<NodeId, u32>,
    ) -> u32 {
        if let Some(&pc) = memo.get(&id) {
            return pc;
        }
        let pc = match m.nodes[id.0 as usize] {
            Node::Test { sig, then_, else_ } => {
                let taken = if cube_lookup(cube, sig)
                    .expect("complete cube resolves every reachable presence test")
                {
                    then_
                } else {
                    else_
                };
                let next = self.emit_node(m, taken, cube, memo);
                // Collapse Pad chains: a run of resolved tests charges
                // once.
                match self.ops[next as usize] {
                    FusedOp::Pad { n, next: after } => self.push_op(FusedOp::Pad {
                        n: n + 1,
                        next: after,
                    }),
                    _ => self.push_op(FusedOp::Pad { n: 1, next }),
                }
            }
            Node::TestPred { pred, then_, else_ } => {
                let t = self.emit_node(m, then_, cube, memo);
                let e = self.emit_node(m, else_, cube, memo);
                self.push_op(FusedOp::Pred {
                    pred,
                    then_: t,
                    else_: e,
                })
            }
            Node::Do { action, next } => {
                let n = self.emit_node(m, next, cube, memo);
                self.push_op(FusedOp::Action { action, next: n })
            }
            Node::Emit { sig, value, next } => {
                let n = self.emit_node(m, next, cube, memo);
                self.push_op(FusedOp::Emit {
                    sig,
                    value,
                    next: n,
                })
            }
            Node::Goto { target } => self.push_op(FusedOp::End { target }),
        };
        memo.insert(id, pc);
        pc
    }

    /// Words per mask (the source machine's signal-word count).
    pub fn mask_words(&self) -> usize {
        self.words
    }

    /// Is `s` fused (vs walker fallback)?
    pub fn is_fused(&self, s: StateId) -> bool {
        !matches!(self.states[s.0 as usize], StateExec::Walk)
    }

    /// Number of states fused into rows.
    pub fn fused_states(&self) -> u32 {
        self.fused
    }

    /// Are *all* states fused (no walker fallback anywhere — true for
    /// every machine within the row cap, including the synthesized
    /// monitors)?
    pub fn fully_fused(&self) -> bool {
        self.fused as usize == self.states.len()
    }

    /// Total fused rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Ops in the residual-program arena (0 for a pure-control
    /// machine: every row is a simple emission slice).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Fire row `ri`: simple rows append their emission slice and
    /// return the precomputed successor; program rows run their
    /// residual bytecode against `hooks`.
    #[inline]
    fn fire(
        &self,
        ri: usize,
        hooks: &mut dyn DataHooks,
        emitted: &mut Vec<Signal>,
        tel: bool,
    ) -> StepOut {
        let row = &self.rows[ri];
        if row.entry == NO_PROG {
            emitted.extend_from_slice(&self.emits[row.emit_start as usize..row.emit_end as usize]);
            StepOut {
                next: row.next,
                nodes_visited: row.nodes,
            }
        } else {
            self.run_program(row.entry, hooks, emitted, tel)
        }
    }

    /// Execute one residual program. The op loop mirrors the walker
    /// node-for-node: every op charge lands where the corresponding
    /// walk node sat, so `nodes_visited` (and the fuel the hooks burn)
    /// is bit-identical.
    fn run_program(
        &self,
        entry: u32,
        hooks: &mut dyn DataHooks,
        emitted: &mut Vec<Signal>,
        tel: bool,
    ) -> StepOut {
        let mut pc = entry as usize;
        let mut nodes = 0u32;
        let mut ops_run = 0u64;
        loop {
            ops_run += 1;
            match self.ops[pc] {
                FusedOp::Pred { pred, then_, else_ } => {
                    nodes += 1;
                    pc = if hooks.eval_pred(pred) { then_ } else { else_ } as usize;
                }
                FusedOp::Action { action, next } => {
                    nodes += 1;
                    hooks.run_action(action);
                    pc = next as usize;
                }
                FusedOp::Emit { sig, value, next } => {
                    nodes += 1;
                    if let Some(expr) = value {
                        hooks.emit_value(sig, expr);
                    }
                    emitted.push(sig);
                    pc = next as usize;
                }
                FusedOp::Pad { n, next } => {
                    nodes += n;
                    pc = next as usize;
                }
                FusedOp::End { target } => {
                    nodes += 1;
                    if tel {
                        tm::TABLE_FUSED_HITS.raw_add(1);
                        tm::TABLE_FUSED_OPS.raw_add(ops_run);
                    }
                    return StepOut {
                        next: target,
                        nodes_visited: nodes,
                    };
                }
            }
        }
    }

    /// One instant through the compiled backend: scan the state's rows
    /// with word-wise `(inputs & watch) == match` compares; the
    /// (unique) hit fires — appending a simple row's emissions to
    /// `emitted`, or running a program row's residual bytecode against
    /// `hooks`. States past the row cap delegate to [`Efsm::step_bits`]
    /// on `m` — which must be the machine this table was compiled
    /// from. Allocation-free on the fused path.
    ///
    /// # Panics
    ///
    /// Panics (like the walker) if the machine is structurally broken.
    #[inline]
    pub fn step_table(
        &self,
        m: &Efsm,
        state: StateId,
        inputs: &BitSet,
        hooks: &mut dyn DataHooks,
        emitted: &mut Vec<Signal>,
    ) -> StepOut {
        debug_assert_eq!(m.states.len(), self.states.len(), "table/machine mismatch");
        let tel = ecl_telemetry::enabled();
        if tel {
            tm::TABLE_STEPS.raw_add(1);
        }
        let (lo, hi) = match self.states[state.0 as usize] {
            StateExec::Table { lo, hi } => (lo, hi),
            StateExec::Always { row } => {
                if tel {
                    tm::TABLE_ALWAYS_HITS.raw_add(1);
                }
                return self.fire(row as usize, hooks, emitted, tel);
            }
            StateExec::Walk => {
                if tel {
                    tm::TABLE_WALK_FALLBACKS.raw_add(1);
                }
                return m.step_bits(state, inputs, hooks, emitted);
            }
        };
        let (lo, hi) = (lo as usize, hi as usize);
        let w = self.words;
        if w == 1 {
            // The common shape (≤ 64 local signals): one masked
            // compare per row over a contiguous (watch, match) slice.
            let inw = inputs.word(0);
            for (k, pair) in self.masks[lo * 2..hi * 2].chunks_exact(2).enumerate() {
                if inw & pair[0] == pair[1] {
                    if tel {
                        tm::TABLE_ROWS_SCANNED.raw_add(k as u64 + 1);
                    }
                    return self.fire(lo + k, hooks, emitted, tel);
                }
            }
        } else {
            for ri in lo..hi {
                let base = ri * 2 * w;
                let (watch, matched) = (
                    &self.masks[base..base + w],
                    &self.masks[base + w..base + 2 * w],
                );
                if (0..w).all(|k| inputs.word(k) & watch[k] == matched[k]) {
                    if tel {
                        tm::TABLE_ROWS_SCANNED.raw_add((ri - lo) as u64 + 1);
                    }
                    return self.fire(ri, hooks, emitted, tel);
                }
            }
        }
        // Rows partition the input space (they are the leaves of a
        // decision tree); reaching here means the table and machine
        // are out of sync. Recover with the walker.
        debug_assert!(false, "no table row matched in state {state:?}");
        m.step_bits(state, inputs, hooks, emitted)
    }
}

impl Efsm {
    /// Is `state` *pure control*: its live s-graph contains only
    /// presence tests, presence-only emissions and gotos? Pure states
    /// fuse to simple rows (emission-slice memcpy); a
    /// [`crate::sgraph::Node::TestPred`], [`crate::sgraph::Node::Do`]
    /// or valued [`crate::sgraph::Node::Emit`] anywhere in the live
    /// graph makes the state mixed, which still fuses — to rows with
    /// residual programs.
    pub fn state_is_pure(&self, state: StateId) -> bool {
        let root = self.states[state.0 as usize].root;
        crate::sgraph::reachable_nodes(&self.nodes, root)
            .iter()
            .all(|id| match self.nodes[id.0 as usize] {
                Node::Test { .. } | Node::Goto { .. } => true,
                Node::Emit { value, .. } => value.is_none(),
                Node::TestPred { .. } | Node::Do { .. } => false,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::EfsmBuilder;
    use crate::{ActionId, ExprId, NoHooks, PredId};

    /// Two-state toggler (pure): on `tick` emit `tock` and flip.
    fn toggler() -> Efsm {
        let mut b = EfsmBuilder::new("toggler");
        let tick = b.input("tick");
        let tock = b.output("tock");
        let g1 = b.goto(StateId(1));
        let e = b.emit(tock, g1);
        let g0 = b.goto(StateId(0));
        let r0 = b.test(tick, e, g0);
        b.state("s0", r0);
        let g0b = b.goto(StateId(0));
        let g1b = b.goto(StateId(1));
        let r1 = b.test(tick, g0b, g1b);
        b.state("s1", r1);
        b.build()
    }

    fn step_both(m: &Efsm, c: &CompiledEfsm, s: StateId, inputs: &[u32]) -> (StepOut, StepOut) {
        let bits: BitSet = inputs.iter().map(|&i| i as usize).collect();
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        let r1 = m.step_bits(s, &bits, &mut NoHooks, &mut e1);
        let r2 = c.step_table(m, s, &bits, &mut NoHooks, &mut e2);
        assert_eq!(e1, e2, "emission order from state {s:?} inputs {inputs:?}");
        (r1, r2)
    }

    /// Hooks that record the exact call sequence and answer predicates
    /// from a scripted list (consumed in call order).
    struct RecHooks {
        answers: Vec<bool>,
        calls: Vec<String>,
    }

    impl RecHooks {
        fn new(answers: &[bool]) -> RecHooks {
            RecHooks {
                answers: answers.to_vec(),
                calls: Vec::new(),
            }
        }
    }

    impl DataHooks for RecHooks {
        fn eval_pred(&mut self, pred: PredId) -> bool {
            self.calls.push(format!("pred{}", pred.0));
            self.answers.remove(0)
        }
        fn run_action(&mut self, action: ActionId) {
            self.calls.push(format!("act{}", action.0));
        }
        fn emit_value(&mut self, sig: Signal, expr: ExprId) {
            self.calls.push(format!("emit{}#{}", sig.0, expr.0));
        }
    }

    #[test]
    fn table_matches_walker_on_pure_machine() {
        let m = toggler();
        let c = CompiledEfsm::compile(&m);
        assert!(c.fully_fused());
        assert_eq!(c.fused_states(), 2);
        // Pure rows are all simple: no residual programs.
        assert_eq!(c.op_count(), 0);
        for s in [StateId(0), StateId(1)] {
            for inputs in [&[][..], &[0][..]] {
                let (r1, r2) = step_both(&m, &c, s, inputs);
                assert_eq!(r1, r2);
            }
        }
    }

    #[test]
    fn classifier_spots_pred_and_valued_emit() {
        // State 0 pure; state 1 has a TestPred; state 2 a valued Emit;
        // state 3 a Do action. All four fuse — the mixed ones into
        // rows with residual programs.
        let mut m = Efsm::new("mixed");
        let a = m.add_signal("a", crate::SigKind::Input, false);
        let v = m.add_signal("v", crate::SigKind::Output, true);
        let g0 = m.add_node(Node::Goto { target: StateId(0) });
        let t0 = m.add_node(Node::Test {
            sig: a,
            then_: g0,
            else_: g0,
        });
        m.add_state("pure", t0);
        let g1 = m.add_node(Node::Goto { target: StateId(1) });
        let p = m.add_node(Node::TestPred {
            pred: PredId(0),
            then_: g1,
            else_: g1,
        });
        m.add_state("pred", p);
        let g2 = m.add_node(Node::Goto { target: StateId(2) });
        let ev = m.add_node(Node::Emit {
            sig: v,
            value: Some(ExprId(0)),
            next: g2,
        });
        m.add_state("valued", ev);
        let g3 = m.add_node(Node::Goto { target: StateId(3) });
        let d = m.add_node(Node::Do {
            action: ActionId(0),
            next: g3,
        });
        m.add_state("action", d);
        m.validate().unwrap();
        assert!(m.state_is_pure(StateId(0)));
        assert!(!m.state_is_pure(StateId(1)));
        assert!(!m.state_is_pure(StateId(2)));
        assert!(!m.state_is_pure(StateId(3)));
        let c = CompiledEfsm::compile(&m);
        assert!(c.is_fused(StateId(0)));
        assert!(c.is_fused(StateId(1)));
        assert!(c.is_fused(StateId(2)));
        assert!(c.is_fused(StateId(3)));
        assert_eq!(c.fused_states(), 4);
        assert!(c.fully_fused());
        assert!(c.op_count() > 0);
        assert_eq!(m.stats().pure_states, 1);
    }

    #[test]
    fn impurity_anywhere_in_the_live_graph_forces_program() {
        // Test(a) ? Goto : Do; Goto — the impure node sits on one
        // branch only; the state is mixed (and still fuses).
        let mut m = Efsm::new("deep");
        let a = m.add_signal("a", crate::SigKind::Input, false);
        let g = m.add_node(Node::Goto { target: StateId(0) });
        let d = m.add_node(Node::Do {
            action: ActionId(9),
            next: g,
        });
        let t = m.add_node(Node::Test {
            sig: a,
            then_: g,
            else_: d,
        });
        m.add_state("s0", t);
        m.validate().unwrap();
        assert!(!m.state_is_pure(StateId(0)));
        assert_eq!(m.stats().pure_states, 0);
        let c = CompiledEfsm::compile(&m);
        assert!(c.is_fused(StateId(0)));
        // The `a`-present row takes the pure branch: it is a simple
        // row, so only the absent row's residual (Pad for the resolved
        // test; Action; End) is in the arena.
        assert_eq!(c.op_count(), 3);
        // Walker parity on both rows, hook sequence included.
        for inputs in [&[][..], &[0u32][..]] {
            let bits: BitSet = inputs.iter().map(|&i| i as usize).collect();
            let mut h1 = RecHooks::new(&[]);
            let mut h2 = RecHooks::new(&[]);
            let mut e1 = Vec::new();
            let mut e2 = Vec::new();
            let r1 = m.step_bits(StateId(0), &bits, &mut h1, &mut e1);
            let r2 = c.step_table(&m, StateId(0), &bits, &mut h2, &mut e2);
            assert_eq!(r1, r2);
            assert_eq!(e1, e2);
            assert_eq!(h1.calls, h2.calls);
        }
    }

    #[test]
    fn mixed_states_fuse_with_exact_semantics() {
        // State 0 pure, state 1 mixed (pred test chooses the branch).
        let mut m = Efsm::new("hybrid");
        let a = m.add_signal("a", crate::SigKind::Input, false);
        let x = m.add_signal("x", crate::SigKind::Output, false);
        let g1 = m.add_node(Node::Goto { target: StateId(1) });
        let t0 = m.add_node(Node::Test {
            sig: a,
            then_: g1,
            else_: g1,
        });
        m.add_state("pure", t0);
        let g0 = m.add_node(Node::Goto { target: StateId(0) });
        let e = m.add_node(Node::Emit {
            sig: x,
            value: None,
            next: g0,
        });
        let stay = m.add_node(Node::Goto { target: StateId(1) });
        let p = m.add_node(Node::TestPred {
            pred: PredId(0),
            then_: e,
            else_: stay,
        });
        m.add_state("mixed", p);
        m.validate().unwrap();
        let c = CompiledEfsm::compile(&m);
        assert!(c.is_fused(StateId(1)));
        assert!(c.fully_fused());
        for answer in [false, true] {
            let bits = BitSet::new();
            let mut e1 = Vec::new();
            let mut e2 = Vec::new();
            let r1 = m.step_bits(StateId(1), &bits, &mut crate::ConstHooks(answer), &mut e1);
            let r2 = c.step_table(
                &m,
                StateId(1),
                &bits,
                &mut crate::ConstHooks(answer),
                &mut e2,
            );
            assert_eq!(r1, r2);
            assert_eq!(e1, e2);
            // One row program can reach either successor: the pred
            // decides at runtime, inside the program.
            assert_eq!(r2.next, if answer { StateId(0) } else { StateId(1) });
        }
    }

    #[test]
    fn interleaved_tests_and_data_keep_walker_order() {
        // Do(a0); Test(s)? (Emit v=e0; TestPred p0 ? Goto 1 : Goto 0)
        //                 : Goto 0
        // — actions run before the presence test in walk order, and
        // the pred sits behind a valued emission. The fused program
        // must replay the hook sequence exactly and charge the test
        // node positionally (after the action).
        let mut m = Efsm::new("interleave");
        let s = m.add_signal("s", crate::SigKind::Input, false);
        let v = m.add_signal("v", crate::SigKind::Output, true);
        let g1 = m.add_node(Node::Goto { target: StateId(1) });
        let g0 = m.add_node(Node::Goto { target: StateId(0) });
        let p = m.add_node(Node::TestPred {
            pred: PredId(3),
            then_: g1,
            else_: g0,
        });
        let ev = m.add_node(Node::Emit {
            sig: v,
            value: Some(ExprId(7)),
            next: p,
        });
        let g0b = m.add_node(Node::Goto { target: StateId(0) });
        let t = m.add_node(Node::Test {
            sig: s,
            then_: ev,
            else_: g0b,
        });
        let root = m.add_node(Node::Do {
            action: ActionId(5),
            next: t,
        });
        m.add_state("s0", root);
        let g_stay = m.add_node(Node::Goto { target: StateId(1) });
        m.add_state("s1", g_stay);
        m.validate().unwrap();
        let c = CompiledEfsm::compile(&m);
        assert!(c.fully_fused());
        let cases: [(&[u32], &[bool]); 3] = [(&[], &[]), (&[0], &[true]), (&[0], &[false])];
        for (inputs, answers) in cases {
            let bits: BitSet = inputs.iter().map(|&i| i as usize).collect();
            let mut h1 = RecHooks::new(answers);
            let mut h2 = RecHooks::new(answers);
            let mut e1 = Vec::new();
            let mut e2 = Vec::new();
            let r1 = m.step_bits(StateId(0), &bits, &mut h1, &mut e1);
            let r2 = c.step_table(&m, StateId(0), &bits, &mut h2, &mut e2);
            assert_eq!(r1, r2, "inputs {inputs:?} answers {answers:?}");
            assert_eq!(e1, e2);
            assert_eq!(h1.calls, h2.calls);
        }
    }

    #[test]
    fn untaken_pred_branches_do_not_charge_hidden_tests() {
        // TestPred p ? (Test(s)? Goto 0 : Goto 0) : Goto 0 — the
        // presence test is only visited when the pred holds. The mask
        // scan still splits on `s` (it is reachable at compile time),
        // but the Pad charge sits behind the pred branch, so a false
        // pred charges exactly what the walker would: pred + goto.
        let mut m = Efsm::new("hidden");
        let s = m.add_signal("s", crate::SigKind::Input, false);
        let g0 = m.add_node(Node::Goto { target: StateId(0) });
        let g1 = m.add_node(Node::Goto { target: StateId(0) });
        let g2 = m.add_node(Node::Goto { target: StateId(0) });
        let t = m.add_node(Node::Test {
            sig: s,
            then_: g0,
            else_: g1,
        });
        let p = m.add_node(Node::TestPred {
            pred: PredId(0),
            then_: t,
            else_: g2,
        });
        m.add_state("s0", p);
        m.validate().unwrap();
        let c = CompiledEfsm::compile(&m);
        assert!(c.fully_fused());
        for inputs in [&[][..], &[0u32][..]] {
            for answer in [false, true] {
                let bits: BitSet = inputs.iter().map(|&i| i as usize).collect();
                let mut e1 = Vec::new();
                let mut e2 = Vec::new();
                let r1 = m.step_bits(StateId(0), &bits, &mut crate::ConstHooks(answer), &mut e1);
                let r2 = c.step_table(
                    &m,
                    StateId(0),
                    &bits,
                    &mut crate::ConstHooks(answer),
                    &mut e2,
                );
                assert_eq!(r1, r2, "inputs {inputs:?} answer {answer}");
            }
        }
    }

    #[test]
    fn path_explosion_keeps_the_walker() {
        // A chain of tests sharing a leaf: 2^12 rows > ROW_CAP, one
        // state, pure — but not fused.
        let mut m = Efsm::new("wide");
        let sigs: Vec<Signal> = (0..12)
            .map(|i| m.add_signal(format!("s{i}"), crate::SigKind::Input, false))
            .collect();
        let mut root = m.add_node(Node::Goto { target: StateId(0) });
        for &s in &sigs {
            root = m.add_node(Node::Test {
                sig: s,
                then_: root,
                else_: root,
            });
        }
        m.add_state("s0", root);
        m.validate().unwrap();
        assert!(m.state_is_pure(StateId(0)));
        let c = CompiledEfsm::compile(&m);
        assert!(!c.is_fused(StateId(0)));
        // Fallback still answers correctly.
        let (r1, r2) = step_both(&m, &c, StateId(0), &[3]);
        assert_eq!(r1, r2);
    }

    #[test]
    fn nodes_visited_matches_the_walk_exactly() {
        let m = toggler();
        let c = CompiledEfsm::compile(&m);
        let (r1, r2) = step_both(&m, &c, StateId(0), &[0]);
        assert_eq!(r1.nodes_visited, 3); // test, emit, goto
        assert_eq!(r2.nodes_visited, 3);
        let (r1, r2) = step_both(&m, &c, StateId(0), &[]);
        assert_eq!(r1.nodes_visited, 2); // test, goto
        assert_eq!(r2.nodes_visited, 2);
    }

    #[test]
    fn wide_signal_space_uses_multiple_words() {
        // Signal indices past 64 force a second mask word.
        let mut m = Efsm::new("wide-sigs");
        let mut sigs = Vec::new();
        for i in 0..70 {
            sigs.push(m.add_signal(format!("s{i}"), crate::SigKind::Input, false));
        }
        let hi = sigs[69];
        let out = m.add_signal("out", crate::SigKind::Output, false);
        let g = m.add_node(Node::Goto { target: StateId(0) });
        let e = m.add_node(Node::Emit {
            sig: out,
            value: None,
            next: g,
        });
        let g2 = m.add_node(Node::Goto { target: StateId(0) });
        let t = m.add_node(Node::Test {
            sig: hi,
            then_: e,
            else_: g2,
        });
        m.add_state("s0", t);
        m.validate().unwrap();
        let c = CompiledEfsm::compile(&m);
        assert_eq!(c.mask_words(), 2);
        assert!(c.is_fused(StateId(0)));
        let (r1, r2) = step_both(&m, &c, StateId(0), &[69]);
        assert_eq!(r1, r2);
        let mut e2 = Vec::new();
        let bits: BitSet = [69usize].into_iter().collect();
        c.step_table(&m, StateId(0), &bits, &mut NoHooks, &mut e2);
        assert_eq!(e2, vec![out]);
    }

    #[test]
    fn exhaustive_random_inputs_agree_with_walker() {
        // Shared-diamond graph: Test(a) and Test(b) funnel into shared
        // emit/goto nodes — covers rows with repeated suffixes.
        let mut b = EfsmBuilder::new("diamond");
        let a = b.input("a");
        let bb = b.input("b");
        let x = b.output("x");
        let g0 = b.goto(StateId(0));
        let e = b.emit(x, g0);
        let g1 = b.goto(StateId(0));
        let tb = b.test(bb, e, g1);
        let r = b.test(a, e, tb);
        b.state("s0", r);
        let m = b.build();
        let c = CompiledEfsm::compile(&m);
        for pat in 0u32..4 {
            let inputs: Vec<u32> = [a, bb]
                .iter()
                .enumerate()
                .filter(|(i, _)| pat & (1 << i) != 0)
                .map(|(_, s)| s.0)
                .collect();
            let (r1, r2) = step_both(&m, &c, StateId(0), &inputs);
            assert_eq!(r1, r2, "pattern {pat:#b}");
        }
        // And with the walker's emission buffer compared directly.
        let bits: BitSet = [a.0 as usize].into_iter().collect();
        let (mut e1, mut e2) = (Vec::new(), Vec::new());
        let walked = m.step_bits(StateId(0), &bits, &mut NoHooks, &mut e1);
        let tabled = c.step_table(&m, StateId(0), &bits, &mut NoHooks, &mut e2);
        assert_eq!(walked.next, tabled.next);
        assert_eq!(e1, e2);
    }

    #[test]
    fn repeated_signal_tests_resolve_consistently() {
        // Test(a)@n1 then→ Test(a)@n2: the second test of the same
        // signal must follow the same branch the first did (cube
        // specialization guarantees it; raw path enumeration used to
        // generate contradictory rows and drop them). Node counts
        // include both visits.
        let mut m = Efsm::new("repeat");
        let a = m.add_signal("a", crate::SigKind::Input, false);
        let x = m.add_signal("x", crate::SigKind::Output, false);
        let g0 = m.add_node(Node::Goto { target: StateId(0) });
        let e = m.add_node(Node::Emit {
            sig: x,
            value: None,
            next: g0,
        });
        let g1 = m.add_node(Node::Goto { target: StateId(0) });
        let t2 = m.add_node(Node::Test {
            sig: a,
            then_: e,
            else_: g1,
        });
        let g2 = m.add_node(Node::Goto { target: StateId(0) });
        let t1 = m.add_node(Node::Test {
            sig: a,
            then_: t2,
            else_: g2,
        });
        m.add_state("s0", t1);
        m.validate().unwrap();
        let c = CompiledEfsm::compile(&m);
        assert!(c.is_fused(StateId(0)));
        // Exactly two rows: a present (both tests taken), a absent.
        assert_eq!(c.row_count(), 2);
        let (r1, r2) = step_both(&m, &c, StateId(0), &[0]);
        assert_eq!(r1, r2);
        assert_eq!(r1.nodes_visited, 4); // test, test, emit, goto
        let (r1, r2) = step_both(&m, &c, StateId(0), &[]);
        assert_eq!(r1, r2);
        assert_eq!(r1.nodes_visited, 2); // test, goto
    }
}
