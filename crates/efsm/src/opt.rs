//! EFSM optimization passes.
//!
//! These are the "logic optimization algorithms" the paper says apply to
//! the EFSM (Section 3): the s-graph analogue of two-level minimization
//! (node sharing + dead-test elimination) and classical FSM state
//! minimization by partition refinement. Minimization summarizes each
//! state once, by the shape of its s-graph and the targets of its
//! `Goto` holes, and refines with a Hopcroft-style worklist that
//! re-keys only the predecessors of states whose class changed, so it
//! is near-linear in the number of holes. All passes preserve
//! observable behavior: the sequence of emissions/actions for every
//! input sequence.

use crate::machine::{Efsm, State, StateId};
use crate::sgraph::{Node, NodeId};
use std::collections::HashMap;

/// Outcome of running [`optimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptReport {
    /// Nodes before / after.
    pub nodes_before: u32,
    /// Nodes after all passes.
    pub nodes_after: u32,
    /// States before / after.
    pub states_before: u32,
    /// States after all passes.
    pub states_after: u32,
}

/// Run the full pipeline: reduce, prune, minimize, reduce again.
pub fn optimize(m: &mut Efsm) -> OptReport {
    let before = m.stats();
    reduce(m);
    prune_unreachable(m);
    minimize_states(m);
    reduce(m);
    let after = m.stats();
    OptReport {
        nodes_before: before.nodes,
        nodes_after: after.nodes,
        states_before: before.states,
        states_after: after.states,
    }
}

/// Hash-consing reduction + dead-test elimination.
///
/// Rebuilds the node arena bottom-up so that structurally identical
/// subgraphs are shared, and replaces any test whose branches are the
/// same node with that node (the BDD reduction rules applied to
/// s-graphs). Unreferenced nodes are dropped.
pub fn reduce(m: &mut Efsm) {
    let mut new_nodes: Vec<Node> = Vec::new();
    let mut intern: HashMap<Node, NodeId> = HashMap::new();
    let mut memo: HashMap<NodeId, NodeId> = HashMap::new();

    // Iterative post-order rebuild (avoids recursion depth limits).
    fn rebuild(
        old: &[Node],
        root: NodeId,
        new_nodes: &mut Vec<Node>,
        intern: &mut HashMap<Node, NodeId>,
        memo: &mut HashMap<NodeId, NodeId>,
    ) -> NodeId {
        let mut stack = vec![(root, false)];
        while let Some((id, children_done)) = stack.pop() {
            if memo.contains_key(&id) {
                continue;
            }
            if !children_done {
                stack.push((id, true));
                for s in old[id.0 as usize].successors() {
                    if !memo.contains_key(&s) {
                        stack.push((s, false));
                    }
                }
                continue;
            }
            let mapped = old[id.0 as usize].map_successors(|s| memo[&s]);
            // Dead-test elimination: both branches identical.
            let mapped = match mapped {
                Node::Test { then_, else_, .. } if then_ == else_ => {
                    memo.insert(id, then_);
                    continue;
                }
                Node::TestPred { then_, else_, .. } if then_ == else_ => {
                    memo.insert(id, then_);
                    continue;
                }
                other => other,
            };
            let nid = *intern.entry(mapped).or_insert_with(|| {
                new_nodes.push(mapped);
                NodeId(new_nodes.len() as u32 - 1)
            });
            memo.insert(id, nid);
        }
        memo[&root]
    }

    let mut new_states = Vec::with_capacity(m.states.len());
    for st in &m.states {
        let root = rebuild(&m.nodes, st.root, &mut new_nodes, &mut intern, &mut memo);
        new_states.push(State {
            name: st.name.clone(),
            root,
        });
    }
    m.nodes = new_nodes;
    m.states = new_states;
}

/// Remove control states unreachable from the initial state, renumbering
/// the survivors (and their `Goto` targets).
pub fn prune_unreachable(m: &mut Efsm) {
    let n = m.states.len();
    let mut seen = vec![false; n];
    let mut stack = vec![m.init];
    seen[m.init.0 as usize] = true;
    while let Some(s) = stack.pop() {
        for id in crate::sgraph::reachable_nodes(&m.nodes, m.states[s.0 as usize].root) {
            if let Node::Goto { target } = m.nodes[id.0 as usize] {
                if !seen[target.0 as usize] {
                    seen[target.0 as usize] = true;
                    stack.push(target);
                }
            }
        }
    }
    if seen.iter().all(|x| *x) {
        return;
    }
    // Renumber.
    let mut remap = vec![StateId(u32::MAX); n];
    let mut kept = Vec::new();
    for (i, s) in m.states.iter().enumerate() {
        if seen[i] {
            remap[i] = StateId(kept.len() as u32);
            kept.push(s.clone());
        }
    }
    // Only rewrite nodes that are live in kept states — nodes of pruned
    // states keep stale targets and are garbage-collected right after.
    let mut live = vec![false; m.nodes.len()];
    for st in &kept {
        for id in crate::sgraph::reachable_nodes(&m.nodes, st.root) {
            live[id.0 as usize] = true;
        }
    }
    for (i, node) in m.nodes.iter_mut().enumerate() {
        if live[i] {
            *node = node.map_target(|t| remap[t.0 as usize]);
        }
    }
    m.init = remap[m.init.0 as usize];
    m.states = kept;
    // Drop the dead nodes (they may reference pruned states).
    reduce(m);
}

/// Observational state minimization by worklist partition refinement.
///
/// Two states are equivalent when their s-graphs unfold to the same
/// tree once every `Goto` target is replaced by its target's class.
/// Each state is summarized once, by its *shape* (its s-graph
/// hash-consed with every `Goto` as a hole) and its hole targets in
/// expansion order (`then_` before `else_`). Refinement starts from the
/// partition by shape. A round keys a state by its targets' class ids
/// as frozen at the start of the round, and re-keys only predecessors
/// of states whose id changed in the previous round. When a class
/// splits, its largest part keeps the id (Hopcroft's smaller-half
/// rule), so a state changes id O(log n) times. The coarsest stable
/// partition is unique, so the result is the one Moore refinement
/// reaches; each class then merges into its lowest-numbered member.
pub fn minimize_states(m: &mut Efsm) {
    if m.states.len() <= 1 {
        return;
    }
    let class = Holes::of(m).coarsest_partition();
    merge_classes(m, &class);
}

/// Merge each class of `class` (dense ids `0..k`) into its
/// lowest-numbered member, keeping the survivors in state order.
fn merge_classes(m: &mut Efsm, class: &[u32]) {
    let n = m.states.len();
    let num_classes = class.iter().copied().max().map(|c| c + 1).unwrap_or(0) as usize;
    if num_classes == n {
        return; // already minimal
    }
    // Representative per class = lowest-numbered member.
    let mut rep: Vec<Option<StateId>> = vec![None; num_classes];
    for (i, c) in class.iter().enumerate() {
        if rep[*c as usize].is_none() {
            rep[*c as usize] = Some(StateId(i as u32));
        }
    }
    // New state list: one per class, ordered by representative.
    let mut reps: Vec<StateId> = rep.iter().map(|r| r.expect("class has a member")).collect();
    reps.sort();
    let mut class_of_rep: HashMap<StateId, u32> = HashMap::new();
    for (new_idx, r) in reps.iter().enumerate() {
        class_of_rep.insert(*r, new_idx as u32);
    }
    // old state -> new id (via its class representative).
    let remap: Vec<StateId> = (0..n)
        .map(|i| {
            let r = rep[class[i] as usize].expect("class has a member");
            StateId(class_of_rep[&r])
        })
        .collect();
    for node in &mut m.nodes {
        *node = node.map_target(|t| remap[t.0 as usize]);
    }
    m.init = remap[m.init.0 as usize];
    m.states = reps
        .iter()
        .map(|r| m.states[r.0 as usize].clone())
        .collect();
}

/// What refinement needs of a machine: each state's shape class and
/// its hole targets, plus the reverse edges.
struct Holes {
    /// Initial class per state: states share one iff their shapes match.
    shape_class: Vec<u32>,
    /// `targets[start[s]..start[s + 1]]`: state `s`'s hole targets in
    /// expansion order.
    start: Vec<usize>,
    targets: Vec<u32>,
    /// `preds[t]`: the states with a hole targeting `t`, each once.
    preds: Vec<Vec<u32>>,
}

impl Holes {
    fn of(m: &Efsm) -> Holes {
        const UNSET: u32 = u32::MAX;
        let n = m.states.len();
        let nodes = &m.nodes;
        let mut shape = vec![UNSET; nodes.len()];
        let mut intern: HashMap<Node, u32> = HashMap::new();
        let mut shape_class_of: HashMap<u32, u32> = HashMap::new();
        let mut shape_class = Vec::with_capacity(n);
        let mut start = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        let mut post: Vec<(NodeId, bool)> = Vec::new();
        let mut pre: Vec<NodeId> = Vec::new();
        for st in &m.states {
            // Shape: hash-cons bottom-up, every `Goto` the same hole.
            post.push((st.root, false));
            while let Some((id, children_done)) = post.pop() {
                let node = nodes[id.0 as usize];
                if shape[id.0 as usize] != UNSET {
                    continue;
                }
                if !children_done {
                    post.push((id, true));
                    match node {
                        Node::Test { then_, else_, .. } | Node::TestPred { then_, else_, .. } => {
                            post.extend([(then_, false), (else_, false)]);
                        }
                        Node::Do { next, .. } | Node::Emit { next, .. } => post.push((next, false)),
                        Node::Goto { .. } => {}
                    }
                    continue;
                }
                let key = node
                    .map_successors(|s| NodeId(shape[s.0 as usize]))
                    .map_target(|_| StateId(0));
                let next = intern.len() as u32;
                shape[id.0 as usize] = *intern.entry(key).or_insert(next);
            }
            let next = shape_class_of.len() as u32;
            shape_class.push(
                *shape_class_of
                    .entry(shape[st.root.0 as usize])
                    .or_insert(next),
            );
            // Hole targets in expansion order.
            start.push(targets.len());
            pre.push(st.root);
            while let Some(id) = pre.pop() {
                match nodes[id.0 as usize] {
                    Node::Test { then_, else_, .. } | Node::TestPred { then_, else_, .. } => {
                        pre.push(else_);
                        pre.push(then_);
                    }
                    Node::Do { next, .. } | Node::Emit { next, .. } => pre.push(next),
                    Node::Goto { target } => targets.push(target.0),
                }
            }
        }
        start.push(targets.len());
        let mut preds = vec![Vec::new(); n];
        for p in 0..n as u32 {
            for &t in &targets[start[p as usize]..start[p as usize + 1]] {
                if preds[t as usize].last() != Some(&p) {
                    preds[t as usize].push(p);
                }
            }
        }
        Holes {
            shape_class,
            start,
            targets,
            preds,
        }
    }

    fn targets(&self, s: u32) -> &[u32] {
        &self.targets[self.start[s as usize]..self.start[s as usize + 1]]
    }

    /// The coarsest partition refining the shape partition in which
    /// every class is stable: members' hole targets lie pairwise in the
    /// same classes. Returns dense class ids.
    fn coarsest_partition(&self) -> Vec<u32> {
        let n = self.shape_class.len();
        let mut class = self.shape_class.clone();
        let num_shapes = class.iter().copied().max().map_or(0, |c| c + 1) as usize;
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); num_shapes];
        let mut pos = vec![0u32; n];
        for (s, &c) in class.iter().enumerate() {
            pos[s] = members[c as usize].len() as u32;
            members[c as usize].push(s as u32);
        }
        // `rested[s]`: `s` is not re-keyed this round.
        let mut rested = vec![true; n];
        // Round one keys every state.
        let mut dirty: Vec<u32> = (0..n as u32).collect();
        let mut keys: Vec<u32> = Vec::new();
        let mut order: Vec<usize> = Vec::new();
        let mut moves: Vec<(u32, u32)> = Vec::new();
        loop {
            dirty.sort_unstable_by_key(|&s| (class[s as usize], s));
            dirty.dedup();
            for &s in &dirty {
                rested[s as usize] = false;
            }
            for group in dirty.chunk_by(|a, b| class[*a as usize] == class[*b as usize]) {
                let block = class[group[0] as usize] as usize;
                let size = members[block].len();
                if size == 1 {
                    continue;
                }
                // Key by the targets' ids, frozen: `class` changes only
                // after the round. Members share a shape, so their keys
                // share a width.
                let width = self.targets(group[0]).len();
                keys.clear();
                for &s in group {
                    keys.extend(self.targets(s).iter().map(|&t| class[t as usize]));
                }
                let key_of = |i: usize| &keys[i * width..(i + 1) * width];
                order.clear();
                order.extend(0..group.len());
                order.sort_unstable_by(|&a, &b| key_of(a).cmp(key_of(b)));
                let parts: Vec<&[usize]> =
                    order.chunk_by(|&a, &b| key_of(a) == key_of(b)).collect();
                // The members not re-keyed form one more part: their keys
                // did not change, so they still agree, and no re-keyed
                // key matches them — a re-keyed state has a hole into a
                // class made last round, which no resting member reaches.
                let rest = size - group.len();
                if rest == 0 && parts.len() == 1 {
                    continue; // no split
                }
                // The largest part keeps the id (the rest wins ties);
                // every other part moves to a fresh one.
                let largest = parts.iter().map(|part| part.len()).max().unwrap_or(0);
                let keeper = parts
                    .iter()
                    .position(|part| part.len() == largest && largest > rest);
                for (i, part) in parts.iter().enumerate() {
                    if keeper != Some(i) {
                        let fresh = members.len() as u32;
                        members.push(Vec::new());
                        moves.extend(part.iter().map(|&i| (group[i], fresh)));
                    }
                }
                if keeper.is_some() && rest > 0 {
                    let fresh = members.len() as u32;
                    members.push(Vec::new());
                    let resting = members[block].iter().filter(|&&s| rested[s as usize]);
                    moves.extend(resting.map(|&s| (s, fresh)));
                }
            }
            for &s in &dirty {
                rested[s as usize] = true;
            }
            if moves.is_empty() {
                return class;
            }
            // Apply the round's splits; the predecessors of every state
            // whose id changed are re-keyed next round.
            dirty.clear();
            for &(s, fresh) in &moves {
                let old = class[s as usize] as usize;
                let p = pos[s as usize] as usize;
                members[old].swap_remove(p);
                if let Some(&moved) = members[old].get(p) {
                    pos[moved as usize] = p as u32;
                }
                pos[s as usize] = members[fresh as usize].len() as u32;
                members[fresh as usize].push(s);
                class[s as usize] = fresh;
                dirty.extend_from_slice(&self.preds[s as usize]);
            }
            moves.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::EfsmBuilder;
    use crate::{BitSet, NoHooks};

    /// A machine with two behaviorally identical states (1 and 2).
    fn redundant() -> Efsm {
        let mut b = EfsmBuilder::new("redundant");
        let a = b.input("a");
        let o = b.output("o");
        // s0: a ? goto 1 : goto 2
        let g1 = b.goto(StateId(1));
        let g2 = b.goto(StateId(2));
        let r0 = b.test(a, g1, g2);
        b.state("s0", r0);
        // s1: a ? emit o; goto 0 : goto 1
        let g0 = b.goto(StateId(0));
        let e1 = b.emit(o, g0);
        let g1b = b.goto(StateId(1));
        let r1 = b.test(a, e1, g1b);
        b.state("s1", r1);
        // s2: a ? emit o; goto 0 : goto 2   (same behavior as s1)
        let g0b = b.goto(StateId(0));
        let e2 = b.emit(o, g0b);
        let g2b = b.goto(StateId(2));
        let r2 = b.test(a, e2, g2b);
        b.state("s2", r2);
        b.build()
    }

    #[test]
    fn minimize_merges_equivalent_states() {
        let mut m = redundant();
        minimize_states(&mut m);
        assert_eq!(m.states.len(), 2);
        m.validate().unwrap();
        // Behavior preserved: from s0 with a present we reach the merged
        // state; another a emits o.
        let a = m.signal("a").unwrap();
        let o = m.signal("o").unwrap();
        let on: BitSet = [a.0 as usize].into_iter().collect();
        let mut emitted = Vec::new();
        let r = m.step_bits(m.init, &on, &mut NoHooks, &mut emitted);
        emitted.clear();
        m.step_bits(r.next, &on, &mut NoHooks, &mut emitted);
        assert_eq!(emitted, vec![o]);
    }

    #[test]
    fn reduce_shares_identical_subgraphs() {
        let mut b = EfsmBuilder::new("dup");
        let a = b.input("a");
        let o = b.output("o");
        // Two identical emit chains, duplicated on both test branches.
        let g0 = b.goto(StateId(0));
        let e1 = b.emit(o, g0);
        let g0b = b.goto(StateId(0));
        let e2 = b.emit(o, g0b);
        let r = b.test(a, e1, e2);
        b.state("s0", r);
        let mut m = b.build();
        let before = m.stats().nodes;
        reduce(&mut m);
        let after = m.stats().nodes;
        assert!(after < before, "{after} !< {before}");
        // The test now has both branches equal and is itself eliminated.
        assert_eq!(m.stats().tests, 0);
        m.validate().unwrap();
    }

    #[test]
    fn prune_removes_unreachable() {
        let mut b = EfsmBuilder::new("island");
        let a = b.input("a");
        let g0 = b.goto(StateId(0));
        let g0b = b.goto(StateId(0));
        let r0 = b.test(a, g0, g0b);
        b.state("s0", r0);
        let g1 = b.goto(StateId(1));
        b.state("island", g1);
        let mut m = b.build();
        prune_unreachable(&mut m);
        assert_eq!(m.states.len(), 1);
        m.validate().unwrap();
    }

    #[test]
    fn optimize_reports_shrinkage() {
        let mut m = redundant();
        let rep = optimize(&mut m);
        assert!(rep.states_after < rep.states_before);
        assert!(rep.nodes_after <= rep.nodes_before);
        m.validate().unwrap();
    }

    #[test]
    fn minimize_preserves_behavior_on_random_inputs() {
        use rand::{Rng, SeedableRng};
        let m1 = redundant();
        let mut m2 = redundant();
        optimize(&mut m2);
        let a = m1.signal("a").unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut s1 = m1.init;
        let mut s2 = m2.init;
        let (mut e1, mut e2) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            let mut inputs = BitSet::new();
            if rng.gen_bool(0.5) {
                inputs.insert(a.0 as usize);
            }
            e1.clear();
            e2.clear();
            s1 = m1.step_bits(s1, &inputs, &mut NoHooks, &mut e1).next;
            s2 = m2.step_bits(s2, &inputs, &mut NoHooks, &mut e2).next;
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn single_state_machine_is_untouched() {
        let mut b = EfsmBuilder::new("one");
        let _ = b.input("x");
        let g = b.goto(StateId(0));
        b.state("s0", g);
        let mut m = b.build();
        minimize_states(&mut m);
        assert_eq!(m.states.len(), 1);
    }

    #[test]
    fn prune_keeps_all_when_connected() {
        let mut m = redundant();
        let before = m.states.len();
        prune_unreachable(&mut m);
        assert_eq!(m.states.len(), before);
    }

    #[test]
    fn signature_distinguishes_emissions() {
        let mut b = EfsmBuilder::new("sig");
        let a = b.input("a");
        let o = b.output("o");
        let p = b.output("p");
        let g0 = b.goto(StateId(0));
        let e_o = b.emit(o, g0);
        let g1 = b.goto(StateId(1));
        let e_p = b.emit(p, g1);
        let r0 = b.test(a, e_o, e_p);
        b.state("s0", r0);
        let g0b = b.goto(StateId(0));
        b.state("s1", g0b);
        let mut m = b.build();
        let before = m.states.len();
        minimize_states(&mut m);
        // s0 and s1 behave differently; nothing merges.
        assert_eq!(m.states.len(), before);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::machine::{Efsm, SigKind};
    use crate::sgraph::{Node, NodeId};
    use crate::{BitSet, NoHooks, Signal};
    use proptest::prelude::*;

    /// Generate a random (valid, acyclic) pure-control machine.
    fn arb_efsm(max_states: u32, max_sigs: u32) -> impl Strategy<Value = Efsm> {
        (2..=max_states, 1..=max_sigs, any::<u64>()).prop_map(|(nstates, nsigs, seed)| {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut m = Efsm::new("random");
            let inputs: Vec<Signal> = (0..nsigs)
                .map(|i| m.add_signal(format!("i{i}"), SigKind::Input, false))
                .collect();
            let outputs: Vec<Signal> = (0..nsigs)
                .map(|i| m.add_signal(format!("o{i}"), SigKind::Output, false))
                .collect();
            for s in 0..nstates {
                // Build a small random decision tree bottom-up.
                let mut pool: Vec<NodeId> = (0..3)
                    .map(|_| {
                        m.add_node(Node::Goto {
                            target: crate::StateId(rng.gen_range(0..nstates)),
                        })
                    })
                    .collect();
                for _ in 0..rng.gen_range(0..5) {
                    let pick = |rng: &mut rand::rngs::StdRng, pool: &Vec<NodeId>| {
                        pool[rng.gen_range(0..pool.len())]
                    };
                    let node = match rng.gen_range(0..3) {
                        0 => Node::Test {
                            sig: inputs[rng.gen_range(0..inputs.len())],
                            then_: pick(&mut rng, &pool),
                            else_: pick(&mut rng, &pool),
                        },
                        1 => Node::Emit {
                            sig: outputs[rng.gen_range(0..outputs.len())],
                            value: None,
                            next: pick(&mut rng, &pool),
                        },
                        _ => Node::Test {
                            sig: inputs[rng.gen_range(0..inputs.len())],
                            then_: pick(&mut rng, &pool),
                            else_: pick(&mut rng, &pool),
                        },
                    };
                    let id = m.add_node(node);
                    pool.push(id);
                }
                let root = *pool.last().expect("pool nonempty");
                m.add_state(format!("s{s}"), root);
            }
            m.validate().expect("generator builds valid machines");
            m
        })
    }

    /// Machines of up to `max_states` states over every node kind, with
    /// id alphabets small enough that shapes collide and states merge.
    /// Half are chains: each state steps to the next unless `go` is
    /// present, so refinement needs one round per state; a periodic
    /// emission makes states one period apart equivalent when the chain
    /// closes into a cycle.
    fn arb_wide_efsm(max_states: u32) -> impl Strategy<Value = Efsm> {
        (2..=max_states, any::<bool>(), any::<u64>())
            .prop_map(|(nstates, chain, seed)| wide_efsm(nstates, chain, seed))
    }

    /// One [`arb_wide_efsm`] machine.
    fn wide_efsm(nstates: u32, chain: bool, seed: u64) -> Efsm {
        use crate::{ActionId, ExprId, PredId, StateId};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Efsm::new(if chain { "chain" } else { "wide" });
        let go = m.add_signal("go", SigKind::Input, false);
        let hold = m.add_signal("hold", SigKind::Input, false);
        let out = m.add_signal("out", SigKind::Output, true);
        let done = m.add_signal("done", SigKind::Output, false);
        if chain {
            let period = rng.gen_range(1..=nstates);
            let closed = rng.gen_bool(0.5);
            let guarded = rng.gen_bool(0.5);
            let acting = rng.gen_bool(0.5);
            for s in 0..nstates {
                let last = s + 1 == nstates;
                let next = if !last {
                    s + 1
                } else if closed {
                    0
                } else {
                    s
                };
                let mut body = m.add_node(Node::Goto {
                    target: StateId(next),
                });
                if last && !closed {
                    body = m.add_node(Node::Emit {
                        sig: done,
                        value: None,
                        next: body,
                    });
                } else if s % period == period - 1 {
                    body = m.add_node(Node::Emit {
                        sig: out,
                        value: Some(ExprId(0)),
                        next: body,
                    });
                }
                if acting {
                    body = m.add_node(Node::Do {
                        action: ActionId(0),
                        next: body,
                    });
                }
                if guarded {
                    let stay = m.add_node(Node::Goto { target: StateId(s) });
                    body = m.add_node(Node::TestPred {
                        pred: PredId(0),
                        then_: body,
                        else_: stay,
                    });
                }
                let restart = m.add_node(Node::Goto { target: StateId(0) });
                let root = m.add_node(Node::Test {
                    sig: go,
                    then_: restart,
                    else_: body,
                });
                m.add_state(format!("c{s}"), root);
            }
        } else {
            let hubs: Vec<u32> = (0..rng.gen_range(1..=4))
                .map(|_| rng.gen_range(0..nstates))
                .collect();
            for s in 0..nstates {
                let mut pool: Vec<NodeId> = (0..2)
                    .map(|_| {
                        let target = if rng.gen_bool(0.8) {
                            hubs[rng.gen_range(0..hubs.len())]
                        } else {
                            rng.gen_range(0..nstates)
                        };
                        m.add_node(Node::Goto {
                            target: StateId(target),
                        })
                    })
                    .collect();
                for _ in 0..rng.gen_range(0..5) {
                    let mut pick = || pool[rng.gen_range(0..pool.len())];
                    let (a, b) = (pick(), pick());
                    let node = match rng.gen_range(0..5) {
                        0 => Node::Test {
                            sig: if rng.gen_bool(0.5) { go } else { hold },
                            then_: a,
                            else_: b,
                        },
                        1 => Node::TestPred {
                            pred: PredId(rng.gen_range(0..2)),
                            then_: a,
                            else_: b,
                        },
                        2 => Node::Do {
                            action: ActionId(rng.gen_range(0..2)),
                            next: a,
                        },
                        3 => Node::Emit {
                            sig: out,
                            value: Some(ExprId(rng.gen_range(0..2))),
                            next: a,
                        },
                        _ => Node::Emit {
                            sig: done,
                            value: None,
                            next: a,
                        },
                    };
                    pool.push(m.add_node(node));
                }
                let root = *pool.last().expect("pool nonempty");
                m.add_state(format!("w{s}"), root);
            }
        }
        m.validate().expect("generator builds valid machines");
        m
    }

    /// Reference minimization: Moore refinement over string signatures,
    /// every state re-signed every round until no class splits.
    fn minimize_states_reference(m: &mut Efsm) {
        let n = m.states.len();
        if n <= 1 {
            return;
        }
        let mut class: Vec<u32> = vec![0; n];
        loop {
            let sigs: Vec<String> = m
                .states
                .iter()
                .map(|st| signature(&m.nodes, st.root, &class))
                .collect();
            let mut next_class = vec![0u32; n];
            let mut index: HashMap<(u32, &str), u32> = HashMap::new();
            for i in 0..n {
                let count = index.len() as u32;
                next_class[i] = *index.entry((class[i], sigs[i].as_str())).or_insert(count);
            }
            let stable = next_class == class;
            class = next_class;
            if stable {
                break;
            }
        }
        merge_classes(m, &class);
    }

    /// Canonical string signature of an s-graph with state classes
    /// substituted for targets.
    fn signature(nodes: &[Node], root: NodeId, class: &[u32]) -> String {
        fn go(
            nodes: &[Node],
            id: NodeId,
            class: &[u32],
            memo: &mut HashMap<NodeId, String>,
        ) -> String {
            if let Some(s) = memo.get(&id) {
                return s.clone();
            }
            let s = match nodes[id.0 as usize] {
                Node::Test { sig, then_, else_ } => format!(
                    "T{}({},{})",
                    sig.0,
                    go(nodes, then_, class, memo),
                    go(nodes, else_, class, memo)
                ),
                Node::TestPred { pred, then_, else_ } => format!(
                    "P{}({},{})",
                    pred.0,
                    go(nodes, then_, class, memo),
                    go(nodes, else_, class, memo)
                ),
                Node::Do { action, next } => {
                    format!("D{};{}", action.0, go(nodes, next, class, memo))
                }
                Node::Emit { sig, value, next } => format!(
                    "E{}{};{}",
                    sig.0,
                    value.map(|v| format!("v{}", v.0)).unwrap_or_default(),
                    go(nodes, next, class, memo)
                ),
                Node::Goto { target } => format!("G{}", class[target.0 as usize]),
            };
            memo.insert(id, s.clone());
            s
        }
        go(nodes, root, class, &mut HashMap::new())
    }

    #[test]
    fn wide_generator_covers_merges_and_long_chains() {
        let (mut merged, mut longest) = (0, 0);
        for seed in 0..64 {
            let m = wide_efsm(256 - seed as u32, seed % 2 == 0, seed);
            let mut min = m.clone();
            minimize_states(&mut min);
            merged += usize::from(min.states.len() < m.states.len());
            if m.name == "chain" && min.states.len() == m.states.len() {
                longest = longest.max(m.states.len());
            }
        }
        assert!(merged >= 8, "only {merged} of 64 machines merge states");
        assert!(longest >= 64, "longest unmerged chain has {longest} states");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The worklist refinement builds exactly the machine the
        /// reference Moore refinement builds: states with names, nodes
        /// and the initial state.
        #[test]
        fn minimize_matches_reference(m in arb_efsm(6, 3)) {
            let mut fast = m.clone();
            let mut slow = m;
            minimize_states(&mut fast);
            minimize_states_reference(&mut slow);
            prop_assert_eq!(fast, slow);
        }

        /// Same, on machines of up to 256 states with every node kind
        /// and long refinement chains.
        #[test]
        fn minimize_matches_reference_wide(m in arb_wide_efsm(256)) {
            let mut fast = m.clone();
            let mut slow = m;
            minimize_states(&mut fast);
            minimize_states_reference(&mut slow);
            prop_assert_eq!(fast, slow);
        }

        /// Optimization must preserve the observable trace for random
        /// machines and random input sequences.
        #[test]
        fn optimize_preserves_traces(m in arb_efsm(6, 3), inputs_seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut opt = m.clone();
            optimize(&mut opt);
            opt.validate().unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(inputs_seed);
            let all_inputs: Vec<Signal> = m.inputs().map(|(s, _)| s).collect();
            let mut s1 = m.init;
            let mut s2 = opt.init;
            let (mut e1, mut e2) = (Vec::new(), Vec::new());
            for _ in 0..64 {
                let mut present = BitSet::new();
                for s in &all_inputs {
                    if rng.gen_bool(0.5) {
                        present.insert(s.0 as usize);
                    }
                }
                e1.clear();
                e2.clear();
                s1 = m.step_bits(s1, &present, &mut NoHooks, &mut e1).next;
                s2 = opt.step_bits(s2, &present, &mut NoHooks, &mut e2).next;
                prop_assert_eq!(&e1, &e2);
            }
        }

        /// Optimization never increases node or state counts.
        #[test]
        fn optimize_never_grows(m in arb_efsm(6, 3)) {
            let mut opt = m.clone();
            let rep = optimize(&mut opt);
            prop_assert!(rep.nodes_after <= rep.nodes_before);
            prop_assert!(rep.states_after <= rep.states_before);
        }
    }
}
