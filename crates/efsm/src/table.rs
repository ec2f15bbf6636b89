//! The control layout of the compiled execution backend: each EFSM
//! state's s-graph laid out once as a linear op array.
//!
//! The s-graph walker ([`Efsm::step_bits`]) follows node ids through
//! the machine's node arena every instant. [`CompiledEfsm`] lays the
//! same decision DAG out as [`ResidualOp`]s, one op per live node, in
//! post-order: every successor has a lower pc than its predecessor,
//! each state enters at its own pc, and suffixes that hash-consing
//! shares between states are laid out once. A presence test is a
//! two-way branch on the instant's input set and a predicate test a
//! two-way branch on a data hook; actions, emissions and the goto
//! follow in walk order. Running the ops from a state's entry visits
//! exactly the nodes the walk visits, in the same order: the same
//! emissions, the same data-hook sequence, the same next state and the
//! same `nodes_visited` count. Nothing is enumerated, so the layout is
//! linear in the s-graph however many paths a state has.
//!
//! This crate treats data as opaque ids, so it does not execute the
//! layout: `ecl_core`'s fused reaction translates it once, with each
//! hook's bytecode inlined, into one op stream that a single dispatch
//! loop steps from the state's entry. The synthesized monitors do not
//! step here: they are pure control over a few inputs, so `ecl-observe`
//! tabulates each one whole, one next-state cell per state and input
//! combination.
//!
//! A [`CompiledEfsm`] is built once per task machine, at runner
//! construction; the differential proptests in `tests/differential.rs`
//! hold the compiled reaction to the walker.

use crate::machine::{Efsm, Signal, StateId};
use crate::sgraph::{Node, NodeId};
use crate::{ActionId, ExprId, PredId};

/// One op of the control layout: one live s-graph node, naming its
/// successors by pc. Ops live in one array on the [`CompiledEfsm`];
/// every successor has a lower pc than its predecessor (the array is
/// built in post-order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidualOp {
    /// Branch on the presence of local signal `sig` in the instant's
    /// inputs.
    Test {
        /// The signal.
        sig: Signal,
        /// Successor when it is present.
        then_: u32,
        /// Successor when it is absent.
        else_: u32,
    },
    /// Evaluate a data predicate and branch.
    Pred {
        /// The predicate.
        pred: PredId,
        /// Successor when it holds.
        then_: u32,
        /// Successor when it does not.
        else_: u32,
    },
    /// Run a data action.
    Action {
        /// The action.
        action: ActionId,
        /// Successor.
        next: u32,
    },
    /// Emit `sig` (computing its value first when `value` is set).
    Emit {
        /// The signal.
        sig: Signal,
        /// Its value expression, for a valued emission.
        value: Option<ExprId>,
        /// Successor.
        next: u32,
    },
    /// End of reaction: move to `target` for the next instant (charges
    /// the goto node).
    End {
        /// Next control state.
        target: StateId,
    },
}

/// The compiled control of one [`Efsm`]: its live s-graph nodes as one
/// op array, and the pc each state's reaction enters it at.
///
/// Holds no reference to the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledEfsm {
    /// Entry pc of each state, by state id.
    entries: Vec<u32>,
    /// The layout.
    ops: Vec<ResidualOp>,
}

impl CompiledEfsm {
    /// Lay out every state of `m`: its live nodes once each, in
    /// post-order, with one memo over all states. Iterative, like
    /// [`Efsm::stats`]: an s-graph can be deeper than the call stack.
    pub fn compile(m: &Efsm) -> CompiledEfsm {
        /// `pc[node]` of a node not laid out yet.
        const UNSEEN: u32 = u32::MAX;
        let mut pc = vec![UNSEEN; m.nodes.len()];
        let mut ops = Vec::with_capacity(m.nodes.len());
        let mut entries = Vec::with_capacity(m.states.len());
        let mut stack: Vec<(NodeId, bool)> = Vec::new();
        for st in &m.states {
            stack.push((st.root, false));
            while let Some((id, children_done)) = stack.pop() {
                let i = id.0 as usize;
                if pc[i] != UNSEEN {
                    continue;
                }
                let node = m.nodes[i];
                if !children_done {
                    stack.push((id, true));
                    // `else_` goes under `then_`, so it is laid out
                    // last, right below its test: a predicate that
                    // reads false falls off its inlined program into it.
                    let unseen = node
                        .successors()
                        .rev()
                        .filter(|c| pc[c.0 as usize] == UNSEEN);
                    stack.extend(unseen.map(|c| (c, false)));
                    continue;
                }
                let at = |n: NodeId| pc[n.0 as usize];
                let op = match node {
                    Node::Test { sig, then_, else_ } => ResidualOp::Test {
                        sig,
                        then_: at(then_),
                        else_: at(else_),
                    },
                    Node::TestPred { pred, then_, else_ } => ResidualOp::Pred {
                        pred,
                        then_: at(then_),
                        else_: at(else_),
                    },
                    Node::Do { action, next } => ResidualOp::Action {
                        action,
                        next: at(next),
                    },
                    Node::Emit { sig, value, next } => ResidualOp::Emit {
                        sig,
                        value,
                        next: at(next),
                    },
                    Node::Goto { target } => ResidualOp::End { target },
                };
                pc[i] = ops.len() as u32;
                ops.push(op);
            }
            entries.push(pc[st.root.0 as usize]);
        }
        CompiledEfsm { entries, ops }
    }

    /// The pc each state's reaction enters [`CompiledEfsm::ops`] at,
    /// by state id.
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// The layout: one op per live s-graph node.
    pub fn ops(&self) -> &[ResidualOp] {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{EfsmBuilder, StepOut};
    use crate::{ActionId, BitSet, DataHooks, ExprId, NoHooks, PredId};

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
        let r2 = trace(c, s, &bits, &mut NoHooks, &mut e2);
        assert_eq!(e1, e2, "emission order from state {s:?} inputs {inputs:?}");
        (r1, r2)
    }

    /// The tests' reading of the layout: one instant stepped from the
    /// state's entry the way a fused reaction steps it, with the data
    /// hooks answered through `hooks` (the production loop inlines them
    /// instead and lives in `ecl_core`, which this crate cannot link).
    fn trace(
        c: &CompiledEfsm,
        s: StateId,
        inputs: &BitSet,
        hooks: &mut dyn DataHooks,
        emitted: &mut Vec<Signal>,
    ) -> StepOut {
        let mut pc = c.entries()[s.0 as usize] as usize;
        let mut nodes = 0;
        loop {
            nodes += 1;
            pc = match c.ops()[pc] {
                ResidualOp::Test { sig, then_, else_ } => {
                    if inputs.contains(sig.0 as usize) {
                        then_
                    } else {
                        else_
                    }
                }
                ResidualOp::Pred { pred, then_, else_ } => {
                    if hooks.eval_pred(pred) {
                        then_
                    } else {
                        else_
                    }
                }
                ResidualOp::Action { action, next } => {
                    hooks.run_action(action);
                    next
                }
                ResidualOp::Emit { sig, value, next } => {
                    if let Some(e) = value {
                        hooks.emit_value(sig, e);
                    }
                    emitted.push(sig);
                    next
                }
                ResidualOp::End { target } => {
                    return StepOut {
                        next: target,
                        nodes_visited: nodes,
                    }
                }
            } as usize;
        }
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
        assert_eq!(c.ops().len(), m.stats().nodes as usize);
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
        // state 3 a Do action. Each lays out one op per live node.
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
        assert_eq!(m.stats().pure_states, 1);
        let c = CompiledEfsm::compile(&m);
        assert_eq!(c.ops().len(), m.stats().nodes as usize);
        assert_eq!(c.entries().len(), 4);
    }

    #[test]
    fn impurity_anywhere_in_the_live_graph_forces_program() {
        // Test(a) ? Goto : Do; Goto — the impure node sits on one
        // branch only; the state is mixed.
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
        assert_eq!(m.stats().pure_states, 0);
        let c = CompiledEfsm::compile(&m);
        // Test, Do and the shared Goto, once each.
        assert_eq!(c.ops().len(), 3);
        // Walker parity on both branches, hook sequence included.
        for inputs in [&[][..], &[0u32][..]] {
            let bits: BitSet = inputs.iter().map(|&i| i as usize).collect();
            let mut h1 = RecHooks::new(&[]);
            let mut h2 = RecHooks::new(&[]);
            let mut e1 = Vec::new();
            let mut e2 = Vec::new();
            let r1 = m.step_bits(StateId(0), &bits, &mut h1, &mut e1);
            let r2 = trace(&c, StateId(0), &bits, &mut h2, &mut e2);
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
        for answer in [false, true] {
            let bits = BitSet::new();
            let mut e1 = Vec::new();
            let mut e2 = Vec::new();
            let r1 = m.step_bits(StateId(1), &bits, &mut crate::ConstHooks(answer), &mut e1);
            let r2 = trace(
                &c,
                StateId(1),
                &bits,
                &mut crate::ConstHooks(answer),
                &mut e2,
            );
            assert_eq!(r1, r2);
            assert_eq!(e1, e2);
            // One entry can reach either successor: the pred decides
            // at run time.
            assert_eq!(r2.next, if answer { StateId(0) } else { StateId(1) });
        }
    }

    #[test]
    fn interleaved_tests_and_data_keep_walker_order() {
        // Do(a0); Test(s)? (Emit v=e0; TestPred p0 ? Goto 1 : Goto 0)
        //                 : Goto 0
        // — actions run before the presence test in walk order, and
        // the pred sits behind a valued emission. The layout must
        // replay the hook sequence exactly and charge the test node
        // positionally (after the action).
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
        let cases: [(&[u32], &[bool]); 3] = [(&[], &[]), (&[0], &[true]), (&[0], &[false])];
        for (inputs, answers) in cases {
            let bits: BitSet = inputs.iter().map(|&i| i as usize).collect();
            let mut h1 = RecHooks::new(answers);
            let mut h2 = RecHooks::new(answers);
            let mut e1 = Vec::new();
            let mut e2 = Vec::new();
            let r1 = m.step_bits(StateId(0), &bits, &mut h1, &mut e1);
            let r2 = trace(&c, StateId(0), &bits, &mut h2, &mut e2);
            assert_eq!(r1, r2, "inputs {inputs:?} answers {answers:?}");
            assert_eq!(e1, e2);
            assert_eq!(h1.calls, h2.calls);
        }
    }

    #[test]
    fn untaken_pred_branches_do_not_charge_hidden_tests() {
        // TestPred p ? (Test(s)? Goto 0 : Goto 0) : Goto 0 — the
        // presence test is only visited when the pred holds, so a
        // false pred charges exactly what the walker would: pred +
        // goto.
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
        for inputs in [&[][..], &[0u32][..]] {
            for answer in [false, true] {
                let bits: BitSet = inputs.iter().map(|&i| i as usize).collect();
                let mut e1 = Vec::new();
                let mut e2 = Vec::new();
                let r1 = m.step_bits(StateId(0), &bits, &mut crate::ConstHooks(answer), &mut e1);
                let r2 = trace(
                    &c,
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
    fn path_explosion_compiles_linearly() {
        // A chain of tests sharing a leaf: 2^12 paths through 13 live
        // nodes, one state.
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
        let c = CompiledEfsm::compile(&m);
        assert!(c.ops().len() <= m.stats().nodes as usize);
        for pat in 0u32..1 << sigs.len() {
            let inputs: Vec<u32> = (0..12).filter(|i| pat & (1 << i) != 0).collect();
            let (r1, r2) = step_both(&m, &c, StateId(0), &inputs);
            assert_eq!(r1, r2, "pattern {pat:#b}");
        }
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
        // Signal indices past 64 sit in the input set's second word.
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
        let (r1, r2) = step_both(&m, &c, StateId(0), &[69]);
        assert_eq!(r1, r2);
        let mut e2 = Vec::new();
        let bits: BitSet = [69usize].into_iter().collect();
        trace(&c, StateId(0), &bits, &mut NoHooks, &mut e2);
        assert_eq!(e2, vec![out]);
    }

    #[test]
    fn exhaustive_random_inputs_agree_with_walker() {
        // Shared-diamond graph: Test(a) and Test(b) funnel into shared
        // emit/goto nodes — covers paths with shared suffixes.
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
        let tabled = trace(&c, StateId(0), &bits, &mut NoHooks, &mut e2);
        assert_eq!(walked.next, tabled.next);
        assert_eq!(e1, e2);
    }

    #[test]
    fn repeated_signal_tests_resolve_consistently() {
        // Test(a)@n1 then→ Test(a)@n2: the second test of the same
        // signal must follow the same branch the first did. Node
        // counts include both visits.
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
        let (r1, r2) = step_both(&m, &c, StateId(0), &[0]);
        assert_eq!(r1, r2);
        assert_eq!(r1.nodes_visited, 4); // test, test, emit, goto
        let (r1, r2) = step_both(&m, &c, StateId(0), &[]);
        assert_eq!(r1, r2);
        assert_eq!(r1.nodes_visited, 2); // test, goto
    }
}
