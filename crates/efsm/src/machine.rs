//! The [`Efsm`] type: states, signals, s-graph arena, and the
//! single-instant step executor.

use crate::sgraph::{self, Node, NodeId};
use crate::{BitSet, DataHooks};
use std::collections::HashSet;
use std::fmt;

/// Index of a signal in a machine's signal table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signal(pub u32);

/// Index of a control state. The `Default` (state 0) matches the
/// convention that compilation emits the boot state first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StateId(pub u32);

/// Signal role relative to this machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SigKind {
    /// Read from the environment.
    Input,
    /// Produced for the environment.
    Output,
    /// Internal (compiled away in whole-program machines, but kept in
    /// the table for traceability).
    Local,
}

/// Declaration of one signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalInfo {
    /// Name (globally meaningful: runner tasks are wired by name).
    pub name: String,
    /// Role.
    pub kind: SigKind,
    /// Whether the signal carries a value in addition to presence.
    pub valued: bool,
}

/// One control state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// Debug name (derived from the pause set during compilation).
    pub name: String,
    /// Root of the state's s-graph.
    pub root: NodeId,
}

/// An extended finite state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Efsm {
    /// Machine name.
    pub name: String,
    /// Signal table.
    pub signals: Vec<SignalInfo>,
    /// Control states.
    pub states: Vec<State>,
    /// Initial state.
    pub init: StateId,
    /// Shared s-graph node arena.
    pub nodes: Vec<Node>,
}

/// Result of one [`Efsm::step_bits`] call (emissions go to the caller's
/// buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepOut {
    /// Next control state.
    pub next: StateId,
    /// Number of s-graph nodes traversed (proxy for reaction latency).
    pub nodes_visited: u32,
}
impl Efsm {
    /// Create an empty machine (no states yet).
    pub fn new(name: impl Into<String>) -> Self {
        Efsm {
            name: name.into(),
            signals: Vec::new(),
            states: Vec::new(),
            init: StateId(0),
            nodes: Vec::new(),
        }
    }

    /// Add a signal; returns its handle.
    pub fn add_signal(&mut self, name: impl Into<String>, kind: SigKind, valued: bool) -> Signal {
        self.signals.push(SignalInfo {
            name: name.into(),
            kind,
            valued,
        });
        Signal(self.signals.len() as u32 - 1)
    }

    /// Add an s-graph node; returns its id.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Add a state rooted at `root`; returns its id.
    pub fn add_state(&mut self, name: impl Into<String>, root: NodeId) -> StateId {
        self.states.push(State {
            name: name.into(),
            root,
        });
        StateId(self.states.len() as u32 - 1)
    }

    /// Find a signal by name.
    pub fn signal(&self, name: &str) -> Option<Signal> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(|i| Signal(i as u32))
    }

    /// Signal info by handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle is out of range.
    pub fn signal_info(&self, s: Signal) -> &SignalInfo {
        &self.signals[s.0 as usize]
    }

    /// Input signals of the machine.
    pub fn inputs(&self) -> impl Iterator<Item = (Signal, &SignalInfo)> {
        self.signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == SigKind::Input)
            .map(|(i, s)| (Signal(i as u32), s))
    }

    /// Output signals of the machine.
    pub fn outputs(&self) -> impl Iterator<Item = (Signal, &SignalInfo)> {
        self.signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == SigKind::Output)
            .map(|(i, s)| (Signal(i as u32), s))
    }

    /// Execute one instant from `state`: `inputs` is a presence
    /// [`BitSet`] over this machine's *local* signal indices, and every
    /// emission is appended to `emitted` (not cleared — callers reuse
    /// the buffer across reactions and truncate themselves).
    ///
    /// Walks the state's s-graph: `Test` consults `inputs`, `TestPred`,
    /// `Do` and valued `Emit` call into `hooks`, and the terminating
    /// `Goto` gives the next state. Allocation-free: runners drive it
    /// with reusable buffers.
    ///
    /// # Panics
    ///
    /// Panics if the machine is structurally broken (dangling node or
    /// state ids) — [`Efsm::validate`] should be used after construction.
    pub fn step_bits(
        &self,
        state: StateId,
        inputs: &BitSet,
        hooks: &mut dyn DataHooks,
        emitted: &mut Vec<Signal>,
    ) -> StepOut {
        let mut cur = self.states[state.0 as usize].root;
        let mut out = StepOut::default();
        loop {
            out.nodes_visited += 1;
            match self.nodes[cur.0 as usize] {
                Node::Test { sig, then_, else_ } => {
                    cur = if inputs.contains(sig.0 as usize) {
                        then_
                    } else {
                        else_
                    };
                }
                Node::TestPred { pred, then_, else_ } => {
                    cur = if hooks.eval_pred(pred) { then_ } else { else_ };
                }
                Node::Do { action, next } => {
                    hooks.run_action(action);
                    cur = next;
                }
                Node::Emit { sig, value, next } => {
                    if let Some(expr) = value {
                        hooks.emit_value(sig, expr);
                    }
                    emitted.push(sig);
                    cur = next;
                }
                Node::Goto { target } => {
                    out.next = target;
                    return out;
                }
            }
        }
    }

    /// Structural sanity check: all node/state references in range, all
    /// states' graphs acyclic, all tested signals declared.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.states.is_empty() {
            return Err("machine has no states".into());
        }
        if self.init.0 as usize >= self.states.len() {
            return Err(format!("initial state {:?} out of range", self.init));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            for s in n.successors() {
                if s.0 as usize >= self.nodes.len() {
                    return Err(format!("node {i} points to missing node {s:?}"));
                }
            }
            match n {
                Node::Test { sig, .. } | Node::Emit { sig, .. }
                    if sig.0 as usize >= self.signals.len() =>
                {
                    return Err(format!("node {i} references missing signal {sig:?}"));
                }
                Node::Goto { target } if target.0 as usize >= self.states.len() => {
                    return Err(format!("node {i} jumps to missing state {target:?}"));
                }
                _ => {}
            }
        }
        // Acyclicity per state graph (iterative DFS with colors).
        for (si, st) in self.states.iter().enumerate() {
            if st.root.0 as usize >= self.nodes.len() {
                return Err(format!("state {si} has missing root node"));
            }
            let mut color = vec![0u8; self.nodes.len()]; // 0 white, 1 gray, 2 black
            let mut stack = vec![(st.root, false)];
            while let Some((id, leaving)) = stack.pop() {
                let c = &mut color[id.0 as usize];
                if leaving {
                    *c = 2;
                    continue;
                }
                if *c == 1 {
                    return Err(format!("cycle in s-graph of state {si}"));
                }
                if *c == 2 {
                    continue;
                }
                *c = 1;
                stack.push((id, true));
                for s in self.nodes[id.0 as usize].successors() {
                    if color[s.0 as usize] == 1 {
                        return Err(format!("cycle in s-graph of state {si}"));
                    }
                    if color[s.0 as usize] == 0 {
                        stack.push((s, false));
                    }
                }
            }
        }
        Ok(())
    }

    /// Summary statistics for reporting and the cost model.
    pub fn stats(&self) -> EfsmStats {
        let mut live: HashSet<NodeId> = HashSet::new();
        for st in &self.states {
            live.extend(sgraph::reachable_nodes(&self.nodes, st.root));
        }
        let mut s = EfsmStats {
            states: self.states.len() as u32,
            ..EfsmStats::default()
        };
        for id in &live {
            match self.nodes[id.0 as usize] {
                Node::Test { .. } => s.tests += 1,
                Node::TestPred { .. } => s.pred_tests += 1,
                Node::Do { .. } => s.actions += 1,
                Node::Emit { .. } => s.emits += 1,
                Node::Goto { .. } => s.gotos += 1,
            }
        }
        s.nodes = live.len() as u32;
        s.pure_states = (0..self.states.len())
            .filter(|&i| self.state_is_pure(StateId(i as u32)))
            .count() as u32;
        s
    }

    /// Enumerate the flat transitions of `state` (for tests/reports).
    pub fn paths_of(&self, state: StateId, cap: usize) -> Option<Vec<sgraph::Path>> {
        sgraph::enumerate_paths(&self.nodes, self.states[state.0 as usize].root, cap)
    }
}

/// Node/state counts of a machine (inputs to the software cost model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EfsmStats {
    /// Number of control states.
    pub states: u32,
    /// States whose live s-graph is pure control (only presence tests,
    /// presence-only emits and gotos) — the states
    /// [`crate::CompiledEfsm`] can flatten to transition tables.
    pub pure_states: u32,
    /// Live s-graph nodes (shared nodes counted once).
    pub nodes: u32,
    /// Signal-presence test nodes.
    pub tests: u32,
    /// Data-predicate test nodes.
    pub pred_tests: u32,
    /// Data-action nodes.
    pub actions: u32,
    /// Emission nodes.
    pub emits: u32,
    /// Goto (leaf) nodes.
    pub gotos: u32,
}

impl fmt::Display for EfsmStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states ({} pure), {} nodes ({} tests, {} pred-tests, {} actions, {} emits, {} gotos)",
            self.states,
            self.pure_states,
            self.nodes,
            self.tests,
            self.pred_tests,
            self.actions,
            self.emits,
            self.gotos
        )
    }
}

/// Convenience builder for hand-written machines in tests and examples.
#[derive(Debug)]
pub struct EfsmBuilder {
    m: Efsm,
}

impl EfsmBuilder {
    /// Start building a machine.
    pub fn new(name: impl Into<String>) -> Self {
        EfsmBuilder { m: Efsm::new(name) }
    }

    /// Declare an input signal.
    pub fn input(&mut self, name: &str) -> Signal {
        self.m.add_signal(name, SigKind::Input, false)
    }

    /// Declare an output signal.
    pub fn output(&mut self, name: &str) -> Signal {
        self.m.add_signal(name, SigKind::Output, false)
    }

    /// Add a `Goto` leaf.
    pub fn goto(&mut self, target: StateId) -> NodeId {
        self.m.add_node(Node::Goto { target })
    }

    /// Add a presence test node.
    pub fn test(&mut self, sig: Signal, then_: NodeId, else_: NodeId) -> NodeId {
        self.m.add_node(Node::Test { sig, then_, else_ })
    }

    /// Add an emission node.
    pub fn emit(&mut self, sig: Signal, next: NodeId) -> NodeId {
        self.m.add_node(Node::Emit {
            sig,
            value: None,
            next,
        })
    }

    /// Add a state.
    pub fn state(&mut self, name: &str, root: NodeId) -> StateId {
        self.m.add_state(name, root)
    }

    /// Finish; validates the machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine fails [`Efsm::validate`].
    pub fn build(self) -> Efsm {
        self.m.validate().expect("builder produced invalid machine");
        self.m
    }
}

impl Efsm {
    /// [`Efsm::validate`], reported as the workspace-unified
    /// [`ecl_syntax::EclError`] (stage `efsm`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Efsm::validate`].
    pub fn validate_ecl(&self) -> Result<(), ecl_syntax::EclError> {
        self.validate().map_err(|msg| {
            ecl_syntax::EclError::msg(ecl_syntax::Stage::Efsm, msg, ecl_syntax::Span::dummy())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoHooks;

    /// Two-state toggler: on `tick` emit `tock` and flip state.
    fn toggler() -> Efsm {
        let mut b = EfsmBuilder::new("toggler");
        let tick = b.input("tick");
        let tock = b.output("tock");
        // State 0: tick ? emit tock; goto 1 : goto 0
        let g1 = b.goto(StateId(1));
        let e = b.emit(tock, g1);
        let g0 = b.goto(StateId(0));
        let r0 = b.test(tick, e, g0);
        b.state("s0", r0);
        // State 1: tick ? goto 0 : goto 1
        let g0b = b.goto(StateId(0));
        let g1b = b.goto(StateId(1));
        let r1 = b.test(tick, g0b, g1b);
        b.state("s1", r1);
        b.build()
    }

    #[test]
    fn step_walks_the_sgraph() {
        let m = toggler();
        let tick = m.signal("tick").unwrap();
        let tock = m.signal("tock").unwrap();
        let inputs: BitSet = [tick.0 as usize].into_iter().collect();
        let mut emitted = Vec::new();
        let r = m.step_bits(StateId(0), &inputs, &mut NoHooks, &mut emitted);
        assert_eq!(emitted, vec![tock]);
        assert_eq!(r.next, StateId(1));
        emitted.clear();
        let r2 = m.step_bits(StateId(1), &inputs, &mut NoHooks, &mut emitted);
        assert!(emitted.is_empty());
        assert_eq!(r2.next, StateId(0));
        // Absent tick: stay.
        let r3 = m.step_bits(StateId(0), &BitSet::new(), &mut NoHooks, &mut emitted);
        assert_eq!(r3.next, StateId(0));
    }

    #[test]
    fn stats_count_nodes() {
        let m = toggler();
        let s = m.stats();
        assert_eq!(s.states, 2);
        assert_eq!(s.pure_states, 2, "toggler is pure control");
        assert_eq!(s.tests, 2);
        assert_eq!(s.emits, 1);
        assert_eq!(s.gotos, 4);
        assert_eq!(s.nodes, 7);
    }

    #[test]
    fn validate_catches_dangling_state() {
        let mut m = Efsm::new("bad");
        let n = m.add_node(Node::Goto { target: StateId(5) });
        m.add_state("s0", n);
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_catches_cycle() {
        let mut m = Efsm::new("cyclic");
        let s = m.add_signal("a", SigKind::Input, false);
        // Node 0 tests and loops back to itself on both edges.
        m.nodes.push(Node::Test {
            sig: s,
            then_: NodeId(0),
            else_: NodeId(0),
        });
        m.add_state("s0", NodeId(0));
        assert!(m.validate().is_err());
    }

    #[test]
    fn signal_lookup() {
        let m = toggler();
        assert!(m.signal("tick").is_some());
        assert!(m.signal("nonexistent").is_none());
        assert_eq!(m.inputs().count(), 1);
        assert_eq!(m.outputs().count(), 1);
    }

    #[test]
    fn paths_of_state() {
        let m = toggler();
        let paths = m.paths_of(StateId(0), 10).unwrap();
        assert_eq!(paths.len(), 2);
    }
}
