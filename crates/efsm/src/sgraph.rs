//! S-graph nodes: the decision-DAG body of each EFSM control state.
//!
//! An s-graph (the POLIS term) encodes one reaction as a DAG whose
//! internal nodes test signal presence or data predicates, execute data
//! actions, or emit signals, and whose leaves name the next control
//! state. It is exactly the structure of the C code POLIS generates for
//! a transition function, which is why the software cost model in
//! `codegen` charges per node.

use crate::machine::{Signal, StateId};
use crate::{ActionId, ExprId, PredId};

/// Index of a node in an [`crate::Efsm`]'s node arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// One s-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// Branch on presence of an input signal this instant.
    Test {
        /// Signal tested.
        sig: Signal,
        /// Continuation when present.
        then_: NodeId,
        /// Continuation when absent.
        else_: NodeId,
    },
    /// Branch on a data predicate (the "extended" part of the EFSM).
    TestPred {
        /// Predicate id (resolved by [`crate::DataHooks`]).
        pred: PredId,
        /// Continuation when true.
        then_: NodeId,
        /// Continuation when false.
        else_: NodeId,
    },
    /// Run a data action, then continue.
    Do {
        /// Action id.
        action: ActionId,
        /// Continuation.
        next: NodeId,
    },
    /// Emit a signal (valued if `value` is set), then continue.
    Emit {
        /// Emitted signal.
        sig: Signal,
        /// Value expression for valued signals.
        value: Option<ExprId>,
        /// Continuation.
        next: NodeId,
    },
    /// End of reaction: move to `target` for the next instant.
    Goto {
        /// Next control state.
        target: StateId,
    },
}

impl Node {
    /// The node ids this node points to (at most two), `then_` first.
    pub fn successors(&self) -> impl DoubleEndedIterator<Item = NodeId> {
        let (first, second) = match *self {
            Node::Test { then_, else_, .. } | Node::TestPred { then_, else_, .. } => {
                (Some(then_), Some(else_))
            }
            Node::Do { next, .. } | Node::Emit { next, .. } => (Some(next), None),
            Node::Goto { .. } => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Rewrite the successors through `f` (used by optimization passes).
    pub fn map_successors(&self, mut f: impl FnMut(NodeId) -> NodeId) -> Node {
        match *self {
            Node::Test { sig, then_, else_ } => Node::Test {
                sig,
                then_: f(then_),
                else_: f(else_),
            },
            Node::TestPred { pred, then_, else_ } => Node::TestPred {
                pred,
                then_: f(then_),
                else_: f(else_),
            },
            Node::Do { action, next } => Node::Do {
                action,
                next: f(next),
            },
            Node::Emit { sig, value, next } => Node::Emit {
                sig,
                value,
                next: f(next),
            },
            Node::Goto { target } => Node::Goto { target },
        }
    }

    /// Rewrite a `Goto` target through `f` (used by state renumbering).
    pub fn map_target(&self, mut f: impl FnMut(StateId) -> StateId) -> Node {
        match *self {
            Node::Goto { target } => Node::Goto { target: f(target) },
            other => other,
        }
    }
}

/// One root-to-leaf path through an s-graph: a "flat" transition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Path {
    /// Signal-presence literals along the path (signal, required status).
    pub cube: Vec<(Signal, bool)>,
    /// Data-predicate literals along the path.
    pub preds: Vec<(PredId, bool)>,
    /// Actions executed, in order.
    pub actions: Vec<ActionId>,
    /// Emissions performed, in order.
    pub emits: Vec<(Signal, Option<ExprId>)>,
    /// Next control state.
    pub target: StateId,
}

/// Enumerate all root-to-leaf paths of the s-graph rooted at `root`
/// (bounded by `cap`; returns `None` if the bound is hit).
///
/// Because s-graphs are DAGs, the number of paths can be exponential in
/// the node count; callers use this for reporting and testing, never for
/// synthesis.
pub fn enumerate_paths(nodes: &[Node], root: NodeId, cap: usize) -> Option<Vec<Path>> {
    let mut out = Vec::new();
    let mut stack = vec![(root, Path::default())];
    while let Some((id, mut path)) = stack.pop() {
        if out.len() >= cap {
            return None;
        }
        match nodes[id.0 as usize] {
            Node::Test { sig, then_, else_ } => {
                let mut p2 = path.clone();
                p2.cube.push((sig, false));
                stack.push((else_, p2));
                path.cube.push((sig, true));
                stack.push((then_, path));
            }
            Node::TestPred { pred, then_, else_ } => {
                let mut p2 = path.clone();
                p2.preds.push((pred, false));
                stack.push((else_, p2));
                path.preds.push((pred, true));
                stack.push((then_, path));
            }
            Node::Do { action, next } => {
                path.actions.push(action);
                stack.push((next, path));
            }
            Node::Emit { sig, value, next } => {
                path.emits.push((sig, value));
                stack.push((next, path));
            }
            Node::Goto { target } => {
                path.target = target;
                out.push(path);
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goto(s: u32) -> Node {
        Node::Goto { target: StateId(s) }
    }

    #[test]
    fn successors_and_mapping() {
        let n = Node::Test {
            sig: Signal(0),
            then_: NodeId(1),
            else_: NodeId(2),
        };
        let succ = |n: Node| n.successors().collect::<Vec<_>>();
        assert_eq!(succ(n), vec![NodeId(1), NodeId(2)]);
        let m = n.map_successors(|i| NodeId(i.0 + 10));
        assert_eq!(succ(m), vec![NodeId(11), NodeId(12)]);
        let e = Node::Emit {
            sig: Signal(0),
            value: None,
            next: NodeId(4),
        };
        assert_eq!(succ(e), vec![NodeId(4)]);
        assert_eq!(succ(goto(3)), vec![]);
    }

    #[test]
    fn path_enumeration() {
        // Test(s0) ? Do(a); Goto(1) : Emit(s1); Goto(0)
        let nodes = vec![
            Node::Test {
                sig: Signal(0),
                then_: NodeId(1),
                else_: NodeId(3),
            },
            Node::Do {
                action: ActionId(7),
                next: NodeId(2),
            },
            goto(1),
            Node::Emit {
                sig: Signal(1),
                value: None,
                next: NodeId(4),
            },
            goto(0),
        ];
        let paths = enumerate_paths(&nodes, NodeId(0), 100).unwrap();
        assert_eq!(paths.len(), 2);
        let present = paths
            .iter()
            .find(|p| p.cube == vec![(Signal(0), true)])
            .unwrap();
        assert_eq!(present.actions, vec![ActionId(7)]);
        assert_eq!(present.target, StateId(1));
        let absent = paths
            .iter()
            .find(|p| p.cube == vec![(Signal(0), false)])
            .unwrap();
        assert_eq!(absent.emits, vec![(Signal(1), None)]);
    }

    #[test]
    fn path_cap_detected() {
        // A chain of N tests has 2^N paths.
        let mut nodes = Vec::new();
        let leaf = NodeId(0);
        nodes.push(goto(0));
        let mut root = leaf;
        for i in 0..20 {
            let id = NodeId(nodes.len() as u32);
            nodes.push(Node::Test {
                sig: Signal(i),
                then_: root,
                else_: root,
            });
            root = id;
        }
        assert!(enumerate_paths(&nodes, root, 1000).is_none());
    }
}
