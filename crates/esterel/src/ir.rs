//! Kernel Esterel IR.
//!
//! Statements are built as an ordinary Rust tree ([`Stmt`]) with smart
//! constructors for both the kernel forms and the derived forms ECL
//! needs (`halt`, `await`, `abort`, `weak_abort`, handlers, immediate
//! variants). [`ProgramBuilder::finish`] then freezes the tree into a
//! [`Program`]: an arena with DFS-numbered pause points, per-node pause
//! ranges, each node's parent and each pause's node (needed to resume
//! selected subtrees), and the static checks a real Esterel compiler
//! performs (trap/exit discipline, no potentially instantaneous loop
//! bodies).
//!
//! Traps use de Bruijn indices: `Exit(d)` exits the `d`-th enclosing
//! [`Stmt::Trap`] (0 = innermost). The derived-form constructors shift
//! free exits of their operands, so user code can nest them freely.

use efsm::{ActionId, ExprId, PredId, SigKind, Signal, SignalInfo};
use std::fmt;

/// Three-valued signal status (Kleene logic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// Known present.
    True,
    /// Known absent.
    False,
    /// Not yet determined this instant.
    Unknown,
}

impl Tri {
    /// Kleene negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        }
    }

    /// Kleene conjunction.
    pub fn and(self, o: Tri) -> Tri {
        match (self, o) {
            (Tri::False, _) | (_, Tri::False) => Tri::False,
            (Tri::True, Tri::True) => Tri::True,
            _ => Tri::Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, o: Tri) -> Tri {
        match (self, o) {
            (Tri::True, _) | (_, Tri::True) => Tri::True,
            (Tri::False, Tri::False) => Tri::False,
            _ => Tri::Unknown,
        }
    }
}

/// A presence expression over signals (`&`, `|`, `~`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigExpr {
    /// Constant truth value.
    Const(bool),
    /// Presence of one signal.
    Sig(Signal),
    /// Negation.
    Not(Box<SigExpr>),
    /// Conjunction.
    And(Box<SigExpr>, Box<SigExpr>),
    /// Disjunction.
    Or(Box<SigExpr>, Box<SigExpr>),
}
impl From<Signal> for SigExpr {
    fn from(s: Signal) -> Self {
        SigExpr::Sig(s)
    }
}

impl SigExpr {
    /// Three-valued evaluation under a status assignment.
    pub fn eval3(&self, status: &impl Fn(Signal) -> Tri) -> Tri {
        match self {
            SigExpr::Const(true) => Tri::True,
            SigExpr::Const(false) => Tri::False,
            SigExpr::Sig(s) => status(*s),
            SigExpr::Not(e) => e.eval3(status).not(),
            SigExpr::And(a, b) => a.eval3(status).and(b.eval3(status)),
            SigExpr::Or(a, b) => a.eval3(status).or(b.eval3(status)),
        }
    }

    /// First signal whose status is [`Tri::Unknown`] and *relevant* —
    /// i.e. resolving it could change the overall value. Used by the
    /// engines to decide what to branch on.
    pub fn first_unknown(&self, status: &impl Fn(Signal) -> Tri) -> Option<Signal> {
        if self.eval3(status) != Tri::Unknown {
            return None;
        }
        match self {
            SigExpr::Const(_) => None,
            SigExpr::Sig(s) => (status(*s) == Tri::Unknown).then_some(*s),
            SigExpr::Not(e) => e.first_unknown(status),
            SigExpr::And(a, b) | SigExpr::Or(a, b) => {
                a.first_unknown(status).or_else(|| b.first_unknown(status))
            }
        }
    }

    /// All signals mentioned.
    pub fn signals(&self) -> Vec<Signal> {
        let mut v = Vec::new();
        self.collect(&mut v);
        v
    }

    fn collect(&self, v: &mut Vec<Signal>) {
        match self {
            SigExpr::Const(_) => {}
            SigExpr::Sig(s) => v.push(*s),
            SigExpr::Not(e) => e.collect(v),
            SigExpr::And(a, b) | SigExpr::Or(a, b) => {
                a.collect(v);
                b.collect(v);
            }
        }
    }

    /// Negation helper.
    pub fn not_(self) -> SigExpr {
        SigExpr::Not(Box::new(self))
    }

    /// Conjunction helper.
    pub fn and_(self, o: SigExpr) -> SigExpr {
        SigExpr::And(Box::new(self), Box::new(o))
    }

    /// Disjunction helper.
    pub fn or_(self, o: SigExpr) -> SigExpr {
        SigExpr::Or(Box::new(self), Box::new(o))
    }
}

/// A kernel Esterel statement (construction form).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Do nothing, terminate instantly.
    Nothing,
    /// Stop for this instant; resume after.
    Pause,
    /// Make a signal present (optionally with a value expression).
    Emit(Signal, Option<ExprId>),
    /// Branch on signal presence *this instant*.
    Present(SigExpr, Box<Stmt>, Box<Stmt>),
    /// Branch on an opaque data predicate (ECL extension).
    IfData(PredId, Box<Stmt>, Box<Stmt>),
    /// Run an opaque data action (extracted C code).
    Action(ActionId),
    /// Sequence.
    Seq(Vec<Stmt>),
    /// Infinite loop (body must not be instantaneous).
    Loop(Box<Stmt>),
    /// Parallel composition (synchronizes on termination).
    Par(Vec<Stmt>),
    /// Trap declaration; catches `Exit(0)` thrown inside.
    Trap(Box<Stmt>),
    /// Exit the `d`-th enclosing trap.
    Exit(u32),
    /// Freeze the body in instants where the guard is present.
    Suspend(SigExpr, Box<Stmt>),
}

impl Stmt {
    // -- kernel constructors ------------------------------------------------

    /// `nothing`
    pub fn nothing() -> Stmt {
        Stmt::Nothing
    }

    /// `pause`
    pub fn pause() -> Stmt {
        Stmt::Pause
    }

    /// `emit s`
    pub fn emit(s: Signal) -> Stmt {
        Stmt::Emit(s, None)
    }

    /// `emit s(value)`
    pub fn emit_v(s: Signal, e: ExprId) -> Stmt {
        Stmt::Emit(s, Some(e))
    }

    /// `present c then t else e end`
    pub fn present(c: SigExpr, t: Stmt, e: Stmt) -> Stmt {
        Stmt::Present(c, Box::new(t), Box::new(e))
    }

    /// Data-predicate branch.
    pub fn if_data(p: PredId, t: Stmt, e: Stmt) -> Stmt {
        Stmt::IfData(p, Box::new(t), Box::new(e))
    }

    /// Opaque data action.
    pub fn action(a: ActionId) -> Stmt {
        Stmt::Action(a)
    }

    /// `s1; s2; ...` (flattens nested sequences).
    pub fn seq(stmts: Vec<Stmt>) -> Stmt {
        let mut out = Vec::new();
        for s in stmts {
            match s {
                Stmt::Seq(inner) => out.extend(inner),
                Stmt::Nothing => {}
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Stmt::Nothing,
            1 => out.pop().expect("len checked"),
            _ => Stmt::Seq(out),
        }
    }

    /// `loop s end`
    pub fn loop_(s: Stmt) -> Stmt {
        Stmt::Loop(Box::new(s))
    }

    /// `s1 || s2 || ...`
    pub fn par(stmts: Vec<Stmt>) -> Stmt {
        match stmts.len() {
            0 => Stmt::Nothing,
            1 => stmts.into_iter().next().expect("len checked"),
            _ => Stmt::Par(stmts),
        }
    }

    /// `trap T in s end` (catches `Exit(0)`).
    pub fn trap(s: Stmt) -> Stmt {
        Stmt::Trap(Box::new(s))
    }

    /// `exit T` at de Bruijn depth `d`.
    pub fn exit(d: u32) -> Stmt {
        Stmt::Exit(d)
    }

    /// `suspend s when c`
    pub fn suspend(c: SigExpr, s: Stmt) -> Stmt {
        Stmt::Suspend(c, Box::new(s))
    }

    // -- derived forms (ECL statements) -----------------------------------

    /// `halt` — pause forever (until preempted).
    pub fn halt() -> Stmt {
        Stmt::loop_(Stmt::pause())
    }

    /// ECL `await (c)` — ends the instant; fires on a *later* occurrence
    /// of `c` (paper Section 4, item 2).
    pub fn await_(c: SigExpr) -> Stmt {
        Stmt::trap(Stmt::loop_(Stmt::seq(vec![
            Stmt::pause(),
            Stmt::present(c, Stmt::exit(0), Stmt::nothing()),
        ])))
    }

    /// Reproduction extension `await_immediate (c)` — also checks the
    /// current instant.
    pub fn await_immediate(c: SigExpr) -> Stmt {
        Stmt::trap(Stmt::loop_(Stmt::seq(vec![
            Stmt::present(c, Stmt::exit(0), Stmt::nothing()),
            Stmt::pause(),
        ])))
    }

    /// ECL `await ()` — the "delta cycle": end the instant
    /// unconditionally, resume in the next one.
    pub fn await_delta() -> Stmt {
        Stmt::pause()
    }

    /// ECL `do body abort (c)` — strong abortion: in the triggering
    /// instant the body does not run (tested from the instant *after*
    /// control reaches the abort, per the paper).
    pub fn abort(body: Stmt, c: SigExpr) -> Stmt {
        let body = shift_exits(body, 1);
        Stmt::trap(Stmt::par(vec![
            Stmt::seq(vec![Stmt::suspend(c.clone(), body), Stmt::exit(0)]),
            Stmt::seq(vec![Stmt::await_(c), Stmt::exit(0)]),
        ]))
    }

    /// `do body abort (c) handle h` — `h` runs only when the abort
    /// triggered (like a `catch` clause, paper Section 4 item 5).
    pub fn abort_handle(body: Stmt, c: SigExpr, h: Stmt) -> Stmt {
        let body = shift_exits(body, 2);
        let h = shift_exits(h, 1);
        Stmt::trap(Stmt::seq(vec![
            Stmt::trap(Stmt::par(vec![
                Stmt::seq(vec![Stmt::suspend(c.clone(), body), Stmt::exit(1)]),
                Stmt::seq(vec![Stmt::await_(c), Stmt::exit(0)]),
            ])),
            h,
        ]))
    }

    /// ECL `do body weak_abort (c)` — the body still runs in the
    /// triggering instant (paper Section 4 item 6).
    pub fn weak_abort(body: Stmt, c: SigExpr) -> Stmt {
        let body = shift_exits(body, 1);
        Stmt::trap(Stmt::par(vec![
            Stmt::seq(vec![body, Stmt::exit(0)]),
            Stmt::seq(vec![Stmt::await_(c), Stmt::exit(0)]),
        ]))
    }

    /// `do body weak_abort (c) handle h`.
    pub fn weak_abort_handle(body: Stmt, c: SigExpr, h: Stmt) -> Stmt {
        let body = shift_exits(body, 2);
        let h = shift_exits(h, 1);
        Stmt::trap(Stmt::seq(vec![
            Stmt::trap(Stmt::par(vec![
                Stmt::seq(vec![body, Stmt::exit(1)]),
                Stmt::seq(vec![Stmt::await_(c), Stmt::exit(0)]),
            ])),
            h,
        ]))
    }

    /// `sustain s` — emit every instant.
    pub fn sustain(s: Signal) -> Stmt {
        Stmt::loop_(Stmt::seq(vec![Stmt::emit(s), Stmt::pause()]))
    }
}

/// Add `by` to every *free* exit (those escaping the statement).
pub fn shift_exits(s: Stmt, by: u32) -> Stmt {
    fn go(s: Stmt, by: u32, depth: u32) -> Stmt {
        match s {
            Stmt::Exit(d) if d >= depth => Stmt::Exit(d + by),
            Stmt::Exit(d) => Stmt::Exit(d),
            Stmt::Present(c, t, e) => {
                Stmt::Present(c, Box::new(go(*t, by, depth)), Box::new(go(*e, by, depth)))
            }
            Stmt::IfData(p, t, e) => {
                Stmt::IfData(p, Box::new(go(*t, by, depth)), Box::new(go(*e, by, depth)))
            }
            Stmt::Seq(v) => Stmt::Seq(v.into_iter().map(|x| go(x, by, depth)).collect()),
            Stmt::Loop(b) => Stmt::Loop(Box::new(go(*b, by, depth))),
            Stmt::Par(v) => Stmt::Par(v.into_iter().map(|x| go(x, by, depth)).collect()),
            Stmt::Trap(b) => Stmt::Trap(Box::new(go(*b, by, depth + 1))),
            Stmt::Suspend(c, b) => Stmt::Suspend(c, Box::new(go(*b, by, depth))),
            leaf @ (Stmt::Nothing | Stmt::Pause | Stmt::Emit(_, _) | Stmt::Action(_)) => leaf,
        }
    }
    go(s, by, 0)
}

// ---------------------------------------------------------------------------
// Frozen program (arena + metadata)
// ---------------------------------------------------------------------------

/// Arena index of a statement node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtId(pub u32);

/// Arena node (children by id).
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// `nothing`
    Nothing,
    /// `pause` with its DFS-assigned pause index.
    Pause(u32),
    /// `emit`
    Emit(Signal, Option<ExprId>),
    /// `present`
    Present(SigExpr, StmtId, StmtId),
    /// Data branch.
    IfData(PredId, StmtId, StmtId),
    /// Data action.
    Action(ActionId),
    /// Sequence.
    Seq(Vec<StmtId>),
    /// Loop.
    Loop(StmtId),
    /// Parallel.
    Par(Vec<StmtId>),
    /// Trap.
    Trap(StmtId),
    /// Exit.
    Exit(u32),
    /// Suspend.
    Suspend(SigExpr, StmtId),
}

/// Per-node metadata: the half-open range of pause indices inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Meta {
    /// First pause index inside this subtree.
    pub pause_lo: u32,
    /// One past the last pause index inside this subtree.
    pub pause_hi: u32,
}

/// Error found while freezing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// `Exit(d)` with fewer than `d + 1` enclosing traps.
    UnboundExit {
        /// The offending depth.
        depth: u32,
    },
    /// A `loop` whose body may terminate without pausing.
    InstantaneousLoop,
    /// A signal id out of range of the declared table.
    UnknownSignal(Signal),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnboundExit { depth } => write!(f, "exit depth {depth} has no enclosing trap"),
            IrError::InstantaneousLoop => {
                write!(
                    f,
                    "loop body may terminate instantaneously (needs a pause on every path)"
                )
            }
            IrError::UnknownSignal(s) => write!(f, "signal {s:?} is not declared"),
        }
    }
}

impl std::error::Error for IrError {}

/// A frozen, checked Esterel program.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    signals: Vec<SignalInfo>,
    nodes: Vec<Node>,
    meta: Vec<Meta>,
    /// Per node: its parent and its index among the parent's children
    /// (`None` for the root).
    parents: Vec<Option<(StmtId, u32)>>,
    /// Per pause index: the `Pause` node.
    pause_nodes: Vec<StmtId>,
    root: StmtId,
}

impl Program {
    /// Program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The signal table.
    pub fn signals(&self) -> &[SignalInfo] {
        &self.signals
    }

    /// Signal handle by name.
    pub fn signal(&self, name: &str) -> Option<Signal> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(|i| Signal(i as u32))
    }

    /// Number of pause points.
    pub fn n_pauses(&self) -> u32 {
        self.pause_nodes.len() as u32
    }

    /// Root node id.
    pub fn root(&self) -> StmtId {
        self.root
    }

    /// Node accessor.
    pub fn node(&self, id: StmtId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Metadata accessor.
    pub fn meta(&self, id: StmtId) -> Meta {
        self.meta[id.0 as usize]
    }

    /// The parent of `id` and its index among the parent's children
    /// (a `Present`'s or `IfData`'s then-branch is child 0, its else
    /// branch child 1); `None` for the root.
    pub(crate) fn parent(&self, id: StmtId) -> Option<(StmtId, u32)> {
        self.parents[id.0 as usize]
    }

    /// The `Pause` node of pause index `p`.
    pub(crate) fn pause_node(&self, p: usize) -> StmtId {
        self.pause_nodes[p]
    }

    /// Number of arena nodes (program size metric).
    pub fn size(&self) -> usize {
        self.nodes.len()
    }
}

/// Builder: declare signals, then freeze a body.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    signals: Vec<SignalInfo>,
}

impl ProgramBuilder {
    /// Start a program.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            signals: Vec::new(),
        }
    }

    /// Declare a pure input signal.
    pub fn input(&mut self, name: &str) -> Signal {
        self.add(name, SigKind::Input, false)
    }

    /// Declare a pure output signal.
    pub fn output(&mut self, name: &str) -> Signal {
        self.add(name, SigKind::Output, false)
    }

    /// Declare a pure local signal.
    pub fn local(&mut self, name: &str) -> Signal {
        self.add(name, SigKind::Local, false)
    }

    /// Declare a signal with full control.
    pub fn add(&mut self, name: &str, kind: SigKind, valued: bool) -> Signal {
        self.signals.push(SignalInfo {
            name: name.to_string(),
            kind,
            valued,
        });
        Signal(self.signals.len() as u32 - 1)
    }

    /// Freeze `body` into a checked [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] for unbound exits, potentially instantaneous
    /// loop bodies, or undeclared signals.
    pub fn finish(self, body: Stmt) -> Result<Program, IrError> {
        // Static checks on the tree first.
        check_exits(&body, 0)?;
        check_signals(&body, self.signals.len() as u32)?;
        check_loops(&body)?;
        // Freeze into the arena with DFS pause numbering.
        let mut arena = Arena::default();
        let root = arena.freeze(&body);
        Ok(Program {
            name: self.name,
            signals: self.signals,
            nodes: arena.nodes,
            meta: arena.meta,
            parents: arena.parents,
            pause_nodes: arena.pause_nodes,
            root,
        })
    }
}

fn check_exits(s: &Stmt, depth: u32) -> Result<(), IrError> {
    match s {
        Stmt::Exit(d) => {
            if *d >= depth {
                Err(IrError::UnboundExit { depth: *d })
            } else {
                Ok(())
            }
        }
        Stmt::Present(_, t, e) | Stmt::IfData(_, t, e) => {
            check_exits(t, depth)?;
            check_exits(e, depth)
        }
        Stmt::Seq(v) | Stmt::Par(v) => {
            for x in v {
                check_exits(x, depth)?;
            }
            Ok(())
        }
        Stmt::Loop(b) | Stmt::Suspend(_, b) => check_exits(b, depth),
        Stmt::Trap(b) => check_exits(b, depth + 1),
        _ => Ok(()),
    }
}

fn check_signals(s: &Stmt, n: u32) -> Result<(), IrError> {
    let check_expr = |e: &SigExpr| -> Result<(), IrError> {
        for sig in e.signals() {
            if sig.0 >= n {
                return Err(IrError::UnknownSignal(sig));
            }
        }
        Ok(())
    };
    match s {
        Stmt::Emit(sig, _) => {
            if sig.0 >= n {
                return Err(IrError::UnknownSignal(*sig));
            }
            Ok(())
        }
        Stmt::Present(c, t, e) => {
            check_expr(c)?;
            check_signals(t, n)?;
            check_signals(e, n)
        }
        Stmt::IfData(_, t, e) => {
            check_signals(t, n)?;
            check_signals(e, n)
        }
        Stmt::Seq(v) | Stmt::Par(v) => {
            for x in v {
                check_signals(x, n)?;
            }
            Ok(())
        }
        Stmt::Loop(b) => check_signals(b, n),
        Stmt::Suspend(c, b) => {
            check_expr(c)?;
            check_signals(b, n)
        }
        Stmt::Trap(b) => check_signals(b, n),
        _ => Ok(()),
    }
}

/// Over-approximate set of completion codes at start (bitmask: bit k =
/// code k possible). Used for the instantaneous-loop check.
pub fn may_codes(s: &Stmt) -> u64 {
    match s {
        Stmt::Nothing | Stmt::Emit(_, _) | Stmt::Action(_) => 1, // {0}
        Stmt::Pause => 1 << 1,
        Stmt::Exit(d) => 1 << (d + 2).min(62),
        Stmt::Present(_, t, e) | Stmt::IfData(_, t, e) => may_codes(t) | may_codes(e),
        Stmt::Suspend(_, b) => may_codes(b),
        Stmt::Loop(b) => may_codes(b) & !1,
        Stmt::Seq(v) => {
            let mut acc = 1u64; // "terminated so far"
            let mut out = 0u64;
            for x in v {
                if acc & 1 == 0 {
                    break;
                }
                let c = may_codes(x);
                out |= c & !1;
                acc = c;
            }
            if acc & 1 != 0 {
                out |= 1;
            }
            out
        }
        Stmt::Par(v) => {
            // max-combination over children.
            let mut acc = 1u64; // neutral: {0}
            for x in v {
                let c = may_codes(x);
                let mut next = 0u64;
                for i in 0..63 {
                    if acc & (1 << i) == 0 {
                        continue;
                    }
                    for j in 0..63 {
                        if c & (1 << j) != 0 {
                            next |= 1 << i.max(j);
                        }
                    }
                }
                acc = next;
            }
            acc
        }
        Stmt::Trap(b) => {
            let c = may_codes(b);
            let mut out = c & 0b11; // 0 and 1 unchanged
            if c & (1 << 2) != 0 {
                out |= 1; // caught → terminate
            }
            // deeper exits shift down
            out | ((c >> 3) << 2)
        }
    }
}

/// Completion codes achievable along paths that avoid every `IfData`
/// node. Used by the loop-safety check: an instantaneous path that is
/// *data-guarded* is trusted (ECL compiles `for (i = 0; i < N; i++)
/// { await ...; }` to such a loop — the data guarantees at least one
/// iteration); the interpreter still has a dynamic backstop.
pub fn may_codes_unguarded(s: &Stmt) -> u64 {
    match s {
        Stmt::Nothing | Stmt::Emit(_, _) | Stmt::Action(_) => 1,
        Stmt::Pause => 1 << 1,
        Stmt::Exit(d) => 1 << (d + 2).min(62),
        Stmt::IfData(_, _, _) => 0, // no unguarded path through
        Stmt::Present(_, t, e) => may_codes_unguarded(t) | may_codes_unguarded(e),
        Stmt::Suspend(_, b) => may_codes_unguarded(b),
        Stmt::Loop(b) => may_codes_unguarded(b) & !1,
        Stmt::Seq(v) => {
            let mut acc = 1u64;
            let mut out = 0u64;
            for x in v {
                if acc & 1 == 0 {
                    break;
                }
                let c = may_codes_unguarded(x);
                out |= c & !1;
                acc = c;
            }
            if acc & 1 != 0 {
                out |= 1;
            }
            out
        }
        Stmt::Par(v) => {
            let mut acc = 1u64;
            for x in v {
                let c = may_codes_unguarded(x);
                let mut next = 0u64;
                for i in 0..63 {
                    if acc & (1 << i) == 0 {
                        continue;
                    }
                    for j in 0..63 {
                        if c & (1 << j) != 0 {
                            next |= 1 << i.max(j);
                        }
                    }
                }
                acc = next;
            }
            acc
        }
        Stmt::Trap(b) => {
            let c = may_codes_unguarded(b);
            let mut out = c & 0b11;
            if c & (1 << 2) != 0 {
                out |= 1;
            }
            out | ((c >> 3) << 2)
        }
    }
}

fn check_loops(s: &Stmt) -> Result<(), IrError> {
    match s {
        Stmt::Loop(b) => {
            if may_codes_unguarded(b) & 1 != 0 {
                return Err(IrError::InstantaneousLoop);
            }
            check_loops(b)
        }
        Stmt::Present(_, t, e) | Stmt::IfData(_, t, e) => {
            check_loops(t)?;
            check_loops(e)
        }
        Stmt::Seq(v) | Stmt::Par(v) => {
            for x in v {
                check_loops(x)?;
            }
            Ok(())
        }
        Stmt::Trap(b) | Stmt::Suspend(_, b) => check_loops(b),
        _ => Ok(()),
    }
}

/// A program's arena while it is frozen: the parts of [`Program`]
/// that follow from the tree.
#[derive(Default)]
struct Arena {
    nodes: Vec<Node>,
    meta: Vec<Meta>,
    parents: Vec<Option<(StmtId, u32)>>,
    pause_nodes: Vec<StmtId>,
}

impl Arena {
    /// Freeze `s` after its children, so a node's id follows theirs and
    /// its pause range `[pause_lo, pause_hi)` covers exactly theirs.
    fn freeze(&mut self, s: &Stmt) -> StmtId {
        let lo = self.pause_nodes.len() as u32;
        let node = match s {
            Stmt::Nothing => Node::Nothing,
            Stmt::Pause => {
                let p = self.pause_nodes.len() as u32;
                self.pause_nodes.push(StmtId(self.nodes.len() as u32));
                Node::Pause(p)
            }
            Stmt::Emit(sig, e) => Node::Emit(*sig, *e),
            Stmt::Present(c, t, e) => Node::Present(c.clone(), self.freeze(t), self.freeze(e)),
            Stmt::IfData(p, t, e) => Node::IfData(*p, self.freeze(t), self.freeze(e)),
            Stmt::Action(a) => Node::Action(*a),
            Stmt::Seq(v) => Node::Seq(v.iter().map(|x| self.freeze(x)).collect()),
            Stmt::Loop(b) => Node::Loop(self.freeze(b)),
            Stmt::Par(v) => Node::Par(v.iter().map(|x| self.freeze(x)).collect()),
            Stmt::Trap(b) => Node::Trap(self.freeze(b)),
            Stmt::Exit(d) => Node::Exit(*d),
            Stmt::Suspend(c, b) => Node::Suspend(c.clone(), self.freeze(b)),
        };
        let id = StmtId(self.nodes.len() as u32);
        let mut link = |child: StmtId, index: usize| {
            self.parents[child.0 as usize] = Some((id, index as u32));
        };
        match &node {
            Node::Present(_, t, e) | Node::IfData(_, t, e) => {
                link(*t, 0);
                link(*e, 1);
            }
            Node::Seq(v) | Node::Par(v) => v.iter().enumerate().for_each(|(i, c)| link(*c, i)),
            Node::Loop(b) | Node::Trap(b) | Node::Suspend(_, b) => link(*b, 0),
            Node::Nothing | Node::Pause(_) | Node::Emit(..) | Node::Action(_) | Node::Exit(_) => {}
        }
        self.nodes.push(node);
        self.meta.push(Meta {
            pause_lo: lo,
            pause_hi: self.pause_nodes.len() as u32,
        });
        self.parents.push(None);
        id
    }
}

impl From<IrError> for ecl_syntax::EclError {
    fn from(e: IrError) -> Self {
        ecl_syntax::EclError::msg(
            ecl_syntax::Stage::Ir,
            e.to_string(),
            ecl_syntax::Span::dummy(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tri_logic() {
        use Tri::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
    }

    #[test]
    fn sigexpr_eval3_and_unknowns() {
        let a = Signal(0);
        let b = Signal(1);
        let e = SigExpr::from(a).and_(SigExpr::from(b).not_());
        let status = |s: Signal| if s == a { Tri::True } else { Tri::Unknown };
        assert_eq!(e.eval3(&status), Tri::Unknown);
        assert_eq!(e.first_unknown(&status), Some(b));
        let status2 = |s: Signal| if s == a { Tri::False } else { Tri::Unknown };
        assert_eq!(e.eval3(&status2), Tri::False);
        assert_eq!(e.first_unknown(&status2), None);
    }

    #[test]
    fn seq_flattens() {
        let s = Stmt::seq(vec![
            Stmt::nothing(),
            Stmt::seq(vec![Stmt::pause(), Stmt::pause()]),
            Stmt::nothing(),
        ]);
        let Stmt::Seq(v) = &s else { panic!("{s:?}") };
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn exit_shifting_only_free() {
        // trap { exit 0 } has no free exits; exit 0 outside shifts.
        let s = Stmt::seq(vec![Stmt::trap(Stmt::exit(0)), Stmt::exit(0)]);
        let shifted = shift_exits(s, 2);
        let Stmt::Seq(v) = &shifted else { panic!() };
        assert_eq!(v[0], Stmt::Trap(Box::new(Stmt::Exit(0))));
        assert_eq!(v[1], Stmt::Exit(2));
    }

    #[test]
    fn finish_rejects_unbound_exit() {
        let mut b = ProgramBuilder::new("t");
        let _ = b.input("a");
        assert_eq!(
            b.finish(Stmt::exit(0)).unwrap_err(),
            IrError::UnboundExit { depth: 0 }
        );
    }

    #[test]
    fn finish_rejects_instantaneous_loop() {
        let b = ProgramBuilder::new("t");
        assert_eq!(
            b.finish(Stmt::loop_(Stmt::nothing())).unwrap_err(),
            IrError::InstantaneousLoop
        );
    }

    #[test]
    fn finish_rejects_conditional_instantaneous_loop() {
        let mut b = ProgramBuilder::new("t");
        let a = b.input("a");
        // loop { present a then pause else nothing } — may be instantaneous.
        let body = Stmt::loop_(Stmt::present(a.into(), Stmt::pause(), Stmt::nothing()));
        assert_eq!(b.finish(body).unwrap_err(), IrError::InstantaneousLoop);
    }

    #[test]
    fn finish_accepts_awaiting_loop() {
        let mut b = ProgramBuilder::new("t");
        let a = b.input("a");
        let o = b.output("o");
        let body = Stmt::loop_(Stmt::seq(vec![Stmt::await_(a.into()), Stmt::emit(o)]));
        let p = b.finish(body).unwrap();
        assert_eq!(p.n_pauses(), 1);
        assert_eq!(p.signals().len(), 2);
    }

    #[test]
    fn finish_rejects_undeclared_signal() {
        let b = ProgramBuilder::new("t");
        assert!(matches!(
            b.finish(Stmt::emit(Signal(9))).unwrap_err(),
            IrError::UnknownSignal(_)
        ));
    }

    #[test]
    fn pause_ranges_cover_subtrees() {
        let mut b = ProgramBuilder::new("t");
        let a = b.input("a");
        let body = Stmt::par(vec![
            Stmt::await_(SigExpr::from(a)),
            Stmt::await_(SigExpr::from(a)),
        ]);
        let p = b.finish(body).unwrap();
        assert_eq!(p.n_pauses(), 2);
        let m = p.meta(p.root());
        assert_eq!((m.pause_lo, m.pause_hi), (0, 2));
    }

    #[test]
    fn parents_link_every_child_and_pauses_their_nodes() {
        let mut b = ProgramBuilder::new("t");
        let a = b.input("a");
        // par { present a { pause₀ } else { pause₁; pause₂ } } { loop pause₃ }
        let p = b
            .finish(Stmt::par(vec![
                Stmt::present(
                    a.into(),
                    Stmt::pause(),
                    Stmt::seq(vec![Stmt::pause(), Stmt::pause()]),
                ),
                Stmt::loop_(Stmt::pause()),
            ]))
            .unwrap();
        assert_eq!(p.parent(p.root()), None);
        let mut linked = 0;
        for i in 0..p.size() {
            let id = StmtId(i as u32);
            let children: Vec<StmtId> = match p.node(id) {
                Node::Present(_, t, e) | Node::IfData(_, t, e) => vec![*t, *e],
                Node::Seq(v) | Node::Par(v) => v.clone(),
                Node::Loop(b) | Node::Trap(b) | Node::Suspend(_, b) => vec![*b],
                _ => vec![],
            };
            for (k, c) in children.into_iter().enumerate() {
                assert_eq!(p.parent(c), Some((id, k as u32)));
                linked += 1;
            }
        }
        assert_eq!(linked, p.size() - 1, "every node but the root has a parent");
        for q in 0..p.n_pauses() as usize {
            assert_eq!(*p.node(p.pause_node(q)), Node::Pause(q as u32));
        }
    }

    #[test]
    fn may_codes_of_basic_forms() {
        assert_eq!(may_codes(&Stmt::nothing()), 0b1);
        assert_eq!(may_codes(&Stmt::pause()), 0b10);
        assert_eq!(may_codes(&Stmt::exit(0)), 0b100);
        // trap { exit 0 } terminates.
        assert_eq!(may_codes(&Stmt::trap(Stmt::exit(0))), 0b1);
        // pause; exit 0 — pauses first.
        assert_eq!(
            may_codes(&Stmt::seq(vec![Stmt::pause(), Stmt::exit(0)])),
            0b10
        );
        // par(pause, exit 0) — max(1, 2) = 2.
        assert_eq!(
            may_codes(&Stmt::par(vec![Stmt::pause(), Stmt::exit(0)])),
            0b100
        );
        // halt never terminates.
        assert_eq!(may_codes(&Stmt::halt()), 0b10);
    }

    #[test]
    fn abort_encodings_are_well_formed() {
        let mut b = ProgramBuilder::new("t");
        let r = b.input("r");
        let o = b.output("o");
        let body = Stmt::abort_handle(
            Stmt::seq(vec![Stmt::await_(SigExpr::from(r).not_()), Stmt::emit(o)]),
            r.into(),
            Stmt::emit(o),
        );
        assert!(b
            .finish(Stmt::loop_(Stmt::seq(vec![body, Stmt::pause()])))
            .is_ok());
    }
}
