//! AST → bytecode lowering for the EFSM data path.
//!
//! At runtime construction, every data hook (predicate expression,
//! action statement list, valued-emit expression) is compiled once into
//! a [`Program`] of flat [`Op`]s (see [`crate::vm`]). The compiler
//! resolves every name *now* — module locals to their dense root-scope
//! slots (PR 3's flat frame doubles as the variable side of the
//! register file), valued signals to their signal indices, enum
//! constants to immediates — so the hot path never touches a string or
//! a hash map.
//!
//! ## The bytecode subset
//!
//! Lowerable: integer-scalar arithmetic/comparison/logic with C
//! promotion and conversion semantics, reads of integer-typed signal
//! values, static projection chains (`var.field.arr[i]`,
//! `sig.field[i]`) with one bounds-checked dynamic index, assignments
//! (simple and compound) and `++`/`--`, `if`/`while`/`do`/`for` with
//! `break`/`continue`/`return`, block-scoped integer locals (compiled
//! to registers), integer casts, `sizeof`, ternary and comma, and
//! whole-aggregate `emit_v (sig, var)` copies.
//!
//! Everything else — function calls, floats, `switch`, aggregate
//! rvalues, string/pointer operations, chains with two dynamic
//! indices — is outside the subset, and a hook that contains any of it
//! anywhere lowers to `None`: there is no partial program. A runtime
//! with such a hook gets no fused reaction (`ecl_core::Fused::compile`),
//! so its task runs on the tree-walking reference whole.
//!
//! ## Folding
//!
//! Lowering folds as it goes, in the one pass:
//!
//! * constant operands stay immediates: a constant subexpression or
//!   conversion is evaluated at the operation's C width (wrapping
//!   exactly as the walker's `Value` arithmetic does), and a constant
//!   right operand becomes an immediate ([`Op::BinImm`],
//!   [`Op::JmpCmpImm`]; a constant left operand of a commutative or
//!   mirrored operator is swapped right);
//! * a division or remainder by a constant zero is never folded — it
//!   stays a run-time op, so the walker's error instant survives;
//! * every condition (`if`, loops, `?:`, `&&`/`||` operands and
//!   predicates) compiles to a compare-and-branch, with no 0/1 value
//!   materialized; a constant condition jumps or falls through;
//! * an in-bounds constant index becomes a static offset; an
//!   out-of-range one is left to the run-time check, so the walker's
//!   message and span survive;
//! * an indexed load or store is one bounds-checked op
//!   ([`Op::LoadVarIdx`], [`Op::StoreVarIdx`], [`Op::LoadSigIdx`]);
//! * a widening that keeps every value (`unsigned char` → `int`) emits
//!   no conversion.
//!
//! ## Exactness rules
//!
//! * **Fuel**: the walker burns one fuel unit per AST node it
//!   evaluates/executes. Lowering counts those burns per control-flow
//!   segment and emits coalesced [`Op::Burn`]s, flushed before every
//!   jump, label, store and fallible op — total consumption is
//!   bit-identical on every successful path (and errors still observe
//!   every burn that precedes them). Folding never removes or moves a
//!   burn: a folded op flushes where its unfolded form would have.
//! * **Declarations**: a `Decl` at action top level would create a
//!   *persistent* root-scope binding, so such an action lowers to
//!   `None`. Block-scoped declarations become registers, and a
//!   declaration outside any block's scope is outside the subset. So no
//!   lowered hook adds a root binding, and the slots a program resolved
//!   at lowering time hold for as long as every hook of the runtime
//!   runs as bytecode.

use crate::interp::Machine;
use crate::types::{Type, TypeId};
use crate::vm::{BinKind, Ext, Op, Program, UnKind};
use ecl_syntax::ast::{BinOp, Expr, ExprKind, Ident, PrimType, Stmt, StmtKind, UnOp, VarDecl};
use ecl_syntax::diag::DiagSink;
use ecl_syntax::source::Span;

/// Compile-time signal name resolution: `name → (signal index, value
/// type if valued)`. The runtime implements this over its signal table.
pub trait SignalLayout {
    /// Resolve a signal name seen in data code.
    fn signal(&self, name: &str) -> Option<(usize, Option<TypeId>)>;
}

/// Marker: the construct is outside the bytecode subset.
struct Unsupported;

type Lower<T> = Result<T, Unsupported>;

/// Hard cap on the register file (a hook with deeper expressions is
/// outside the subset instead of growing it without bound).
const MAX_REGS: u16 = 4096;

/// What an identifier means at the point of lowering.
enum Res {
    /// Block-scoped register local.
    Local(u16, TypeId),
    /// Root-scope variable slot.
    Var(usize, TypeId),
    /// Valued signal.
    Sig(usize, TypeId),
    /// Enum constant.
    Enum(i64),
}

/// An expression's value at lowering time: a register, or a constant
/// already normalized to the expression's type.
#[derive(Clone, Copy)]
enum Val {
    Reg(u16),
    Imm(i64),
}

/// A condition ready for a compare-and-branch.
#[derive(Clone, Copy)]
enum Cond {
    /// Known at compile time.
    Imm(bool),
    /// Holds when the register is non-zero (`true`) or zero (`false`).
    Reg(u16, bool),
    /// Holds when `a op b` (a comparison kernel).
    Cmp(BinKind, u16, Val),
}

impl Cond {
    fn not(self) -> Cond {
        match self {
            Cond::Imm(b) => Cond::Imm(!b),
            Cond::Reg(r, nz) => Cond::Reg(r, !nz),
            Cond::Cmp(op, a, b) => Cond::Cmp(op.negated(), a, b),
        }
    }
}

/// Where a resolved lvalue lives.
enum PlaceKind {
    /// A register local (always a whole scalar).
    Local(u16),
    /// A root-scope slot, with a byte window into it.
    Var { slot: u32, off: Off },
}

/// Byte offset of a projection leaf.
#[derive(Clone, Copy)]
enum Off {
    /// The whole slot.
    Whole,
    /// Compile-time constant offset.
    Static(u32),
    /// One dynamic index, checked by the access itself:
    /// `base + idx * elem` with `0 <= idx < len`.
    Idx {
        idx: u16,
        base: u32,
        elem: u32,
        len: u32,
        span: Span,
    },
}

/// A resolved lvalue: location + leaf scalar type.
struct Place {
    kind: PlaceKind,
    ty: TypeId,
    ext: Ext,
}

/// The bytecode compiler. One instance lowers all hooks of a runtime;
/// internal state is reset per program.
pub struct Lowering<'a> {
    m: &'a mut Machine,
    sigs: &'a dyn SignalLayout,
    ops: Vec<Op>,
    /// `(pc, span)` of the fallible ops emitted so far.
    spans: Vec<(u32, Span)>,
    /// Label id → op index (`u32::MAX` while unbound).
    labels: Vec<u32>,
    /// Coalesced walker-equivalent burns not yet emitted.
    pending: u32,
    pending_span: Span,
    next_reg: u16,
    max_reg: u16,
    /// Lexical scopes of register locals (block declarations).
    scopes: Vec<Vec<(String, u16, TypeId)>>,
    /// `(break target, continue target)` per enclosing loop.
    loops: Vec<(u32, u32)>,
    /// End label of the current top-level statement (`return` target;
    /// actions ignore flows between top-level statements).
    stmt_end: u32,
}

impl<'a> Lowering<'a> {
    /// Create a compiler over the machine (types + root frame) and the
    /// signal layout.
    pub fn new(m: &'a mut Machine, sigs: &'a dyn SignalLayout) -> Lowering<'a> {
        Lowering {
            m,
            sigs,
            ops: Vec::new(),
            spans: Vec::new(),
            labels: Vec::new(),
            pending: 0,
            pending_span: Span::dummy(),
            next_reg: 0,
            max_reg: 0,
            scopes: Vec::new(),
            loops: Vec::new(),
            stmt_end: 0,
        }
    }

    /// Compile a predicate expression to a compare-and-branch program
    /// (exits: `len` false, `len + 1` true — see [`Program`]); `None`
    /// outside the subset.
    pub fn pred(&mut self, e: &Expr) -> Option<Program> {
        self.reset();
        let l_false = self.label();
        let l_true = self.label();
        let c = self.cond(e).ok()?;
        self.branch(c, l_true, true);
        Some(self.finish(Some((l_false, l_true))))
    }

    /// Compile an action (a statement list run at root scope); `None`
    /// when any of its statements is outside the subset.
    pub fn action(&mut self, stmts: &[Stmt]) -> Option<Program> {
        // A top-level `Decl` would create a *persistent* root binding
        // (visible to every other hook) — only the walker does that.
        if stmts.iter().any(|s| matches!(s.kind, StmtKind::Decl(_))) {
            return None;
        }
        self.reset();
        for s in stmts {
            let end = self.label();
            self.stmt_end = end;
            self.stmt(s).ok()?;
            self.bind(end);
        }
        Some(self.finish(None))
    }

    /// Compile a valued-emit expression for signal `sig` (value type
    /// `sig_ty`; `None` marks a pure signal — evaluate and discard,
    /// like the walker); `None` outside the subset.
    pub fn emit(&mut self, e: &Expr, sig: usize, sig_ty: Option<TypeId>) -> Option<Program> {
        self.reset();
        let Some(ty) = sig_ty else {
            // Pure target: the walker evaluates the expression (burns,
            // errors) and stores nothing.
            self.expr(e).ok()?;
            return Some(self.finish(None));
        };
        if let Some(sx) = self.ext_of(ty) {
            // Integer-valued signal: evaluate, truncate into the value
            // buffer in place (the walker's convert-and-replace, minus
            // the allocations).
            let (v, _) = self.expr(e).ok()?;
            self.flush();
            let src = self.reg(v).ok()?;
            self.ops.push(Op::StoreSig {
                sig: sig as u32,
                src,
                ext: sx,
            });
            return Some(self.finish(None));
        }
        // Aggregate signal: only the whole-variable copy
        // (`emit_v (outpkt, buffer)`) — same TypeId, so the walker's
        // convert is a byte-identical clone.
        let ExprKind::Ident(id) = &e.kind else {
            return None;
        };
        let Some(Res::Var(slot, vt)) = self.resolve(&id.name) else {
            return None;
        };
        if vt != ty {
            return None;
        }
        self.burn(e.span);
        self.flush();
        self.ops.push(Op::EmitCopy {
            sig: sig as u32,
            slot: slot as u32,
        });
        Some(self.finish(None))
    }

    // -- builder plumbing -------------------------------------------------

    fn reset(&mut self) {
        self.ops.clear();
        self.spans.clear();
        self.labels.clear();
        self.pending = 0;
        self.next_reg = 0;
        self.max_reg = 0;
        self.scopes.clear();
        self.loops.clear();
        self.stmt_end = 0;
    }

    /// Flush, bind a predicate's exit labels one past the end, resolve
    /// every label and hand out the program.
    fn finish(&mut self, exits: Option<(u32, u32)>) -> Program {
        self.flush();
        let len = self.ops.len() as u32;
        if let Some((l_false, l_true)) = exits {
            self.labels[l_false as usize] = len;
            self.labels[l_true as usize] = len + 1;
        }
        let labels = &self.labels;
        for op in &mut self.ops {
            op.map_targets(|l| {
                debug_assert_ne!(labels[l as usize], u32::MAX, "jump to unbound label");
                labels[l as usize]
            });
        }
        Program {
            ops: std::mem::take(&mut self.ops),
            regs: self.max_reg,
            spans: std::mem::take(&mut self.spans),
        }
    }

    /// Record one walker-equivalent interpreter step.
    fn burn(&mut self, span: Span) {
        if self.pending == 0 {
            self.pending_span = span;
        }
        self.pending += 1;
    }

    /// Emit the coalesced burns. Called before every label bind, jump,
    /// store and fallible op, so fuel totals match the walker on every
    /// control path.
    fn flush(&mut self) {
        if self.pending > 0 {
            let span = self.pending_span;
            self.fallible(Op::Burn { n: self.pending }, span);
            self.pending = 0;
        }
    }

    /// Emit an op that can raise an error, recording its span.
    fn fallible(&mut self, op: Op, span: Span) {
        self.spans.push((self.ops.len() as u32, span));
        self.ops.push(op);
    }

    fn label(&mut self) -> u32 {
        self.labels.push(u32::MAX);
        (self.labels.len() - 1) as u32
    }

    fn bind(&mut self, l: u32) {
        self.flush();
        self.labels[l as usize] = self.ops.len() as u32;
    }

    fn jmp(&mut self, l: u32) {
        self.flush();
        self.ops.push(Op::Jmp { target: l });
    }

    /// Jump to `l` when `c` evaluates to `when`, in one op.
    fn branch(&mut self, c: Cond, l: u32, when: bool) {
        self.flush();
        let c = if when { c } else { c.not() };
        match c {
            Cond::Imm(true) => self.ops.push(Op::Jmp { target: l }),
            Cond::Imm(false) => {}
            Cond::Reg(cond, when_true) => self.ops.push(Op::JmpIf {
                cond,
                target: l,
                when_true,
            }),
            Cond::Cmp(op, a, Val::Reg(b)) => self.ops.push(Op::JmpCmp {
                op,
                a,
                b,
                target: l,
            }),
            Cond::Cmp(op, a, Val::Imm(imm)) => self.ops.push(Op::JmpCmpImm {
                op,
                a,
                target: l,
                imm,
            }),
        }
    }

    fn alloc(&mut self) -> Lower<u16> {
        if self.next_reg >= MAX_REGS {
            return Err(Unsupported);
        }
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        Ok(r)
    }

    /// The value in a register, materializing a constant.
    fn reg(&mut self, v: Val) -> Lower<u16> {
        match v {
            Val::Reg(r) => Ok(r),
            Val::Imm(v) => {
                let dst = self.alloc()?;
                self.ops.push(Op::Const { dst, v });
                Ok(dst)
            }
        }
    }

    /// `dst = norm(v)` into a fixed register.
    fn set(&mut self, dst: u16, v: Val, ext: Ext) {
        self.ops.push(match v {
            Val::Reg(src) => Op::Conv { dst, src, ext },
            Val::Imm(v) => Op::Const {
                dst,
                v: ext.norm(v),
            },
        });
    }

    // -- types ------------------------------------------------------------

    fn ext_of(&self, ty: TypeId) -> Option<Ext> {
        let t = self.m.table().get(ty);
        if !t.is_integer() {
            return None;
        }
        let size = self.m.table().size_of(ty);
        if size == 0 || size > 4 {
            return None;
        }
        Some(Ext {
            bits: (size * 8) as u8,
            unsigned: t.is_unsigned(),
            is_bool: t == Type::Bool,
        })
    }

    fn int_ty(&mut self) -> TypeId {
        self.m.table().int()
    }

    /// Integer promotion — mirrors `Machine::promote`.
    fn promote_ty(&mut self, ty: TypeId) -> TypeId {
        match self.m.table().get(ty) {
            Type::Bool | Type::Char | Type::UChar | Type::Short | Type::UShort | Type::Enum(_) => {
                self.m.table().int()
            }
            _ => ty,
        }
    }

    /// Usual arithmetic conversions for two integer operand types —
    /// mirrors the integer path of `Machine::usual_arith`.
    fn usual_arith_int(&mut self, a: TypeId, b: TypeId) -> TypeId {
        let pa = self.promote_ty(a);
        let pb = self.promote_ty(b);
        let ta = self.m.table().get(pa);
        let tb = self.m.table().get(pb);
        let sa = self.m.table().size_of(pa);
        let sb = self.m.table().size_of(pb);
        if sa == sb {
            if ta.is_unsigned() || tb.is_unsigned() {
                self.m.table().prim(PrimType::UInt)
            } else {
                pa
            }
        } else if sa > sb {
            pa
        } else {
            pb
        }
    }

    /// `(common operand type, result type)` of a non-short-circuit
    /// binary operator over two integer operand types.
    fn bin_types(&mut self, op: BinOp, ta: TypeId, tb: TypeId) -> (TypeId, TypeId) {
        let common = self.usual_arith_int(ta, tb);
        let result = if is_cmp(op) { self.int_ty() } else { common };
        (common, result)
    }

    /// Convert a value of type `from` to type `to`: a constant folds at
    /// the target width, a widening that keeps every value is free,
    /// anything else is a conversion into a fresh register.
    fn coerce(&mut self, v: Val, from: TypeId, to: TypeId) -> Lower<Val> {
        if from == to {
            return Ok(v);
        }
        let ext = self.ext_of(to).ok_or(Unsupported)?;
        match v {
            Val::Imm(x) => Ok(Val::Imm(ext.norm(x))),
            Val::Reg(src) => {
                if self.ext_of(from).is_some_and(|f| f.widens_to(ext)) {
                    return Ok(v);
                }
                let dst = self.alloc()?;
                self.ops.push(Op::Conv { dst, src, ext });
                Ok(Val::Reg(dst))
            }
        }
    }

    /// `a op b` for a non-short-circuit operator: operands converted to
    /// their common type, a constant result folded at the result
    /// type's width, a constant right operand kept immediate. With
    /// `at`, the destination register is allocated from there (the
    /// operands' temporaries are dead once the op reads them).
    fn bin(
        &mut self,
        op: BinOp,
        (a, ta): (Val, TypeId),
        (b, tb): (Val, TypeId),
        span: Span,
        at: Option<u16>,
    ) -> Lower<(Val, TypeId)> {
        let (common, result) = self.bin_types(op, ta, tb);
        let ca = self.coerce(a, ta, common)?;
        let cb = self.coerce(b, tb, common)?;
        let ext = self.ext_of(result).ok_or(Unsupported)?;
        let kind = bin_kind(op);
        if matches!(kind, BinKind::Div | BinKind::Rem) {
            // Fallible op: the fuel consumed before a division error
            // must match the walker's (flushed even when folded).
            self.flush();
        }
        if let (Val::Imm(x), Val::Imm(y)) = (ca, cb) {
            if let Some(v) = kind.apply(x, y) {
                return Ok((Val::Imm(ext.norm(v)), result));
            }
        }
        // A constant left operand moves right where the kernel mirrors;
        // anything else that cannot stay immediate — a left constant,
        // a zero divisor — is materialized before the destination is
        // allocated, so no operand register gets reused under it.
        let (kind, a, b) = match (ca, cb, kind.swapped()) {
            (Val::Imm(_), Val::Reg(y), Some(mirrored)) => (mirrored, y, ca),
            (Val::Reg(x), _, _) => (kind, x, cb),
            _ => (kind, self.reg(ca)?, cb),
        };
        let zero_divisor = matches!(kind, BinKind::Div | BinKind::Rem);
        let b = match b {
            Val::Imm(imm) if !(zero_divisor && imm == 0) => Val::Imm(imm),
            _ => Val::Reg(self.reg(b)?),
        };
        if let Some(at) = at {
            self.next_reg = at;
        }
        let dst = self.alloc()?;
        match b {
            Val::Imm(imm) => self.ops.push(Op::BinImm {
                op: kind,
                dst,
                a,
                imm,
                ext,
            }),
            Val::Reg(b) => {
                let op = Op::Bin {
                    op: kind,
                    dst,
                    a,
                    b,
                    ext,
                };
                if zero_divisor {
                    self.fallible(op, span);
                } else {
                    self.ops.push(op);
                }
            }
        }
        Ok((Val::Reg(dst), result))
    }

    // -- names ------------------------------------------------------------

    /// Resolve an identifier with the walker's exact precedence:
    /// innermost variable binding, then valued signal, then enum
    /// constant (pure signals read as absent and fall through).
    fn resolve(&self, name: &str) -> Option<Res> {
        for scope in self.scopes.iter().rev() {
            for (n, reg, ty) in scope.iter().rev() {
                if n == name {
                    return Some(Res::Local(*reg, *ty));
                }
            }
        }
        if let Some(slot) = self.m.root_lookup(name) {
            return Some(Res::Var(slot, self.m.root_value(slot).ty));
        }
        // Pure signals read as absent through the reader, so the
        // walker falls through to enum constants for them.
        if let Some((i, Some(ty))) = self.sigs.signal(name) {
            return Some(Res::Sig(i, ty));
        }
        if let Some(&c) = self.m.table().enum_consts.get(name) {
            return Some(Res::Enum(c));
        }
        None
    }

    /// Walk a projection chain (`Member`/`Index` nodes) down to its
    /// root identifier. Returns the root and the nodes outermost-first.
    fn collect_chain(e: &Expr) -> Option<(&Ident, Vec<&Expr>)> {
        let mut nodes = Vec::new();
        let mut cur = e;
        loop {
            match &cur.kind {
                ExprKind::Member(base, _) | ExprKind::Index(base, _) => {
                    nodes.push(cur);
                    cur = base;
                }
                ExprKind::Ident(id) => return Some((id, nodes)),
                _ => return None,
            }
        }
    }

    /// Lower the offset computation of a projection chain over a base
    /// of type `base_ty` (nodes outermost-first, walked root-outward).
    /// Index expressions are evaluated in walker order; an in-bounds
    /// constant index folds into the static offset, and the chain's
    /// last index, when dynamic, is checked by the access itself
    /// ([`Off::Idx`]). An earlier dynamic (or out-of-range constant)
    /// index is outside the subset: its check would have to run before
    /// the later indices are evaluated. Returns `(offset, leaf type)`.
    fn chain_offset(&mut self, base_ty: TypeId, nodes: &[&Expr]) -> Lower<(Off, TypeId)> {
        // Outermost-first order: the first `Index` is the walk's last.
        let last_index = nodes
            .iter()
            .position(|n| matches!(n.kind, ExprKind::Index(..)));
        let mut cur_ty = base_ty;
        let mut off_static: u32 = 0;
        let mut checked: Option<(u16, u32, u32, Span)> = None;
        for (k, node) in nodes.iter().enumerate().rev() {
            match &node.kind {
                ExprKind::Member(_, field) => {
                    let rid = match self.m.table().get(cur_ty) {
                        Type::Struct(r) | Type::Union(r) => r,
                        _ => return Err(Unsupported),
                    };
                    let f = self
                        .m
                        .table()
                        .record(rid)
                        .field(&field.name)
                        .ok_or(Unsupported)?;
                    off_static += f.offset;
                    cur_ty = f.ty;
                }
                ExprKind::Index(_, idx) => {
                    let Type::Array(elem, n) = self.m.table().get(cur_ty) else {
                        return Err(Unsupported);
                    };
                    let esize = self.m.table().size_of(elem);
                    let save = self.next_reg;
                    let (vi, ti) = self.expr(idx)?;
                    if !self.m.table().get(ti).is_integer() {
                        return Err(Unsupported);
                    }
                    // The walker checks the bound here, before anything
                    // outward is evaluated.
                    self.flush();
                    match vi {
                        Val::Imm(i) if (0..i64::from(n)).contains(&i) => {
                            off_static += i as u32 * esize;
                            self.next_reg = save;
                        }
                        _ if Some(k) == last_index => {
                            // Checked by the access; the index register
                            // stays live until then.
                            checked = Some((self.reg(vi)?, esize, n, node.span));
                        }
                        _ => return Err(Unsupported),
                    }
                    cur_ty = elem;
                }
                _ => unreachable!("chain nodes are Member/Index"),
            }
        }
        let off = match checked {
            Some((idx, elem, len, span)) => Off::Idx {
                idx,
                base: off_static,
                elem,
                len,
                span,
            },
            None => Off::Static(off_static),
        };
        Ok((off, cur_ty))
    }

    /// Resolve an lvalue expression to a [`Place`] — the static twin of
    /// `Machine::resolve_place` (no burns of its own; index expressions
    /// burn as they are evaluated).
    fn place(&mut self, e: &Expr) -> Lower<Place> {
        if let ExprKind::Ident(id) = &e.kind {
            return match self.resolve(&id.name) {
                Some(Res::Local(reg, ty)) => {
                    let ext = self.ext_of(ty).ok_or(Unsupported)?;
                    Ok(Place {
                        kind: PlaceKind::Local(reg),
                        ty,
                        ext,
                    })
                }
                Some(Res::Var(slot, ty)) => {
                    let ext = self.ext_of(ty).ok_or(Unsupported)?;
                    Ok(Place {
                        kind: PlaceKind::Var {
                            slot: slot as u32,
                            off: Off::Whole,
                        },
                        ty,
                        ext,
                    })
                }
                // Signals/enums are not lvalues; the walker, which runs
                // such a task, reports "cannot assign to".
                _ => Err(Unsupported),
            };
        }
        let (root, nodes) = Self::collect_chain(e).ok_or(Unsupported)?;
        let Some(Res::Var(slot, root_ty)) = self.resolve(&root.name) else {
            return Err(Unsupported);
        };
        let (off, leaf) = self.chain_offset(root_ty, &nodes)?;
        let ext = self.ext_of(leaf).ok_or(Unsupported)?;
        Ok(Place {
            kind: PlaceKind::Var {
                slot: slot as u32,
                off,
            },
            ty: leaf,
            ext,
        })
    }

    /// Read a place into a fresh register.
    fn load_place(&mut self, p: &Place) -> Lower<u16> {
        let dst = self.alloc()?;
        let ext = p.ext;
        match p.kind {
            // Copy out: the local's home register may be overwritten by
            // a store before the read value is consumed (`x++`).
            PlaceKind::Local(src) => self.ops.push(Op::Conv { dst, src, ext }),
            PlaceKind::Var { slot, off } => match off {
                Off::Whole => self.ops.push(Op::LoadVar { dst, slot, ext }),
                Off::Static(off) => self.ops.push(Op::LoadVarOff {
                    dst,
                    slot,
                    off,
                    ext,
                }),
                Off::Idx {
                    idx,
                    base,
                    elem,
                    len,
                    span,
                } => self.fallible(
                    Op::LoadVarIdx {
                        dst,
                        idx,
                        slot,
                        base,
                        elem,
                        len,
                        ext,
                    },
                    span,
                ),
            },
        }
        Ok(dst)
    }

    /// Store a (place-typed, normalized) value into a place.
    fn store_place(&mut self, p: &Place, v: Val) -> Lower<()> {
        self.flush();
        let ext = p.ext;
        if let PlaceKind::Local(dst) = p.kind {
            self.set(dst, v, ext);
            return Ok(());
        }
        let src = self.reg(v)?;
        let PlaceKind::Var { slot, off } = p.kind else {
            unreachable!("locals stored above")
        };
        match off {
            Off::Whole => self.ops.push(Op::StoreVar { slot, src, ext }),
            Off::Static(off) => self.ops.push(Op::StoreVarOff {
                slot,
                off,
                src,
                ext,
            }),
            Off::Idx {
                idx,
                base,
                elem,
                len,
                span,
            } => self.fallible(
                Op::StoreVarIdx {
                    src,
                    idx,
                    slot,
                    base,
                    elem,
                    len,
                    ext,
                },
                span,
            ),
        }
        Ok(())
    }

    // -- expressions ------------------------------------------------------

    /// Lower an expression; the result is a register holding a value
    /// normalized to the returned (integer-scalar) type, or a constant.
    /// Burn accounting matches `Machine::eval` node for node.
    fn expr(&mut self, e: &Expr) -> Lower<(Val, TypeId)> {
        self.burn(e.span);
        match &e.kind {
            ExprKind::IntLit(v) => Ok((Val::Imm(Ext::INT.norm(*v)), self.int_ty())),
            ExprKind::CharLit(c) => {
                let ty = self.m.table().prim(PrimType::Char);
                let ext = self.ext_of(ty).ok_or(Unsupported)?;
                Ok((Val::Imm(ext.norm(i64::from(*c))), ty))
            }
            ExprKind::FloatLit(_) | ExprKind::StrLit(_) => Err(Unsupported),
            ExprKind::Ident(id) => match self.resolve(&id.name) {
                Some(Res::Local(src, ty)) => {
                    // Copy out of the local's home register: the walker
                    // materializes the value at evaluation time, so a
                    // later-evaluated operand that mutates the local
                    // (`t + t++`) must not be visible to this read.
                    let ext = self.ext_of(ty).ok_or(Unsupported)?;
                    let dst = self.alloc()?;
                    self.ops.push(Op::Conv { dst, src, ext });
                    Ok((Val::Reg(dst), ty))
                }
                Some(Res::Var(slot, ty)) => {
                    let ext = self.ext_of(ty).ok_or(Unsupported)?;
                    let dst = self.alloc()?;
                    self.ops.push(Op::LoadVar {
                        dst,
                        slot: slot as u32,
                        ext,
                    });
                    Ok((Val::Reg(dst), ty))
                }
                Some(Res::Sig(idx, ty)) => {
                    let ext = self.ext_of(ty).ok_or(Unsupported)?;
                    let dst = self.alloc()?;
                    self.ops.push(Op::LoadSig {
                        dst,
                        sig: idx as u32,
                        ext,
                    });
                    Ok((Val::Reg(dst), ty))
                }
                Some(Res::Enum(c)) => Ok((Val::Imm(Ext::INT.norm(c)), self.int_ty())),
                None => Err(Unsupported),
            },
            ExprKind::Unary(op, inner) => self.unary(*op, inner),
            ExprKind::Binary(op, a, b) => self.binary(*op, a, b, e.span),
            ExprKind::Assign(op, lhs, rhs) => {
                let (rv, tv) = self.expr(rhs)?;
                let p = self.place(lhs)?;
                let conv = match op.binop() {
                    None => self.coerce(rv, tv, p.ty)?,
                    Some(bop) => {
                        let old = self.load_place(&p)?;
                        let (comb, result) =
                            self.bin(bop, (Val::Reg(old), p.ty), (rv, tv), e.span, None)?;
                        self.coerce(comb, result, p.ty)?
                    }
                };
                self.store_place(&p, conv)?;
                Ok((conv, p.ty))
            }
            ExprKind::PreIncDec(inc, inner) | ExprKind::PostIncDec(inc, inner) => {
                let pre = matches!(e.kind, ExprKind::PreIncDec(_, _));
                let p = self.place(inner)?;
                let old = self.load_place(&p)?;
                let int = self.int_ty();
                let bop = if *inc { BinOp::Add } else { BinOp::Sub };
                let (comb, result) =
                    self.bin(bop, (Val::Reg(old), p.ty), (Val::Imm(1), int), e.span, None)?;
                let newv = self.coerce(comb, result, p.ty)?;
                self.store_place(&p, newv)?;
                Ok((if pre { newv } else { Val::Reg(old) }, p.ty))
            }
            ExprKind::Ternary(c, t, f) => {
                let save = self.next_reg;
                let c = self.cond(c)?;
                self.next_reg = save;
                let dst = self.alloc()?;
                let l_else = self.label();
                let l_end = self.label();
                self.branch(c, l_else, false);
                let save2 = self.next_reg;
                let (vt, tt) = self.expr(t)?;
                let text = self.ext_of(tt).ok_or(Unsupported)?;
                self.set(dst, vt, text);
                self.next_reg = save2;
                self.jmp(l_end);
                self.bind(l_else);
                let (vf, tf) = self.expr(f)?;
                if tf != tt {
                    // The walker returns whichever branch evaluated,
                    // typed as-is; a single result register needs one
                    // static type.
                    return Err(Unsupported);
                }
                self.set(dst, vf, text);
                self.next_reg = save2;
                self.bind(l_end);
                Ok((Val::Reg(dst), tt))
            }
            ExprKind::Call(_, _) | ExprKind::Arrow(_, _) => Err(Unsupported),
            ExprKind::Index(_, _) | ExprKind::Member(_, _) => self.projection(e),
            ExprKind::Cast(ty_ref, inner) => {
                let (v, tv) = self.expr(inner)?;
                let mut sink = DiagSink::new();
                let to = self.m.resolve_type(ty_ref, &mut sink).ok_or(Unsupported)?;
                self.ext_of(to).ok_or(Unsupported)?;
                Ok((self.coerce(v, tv, to)?, to))
            }
            ExprKind::SizeofType(ty_ref) => {
                let mut sink = DiagSink::new();
                let ty = self.m.resolve_type(ty_ref, &mut sink).ok_or(Unsupported)?;
                let size = self.m.table().size_of(ty);
                Ok((Val::Imm(i64::from(size)), self.int_ty()))
            }
            ExprKind::SizeofExpr(inner) => {
                // The walker evaluates the operand (burns, side
                // effects) and measures the resulting byte length —
                // statically the size of its type.
                let save = self.next_reg;
                let (_, tv) = self.expr(inner)?;
                self.next_reg = save;
                let size = self.m.table().size_of(tv);
                Ok((Val::Imm(i64::from(size)), self.int_ty()))
            }
            ExprKind::Comma(a, b) => {
                let save = self.next_reg;
                self.expr(a)?;
                self.next_reg = save;
                self.expr(b)
            }
        }
    }

    fn unary(&mut self, op: UnOp, inner: &Expr) -> Lower<(Val, TypeId)> {
        let (v, ty) = self.expr(inner)?;
        let (kind, ty) = match op {
            UnOp::Plus => return Ok((v, ty)),
            UnOp::Neg | UnOp::BitNot => {
                if !self.m.table().get(ty).is_integer() {
                    return Err(Unsupported);
                }
                let kind = if matches!(op, UnOp::Neg) {
                    UnKind::Neg
                } else {
                    UnKind::BitNot
                };
                (kind, self.promote_ty(ty))
            }
            UnOp::Not => (UnKind::LogNot, self.int_ty()),
            UnOp::Deref | UnOp::AddrOf => return Err(Unsupported),
        };
        let ext = self.ext_of(ty).ok_or(Unsupported)?;
        match v {
            Val::Imm(x) => Ok((Val::Imm(ext.norm(kind.apply(x))), ty)),
            Val::Reg(src) => {
                let dst = self.alloc()?;
                self.ops.push(Op::Un {
                    op: kind,
                    dst,
                    src,
                    ext,
                });
                Ok((Val::Reg(dst), ty))
            }
        }
    }

    fn binary(&mut self, op: BinOp, a: &Expr, b: &Expr, span: Span) -> Lower<(Val, TypeId)> {
        if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
            // Short-circuit: evaluate `b` only when `a` doesn't decide.
            let int = self.int_ty();
            let save = self.next_reg;
            let ca = self.cond(a)?;
            self.next_reg = save;
            let dst = self.alloc()?;
            let l_short = self.label();
            let l_end = self.label();
            let on_true = matches!(op, BinOp::LogOr);
            self.branch(ca, l_short, on_true);
            let save2 = self.next_reg;
            let cb = self.cond(b)?;
            self.branch(cb, l_short, on_true);
            self.next_reg = save2;
            self.ops.push(Op::Const {
                dst,
                v: (!on_true) as i64,
            });
            self.jmp(l_end);
            self.bind(l_short);
            self.ops.push(Op::Const {
                dst,
                v: on_true as i64,
            });
            self.bind(l_end);
            return Ok((Val::Reg(dst), int));
        }
        let save = self.next_reg;
        let va = self.expr(a)?;
        let vb = self.expr(b)?;
        self.bin(op, va, vb, span, Some(save))
    }

    /// Lower a condition for a branch: a comparison stays a
    /// [`Cond::Cmp`] (compared by the branch itself), `!` inverts,
    /// anything else tests a value for zero. Burns exactly what
    /// [`Self::expr`] would.
    fn cond(&mut self, e: &Expr) -> Lower<Cond> {
        match &e.kind {
            ExprKind::Binary(op, a, b) if is_cmp(*op) => {
                self.burn(e.span);
                let (va, ta) = self.expr(a)?;
                let (vb, tb) = self.expr(b)?;
                let (common, _) = self.bin_types(*op, ta, tb);
                let ca = self.coerce(va, ta, common)?;
                let cb = self.coerce(vb, tb, common)?;
                let kind = bin_kind(*op);
                Ok(match (ca, cb) {
                    (Val::Imm(x), Val::Imm(y)) => Cond::Imm(kind.apply(x, y) != Some(0)),
                    (Val::Imm(x), Val::Reg(y)) => {
                        let mirrored = kind.swapped().expect("comparisons mirror");
                        Cond::Cmp(mirrored, y, Val::Imm(x))
                    }
                    (Val::Reg(x), cb) => Cond::Cmp(kind, x, cb),
                })
            }
            ExprKind::Unary(UnOp::Not, inner) => {
                self.burn(e.span);
                Ok(self.cond(inner)?.not())
            }
            _ => Ok(match self.expr(e)?.0 {
                Val::Imm(x) => Cond::Imm(x != 0),
                Val::Reg(r) => Cond::Reg(r, true),
            }),
        }
    }

    /// Rvalue projection (`x.f[i]` / `sig.f[i]`): the walker reads
    /// variable-rooted chains as places (one burn for the outer node)
    /// and evaluates signal-rooted chains node by node (one burn per
    /// chain node plus the root identifier).
    fn projection(&mut self, e: &Expr) -> Lower<(Val, TypeId)> {
        let (root, nodes) = Self::collect_chain(e).ok_or(Unsupported)?;
        match self.resolve(&root.name) {
            Some(Res::Var(_, _)) => {
                let p = self.place(e)?;
                let dst = self.load_place(&p)?;
                Ok((Val::Reg(dst), p.ty))
            }
            Some(Res::Sig(idx, sig_ty)) => {
                // Inner chain nodes + the root identifier each burn
                // one step during the walker's recursive descent (the
                // outermost node burned at `expr` entry).
                for node in &nodes[1..] {
                    self.burn(node.span);
                }
                self.burn(root.span);
                let (off, leaf) = self.chain_offset(sig_ty, &nodes)?;
                let ext = self.ext_of(leaf).ok_or(Unsupported)?;
                let dst = self.alloc()?;
                let sig = idx as u32;
                match off {
                    Off::Whole | Off::Static(_) => self.ops.push(Op::LoadSigOff {
                        dst,
                        sig,
                        off: match off {
                            Off::Static(o) => o,
                            _ => 0,
                        },
                        ext,
                    }),
                    Off::Idx {
                        idx,
                        base,
                        elem,
                        len,
                        span,
                    } => self.fallible(
                        Op::LoadSigIdx {
                            dst,
                            idx,
                            sig,
                            base,
                            elem,
                            len,
                            ext,
                        },
                        span,
                    ),
                }
                Ok((Val::Reg(dst), leaf))
            }
            // Locals are integer scalars (projection would error), and
            // unknown/pure/enum roots error in the walker too.
            _ => Err(Unsupported),
        }
    }

    // -- statements -------------------------------------------------------

    /// Lower one statement. Burn accounting mirrors `Machine::exec`:
    /// one burn per statement entry plus one per loop iteration.
    fn stmt(&mut self, s: &Stmt) -> Lower<()> {
        self.burn(s.span);
        match &s.kind {
            StmtKind::Expr(None) => Ok(()),
            StmtKind::Expr(Some(e)) => {
                let save = self.next_reg;
                self.expr(e)?;
                self.next_reg = save;
                Ok(())
            }
            StmtKind::Decl(d) => self.decl(d),
            StmtKind::Block(b) => {
                self.scopes.push(Vec::new());
                let reg_save = self.next_reg;
                for st in &b.stmts {
                    self.stmt(st)?;
                }
                self.scopes.pop();
                self.next_reg = reg_save;
                Ok(())
            }
            StmtKind::If { cond, then, els } => {
                let save = self.next_reg;
                let c = self.cond(cond)?;
                self.next_reg = save;
                let l_end = self.label();
                match els {
                    None => {
                        self.branch(c, l_end, false);
                        self.stmt(then)?;
                    }
                    Some(e) => {
                        let l_else = self.label();
                        self.branch(c, l_else, false);
                        self.stmt(then)?;
                        self.jmp(l_end);
                        self.bind(l_else);
                        self.stmt(e)?;
                    }
                }
                self.bind(l_end);
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let l_head = self.label();
                let l_end = self.label();
                self.bind(l_head);
                self.burn(s.span); // per-iteration burn
                let save = self.next_reg;
                let c = self.cond(cond)?;
                self.next_reg = save;
                self.branch(c, l_end, false);
                self.loops.push((l_end, l_head));
                self.stmt(body)?;
                self.loops.pop();
                self.jmp(l_head);
                self.bind(l_end);
                Ok(())
            }
            StmtKind::DoWhile { body, cond } => {
                let l_head = self.label();
                let l_cont = self.label();
                let l_end = self.label();
                self.bind(l_head);
                self.burn(s.span);
                self.loops.push((l_end, l_cont));
                self.stmt(body)?;
                self.loops.pop();
                self.bind(l_cont);
                let save = self.next_reg;
                let c = self.cond(cond)?;
                self.next_reg = save;
                self.branch(c, l_head, true);
                self.bind(l_end);
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(Vec::new());
                let reg_save = self.next_reg;
                self.for_loop(s, init.as_deref(), cond.as_ref(), step.as_ref(), body)?;
                self.scopes.pop();
                self.next_reg = reg_save;
                Ok(())
            }
            StmtKind::Break => {
                let t = self.loops.last().map_or(self.stmt_end, |l| l.0);
                self.jmp(t);
                Ok(())
            }
            StmtKind::Continue => {
                let t = self.loops.last().map_or(self.stmt_end, |l| l.1);
                self.jmp(t);
                Ok(())
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    let save = self.next_reg;
                    self.expr(e)?;
                    self.next_reg = save;
                }
                self.jmp(self.stmt_end);
                Ok(())
            }
            // Switch and the reactive statements are outside the subset
            // (the walker handles switch scoping itself and reports the
            // splitter bug for reactive statements verbatim).
            _ => Err(Unsupported),
        }
    }

    fn for_loop(
        &mut self,
        s: &Stmt,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &Stmt,
    ) -> Lower<()> {
        if let Some(i) = init {
            self.stmt(i)?;
        }
        let l_head = self.label();
        let l_step = self.label();
        let l_end = self.label();
        self.bind(l_head);
        self.burn(s.span); // per-iteration burn
        if let Some(c) = cond {
            let save = self.next_reg;
            let c = self.cond(c)?;
            self.next_reg = save;
            self.branch(c, l_end, false);
        }
        self.loops.push((l_end, l_step));
        self.stmt(body)?;
        self.loops.pop();
        self.bind(l_step);
        if let Some(st) = step {
            // The walker evaluates the step expression directly (no
            // statement burn of its own).
            let save = self.next_reg;
            self.expr(st)?;
            self.next_reg = save;
        }
        self.jmp(l_head);
        self.bind(l_end);
        Ok(())
    }

    /// Lower a block-scoped declaration to register locals (evaluation
    /// order matches `Machine::exec_decl`: each initializer sees the
    /// bindings of the declarators before it).
    fn decl(&mut self, d: &VarDecl) -> Lower<()> {
        for decl in &d.decls {
            let mut sink = DiagSink::new();
            let ty = self
                .m
                .resolve_type(&decl.ty, &mut sink)
                .ok_or(Unsupported)?;
            let ext = self.ext_of(ty).ok_or(Unsupported)?;
            let reg = self.alloc()?;
            match &decl.init {
                Some(e) => {
                    let save = self.next_reg;
                    let (v, _) = self.expr(e)?;
                    self.next_reg = save;
                    self.set(reg, v, ext);
                }
                None => self.ops.push(Op::Const { dst: reg, v: 0 }),
            }
            self.scopes
                .last_mut()
                .ok_or(Unsupported)?
                .push((decl.name.name.clone(), reg, ty));
        }
        Ok(())
    }
}

/// Is `op` a comparison (int 0/1 result)?
fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
    )
}

/// The kernel of a non-short-circuit binary operator.
fn bin_kind(op: BinOp) -> BinKind {
    match op {
        BinOp::Add => BinKind::Add,
        BinOp::Sub => BinKind::Sub,
        BinOp::Mul => BinKind::Mul,
        BinOp::Div => BinKind::Div,
        BinOp::Rem => BinKind::Rem,
        BinOp::Shl => BinKind::Shl,
        BinOp::Shr => BinKind::Shr,
        BinOp::Lt => BinKind::Lt,
        BinOp::Gt => BinKind::Gt,
        BinOp::Le => BinKind::Le,
        BinOp::Ge => BinKind::Ge,
        BinOp::Eq => BinKind::Eq,
        BinOp::Ne => BinKind::Ne,
        BinOp::BitAnd => BinKind::And,
        BinOp::BitXor => BinKind::Xor,
        BinOp::BitOr => BinKind::Or,
        BinOp::LogAnd | BinOp::LogOr => unreachable!("short-circuit lowered separately"),
    }
}
