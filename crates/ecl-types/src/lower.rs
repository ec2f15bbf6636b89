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
//! `sig.field[i]`) with bounds-checked dynamic indices, assignments
//! (simple and compound) and `++`/`--`, `if`/`while`/`do`/`for` with
//! `break`/`continue`/`return`, block-scoped integer locals (compiled
//! to registers), integer casts, `sizeof`, ternary and comma, and
//! whole-aggregate `emit_v (sig, var)` copies.
//!
//! Everything else — function calls, floats, `switch`, aggregate
//! rvalues, string/pointer operations — compiles to
//! [`Op::FallbackStmt`] at statement granularity: the subtree executes
//! through the tree-walker with its control-flow result mapped back
//! onto compiled jump targets. A hook whose shape the subset cannot
//! express at all stays [`Compiled::Walker`].
//!
//! ## Exactness rules
//!
//! * **Fuel**: the walker burns one fuel unit per AST node it
//!   evaluates/executes. Lowering counts those burns per control-flow
//!   segment and emits coalesced [`Op::Burn`]s, flushed before every
//!   jump, label, store and fallible op — total consumption is
//!   bit-identical on every successful path (and errors still observe
//!   every burn that precedes them).
//! * **Declarations**: a `Decl` at action top level would create a
//!   *persistent* root-scope binding, so such actions stay on the
//!   walker. Block-scoped declarations become registers; if anything
//!   inside a scope with register locals fails to lower, the whole
//!   scope-owning construct falls back (a walker-executed statement
//!   must never reference a register-resident local).
//! * **Validity**: compiled slot resolutions are valid as long as the
//!   root scope hasn't grown ([`Machine::root_len`] is checked at
//!   dispatch; root bindings are append-only).

use crate::interp::Machine;
use crate::types::{Type, TypeId};
use crate::vm::{BinKind, Compiled, Ext, Op, Program, UnKind};
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

/// Hard cap on the register file (deep expressions beyond this fall
/// back to the walker instead of growing without bound).
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
    /// Offset computed into a register (dynamic indices involved).
    Dyn(u16),
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
    /// Label id → op index (`u32::MAX` while unbound).
    labels: Vec<u32>,
    /// Coalesced walker-equivalent burns not yet emitted.
    pending: u32,
    pending_span: Span,
    next_reg: u16,
    max_reg: u16,
    /// Lexical scopes of register locals (block declarations).
    scopes: Vec<Vec<(String, u16, TypeId)>>,
    /// Total register locals currently in scope (fallback guard).
    locals_count: u32,
    /// `(break target, continue target)` per enclosing loop.
    loops: Vec<(u32, u32)>,
    /// End label of the current top-level statement (`return` target;
    /// `run_action` ignores flows between top-level statements).
    stmt_end: u32,
    /// Cloned fallback statement subtrees.
    stmts: Vec<Stmt>,
}

impl<'a> Lowering<'a> {
    /// Create a compiler over the machine (types + root frame) and the
    /// signal layout.
    pub fn new(m: &'a mut Machine, sigs: &'a dyn SignalLayout) -> Lowering<'a> {
        Lowering {
            m,
            sigs,
            ops: Vec::new(),
            labels: Vec::new(),
            pending: 0,
            pending_span: Span::dummy(),
            next_reg: 0,
            max_reg: 0,
            scopes: Vec::new(),
            locals_count: 0,
            loops: Vec::new(),
            stmt_end: 0,
            stmts: Vec::new(),
        }
    }

    /// Compile a predicate expression (result = truthiness register).
    pub fn pred(&mut self, e: &Expr) -> Compiled {
        self.reset();
        match self.expr(e) {
            Ok((r, _)) => self.finish(r),
            Err(Unsupported) => Compiled::Walker,
        }
    }

    /// Compile an action (a statement list run at root scope).
    pub fn action(&mut self, stmts: &[Stmt]) -> Compiled {
        // A top-level `Decl` would create a *persistent* root binding
        // (visible to every other hook) — exactly what the walker must
        // keep doing.
        if stmts.iter().any(|s| matches!(s.kind, StmtKind::Decl(_))) {
            return Compiled::Walker;
        }
        self.reset();
        for s in stmts {
            let end = self.label();
            self.stmt_end = end;
            if self.stmt_or_fallback(s).is_err() {
                // Unreachable in practice (top level has no register
                // locals and no bare decls), but falling back keeps
                // semantics exact regardless.
                self.fallback(s);
            }
            self.bind(end);
        }
        // Nothing actually compiled — skip the VM dispatch entirely.
        if self
            .ops
            .iter()
            .all(|op| matches!(op, Op::FallbackStmt { .. }))
        {
            return Compiled::Walker;
        }
        self.finish(0)
    }

    /// Compile a valued-emit expression for signal `sig` (value type
    /// `sig_ty`; `None` marks a pure signal — evaluate and discard,
    /// like the walker).
    pub fn emit(&mut self, e: &Expr, sig: usize, sig_ty: Option<TypeId>) -> Compiled {
        self.reset();
        let Some(ty) = sig_ty else {
            // Pure target: the walker evaluates the expression (burns,
            // errors) and stores nothing.
            return match self.expr(e) {
                Ok((r, _)) => self.finish(r),
                Err(Unsupported) => Compiled::Walker,
            };
        };
        if let Some(sx) = self.ext_of(ty) {
            // Integer-valued signal: evaluate, truncate into the value
            // buffer in place (the walker's convert-and-replace, minus
            // the allocations).
            return match self.expr(e) {
                Ok((r, _)) => {
                    self.flush();
                    self.ops.push(Op::StoreSig {
                        sig: sig as u32,
                        src: r,
                        ext: sx,
                    });
                    self.finish(r)
                }
                Err(Unsupported) => Compiled::Walker,
            };
        }
        // Aggregate signal: the whole-variable copy fast path
        // (`emit_v (outpkt, buffer)`) — same TypeId, so the walker's
        // convert is a byte-identical clone.
        if let ExprKind::Ident(id) = &e.kind {
            if let Some(Res::Var(slot, vt)) = self.resolve(&id.name) {
                if vt == ty {
                    self.burn(e.span);
                    self.flush();
                    self.ops.push(Op::EmitCopy {
                        sig: sig as u32,
                        slot: slot as u32,
                    });
                    return self.finish(0);
                }
            }
        }
        Compiled::Walker
    }

    // -- builder plumbing -------------------------------------------------

    fn reset(&mut self) {
        self.ops.clear();
        self.labels.clear();
        self.pending = 0;
        self.next_reg = 0;
        self.max_reg = 0;
        self.scopes.clear();
        self.locals_count = 0;
        self.loops.clear();
        self.stmt_end = 0;
        self.stmts.clear();
    }

    fn finish(&mut self, result: u16) -> Compiled {
        self.flush();
        for op in &mut self.ops {
            match op {
                Op::Jmp { target } | Op::JmpIf { target, .. } => {
                    *target = self.labels[*target as usize];
                    debug_assert_ne!(*target, u32::MAX, "jump to unbound label");
                }
                Op::FallbackStmt { brk, cont, ret, .. } => {
                    *brk = self.labels[*brk as usize];
                    *cont = self.labels[*cont as usize];
                    *ret = self.labels[*ret as usize];
                }
                _ => {}
            }
        }
        Compiled::Vm(Program {
            ops: std::mem::take(&mut self.ops),
            regs: self.max_reg,
            result,
            stmts: std::mem::take(&mut self.stmts),
        })
    }

    /// Record one walker-equivalent interpreter step.
    fn burn(&mut self, span: Span) {
        if self.pending == 0 {
            self.pending_span = span;
        }
        self.pending += 1;
    }

    /// Emit the coalesced burns. Called before every label bind, jump,
    /// store, fallible op and fallback, so fuel totals match the
    /// walker on every control path.
    fn flush(&mut self) {
        if self.pending > 0 {
            self.ops.push(Op::Burn {
                n: self.pending,
                span: self.pending_span,
            });
            self.pending = 0;
        }
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

    fn jmp_if(&mut self, cond: u16, l: u32, when_true: bool) {
        self.flush();
        self.ops.push(Op::JmpIf {
            cond,
            target: l,
            when_true,
        });
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

    fn fallback(&mut self, s: &Stmt) {
        self.flush();
        let idx = self.stmts.len() as u32;
        self.stmts.push(s.clone());
        let (brk, cont) = self
            .loops
            .last()
            .copied()
            .unwrap_or((self.stmt_end, self.stmt_end));
        self.ops.push(Op::FallbackStmt {
            stmt: idx,
            brk,
            cont,
            ret: self.stmt_end,
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
        let result = if matches!(
            op,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        ) {
            self.int_ty()
        } else {
            common
        };
        (common, result)
    }

    /// Normalize register `r` (type `from`) to type `to`, emitting a
    /// conversion into a fresh register when the types differ.
    fn coerce(&mut self, r: u16, from: TypeId, to: TypeId) -> Lower<u16> {
        if from == to {
            return Ok(r);
        }
        let ext = self.ext_of(to).ok_or(Unsupported)?;
        let dst = self.alloc()?;
        self.ops.push(Op::Conv { dst, src: r, ext });
        Ok(dst)
    }

    fn emit_bin(&mut self, op: BinOp, dst: u16, a: u16, b: u16, ext: Ext, span: Span) {
        let kind = match op {
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
        };
        if matches!(kind, BinKind::Div | BinKind::Rem) {
            // Fallible op: the fuel consumed before a division error
            // must match the walker's.
            self.flush();
        }
        self.ops.push(Op::Bin {
            op: kind,
            dst,
            a,
            b,
            ext,
            span,
        });
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
    /// Index expressions are evaluated in walker order with
    /// bounds-checked `AddScaled` ops. Returns `(offset, leaf type)`.
    fn chain_offset(&mut self, base_ty: TypeId, nodes: &[&Expr]) -> Lower<(Off, TypeId)> {
        let mut cur_ty = base_ty;
        let mut off_static: u32 = 0;
        let mut off_reg: Option<u16> = None;
        for node in nodes.iter().rev() {
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
                    let (fo, ft) = (f.offset, f.ty);
                    match off_reg {
                        None => off_static += fo,
                        Some(r) => {
                            if fo != 0 {
                                self.ops.push(Op::AddConst {
                                    dst: r,
                                    k: i64::from(fo),
                                });
                            }
                        }
                    }
                    cur_ty = ft;
                }
                ExprKind::Index(_, idx) => {
                    let Type::Array(elem, n) = self.m.table().get(cur_ty) else {
                        return Err(Unsupported);
                    };
                    let r = match off_reg {
                        Some(r) => r,
                        None => {
                            let r = self.alloc()?;
                            self.ops.push(Op::Const {
                                dst: r,
                                v: i64::from(off_static),
                            });
                            off_reg = Some(r);
                            r
                        }
                    };
                    let save = self.next_reg;
                    let (ri, ti) = self.expr(idx)?;
                    if !self.m.table().get(ti).is_integer() {
                        return Err(Unsupported);
                    }
                    self.flush();
                    self.ops.push(Op::AddScaled {
                        off: r,
                        idx: ri,
                        elem: self.m.table().size_of(elem),
                        len: n,
                        span: node.span,
                    });
                    self.next_reg = save;
                    cur_ty = elem;
                }
                _ => unreachable!("chain nodes are Member/Index"),
            }
        }
        let off = match off_reg {
            Some(r) => Off::Dyn(r),
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
                // Signals/enums are not lvalues; the walker reports
                // "cannot assign to" — the fallback reproduces it.
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
        match p.kind {
            // Copy out: the local's home register may be overwritten by
            // a store before the read value is consumed (`x++`).
            PlaceKind::Local(reg) => self.ops.push(Op::Conv {
                dst,
                src: reg,
                ext: p.ext,
            }),
            PlaceKind::Var { slot, off } => self.ops.push(match off {
                Off::Whole => Op::LoadVar {
                    dst,
                    slot,
                    ext: p.ext,
                },
                Off::Static(o) => Op::LoadVarOff {
                    dst,
                    slot,
                    off: o,
                    ext: p.ext,
                },
                Off::Dyn(r) => Op::LoadVarAt {
                    dst,
                    slot,
                    off: r,
                    ext: p.ext,
                },
            }),
        }
        Ok(dst)
    }

    /// Store a (place-typed, normalized) register into a place.
    fn store_place(&mut self, p: &Place, src: u16) {
        self.flush();
        match p.kind {
            PlaceKind::Local(reg) => self.ops.push(Op::Conv {
                dst: reg,
                src,
                ext: p.ext,
            }),
            PlaceKind::Var { slot, off } => self.ops.push(match off {
                Off::Whole => Op::StoreVar {
                    slot,
                    src,
                    ext: p.ext,
                },
                Off::Static(o) => Op::StoreVarOff {
                    slot,
                    off: o,
                    src,
                    ext: p.ext,
                },
                Off::Dyn(r) => Op::StoreVarAt {
                    slot,
                    off: r,
                    src,
                    ext: p.ext,
                },
            }),
        }
    }

    // -- expressions ------------------------------------------------------

    /// Lower an expression; the result register always holds a value
    /// normalized to the returned (integer-scalar) type. Burn
    /// accounting matches `Machine::eval` node for node.
    fn expr(&mut self, e: &Expr) -> Lower<(u16, TypeId)> {
        self.burn(e.span);
        match &e.kind {
            ExprKind::IntLit(v) => {
                let ty = self.int_ty();
                let dst = self.alloc()?;
                self.ops.push(Op::Const {
                    dst,
                    v: Ext::INT.norm(*v),
                });
                Ok((dst, ty))
            }
            ExprKind::CharLit(c) => {
                let ty = self.m.table().prim(PrimType::Char);
                let ext = self.ext_of(ty).ok_or(Unsupported)?;
                let dst = self.alloc()?;
                self.ops.push(Op::Const {
                    dst,
                    v: ext.norm(i64::from(*c)),
                });
                Ok((dst, ty))
            }
            ExprKind::FloatLit(_) | ExprKind::StrLit(_) => Err(Unsupported),
            ExprKind::Ident(id) => match self.resolve(&id.name) {
                Some(Res::Local(reg, ty)) => {
                    // Copy out of the local's home register: the walker
                    // materializes the value at evaluation time, so a
                    // later-evaluated operand that mutates the local
                    // (`t + t++`) must not be visible to this read.
                    let ext = self.ext_of(ty).ok_or(Unsupported)?;
                    let dst = self.alloc()?;
                    self.ops.push(Op::Conv { dst, src: reg, ext });
                    Ok((dst, ty))
                }
                Some(Res::Var(slot, ty)) => {
                    let ext = self.ext_of(ty).ok_or(Unsupported)?;
                    let dst = self.alloc()?;
                    self.ops.push(Op::LoadVar {
                        dst,
                        slot: slot as u32,
                        ext,
                    });
                    Ok((dst, ty))
                }
                Some(Res::Sig(idx, ty)) => {
                    let ext = self.ext_of(ty).ok_or(Unsupported)?;
                    let dst = self.alloc()?;
                    self.ops.push(Op::LoadSig {
                        dst,
                        sig: idx as u32,
                        ext,
                    });
                    Ok((dst, ty))
                }
                Some(Res::Enum(c)) => {
                    let ty = self.int_ty();
                    let dst = self.alloc()?;
                    self.ops.push(Op::Const {
                        dst,
                        v: Ext::INT.norm(c),
                    });
                    Ok((dst, ty))
                }
                None => Err(Unsupported),
            },
            ExprKind::Unary(op, inner) => self.unary(*op, inner),
            ExprKind::Binary(op, a, b) => self.binary(*op, a, b, e.span),
            ExprKind::Assign(op, lhs, rhs) => {
                let (rv, tv) = self.expr(rhs)?;
                let p = self.place(lhs)?;
                match op.binop() {
                    None => {
                        let conv = self.coerce(rv, tv, p.ty)?;
                        self.store_place(&p, conv);
                        Ok((conv, p.ty))
                    }
                    Some(bop) => {
                        let old = self.load_place(&p)?;
                        let (common, result) = self.bin_types(bop, p.ty, tv);
                        let ca = self.coerce(old, p.ty, common)?;
                        let cb = self.coerce(rv, tv, common)?;
                        let ext = self.ext_of(result).ok_or(Unsupported)?;
                        let comb = self.alloc()?;
                        self.emit_bin(bop, comb, ca, cb, ext, e.span);
                        let conv = self.coerce(comb, result, p.ty)?;
                        self.store_place(&p, conv);
                        Ok((conv, p.ty))
                    }
                }
            }
            ExprKind::PreIncDec(inc, inner) | ExprKind::PostIncDec(inc, inner) => {
                let pre = matches!(e.kind, ExprKind::PreIncDec(_, _));
                let p = self.place(inner)?;
                let old = self.load_place(&p)?;
                let int = self.int_ty();
                let one = self.alloc()?;
                self.ops.push(Op::Const { dst: one, v: 1 });
                let bop = if *inc { BinOp::Add } else { BinOp::Sub };
                let (common, result) = self.bin_types(bop, p.ty, int);
                let ca = self.coerce(old, p.ty, common)?;
                let cb = self.coerce(one, int, common)?;
                let ext = self.ext_of(result).ok_or(Unsupported)?;
                let comb = self.alloc()?;
                self.emit_bin(bop, comb, ca, cb, ext, e.span);
                let newv = self.coerce(comb, result, p.ty)?;
                self.store_place(&p, newv);
                Ok((if pre { newv } else { old }, p.ty))
            }
            ExprKind::Ternary(c, t, f) => {
                let save = self.next_reg;
                let (rc, _) = self.expr(c)?;
                self.next_reg = save;
                let dst = self.alloc()?;
                let l_else = self.label();
                let l_end = self.label();
                self.jmp_if(rc, l_else, false);
                let save2 = self.next_reg;
                let (rt, tt) = self.expr(t)?;
                let text = self.ext_of(tt).ok_or(Unsupported)?;
                self.ops.push(Op::Conv {
                    dst,
                    src: rt,
                    ext: text,
                });
                self.next_reg = save2;
                self.jmp(l_end);
                self.bind(l_else);
                let (rf, tf) = self.expr(f)?;
                if tf != tt {
                    // The walker returns whichever branch evaluated,
                    // typed as-is; a single result register needs one
                    // static type.
                    return Err(Unsupported);
                }
                self.ops.push(Op::Conv {
                    dst,
                    src: rf,
                    ext: text,
                });
                self.next_reg = save2;
                self.bind(l_end);
                Ok((dst, tt))
            }
            ExprKind::Call(_, _) | ExprKind::Arrow(_, _) => Err(Unsupported),
            ExprKind::Index(_, _) | ExprKind::Member(_, _) => self.projection(e),
            ExprKind::Cast(ty_ref, inner) => {
                let (r, tv) = self.expr(inner)?;
                let mut sink = DiagSink::new();
                let to = self.m.resolve_type(ty_ref, &mut sink).ok_or(Unsupported)?;
                self.ext_of(to).ok_or(Unsupported)?;
                let conv = self.coerce(r, tv, to)?;
                Ok((conv, to))
            }
            ExprKind::SizeofType(ty_ref) => {
                let mut sink = DiagSink::new();
                let ty = self.m.resolve_type(ty_ref, &mut sink).ok_or(Unsupported)?;
                let size = self.m.table().size_of(ty);
                let int = self.int_ty();
                let dst = self.alloc()?;
                self.ops.push(Op::Const {
                    dst,
                    v: i64::from(size),
                });
                Ok((dst, int))
            }
            ExprKind::SizeofExpr(inner) => {
                // The walker evaluates the operand (burns, side
                // effects) and measures the resulting byte length —
                // statically the size of its type.
                let save = self.next_reg;
                let (_, tv) = self.expr(inner)?;
                self.next_reg = save;
                let size = self.m.table().size_of(tv);
                let int = self.int_ty();
                let dst = self.alloc()?;
                self.ops.push(Op::Const {
                    dst,
                    v: i64::from(size),
                });
                Ok((dst, int))
            }
            ExprKind::Comma(a, b) => {
                let save = self.next_reg;
                self.expr(a)?;
                self.next_reg = save;
                self.expr(b)
            }
        }
    }

    fn unary(&mut self, op: UnOp, inner: &Expr) -> Lower<(u16, TypeId)> {
        let (r, ty) = self.expr(inner)?;
        match op {
            UnOp::Plus => Ok((r, ty)),
            UnOp::Neg | UnOp::BitNot => {
                if !self.m.table().get(ty).is_integer() {
                    return Err(Unsupported);
                }
                let pty = self.promote_ty(ty);
                let ext = self.ext_of(pty).ok_or(Unsupported)?;
                let dst = self.alloc()?;
                self.ops.push(Op::Un {
                    op: if matches!(op, UnOp::Neg) {
                        UnKind::Neg
                    } else {
                        UnKind::BitNot
                    },
                    dst,
                    src: r,
                    ext,
                });
                Ok((dst, pty))
            }
            UnOp::Not => {
                let int = self.int_ty();
                let dst = self.alloc()?;
                self.ops.push(Op::Un {
                    op: UnKind::LogNot,
                    dst,
                    src: r,
                    ext: Ext::INT,
                });
                Ok((dst, int))
            }
            UnOp::Deref | UnOp::AddrOf => Err(Unsupported),
        }
    }

    fn binary(&mut self, op: BinOp, a: &Expr, b: &Expr, span: Span) -> Lower<(u16, TypeId)> {
        if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
            // Short-circuit: evaluate `b` only when `a` doesn't decide.
            let int = self.int_ty();
            let save = self.next_reg;
            let (ra, _) = self.expr(a)?;
            self.next_reg = save;
            let dst = self.alloc()?;
            let l_short = self.label();
            let l_end = self.label();
            let on_true = matches!(op, BinOp::LogOr);
            self.jmp_if(ra, l_short, on_true);
            let save2 = self.next_reg;
            let (rb, _) = self.expr(b)?;
            self.jmp_if(rb, l_short, on_true);
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
            return Ok((dst, int));
        }
        let save = self.next_reg;
        let (ra, ta) = self.expr(a)?;
        let (rb, tb) = self.expr(b)?;
        let (common, result) = self.bin_types(op, ta, tb);
        let ca = self.coerce(ra, ta, common)?;
        let cb = self.coerce(rb, tb, common)?;
        let ext = self.ext_of(result).ok_or(Unsupported)?;
        self.next_reg = save;
        let dst = self.alloc()?;
        self.emit_bin(op, dst, ca, cb, ext, span);
        Ok((dst, result))
    }

    /// Rvalue projection (`x.f[i]` / `sig.f[i]`): the walker reads
    /// variable-rooted chains as places (one burn for the outer node)
    /// and evaluates signal-rooted chains node by node (one burn per
    /// chain node plus the root identifier).
    fn projection(&mut self, e: &Expr) -> Lower<(u16, TypeId)> {
        let (root, nodes) = Self::collect_chain(e).ok_or(Unsupported)?;
        match self.resolve(&root.name) {
            Some(Res::Var(_, _)) => {
                let p = self.place(e)?;
                let dst = self.load_place(&p)?;
                Ok((dst, p.ty))
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
                self.ops.push(match off {
                    Off::Whole | Off::Static(_) => Op::LoadSigOff {
                        dst,
                        sig: idx as u32,
                        off: match off {
                            Off::Static(o) => o,
                            _ => 0,
                        },
                        ext,
                    },
                    Off::Dyn(r) => Op::LoadSigAt {
                        dst,
                        sig: idx as u32,
                        off: r,
                        ext,
                    },
                });
                Ok((dst, leaf))
            }
            // Locals are integer scalars (projection would error), and
            // unknown/pure/enum roots error in the walker too.
            _ => Err(Unsupported),
        }
    }

    // -- statements -------------------------------------------------------

    /// Lower a statement, or roll back and emit a walker fallback.
    /// Propagates instead of falling back when the statement is a bare
    /// declaration (scope placement would diverge) or register locals
    /// are in scope (a walker-executed subtree cannot see them) — the
    /// nearest scope-owning construct falls back wholesale.
    fn stmt_or_fallback(&mut self, s: &Stmt) -> Lower<()> {
        let snap = (
            self.ops.len(),
            self.pending,
            self.pending_span,
            self.next_reg,
            self.stmts.len(),
            self.scopes.last().map_or(0, Vec::len),
        );
        match self.stmt(s) {
            Ok(()) => Ok(()),
            Err(Unsupported) => {
                self.ops.truncate(snap.0);
                self.pending = snap.1;
                self.pending_span = snap.2;
                self.next_reg = snap.3;
                self.stmts.truncate(snap.4);
                if let Some(scope) = self.scopes.last_mut() {
                    let removed = scope.len() - snap.5;
                    scope.truncate(snap.5);
                    self.locals_count -= removed as u32;
                }
                if matches!(s.kind, StmtKind::Decl(_)) || self.locals_count > 0 {
                    return Err(Unsupported);
                }
                self.fallback(s);
                Ok(())
            }
        }
    }

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
                let mut r = Ok(());
                for st in &b.stmts {
                    if let e @ Err(_) = self.stmt_or_fallback(st) {
                        r = e;
                        break;
                    }
                }
                let popped = self.scopes.pop().expect("pushed above");
                self.locals_count -= popped.len() as u32;
                if r.is_ok() {
                    self.next_reg = reg_save;
                }
                r
            }
            StmtKind::If { cond, then, els } => {
                let save = self.next_reg;
                let (rc, _) = self.expr(cond)?;
                self.next_reg = save;
                let l_end = self.label();
                match els {
                    None => {
                        self.jmp_if(rc, l_end, false);
                        self.stmt_or_fallback(then)?;
                    }
                    Some(e) => {
                        let l_else = self.label();
                        self.jmp_if(rc, l_else, false);
                        self.stmt_or_fallback(then)?;
                        self.jmp(l_end);
                        self.bind(l_else);
                        self.stmt_or_fallback(e)?;
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
                let (rc, _) = self.expr(cond)?;
                self.next_reg = save;
                self.jmp_if(rc, l_end, false);
                self.loops.push((l_end, l_head));
                let r = self.stmt_or_fallback(body);
                self.loops.pop();
                r?;
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
                let r = self.stmt_or_fallback(body);
                self.loops.pop();
                r?;
                self.bind(l_cont);
                let save = self.next_reg;
                let (rc, _) = self.expr(cond)?;
                self.next_reg = save;
                self.jmp_if(rc, l_head, true);
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
                let r = self.for_loop(s, init.as_deref(), cond.as_ref(), step.as_ref(), body);
                let popped = self.scopes.pop().expect("pushed above");
                self.locals_count -= popped.len() as u32;
                if r.is_ok() {
                    self.next_reg = reg_save;
                }
                r
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
            // Switch and the reactive statements fall back (the walker
            // handles switch scoping itself and reports the splitter
            // bug for reactive statements verbatim).
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
            self.stmt_or_fallback(i)?;
        }
        let l_head = self.label();
        let l_step = self.label();
        let l_end = self.label();
        self.bind(l_head);
        self.burn(s.span); // per-iteration burn
        if let Some(c) = cond {
            let save = self.next_reg;
            let (rc, _) = self.expr(c)?;
            self.next_reg = save;
            self.jmp_if(rc, l_end, false);
        }
        self.loops.push((l_end, l_step));
        let r = self.stmt_or_fallback(body);
        self.loops.pop();
        r?;
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
                    let (r, _) = self.expr(e)?;
                    self.next_reg = save;
                    self.ops.push(Op::Conv {
                        dst: reg,
                        src: r,
                        ext,
                    });
                }
                None => self.ops.push(Op::Const { dst: reg, v: 0 }),
            }
            self.scopes
                .last_mut()
                .ok_or(Unsupported)?
                .push((decl.name.name.clone(), reg, ty));
            self.locals_count += 1;
        }
        Ok(())
    }
}
