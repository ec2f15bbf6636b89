//! Interpreter for the C data sub-language.
//!
//! The ECL splitter extracts "data loops" and straight-line C fragments
//! from reactive modules (paper Section 4); at simulation time those
//! fragments run through this interpreter against the module's local
//! variable frame. Plain user C functions are also executed here.
//!
//! Design points:
//!
//! * values are byte-level ([`crate::value::Value`]), so unions and
//!   aggregate copies behave like C;
//! * signal *values* are read through the [`SignalReader`] trait — the
//!   paper overloads signal names to mean "value" in C expression
//!   contexts, and the runtime provides the per-instant values;
//! * the machine is fuelled: runaway loops abort with an error instead
//!   of hanging the simulator (data loops are instantaneous in the
//!   synchronous semantics, so they must terminate).

use crate::types::{Type, TypeId, TypeTable};
use crate::value::Value;
use ecl_syntax::ast::{
    BinOp, Expr, ExprKind, Function, PrimType, Stmt, StmtKind, TypeRef, UnOp, VarDecl,
};
use ecl_syntax::diag::DiagSink;
use ecl_syntax::fxmap::FxHashMap;
use ecl_syntax::source::Span;
use std::fmt;
use std::sync::Arc;

/// Error during data-code evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// What went wrong.
    pub msg: String,
    /// Where.
    pub span: Span,
}

/// The walker's fuel-exhaustion error at `span`.
#[cold]
pub fn fuel_exhausted(span: Span) -> EvalError {
    EvalError {
        msg: "interpreter fuel exhausted (runaway data loop?)".into(),
        span,
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eval error: {} (at {})", self.msg, self.span)
    }
}

impl std::error::Error for EvalError {}

fn err<T>(msg: impl Into<String>, span: Span) -> Result<T, EvalError> {
    Err(EvalError {
        msg: msg.into(),
        span,
    })
}

/// Control-flow result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Flow {
    /// Fell through normally.
    Normal,
    /// `break` propagating to the nearest loop/switch.
    Break,
    /// `continue` propagating to the nearest loop.
    Continue,
    /// `return [value]` propagating to the function boundary.
    Return(Option<Value>),
}

/// Read access to the current instant's signal values.
///
/// Returns `Some(value)` only for names that denote *valued signals*
/// visible in the executing module; everything else returns `None` and
/// falls through to enum constants.
pub trait SignalReader {
    /// The value of signal `name` in the current instant, if any.
    fn read_signal(&self, name: &str) -> Option<Value>;
}

/// A [`SignalReader`] with no signals (plain C execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSignals;

impl SignalReader for NoSignals {
    fn read_signal(&self, _name: &str) -> Option<Value> {
        None
    }
}

/// A resolved lvalue: a variable slot plus a byte window into it.
/// Slot-addressed (no name), so resolving and accessing a place never
/// touches a string after the initial scope lookup.
#[derive(Debug, Clone, Copy)]
struct Place {
    scope: usize,
    slot: usize,
    offset: u32,
    ty: TypeId,
}

/// The name side of one scope: name → slot index into a dense value
/// store, and `names[i]`, the name bound to slot `i` (used to validate
/// the span-keyed identifier cache without hashing the name).
#[derive(Debug, Clone, Default)]
struct Names {
    index: FxHashMap<String, usize>,
    names: Vec<String>,
}

impl Names {
    /// Bind `name` to the next slot (the caller pushes its value).
    fn bind(&mut self, name: &str) {
        self.index.insert(name.to_string(), self.names.len());
        self.names.push(name.to_string());
    }
}

/// One inner variable scope (a block or a function frame).
#[derive(Debug, Clone, Default)]
struct Scope {
    names: Names,
    slots: Vec<Value>,
}

/// The data-code interpreter.
///
/// A clone is one session's copy: the type table, the function table
/// and the root scope's names (the design's flat frame layout) are
/// shared copy-on-write, so cloning copies only the root slot values
/// and per-session memo state. A shared part is copied only when this
/// machine really grows it — a type the table lacks, or a new root
/// binding from a walker-executed top-level declaration; finding an
/// existing type or overwriting a binding never copies. Append-only
/// interning keeps externally created [`TypeId`]s valid.
#[derive(Debug)]
pub struct Machine {
    table: Arc<TypeTable>,
    funcs: Arc<FxHashMap<String, Arc<Function>>>,
    /// Root scope: names shared copy-on-write, values per session.
    root_names: Arc<Names>,
    root: Vec<Value>,
    /// Inner scopes, innermost last (plain: never shared).
    scopes: Vec<Scope>,
    /// Index in `scopes` of the running C function's frame. A function
    /// sees only its own frame and the scopes above it — not the root
    /// scope, not its caller's locals.
    frame: Option<usize>,
    /// Identifier memo: source span → (declaration epoch, scope, slot)
    /// of the last resolution, scope 0 being the root and `i` inner
    /// scope `i - 1`. An entry is valid only when no *new* binding has
    /// been declared since it was recorded ([`Machine::decl_epoch`]
    /// unchanged — a later declaration could shadow the cached one),
    /// the scope is visible and the cached slot still carries the
    /// expected name; anything else falls back to the scope walk.
    ident_cache: FxHashMap<(u32, u32), (u64, u32, u32)>,
    /// Bumped whenever a new name is bound (not on overwrite): the
    /// validity fence of [`Machine::ident_cache`].
    decl_epoch: u64,
    fuel: u64,
}

impl Clone for Machine {
    fn clone(&self) -> Machine {
        Machine {
            table: Arc::clone(&self.table),
            funcs: Arc::clone(&self.funcs),
            root_names: Arc::clone(&self.root_names),
            root: self.root.clone(),
            scopes: self.scopes.clone(),
            frame: self.frame,
            ident_cache: self.ident_cache.clone(),
            decl_epoch: self.decl_epoch,
            fuel: self.fuel,
        }
    }

    /// Copies the session half into this machine's own buffers (a
    /// restore of the same design allocates nothing); a shared part is
    /// re-pointed only when it differs.
    fn clone_from(&mut self, source: &Machine) {
        repoint(&mut self.table, &source.table);
        repoint(&mut self.funcs, &source.funcs);
        repoint(&mut self.root_names, &source.root_names);
        self.root.clone_from(&source.root);
        self.scopes.clone_from(&source.scopes);
        self.frame = source.frame;
        self.ident_cache.clone_from(&source.ident_cache);
        self.decl_epoch = source.decl_epoch;
        self.fuel = source.fuel;
    }
}

/// Point `this` at `source`'s allocation unless it already does.
fn repoint<T: ?Sized>(this: &mut Arc<T>, source: &Arc<T>) {
    if !Arc::ptr_eq(this, source) {
        *this = Arc::clone(source);
    }
}

/// Default execution fuel: generous for real designs, finite for tests.
pub const DEFAULT_FUEL: u64 = 50_000_000;

impl Machine {
    /// Create a machine over a type table.
    pub fn new(table: TypeTable) -> Self {
        Machine {
            table: Arc::new(table),
            funcs: Arc::default(),
            root_names: Arc::default(),
            root: Vec::new(),
            scopes: Vec::new(),
            frame: None,
            ident_cache: FxHashMap::default(),
            decl_epoch: 0,
            fuel: DEFAULT_FUEL,
        }
    }

    /// Access the type table.
    pub fn table(&self) -> &TypeTable {
        &self.table
    }

    /// Mutable access to the type table (for resolving new types).
    /// Copies the table first if another machine shares it.
    pub fn table_mut(&mut self) -> &mut TypeTable {
        Arc::make_mut(&mut self.table)
    }

    /// Resolve a syntactic type, growing the table (a copy, if shared)
    /// only when the type is not in it yet.
    pub fn resolve_type(&mut self, ty: &TypeRef, sink: &mut DiagSink) -> Option<TypeId> {
        match self.table.lookup_ref(ty) {
            Some(id) => Some(id),
            None => self.table_mut().resolve(ty, sink),
        }
    }

    /// Limit the number of interpreter steps before aborting.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Remaining fuel.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Register a callable C function.
    pub fn add_function(&mut self, f: &Function) {
        Arc::make_mut(&mut self.funcs).insert(f.name.name.clone(), Arc::new(f.clone()));
    }

    /// Open a new variable scope.
    pub fn push_scope(&mut self) {
        self.scopes.push(Scope::default());
    }

    /// Close the innermost scope.
    ///
    /// # Panics
    ///
    /// Panics if only the root scope (or the running function's frame)
    /// remains.
    pub fn pop_scope(&mut self) {
        assert!(
            self.scopes.len() > self.frame.map_or(0, |f| f + 1),
            "cannot pop the root scope"
        );
        self.scopes.pop();
    }

    /// The lowest visible scope in the cache's numbering: the root at
    /// top level, the running function's frame inside a call.
    fn visible_base(&self) -> usize {
        self.frame.map_or(0, |f| f + 1)
    }

    fn names_of(&self, scope: usize) -> &Names {
        match scope {
            0 => &self.root_names,
            s => &self.scopes[s - 1].names,
        }
    }

    fn slot(&self, scope: usize, slot: usize) -> &Value {
        match scope {
            0 => &self.root[slot],
            s => &self.scopes[s - 1].slots[slot],
        }
    }

    fn slot_mut(&mut self, scope: usize, slot: usize) -> &mut Value {
        match scope {
            0 => &mut self.root[slot],
            s => &mut self.scopes[s - 1].slots[slot],
        }
    }

    /// Find a visible binding of `name`, innermost scope first.
    fn find(&self, name: &str) -> Option<(usize, usize)> {
        (self.visible_base()..=self.scopes.len())
            .rev()
            .find_map(|si| self.names_of(si).index.get(name).map(|&sl| (si, sl)))
    }

    /// Declare (or overwrite) a variable in the innermost scope. Only a
    /// new root binding copies the shared root names.
    pub fn declare(&mut self, name: &str, v: Value) {
        let scope = self.scopes.len();
        match self.names_of(scope).index.get(name) {
            Some(&slot) => *self.slot_mut(scope, slot) = v,
            None => {
                match self.scopes.last_mut() {
                    Some(s) => {
                        s.names.bind(name);
                        s.slots.push(v);
                    }
                    None => {
                        Arc::make_mut(&mut self.root_names).bind(name);
                        self.root.push(v);
                    }
                }
                // A new binding may shadow cached resolutions.
                self.decl_epoch += 1;
            }
        }
    }

    /// Find the binding of `name` at source position `span`, through
    /// the span-keyed memo when possible.
    fn lookup_ident(&mut self, name: &str, span: Span) -> Option<(usize, usize)> {
        let key = (span.start, span.end);
        if let Some(&(epoch, si, sl)) = self.ident_cache.get(&key) {
            let (si, sl) = (si as usize, sl as usize);
            if epoch == self.decl_epoch
                && (self.visible_base()..=self.scopes.len()).contains(&si)
                && self.names_of(si).names.get(sl).is_some_and(|n| n == name)
            {
                return Some((si, sl));
            }
        }
        let (si, sl) = self.find(name)?;
        self.ident_cache
            .insert(key, (self.decl_epoch, si as u32, sl as u32));
        Some((si, sl))
    }

    /// Read a variable (innermost scope wins).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.find(name).map(|(si, sl)| self.slot(si, sl))
    }

    /// Overwrite an existing variable wherever it lives.
    pub fn set(&mut self, name: &str, v: Value) -> bool {
        match self.find(name) {
            Some((si, sl)) => {
                *self.slot_mut(si, sl) = v;
                true
            }
            None => false,
        }
    }

    fn burn(&mut self, span: Span) -> Result<(), EvalError> {
        if self.fuel == 0 {
            return Err(fuel_exhausted(span));
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Charge `n` interpreter steps at once — the compiled path's
    /// batched equivalent of `n` `Machine::burn` calls: returns whether
    /// the walker would have survived all `n`, and leaves the fuel at 0
    /// on exhaustion (exactly where the walker's step-by-step decrement
    /// would have errored with [`fuel_exhausted`]).
    #[inline]
    pub fn burn_n(&mut self, n: u64) -> bool {
        if self.fuel < n {
            self.fuel = 0;
            return false;
        }
        self.fuel -= n;
        true
    }

    // -- root-scope (flat frame) access for compiled reactions ------------

    /// Number of slots in the root scope (the design's flat variable
    /// frame). Root bindings are append-only: only a declaration the
    /// walker runs outside any block adds one.
    pub fn root_len(&self) -> usize {
        self.root.len()
    }

    /// Root-scope slot of `name`, if bound there.
    pub fn root_lookup(&self, name: &str) -> Option<usize> {
        self.root_names.index.get(name).copied()
    }

    /// Read a root-scope slot by index (the compiled variable load path).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn root_value(&self, slot: usize) -> &Value {
        &self.root[slot]
    }

    /// Mutable root-scope slot by index (the compiled variable store
    /// path).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn root_value_mut(&mut self, slot: usize) -> &mut Value {
        &mut self.root[slot]
    }

    /// Iterate the root scope's `(name, value)` bindings in slot order
    /// (differential tests compare whole frames through this).
    pub fn root_entries(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.root_names
            .names
            .iter()
            .map(String::as_str)
            .zip(self.root.iter())
    }

    // -- expressions -----------------------------------------------------

    /// Evaluate an expression to a value.
    ///
    /// # Errors
    ///
    /// Any type mismatch, unknown name, division by zero or fuel
    /// exhaustion yields an [`EvalError`].
    pub fn eval(&mut self, e: &Expr, sigs: &dyn SignalReader) -> Result<Value, EvalError> {
        self.burn(e.span)?;
        match &e.kind {
            ExprKind::IntLit(v) => {
                let int = self.table.int();
                Ok(Value::from_i64(&self.table, int, *v))
            }
            ExprKind::FloatLit(v) => {
                let d = self.table.prim(PrimType::Double);
                Ok(Value::from_f64(&self.table, d, *v))
            }
            ExprKind::CharLit(c) => {
                let ch = self.table.prim(PrimType::Char);
                Ok(Value::from_i64(&self.table, ch, *c as i64))
            }
            ExprKind::StrLit(_) => err("string literals are not supported in data code", e.span),
            ExprKind::Ident(id) => {
                if let Some((si, sl)) = self.lookup_ident(&id.name, id.span) {
                    return Ok(self.slot(si, sl).clone());
                }
                if let Some(v) = sigs.read_signal(&id.name) {
                    return Ok(v);
                }
                if let Some(c) = self.table.enum_consts.get(&id.name).copied() {
                    let int = self.table.int();
                    return Ok(Value::from_i64(&self.table, int, c));
                }
                err(format!("unknown name `{}`", id.name), id.span)
            }
            ExprKind::Unary(op, inner) => self.eval_unary(*op, inner, e.span, sigs),
            ExprKind::Binary(op, a, b) => self.eval_binary(*op, a, b, e.span, sigs),
            ExprKind::Assign(op, lhs, rhs) => {
                let rv = self.eval(rhs, sigs)?;
                let place = self.resolve_place(lhs, sigs)?;
                let new = match op.binop() {
                    None => self.convert_or_err(rv, place.ty, rhs.span)?,
                    Some(bop) => {
                        let old = self.read_place(&place);
                        let combined = self.apply_binop(bop, &old, &rv, e.span)?;
                        self.convert_or_err(combined, place.ty, e.span)?
                    }
                };
                self.write_place(&place, &new);
                Ok(new)
            }
            ExprKind::PreIncDec(inc, inner) => {
                let place = self.resolve_place(inner, sigs)?;
                let old = self.read_place(&place);
                let int = self.table.int();
                let one = Value::from_i64(&self.table, int, 1);
                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                let newv = self.apply_binop(op, &old, &one, e.span)?;
                let newv = self.convert_or_err(newv, place.ty, e.span)?;
                self.write_place(&place, &newv);
                Ok(newv)
            }
            ExprKind::PostIncDec(inc, inner) => {
                let place = self.resolve_place(inner, sigs)?;
                let old = self.read_place(&place);
                let int = self.table.int();
                let one = Value::from_i64(&self.table, int, 1);
                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                let newv = self.apply_binop(op, &old, &one, e.span)?;
                let newv = self.convert_or_err(newv, place.ty, e.span)?;
                self.write_place(&place, &newv);
                Ok(old)
            }
            ExprKind::Ternary(c, t, f) => {
                if self.eval(c, sigs)?.is_truthy() {
                    self.eval(t, sigs)
                } else {
                    self.eval(f, sigs)
                }
            }
            ExprKind::Call(name, args) => self.eval_call(&name.name, args, e.span, sigs),
            ExprKind::Index(_, _) | ExprKind::Member(_, _) | ExprKind::Arrow(_, _) => {
                // Projections rooted in a variable are lvalue reads;
                // projections rooted in a signal value (the paper reads
                // `inpkt.cooked.header[j]` where `inpkt` is a signal)
                // or another rvalue are evaluated by value.
                if self.rooted_in_variable(e) {
                    let place = self.resolve_place(e, sigs)?;
                    Ok(self.read_place(&place))
                } else {
                    self.eval_projection(e, sigs)
                }
            }
            ExprKind::Cast(ty_ref, inner) => {
                let v = self.eval(inner, sigs)?;
                let mut sink = DiagSink::new();
                let Some(to) = self.resolve_type(ty_ref, &mut sink) else {
                    return err("cannot resolve cast target type", e.span);
                };
                self.convert_or_err(v, to, e.span)
            }
            ExprKind::SizeofType(ty_ref) => {
                let mut sink = DiagSink::new();
                let Some(ty) = self.resolve_type(ty_ref, &mut sink) else {
                    return err("cannot resolve sizeof type", e.span);
                };
                let int = self.table.int();
                let size = self.table.size_of(ty);
                Ok(Value::from_i64(&self.table, int, size as i64))
            }
            ExprKind::SizeofExpr(inner) => {
                let v = self.eval(inner, sigs)?;
                let int = self.table.int();
                Ok(Value::from_i64(&self.table, int, v.bytes.len() as i64))
            }
            ExprKind::Comma(a, b) => {
                self.eval(a, sigs)?;
                self.eval(b, sigs)
            }
        }
    }

    fn convert_or_err(&self, v: Value, to: TypeId, span: Span) -> Result<Value, EvalError> {
        let from = v.ty;
        match v.convert(&self.table, to) {
            Some(v) => Ok(v),
            None => err(
                format!(
                    "cannot convert `{}` to `{}`",
                    self.table.name_of(from),
                    self.table.name_of(to)
                ),
                span,
            ),
        }
    }

    fn eval_unary(
        &mut self,
        op: UnOp,
        inner: &Expr,
        span: Span,
        sigs: &dyn SignalReader,
    ) -> Result<Value, EvalError> {
        let v = self.eval(inner, sigs)?;
        let t = self.table.get(v.ty);
        match op {
            UnOp::Plus => Ok(v),
            UnOp::Neg => {
                if t.is_float() {
                    let x = v.as_f64(&self.table);
                    Ok(Value::from_f64(&self.table, v.ty, -x))
                } else if t.is_integer() {
                    let ty = self.promote(v.ty);
                    let x = v.as_i64(&self.table);
                    Ok(Value::from_i64(&self.table, ty, x.wrapping_neg()))
                } else {
                    err("negation needs a numeric operand", span)
                }
            }
            UnOp::Not => {
                let int = self.table.int();
                Ok(Value::from_i64(&self.table, int, (!v.is_truthy()) as i64))
            }
            UnOp::BitNot => {
                if !t.is_integer() {
                    return err("`~` needs an integer operand", span);
                }
                let ty = self.promote(v.ty);
                let x = v.as_i64(&self.table);
                Ok(Value::from_i64(&self.table, ty, !x))
            }
            UnOp::Deref | UnOp::AddrOf => err(
                "pointer operations are not supported in interpreted data code \
                 (see DESIGN.md: the paper's designs do not use them)",
                span,
            ),
        }
    }

    /// Integer promotion: ranks below `int` widen to `int`.
    fn promote(&mut self, ty: TypeId) -> TypeId {
        match self.table.get(ty) {
            Type::Bool | Type::Char | Type::UChar | Type::Short | Type::UShort | Type::Enum(_) => {
                self.table.int()
            }
            _ => ty,
        }
    }

    /// Usual arithmetic conversions (simplified to the 32-bit target).
    fn usual_arith(&mut self, a: TypeId, b: TypeId) -> TypeId {
        let ta = self.table.get(a);
        let tb = self.table.get(b);
        if ta == Type::Double || tb == Type::Double {
            return self.table.prim(PrimType::Double);
        }
        if ta == Type::Float || tb == Type::Float {
            return self.table.prim(PrimType::Float);
        }
        let pa = self.promote(a);
        let pb = self.promote(b);
        let ta = self.table.get(pa);
        let tb = self.table.get(pb);
        // Same-size: unsigned wins; otherwise the larger size wins.
        let sa = self.table.size_of(pa);
        let sb = self.table.size_of(pb);
        if sa == sb {
            if ta.is_unsigned() || tb.is_unsigned() {
                self.table.prim(PrimType::UInt)
            } else {
                pa
            }
        } else if sa > sb {
            pa
        } else {
            pb
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        span: Span,
        sigs: &dyn SignalReader,
    ) -> Result<Value, EvalError> {
        // Short-circuit operators first.
        if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
            let int = self.table.int();
            let va = self.eval(a, sigs)?;
            let result = match op {
                BinOp::LogAnd => va.is_truthy() && self.eval(b, sigs)?.is_truthy(),
                BinOp::LogOr => va.is_truthy() || self.eval(b, sigs)?.is_truthy(),
                _ => unreachable!(),
            };
            return Ok(Value::from_i64(&self.table, int, result as i64));
        }
        let va = self.eval(a, sigs)?;
        let vb = self.eval(b, sigs)?;
        self.apply_binop(op, &va, &vb, span)
    }

    /// Apply a (non-short-circuit) binary operator to two values.
    fn apply_binop(
        &mut self,
        op: BinOp,
        va: &Value,
        vb: &Value,
        span: Span,
    ) -> Result<Value, EvalError> {
        // Fast path: both operands already share a 32-bit integer type
        // (the overwhelmingly common case in extracted data code) — no
        // promotion, no conversions, no table walks.
        if va.ty == vb.ty {
            let t = self.table.get(va.ty);
            if matches!(t, Type::Int | Type::UInt) {
                if let Some(v) = self.int_binop(op, va, vb, t == Type::UInt, span)? {
                    return Ok(v);
                }
            }
        }
        let ta = self.table.get(va.ty);
        let tb = self.table.get(vb.ty);
        if !ta.is_scalar() && !matches!(ta, Type::Array(_, _)) {
            return err("left operand is not scalar", span);
        }
        if !tb.is_scalar() && !matches!(tb, Type::Array(_, _)) {
            return err("right operand is not scalar", span);
        }
        // Array operands bit-cast to integers (reproduction extension,
        // used by Figure 2's crc comparison).
        let int = self.table.int();
        let va = if matches!(ta, Type::Array(_, _)) {
            self.convert_or_err(va.clone(), int, span)?
        } else {
            va.clone()
        };
        let vb = if matches!(tb, Type::Array(_, _)) {
            self.convert_or_err(vb.clone(), int, span)?
        } else {
            vb.clone()
        };
        let common = self.usual_arith(va.ty, vb.ty);
        let tc = self.table.get(common);
        if tc.is_float() {
            let x = va
                .convert(&self.table, common)
                .expect("float conv")
                .as_f64(&self.table);
            let y = vb
                .convert(&self.table, common)
                .expect("float conv")
                .as_f64(&self.table);
            let fv = |m: &Self, v: f64| Value::from_f64(&m.table, common, v);
            let bv = |m: &mut Self, v: bool| {
                let int = m.table.int();
                Value::from_i64(&m.table, int, v as i64)
            };
            return Ok(match op {
                BinOp::Add => fv(self, x + y),
                BinOp::Sub => fv(self, x - y),
                BinOp::Mul => fv(self, x * y),
                BinOp::Div => {
                    if y == 0.0 {
                        return err("float division by zero", span);
                    }
                    fv(self, x / y)
                }
                BinOp::Lt => bv(self, x < y),
                BinOp::Gt => bv(self, x > y),
                BinOp::Le => bv(self, x <= y),
                BinOp::Ge => bv(self, x >= y),
                BinOp::Eq => bv(self, x == y),
                BinOp::Ne => bv(self, x != y),
                _ => return err("operator not defined for floats", span),
            });
        }
        // Integer path. Shifts keep the promoted LHS type.
        let unsigned = tc.is_unsigned();
        let x = va
            .convert(&self.table, common)
            .expect("int conv")
            .as_i64(&self.table);
        let y = vb
            .convert(&self.table, common)
            .expect("int conv")
            .as_i64(&self.table);
        Ok(self
            .apply_int_op(op, common, unsigned, x, y, span)?
            .expect("short-circuit handled earlier"))
    }

    /// The integer fast path of [`Machine::apply_binop`]: both
    /// operands already share the same `int`/`unsigned int` type, so
    /// promotion and conversion are skipped and the shared operator
    /// kernel runs directly. Returns `Ok(None)` for operators the
    /// integer kernel does not cover (caller falls back).
    fn int_binop(
        &mut self,
        op: BinOp,
        va: &Value,
        vb: &Value,
        unsigned: bool,
        span: Span,
    ) -> Result<Option<Value>, EvalError> {
        let x = va.as_i64(&self.table);
        let y = vb.as_i64(&self.table);
        self.apply_int_op(op, va.ty, unsigned, x, y, span)
    }

    /// The one integer operator kernel shared by the generic and the
    /// same-type fast path of [`Machine::apply_binop`]: `x op y` with
    /// the result in type `common` (comparisons produce `int`).
    /// Returns `Ok(None)` only for the short-circuit operators, which
    /// both callers handle before reaching here.
    fn apply_int_op(
        &mut self,
        op: BinOp,
        common: TypeId,
        unsigned: bool,
        x: i64,
        y: i64,
        span: Span,
    ) -> Result<Option<Value>, EvalError> {
        let iv = |m: &Self, v: i64| Some(Value::from_i64(&m.table, common, v));
        let bv = |m: &mut Self, v: bool| {
            let int = m.table.int();
            Some(Value::from_i64(&m.table, int, v as i64))
        };
        Ok(match op {
            BinOp::Add => iv(self, x.wrapping_add(y)),
            BinOp::Sub => iv(self, x.wrapping_sub(y)),
            BinOp::Mul => iv(self, x.wrapping_mul(y)),
            BinOp::Div => {
                if y == 0 {
                    return err("integer division by zero", span);
                }
                if unsigned {
                    iv(self, ((x as u64) / (y as u64)) as i64)
                } else {
                    iv(self, x.wrapping_div(y))
                }
            }
            BinOp::Rem => {
                if y == 0 {
                    return err("integer remainder by zero", span);
                }
                if unsigned {
                    iv(self, ((x as u64) % (y as u64)) as i64)
                } else {
                    iv(self, x.wrapping_rem(y))
                }
            }
            BinOp::Shl => iv(self, x.wrapping_shl(y as u32 & 63)),
            BinOp::Shr => {
                if unsigned {
                    // Logical shift on the 32-bit value.
                    let xw = (x as u64) & 0xFFFF_FFFF;
                    iv(self, (xw >> (y as u32 & 63)) as i64)
                } else {
                    iv(self, x.wrapping_shr(y as u32 & 63))
                }
            }
            BinOp::Lt => bv(
                self,
                if unsigned {
                    (x as u64) < y as u64
                } else {
                    x < y
                },
            ),
            BinOp::Gt => bv(
                self,
                if unsigned {
                    (x as u64) > y as u64
                } else {
                    x > y
                },
            ),
            BinOp::Le => bv(
                self,
                if unsigned {
                    x as u64 <= y as u64
                } else {
                    x <= y
                },
            ),
            BinOp::Ge => bv(
                self,
                if unsigned {
                    x as u64 >= y as u64
                } else {
                    x >= y
                },
            ),
            BinOp::Eq => bv(self, x == y),
            BinOp::Ne => bv(self, x != y),
            BinOp::BitAnd => iv(self, x & y),
            BinOp::BitXor => iv(self, x ^ y),
            BinOp::BitOr => iv(self, x | y),
            BinOp::LogAnd | BinOp::LogOr => None,
        })
    }

    fn eval_call(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
        sigs: &dyn SignalReader,
    ) -> Result<Value, EvalError> {
        let Some(f) = self.funcs.get(name).map(Arc::clone) else {
            return err(format!("unknown function `{name}`"), span);
        };
        let Some(body) = f.body.as_ref() else {
            return err(format!("function `{name}` has no body"), span);
        };
        if args.len() != f.params.len() {
            return err(
                format!(
                    "`{name}` expects {} arguments, got {}",
                    f.params.len(),
                    args.len()
                ),
                span,
            );
        }
        // Evaluate arguments in the caller scope.
        let mut vals = Vec::new();
        for (p, a) in f.params.iter().zip(args) {
            let v = self.eval(a, sigs)?;
            let mut sink = DiagSink::new();
            let Some(pt) = self.resolve_type(&p.ty, &mut sink) else {
                return err(format!("cannot resolve parameter type of `{name}`"), span);
            };
            vals.push((p.name.name.clone(), self.convert_or_err(v, pt, a.span)?));
        }
        // Fresh function frame (C functions do not see caller locals).
        let frame = self.scopes.len();
        let caller = self.frame.replace(frame);
        self.scopes.push(Scope::default());
        for (n, v) in vals {
            self.declare(&n, v);
        }
        let result = (|| -> Result<Value, EvalError> {
            for s in &body.stmts {
                match self.exec(s, sigs)? {
                    Flow::Return(Some(v)) => return Ok(v),
                    Flow::Return(None) => break,
                    Flow::Normal => {}
                    Flow::Break | Flow::Continue => {
                        return err("break/continue outside loop", span)
                    }
                }
            }
            let void = self.table.prim(PrimType::Void);
            Ok(Value::zero(&self.table, void))
        })();
        self.scopes.truncate(frame);
        self.frame = caller;
        result
    }

    /// Is the root of a projection chain a variable currently in scope?
    fn rooted_in_variable(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Ident(id) => self.get(&id.name).is_some(),
            ExprKind::Index(base, _) | ExprKind::Member(base, _) | ExprKind::Arrow(base, _) => {
                self.rooted_in_variable(base)
            }
            _ => false,
        }
    }

    /// Evaluate a field/element projection on an rvalue.
    fn eval_projection(&mut self, e: &Expr, sigs: &dyn SignalReader) -> Result<Value, EvalError> {
        match &e.kind {
            ExprKind::Member(base, field) => {
                let v = self.eval(base, sigs)?;
                let rec = match self.table.get(v.ty) {
                    Type::Struct(r) | Type::Union(r) => self.table.record(r),
                    _ => return err("member access on a non-record value", e.span),
                };
                let Some(f) = rec.field(&field.name) else {
                    return err(format!("no field `{}`", field.name), field.span);
                };
                let (offset, ty) = (f.offset, f.ty);
                Ok(v.read_at(&self.table, offset, ty))
            }
            ExprKind::Index(base, idx) => {
                let v = self.eval(base, sigs)?;
                let Type::Array(elem, n) = self.table.get(v.ty) else {
                    return err("indexing a non-array value", e.span);
                };
                let i = self.eval(idx, sigs)?.as_i64(&self.table);
                if i < 0 || i as u32 >= n {
                    return err(format!("index {i} out of bounds (len {n})"), e.span);
                }
                let off = self.table.size_of(elem) * i as u32;
                Ok(v.read_at(&self.table, off, elem))
            }
            ExprKind::Arrow(_, _) => err(
                "`->` needs pointers, which interpreted data code does not support",
                e.span,
            ),
            _ => err("not a projection", e.span),
        }
    }

    // -- places (lvalues) --------------------------------------------------

    fn resolve_place(&mut self, e: &Expr, sigs: &dyn SignalReader) -> Result<Place, EvalError> {
        match &e.kind {
            ExprKind::Ident(id) => {
                if let Some((scope, slot)) = self.lookup_ident(&id.name, id.span) {
                    return Ok(Place {
                        scope,
                        slot,
                        offset: 0,
                        ty: self.slot(scope, slot).ty,
                    });
                }
                err(format!("cannot assign to `{}`", id.name), id.span)
            }
            ExprKind::Index(base, idx) => {
                let b = self.resolve_place(base, sigs)?;
                let Type::Array(elem, n) = self.table.get(b.ty) else {
                    return err("indexing a non-array", e.span);
                };
                let i = self.eval(idx, sigs)?.as_i64(&self.table);
                if i < 0 || i as u32 >= n {
                    return err(format!("index {i} out of bounds (len {n})"), e.span);
                }
                Ok(Place {
                    offset: b.offset + self.table.size_of(elem) * i as u32,
                    ty: elem,
                    ..b
                })
            }
            ExprKind::Member(base, field) => {
                let b = self.resolve_place(base, sigs)?;
                let rec = match self.table.get(b.ty) {
                    Type::Struct(r) | Type::Union(r) => self.table.record(r),
                    _ => return err("member access on a non-record", e.span),
                };
                let Some(f) = rec.field(&field.name) else {
                    return err(format!("no field `{}`", field.name), field.span);
                };
                let (offset, ty) = (f.offset, f.ty);
                Ok(Place {
                    offset: b.offset + offset,
                    ty,
                    ..b
                })
            }
            ExprKind::Arrow(_, _) => err(
                "`->` needs pointers, which interpreted data code does not support",
                e.span,
            ),
            _ => err("not an lvalue", e.span),
        }
    }

    fn read_place(&self, p: &Place) -> Value {
        self.slot(p.scope, p.slot)
            .read_at(&self.table, p.offset, p.ty)
    }

    fn write_place(&mut self, p: &Place, v: &Value) {
        self.slot_mut(p.scope, p.slot).write_at(p.offset, v);
    }

    // -- statements -------------------------------------------------------

    /// Execute one statement.
    ///
    /// # Errors
    ///
    /// Reactive (ECL) statements are rejected: the splitter must never
    /// leave them inside extracted data code.
    pub fn exec(&mut self, s: &Stmt, sigs: &dyn SignalReader) -> Result<Flow, EvalError> {
        self.burn(s.span)?;
        match &s.kind {
            StmtKind::Expr(None) => Ok(Flow::Normal),
            StmtKind::Expr(Some(e)) => {
                self.eval(e, sigs)?;
                Ok(Flow::Normal)
            }
            StmtKind::Decl(d) => {
                self.exec_decl(d, sigs)?;
                Ok(Flow::Normal)
            }
            StmtKind::Block(b) => {
                self.push_scope();
                let r = self.exec_all(&b.stmts, sigs);
                self.pop_scope();
                r
            }
            StmtKind::If { cond, then, els } => {
                if self.eval(cond, sigs)?.is_truthy() {
                    self.exec(then, sigs)
                } else if let Some(e) = els {
                    self.exec(e, sigs)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                loop {
                    self.burn(s.span)?;
                    if !self.eval(cond, sigs)?.is_truthy() {
                        break;
                    }
                    match self.exec(body, sigs)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::DoWhile { body, cond } => {
                loop {
                    self.burn(s.span)?;
                    match self.exec(body, sigs)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if !self.eval(cond, sigs)?.is_truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                let r = (|| -> Result<Flow, EvalError> {
                    if let Some(i) = init {
                        self.exec(i, sigs)?;
                    }
                    loop {
                        self.burn(s.span)?;
                        if let Some(c) = cond {
                            if !self.eval(c, sigs)?.is_truthy() {
                                break;
                            }
                        }
                        match self.exec(body, sigs)? {
                            Flow::Break => break,
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                            Flow::Normal | Flow::Continue => {}
                        }
                        if let Some(st) = step {
                            self.eval(st, sigs)?;
                        }
                    }
                    Ok(Flow::Normal)
                })();
                self.pop_scope();
                r
            }
            StmtKind::Switch { scrutinee, arms } => {
                let v = self.eval(scrutinee, sigs)?.as_i64(&self.table);
                // Find the matching arm (or default), then run with
                // fallthrough until `break`.
                let mut start = None;
                for (i, arm) in arms.iter().enumerate() {
                    if let Some(case) = &arm.value {
                        let cv = self.eval(case, sigs)?.as_i64(&self.table);
                        if cv == v {
                            start = Some(i);
                            break;
                        }
                    }
                }
                if start.is_none() {
                    start = arms.iter().position(|a| a.value.is_none());
                }
                if let Some(from) = start {
                    self.push_scope();
                    for arm in &arms[from..] {
                        for st in &arm.stmts {
                            match self.exec(st, sigs) {
                                Ok(Flow::Break) => {
                                    self.pop_scope();
                                    return Ok(Flow::Normal);
                                }
                                Ok(Flow::Return(v)) => {
                                    self.pop_scope();
                                    return Ok(Flow::Return(v));
                                }
                                Ok(Flow::Continue) => {
                                    self.pop_scope();
                                    return Ok(Flow::Continue);
                                }
                                Ok(Flow::Normal) => {}
                                Err(e) => {
                                    self.pop_scope();
                                    return Err(e);
                                }
                            }
                        }
                    }
                    self.pop_scope();
                }
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.eval(e, sigs)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Await(_)
            | StmtKind::AwaitImmediate(_)
            | StmtKind::Emit(_)
            | StmtKind::EmitV(_, _)
            | StmtKind::Halt
            | StmtKind::Present { .. }
            | StmtKind::Abort { .. }
            | StmtKind::Suspend { .. }
            | StmtKind::Par(_)
            | StmtKind::Signal(_) => err(
                "reactive statement reached the data interpreter — splitter bug",
                s.span,
            ),
        }
    }

    /// Execute a statement list in the current scope.
    pub fn exec_all(&mut self, stmts: &[Stmt], sigs: &dyn SignalReader) -> Result<Flow, EvalError> {
        for st in stmts {
            match self.exec(st, sigs)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Declare the variables of a declaration statement.
    pub fn exec_decl(&mut self, d: &VarDecl, sigs: &dyn SignalReader) -> Result<(), EvalError> {
        for decl in &d.decls {
            let mut sink = DiagSink::new();
            let Some(ty) = self.resolve_type(&decl.ty, &mut sink) else {
                return err(
                    format!("cannot resolve type of `{}`", decl.name.name),
                    d.span,
                )?;
            };
            let v = match &decl.init {
                Some(e) => {
                    let raw = self.eval(e, sigs)?;
                    self.convert_or_err(raw, ty, e.span)?
                }
                None => Value::zero(&self.table, ty),
            };
            self.declare(&decl.name.name, v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_syntax::parse_str;

    /// Run `body` as the contents of a C function `void t() { ... }` and
    /// return the machine for inspection.
    fn run(decls: &str, body: &str) -> Machine {
        let src = format!("{decls}\nvoid t() {{ {body} }}");
        let prog = parse_str(&src).expect("parse");
        let mut sink = DiagSink::new();
        let table = TypeTable::build(&prog, &mut sink);
        assert!(!sink.has_errors(), "{sink}");
        let mut m = Machine::new(table);
        for f in prog.functions() {
            m.add_function(f);
        }
        let f = prog.functions().find(|f| f.name.name == "t").unwrap();
        let body = f.body.clone().unwrap();
        for s in &body.stmts {
            m.exec(s, &NoSignals).expect("exec");
        }
        m
    }

    fn int_var(m: &Machine, name: &str) -> i64 {
        m.get(name).unwrap().as_i64(m.table())
    }

    #[test]
    fn arithmetic_and_assignment() {
        let m = run("", "int x; int y; x = 6; y = x * 7;");
        assert_eq!(int_var(&m, "y"), 42);
    }

    #[test]
    fn compound_assignment_and_incdec() {
        let m = run("", "int x = 10; x += 5; x <<= 1; x--; ++x; int y = x++;");
        assert_eq!(int_var(&m, "y"), 30);
        assert_eq!(int_var(&m, "x"), 31);
    }

    #[test]
    fn late_shadowing_declaration_wins_over_cached_binding() {
        // Iteration 0 resolves `x` at the shared use site to the outer
        // binding (and memoizes it); iteration 1 declares a shadowing
        // `x` in the loop scope before the same use site runs again.
        // The identifier memo must notice the new binding (declaration
        // epoch) and re-resolve: acc = 1 + 5, not 1 + 1.
        let m = run(
            "",
            "int x = 1; int acc = 0; int i; \
             for (i = 0; i < 2; i++) { if (i == 1) int x = 5; acc = acc + x; }",
        );
        assert_eq!(int_var(&m, "acc"), 6);
    }

    #[test]
    fn while_and_for_loops() {
        let m = run(
            "",
            "int sum = 0; int i; for (i = 1; i <= 10; i++) { sum += i; } \
             int n = 0; while (n < 4) { n = n + 1; }",
        );
        assert_eq!(int_var(&m, "sum"), 55);
        assert_eq!(int_var(&m, "n"), 4);
    }

    #[test]
    fn crc_loop_from_figure_2() {
        // The exact CRC accumulation of the paper's Figure 2.
        let m = run(
            "#define PKTSIZE 8\ntypedef unsigned char byte;\
             typedef struct { byte packet[PKTSIZE]; } raw_t;",
            "raw_t p; int i; unsigned int crc; \
             for (i = 0; i < PKTSIZE; i++) { p.packet[i] = i + 1; } \
             for (i = 0, crc = 0; i < PKTSIZE; i++) { crc = (crc ^ p.packet[i]) << 1; }",
        );
        // Reference computation in Rust.
        let mut crc: u32 = 0;
        for i in 0..8u32 {
            crc = (crc ^ (i + 1)) << 1;
        }
        assert_eq!(int_var(&m, "crc") as u32, crc);
    }

    #[test]
    fn struct_and_union_access() {
        let m = run(
            "typedef unsigned char byte;\
             typedef struct { byte a[2]; byte b[2]; } two_t;\
             typedef union { byte raw[4]; two_t parts; } u_t;",
            "u_t u; u.raw[0] = 1; u.raw[1] = 2; u.raw[2] = 3; u.raw[3] = 4; \
             int x = u.parts.b[0]; int y = u.parts.b[1];",
        );
        assert_eq!(int_var(&m, "x"), 3);
        assert_eq!(int_var(&m, "y"), 4);
    }

    #[test]
    fn function_calls() {
        let m = run(
            "int add(int a, int b) { return a + b; }\
             int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }",
            "int s = add(2, 3); int f = fib(10);",
        );
        assert_eq!(int_var(&m, "s"), 5);
        assert_eq!(int_var(&m, "f"), 55);
    }

    #[test]
    fn switch_with_fallthrough() {
        let m = run(
            "",
            "int x = 2; int r = 0; \
             switch (x) { case 1: r += 1; case 2: r += 10; case 3: r += 100; break; default: r = -1; }",
        );
        assert_eq!(int_var(&m, "r"), 110);
    }

    #[test]
    fn switch_default() {
        let m = run(
            "",
            "int x = 99; int r = 0; switch (x) { case 1: r = 1; break; default: r = 7; }",
        );
        assert_eq!(int_var(&m, "r"), 7);
    }

    #[test]
    fn unsigned_semantics() {
        let m = run(
            "",
            "unsigned int u = 0; u = u - 1; int big = u > 100; \
             unsigned int h = u >> 28;",
        );
        assert_eq!(int_var(&m, "big"), 1); // 0xFFFFFFFF > 100 unsigned
        assert_eq!(int_var(&m, "h"), 0xF);
    }

    #[test]
    fn division_by_zero_reported() {
        let src = "void t() { int x = 1 / 0; }";
        let prog = parse_str(src).unwrap();
        let mut sink = DiagSink::new();
        let table = TypeTable::build(&prog, &mut sink);
        let mut m = Machine::new(table);
        let f = prog.functions().next().unwrap();
        let s = &f.body.as_ref().unwrap().stmts[0];
        assert!(m.exec(s, &NoSignals).is_err());
    }

    #[test]
    fn fuel_stops_infinite_loop() {
        let src = "void t() { while (1) { } }";
        let prog = parse_str(src).unwrap();
        let mut sink = DiagSink::new();
        let table = TypeTable::build(&prog, &mut sink);
        let mut m = Machine::new(table);
        m.set_fuel(10_000);
        let f = prog.functions().next().unwrap();
        let s = &f.body.as_ref().unwrap().stmts[0];
        let e = m.exec(s, &NoSignals).unwrap_err();
        assert!(e.msg.contains("fuel"), "{e}");
    }

    #[test]
    fn signal_values_resolve_via_reader() {
        struct OneSig(TypeId);
        impl SignalReader for OneSig {
            fn read_signal(&self, name: &str) -> Option<Value> {
                (name == "in_byte").then(|| Value {
                    ty: self.0,
                    bytes: vec![7].into(),
                })
            }
        }
        let prog = parse_str("void t() { int x; x = in_byte + 1; }").unwrap();
        let mut sink = DiagSink::new();
        let table = TypeTable::build(&prog, &mut sink);
        let mut m = Machine::new(table);
        let uc = m.table().uchar();
        let f = prog.functions().next().unwrap();
        for s in &f.body.as_ref().unwrap().stmts {
            m.exec(s, &OneSig(uc)).unwrap();
        }
        assert_eq!(int_var(&m, "x"), 8);
    }

    #[test]
    fn reactive_statement_rejected() {
        let prog = parse_str("module m(input pure a) { await (a); }").unwrap();
        let m_ast = prog.module("m").unwrap();
        let mut sink = DiagSink::new();
        let table = TypeTable::build(&prog, &mut sink);
        let mut m = Machine::new(table);
        assert!(m.exec(&m_ast.body.stmts[0], &NoSignals).is_err());
    }

    #[test]
    fn ternary_and_comma() {
        let m = run(
            "",
            "int x = 5; int y = x > 3 ? 1 : 2; int z = (x = 9, x + 1);",
        );
        assert_eq!(int_var(&m, "y"), 1);
        assert_eq!(int_var(&m, "z"), 10);
    }

    #[test]
    fn out_of_bounds_index_is_error() {
        let prog = parse_str("void t() { int a[3]; a[5] = 1; }").unwrap();
        let mut sink = DiagSink::new();
        let table = TypeTable::build(&prog, &mut sink);
        let mut m = Machine::new(table);
        let f = prog.functions().next().unwrap();
        let stmts = &f.body.as_ref().unwrap().stmts;
        m.exec(&stmts[0], &NoSignals).unwrap();
        assert!(m.exec(&stmts[1], &NoSignals).is_err());
    }

    #[test]
    fn sizeof_works() {
        let m = run(
            "typedef struct { int a; char c; } s_t;",
            "int x = sizeof(s_t); int y = sizeof(int);",
        );
        assert_eq!(int_var(&m, "x"), 8);
        assert_eq!(int_var(&m, "y"), 4);
    }

    #[test]
    fn aggregate_assignment_copies_bytes() {
        let m = run(
            "typedef unsigned char byte; typedef struct { byte d[3]; } b_t;",
            "b_t a; b_t b; a.d[1] = 42; b = a; int x = b.d[1];",
        );
        assert_eq!(int_var(&m, "x"), 42);
    }
}
