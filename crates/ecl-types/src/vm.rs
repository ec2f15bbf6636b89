//! Register bytecode for the EFSM data path, and the op set of the
//! fused reaction loop.
//!
//! The tree-walking interpreter ([`crate::interp::Machine`]) pays
//! per-node dispatch, span-keyed identifier memo probes and a byte-level
//! [`Value`] clone for every signal read. ECL's premise (DAC 1999) is
//! that the data computation compiles down to the flat C a POLIS-style
//! backend would emit — so the simulator compiles it too: each data
//! hook (predicate, action, valued-emit expression) is lowered *once*
//! ([`crate::lower`]) to a flat [`Program`] of [`Op`]s over an `i64`
//! register file, with direct slot-indexed variable access, direct
//! signal-index value reads and its constants already folded. No name
//! ever resolves at runtime.
//!
//! Hook programs are not run one by one: `ecl_core`'s fused reaction
//! translates a task's control layout into one op stream
//! with the hooks' bytecode inlined between reaction control ops
//! ([`Op::PredHead`] and friends), and steps that stream in a single
//! dispatch loop. This module defines the shared op set.
//!
//! Semantic contract: an inlined program is **observationally
//! identical** to the walker, including
//!
//! * values, mutated variable slots and emitted signal values,
//! * error instants (division by zero, out-of-bounds indexing, fuel
//!   exhaustion) with the walker's exact message, and — for all but
//!   fuel exhaustion — its exact span (coalesced [`Op::Burn`]s report
//!   the first coalesced node's span, which may sit a few nodes
//!   before where the walker's step-by-step counter would hit zero
//!   within the same expression),
//! * **fuel accounting**: [`Op::Burn`] charges exactly the interpreter
//!   steps the walker would burn on the same control path, so the
//!   kernel's cycle charges (`ops × cyc_per_op`) stay bit-identical.
//!
//! A hook outside the bytecode subset has no program (its lowering is
//! `None`), and a runtime with such a hook gets no fused reaction: its
//! task runs on the tree-walking reference whole. Nothing in this op
//! set calls the walker.

use crate::interp::{EvalError, SignalReader};
use crate::value::Value;
use ecl_syntax::fxmap::FxHashMap;
use ecl_syntax::source::Span;

/// How a register's `i64` maps onto a C integer type: the bit width,
/// signedness, and `bool`'s 0/1 normalization. A register is always
/// *normalized*: it holds exactly the value `Value::as_i64` would
/// produce for the same bytes (sign- or zero-extended to 64 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ext {
    /// Width in bits (8, 16 or 32 on the MIPS-o32-style target).
    pub bits: u8,
    /// Zero-extends (and wraps) like a C unsigned type.
    pub unsigned: bool,
    /// `bool`: stored bytes are normalized to 0/1.
    pub is_bool: bool,
}

impl Ext {
    /// C `int` (the type of literals, comparisons and logic results).
    pub const INT: Ext = Ext {
        bits: 32,
        unsigned: false,
        is_bool: false,
    };

    /// Normalize an `i64` to this type's range — the exact composition
    /// of `Value::from_i64` (truncate to width) and `Value::as_i64`
    /// (sign/zero extend) the walker performs on every conversion.
    #[inline]
    pub fn norm(self, v: i64) -> i64 {
        if self.is_bool {
            return (v != 0) as i64;
        }
        let bits = u32::from(self.bits);
        if bits >= 64 {
            return v;
        }
        let shift = 64 - bits;
        if self.unsigned {
            ((v << shift) as u64 >> shift) as i64
        } else {
            (v << shift) >> shift
        }
    }

    /// Does every value of this type keep its value in `to` — a
    /// widening the register needs no conversion op for?
    pub fn widens_to(self, to: Ext) -> bool {
        if to.is_bool {
            return self.is_bool;
        }
        self.is_bool
            || (self.bits == to.bits && self.unsigned == to.unsigned)
            || (self.bits < to.bits && (self.unsigned || !to.unsigned))
    }

    /// Read the scalar at byte offset `off` of a little-endian buffer:
    /// one fixed-width load per width, which inlines into the dispatch
    /// loop with no copy call.
    ///
    /// # Panics
    ///
    /// On a width other than 8, 16 or 32 bits, or bytes past the end.
    #[inline(always)]
    pub fn read(self, bytes: &[u8], off: usize) -> i64 {
        let raw = match self.bits {
            8 => i64::from(bytes[off]),
            16 => i64::from(u16::from_le_bytes(le_bytes(bytes, off))),
            32 => i64::from(u32::from_le_bytes(le_bytes(bytes, off))),
            bits => unreachable!("no {bits}-bit scalar type"),
        };
        self.norm(raw)
    }

    /// Write a (normalized) scalar at byte offset `off`: the low
    /// `bits` of `v` (0/1 for `bool`), one fixed-width store.
    ///
    /// # Panics
    ///
    /// As [`Ext::read`].
    #[inline(always)]
    pub fn write(self, bytes: &mut [u8], off: usize, v: i64) {
        let v = if self.is_bool { (v != 0) as i64 } else { v };
        match self.bits {
            8 => bytes[off] = v as u8,
            16 => bytes[off..off + 2].copy_from_slice(&(v as u16).to_le_bytes()),
            32 => bytes[off..off + 4].copy_from_slice(&(v as u32).to_le_bytes()),
            bits => unreachable!("no {bits}-bit scalar type"),
        }
    }
}

/// The `N` bytes at `off`, as an array (a constant-length copy, so a
/// plain load).
#[inline(always)]
fn le_bytes<const N: usize>(bytes: &[u8], off: usize) -> [u8; N] {
    bytes[off..off + N].try_into().expect("a slice of length N")
}

/// Binary operator kernel selector (operands are pre-normalized to the
/// common type, so one `i64` implementation serves signed and unsigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (errors on zero divisor).
    Div,
    /// Remainder (errors on zero divisor).
    Rem,
    /// Left shift by `rhs & 63`.
    Shl,
    /// Right shift by `rhs & 63` (logical for unsigned operands, which
    /// are zero-extended and non-negative).
    Shr,
    /// `<` (produces int 0/1).
    Lt,
    /// `>`.
    Gt,
    /// `<=`.
    Le,
    /// `>=`.
    Ge,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// Bitwise and.
    And,
    /// Bitwise xor.
    Xor,
    /// Bitwise or.
    Or,
}

impl BinKind {
    /// `x ⊕ y` over normalized operands, before normalizing to the
    /// result type; `None` for a division or remainder by zero.
    #[inline(always)]
    pub fn apply(self, x: i64, y: i64) -> Option<i64> {
        Some(match self {
            BinKind::Add => x.wrapping_add(y),
            BinKind::Sub => x.wrapping_sub(y),
            BinKind::Mul => x.wrapping_mul(y),
            BinKind::Div => {
                if y == 0 {
                    return None;
                }
                x.wrapping_div(y)
            }
            BinKind::Rem => {
                if y == 0 {
                    return None;
                }
                x.wrapping_rem(y)
            }
            BinKind::Shl => x.wrapping_shl(y as u32 & 63),
            BinKind::Shr => x.wrapping_shr(y as u32 & 63),
            BinKind::Lt => (x < y) as i64,
            BinKind::Gt => (x > y) as i64,
            BinKind::Le => (x <= y) as i64,
            BinKind::Ge => (x >= y) as i64,
            BinKind::Eq => (x == y) as i64,
            BinKind::Ne => (x != y) as i64,
            BinKind::And => x & y,
            BinKind::Xor => x ^ y,
            BinKind::Or => x | y,
        })
    }

    /// Does the comparison `x ⊕ y` hold? (`self` must be a
    /// comparison.)
    #[inline(always)]
    pub fn holds(self, x: i64, y: i64) -> bool {
        match self {
            BinKind::Lt => x < y,
            BinKind::Gt => x > y,
            BinKind::Le => x <= y,
            BinKind::Ge => x >= y,
            BinKind::Eq => x == y,
            _ => x != y,
        }
    }

    /// The kernel with its operands swapped (`y ⊕' x == x ⊕ y`), if
    /// one exists.
    pub fn swapped(self) -> Option<BinKind> {
        Some(match self {
            BinKind::Lt => BinKind::Gt,
            BinKind::Gt => BinKind::Lt,
            BinKind::Le => BinKind::Ge,
            BinKind::Ge => BinKind::Le,
            BinKind::Add
            | BinKind::Mul
            | BinKind::Eq
            | BinKind::Ne
            | BinKind::And
            | BinKind::Xor
            | BinKind::Or => self,
            BinKind::Sub | BinKind::Div | BinKind::Rem | BinKind::Shl | BinKind::Shr => {
                return None
            }
        })
    }

    /// The comparison that holds exactly when this one does not
    /// (`self` must be a comparison).
    pub fn negated(self) -> BinKind {
        match self {
            BinKind::Lt => BinKind::Ge,
            BinKind::Ge => BinKind::Lt,
            BinKind::Gt => BinKind::Le,
            BinKind::Le => BinKind::Gt,
            BinKind::Eq => BinKind::Ne,
            BinKind::Ne => BinKind::Eq,
            other => unreachable!("{other:?} is not a comparison"),
        }
    }
}

/// Unary operator kernel selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    /// Wrapping negation.
    Neg,
    /// Bitwise not.
    BitNot,
    /// Logical not (produces int 0/1).
    LogNot,
}

impl UnKind {
    /// `⊕ x`, before normalizing to the result type.
    #[inline]
    pub fn apply(self, x: i64) -> i64 {
        match self {
            UnKind::Neg => x.wrapping_neg(),
            UnKind::BitNot => !x,
            UnKind::LogNot => (x == 0) as i64,
        }
    }
}

/// One op: a data op of a lowered hook program, or a reaction control
/// op the fused translation places around inlined hooks. Registers are
/// indices into the `i64` register file; `slot` indexes the machine's
/// root scope (the design's flat variable frame); `sig` indexes the
/// runtime's signal-value table directly (no name lookup). Jump
/// targets are op indices. The spans of fallible ops sit in the
/// program's side table ([`Program::spans`]), which only the error
/// path reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Charge `n` walker-equivalent interpreter steps against the fuel
    /// (fallible: fuel exhaustion).
    Burn {
        /// Steps to charge.
        n: u32,
    },
    /// Charge the `n` walker-equivalent steps of a whole straight-line
    /// block at its head, in a fused reaction's fast stream: taken only
    /// when no data error is pending; when the fuel cannot cover the
    /// block, the reaction deoptimizes to the exact stream, whose
    /// [`Op::Burn`]s find the exhaustion point (never fallible itself).
    Charge {
        /// Steps the block burns on its one normal path.
        n: u32,
    },
    /// `dst = v` (already normalized at compile time).
    Const {
        /// Destination register.
        dst: u16,
        /// The constant.
        v: i64,
    },
    /// `dst = norm(src)` — type conversion (or a plain copy when the
    /// extension is the source's own type).
    Conv {
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
        /// Target type extension.
        ext: Ext,
    },
    /// `dst = read(root_slot)` — whole-scalar variable read.
    LoadVar {
        /// Destination register.
        dst: u16,
        /// Root-scope slot.
        slot: u32,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `root_slot = src` — whole-scalar variable write.
    StoreVar {
        /// Root-scope slot.
        slot: u32,
        /// Source register.
        src: u16,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `dst = read(root_slot at static byte offset)`.
    LoadVarOff {
        /// Destination register.
        dst: u16,
        /// Root-scope slot.
        slot: u32,
        /// Static byte offset.
        off: u32,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `root_slot at static byte offset = src`.
    StoreVarOff {
        /// Root-scope slot.
        slot: u32,
        /// Static byte offset.
        off: u32,
        /// Source register.
        src: u16,
        /// Scalar type extension.
        ext: Ext,
    },
    /// Indexed read in one op: check `0 <= idx < len` (the walker's
    /// exact check and error; fallible), then `dst = read(root_slot at
    /// base + idx * elem)`.
    LoadVarIdx {
        /// Destination register.
        dst: u16,
        /// Index register.
        idx: u16,
        /// Root-scope slot.
        slot: u32,
        /// Static byte offset around the index.
        base: u32,
        /// Element size in bytes.
        elem: u32,
        /// Array length.
        len: u32,
        /// Scalar type extension.
        ext: Ext,
    },
    /// Indexed write in one op: check the index, then `root_slot at
    /// base + idx * elem = src` (fallible).
    StoreVarIdx {
        /// Source register.
        src: u16,
        /// Index register.
        idx: u16,
        /// Root-scope slot.
        slot: u32,
        /// Static byte offset around the index.
        base: u32,
        /// Element size in bytes.
        elem: u32,
        /// Array length.
        len: u32,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `dst = current value of valued signal` (integer-typed).
    LoadSig {
        /// Destination register.
        dst: u16,
        /// Signal index.
        sig: u32,
        /// Scalar type extension.
        ext: Ext,
    },
    /// `dst = read(signal value at static byte offset)`.
    LoadSigOff {
        /// Destination register.
        dst: u16,
        /// Signal index.
        sig: u32,
        /// Static byte offset.
        off: u32,
        /// Scalar type extension.
        ext: Ext,
    },
    /// Indexed signal-value read in one op: check the index, then
    /// `dst = read(signal value at base + idx * elem)` (fallible).
    LoadSigIdx {
        /// Destination register.
        dst: u16,
        /// Index register.
        idx: u16,
        /// Signal index.
        sig: u32,
        /// Static byte offset around the index.
        base: u32,
        /// Element size in bytes.
        elem: u32,
        /// Array length.
        len: u32,
        /// Scalar type extension.
        ext: Ext,
    },
    /// Store an integer emit value into the signal's current-value
    /// buffer (in place — the byte buffer is reused, no allocation).
    StoreSig {
        /// Signal index.
        sig: u32,
        /// Source register.
        src: u16,
        /// The signal's scalar type extension.
        ext: Ext,
    },
    /// Aggregate emit fast path: copy a whole same-typed root variable
    /// into the signal's value buffer (`emit_v (outpkt, buffer)`).
    EmitCopy {
        /// Signal index.
        sig: u32,
        /// Root-scope slot of the source variable.
        slot: u32,
    },
    /// `dst = a ⊕ b`, result normalized to `ext` (fallible for
    /// division and remainder).
    Bin {
        /// Operator kernel.
        op: BinKind,
        /// Destination register.
        dst: u16,
        /// Left operand register (pre-normalized to the common type).
        a: u16,
        /// Right operand register (pre-normalized to the common type).
        b: u16,
        /// Result type extension.
        ext: Ext,
    },
    /// `dst = a ⊕ imm` with a folded right operand, result normalized
    /// to `ext`. Never a division or remainder by zero (those stay
    /// [`Op::Bin`], so the error happens at run time).
    BinImm {
        /// Operator kernel.
        op: BinKind,
        /// Destination register.
        dst: u16,
        /// Left operand register (pre-normalized to the common type).
        a: u16,
        /// Right operand, normalized to the common type.
        imm: i64,
        /// Result type extension.
        ext: Ext,
    },
    /// `dst = ⊕ src`, result normalized to `ext`.
    Un {
        /// Operator kernel.
        op: UnKind,
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
        /// Result type extension.
        ext: Ext,
    },
    /// Unconditional jump to an op index.
    Jmp {
        /// Target op index.
        target: u32,
    },
    /// Jump when the register's truthiness equals `when_true`.
    JmpIf {
        /// Condition register.
        cond: u16,
        /// Target op index.
        target: u32,
        /// Jump on true (`true`) or on false (`false`).
        when_true: bool,
    },
    /// Compare and branch: jump when `a op b` holds (`op` is a
    /// comparison).
    JmpCmp {
        /// Comparison kernel.
        op: BinKind,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
        /// Target op index.
        target: u32,
    },
    /// Compare with a folded right operand and branch.
    JmpCmpImm {
        /// Comparison kernel.
        op: BinKind,
        /// Left operand register.
        a: u16,
        /// Target op index.
        target: u32,
        /// Right operand, normalized to the common type.
        imm: i64,
    },
    /// Reaction control: a predicate test. Charges one node.
    /// After an earlier data error it reads false uncounted (jump to
    /// `else_`); otherwise the inlined predicate follows and branches
    /// to the test's two successors itself.
    PredHead {
        /// Predicate id.
        pred: u32,
        /// Target after a data error (the successor when the predicate
        /// does not hold).
        else_: u32,
    },
    /// Reaction control: an action. Charges one node; skipped
    /// after a data error; otherwise the inlined action follows.
    ActHead {
        /// Action id.
        action: u32,
        /// Target after the action (and after a data error).
        next: u32,
    },
    /// Reaction control: the value of a valued emission. Charges one
    /// node; skipped after a data error; otherwise the inlined value
    /// program follows, ending in the emission's [`Op::Push`].
    EmitHead {
        /// Emit-expression id.
        expr: u32,
        /// The emission's [`Op::Push`] (reached after a data error).
        push: u32,
    },
    /// Reaction control: append `sig` to the emissions (a valued
    /// emission, whose node [`Op::EmitHead`] charged).
    Push {
        /// Local signal.
        sig: u32,
    },
    /// Reaction control: a presence-only emission — charge one node,
    /// append `sig`.
    Emit {
        /// Local signal.
        sig: u32,
    },
    /// Reaction control: a presence test. Charges one node and
    /// branches on the presence of local signal `sig` in the instant's
    /// inputs (also after a data error, as the walker's test does).
    Test {
        /// Local signal.
        sig: u32,
        /// Target when it is present.
        then_: u32,
        /// Target when it is absent.
        else_: u32,
    },
    /// Reaction control: jump to another block of the control layout
    /// (glue between blocks; charges nothing).
    Goto {
        /// Target op index.
        target: u32,
    },
    /// Reaction control: end of the reaction — charge the goto node
    /// and move to `target` for the next instant.
    End {
        /// Next control state.
        target: u32,
    },
}

// The reaction loop dispatches on this type: keep it within 24 bytes
// (a 32-byte op measured ~15% slower on the CRC instants).
const _: () = assert!(std::mem::size_of::<Op>() <= 24);

impl Op {
    /// Index of a data opcode in the telemetry per-opcode counter table
    /// (`ecl_telemetry::metrics::VM_OPS`), in declaration order; `None`
    /// for reaction control ops, which are not data ops. A unit test
    /// checks the indices against `ecl_telemetry::metrics::VM_OP_NAMES`
    /// so the two stay in sync.
    #[inline]
    pub fn telemetry_index(&self) -> Option<usize> {
        Some(match self {
            Op::Burn { .. } => 0,
            Op::Charge { .. } => 1,
            Op::Const { .. } => 2,
            Op::Conv { .. } => 3,
            Op::LoadVar { .. } => 4,
            Op::StoreVar { .. } => 5,
            Op::LoadVarOff { .. } => 6,
            Op::StoreVarOff { .. } => 7,
            Op::LoadVarIdx { .. } => 8,
            Op::StoreVarIdx { .. } => 9,
            Op::LoadSig { .. } => 10,
            Op::LoadSigOff { .. } => 11,
            Op::LoadSigIdx { .. } => 12,
            Op::StoreSig { .. } => 13,
            Op::EmitCopy { .. } => 14,
            Op::Bin { .. } => 15,
            Op::BinImm { .. } => 16,
            Op::Un { .. } => 17,
            Op::Jmp { .. } => 18,
            Op::JmpIf { .. } => 19,
            Op::JmpCmp { .. } => 20,
            Op::JmpCmpImm { .. } => 21,
            Op::PredHead { .. }
            | Op::ActHead { .. }
            | Op::EmitHead { .. }
            | Op::Push { .. }
            | Op::Emit { .. }
            | Op::Test { .. }
            | Op::Goto { .. }
            | Op::End { .. } => return None,
        })
    }

    /// Does this control op stand for one s-graph node of the EFSM's
    /// control layout (presence test, predicate, action, emission or
    /// end) — what `table.fused_ops` counts?
    #[inline]
    pub fn is_residual(&self) -> bool {
        matches!(
            self,
            Op::PredHead { .. }
                | Op::ActHead { .. }
                | Op::EmitHead { .. }
                | Op::Emit { .. }
                | Op::Test { .. }
                | Op::End { .. }
        )
    }

    /// Rewrite every jump target of this op through `f` (label
    /// resolution, and relocation when a program is inlined).
    pub fn map_targets(&mut self, mut f: impl FnMut(u32) -> u32) {
        match self {
            Op::Jmp { target }
            | Op::JmpIf { target, .. }
            | Op::JmpCmp { target, .. }
            | Op::JmpCmpImm { target, .. }
            | Op::Goto { target } => *target = f(*target),
            Op::Test { then_, else_, .. } => {
                *then_ = f(*then_);
                *else_ = f(*else_);
            }
            Op::PredHead { else_, .. } => *else_ = f(*else_),
            Op::ActHead { next, .. } => *next = f(*next),
            Op::EmitHead { push, .. } => *push = f(*push),
            _ => {}
        }
    }
}

/// A compiled data hook: flat ops, the register-file size and the
/// error spans of its fallible ops.
///
/// Exits are jumps one past the end: an action or emit program ends at
/// `ops.len()`; a predicate program jumps to `ops.len()` when false
/// (falling off the end also reads false) and to `ops.len() + 1` when
/// true.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The instructions.
    pub ops: Vec<Op>,
    /// Number of registers the program uses.
    pub regs: u16,
    /// `(pc, span)` of every fallible op (burns, bounds checks,
    /// divisions), in pc order — read only on the error path.
    pub spans: Vec<(u32, Span)>,
}

/// The span of the fallible op at `pc` in a `(pc, span)` side table.
pub fn span_at(spans: &[(u32, Span)], pc: u32) -> Span {
    let i = spans.partition_point(|&(p, _)| p < pc);
    spans
        .get(i)
        .filter(|&&(p, _)| p == pc)
        .map_or(Span::dummy(), |&(_, s)| s)
}

/// The walker's out-of-bounds error for index `i` of a `len`-element
/// array.
#[cold]
pub fn index_error(i: i64, len: u32, span: Span) -> EvalError {
    EvalError {
        msg: format!("index {i} out of bounds (len {len})"),
        span,
    }
}

/// The walker's error for a division or remainder by zero.
#[cold]
pub fn zero_divisor_error(op: BinKind, span: Span) -> EvalError {
    let what = if op == BinKind::Rem {
        "remainder"
    } else {
        "division"
    };
    EvalError {
        msg: format!("integer {what} by zero"),
        span,
    }
}

/// [`SignalReader`] over the runtime's signal-value table — the
/// borrow-splitting view through which the runtime's walker hooks
/// (predicates, actions and emissions) read signal values.
pub struct ValuesReader<'a> {
    /// Signal index → current value (`None` for pure signals).
    pub values: &'a [Option<Value>],
    /// Signal name → index.
    pub by_name: &'a FxHashMap<String, usize>,
}

impl SignalReader for ValuesReader<'_> {
    fn read_signal(&self, name: &str) -> Option<Value> {
        self.by_name
            .get(name)
            .and_then(|i| self.values.get(*i))
            .and_then(|v| v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_indices_cover_every_opcode_in_order() {
        let ext = Ext::INT;
        let (op, kind) = (BinKind::Add, BinKind::Lt);
        // One instance of every data variant, in declaration order.
        let ops = [
            Op::Burn { n: 0 },
            Op::Charge { n: 0 },
            Op::Const { dst: 0, v: 0 },
            Op::Conv {
                dst: 0,
                src: 0,
                ext,
            },
            Op::LoadVar {
                dst: 0,
                slot: 0,
                ext,
            },
            Op::StoreVar {
                slot: 0,
                src: 0,
                ext,
            },
            Op::LoadVarOff {
                dst: 0,
                slot: 0,
                off: 0,
                ext,
            },
            Op::StoreVarOff {
                slot: 0,
                off: 0,
                src: 0,
                ext,
            },
            Op::LoadVarIdx {
                dst: 0,
                idx: 0,
                slot: 0,
                base: 0,
                elem: 1,
                len: 1,
                ext,
            },
            Op::StoreVarIdx {
                src: 0,
                idx: 0,
                slot: 0,
                base: 0,
                elem: 1,
                len: 1,
                ext,
            },
            Op::LoadSig {
                dst: 0,
                sig: 0,
                ext,
            },
            Op::LoadSigOff {
                dst: 0,
                sig: 0,
                off: 0,
                ext,
            },
            Op::LoadSigIdx {
                dst: 0,
                idx: 0,
                sig: 0,
                base: 0,
                elem: 1,
                len: 1,
                ext,
            },
            Op::StoreSig {
                sig: 0,
                src: 0,
                ext,
            },
            Op::EmitCopy { sig: 0, slot: 0 },
            Op::Bin {
                op,
                dst: 0,
                a: 0,
                b: 0,
                ext,
            },
            Op::BinImm {
                op,
                dst: 0,
                a: 0,
                imm: 0,
                ext,
            },
            Op::Un {
                op: UnKind::Neg,
                dst: 0,
                src: 0,
                ext,
            },
            Op::Jmp { target: 0 },
            Op::JmpIf {
                cond: 0,
                target: 0,
                when_true: true,
            },
            Op::JmpCmp {
                op: kind,
                a: 0,
                b: 0,
                target: 0,
            },
            Op::JmpCmpImm {
                op: kind,
                a: 0,
                target: 0,
                imm: 0,
            },
        ];
        assert_eq!(ops.len(), ecl_telemetry::metrics::VM_OP_NAMES.len());
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.telemetry_index(), Some(i), "{op:?}");
            assert!(!op.is_residual());
        }
        // Reaction control ops are not data ops.
        let control = [
            Op::Push { sig: 0 },
            Op::Goto { target: 0 },
            Op::End { target: 0 },
        ];
        assert!(control.iter().all(|op| op.telemetry_index().is_none()));
    }

    #[test]
    fn ext_normalization_matches_c_conversions() {
        let int = Ext::INT;
        assert_eq!(int.norm(0x1_0000_0000), 0);
        assert_eq!(int.norm(-1), -1);
        assert_eq!(int.norm(0xFFFF_FFFF), -1);
        let uint = Ext {
            bits: 32,
            unsigned: true,
            is_bool: false,
        };
        assert_eq!(uint.norm(-1), 0xFFFF_FFFF);
        let ch = Ext {
            bits: 8,
            unsigned: false,
            is_bool: false,
        };
        assert_eq!(ch.norm(130), -126);
        let b = Ext {
            bits: 8,
            unsigned: false,
            is_bool: true,
        };
        assert_eq!(b.norm(42), 1);
        assert_eq!(b.norm(0), 0);
        // Widenings that keep every value need no conversion op.
        let uc = Ext {
            bits: 8,
            unsigned: true,
            is_bool: false,
        };
        assert!(uc.widens_to(int) && uc.widens_to(uint) && ch.widens_to(int));
        assert!(b.widens_to(uc) && !uc.widens_to(b));
        assert!(!ch.widens_to(uint) && !int.widens_to(uint) && !int.widens_to(ch));
    }

    #[test]
    fn ext_read_write_round_trip() {
        let int = |bits, unsigned| Ext {
            bits,
            unsigned,
            is_bool: false,
        };
        let b = Ext {
            bits: 8,
            unsigned: true,
            is_bool: true,
        };
        // (type, value written, value read back): every width the
        // lowering emits, signed and unsigned, with the top bit set
        // and with bits above the width.
        let cases = [
            (int(8, true), 0x80, 0x80),
            (int(8, false), 0x80, -0x80),
            (int(8, true), 0x1AB, 0xAB),
            (int(16, true), 0x8000, 0x8000),
            (int(16, false), 0x8000, -0x8000),
            (int(16, false), -2, -2),
            (int(32, true), 0x8000_0000, 0x8000_0000),
            (int(32, false), 0x8000_0000, -0x8000_0000),
            (int(32, false), 0x1_2345_6789, 0x2345_6789),
            (b, 2, 1),
            (b, 0, 0),
        ];
        for (ext, v, back) in cases {
            let n = usize::from(ext.bits / 8);
            for off in 0..4 {
                let mut buf = [0xA5u8; 8];
                ext.write(&mut buf, off, v);
                assert_eq!(ext.read(&buf, off), back, "{ext:?} at {off}");
                assert_eq!(buf[off..off + n], back.to_le_bytes()[..n], "{ext:?}");
                for (i, byte) in buf.iter().enumerate() {
                    if !(off..off + n).contains(&i) {
                        assert_eq!(*byte, 0xA5, "{ext:?} at {off} wrote byte {i}");
                    }
                }
            }
        }
    }
}
