//! Byte-level runtime values.
//!
//! A [`Value`] is a typed little-endian byte buffer. Modelling values at
//! the byte level (rather than as a tagged enum of Rust scalars) is what
//! makes C unions behave exactly as in the paper's Figure 1, where the
//! same 64 bytes are viewed either as `packet[64]` or as
//! `header/data/crc` slices.

use crate::types::{Type, TypeId, TypeTable};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Inline capacity of [`Bytes`]: scalars (≤ 8 bytes) and small
/// aggregates never touch the heap.
const INLINE: usize = 16;

/// A small-buffer byte string: the object representation of a
/// [`Value`]. Buffers up to `INLINE` bytes live inline (the common
/// case — every C scalar), larger aggregates (packets, frames) spill
/// to the heap. Dereferences to `[u8]`, so indexing, slicing and
/// iteration work as on a `Vec<u8>`.
#[derive(Clone)]
pub enum Bytes {
    /// Inline storage: `data[..len]` is the value.
    Inline {
        /// Number of live bytes.
        len: u8,
        /// Backing store (only `[..len]` is meaningful).
        data: [u8; INLINE],
    },
    /// Heap storage for large aggregates.
    Heap(Vec<u8>),
}

impl Bytes {
    /// A zero-filled buffer of `n` bytes.
    pub fn zeroed(n: usize) -> Bytes {
        if n <= INLINE {
            Bytes::Inline {
                len: n as u8,
                data: [0; INLINE],
            }
        } else {
            Bytes::Heap(vec![0; n])
        }
    }

    /// Copy a slice.
    pub fn from_slice(s: &[u8]) -> Bytes {
        if s.len() <= INLINE {
            let mut data = [0; INLINE];
            data[..s.len()].copy_from_slice(s);
            Bytes::Inline {
                len: s.len() as u8,
                data,
            }
        } else {
            Bytes::Heap(s.to_vec())
        }
    }

    /// Shorten to `n` bytes (no-op when already shorter).
    pub fn truncate(&mut self, n: usize) {
        match self {
            Bytes::Inline { len, .. } => *len = (*len).min(n as u8),
            Bytes::Heap(v) => v.truncate(n),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Bytes::Inline { len, data } => &data[..*len as usize],
            Bytes::Heap(v) => v,
        }
    }
}

impl DerefMut for Bytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        match self {
            Bytes::Inline { len, data } => &mut data[..*len as usize],
            Bytes::Heap(v) => v,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self[..], f)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        if v.len() <= INLINE {
            Bytes::from_slice(&v)
        } else {
            Bytes::Heap(v)
        }
    }
}

/// A typed runtime value: `bytes.len() == table.size_of(ty)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Value {
    /// The value's type.
    pub ty: TypeId,
    /// Little-endian object representation.
    pub bytes: Bytes,
}

impl Value {
    /// A zero-initialized value of type `ty`.
    pub fn zero(table: &TypeTable, ty: TypeId) -> Value {
        Value {
            ty,
            bytes: Bytes::zeroed(table.size_of(ty) as usize),
        }
    }

    /// Build an integer-typed value from an `i64`, truncating to the
    /// type's width (C conversion semantics).
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not a scalar type.
    pub fn from_i64(table: &TypeTable, ty: TypeId, v: i64) -> Value {
        let size = table.size_of(ty) as usize;
        let t = table.get(ty);
        assert!(
            t.is_integer() || matches!(t, Type::Pointer(_)),
            "from_i64 on non-integer type {}",
            table.name_of(ty)
        );
        let le = v.to_le_bytes();
        let mut bytes = Bytes::from_slice(&le[..size.min(8)]);
        if t == Type::Bool {
            bytes[0] = (v != 0) as u8;
        }
        Value { ty, bytes }
    }

    /// Build a float-typed value.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not `float` or `double`.
    pub fn from_f64(table: &TypeTable, ty: TypeId, v: f64) -> Value {
        match table.get(ty) {
            Type::Float => Value {
                ty,
                bytes: Bytes::from_slice(&(v as f32).to_le_bytes()),
            },
            Type::Double => Value {
                ty,
                bytes: Bytes::from_slice(&v.to_le_bytes()),
            },
            other => panic!("from_f64 on non-float type {other:?}"),
        }
    }

    /// Read an integer-typed value as `i64` with C sign/zero extension.
    ///
    /// # Panics
    ///
    /// Panics if the value is not integer- or pointer-typed.
    pub fn as_i64(&self, table: &TypeTable) -> i64 {
        let t = table.get(self.ty);
        assert!(
            t.is_integer() || matches!(t, Type::Pointer(_)),
            "as_i64 on non-integer type {}",
            table.name_of(self.ty)
        );
        let mut buf = [0u8; 8];
        let n = self.bytes.len().min(8);
        buf[..n].copy_from_slice(&self.bytes[..n]);
        let raw = i64::from_le_bytes(buf);
        let bits = n as u32 * 8;
        if bits >= 64 {
            return raw;
        }
        if t.is_unsigned() || matches!(t, Type::Pointer(_)) {
            raw & ((1i64 << bits) - 1)
        } else {
            // Sign extend.
            let shift = 64 - bits;
            (raw << shift) >> shift
        }
    }

    /// Read a float-typed value as `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not float-typed.
    pub fn as_f64(&self, table: &TypeTable) -> f64 {
        match table.get(self.ty) {
            Type::Float => {
                f32::from_le_bytes(self.bytes[..4].try_into().expect("f32 width")) as f64
            }
            Type::Double => f64::from_le_bytes(self.bytes[..8].try_into().expect("f64 width")),
            other => panic!("as_f64 on non-float {other:?}"),
        }
    }

    /// C truthiness: any non-zero byte makes a value true.
    pub fn is_truthy(&self) -> bool {
        self.bytes.iter().any(|b| *b != 0)
    }

    /// Copy `src` into this value at `offset` (aggregate field write).
    ///
    /// # Panics
    ///
    /// Panics if the byte range is out of bounds.
    pub fn write_at(&mut self, offset: u32, src: &Value) {
        let o = offset as usize;
        self.bytes[o..o + src.bytes.len()].copy_from_slice(&src.bytes);
    }

    /// Extract a field/element of type `ty` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the byte range is out of bounds.
    pub fn read_at(&self, table: &TypeTable, offset: u32, ty: TypeId) -> Value {
        let o = offset as usize;
        let n = table.size_of(ty) as usize;
        Value {
            ty,
            bytes: Bytes::from_slice(&self.bytes[o..o + n]),
        }
    }

    /// Convert to another scalar type with C conversion rules; also
    /// implements the reproduction's "small array to integer bit-cast"
    /// extension used by Figure 2's `(int) inpkt.cooked.crc` (see
    /// DESIGN.md).
    pub fn convert(&self, table: &TypeTable, to: TypeId) -> Option<Value> {
        if self.ty == to {
            return Some(self.clone());
        }
        let from_t = table.get(self.ty);
        let to_t = table.get(to);
        // Array → integer bit-cast extension.
        if let Type::Array(elem, _) = from_t {
            if to_t.is_integer() && table.get(elem).is_integer() && self.bytes.len() <= 8 {
                let mut buf = [0u8; 8];
                buf[..self.bytes.len()].copy_from_slice(&self.bytes);
                let raw = i64::from_le_bytes(buf);
                return Some(Value::from_i64(table, to, raw));
            }
            return None;
        }
        match (from_t.is_float(), to_t.is_float()) {
            (false, false) if from_t.is_scalar() && to_t.is_scalar() => {
                Some(Value::from_i64(table, to, self.as_i64(table)))
            }
            (true, false) if to_t.is_integer() => {
                Some(Value::from_i64(table, to, self.as_f64(table) as i64))
            }
            (false, true) if from_t.is_scalar() => {
                Some(Value::from_f64(table, to, self.as_i64(table) as f64))
            }
            (true, true) => Some(Value::from_f64(table, to, self.as_f64(table))),
            _ => None,
        }
    }

    /// Render for traces and debugging.
    pub fn render(&self, table: &TypeTable) -> String {
        let t = table.get(self.ty);
        if t.is_integer() {
            format!("{}", self.as_i64(table))
        } else if t.is_float() {
            format!("{}", self.as_f64(table))
        } else {
            let hex: Vec<String> = self.bytes.iter().map(|b| format!("{b:02x}")).collect();
            format!("0x[{}]", hex.join(""))
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Without a table we can only show raw bytes.
        write!(f, "Value({} bytes)", self.bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeTable;
    use ecl_syntax::parse_str;

    fn table() -> TypeTable {
        TypeTable::new()
    }

    #[test]
    fn int_round_trip_with_sign_extension() {
        let mut t = table();
        let int = t.int();
        let ch = t.intern(Type::Char);
        let uc = t.uchar();
        assert_eq!(Value::from_i64(&t, int, -5).as_i64(&t), -5);
        assert_eq!(Value::from_i64(&t, ch, -1).as_i64(&t), -1);
        assert_eq!(Value::from_i64(&t, uc, -1).as_i64(&t), 255);
        assert_eq!(Value::from_i64(&t, ch, 130).as_i64(&t), -126); // wraps
    }

    #[test]
    fn bool_normalizes() {
        let mut t = table();
        let b = t.bool();
        assert_eq!(Value::from_i64(&t, b, 42).as_i64(&t), 1);
        assert_eq!(Value::from_i64(&t, b, 0).as_i64(&t), 0);
    }

    #[test]
    fn float_round_trip() {
        let mut t = table();
        let f = t.intern(Type::Float);
        let d = t.intern(Type::Double);
        assert_eq!(Value::from_f64(&t, d, 1.5).as_f64(&t), 1.5);
        assert_eq!(Value::from_f64(&t, f, 2.25).as_f64(&t), 2.25);
    }

    #[test]
    fn conversions() {
        let mut t = table();
        let int = t.int();
        let sh = t.intern(Type::Short);
        let d = t.intern(Type::Double);
        let v = Value::from_i64(&t, int, 70000);
        // int → short truncates.
        assert_eq!(v.convert(&t, sh).unwrap().as_i64(&t), 70000 - 65536);
        // int → double.
        assert_eq!(v.convert(&t, d).unwrap().as_f64(&t), 70000.0);
        // double → int truncates toward zero.
        let x = Value::from_f64(&t, d, -2.9);
        assert_eq!(x.convert(&t, int).unwrap().as_i64(&t), -2);
    }

    #[test]
    fn union_views_share_bytes() {
        let prog = parse_str(
            "typedef unsigned char byte;\
             typedef struct { byte all[4]; } v1_t;\
             typedef struct { byte lo[2]; byte hi[2]; } v2_t;\
             typedef union { v1_t raw; v2_t split; } u_t;",
        )
        .unwrap();
        let mut sink = ecl_syntax::DiagSink::new();
        let t = TypeTable::build(&prog, &mut sink);
        let u = t.typedef("u_t").unwrap();
        let mut v = Value::zero(&t, u);
        assert_eq!(v.bytes.len(), 4);
        // Write through the raw view, read through the split view.
        v.bytes.copy_from_slice(&[1, 2, 3, 4]);
        let v2 = t.typedef("v2_t").unwrap();
        let Type::Struct(r) = t.get(v2) else { panic!() };
        let hi = t.record(r).field("hi").unwrap();
        let hi_v = v.read_at(&t, hi.offset, hi.ty);
        assert_eq!(hi_v.bytes, vec![3, 4]);
    }

    #[test]
    fn array_to_int_bitcast_extension() {
        let mut t = table();
        let uc = t.uchar();
        let arr2 = t.intern(Type::Array(uc, 2));
        let int = t.int();
        let v = Value {
            ty: arr2,
            bytes: vec![0x34, 0x12].into(),
        };
        // Little-endian: [0x34, 0x12] = 0x1234.
        assert_eq!(v.convert(&t, int).unwrap().as_i64(&t), 0x1234);
    }

    #[test]
    fn truthiness_over_aggregates() {
        let mut t = table();
        let uc = t.uchar();
        let arr = t.intern(Type::Array(uc, 3));
        let mut v = Value::zero(&t, arr);
        assert!(!v.is_truthy());
        v.bytes[2] = 9;
        assert!(v.is_truthy());
    }

    #[test]
    fn write_and_read_at() {
        let mut t = table();
        let uc = t.uchar();
        let arr = t.intern(Type::Array(uc, 4));
        let mut v = Value::zero(&t, arr);
        let b = Value::from_i64(&t, uc, 0xAB);
        v.write_at(2, &b);
        assert_eq!(v.bytes, vec![0, 0, 0xAB, 0]);
        assert_eq!(v.read_at(&t, 2, uc).as_i64(&t), 0xAB);
    }
}
