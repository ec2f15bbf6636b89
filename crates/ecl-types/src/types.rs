//! Resolved types and data layout.
//!
//! [`TypeTable`] interns every type used by a program and computes sizes,
//! alignments and field offsets with the rules of a 32-bit MIPS o32-style
//! ABI (the paper's target is a MIPS R3000): `char` 1, `short` 2,
//! `int`/`long`/pointers 4, `float` 4, `double` 8/align 8; structs pad
//! fields to their alignment and the struct size to the maximum field
//! alignment; unions take the maximum size; arrays multiply.

use crate::consteval::{self, ConstEnv};
use ecl_syntax::ast::{self, PrimType, TypeRef, TypeRefKind};
use ecl_syntax::diag::DiagSink;
use ecl_syntax::source::Span;
use std::collections::HashMap;
use std::fmt;

/// Interned type handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// Handle for a struct/union definition in a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId(pub u32);

/// A resolved type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void` — size 0, only valid as a function return type.
    Void,
    /// `bool` — 1 byte, values 0/1.
    Bool,
    /// Signed 8-bit.
    Char,
    /// Unsigned 8-bit (the paper's `byte` typedef resolves here).
    UChar,
    /// Signed 16-bit.
    Short,
    /// Unsigned 16-bit.
    UShort,
    /// Signed 32-bit.
    Int,
    /// Unsigned 32-bit.
    UInt,
    /// Signed 32-bit (`long` on the 32-bit target).
    Long,
    /// Unsigned 32-bit.
    ULong,
    /// IEEE-754 single.
    Float,
    /// IEEE-754 double.
    Double,
    /// Pointer to another type (4 bytes on the target).
    Pointer(TypeId),
    /// Fixed-length array.
    Array(TypeId, u32),
    /// Struct with laid-out fields.
    Struct(RecordId),
    /// Union (fields all at offset 0).
    Union(RecordId),
    /// Enum — represented as `int`.
    Enum(RecordId),
}

impl Type {
    /// Is this an integer type (including `bool`, `char`, enums)?
    pub fn is_integer(&self) -> bool {
        matches!(
            self,
            Type::Bool
                | Type::Char
                | Type::UChar
                | Type::Short
                | Type::UShort
                | Type::Int
                | Type::UInt
                | Type::Long
                | Type::ULong
                | Type::Enum(_)
        )
    }

    /// Is this a floating type?
    pub fn is_float(&self) -> bool {
        matches!(self, Type::Float | Type::Double)
    }

    /// Is this an unsigned integer type?
    pub fn is_unsigned(&self) -> bool {
        matches!(
            self,
            Type::Bool | Type::UChar | Type::UShort | Type::UInt | Type::ULong
        )
    }

    /// Is this any scalar (integer, float or pointer)?
    pub fn is_scalar(&self) -> bool {
        self.is_integer() || self.is_float() || matches!(self, Type::Pointer(_))
    }
}

/// One laid-out field of a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: TypeId,
    /// Byte offset from the start of the record (0 for union fields).
    pub offset: u32,
}

/// A struct or union definition with computed layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Tag or typedef-derived name, if any (for printing).
    pub name: Option<String>,
    /// Laid-out fields.
    pub fields: Vec<Field>,
    /// Total size in bytes (padded).
    pub size: u32,
    /// Alignment in bytes.
    pub align: u32,
    /// True for unions.
    pub is_union: bool,
}

impl Record {
    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// Interner and layout engine for all types in a program.
#[derive(Debug, Clone)]
pub struct TypeTable {
    types: Vec<Type>,
    intern: HashMap<Type, TypeId>,
    records: Vec<Record>,
    typedefs: HashMap<String, TypeId>,
    struct_tags: HashMap<String, TypeId>,
    union_tags: HashMap<String, TypeId>,
    enum_tags: HashMap<String, TypeId>,
    /// Enumerator name → value (shared const environment).
    pub enum_consts: HashMap<String, i64>,
}

impl Default for TypeTable {
    fn default() -> Self {
        TypeTable::new()
    }
}

/// The primitives pre-interned by [`TypeTable::new`], in id order —
/// `primitive_id` relies on this exact order.
const PRIMITIVES: [Type; 12] = [
    Type::Void,
    Type::Bool,
    Type::Char,
    Type::UChar,
    Type::Short,
    Type::UShort,
    Type::Int,
    Type::UInt,
    Type::Long,
    Type::ULong,
    Type::Float,
    Type::Double,
];

/// The fixed id of a primitive type (pre-interned by
/// [`TypeTable::new`]), letting the interpreter skip the intern map on
/// its hottest calls.
fn primitive_id(ty: &Type) -> Option<TypeId> {
    let i = match ty {
        Type::Void => 0,
        Type::Bool => 1,
        Type::Char => 2,
        Type::UChar => 3,
        Type::Short => 4,
        Type::UShort => 5,
        Type::Int => 6,
        Type::UInt => 7,
        Type::Long => 8,
        Type::ULong => 9,
        Type::Float => 10,
        Type::Double => 11,
        _ => return None,
    };
    Some(TypeId(i))
}

impl TypeTable {
    /// An empty table with the primitive types pre-interned.
    pub fn new() -> Self {
        let mut t = TypeTable {
            types: Vec::new(),
            intern: HashMap::new(),
            records: Vec::new(),
            typedefs: HashMap::new(),
            struct_tags: HashMap::new(),
            union_tags: HashMap::new(),
            enum_tags: HashMap::new(),
            enum_consts: HashMap::new(),
        };
        // Pre-intern scalars so TypeIds are stable and cheap.
        for ty in PRIMITIVES {
            t.intern_slow(ty);
        }
        t
    }

    /// Build a table from a parsed program: registers all typedefs,
    /// record/enum tags and enumerators, in source order.
    pub fn build(prog: &ast::Program, sink: &mut DiagSink) -> Self {
        let mut t = TypeTable::new();
        for item in &prog.items {
            match item {
                ast::Item::Typedef(td) => {
                    match t.resolve_named(&td.ty, Some(&td.name.name), sink) {
                        Some(id) => {
                            t.typedefs.insert(td.name.name.clone(), id);
                        }
                        None => {
                            sink.error(
                                format!("cannot resolve typedef `{}`", td.name.name),
                                td.span,
                            );
                        }
                    }
                }
                ast::Item::TypeDecl(ty) => {
                    let _ = t.resolve_named(ty, None, sink);
                }
                _ => {}
            }
        }
        t
    }

    /// Intern a resolved type.
    pub fn intern(&mut self, ty: Type) -> TypeId {
        if let Some(id) = primitive_id(&ty) {
            return id;
        }
        self.intern_slow(ty)
    }

    /// The handle of `ty` if it is already interned — the read-only
    /// half of [`TypeTable::intern`] (primitives always are).
    pub fn lookup(&self, ty: Type) -> Option<TypeId> {
        primitive_id(&ty).or_else(|| self.intern.get(&ty).copied())
    }

    fn intern_slow(&mut self, ty: Type) -> TypeId {
        if let Some(id) = self.intern.get(&ty) {
            return *id;
        }
        let id = TypeId(self.types.len() as u32);
        self.types.push(ty);
        self.intern.insert(ty, id);
        id
    }

    /// The resolved type behind a handle.
    pub fn get(&self, id: TypeId) -> Type {
        self.types[id.0 as usize]
    }

    /// The record behind a struct/union/enum handle.
    pub fn record(&self, id: RecordId) -> &Record {
        &self.records[id.0 as usize]
    }

    /// Look up a typedef by name.
    pub fn typedef(&self, name: &str) -> Option<TypeId> {
        self.typedefs.get(name).copied()
    }

    /// Convenience handles for the primitives (pre-interned, so no
    /// lookup and no growth).
    pub fn prim(&self, p: PrimType) -> TypeId {
        let ty = match p {
            PrimType::Void => Type::Void,
            PrimType::Bool => Type::Bool,
            PrimType::Char => Type::Char,
            PrimType::UChar => Type::UChar,
            PrimType::Short => Type::Short,
            PrimType::UShort => Type::UShort,
            PrimType::Int => Type::Int,
            PrimType::UInt => Type::UInt,
            PrimType::Long => Type::Long,
            PrimType::ULong => Type::ULong,
            PrimType::Float => Type::Float,
            PrimType::Double => Type::Double,
        };
        primitive_id(&ty).expect("every PrimType is pre-interned")
    }

    /// Shorthand: the `int` type.
    pub fn int(&self) -> TypeId {
        self.prim(PrimType::Int)
    }

    /// Shorthand: the `bool` type.
    pub fn bool(&self) -> TypeId {
        self.prim(PrimType::Bool)
    }

    /// Shorthand: the `unsigned char` type.
    pub fn uchar(&self) -> TypeId {
        self.prim(PrimType::UChar)
    }

    /// Resolve a syntactic type reference without growing the table:
    /// `Some` only when every part of `ty` is already known (a
    /// primitive, a typedef, a tag reference, or a pointer/array type
    /// interned before). Record and enum *definitions* always define a
    /// new type, so they return `None`, as does anything that fails to
    /// resolve — [`TypeTable::resolve`] then grows the table or reports
    /// the error. Where both succeed they return the same handle.
    pub fn lookup_ref(&self, ty: &TypeRef) -> Option<TypeId> {
        match &ty.kind {
            TypeRefKind::Prim(p) => Some(self.prim(*p)),
            TypeRefKind::Named(id) => self.typedef(&id.name),
            TypeRefKind::Pointer(inner) => self.lookup(Type::Pointer(self.lookup_ref(inner)?)),
            TypeRefKind::Array(inner, len) => {
                let elem = self.lookup_ref(inner)?;
                let n = self.array_len(len.as_ref()?).ok()?;
                self.lookup(Type::Array(elem, n))
            }
            TypeRefKind::Struct(r) if r.fields.is_none() => {
                self.struct_tags.get(&r.tag.as_ref()?.name).copied()
            }
            TypeRefKind::Union(r) if r.fields.is_none() => {
                self.union_tags.get(&r.tag.as_ref()?.name).copied()
            }
            TypeRefKind::Enum(e) if e.variants.is_none() => {
                self.enum_tags.get(&e.tag.as_ref()?.name).copied()
            }
            TypeRefKind::Struct(_) | TypeRefKind::Union(_) | TypeRefKind::Enum(_) => None,
        }
    }

    /// Constant-fold an array length with the enumerators seen so far.
    fn array_len(&self, e: &ast::Expr) -> Result<u32, String> {
        let env = ConstEnv {
            consts: &self.enum_consts,
        };
        match consteval::eval(e, &env) {
            Ok(v) if v >= 0 && v <= u32::MAX as i64 => Ok(v as u32),
            Ok(v) => Err(format!("array length {v} out of range")),
            Err(err) => Err(format!("array length is not a constant: {err}")),
        }
    }

    /// Resolve a syntactic type reference to a [`TypeId`].
    ///
    /// Array lengths are constant-folded using the enumerators seen so
    /// far. Unresolvable references produce a diagnostic and `None`.
    pub fn resolve(&mut self, ty: &TypeRef, sink: &mut DiagSink) -> Option<TypeId> {
        self.resolve_named(ty, None, sink)
    }

    fn resolve_named(
        &mut self,
        ty: &TypeRef,
        name_hint: Option<&str>,
        sink: &mut DiagSink,
    ) -> Option<TypeId> {
        match &ty.kind {
            TypeRefKind::Prim(p) => Some(self.prim(*p)),
            TypeRefKind::Named(id) => match self.typedef(&id.name) {
                Some(t) => Some(t),
                None => {
                    sink.error(format!("unknown type name `{}`", id.name), id.span);
                    None
                }
            },
            TypeRefKind::Pointer(inner) => {
                let i = self.resolve(inner, sink)?;
                Some(self.intern(Type::Pointer(i)))
            }
            TypeRefKind::Array(inner, len) => {
                let i = self.resolve(inner, sink)?;
                let n = match len {
                    Some(e) => match self.array_len(e) {
                        Ok(n) => n,
                        Err(msg) => {
                            sink.error(msg, e.span);
                            return None;
                        }
                    },
                    None => {
                        sink.error("array type needs a length here", ty.span);
                        return None;
                    }
                };
                Some(self.intern(Type::Array(i, n)))
            }
            TypeRefKind::Struct(r) | TypeRefKind::Union(r) => {
                let is_union = matches!(ty.kind, TypeRefKind::Union(_));
                self.resolve_record(r, is_union, name_hint, ty.span, sink)
            }
            TypeRefKind::Enum(e) => self.resolve_enum(e, name_hint, ty.span, sink),
        }
    }

    fn resolve_record(
        &mut self,
        r: &ast::RecordRef,
        is_union: bool,
        name_hint: Option<&str>,
        span: Span,
        sink: &mut DiagSink,
    ) -> Option<TypeId> {
        let tags = if is_union {
            &self.union_tags
        } else {
            &self.struct_tags
        };
        if r.fields.is_none() {
            // Pure reference by tag.
            let tag = r.tag.as_ref()?;
            return match tags.get(&tag.name) {
                Some(id) => Some(*id),
                None => {
                    sink.error(
                        format!(
                            "unknown {} tag `{}`",
                            if is_union { "union" } else { "struct" },
                            tag.name
                        ),
                        tag.span,
                    );
                    None
                }
            };
        }
        // Definition: lay out the fields.
        let fields_ast = r.fields.as_ref().expect("checked above");
        let mut fields = Vec::new();
        let mut offset = 0u32;
        let mut max_align = 1u32;
        let mut max_size = 0u32;
        for f in fields_ast {
            let fty = self.resolve(&f.ty, sink)?;
            let fsize = self.size_of(fty);
            let falign = self.align_of(fty);
            max_align = max_align.max(falign);
            let foff = if is_union {
                0
            } else {
                let aligned = align_up(offset, falign);
                offset = aligned + fsize;
                aligned
            };
            max_size = max_size.max(fsize);
            fields.push(Field {
                name: f.name.name.clone(),
                ty: fty,
                offset: foff,
            });
        }
        let size = if is_union {
            align_up(max_size, max_align)
        } else {
            align_up(offset, max_align)
        };
        let name = r
            .tag
            .as_ref()
            .map(|t| t.name.clone())
            .or_else(|| name_hint.map(str::to_string));
        let rec_id = RecordId(self.records.len() as u32);
        self.records.push(Record {
            name,
            fields,
            size,
            align: max_align,
            is_union,
        });
        let ty = if is_union {
            Type::Union(rec_id)
        } else {
            Type::Struct(rec_id)
        };
        let id = self.intern(ty);
        if let Some(tag) = &r.tag {
            let tags = if is_union {
                &mut self.union_tags
            } else {
                &mut self.struct_tags
            };
            if tags.insert(tag.name.clone(), id).is_some() {
                sink.warning(format!("tag `{}` redefined", tag.name), span);
            }
        }
        Some(id)
    }

    fn resolve_enum(
        &mut self,
        e: &ast::EnumRef,
        name_hint: Option<&str>,
        span: Span,
        sink: &mut DiagSink,
    ) -> Option<TypeId> {
        if e.variants.is_none() {
            let tag = e.tag.as_ref()?;
            return match self.enum_tags.get(&tag.name) {
                Some(id) => Some(*id),
                None => {
                    sink.error(format!("unknown enum tag `{}`", tag.name), tag.span);
                    None
                }
            };
        }
        let mut next = 0i64;
        let mut fields = Vec::new();
        for v in e.variants.as_ref().expect("checked above") {
            let val = match &v.value {
                Some(expr) => {
                    let env = ConstEnv {
                        consts: &self.enum_consts,
                    };
                    match consteval::eval(expr, &env) {
                        Ok(x) => x,
                        Err(err) => {
                            sink.error(format!("enumerator value not constant: {err}"), expr.span);
                            next
                        }
                    }
                }
                None => next,
            };
            next = val + 1;
            self.enum_consts.insert(v.name.name.clone(), val);
            fields.push(Field {
                name: v.name.name.clone(),
                ty: TypeId(6), // Int — index per `TypeTable::new` ordering
                offset: val as u32,
            });
        }
        let name = e
            .tag
            .as_ref()
            .map(|t| t.name.clone())
            .or_else(|| name_hint.map(str::to_string));
        let rec_id = RecordId(self.records.len() as u32);
        self.records.push(Record {
            name,
            fields,
            size: 4,
            align: 4,
            is_union: false,
        });
        let id = self.intern(Type::Enum(rec_id));
        if let Some(tag) = &e.tag {
            if self.enum_tags.insert(tag.name.clone(), id).is_some() {
                sink.warning(format!("enum tag `{}` redefined", tag.name), span);
            }
        }
        Some(id)
    }

    /// Size of a type in bytes (target: 32-bit MIPS-style ABI).
    pub fn size_of(&self, id: TypeId) -> u32 {
        match self.get(id) {
            Type::Void => 0,
            Type::Bool | Type::Char | Type::UChar => 1,
            Type::Short | Type::UShort => 2,
            Type::Int | Type::UInt | Type::Long | Type::ULong | Type::Float => 4,
            Type::Double => 8,
            Type::Pointer(_) => 4,
            Type::Array(elem, n) => self.size_of(elem) * n,
            Type::Struct(r) | Type::Union(r) => self.record(r).size,
            Type::Enum(_) => 4,
        }
    }

    /// Alignment of a type in bytes.
    pub fn align_of(&self, id: TypeId) -> u32 {
        match self.get(id) {
            Type::Void => 1,
            Type::Bool | Type::Char | Type::UChar => 1,
            Type::Short | Type::UShort => 2,
            Type::Int | Type::UInt | Type::Long | Type::ULong | Type::Float => 4,
            Type::Double => 8,
            Type::Pointer(_) => 4,
            Type::Array(elem, _) => self.align_of(elem),
            Type::Struct(r) | Type::Union(r) => self.record(r).align,
            Type::Enum(_) => 4,
        }
    }

    /// Human-readable name of a type (for diagnostics and codegen).
    pub fn name_of(&self, id: TypeId) -> String {
        match self.get(id) {
            Type::Void => "void".into(),
            Type::Bool => "bool".into(),
            Type::Char => "char".into(),
            Type::UChar => "unsigned char".into(),
            Type::Short => "short".into(),
            Type::UShort => "unsigned short".into(),
            Type::Int => "int".into(),
            Type::UInt => "unsigned int".into(),
            Type::Long => "long".into(),
            Type::ULong => "unsigned long".into(),
            Type::Float => "float".into(),
            Type::Double => "double".into(),
            Type::Pointer(p) => format!("{} *", self.name_of(p)),
            Type::Array(e, n) => format!("{}[{n}]", self.name_of(e)),
            Type::Struct(r) => format!(
                "struct {}",
                self.record(r).name.as_deref().unwrap_or("<anon>")
            ),
            Type::Union(r) => format!(
                "union {}",
                self.record(r).name.as_deref().unwrap_or("<anon>")
            ),
            Type::Enum(r) => format!(
                "enum {}",
                self.record(r).name.as_deref().unwrap_or("<anon>")
            ),
        }
    }
}

impl fmt::Display for TypeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TypeTable with {} types:", self.types.len())?;
        for (name, id) in &self.typedefs {
            writeln!(f, "  typedef {name} = {}", self.name_of(*id))?;
        }
        Ok(())
    }
}

/// Round `x` up to a multiple of `align` (which must be a power of two
/// in practice, though the formula works for any positive value).
pub fn align_up(x: u32, align: u32) -> u32 {
    debug_assert!(align > 0, "alignment must be positive");
    x.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_syntax::parse_str;

    fn build(src: &str) -> (TypeTable, DiagSink) {
        let prog = parse_str(src).expect("parse");
        let mut sink = DiagSink::new();
        let t = TypeTable::build(&prog, &mut sink);
        (t, sink)
    }

    #[test]
    fn scalar_sizes_match_mips_abi() {
        let mut t = TypeTable::new();
        for (ty, size) in [
            (Type::Char, 1),
            (Type::Short, 2),
            (Type::Int, 4),
            (Type::Long, 4),
            (Type::Double, 8),
        ] {
            let id = t.intern(ty);
            assert_eq!(t.size_of(id), size, "{ty:?}");
        }
        let i = t.int();
        let p = t.intern(Type::Pointer(i));
        assert_eq!(t.size_of(p), 4);
    }

    #[test]
    fn paper_packet_layout() {
        // The exact declarations from Figure 1 of the paper.
        let (t, sink) = build(
            "#define HDRSIZE 6\n#define DATASIZE 56\n#define CRCSIZE 2\n\
             #define PKTSIZE HDRSIZE+DATASIZE+CRCSIZE\n\
             typedef unsigned char byte;\n\
             typedef struct { byte packet[PKTSIZE]; } packet_view_1_t;\n\
             typedef struct { byte header[HDRSIZE]; byte data[DATASIZE]; byte crc[CRCSIZE]; } packet_view_2_t;\n\
             typedef union { packet_view_1_t raw; packet_view_2_t cooked; } packet_t;\n",
        );
        assert!(!sink.has_errors(), "{sink}");
        let pkt = t.typedef("packet_t").unwrap();
        assert_eq!(t.size_of(pkt), 64);
        let Type::Union(r) = t.get(pkt) else {
            panic!("expected union")
        };
        let rec = t.record(r);
        assert!(rec.is_union);
        assert_eq!(rec.fields.len(), 2);
        assert_eq!(rec.fields[0].offset, 0);
        assert_eq!(rec.fields[1].offset, 0);
        // The cooked view: crc lives at offset 62 within its struct.
        let v2 = t.typedef("packet_view_2_t").unwrap();
        let Type::Struct(r2) = t.get(v2) else {
            panic!()
        };
        assert_eq!(t.record(r2).field("crc").unwrap().offset, 62);
    }

    #[test]
    fn struct_padding_and_alignment() {
        let (t, sink) = build("typedef struct { char c; int i; char d; } s_t;");
        assert!(!sink.has_errors());
        let s = t.typedef("s_t").unwrap();
        // c at 0, pad to 4, i at 4..8, d at 8, pad to 12.
        assert_eq!(t.size_of(s), 12);
        assert_eq!(t.align_of(s), 4);
        let Type::Struct(r) = t.get(s) else { panic!() };
        let rec = t.record(r);
        assert_eq!(rec.field("i").unwrap().offset, 4);
        assert_eq!(rec.field("d").unwrap().offset, 8);
    }

    #[test]
    fn double_alignment() {
        let (t, _) = build("typedef struct { char c; double d; } s_t;");
        let s = t.typedef("s_t").unwrap();
        assert_eq!(t.size_of(s), 16);
        assert_eq!(t.align_of(s), 8);
    }

    #[test]
    fn enums_register_constants() {
        let (t, sink) = build("typedef enum { IDLE, RUN = 5, DONE } mode_t;");
        assert!(!sink.has_errors());
        assert_eq!(t.enum_consts["IDLE"], 0);
        assert_eq!(t.enum_consts["RUN"], 5);
        assert_eq!(t.enum_consts["DONE"], 6);
        let m = t.typedef("mode_t").unwrap();
        assert_eq!(t.size_of(m), 4);
    }

    #[test]
    fn unknown_type_name_is_error() {
        // The parser already rejects unknown type names (it tracks
        // typedefs for cast disambiguation), so this fails at parse time.
        assert!(parse_str("typedef nothing_t other_t;").is_err());
        // A tag reference to an undefined struct resolves to an error
        // at table-build time.
        let (_, sink) = build("typedef struct nowhere missing_t;");
        assert!(sink.has_errors());
    }

    #[test]
    fn nested_arrays() {
        let (t, _) = build("typedef int grid_t[3][4];");
        let g = t.typedef("grid_t").unwrap();
        assert_eq!(t.size_of(g), 48);
        let Type::Array(row, 3) = t.get(g) else {
            panic!("outer dim should be 3: {:?}", t.get(g))
        };
        assert_eq!(
            t.get(row),
            Type::Array(t.intern.get(&Type::Int).copied().unwrap(), 4)
        );
    }

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 4), 0);
        assert_eq!(align_up(1, 4), 4);
        assert_eq!(align_up(4, 4), 4);
        assert_eq!(align_up(5, 8), 8);
    }

    #[test]
    fn struct_tag_references() {
        let (t, sink) = build(
            "typedef struct pair { int a; int b; } pair_t;\
             typedef struct pair same_t;",
        );
        assert!(!sink.has_errors(), "{sink}");
        assert_eq!(t.typedef("pair_t"), t.typedef("same_t"));
    }
}
