//! C type system, data layout and data-part interpretation for ECL.
//!
//! The paper's data sub-language *is* ANSI C, so the reproduction needs a
//! faithful-enough C semantic core:
//!
//! * [`types`] — resolved types ([`TypeTable`]), struct/union/enum
//!   definitions, and a MIPS-o32-style layout engine (the paper's
//!   numbers are for a MIPS R3000);
//! * [`consteval`] — constant expression evaluation (array lengths,
//!   enumerator values, `#define`d constants after preprocessing);
//! * [`value`] — the byte-level runtime [`Value`] model. Values are
//!   little-endian byte buffers, which makes the paper's union-based
//!   "two views of a packet" idiom (Figure 1) work exactly as in C;
//! * [`interp`] — an interpreter for the data fragments the ECL splitter
//!   extracts as C functions, plus plain user C functions;
//! * [`lower`] + [`vm`] — the compiled data path: every predicate,
//!   action and valued-emit expression lowers once, folding as it goes,
//!   to a register bytecode program over dense frame slots and signal
//!   indices, or to no program when it steps outside the subset;
//!   `ecl_core` inlines the programs into one dispatch loop per
//!   reaction of a task whose every hook has one, and runs any other
//!   task on the tree walker.
//!
//! # Example
//!
//! ```
//! use ecl_types::TypeTable;
//! let prog = ecl_syntax::parse_str(
//!     "#define N 4\ntypedef unsigned char byte;\
//!      typedef struct { byte data[N]; } buf_t;").unwrap();
//! let mut sink = ecl_syntax::DiagSink::new();
//! let table = TypeTable::build(&prog, &mut sink);
//! let buf = table.typedef("buf_t").unwrap();
//! assert_eq!(table.size_of(buf), 4);
//! ```

pub mod consteval;
pub mod interp;
pub mod lower;
pub mod types;
pub mod value;
pub mod vm;

pub use ecl_syntax::fxmap::{FxHashMap, FxHasher};
pub use interp::{EvalError, Flow, Machine, SignalReader};
pub use lower::{Lowering, SignalLayout};
pub use types::{Field, Record, Type, TypeId, TypeTable};
pub use value::{Bytes, Value};
pub use vm::{Program, ValuesReader};
