//! The ECL compiler — the paper's primary contribution.
//!
//! ECL (Esterel/C Language, Lavagno & Sentovich, DAC 1999) extends ANSI
//! C with Esterel's reactive statements. This crate implements the full
//! compilation scheme of Section 3 of the paper:
//!
//! 1. parse ECL (done by `ecl-syntax`) and *elaborate* the design:
//!    module instantiations are inlined, signals and variables renamed
//!    to a flat global namespace ([`elab`]);
//! 2. *split* the program into a reactive part (kernel Esterel) and a
//!    data part (extracted C fragments) connected by glue ids
//!    ([`split`]); both of the paper's strategies are available —
//!    [`SplitStrategy::MaxEsterel`] (the paper's current scheme: "as
//!    much as possible into Esterel") and [`SplitStrategy::MinEsterel`]
//!    (the Section 6 future-work scheme: only mandatory reactivity);
//! 3. compile the Esterel part to an EFSM (crate `esterel`), while the
//!    data part executes through the glue runtime ([`rt`]) backed by the
//!    C interpreter in `ecl-types`.
//!
//! The entry point is the staged [`pipeline`]: typed artifacts for
//! every phase, re-enterable without rework.
//!
//! # Example
//!
//! ```
//! use ecl_core::Source;
//! let src = "
//!   module counter(input pure tick, input pure reset, output pure full) {
//!     int n;
//!     while (1) {
//!       do {
//!         n = 0;
//!         while (n < 3) { await (tick); n = n + 1; }
//!         emit (full);
//!         halt ();
//!       } abort (reset);
//!     }
//!   }";
//! let machine = Source::new(src).finish("counter").unwrap();
//! assert!(machine.efsm().states.len() >= 2);
//! // The `Design` a simulator runs shares the same parse and split.
//! assert_eq!(machine.design().entry, "counter");
//! ```

pub mod elab;
pub mod fused;
pub mod pipeline;
pub mod rt;
pub mod split;

pub use ecl_syntax::diag::{Diagnostics, EclError, Stage};
pub use fused::Fused;
pub use pipeline::{Design, Source};
pub use rt::Rt;
pub use split::{DataTable, SplitStrategy};
