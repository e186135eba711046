//! # mdh-core
//!
//! The algebraic core of the MDH (Multi-Dimensional Homomorphisms)
//! formalism, as used by the paper *Reduction-Aware Directive-Based
//! Programming via Multi-Dimensional Homomorphisms* (SC Workshops '25).
//!
//! A data-parallel computation in the MDH sense is an expression
//!
//! ```text
//! ⊗_1 ... ⊗_D  f( a[i_1, ..., i_D] )
//! ```
//!
//! for an arbitrary scalar function `f` and per-dimension *combine
//! operators* `⊗_d` (footnote 2 of the paper). This crate provides:
//!
//! * [`types`] — scalar and record element types plus dynamic [`types::Value`]s,
//! * [`shape`] — shapes, strides, and rectangular iteration ranges,
//! * [`buffer`] — typed multi-dimensional buffers (record buffers stored
//!   column-wise),
//! * [`index_fn`] — affine index functions with footprint/injectivity
//!   analyses,
//! * [`expr`] — the scalar-function IR (the directive's loop body),
//! * [`combine`] — combine operators `cc`, `pw(f)`, `ps(f)` (Appendix A),
//! * [`views`] — `inp_view` / `out_view`,
//! * [`dsl`] — the high-level program representation `md_hom` (Listing 7)
//!   and a fluent [`dsl::DslBuilder`],
//! * [`eval`] — the reference evaluators defining the semantics,
//! * [`laws`] — homomorphism-law checks underpinning the correctness of
//!   all (de)composition-based optimisations.
//!
//! Higher layers build on this crate: `mdh-directive` (the paper's
//! contribution — the directive front end), `mdh-lowering` (schedules),
//! `mdh-backend` (CPU/GPU execution), `mdh-tuner` (auto-tuning), and
//! `mdh-baselines` (comparison systems).

// Dimension-indexed loops (`for d in 0..rank`) are the idiom of this
// codebase — indices name iteration-space dimensions across several
// parallel arrays, which iterator adapters would obscure.
#![allow(clippy::needless_range_loop)]
pub mod buffer;
pub mod combine;
pub mod dsl;
pub mod error;
pub mod eval;
pub mod expr;
pub mod index_fn;
pub mod laws;
pub mod shape;
pub mod types;
pub mod views;

/// Commonly-used items, re-exported for convenience.
pub mod prelude {
    pub use crate::buffer::{Buffer, BufferData};
    pub use crate::combine::{
        Associativity, BuiltinReduce, CombineOp, DimBehavior, PwFunc, PwKind,
    };
    pub use crate::dsl::{DslBuilder, DslProgram, MdHom, ProgramStats};
    pub use crate::error::MdhError;
    pub use crate::eval::evaluate_recursive;
    pub use crate::expr::{BinOp, Expr, MathFn, ScalarFunction, SfPattern, Stmt, UnOp};
    pub use crate::index_fn::{AffineExpr, IndexFn};
    pub use crate::shape::{MdRange, Shape};
    pub use crate::types::{BasicType, FieldType, RecordType, ScalarKind, Tuple, Value};
    pub use crate::views::{Access, BufferDecl, View};
}
