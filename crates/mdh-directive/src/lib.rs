//! # mdh-directive
//!
//! The paper's contribution: a **reduction-aware directive** for
//! data-parallel computations, lowered onto the MDH DSL.
//!
//! Every front end produces the same [`mdh_core::dsl::DslProgram`]:
//!
//! 1. The **textual directive language** — a Python-like surface syntax
//!    matching the paper's listings (the paper embeds the directive as a
//!    Python decorator; we parse the identical shape from text), and the
//!    same directive as `#pragma mdh` over C loops ([`compile_c`]) and
//!    `!$mdh` over Fortran `do` nests ([`compile_fortran`]): one lexer,
//!    one expression grammar and one clause parser under three
//!    [`lexer::Dialect`] tables. [`compile_any`] picks the front end from
//!    the source's sentinel.
//!
//! ```
//! use mdh_directive::{compile, DirectiveEnv};
//!
//! # fn main() -> mdh_core::error::Result<()> {
//! let env = DirectiveEnv::new().size("I", 8).size("K", 8);
//! let prog = compile(
//!     "\
//! @mdh( out( w = Buffer[fp32] ),
//!       inp( M = Buffer[fp32], v = Buffer[fp32] ),
//!       combine_ops( cc, pw(add) ) )
//! def matvec(w, M, v):
//!     for i in range(I):
//!         for k in range(K):
//!             w[i] = M[i, k] * v[k]
//! ",
//!     &env,
//! )?;
//! assert_eq!(prog.md_hom.reduction_dims(), vec![1]);
//! # Ok(())
//! # }
//! ```
//!
//! 2. The **programmatic builder** ([`builder::DirectiveBuilder`]) for
//!    hosts that assemble directives dynamically.
//!
//! The key design point (Section 4.1): the loop body computes a *single
//! iteration-space point* with `=`; reductions are declared in
//! `combine_ops(...)`. A `+=` in the body is rejected with guidance.

#![allow(clippy::needless_range_loop)]

/// Maximum nesting depth any front end will recurse to (parenthesised
/// expressions, unary-operator chains, statement blocks). The serving
/// path feeds client-controlled bytes into these recursive-descent
/// parsers; without a bound, pathological nesting is a stack overflow —
/// an abort `catch_unwind` cannot contain — rather than a parse error.
pub const MAX_NEST_DEPTH: usize = 64;

pub mod ast;
pub mod builder;
pub mod c_frontend;
pub mod dsl_text;
pub mod fortran_frontend;
mod grammar;
pub mod lexer;
pub mod parser;
pub mod semantic;
pub mod transform;

pub use ast::{DirectiveAst, DirectiveEnv};
pub use builder::DirectiveBuilder;
pub use c_frontend::{compile_c, parse_c};
pub use dsl_text::parse_dsl;
pub use fortran_frontend::{compile_fortran, parse_fortran};
pub use parser::parse;
pub use semantic::{analyze, AnalyzedDirective};
pub use transform::{compile, directive_to_dsl, to_dsl};

/// Compile source through the front end its sentinel selects: a line
/// starting with `#pragma mdh` → C, with `!$mdh` → Fortran (the
/// [`lexer::Dialect`] table's sentinels), a leading `out_view` → the
/// textual DSL, otherwise the Python-like directive.
pub fn compile_any(
    src: &str,
    env: &DirectiveEnv,
) -> mdh_core::error::Result<mdh_core::dsl::DslProgram> {
    if lexer::C.marks(src) {
        compile_c(src, env)
    } else if lexer::FORTRAN.marks(src) {
        compile_fortran(src, env)
    } else if src.trim_start().starts_with("out_view") {
        parse_dsl(src, env)
    } else {
        compile(src, env)
    }
}
