//! Programmatic directive construction.
//!
//! [`DirectiveBuilder`] is the Rust-native analogue of the `@mdh`
//! decorator: instead of parsing Python-like text it assembles the same
//! surface AST directly, then runs the identical analysis and
//! transformation pipeline. Useful when the host program wants to build
//! directives dynamically (the textual front end remains the primary,
//! paper-faithful interface).

use crate::ast::*;
use crate::semantic::analyze;
use crate::transform::to_dsl;
use mdh_core::dsl::DslProgram;
use mdh_core::error::Result;

/// Fluent builder for a directive program.
///
/// ```
/// use mdh_directive::builder::DirectiveBuilder;
/// use mdh_directive::ast::{AssignTarget, DirectiveEnv, SurfBinOp, SurfaceExpr};
///
/// # fn main() -> mdh_core::error::Result<()> {
/// // MatVec, built programmatically (cf. Listing 8)
/// let env = DirectiveEnv::new().size("I", 4).size("K", 5);
/// let prog = DirectiveBuilder::new("matvec")
///     .out("w", "fp32")
///     .inp("M", "fp32")
///     .inp("v", "fp32")
///     .combine_op_cc()
///     .combine_op_pw("add")
///     .loop_var("i", SurfaceExpr::Name("I".into()))
///     .loop_var("k", SurfaceExpr::Name("K".into()))
///     .store(
///         AssignTarget::Subscript("w".into(), vec![SurfaceExpr::Name("i".into())]),
///         SurfaceExpr::Bin(
///             SurfBinOp::Mul,
///             Box::new(SurfaceExpr::Subscript(
///                 Box::new(SurfaceExpr::Name("M".into())),
///                 vec![SurfaceExpr::Name("i".into()), SurfaceExpr::Name("k".into())],
///             )),
///             Box::new(SurfaceExpr::Subscript(
///                 Box::new(SurfaceExpr::Name("v".into())),
///                 vec![SurfaceExpr::Name("k".into())],
///             )),
///         ),
///     )
///     .build(&env)?;
/// assert_eq!(prog.md_hom.sizes, vec![4, 5]);
/// # Ok(())
/// # }
/// ```
pub struct DirectiveBuilder {
    name: String,
    out: Vec<BufferSpec>,
    inp: Vec<BufferSpec>,
    combine_ops: Vec<CombineOpSpec>,
    loops: Vec<(String, SurfaceExpr)>,
    body: Vec<SurfaceStmt>,
}

impl DirectiveBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        DirectiveBuilder {
            name: name.into(),
            out: Vec::new(),
            inp: Vec::new(),
            combine_ops: Vec::new(),
            loops: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Declare an output buffer `name = Buffer[ty]`.
    pub fn out(mut self, name: &str, ty: &str) -> Self {
        self.out.push(BufferSpec {
            name: name.into(),
            ty_name: ty.into(),
            shape: None,
            line: 0,
        });
        self
    }

    /// Declare an input buffer `name = Buffer[ty]`.
    pub fn inp(mut self, name: &str, ty: &str) -> Self {
        self.inp.push(BufferSpec {
            name: name.into(),
            ty_name: ty.into(),
            shape: None,
            line: 0,
        });
        self
    }

    /// Declare an input buffer with an explicit shape (as MCC's enlarged
    /// `img`, Listing 12).
    pub fn inp_with_shape(mut self, name: &str, ty: &str, shape: Vec<SurfaceExpr>) -> Self {
        self.inp.push(BufferSpec {
            name: name.into(),
            ty_name: ty.into(),
            shape: Some(shape),
            line: 0,
        });
        self
    }

    pub fn combine_op_cc(mut self) -> Self {
        self.combine_ops.push(CombineOpSpec::Cc);
        self
    }

    pub fn combine_op_pw(mut self, f: &str) -> Self {
        self.combine_ops.push(CombineOpSpec::Pw(f.into()));
        self
    }

    /// Add a loop level `for var in range(count)`.
    pub fn loop_var(mut self, var: &str, count: SurfaceExpr) -> Self {
        self.loops.push((var.into(), count));
        self
    }

    /// Add an innermost-body statement.
    pub fn stmt(mut self, stmt: SurfaceStmt) -> Self {
        self.body.push(stmt);
        self
    }

    /// Add a store `target = value`.
    pub fn store(self, target: AssignTarget, value: SurfaceExpr) -> Self {
        self.stmt(SurfaceStmt::Assign {
            target,
            value,
            line: 0,
        })
    }

    /// Assemble the AST, analyse it, and produce the DSL program.
    pub fn build(self, env: &DirectiveEnv) -> Result<DslProgram> {
        let mut body = self.body;
        for (var, count) in self.loops.into_iter().rev() {
            body = vec![SurfaceStmt::For {
                var,
                count,
                body,
                line: 0,
            }];
        }
        let params = self
            .out
            .iter()
            .chain(&self.inp)
            .map(|b| b.name.clone())
            .collect();
        let ast = DirectiveAst {
            name: self.name,
            params,
            out: self.out,
            inp: self.inp,
            combine_ops: self.combine_ops,
            body,
            line: 0,
        };
        let analyzed = analyze(&ast, env)?;
        to_dsl(&analyzed)
    }
}

/// Shorthand constructors for surface expressions.
pub mod sx {
    use super::*;

    pub fn name(n: &str) -> SurfaceExpr {
        SurfaceExpr::Name(n.into())
    }

    pub fn int(v: i64) -> SurfaceExpr {
        SurfaceExpr::Int(v)
    }

    pub fn float(v: f64) -> SurfaceExpr {
        SurfaceExpr::Float(v)
    }

    pub fn load(buffer: &str, indices: Vec<SurfaceExpr>) -> SurfaceExpr {
        SurfaceExpr::Subscript(Box::new(name(buffer)), indices)
    }

    pub fn add(a: SurfaceExpr, b: SurfaceExpr) -> SurfaceExpr {
        SurfaceExpr::Bin(SurfBinOp::Add, Box::new(a), Box::new(b))
    }

    pub fn sub(a: SurfaceExpr, b: SurfaceExpr) -> SurfaceExpr {
        SurfaceExpr::Bin(SurfBinOp::Sub, Box::new(a), Box::new(b))
    }

    pub fn mul(a: SurfaceExpr, b: SurfaceExpr) -> SurfaceExpr {
        SurfaceExpr::Bin(SurfBinOp::Mul, Box::new(a), Box::new(b))
    }

    pub fn store(buffer: &str, indices: Vec<SurfaceExpr>) -> AssignTarget {
        AssignTarget::Subscript(buffer.into(), indices)
    }
}

#[cfg(test)]
mod tests {
    use super::sx::*;
    use super::*;
    use mdh_core::buffer::Buffer;
    use mdh_core::eval::evaluate_recursive;
    use mdh_core::shape::Shape;
    use mdh_core::types::BasicType;

    #[test]
    fn builder_matmul_runs() {
        let env = DirectiveEnv::new().size("I", 2).size("J", 3).size("K", 4);
        let prog = DirectiveBuilder::new("matmul")
            .out("C", "fp64")
            .inp("A", "fp64")
            .inp("B", "fp64")
            .combine_op_cc()
            .combine_op_cc()
            .combine_op_pw("add")
            .loop_var("i", name("I"))
            .loop_var("j", name("J"))
            .loop_var("k", name("K"))
            .store(
                store("C", vec![name("i"), name("j")]),
                mul(
                    load("A", vec![name("i"), name("k")]),
                    load("B", vec![name("k"), name("j")]),
                ),
            )
            .build(&env)
            .unwrap();
        let mut a = Buffer::zeros("A", BasicType::F64, Shape::new(vec![2, 4]));
        a.fill_with(|f| f as f64);
        let mut b = Buffer::zeros("B", BasicType::F64, Shape::new(vec![4, 3]));
        b.fill_with(|f| 1.0 + f as f64);
        let out = evaluate_recursive(&prog, &[a, b]).unwrap();
        assert_eq!(out[0].shape, Shape::new(vec![2, 3]));
    }

    #[test]
    fn builder_rejects_missing_combine_ops() {
        let env = DirectiveEnv::new().size("I", 2);
        let r = DirectiveBuilder::new("bad")
            .out("y", "fp32")
            .inp("x", "fp32")
            .loop_var("i", name("I"))
            .store(store("y", vec![name("i")]), load("x", vec![name("i")]))
            .build(&env);
        assert!(r.is_err());
    }

    #[test]
    fn builder_with_declared_shape() {
        let env = DirectiveEnv::new().size("N", 4);
        let prog = DirectiveBuilder::new("pad")
            .out("y", "fp32")
            .inp_with_shape("x", "fp32", vec![add(name("N"), int(2))])
            .combine_op_cc()
            .loop_var("i", name("N"))
            .store(
                store("y", vec![name("i")]),
                load("x", vec![add(name("i"), int(1))]),
            )
            .build(&env)
            .unwrap();
        assert_eq!(prog.input_shapes().unwrap(), vec![vec![6]]);
    }
}
