//! The MDH DSL: high-level program representation.
//!
//! A [`DslProgram`] is the Rust analogue of Listing 7:
//!
//! ```text
//! out_view[BSC_TYP,...]( IDF = [IDX_FNC,...], ... ),
//! md_hom[SIZE,...]( SF, (CO,...,CO) ),
//! inp_view[BSC_TYP,...]( IDF = [IDX_FNC,...], ... )
//! ```
//!
//! The directive front end (`mdh-directive`) *produces* these programs; the
//! lowering (`mdh-lowering`) and the backends (`mdh-backend`) consume them.

use crate::combine::{CombineOp, DimBehavior};
use crate::error::{MdhError, Result};
use crate::expr::ScalarFunction;
use crate::index_fn::IndexFn;
use crate::shape::MdRange;
use crate::types::BasicType;
use crate::views::{Access, BufferDecl, View};
use std::sync::Arc;

/// The `md_hom` higher-order function: iteration-space sizes, the scalar
/// function, and one combine operator per dimension.
#[derive(Debug, Clone)]
pub struct MdHom {
    pub sizes: Vec<usize>,
    pub sf: Arc<ScalarFunction>,
    pub combine_ops: Vec<CombineOp>,
}

impl MdHom {
    pub fn new(sizes: Vec<usize>, sf: ScalarFunction, combine_ops: Vec<CombineOp>) -> Self {
        MdHom {
            sizes,
            sf: Arc::new(sf),
            combine_ops,
        }
    }

    /// Dimensionality `D` of the iteration space.
    pub fn rank(&self) -> usize {
        self.sizes.len()
    }

    /// Indices of reduction dimensions (`pw` or `ps`).
    pub fn reduction_dims(&self) -> Vec<usize> {
        self.combine_ops
            .iter()
            .enumerate()
            .filter(|(_, co)| co.is_reduction())
            .map(|(d, _)| d)
            .collect()
    }

    /// Indices of concatenation (`cc`) dimensions.
    pub fn cc_dims(&self) -> Vec<usize> {
        self.combine_ops
            .iter()
            .enumerate()
            .filter(|(_, co)| !co.is_reduction())
            .map(|(d, _)| d)
            .collect()
    }

    /// Indices of dimensions that survive into the output (cc and ps).
    pub fn preserved_dims(&self) -> Vec<usize> {
        self.combine_ops
            .iter()
            .enumerate()
            .filter(|(_, co)| co.behavior() == DimBehavior::Preserve)
            .map(|(d, _)| d)
            .collect()
    }

    /// Indices of collapsed (pw) dimensions.
    pub fn collapsed_dims(&self) -> Vec<usize> {
        self.combine_ops
            .iter()
            .enumerate()
            .filter(|(_, co)| co.behavior() == DimBehavior::Collapse)
            .map(|(d, _)| d)
            .collect()
    }

    /// Whether any dimension is an indexed reduction (`rbi`).
    pub fn has_rbi(&self) -> bool {
        self.combine_ops.iter().any(|co| co.is_indexed_reduction())
    }

    /// The full iteration range.
    pub fn full_range(&self) -> MdRange {
        MdRange::full(&self.sizes)
    }

    /// Total number of iteration points.
    pub fn points(&self) -> usize {
        self.sizes.iter().product()
    }
}

/// A complete MDH DSL program (Listing 7).
#[derive(Debug, Clone)]
pub struct DslProgram {
    pub name: String,
    pub out_view: View,
    pub md_hom: MdHom,
    pub inp_view: View,
}

impl DslProgram {
    pub fn new(name: impl Into<String>, out_view: View, md_hom: MdHom, inp_view: View) -> Self {
        DslProgram {
            name: name.into(),
            out_view,
            md_hom,
            inp_view,
        }
    }

    pub fn rank(&self) -> usize {
        self.md_hom.rank()
    }

    /// Validate all structural invariants of the program.
    pub fn validate(&self) -> Result<()> {
        let d = self.md_hom.rank();
        if self.md_hom.combine_ops.len() != d {
            return Err(MdhError::Validation(format!(
                "program '{}': {} combine operators for {d} dimensions",
                self.name,
                self.md_hom.combine_ops.len()
            )));
        }
        if self.md_hom.sf.params.len() != self.inp_view.accesses.len() {
            return Err(MdhError::Validation(format!(
                "program '{}': scalar function takes {} params but inp_view has {} accesses",
                self.name,
                self.md_hom.sf.params.len(),
                self.inp_view.accesses.len()
            )));
        }
        if self.md_hom.sf.results.len() != self.out_view.accesses.len() {
            return Err(MdhError::Validation(format!(
                "program '{}': scalar function returns {} results but out_view has {} accesses",
                self.name,
                self.md_hom.sf.results.len(),
                self.out_view.accesses.len()
            )));
        }
        self.md_hom.sf.validate()?;
        // the iteration-space volume must be representable: absurd sizes
        // (e.g. an i64::MAX loop bound fed through a front end) must be a
        // graceful error here, not an arithmetic overflow in points() or
        // a doomed allocation later
        if self
            .md_hom
            .sizes
            .iter()
            .try_fold(1usize, |acc, &s| acc.checked_mul(s))
            .is_none()
        {
            return Err(MdhError::Validation(format!(
                "program '{}': iteration-space volume overflows ({:?})",
                self.name, self.md_hom.sizes
            )));
        }
        // access buffer indices in range
        for a in &self.inp_view.accesses {
            if a.buffer >= self.inp_view.buffers.len() {
                return Err(MdhError::Validation(format!(
                    "program '{}': input access refers to buffer #{} of {}",
                    self.name,
                    a.buffer,
                    self.inp_view.buffers.len()
                )));
            }
        }
        for a in &self.out_view.accesses {
            if a.buffer >= self.out_view.buffers.len() {
                return Err(MdhError::Validation(format!(
                    "program '{}': output access refers to buffer #{} of {}",
                    self.name,
                    a.buffer,
                    self.out_view.buffers.len()
                )));
            }
        }
        // a declared shape must cover everything the buffer's affine
        // accesses reach over the full iteration space: the executors
        // allocate and index through the declaration, so an undersized one
        // is an out-of-bounds access waiting for its kernel (the mirror of
        // `check_inputs`' `have < need`). General index functions are
        // data-dependent and keep their per-access bounds checks.
        let full = self.md_hom.full_range();
        if !full.is_empty() {
            for (kind, view) in [("input", &self.inp_view), ("output", &self.out_view)] {
                for (b, decl) in view.buffers.iter().enumerate() {
                    let Some(declared) = &decl.declared_shape else {
                        continue;
                    };
                    for need in view
                        .accesses_of(b)
                        .filter_map(|a| a.index_fn.inferred_extents(&full))
                    {
                        if declared.len() != need.len()
                            || declared.iter().zip(&need).any(|(&have, &need)| have < need)
                        {
                            return Err(MdhError::Validation(format!(
                                "program '{}': {kind} buffer '{}' is declared {declared:?} \
                                 but its accesses need at least {need:?}",
                                self.name, decl.name
                            )));
                        }
                    }
                }
            }
        }
        // every output buffer must be written by at least one access
        for (b, decl) in self.out_view.buffers.iter().enumerate() {
            if self.out_view.accesses_of(b).next().is_none() {
                return Err(MdhError::Validation(format!(
                    "program '{}': output buffer '{}' is never written",
                    self.name, decl.name
                )));
            }
        }
        // output index functions must not depend on pw-collapsed dimensions
        // — a pw-reduced dimension has no coordinate in the output. An rbi
        // dimension is the exception: its whole point is that the output
        // access scatters along it.
        for (ai, a) in self.out_view.accesses.iter().enumerate() {
            for dim in self.md_hom.collapsed_dims() {
                if self.md_hom.combine_ops[dim].is_indexed_reduction() {
                    continue;
                }
                if a.index_fn.depends_on(dim) {
                    return Err(MdhError::Validation(format!(
                        "program '{}': output access #{ai} depends on dimension {dim}, \
                         which is collapsed by {}",
                        self.name, self.md_hom.combine_ops[dim]
                    )));
                }
            }
        }
        // rbi programs: the scatter evaluator folds every colliding
        // contribution with one `add`, so every reduction dimension must be
        // a builtin add (no pw(max)/ps mixtures whose elementwise meaning
        // would be ambiguous), and output shapes cannot be inferred from a
        // data-dependent scatter access — they must be declared
        if self.md_hom.has_rbi() {
            for (dim, co) in self.md_hom.combine_ops.iter().enumerate() {
                if !co.is_reduction() {
                    continue;
                }
                if matches!(co, CombineOp::Ps(_)) {
                    return Err(MdhError::Validation(format!(
                        "program '{}': dim {dim} is {co}, but ps dimensions cannot \
                         be mixed with rbi",
                        self.name
                    )));
                }
                let is_add = co
                    .pw_func()
                    .and_then(|f| f.as_builtin())
                    .map(|b| b == crate::combine::BuiltinReduce::Add)
                    .unwrap_or(false);
                if !is_add {
                    return Err(MdhError::Validation(format!(
                        "program '{}': dim {dim} combines with {co}, but every \
                         reduction dimension of an rbi program must be a builtin add",
                        self.name
                    )));
                }
            }
            for decl in &self.out_view.buffers {
                if decl.declared_shape.is_none() {
                    return Err(MdhError::Validation(format!(
                        "program '{}': output buffer '{}' of an rbi program needs a \
                         declared shape (scatter targets are data-dependent)",
                        self.name, decl.name
                    )));
                }
            }
        }
        // custom combine functions must match the output tuple width
        let width = self.out_view.accesses.len();
        for (dim, co) in self.md_hom.combine_ops.iter().enumerate() {
            if let Some(f) = co.pw_func() {
                if let Some(w) = f.tuple_width() {
                    if w != width {
                        return Err(MdhError::Validation(format!(
                            "program '{}': combine operator {} on dim {dim} combines \
                             {w}-tuples but the program has {width} output accesses",
                            self.name, co
                        )));
                    }
                }
            }
        }
        // param/result types line up with buffer element types
        for (p, a) in self.inp_view.accesses.iter().enumerate() {
            let pty = &self.md_hom.sf.params[p].1;
            let bty = &self.inp_view.buffers[a.buffer].ty;
            if pty != bty {
                return Err(MdhError::Validation(format!(
                    "program '{}': param {p} has type {pty} but reads buffer '{}' of type {bty}",
                    self.name, self.inp_view.buffers[a.buffer].name
                )));
            }
        }
        for (r, a) in self.out_view.accesses.iter().enumerate() {
            let rty = &self.md_hom.sf.results[r].1;
            let bty = &self.out_view.buffers[a.buffer].ty;
            if rty != bty {
                return Err(MdhError::Validation(format!(
                    "program '{}': result {r} has type {rty} but writes buffer '{}' of type {bty}",
                    self.name, self.out_view.buffers[a.buffer].name
                )));
            }
        }
        Ok(())
    }

    /// Shapes of the output buffers (declared or inferred over the full
    /// iteration range).
    pub fn output_shapes(&self) -> Result<Vec<Vec<usize>>> {
        let range = self.md_hom.full_range();
        (0..self.out_view.buffers.len())
            .map(|b| {
                self.out_view.effective_shape(b, &range).ok_or_else(|| {
                    MdhError::Validation(format!(
                        "cannot infer shape of output buffer '{}'",
                        self.out_view.buffers[b].name
                    ))
                })
            })
            .collect()
    }

    /// Shapes of the input buffers (declared or inferred).
    pub fn input_shapes(&self) -> Result<Vec<Vec<usize>>> {
        let range = self.md_hom.full_range();
        (0..self.inp_view.buffers.len())
            .map(|b| {
                self.inp_view.effective_shape(b, &range).ok_or_else(|| {
                    MdhError::Validation(format!(
                        "cannot infer shape of input buffer '{}'",
                        self.inp_view.buffers[b].name
                    ))
                })
            })
            .collect()
    }

    /// Summary statistics used by Fig. 3 and by the cost models.
    pub fn stats(&self) -> ProgramStats {
        let range = self.md_hom.full_range();
        let limit = 1 << 16;
        let mut injective = Some(true);
        // a buffer read through several index functions (a stencil) is
        // accessed non-injectively even if each individual access is
        // injective — this matches Fig. 3's classification
        for b in 0..self.inp_view.buffers.len() {
            if self.inp_view.accesses_of(b).count() > 1 {
                injective = Some(false);
            }
        }
        if injective == Some(true) {
            // Fig. 3 classifies *input* data accesses
            for a in self.inp_view.accesses.iter() {
                match a.index_fn.is_injective_over(&range, limit) {
                    Some(true) => {}
                    Some(false) => {
                        injective = Some(false);
                        break;
                    }
                    None => injective = None,
                }
            }
        }
        let bytes_in: usize = (0..self.inp_view.buffers.len())
            .filter_map(|b| self.inp_view.footprint_bytes(b, &range))
            .sum();
        let bytes_out: usize = (0..self.out_view.buffers.len())
            .filter_map(|b| self.out_view.footprint_bytes(b, &range))
            .sum();
        ProgramStats {
            rank: self.md_hom.rank(),
            reduction_dims: self.md_hom.reduction_dims().len(),
            points: self.md_hom.points(),
            flops: self.md_hom.points() * self.md_hom.sf.flops_estimate(),
            injective_accesses: injective,
            bytes_in,
            bytes_out,
            n_inputs: self.inp_view.buffers.len(),
            n_outputs: self.out_view.buffers.len(),
        }
    }
}

/// Static characteristics of a DSL program (Fig. 3's left columns).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramStats {
    pub rank: usize,
    pub reduction_dims: usize,
    pub points: usize,
    pub flops: usize,
    /// `Some(true)` if all accesses are injective, `Some(false)` if any is
    /// provably non-injective, `None` if undecidable within budget.
    pub injective_accesses: Option<bool>,
    pub bytes_in: usize,
    pub bytes_out: usize,
    pub n_inputs: usize,
    pub n_outputs: usize,
}

/// Fluent builder mirroring the DSL surface of Listing 7.
///
/// ```
/// use mdh_core::prelude::*;
///
/// // MatVec (Listing 6): w[i] = sum_k M[i,k] * v[k]
/// let (i, k) = (4, 5);
/// let prog = DslBuilder::new("matvec", vec![i, k])
///     .out_buffer("w", BasicType::F32)
///     .out_access("w", IndexFn::select(2, &[0]))
///     .inp_buffer("M", BasicType::F32)
///     .inp_access("M", IndexFn::identity(2, 2))
///     .inp_buffer("v", BasicType::F32)
///     .inp_access("v", IndexFn::select(2, &[1]))
///     .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
///     .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
///     .build()
///     .unwrap();
/// assert_eq!(prog.md_hom.reduction_dims(), vec![1]);
/// ```
pub struct DslBuilder {
    name: String,
    sizes: Vec<usize>,
    out_view: View,
    inp_view: View,
    sf: Option<ScalarFunction>,
    combine_ops: Vec<CombineOp>,
}

impl DslBuilder {
    pub fn new(name: impl Into<String>, sizes: Vec<usize>) -> Self {
        DslBuilder {
            name: name.into(),
            sizes,
            out_view: View::empty(),
            inp_view: View::empty(),
            sf: None,
            combine_ops: Vec::new(),
        }
    }

    pub fn out_buffer(mut self, name: &str, ty: BasicType) -> Self {
        self.out_view.buffers.push(BufferDecl::new(name, ty));
        self
    }

    pub fn out_buffer_with_shape(mut self, name: &str, ty: BasicType, shape: Vec<usize>) -> Self {
        self.out_view
            .buffers
            .push(BufferDecl::with_shape(name, ty, shape));
        self
    }

    pub fn out_access(mut self, buffer: &str, f: IndexFn) -> Self {
        let b = self
            .out_view
            .buffer_index(buffer)
            .unwrap_or_else(|| panic!("unknown output buffer '{buffer}'"));
        self.out_view.accesses.push(Access::new(b, f));
        self
    }

    pub fn inp_buffer(mut self, name: &str, ty: BasicType) -> Self {
        self.inp_view.buffers.push(BufferDecl::new(name, ty));
        self
    }

    pub fn inp_buffer_with_shape(mut self, name: &str, ty: BasicType, shape: Vec<usize>) -> Self {
        self.inp_view
            .buffers
            .push(BufferDecl::with_shape(name, ty, shape));
        self
    }

    pub fn inp_access(mut self, buffer: &str, f: IndexFn) -> Self {
        let b = self
            .inp_view
            .buffer_index(buffer)
            .unwrap_or_else(|| panic!("unknown input buffer '{buffer}'"));
        self.inp_view.accesses.push(Access::new(b, f));
        self
    }

    pub fn scalar_function(mut self, sf: ScalarFunction) -> Self {
        self.sf = Some(sf);
        self
    }

    pub fn combine_ops(mut self, ops: Vec<CombineOp>) -> Self {
        self.combine_ops = ops;
        self
    }

    pub fn build(self) -> Result<DslProgram> {
        let sf = self
            .sf
            .ok_or_else(|| MdhError::Validation("no scalar function set".into()))?;
        let prog = DslProgram::new(
            self.name,
            self.out_view,
            MdHom::new(self.sizes, sf, self.combine_ops),
            self.inp_view,
        );
        prog.validate()?;
        Ok(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ScalarKind;

    fn matvec(i: usize, k: usize) -> DslProgram {
        DslBuilder::new("matvec", vec![i, k])
            .out_buffer("w", BasicType::F32)
            .out_access("w", IndexFn::select(2, &[0]))
            .inp_buffer("M", BasicType::F32)
            .inp_access("M", IndexFn::identity(2, 2))
            .inp_buffer("v", BasicType::F32)
            .inp_access("v", IndexFn::select(2, &[1]))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    #[test]
    fn matvec_builds_and_validates() {
        let p = matvec(4, 5);
        assert_eq!(p.rank(), 2);
        assert_eq!(p.md_hom.reduction_dims(), vec![1]);
        assert_eq!(p.md_hom.preserved_dims(), vec![0]);
        assert_eq!(p.output_shapes().unwrap(), vec![vec![4]]);
        assert_eq!(p.input_shapes().unwrap(), vec![vec![4, 5], vec![5]]);
    }

    #[test]
    fn stats_matvec() {
        let p = matvec(4, 5);
        let s = p.stats();
        assert_eq!(s.rank, 2);
        assert_eq!(s.reduction_dims, 1);
        assert_eq!(s.points, 20);
        assert_eq!(s.flops, 20);
        assert_eq!(s.injective_accesses, Some(false)); // v access is non-injective
        assert_eq!(s.n_inputs, 2);
        assert_eq!(s.n_outputs, 1);
    }

    #[test]
    fn rejects_output_depending_on_collapsed_dim() {
        let r = DslBuilder::new("bad", vec![4, 5])
            .out_buffer("w", BasicType::F32)
            .out_access("w", IndexFn::select(2, &[1])) // depends on reduced k!
            .inp_buffer("M", BasicType::F32)
            .inp_access("M", IndexFn::identity(2, 2))
            .inp_buffer("v", BasicType::F32)
            .inp_access("v", IndexFn::select(2, &[1]))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn rejects_wrong_combine_op_count() {
        let r = DslBuilder::new("bad", vec![4, 5])
            .out_buffer("w", BasicType::F32)
            .out_access("w", IndexFn::select(2, &[0]))
            .inp_buffer("M", BasicType::F32)
            .inp_access("M", IndexFn::identity(2, 2))
            .inp_buffer("v", BasicType::F32)
            .inp_access("v", IndexFn::select(2, &[1]))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc()])
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn rejects_param_type_mismatch() {
        let r = DslBuilder::new("bad", vec![4, 5])
            .out_buffer("w", BasicType::F32)
            .out_access("w", IndexFn::select(2, &[0]))
            .inp_buffer("M", BasicType::F64) // f64 buffer, f32 param
            .inp_access("M", IndexFn::identity(2, 2))
            .inp_buffer("v", BasicType::F32)
            .inp_access("v", IndexFn::select(2, &[1]))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn rejects_arity_mismatch() {
        let r = DslBuilder::new("bad", vec![4, 5])
            .out_buffer("w", BasicType::F32)
            .out_access("w", IndexFn::select(2, &[0]))
            .inp_buffer("M", BasicType::F32)
            .inp_access("M", IndexFn::identity(2, 2))
            // only one access, but mul2 takes two params
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn rejects_unwritten_output() {
        let r = DslBuilder::new("bad", vec![4])
            .out_buffer("w", BasicType::F32)
            .out_buffer("z", BasicType::F32) // never accessed
            .out_access("w", IndexFn::identity(1, 1))
            .inp_buffer("x", BasicType::F32)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc()])
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn mcc_declared_shape() {
        // enlarged img buffer as in Listing 12 (tiny sizes)
        let (n, p, q, k, r, s, c) = (1, 2, 2, 2, 3, 3, 2);
        let rank = 7;
        use crate::index_fn::AffineExpr;
        let img_access = IndexFn::affine(vec![
            AffineExpr::var(rank, 0),
            AffineExpr::new(vec![0, 2, 0, 0, 1, 0, 0], 0), // 2p + r
            AffineExpr::new(vec![0, 0, 2, 0, 0, 1, 0], 0), // 2q + s
            AffineExpr::var(rank, 6),
        ]);
        let prog = DslBuilder::new("mcc", vec![n, p, q, k, r, s, c])
            .out_buffer("res", BasicType::F32)
            .out_access("res", IndexFn::select(rank, &[0, 1, 2, 3]))
            .inp_buffer_with_shape(
                "img",
                BasicType::F32,
                vec![n, 2 * p + r - 1, 2 * q + s - 1, c],
            )
            .inp_access("img", img_access)
            .inp_buffer("flt", BasicType::F32)
            .inp_access("flt", IndexFn::select(rank, &[3, 4, 5, 6]))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![
                CombineOp::cc(),
                CombineOp::cc(),
                CombineOp::cc(),
                CombineOp::cc(),
                CombineOp::pw_add(),
                CombineOp::pw_add(),
                CombineOp::pw_add(),
            ])
            .build()
            .unwrap();
        assert_eq!(
            prog.input_shapes().unwrap()[0],
            vec![1, 2 * 2 + 3 - 1, 2 * 2 + 3 - 1, 2]
        );
        assert_eq!(prog.md_hom.reduction_dims(), vec![4, 5, 6]);
    }

    #[test]
    fn declared_shape_must_cover_affine_accesses() {
        use crate::index_fn::AffineExpr;
        // y[i] = x[i + 2] over i < 8: y needs 8 elements, x needs 10
        let build = |y: usize, x: usize| {
            DslBuilder::new("shift", vec![8])
                .out_buffer_with_shape("y", BasicType::F32, vec![y])
                .out_access("y", IndexFn::identity(1, 1))
                .inp_buffer_with_shape("x", BasicType::F32, vec![x])
                .inp_access("x", IndexFn::affine(vec![AffineExpr::new(vec![1], 2)]))
                .scalar_function(ScalarFunction::identity("id", ScalarKind::F32))
                .combine_ops(vec![CombineOp::cc()])
                .build()
        };
        assert!(build(8, 10).is_ok());
        assert!(build(12, 16).is_ok(), "larger than needed is fine");
        for (y, x, buffer) in [(4, 10, "'y'"), (8, 9, "'x'")] {
            match build(y, x) {
                Err(MdhError::Validation(msg)) => {
                    assert!(msg.contains(buffer) && msg.contains("declared"), "{msg}")
                }
                other => panic!("y[{y}] x[{x}] must be rejected, got {other:?}"),
            }
        }
    }
}
