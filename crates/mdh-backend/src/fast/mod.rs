//! Fast-path kernel engine: tiled, vectorized CPU kernels that are
//! bit-identical to the VM interpreter.
//!
//! `vm_exec` defines this backend's reference semantics: a fixed
//! decomposition into tasks, a fixed strictly-sequential f64 fold per
//! output point, a fixed group-combine order, one rounding to the output
//! type at the store. The fast path re-implements the *hot* subset of those
//! semantics as compiled loop nests — the contraction cache-blocked by
//! fixed block sizes and vectorized through the 8-lane [`Line`]
//! accumulator, the map kernel vectorized by LLVM along each row, the
//! builtin scan one typed pass per task over the VM's own row loops — while
//! reproducing every floating-point operation of the VM in the same
//! order. [`classify`] is the gate: it admits a program only when the
//! kernels can honour that contract, and returns a human-readable reason
//! otherwise (surfaced as `fallback_reason` in benchmarks and stats).
//!
//! Eligibility (checked in this order):
//! - no `rbi` dimension (those are the VM's rbi mode),
//! - a single affine output access, all-affine inputs, and one element
//!   type for the output and every input: f32 or f64 ([`Elem`]),
//! - a `ps` dimension: the builtin scans [`FastScan`] admits (one
//!   builtin `ps` before any builtin `pw`, the rest `cc`, the strict
//!   identity of one input); else
//! - combine ops restricted to `cc` and builtin `pw(add)`,
//! - a scalar function the strict matchers in [`pattern`] accept:
//!   a two-factor product (contraction family — with or without a
//!   reduction: an all-`cc` product is a one-term chain) or, over f32
//!   only, a left-nested weighted sum, optionally under one literal scale
//!   (map family),
//! - contractions: the output access must not depend on reduced dims;
//!   a reduction-free product and a map write their output directly, so
//!   for those the output access must be provably injective (one proof,
//!   run once per plan key, when the route is built).
//!
//! One contraction kernel serves both element types: it is generic over
//! [`Elem`], which fixes how a value is loaded (f32 widens exactly, f64 is
//! copied), how a product accumulates (fused only where the product of
//! two widened f32s is exact, two roundings for f64), and how the result
//! is stored (f32 rounds once, f64 is stored as computed).
//!
//! Everything else runs on the VM: `CpuExecutor`'s route is decided once,
//! from the program, and an admitted kernel runs every plan of it.

pub mod line;
pub mod pattern;

mod contraction;
mod map;
mod registry;
mod scan;

pub use contraction::FastContraction;
pub use map::{FastMap, MAP_ARMS};
pub use registry::{registry, FastRegistry};
pub use scan::FastScan;

use crate::offsets::{linearize_view, LinearAccess};
use line::Line;
use mdh_core::buffer::Buffer;
use mdh_core::combine::{BuiltinReduce, CombineOp};
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::index_fn::{AffineExpr, IndexFn};
use mdh_core::shape::{MdRange, Shape};
use mdh_core::types::{BasicType, ScalarKind};
use mdh_lowering::plan::ExecutionPlan;
use pattern::WeightedSum;

/// A compiled fast-path kernel.
#[derive(Debug, Clone)]
pub enum FastKernel {
    Contraction(FastContraction),
    Map(FastMap),
    Scan(FastScan),
}

impl FastKernel {
    /// Execute on a plan.
    pub fn run(
        &self,
        prog: &DslProgram,
        plan: &ExecutionPlan,
        inputs: &[Buffer],
        pool: &rayon::ThreadPool,
    ) -> Result<Vec<Buffer>> {
        match self {
            FastKernel::Contraction(c) => c.run(prog, plan, inputs, pool),
            FastKernel::Map(m) => m.run(prog, plan, inputs, pool),
            FastKernel::Scan(s) => s.run(prog, plan, inputs, pool),
        }
    }
}

/// Decide whether a program is fast-path eligible, and compile it if so.
/// The `Err` string is the fallback reason.
pub fn classify(prog: &DslProgram) -> std::result::Result<FastKernel, String> {
    if prog.md_hom.has_rbi() {
        return Err("indexed reduction (rbi) runs as the VM's rbi mode".into());
    }
    if prog.out_view.accesses.len() != 1 {
        return Err("more than one output access".into());
    }
    let out_access = &prog.out_view.accesses[0];
    let elem = match prog.out_view.buffers[out_access.buffer].ty {
        BasicType::Scalar(k @ (ScalarKind::F32 | ScalarKind::F64)) => k,
        _ => return Err("output is neither f32 nor f64".into()),
    };
    if prog
        .inp_view
        .buffers
        .iter()
        .any(|b| b.ty != BasicType::from(elem))
    {
        return Err(format!(
            "an input buffer's element type is not the output's {elem}"
        ));
    }
    if prog
        .inp_view
        .accesses
        .iter()
        .any(|a| a.index_fn.as_affine().is_none())
    {
        return Err("non-affine input access".into());
    }
    let Some(out_exprs) = out_access.index_fn.as_affine() else {
        return Err("non-affine output access".into());
    };
    let ops = &prog.md_hom.combine_ops;
    if ops.iter().any(|op| matches!(op, CombineOp::Ps(_))) {
        return FastScan::classify(prog, elem).map(FastKernel::Scan);
    }
    let mut has_pw = false;
    for op in ops {
        match op {
            CombineOp::Cc => {}
            CombineOp::Pw(f) => {
                if f.as_builtin() != Some(BuiltinReduce::Add) {
                    return Err("reduction is not builtin pw(add)".into());
                }
                has_pw = true;
            }
            CombineOp::Ps(_) | CombineOp::Rbi(_) => {
                return Err("scans and indexed reductions are classified above".into())
            }
        }
    }
    let nacc = prog.inp_view.accesses.len();
    if let Some((f0, f1)) = pattern::strict_product2(&prog.md_hom.sf) {
        if f0 >= nacc || f1 >= nacc {
            return Err("product factor slot out of range".into());
        }
        let collapsed = prog.md_hom.collapsed_dims();
        for e in out_exprs {
            for &d in &collapsed {
                if e.coeffs.get(d).copied().unwrap_or(0) != 0 {
                    return Err("output access depends on a reduced dimension".into());
                }
            }
        }
        if collapsed.is_empty() && !proven_injective(prog) {
            return Err("reduction-free product's output access not provably injective".into());
        }
        Ok(FastKernel::Contraction(FastContraction {
            elem,
            f0,
            f1,
            preserved: prog.md_hom.preserved_dims(),
            collapsed,
        }))
    } else if has_pw {
        Err("scalar function is not a strict two-factor product".into())
    } else if elem != ScalarKind::F32 {
        Err("the map kernel runs f32 weighted sums only".into())
    } else {
        let Some(WeightedSum { terms, scale }) = pattern::strict_weighted_sum(&prog.md_hom.sf)
        else {
            return Err("scalar function is not a strict weighted sum".into());
        };
        if terms.iter().any(|&(s, _)| s >= nacc) {
            return Err("weighted-sum slot out of range".into());
        }
        if !proven_injective(prog) {
            return Err("output access not provably injective".into());
        }
        Ok(FastKernel::Map(FastMap { terms, scale }))
    }
}

/// The gate of every kernel that writes its output directly, through
/// [`map::SyncSlice`]: no two points of the iteration space may reach the
/// same output element. Decided once per plan key, when the route is
/// built.
fn proven_injective(prog: &DslProgram) -> bool {
    let full = prog.md_hom.full_range();
    prog.out_view.accesses[0]
        .index_fn
        .is_injective_over(&full, 1 << 14)
        == Some(true)
}

/// The outputs of a kernel that stores through [`map::SyncSlice`]. The
/// buffer it writes skips its zero fill ([`Buffer::for_overwrite`]) when
/// every element is provably stored: classify() proved the access
/// injective, and an injective access whose coordinates stay inside the
/// buffer's shape over exactly as many points as the buffer has elements
/// reaches every one. Every other output is zeroed.
pub(crate) fn direct_outputs(prog: &DslProgram) -> Result<Vec<Buffer>> {
    let access = &prog.out_view.accesses[0];
    let full = prog.md_hom.full_range();
    let decls = prog.out_view.buffers.iter().zip(prog.output_shapes()?);
    let outputs = decls.enumerate().map(|(b, (decl, dims))| {
        let shape = Shape::new(dims);
        let covered = b == access.buffer && covers(&access.index_fn, &full, &shape);
        let alloc = if covered {
            Buffer::for_overwrite
        } else {
            Buffer::zeros
        };
        alloc(decl.name.clone(), decl.ty.clone(), shape)
    });
    Ok(outputs.collect())
}

/// Whether an affine index function stays inside `shape` over `range`,
/// which has exactly as many points as `shape` has elements.
fn covers(index_fn: &IndexFn, range: &MdRange, shape: &Shape) -> bool {
    let Some(exprs) = index_fn.as_affine() else {
        return false;
    };
    let in_bounds = |e: &AffineExpr, ext: usize| {
        let (mut lo, mut hi) = (e.constant, e.constant);
        for (d, &c) in e.coeffs.iter().enumerate() {
            let reach = c.saturating_mul(range.extent(d) as i64 - 1);
            lo = lo.saturating_add(reach.min(0));
            hi = hi.saturating_add(reach.max(0));
        }
        lo >= 0 && hi < ext as i64
    };
    range.len() == shape.len()
        && exprs.len() == shape.rank()
        && (exprs.iter().zip(shape.dims())).all(|(e, &ext)| in_bounds(e, ext))
}

/// Linearise the input and output views against actual buffer shapes.
pub(crate) fn linearize_for(
    prog: &DslProgram,
    inputs: &[Buffer],
    outputs: &[Buffer],
) -> Result<(Vec<LinearAccess>, Vec<LinearAccess>)> {
    let rank = prog.rank();
    let in_shapes: Vec<Vec<usize>> = inputs.iter().map(|b| b.shape.dims().to_vec()).collect();
    let out_shapes: Vec<Vec<usize>> = outputs.iter().map(|b| b.shape.dims().to_vec()).collect();
    let ia = linearize_view(&prog.inp_view, &in_shapes, rank)?;
    let oa = linearize_view(&prog.out_view, &out_shapes, rank)?;
    Ok((ia, oa))
}

/// An element type the kernels read and write. Values enter the VM's f64
/// chain through [`Elem::widen`] and leave it through [`Elem::narrow`];
/// everything between is f64 whatever `Self` is.
pub(crate) trait Elem: Copy + Send + Sync + 'static {
    const KIND: ScalarKind;
    fn slice(buf: &Buffer) -> Option<&[Self]>;
    fn slice_mut(buf: &mut Buffer) -> Option<&mut [Self]>;
    fn widen(self) -> f64;
    /// The store's one rounding.
    fn narrow(v: f64) -> Self;
    /// `acc[l] += a * b[l]` where `a` and `b` are widened elements.
    fn accumulate(acc: &mut Line, a: f64, b: &Line);
    /// The slice as f32, for the kernels' f32-only load paths.
    fn as_f32(xs: &[Self]) -> Option<&[f32]>;
}

impl Elem for f32 {
    const KIND: ScalarKind = ScalarKind::F32;
    fn slice(buf: &Buffer) -> Option<&[f32]> {
        buf.as_f32()
    }
    fn slice_mut(buf: &mut Buffer) -> Option<&mut [f32]> {
        buf.as_f32_mut()
    }
    #[inline(always)]
    fn widen(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn narrow(v: f64) -> f32 {
        v as f32
    }
    /// Two widened f32s multiply exactly in f64, so fusing is unobservable.
    #[inline(always)]
    fn accumulate(acc: &mut Line, a: f64, b: &Line) {
        acc.acc_fma_exact(a, b)
    }
    fn as_f32(xs: &[f32]) -> Option<&[f32]> {
        Some(xs)
    }
}

impl Elem for f64 {
    const KIND: ScalarKind = ScalarKind::F64;
    fn slice(buf: &Buffer) -> Option<&[f64]> {
        buf.as_f64()
    }
    fn slice_mut(buf: &mut Buffer) -> Option<&mut [f64]> {
        buf.as_f64_mut()
    }
    #[inline(always)]
    fn widen(self) -> f64 {
        self
    }
    #[inline(always)]
    fn narrow(v: f64) -> f64 {
        v
    }
    /// An f64 product rounds, so it must round before the add, as the
    /// VM's `Mul` then `Add` does: a fused accumulate would change bits.
    #[inline(always)]
    fn accumulate(acc: &mut Line, a: f64, b: &Line) {
        acc.acc_mul(a, b)
    }
    fn as_f32(_: &[f64]) -> Option<&[f32]> {
        None
    }
}

/// One `E` slice per input *access* (so kernels index by param slot
/// directly).
pub(crate) fn typed_inputs<'a, E: Elem>(
    prog: &DslProgram,
    inputs: &'a [Buffer],
) -> Result<Vec<&'a [E]>> {
    prog.inp_view
        .accesses
        .iter()
        .map(|a| {
            E::slice(&inputs[a.buffer])
                .ok_or_else(|| MdhError::Type(format!("expected {} input", E::KIND)))
        })
        .collect()
}
