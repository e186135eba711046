//! Fast-path kernel engine: tiled, vectorized CPU kernels that are
//! bit-identical to the VM interpreter.
//!
//! `vm_exec` defines this backend's reference semantics: a fixed
//! decomposition into tasks, a fixed strictly-sequential f64 fold per
//! output point, a fixed group-combine order, one f32 rounding at the
//! store. The fast path re-implements the *hot* subset of those
//! semantics as compiled loop nests — cache-blocked by fixed block sizes,
//! vectorized through the 8-lane [`Line`] accumulator — while
//! reproducing every floating-point operation of the VM in the same
//! order. [`classify`] is the gate: it admits a program only when the
//! kernels can honour that contract, and returns a human-readable reason
//! otherwise (surfaced as `fallback_reason` in benchmarks and stats).
//!
//! Eligibility (checked in this order):
//! - no `rbi` dimension (those are the VM's rbi mode),
//! - a single affine f32 output access, all-affine all-f32 inputs,
//! - combine ops restricted to `cc` and builtin `pw(add)`,
//! - a scalar function the strict matchers in [`pattern`] accept:
//!   a two-factor product (contraction family — with or without a
//!   reduction: an all-`cc` product is a one-term chain) or a
//!   left-nested weighted sum, optionally under one literal scale
//!   (map family),
//! - contractions: the output access must not depend on reduced dims;
//!   maps: the output access must be provably injective.
//!
//! Everything else falls back — transparently, per run — to the VM via
//! `CpuExecutor`.

pub mod line;
pub mod pattern;

mod contraction;
mod map;
mod registry;

pub use contraction::FastContraction;
pub use map::FastMap;
pub use registry::{registry, FastRegistry};

use crate::offsets::{linearize_view, LinearAccess};
use mdh_core::buffer::Buffer;
use mdh_core::combine::{BuiltinReduce, CombineOp};
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::types::BasicType;
use mdh_lowering::plan::ExecutionPlan;
use pattern::WeightedSum;

/// A compiled fast-path kernel.
#[derive(Debug, Clone)]
pub enum FastKernel {
    Contraction(FastContraction),
    Map(FastMap),
}

impl FastKernel {
    /// Execute on a plan. `Ok(None)` means the kernel declined at
    /// runtime (dynamic geometry); the caller falls back to the VM.
    pub fn run(
        &self,
        prog: &DslProgram,
        plan: &ExecutionPlan,
        inputs: &[Buffer],
        pool: &rayon::ThreadPool,
    ) -> Result<Option<Vec<Buffer>>> {
        match self {
            FastKernel::Contraction(c) => c.run(prog, plan, inputs, pool),
            FastKernel::Map(m) => m.run(prog, plan, inputs, pool),
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
    if prog.out_view.buffers[out_access.buffer].ty != BasicType::F32 {
        return Err("output is not f32".into());
    }
    if prog.inp_view.buffers.iter().any(|b| b.ty != BasicType::F32) {
        return Err("non-f32 input buffer".into());
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
    let mut has_pw = false;
    for op in &prog.md_hom.combine_ops {
        match op {
            CombineOp::Cc => {}
            CombineOp::Pw(f) => {
                if f.as_builtin() != Some(BuiltinReduce::Add) {
                    return Err("reduction is not builtin pw(add)".into());
                }
                has_pw = true;
            }
            CombineOp::Ps(_) => return Err("prefix scan (ps) needs the VM's scan combine".into()),
            CombineOp::Rbi(_) => {
                return Err("indexed reduction (rbi) runs as the VM's rbi mode".into())
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
        Ok(FastKernel::Contraction(FastContraction {
            f0,
            f1,
            preserved: prog.md_hom.preserved_dims(),
            collapsed,
        }))
    } else if has_pw {
        Err("scalar function is not a strict two-factor product".into())
    } else {
        let Some(WeightedSum { terms, scale }) = pattern::strict_weighted_sum(&prog.md_hom.sf)
        else {
            return Err("scalar function is not a strict weighted sum".into());
        };
        if terms.iter().any(|&(s, _)| s >= nacc) {
            return Err("weighted-sum slot out of range".into());
        }
        let full = prog.md_hom.full_range();
        if out_access.index_fn.is_injective_over(&full, 1 << 14) != Some(true) {
            return Err("output access not provably injective".into());
        }
        Ok(FastKernel::Map(FastMap { terms, scale }))
    }
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

/// Collect f32 slices for all input buffers.
pub(crate) fn f32_inputs<'a>(prog: &DslProgram, inputs: &'a [Buffer]) -> Result<Vec<&'a [f32]>> {
    // one slice per *access* (so kernels index by param slot directly)
    prog.inp_view
        .accesses
        .iter()
        .map(|a| {
            inputs[a.buffer]
                .as_f32()
                .ok_or_else(|| MdhError::Type("expected f32 input".into()))
        })
        .collect()
}
