//! Builtin prefix-scan kernel (`ps` with a builtin operator), bit-identical
//! to the VM's scan mode.
//!
//! A builtin scan whose scalar function is the identity of one input
//! ([`strict_identity`]) compiles, in the VM, to no instruction: what the
//! VM spends its time on is its loop nest and its f64 partial columns,
//! not the function. This kernel runs the same
//! semantics (DESIGN §12) as one typed pass per task and the VM's own row
//! loops:
//!
//! 1. each preserved point's `pw` chain, in f64, copy-initialised, over
//!    its collapsed points in ascending odometer order, stored row-major
//!    into the task's f64 partial;
//! 2. the local inclusive scan of that partial, the earlier element on
//!    the left: the VM's [`scan_rows`] through [`fold_row`];
//! 3. each split chunk carry-folded from the chunk before it, whose last
//!    slice goes on the left, group by group in [`ExecutionPlan::grouped`]
//!    order: the VM's [`carry_rows`] through [`fold_row`];
//! 4. one rounding to the element type, at the store, partials written in
//!    the VM's order (so a non-injective output keeps the VM's last write).
//!
//! Steps 3 and 4 are the VM's own epilogue, [`crate::partial::finish`],
//! with the scan's builtin operator. Sharing the VM's combine loops, not
//! copying them, keeps even the sign a NaN takes through a sum the VM's.
//! A one-task plan whose f64 output is its partial's row-major image
//! (every pool shard of a 1-D scan) runs steps 1 and 2 in the output
//! itself: no partial and no epilogue.
//!
//! Combine functions, non-identity scalar functions and integer scans stay
//! the VM's scan mode.
//!
//! [`strict_identity`]: crate::fast::pattern::strict_identity
//! [`carry_rows`]: crate::vm_exec::carry_rows

use crate::fast::{linearize_for, pattern, Elem};
use crate::offsets::{advance, check_span, LinearAccess};
use crate::partial::{finish, ColBank, Join, Partial};
use crate::vm_exec::{scan_axis, scan_rows, Combiner};
use mdh_core::buffer::Buffer;
use mdh_core::combine::{fold_row, BuiltinReduce, CombineOp, Part};
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::eval;
use mdh_core::shape::MdRange;
use mdh_core::types::{BasicType, ScalarKind};
use mdh_lowering::plan::{ExecutionPlan, Task};
use rayon::prelude::*;

/// A compiled builtin scan: `out[p] = ⊕_{s' ≤ s} ⊙_c x[p, s', c]` — the
/// scan operator `⊕` along the scan dim over the `pw` operator `⊙`'s
/// chains along the collapsed dims.
#[derive(Debug, Clone)]
pub struct FastScan {
    /// The element type of the output and of every input: f32 or f64.
    pub(crate) elem: ScalarKind,
    /// The input access slot the identity function returns.
    pub(crate) slot: usize,
    pub(crate) scan_dim: usize,
    pub(crate) scan: BuiltinReduce,
    /// The operator of every `pw` dim, if there is one.
    pub(crate) fold: Option<BuiltinReduce>,
    pub(crate) preserved: Vec<usize>,
    pub(crate) collapsed: Vec<usize>,
}

impl FastScan {
    /// The scan half of [`classify`](crate::fast::classify): everything
    /// the VM's scan mode runs with builtin operators and the identity.
    /// `elem` is the element type classify() already checked.
    pub(crate) fn classify(
        prog: &DslProgram,
        elem: ScalarKind,
    ) -> std::result::Result<Self, String> {
        let mut scan = None;
        let mut fold = None;
        for (d, op) in prog.md_hom.combine_ops.iter().enumerate() {
            match op {
                CombineOp::Cc => {}
                CombineOp::Ps(f) => {
                    if scan.is_some() {
                        return Err("more than one ps dimension".into());
                    }
                    if fold.is_some() {
                        return Err(
                            "ps dimension after a pw dimension: the scan must come first".into(),
                        );
                    }
                    let Some(b) = f.as_builtin() else {
                        return Err("prefix scan (ps) combines by a function, not a builtin".into());
                    };
                    scan = Some((d, b));
                }
                CombineOp::Pw(f) => match (f.as_builtin(), fold) {
                    (None, _) => return Err("a pw beside the scan combines by a function".into()),
                    (Some(b), Some(g)) if b != g => {
                        return Err(
                            "pw dimensions beside the scan fold by different builtins".into()
                        )
                    }
                    (b, _) => fold = b,
                },
                CombineOp::Rbi(_) => {
                    return Err("indexed reduction (rbi) runs as the VM's rbi mode".into())
                }
            }
        }
        let Some((scan_dim, scan)) = scan else {
            return Err("no ps dimension".into());
        };
        let sf = &prog.md_hom.sf;
        let slot = pattern::strict_identity(sf)
            .filter(|_| sf.results[0].1 == BasicType::from(elem))
            .ok_or("scan's scalar function is not the strict identity of one input")?;
        if slot >= prog.inp_view.accesses.len() {
            return Err("identity slot out of range".into());
        }
        Ok(FastScan {
            elem,
            slot,
            scan_dim,
            scan,
            fold,
            preserved: prog.md_hom.preserved_dims(),
            collapsed: prog.md_hom.collapsed_dims(),
        })
    }

    /// Execute on a plan.
    pub fn run(
        &self,
        prog: &DslProgram,
        plan: &ExecutionPlan,
        inputs: &[Buffer],
        pool: &rayon::ThreadPool,
    ) -> Result<Vec<Buffer>> {
        match self.elem {
            ScalarKind::F32 => self.run_typed::<f32>(prog, plan, inputs, pool),
            ScalarKind::F64 => self.run_typed::<f64>(prog, plan, inputs, pool),
            k => Err(MdhError::Type(format!("no scan kernel for {k}"))),
        }
    }

    fn run_typed<E: Elem>(
        &self,
        prog: &DslProgram,
        plan: &ExecutionPlan,
        inputs: &[Buffer],
        pool: &rayon::ThreadPool,
    ) -> Result<Vec<Buffer>> {
        let sd_pos = scan_axis(plan, &self.preserved, self.scan_dim)?;
        let mut outputs = eval::alloc_outputs(prog)?;
        let (in_acc, out_acc) = linearize_for(prog, inputs, &outputs)?;
        let (xacc, oacc) = (&in_acc[self.slot], &out_acc[0]);
        let x = E::slice(&inputs[xacc.buffer])
            .ok_or_else(|| MdhError::Type(format!("expected {} input", E::KIND)))?;
        let extents = |t: &Task| -> Vec<usize> {
            self.preserved.iter().map(|&d| t.range.extent(d)).collect()
        };

        if let ([task], Some(out)) = (&plan.tasks[..], outputs[oacc.buffer].as_f64_mut()) {
            let extents = extents(task);
            if let Some(at) = self.dense_at(oacc, &task.range, &extents, out.len()) {
                // one task's partial is final as scanned, and this output
                // is its row-major f64 image: scan it in place
                let vals = &mut out[at..at + extents.iter().product::<usize>()];
                self.scan_task(x, xacc, &task.range, &extents, sd_pos, vals)?;
                return Ok(outputs);
            }
        }

        let mut partials: Vec<Result<Partial>> = Vec::new();
        pool.install(|| {
            plan.tasks
                .par_iter()
                .map(|t| {
                    let extents = extents(t);
                    // the VM's partial of an empty task: zeros, never written
                    let mut vals = vec![0.0; extents.iter().product::<usize>().max(1)];
                    self.scan_task(x, xacc, &t.range, &extents, sd_pos, &mut vals)?;
                    let cols = vec![ColBank::F(vals)];
                    Ok(Partial { extents, cols })
                })
                .collect_into_vec(&mut partials);
        });
        let partials = partials.into_iter().collect::<Result<Vec<_>>>()?;

        // each chunk carries from the one before it; rows along the last
        // preserved dim, the collapsed dims pinned to 0 as the VM pins them
        let carry = Combiner::Builtin(self.scan);
        let join = Join::Carry(&carry, sd_pos);
        let order = self.preserved.split_at(self.preserved.len() - 1);
        finish(plan, partials, join, order, &out_acc, &mut outputs)?;
        Ok(outputs)
    }

    /// Where the epilogue would store a one-task partial over `range`
    /// (preserved `extents`) as one contiguous slice, in its own row-major
    /// order: the output offset of the range's first point, when each
    /// preserved dim steps the output by the partial's stride along it and
    /// the slice fits in `len` elements.
    fn dense_at(
        &self,
        oacc: &LinearAccess,
        range: &MdRange,
        extents: &[usize],
        len: usize,
    ) -> Option<usize> {
        let mut stride = 1;
        for (&d, &extent) in self.preserved.iter().zip(extents).rev() {
            if oacc.coeffs[d] != stride as i64 {
                return None;
            }
            stride *= extent;
        }
        let mut lo = range.lo.clone();
        self.collapsed.iter().for_each(|&d| lo[d] = 0);
        let at = usize::try_from(oacc.offset(&lo)).ok()?;
        (at + stride <= len).then_some(at)
    }

    /// One task's partial, row-major over its preserved extents: each
    /// point's chain, then the local scan. Rows run along the last
    /// preserved dim; a chain's innermost collapsed dim is a strided run,
    /// the others an odometer of run starts.
    fn scan_task<E: Elem>(
        &self,
        x: &[E],
        xacc: &LinearAccess,
        range: &MdRange,
        extents: &[usize],
        sd_pos: usize,
        vals: &mut [f64],
    ) -> Result<()> {
        if range.is_empty() {
            return Ok(());
        }
        check_span("scan input", xacc, range, x.len())?;
        let Some((&row_d, outer)) = self.preserved.split_last() else {
            return Err(MdhError::Validation(
                "scan dimension is not preserved".into(),
            ));
        };
        let (row_n, row_step) = (range.extent(row_d), xacc.coeffs[row_d]);
        let (run_n, run_step, runs) = match self.collapsed.split_last() {
            None => (1, 0, vec![0]),
            Some((&d, outer_c)) => {
                let mut idx = range.lo.clone();
                let first = xacc.offset(&idx);
                let mut runs = Vec::new();
                loop {
                    runs.push(xacc.offset(&idx) - first);
                    if !advance(&mut idx, outer_c, range) {
                        break (range.extent(d), xacc.coeffs[d], runs);
                    }
                }
            }
        };
        let fold = self.fold.unwrap_or(BuiltinReduce::Add);
        // the chain of the point whose first collapsed point is at `o`
        let chain = |o: i64| {
            let mut acc = x[o as usize].widen();
            for (r, &start) in runs.iter().enumerate() {
                for k in usize::from(r == 0)..run_n {
                    let v = x[(o + start + k as i64 * run_step) as usize].widen();
                    acc = fold.apply_f64(acc, v);
                }
            }
            acc
        };
        let mut idx = range.lo.clone();
        for ys in vals.chunks_exact_mut(row_n) {
            let base = xacc.offset(&idx);
            if self.collapsed.is_empty() && row_step == 1 {
                let xs = &x[base as usize..][..row_n];
                ys.iter_mut().zip(xs).for_each(|(y, v)| *y = v.widen());
            } else {
                let value = |l: usize| chain(base + l as i64 * row_step);
                ys.iter_mut().enumerate().for_each(|(l, y)| *y = value(l));
            }
            if !advance(&mut idx, outer, range) {
                break;
            }
        }
        for row in scan_rows(extents, sd_pos) {
            fold_row(vals, &Part::None, &row, Some(self.scan));
        }
        Ok(())
    }
}
