//! Vectorized weighted-sum map kernel (stencils), bit-identical to the VM.
//!
//! Map programs have no reduction: every output point is an independent
//! left-nested weighted sum of its inputs. The VM evaluates that sum in
//! f64 (f32 loads widened exactly, f32 literals widened exactly) and
//! rounds once at the store; this kernel performs the identical chain per
//! point, eight points at a time along the innermost dimension through a
//! [`Line`]. Because points are independent, chunking and parallel task
//! order cannot change bits — the only ordering that matters is the
//! per-point term fold (and the one outer scale multiply after it), which
//! [`strict_weighted_sum`] pinned to the VM's.
//!
//! [`strict_weighted_sum`]: crate::fast::pattern::strict_weighted_sum

use crate::fast::line::{Line, LANES};
use crate::fast::{f32_inputs, linearize_for};
use crate::offsets::{advance, LinearAccess};
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::eval;
use mdh_core::shape::MdRange;
use mdh_lowering::plan::ExecutionPlan;
use rayon::prelude::*;

/// Shared mutable f32 slice for provably-disjoint parallel writes — the
/// backend's only unsynchronised write site.
struct SyncSlice {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: the pointer comes from a `&mut [f32]` that outlives the
// parallel region; `write` is the only access, and its contract makes
// concurrent writers target distinct elements.
unsafe impl Send for SyncSlice {}
unsafe impl Sync for SyncSlice {}

impl SyncSlice {
    fn new(s: &mut [f32]) -> SyncSlice {
        SyncSlice {
            ptr: s.as_mut_ptr(),
            len: s.len(),
        }
    }

    /// # Safety
    /// `i < len` and no concurrent writer targets the same `i`.
    #[inline]
    unsafe fn write(&self, i: usize, v: f32) {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) = v };
    }
}

/// A compiled map kernel: `out[..] = scale * Σ_t w_t * x_{slot_t}[..]`,
/// terms in the scalar function's fold order.
#[derive(Debug, Clone)]
pub struct FastMap {
    /// `(input access slot, weight)` per term, in fold order.
    pub(crate) terms: Vec<(usize, f64)>,
    /// Outer literal factor, multiplied once after the fold.
    pub(crate) scale: Option<f64>,
}

impl FastMap {
    /// Execute on a plan. Map plans never split a reduction, and
    /// classify() proved the output access injective, so tasks write
    /// disjoint regions directly into the shared output.
    pub fn run(
        &self,
        prog: &DslProgram,
        plan: &ExecutionPlan,
        inputs: &[Buffer],
        pool: &rayon::ThreadPool,
    ) -> Result<Option<Vec<Buffer>>> {
        let mut outputs = eval::alloc_outputs(prog)?;
        let (in_acc, out_acc) = linearize_for(prog, inputs, &outputs)?;
        let ins = f32_inputs(prog, inputs)?;
        debug_assert!(plan.split_dims.is_empty());
        let out_buf = prog.out_view.accesses[0].buffer;
        {
            let out = outputs[out_buf]
                .as_f32_mut()
                .ok_or_else(|| MdhError::Type("fast map output must be f32".into()))?;
            let shared = SyncSlice::new(out);
            let mut results: Vec<Result<()>> = Vec::new();
            pool.install(|| {
                plan.tasks
                    .par_iter()
                    .map(|t| self.run_task(&ins, &in_acc, &out_acc[0], &t.range, &shared))
                    .collect_into_vec(&mut results);
            });
            results.into_iter().collect::<Result<()>>()?;
        }
        Ok(Some(outputs))
    }

    fn run_task(
        &self,
        ins: &[&[f32]],
        in_acc: &[LinearAccess],
        oacc: &LinearAccess,
        range: &MdRange,
        out: &SyncSlice,
    ) -> Result<()> {
        if range.is_empty() {
            return Ok(());
        }
        let rank = range.rank();
        let last = rank - 1;
        let n_last = range.extent(last);
        let outer: Vec<usize> = (0..last).collect();
        let isteps: Vec<i64> = self
            .terms
            .iter()
            .map(|&(s, _)| in_acc[s].coeffs[last])
            .collect();
        let ostep = oacc.coeffs[last];
        let mut idx = range.lo.clone();
        loop {
            idx[last] = range.lo[last];
            let ibase: Vec<i64> = self
                .terms
                .iter()
                .map(|&(s, _)| in_acc[s].offset(&idx))
                .collect();
            let obase = oacc.offset(&idx);
            // the row's stores are affine in the lane index, so its first
            // and last offsets bound every store in between
            let olast = obase + (n_last as i64 - 1) * ostep;
            if obase.min(olast) < 0 || obase.max(olast) >= out.len as i64 {
                return Err(MdhError::Eval(format!(
                    "map output offsets {obase}..={olast} outside buffer of {} elements",
                    out.len
                )));
            }
            let mut done = 0usize;
            while done < n_last {
                let ln = (n_last - done).min(LANES);
                let mut acc = Line::zero();
                for (t, &(slot, w)) in self.terms.iter().enumerate() {
                    let xs = ins[slot];
                    let b = ibase[t] + done as i64 * isteps[t];
                    let st = isteps[t];
                    if t == 0 {
                        for l in 0..ln {
                            acc.0[l] = w * (xs[(b + l as i64 * st) as usize] as f64);
                        }
                    } else {
                        for l in 0..ln {
                            acc.0[l] += w * (xs[(b + l as i64 * st) as usize] as f64);
                        }
                    }
                }
                if let Some(s) = self.scale {
                    for l in 0..ln {
                        acc.0[l] *= s;
                    }
                }
                let ob = obase + done as i64 * ostep;
                for l in 0..ln {
                    // SAFETY: the row check above bounds every offset of
                    // this row to [0, len); classify() proved the output
                    // access injective over the full iteration space, and
                    // plan tasks cover disjoint index ranges, so no two
                    // writes alias.
                    unsafe { out.write((ob + l as i64 * ostep) as usize, acc.0[l] as f32) };
                }
                done += ln;
            }
            if !advance(&mut idx, &outer, range) {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::DslBuilder;
    use mdh_core::expr::ScalarFunction;
    use mdh_core::index_fn::{AffineExpr, IndexFn};
    use mdh_core::shape::Shape;
    use mdh_core::types::{BasicType, ScalarKind};

    /// `run_planned` trusts its caller to have validated the program, so
    /// the kernel must not: an output allocated smaller than the rows it
    /// is asked to store is an error, not a write past the buffer.
    #[test]
    fn undersized_output_is_an_error_not_a_write() {
        let n = 100_000;
        let mut prog = DslBuilder::new("shrunk", vec![n])
            .out_buffer("y", BasicType::F32)
            .out_access("y", IndexFn::identity(1, 1))
            .inp_buffer("x", BasicType::F32)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::weighted_sum("w", ScalarKind::F32, &[0.5]))
            .combine_ops(vec![CombineOp::cc()])
            .build()
            .unwrap();
        let schedule =
            mdh_lowering::schedule::Schedule::sequential(1, mdh_lowering::DeviceKind::Cpu);
        let plan = ExecutionPlan::build(&prog, &schedule).unwrap();
        // what a stale or hand-built program could carry past validation
        prog.out_view.buffers[0].declared_shape = Some(vec![4]);
        let inputs = vec![Buffer::zeros("x", BasicType::F32, Shape::new(vec![n]))];
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let crate::fast::FastKernel::Map(kernel) = crate::fast::classify(&prog).unwrap() else {
            panic!("a weighted sum is a map kernel");
        };
        match kernel.run(&prog, &plan, &inputs, &pool) {
            Err(MdhError::Eval(msg)) => assert!(msg.contains("outside buffer"), "{msg}"),
            other => panic!(
                "expected an Eval error, got {:?}",
                other.map(|o| o.is_some())
            ),
        }
    }

    /// The safety contract behind [`SyncSlice`]: the map path may write
    /// through a shared `&[f32]` without synchronisation only because
    /// (a) the plan's task ranges partition the iteration space and
    /// (b) the output access is injective over it. This property test
    /// builds arbitrary affine output accesses, and checks that every
    /// provably-injective one yields pairwise-disjoint per-task write
    /// sets, while every non-injective one is rejected by
    /// `fast::classify`.
    mod sync_slice_disjointness {
        use super::*;
        use crate::fast;
        use mdh_lowering::plan::ExecutionPlan;
        use mdh_lowering::schedule::Schedule;
        use mdh_lowering::DeviceKind;
        use proptest::prelude::*;
        use std::collections::HashSet;

        const MAX_RANK: usize = 3;

        #[derive(Debug, Clone)]
        struct Case {
            sizes: Vec<usize>,
            // one (coeffs, constant) affine expr per output-buffer dim
            exprs: Vec<(Vec<i64>, i64)>,
            chunks: Vec<usize>,
        }

        fn case() -> impl Strategy<Value = Case> {
            (
                1usize..=MAX_RANK,
                proptest::collection::vec(2usize..=6, MAX_RANK),
                proptest::collection::vec(
                    (proptest::collection::vec(0i64..3, MAX_RANK), 0i64..3),
                    1..=2,
                ),
                proptest::collection::vec(1usize..=3, MAX_RANK),
            )
                .prop_map(|(rank, sizes, exprs, chunks)| Case {
                    sizes: sizes[..rank].to_vec(),
                    exprs: exprs
                        .into_iter()
                        .map(|(c, k)| (c[..rank].to_vec(), k))
                        .collect(),
                    chunks: chunks[..rank]
                        .iter()
                        .zip(&sizes)
                        .map(|(&c, &s)| c.min(s))
                        .collect(),
                })
        }

        fn build_prog(case: &Case) -> DslProgram {
            let rank = case.sizes.len();
            let out_shape: Vec<usize> = case
                .exprs
                .iter()
                .map(|(c, k)| {
                    let mx: i64 = c
                        .iter()
                        .zip(&case.sizes)
                        .map(|(&ci, &s)| ci * (s as i64 - 1))
                        .sum::<i64>()
                        + k;
                    mx as usize + 1
                })
                .collect();
            let out_fn = IndexFn::affine(
                case.exprs
                    .iter()
                    .map(|(c, k)| AffineExpr::new(c.clone(), *k))
                    .collect(),
            );
            DslBuilder::new("disjoint", case.sizes.clone())
                .out_buffer_with_shape("y", BasicType::F32, out_shape)
                .out_access("y", out_fn)
                .inp_buffer("x", BasicType::F32)
                .inp_access("x", IndexFn::identity(rank, rank))
                .scalar_function(ScalarFunction::weighted_sum("w", ScalarKind::F32, &[1.0]))
                .combine_ops(vec![CombineOp::cc(); rank])
                .build()
                .unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn task_write_sets_disjoint_iff_injective(case in case()) {
                let prog = build_prog(&case);
                let full = prog.md_hom.full_range();
                let injective = prog.out_view.accesses[0]
                    .index_fn
                    .is_injective_over(&full, 1 << 14);
                // ranks <= 3 with sizes <= 6 stay under the sample budget,
                // so injectivity is always decided
                prop_assert!(injective.is_some());
                if injective != Some(true) {
                    // rejected by the only gate that writes through SyncSlice
                    prop_assert!(fast::classify(&prog).is_err());
                    return Ok(());
                }
                prop_assert!(matches!(
                    fast::classify(&prog),
                    Ok(fast::FastKernel::Map(_))
                ));

                let mut s = Schedule::sequential(prog.rank(), DeviceKind::Cpu);
                s.par_chunks = case.chunks.clone();
                s.validate(&prog, 1 << 24).unwrap();
                let plan = ExecutionPlan::build(&prog, &s).unwrap();

                let inputs = vec![Buffer::zeros(
                    "x",
                    BasicType::F32,
                    Shape::new(case.sizes.clone()),
                )];
                let outs = mdh_core::eval::alloc_outputs(&prog).unwrap();
                let (_, oa) = linearize_for(&prog, &inputs, &outs).unwrap();
                let out_len = outs[0].len();

                let mut seen: HashSet<i64> = HashSet::new();
                for task in &plan.tasks {
                    let r = &task.range;
                    if r.is_empty() {
                        continue;
                    }
                    let mut idx = r.lo.clone();
                    'points: loop {
                        let off = oa[0].offset(&idx);
                        prop_assert!(off >= 0 && (off as usize) < out_len);
                        // a collision within a task would also break the
                        // deterministic-output contract, so assert global
                        // uniqueness, not just cross-task disjointness
                        prop_assert!(
                            seen.insert(off),
                            "offset {off} written twice (task ranges {:?})",
                            plan.tasks.iter().map(|t| &t.range).collect::<Vec<_>>()
                        );
                        let mut d = idx.len();
                        loop {
                            if d == 0 {
                                break 'points;
                            }
                            d -= 1;
                            idx[d] += 1;
                            if idx[d] < r.hi[d] {
                                break;
                            }
                            idx[d] = r.lo[d];
                        }
                    }
                }
            }
        }
    }
}
