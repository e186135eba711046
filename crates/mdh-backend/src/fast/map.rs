//! Vectorized weighted-sum map kernel (stencils), bit-identical to the VM.
//!
//! Map programs have no reduction: every output point is an independent
//! left-nested weighted sum of its inputs. The VM evaluates that sum in
//! f64 (f32 loads widened exactly, f32 literals widened exactly) and
//! rounds once at the store; this kernel performs the identical chain per
//! point, [`LANES`] points at a time along the innermost dimension.
//! Because points are independent, chunking and parallel task order
//! cannot change bits — the only ordering that matters is the per-point
//! term fold (and the one outer scale multiply after it), which
//! [`strict_weighted_sum`] pinned to the VM's.
//!
//! That chain is written once, in [`FastMap::chain`]. The steps along a
//! row only decide how a block's values reach it: when the output and
//! every term step by 1, whole blocks are read and stored as slices; the
//! row's remainder, and every block under any other step — reversed,
//! strided, broadcast, transposed — moves the same values one at a time.
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
// parallel region; `row_mut` is the only access, and its contract makes
// concurrent writers hold non-overlapping spans.
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
    /// `start + len <= self.len`, and for as long as the returned slice
    /// lives no other `row_mut` span contains any of its elements.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn row_mut(&self, start: usize, len: usize) -> &mut [f32] {
        debug_assert!(start + len <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

/// One term's values along the current row: element `i` of the row is
/// `xs[base + i * step]`. [`row_span`] has bounded the row before any
/// load runs, so the indexing cannot fail.
struct TermRow<'a> {
    xs: &'a [f32],
    base: i64,
    step: i64,
}

impl TermRow<'_> {
    /// Row elements `done .. done + ln` for any step, one at a time, in
    /// the low lanes (the rest zero).
    #[inline(always)]
    fn gather(&self, done: usize, ln: usize) -> [f32; LANES] {
        let mut x = [0.0f32; LANES];
        let at = self.base + done as i64 * self.step;
        for (l, v) in x[..ln].iter_mut().enumerate() {
            *v = self.xs[(at + l as i64 * self.step) as usize];
        }
        x
    }
}

/// A row's offsets are affine in the lane index, so its first and last
/// bound every one in between: `Err` unless both lie in `0..len`.
fn row_span(what: &str, base: i64, step: i64, n: usize, len: usize) -> Result<()> {
    let last = base + (n as i64 - 1) * step;
    if base.min(last) < 0 || base.max(last) >= len as i64 {
        return Err(MdhError::Eval(format!(
            "map {what} offsets {base}..={last} outside buffer of {len} elements"
        )));
    }
    Ok(())
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
        let mut rows: Vec<TermRow> = self
            .terms
            .iter()
            .map(|&(s, _)| TermRow {
                xs: ins[s],
                base: 0,
                step: in_acc[s].coeffs[last],
            })
            .collect();
        let ostep = oacc.coeffs[last];
        // the steps are the same on every row, so which load a full block
        // uses is decided once
        let unit = ostep == 1 && rows.iter().all(|r| r.step == 1);
        // SAFETY (of every call below): `row_span` has bounded the row's
        // offsets to [0, len) and a span holds only that row's own points
        // (a unit step makes them consecutive). classify() proved the
        // output access injective over the full iteration space and plan
        // tasks cover disjoint index ranges, so no other live span
        // contains one of these elements.
        let span = |start: i64, len: usize| unsafe { out.row_mut(start as usize, len) };
        let mut idx = range.lo.clone();
        let mut blocks: Vec<&[[f32; LANES]]> = Vec::with_capacity(rows.len());
        loop {
            idx[last] = range.lo[last];
            for (row, &(s, _)) in rows.iter_mut().zip(&self.terms) {
                row.base = in_acc[s].offset(&idx);
                row_span("input", row.base, row.step, n_last, row.xs.len())?;
            }
            let obase = oacc.offset(&idx);
            row_span("output", obase, ostep, n_last, out.len)?;
            let mut done = 0usize;
            if unit {
                // the row's whole blocks: each term's row and the output
                // row as arrays of LANES, taken once
                let full = n_last - n_last % LANES;
                blocks.clear();
                blocks.extend(
                    rows.iter()
                        .map(|r| r.xs[r.base as usize..][..full].as_chunks().0),
                );
                let (orow, _) = span(obase, full).as_chunks_mut::<LANES>();
                for (b, y) in orow.iter_mut().enumerate() {
                    *y = self.chain(|t| blocks[t][b]);
                }
                done = full;
            }
            // the short tail of a unit-step row, and every block of any
            // other row: the same chain on values moved one at a time
            while done < n_last {
                let ln = (n_last - done).min(LANES);
                let y = self.chain(|t| rows[t].gather(done, ln));
                for (l, &v) in y[..ln].iter().enumerate() {
                    span(obase + (done + l) as i64 * ostep, 1)[0] = v;
                }
                done += ln;
            }
            if !advance(&mut idx, &outer, range) {
                return Ok(());
            }
        }
    }

    /// The VM's per-point chain on each of [`LANES`] points, term `t`'s
    /// values supplied by `load(t)`: the first term copy-initialises the
    /// accumulator, later terms are a separately rounded multiply then
    /// add (stencil weights are arbitrary f64, so never `acc_fma_exact`),
    /// the outer scale multiplies once, and one rounding takes the result
    /// to f32. How the values were loaded is the caller's business; how
    /// they combine is decided here alone.
    #[inline(always)]
    fn chain(&self, load: impl Fn(usize) -> [f32; LANES]) -> [f32; LANES] {
        let mut acc = Line::zero();
        for (t, &(_, w)) in self.terms.iter().enumerate() {
            let x = Line(load(t).map(f64::from));
            if t == 0 {
                acc.set_mul(w, &x);
            } else {
                acc.acc_mul(w, &x);
            }
        }
        if let Some(s) = self.scale {
            for a in &mut acc.0 {
                *a *= s;
            }
        }
        acc.0.map(|a| a as f32)
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

    /// Block boundaries of the row loop. Innermost extents on either
    /// side of one and two blocks, crossed with every way a term can step
    /// along a row (and a transposed output, whose stores scatter), with
    /// and without the outer scale, f32 and f64 literal weights, on data
    /// whose sums round: the kernel must equal the VM bit for bit at
    /// every width, whichever way a block's values were loaded.
    #[test]
    fn block_boundary_sweep_bit_equal_to_the_vm() {
        use crate::cpu::{CpuExecutor, ExecPath};
        use mdh_core::expr::{Expr, Stmt};
        use mdh_core::types::Value;
        use mdh_lowering::schedule::Schedule;
        use mdh_lowering::DeviceKind;

        const ROWS: usize = 4;
        let base = CpuExecutor::new(4).unwrap();
        // (name, index fn over (i, j), buffer shape) for row extent n
        type Form = (
            &'static str,
            fn(i64) -> Vec<AffineExpr>,
            fn(usize) -> Vec<usize>,
        );
        let forms: [Form; 5] = [
            (
                "contiguous",
                |_| vec![AffineExpr::var(2, 0), AffineExpr::var(2, 1)],
                |n| vec![ROWS, n],
            ),
            (
                "reversed",
                |n| vec![AffineExpr::var(2, 0), AffineExpr::new(vec![0, -1], n - 1)],
                |n| vec![ROWS, n],
            ),
            (
                "strided",
                |_| vec![AffineExpr::var(2, 0), AffineExpr::new(vec![0, 2], 0)],
                |n| vec![ROWS, 2 * n - 1],
            ),
            ("broadcast", |_| vec![AffineExpr::var(2, 0)], |_| vec![ROWS]),
            (
                "transposed",
                |_| vec![AffineExpr::var(2, 1), AffineExpr::var(2, 0)],
                |n| vec![n, ROWS],
            ),
        ];
        let mut cases = 0;
        for n in [1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3] {
            for (form, index, shape) in &forms {
                for out_transposed in [false, true] {
                    for scale in [None, Some(Value::F64(0.333))] {
                        for f64_weights in [false, true] {
                            let lit = |w: f64| match f64_weights {
                                true => Value::F64(w),
                                false => Value::F32(w as f32),
                            };
                            let term =
                                |w: f64, p: usize| Expr::mul(Expr::Lit(lit(w)), Expr::Param(p));
                            let mut value =
                                Expr::add(Expr::add(term(0.143, 0), term(-2.5, 1)), Expr::Param(0));
                            if let Some(s) = &scale {
                                value = Expr::mul(Expr::Lit(s.clone()), value);
                            }
                            let sf = ScalarFunction {
                                name: "f".into(),
                                params: vec![
                                    ("a".into(), ScalarKind::F32.into()),
                                    ("b".into(), ScalarKind::F32.into()),
                                ],
                                results: vec![("res".into(), ScalarKind::F32.into())],
                                body: vec![Stmt::Assign {
                                    name: "res".into(),
                                    value,
                                }],
                            };
                            let out_fn = if out_transposed {
                                IndexFn::select(2, &[1, 0])
                            } else {
                                IndexFn::identity(2, 2)
                            };
                            let prog = DslBuilder::new("sweep", vec![ROWS, n])
                                .out_buffer("y", BasicType::F32)
                                .out_access("y", out_fn)
                                .inp_buffer("a", BasicType::F32)
                                .inp_access("a", IndexFn::affine(index(n as i64)))
                                .inp_buffer("b", BasicType::F32)
                                .inp_access("b", IndexFn::identity(2, 2))
                                .scalar_function(sf)
                                .combine_ops(vec![CombineOp::cc(), CombineOp::cc()])
                                .build()
                                .unwrap();
                            let mut inputs = vec![
                                Buffer::zeros("a", BasicType::F32, Shape::new(shape(n))),
                                Buffer::zeros("b", BasicType::F32, Shape::new(vec![ROWS, n])),
                            ];
                            for (salt, buf) in inputs.iter_mut().enumerate() {
                                // 0.1 * k is not a binary float
                                buf.fill_with(move |i| {
                                    ((i + 17 * salt) * 2654435761 % 1000) as f64 * 0.1 - 31.7
                                });
                            }
                            let what = format!(
                                "n={n} {form} out_transposed={out_transposed} scale={scale:?} \
                                 f64_weights={f64_weights}"
                            );
                            let mut want: Option<Vec<u32>> = None;
                            for width in [1usize, 2, 4] {
                                let mut schedule = Schedule::sequential(2, DeviceKind::Cpu);
                                schedule.par_chunks = vec![width, 1];
                                let exec = CpuExecutor::with_pool(base.pool(), width);
                                assert_eq!(exec.path_for(&prog), ExecPath::Fast, "{what}");
                                let plan = ExecutionPlan::build(&prog, &schedule).unwrap();
                                let bits = |outs: Vec<Buffer>| -> Vec<u32> {
                                    outs[0]
                                        .as_f32()
                                        .unwrap()
                                        .iter()
                                        .map(|v| v.to_bits())
                                        .collect()
                                };
                                let fast = bits(
                                    exec.run_planned(&prog, &schedule, &plan, &inputs).unwrap(),
                                );
                                let vm = bits(
                                    crate::vm_exec::run(&prog, &plan, &inputs, exec.pool())
                                        .unwrap(),
                                );
                                assert_eq!(fast, vm, "{what} width={width}");
                                // and the bits do not depend on the width
                                assert_eq!(want.get_or_insert(vm), &fast, "{what} width={width}");
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 5 * 5 * 2 * 2 * 2);
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
