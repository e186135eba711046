//! Vectorized weighted-sum map kernel (stencils), bit-identical to the VM.
//!
//! Map programs have no reduction: every output point is an independent
//! left-nested weighted sum of its inputs. The VM evaluates that sum in
//! f64 (f32 loads widened exactly, f32 literals widened exactly) and
//! rounds once at the store; this kernel performs the identical chain per
//! point. Because points are independent, chunking and parallel task order
//! cannot change bits — the only ordering that matters is the per-point
//! term fold (and the one outer scale multiply after it), which
//! [`strict_weighted_sum`] pinned to the VM's.
//!
//! That chain is written once, in [`row`], one output row at a time. Its
//! term count is a const generic. When every term steps by 1 along the
//! row (every stencil in the tree), [`unit_row`] loads each term as a
//! slice and has an arm for every count up to [`MAP_ARMS`], so the chain
//! stays in registers across the row and LLVM vectorises it along the
//! row. A row under any other step — reversed, strided, broadcast,
//! transposed — and a sum longer than the last arm run the same function
//! with the count read at run time, each load computing its offset. An
//! output row that does not step by 1 is computed into a task-local row
//! and then stored point by point.
//!
//! Tasks store through [`SyncSlice`], the backend's one unsynchronised
//! write site. It is generic over [`Elem`] because the reduction-free
//! contraction writes through it too; both kernels reach it only past
//! classify()'s injectivity proof, and its tests hold both to it. Both
//! skip the output's zero fill when they provably write every element of
//! it ([`direct_outputs`]).
//!
//! [`strict_weighted_sum`]: crate::fast::pattern::strict_weighted_sum

use crate::fast::{direct_outputs, linearize_for, typed_inputs, Elem};
use crate::offsets::{advance, LinearAccess};
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::shape::MdRange;
use mdh_lowering::plan::ExecutionPlan;
use rayon::prelude::*;

/// Term counts with an arm of their own for unit-step rows: every
/// stencil in the tree (Jacobi1D has 3 terms, Jacobi_3D 7, Gaussian_2D 9)
/// and room past them. [`FastMap::run_task`]'s dispatch lists each count.
pub const MAP_ARMS: usize = 16;

/// Shared mutable slice for provably-disjoint parallel writes — the
/// backend's only unsynchronised write site, shared by the two kernels
/// that write their output directly: this map kernel and the
/// reduction-free contraction. Each one's classify gate proved its output
/// access injective over the full iteration space.
pub(crate) struct SyncSlice<E: Elem> {
    ptr: *mut E,
    pub(crate) len: usize,
}

// SAFETY: the pointer comes from a `&mut [E]` that outlives the parallel
// region; `row_mut` is the only access, and its contract makes concurrent
// writers hold non-overlapping spans.
unsafe impl<E: Elem> Send for SyncSlice<E> {}
unsafe impl<E: Elem> Sync for SyncSlice<E> {}

impl<E: Elem> SyncSlice<E> {
    pub(crate) fn new(s: &mut [E]) -> SyncSlice<E> {
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
    pub(crate) unsafe fn row_mut(&self, start: usize, len: usize) -> &mut [E] {
        debug_assert!(start + len <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

/// A row's offsets are affine in the point index, so its first and last
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

/// The VM's per-point chain along one row, term `t`'s value at point `k`
/// supplied by `x(t, k)`: the first term copy-initialises the
/// accumulator, later terms are a separately rounded multiply then add
/// (stencil weights are arbitrary f64, so never fused), the outer scale
/// multiplies once, and one rounding takes the result to f32. `T` is the
/// term count, or 0 for the arm that reads `w.len()` at run time: a row
/// with any non-unit step, or a sum longer than [`MAP_ARMS`]. How the
/// values were loaded is the caller's business; how they combine is
/// decided here alone.
#[inline(always)]
fn row<const T: usize>(
    w: &[f64],
    scale: Option<f64>,
    x: impl Fn(usize, usize) -> f32,
    y: &mut [f32],
) {
    let w = &w[..if T == 0 { w.len() } else { T }];
    let point = |k: usize| {
        let mut a = w[0] * f64::from(x(0, k));
        for (t, &wt) in w.iter().enumerate().skip(1) {
            a += wt * f64::from(x(t, k));
        }
        a
    };
    // one loop per scale form: with the test inside the point loop, the
    // 7-term row ran ≈ 1.5× slower
    let y = y.iter_mut().enumerate();
    match scale {
        None => y.for_each(|(k, y)| *y = point(k) as f32),
        Some(s) => y.for_each(|(k, y)| *y = (point(k) * s) as f32),
    }
}

/// A row whose `T` terms all step by 1: each term's values are a slice of
/// exactly the row's length, so the loads need no bounds checks. Kept out
/// of line: inlined, sixteen arms in one function are not vectorised
/// (Jacobi_3D ran 2× slower than before the arms).
#[inline(never)]
fn unit_row<const T: usize>(
    w: &[f64],
    scale: Option<f64>,
    xs: &[&[f32]],
    bases: &[i64],
    y: &mut [f32],
) {
    let x: [&[f32]; T] = std::array::from_fn(|t| &xs[t][bases[t] as usize..][..y.len()]);
    row::<T>(w, scale, |t, k| x[t][k], y);
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
    ) -> Result<Vec<Buffer>> {
        let mut outputs = direct_outputs(prog)?;
        let (in_acc, out_acc) = linearize_for(prog, inputs, &outputs)?;
        let ins = typed_inputs::<f32>(prog, inputs)?;
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
        Ok(outputs)
    }

    /// One task, row by row along the last dim.
    fn run_task(
        &self,
        ins: &[&[f32]],
        in_acc: &[LinearAccess],
        oacc: &LinearAccess,
        range: &MdRange,
        out: &SyncSlice<f32>,
    ) -> Result<()> {
        if range.is_empty() {
            return Ok(());
        }
        let last = range.rank() - 1;
        let n = range.extent(last);
        let outer: Vec<usize> = (0..last).collect();
        let w: Vec<f64> = self.terms.iter().map(|&(_, w)| w).collect();
        let xs: Vec<&[f32]> = self.terms.iter().map(|&(s, _)| ins[s]).collect();
        let steps: Vec<i64> = (self.terms.iter())
            .map(|&(s, _)| in_acc[s].coeffs[last])
            .collect();
        let mut bases = vec![0i64; self.terms.len()];
        let ostep = oacc.coeffs[last];
        // the steps are the same on every row, so how a row loads is
        // decided once
        let unit = steps.iter().all(|&s| s == 1);
        // an output row that does not step by 1 is computed here first
        let mut staged = vec![0.0f32; if ostep == 1 { 0 } else { n }];
        // SAFETY (of every call below): `row_span` has bounded the row's
        // offsets to [0, len) and a span holds only that row's own points
        // (a unit step makes them consecutive). classify() proved the
        // output access injective over the full iteration space and plan
        // tasks cover disjoint index ranges, so no other live span
        // contains one of these elements.
        let span = |start: i64, len: usize| unsafe { out.row_mut(start as usize, len) };
        let mut idx = range.lo.clone();
        loop {
            idx[last] = range.lo[last];
            for (t, &(s, _)) in self.terms.iter().enumerate() {
                bases[t] = in_acc[s].offset(&idx);
                row_span("input", bases[t], steps[t], n, xs[t].len())?;
            }
            let obase = oacc.offset(&idx);
            row_span("output", obase, ostep, n, out.len)?;
            let y = if ostep == 1 {
                span(obase, n)
            } else {
                &mut staged[..]
            };
            let at = |t: usize, k: usize| (bases[t] + k as i64 * steps[t]) as usize;
            macro_rules! arms {
                ($($t:literal)*) => {
                    match w.len() {
                        $($t if unit => unit_row::<$t>(&w, self.scale, &xs, &bases, y),)*
                        _ => row::<0>(&w, self.scale, |t, k| xs[t][at(t, k)], y),
                    }
                };
            }
            arms!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
            for (k, &v) in staged.iter().enumerate() {
                span(obase + k as i64 * ostep, 1)[0] = v;
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
            other => panic!("expected an Eval error, got {:?}", other.map(|o| o.len())),
        }
    }

    /// Points per iteration of the vector loops LLVM emits for a row:
    /// one f64 vector of 2 to 8 lanes, interleaved up to four times (the
    /// widest is 32 points on AVX-512; 64 leaves room).
    const VECTOR_WIDTHS: [usize; 6] = [2, 4, 8, 16, 32, 64];

    /// Row extents on either side of every vector loop width, one that
    /// runs the widest loop twice with a remainder, and a single point.
    fn row_extents() -> Vec<usize> {
        let mut extents = vec![1, 2 * 64 + 3];
        for w in VECTOR_WIDTHS {
            extents.extend([w - 1, w, w + 1]);
        }
        extents.sort();
        extents.dedup();
        extents
    }

    /// Loop boundaries of the row function. Innermost extents on either
    /// side of every vector loop width, crossed with every way a term can
    /// step along a row (and a transposed output, whose stores scatter),
    /// with and without the outer scale, f32 and f64 literal weights, on
    /// data whose sums round: the kernel must equal the VM bit for bit at
    /// every width, whichever way a row's values were loaded.
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
        let extents = row_extents();
        for &n in &extents {
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
        assert_eq!(cases, extents.len() * 5 * 2 * 2 * 2);
    }

    /// Every arm of the term-count dispatch, and the run-time count past
    /// the last one: sums of 1 ..= `MAP_ARMS + 1` terms over rows that
    /// straddle the vector loop widths, loaded as slices and with a
    /// stride, with and without the outer scale, equal the VM bit for bit.
    #[test]
    fn every_term_count_arm_bit_equal_to_the_vm() {
        use mdh_core::expr::{Expr, Stmt};
        use mdh_core::types::Value;
        use mdh_lowering::schedule::Schedule;
        use mdh_lowering::DeviceKind;

        const ROWS: usize = 3;
        let pool = crate::cpu::CpuExecutor::new(2).unwrap();
        let weights = [0.143, -2.5, 0.1, 0.333, 1.0, -0.007];
        for terms in 1..=MAP_ARMS + 1 {
            for n in [VECTOR_WIDTHS[2] - 1, VECTOR_WIDTHS[4] + 1, 2 * 64 + 3] {
                for (strided, scale) in [(false, None), (true, None), (false, Some(0.333))] {
                    // f64 weights: every product rounds, so a fused or
                    // reordered chain shows
                    let term = |t: usize| {
                        let w = Value::F64(weights[t % weights.len()]);
                        Expr::mul(Expr::Lit(w), Expr::Param(t))
                    };
                    let mut value = (1..terms).fold(term(0), |sum, t| Expr::add(sum, term(t)));
                    if let Some(s) = scale {
                        value = Expr::mul(Expr::Lit(Value::F64(s)), value);
                    }
                    let sf = ScalarFunction {
                        name: "w".into(),
                        params: (0..terms)
                            .map(|t| (format!("p{t}"), ScalarKind::F32.into()))
                            .collect(),
                        results: vec![("res".into(), ScalarKind::F32.into())],
                        body: vec![Stmt::Assign {
                            name: "res".into(),
                            value,
                        }],
                    };
                    let (access, cols) = match strided {
                        false => (IndexFn::identity(2, 2), n),
                        true => {
                            let e = vec![AffineExpr::var(2, 0), AffineExpr::new(vec![0, 2], 0)];
                            (IndexFn::affine(e), 2 * n - 1)
                        }
                    };
                    let mut b = DslBuilder::new("arms", vec![ROWS, n])
                        .out_buffer("y", BasicType::F32)
                        .out_access("y", IndexFn::identity(2, 2));
                    let mut inputs = Vec::new();
                    for t in 0..terms {
                        let name = format!("x{t}");
                        b = b
                            .inp_buffer(&name, BasicType::F32)
                            .inp_access(&name, access.clone());
                        let mut x =
                            Buffer::zeros(name, BasicType::F32, Shape::new(vec![ROWS, cols]));
                        x.fill_with(move |i| {
                            ((i + 17 * t) * 2654435761 % 1000) as f64 * 0.1 - 31.7
                        });
                        inputs.push(x);
                    }
                    let prog = b
                        .scalar_function(sf)
                        .combine_ops(vec![CombineOp::cc(), CombineOp::cc()])
                        .build()
                        .unwrap();
                    let mut schedule = Schedule::sequential(2, DeviceKind::Cpu);
                    schedule.par_chunks = vec![2, 1];
                    let plan = ExecutionPlan::build(&prog, &schedule).unwrap();
                    let crate::fast::FastKernel::Map(kernel) =
                        crate::fast::classify(&prog).unwrap()
                    else {
                        panic!("a weighted sum of {terms} terms is a map kernel");
                    };
                    let fast = kernel.run(&prog, &plan, &inputs, pool.pool()).unwrap();
                    let vm = crate::vm_exec::run(&prog, &plan, &inputs, pool.pool()).unwrap();
                    let what = format!("terms={terms} n={n} strided={strided} scale={scale:?}");
                    assert_eq!(
                        mdh_core::buffer::bits_hash(&fast),
                        mdh_core::buffer::bits_hash(&vm),
                        "{what}"
                    );
                }
            }
        }
    }

    /// The safety contract behind [`SyncSlice`]: a kernel may write
    /// through a shared slice without synchronisation only because
    /// (a) the plan's task ranges partition the iteration space and
    /// (b) the output access is injective over it. This property test
    /// builds arbitrary affine output accesses under both kernels that
    /// write directly — a weighted-sum map, and an all-`cc` two-factor
    /// product in f32 or f64 — and checks that every provably-injective
    /// one is admitted, yields pairwise-disjoint per-task write sets and
    /// equals the VM bit for bit, while every non-injective one is
    /// rejected by `fast::classify`.
    mod sync_slice_disjointness {
        use super::*;
        use crate::cpu::CpuExecutor;
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
            // `None`: a weighted sum; `Some(elem)`: `x0 * x1` over `elem`
            product: Option<ScalarKind>,
        }

        const PRODUCTS: [Option<ScalarKind>; 3] =
            [None, Some(ScalarKind::F32), Some(ScalarKind::F64)];

        fn case() -> impl Strategy<Value = Case> {
            (
                1usize..=MAX_RANK,
                proptest::collection::vec(2usize..=6, MAX_RANK),
                proptest::collection::vec(
                    (proptest::collection::vec(0i64..3, MAX_RANK), 0i64..3),
                    1..=2,
                ),
                proptest::collection::vec(1usize..=3, MAX_RANK),
                0..PRODUCTS.len(),
            )
                .prop_map(|(rank, sizes, exprs, chunks, product)| Case {
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
                    product: PRODUCTS[product],
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
            let b = DslBuilder::new("disjoint", case.sizes.clone());
            let b = match case.product {
                None => b
                    .out_buffer_with_shape("y", BasicType::F32, out_shape)
                    .inp_buffer("x", BasicType::F32)
                    .inp_access("x", IndexFn::identity(rank, rank))
                    .scalar_function(ScalarFunction::weighted_sum("w", ScalarKind::F32, &[0.1])),
                Some(elem) => b
                    .out_buffer_with_shape("y", elem.into(), out_shape)
                    .inp_buffer("x0", elem.into())
                    .inp_access("x0", IndexFn::identity(rank, rank))
                    .inp_buffer("x1", elem.into())
                    .inp_access("x1", IndexFn::select(rank, &[rank - 1]))
                    .scalar_function(ScalarFunction::mul2("f_mul", elem)),
            };
            b.out_access("y", out_fn)
                .combine_ops(vec![CombineOp::cc(); rank])
                .build()
                .unwrap()
        }

        /// The program's inputs, on data whose products and sums round.
        fn inputs(prog: &DslProgram) -> Vec<Buffer> {
            let shapes = prog.input_shapes().unwrap();
            let decls = prog.inp_view.buffers.iter().zip(shapes).enumerate();
            decls
                .map(|(salt, (d, shape))| {
                    let mut buf = Buffer::zeros(d.name.clone(), d.ty.clone(), Shape::new(shape));
                    buf.fill_with(move |i| {
                        ((i + 17 * salt) * 2654435761 % 1000) as f64 * 0.1 - 31.7
                    });
                    buf
                })
                .collect()
        }

        fn bits(out: &Buffer) -> Vec<u64> {
            match (out.as_f32(), out.as_f64()) {
                (Some(v), _) => v.iter().map(|x| x.to_bits().into()).collect(),
                (_, Some(v)) => v.iter().map(|x| x.to_bits()).collect(),
                _ => panic!("a direct-writing kernel's output is f32 or f64"),
            }
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
                    // rejected by the gate of every kernel that writes
                    // through SyncSlice
                    prop_assert!(fast::classify(&prog).is_err());
                    return Ok(());
                }
                let kernel = fast::classify(&prog);
                let direct = match (&kernel, case.product) {
                    (Ok(fast::FastKernel::Map(_)), None) => true,
                    (Ok(fast::FastKernel::Contraction(c)), Some(_)) => c.collapsed.is_empty(),
                    _ => false,
                };
                prop_assert!(direct, "{:?}", kernel.err());

                let mut s = Schedule::sequential(prog.rank(), DeviceKind::Cpu);
                s.par_chunks = case.chunks.clone();
                s.validate(&prog, 1 << 24).unwrap();
                let plan = ExecutionPlan::build(&prog, &s).unwrap();

                let inputs = inputs(&prog);
                static BASE: std::sync::OnceLock<CpuExecutor> = std::sync::OnceLock::new();
                let pool = BASE.get_or_init(|| CpuExecutor::new(2).unwrap()).pool();
                let fast_out = kernel.unwrap().run(&prog, &plan, &inputs, pool).unwrap();
                let vm_out = crate::vm_exec::run(&prog, &plan, &inputs, pool).unwrap();
                prop_assert_eq!(bits(&fast_out[0]), bits(&vm_out[0]));

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
