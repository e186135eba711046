//! Cache-blocked two-factor contraction kernel, bit-identical to the VM.
//!
//! The VM folds each task's reduction strictly sequentially per output
//! point: ascending odometer over the collapsed dims (last fastest), all
//! arithmetic in f64, the accumulator copy-initialised from the first
//! element, every later element added as a separately rounded multiply
//! then add, one rounding to f32 at the final store. This kernel keeps
//! exactly that chain per output point and gets its speed from everything
//! the chain does *not* pin down:
//!
//! - the eight [`Line`] lanes are eight *adjacent output points* of the
//!   last preserved dimension, never a split of one reduction;
//! - loop tiling (from [`ExecutionPlan::tile_for`]) reorders whole
//!   independent output points, never elements within one fold;
//! - the packed path copies operands into contiguous f64 panels first —
//!   offsets are exact integers and `f32 as f64` is exact, so packing
//!   changes memory traffic, not values;
//! - the hot accumulates may fuse multiply and add into one instruction
//!   because both factors are exact f32 widenings: the f64 product
//!   carries at most 48 significand bits, the inner rounding is the
//!   identity, and fused vs two-rounding results coincide bit for bit
//!   (see [`Line::acc_fma_exact`]).
//!
//! Result bits therefore match `vm_exec` for every pool width.

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

/// Rows per register block in the packed micro-kernel. Eight accumulator
/// registers are needed to cover the ~4-cycle FMA latency on two issue
/// ports; fewer rows leave the FP pipes idle waiting on the previous
/// accumulation.
const ROWS: usize = 8;

/// Upper bound (bytes) on the packed panels of one task; larger
/// reductions run the unpacked path instead (same bits, no copies).
const PACK_CAP_BYTES: usize = 16 << 20;

/// An f64 partial over one task's preserved sub-range. The fast path
/// keeps partials in f64 (the VM's accumulator precision) and rounds to
/// f32 once, in the write phase — exactly where the VM rounds.
pub(crate) struct PartialF64 {
    extents: Vec<usize>,
    data: Vec<f64>,
}

/// How a task's loops are arranged; chosen once per run from the access
/// strides. All three arrangements fold identical chains.
#[derive(Clone, Copy)]
enum TaskPath {
    /// Panel-packed `ROWS x LANES` micro-kernel: factor `a` is invariant
    /// in the lane dim, factor `b` invariant in the row dim.
    Packed { a: usize, b: usize },
    /// Direct 8-lane accumulation (e.g. MatVec, or stride patterns the
    /// packer does not cover).
    Unpacked,
    /// Pure reduction with no preserved dims (Dot): one sequential chain.
    Scalar,
}

/// A compiled two-factor contraction `out[..] = Σ x_f0 * x_f1`.
#[derive(Debug, Clone)]
pub struct FastContraction {
    pub(crate) f0: usize,
    pub(crate) f1: usize,
    pub(crate) preserved: Vec<usize>,
    pub(crate) collapsed: Vec<usize>,
}

impl FastContraction {
    /// Execute on a plan. Returns `Ok(None)` when runtime geometry rules
    /// the kernel out (the caller falls back to the VM transparently).
    pub fn run(
        &self,
        prog: &DslProgram,
        plan: &ExecutionPlan,
        inputs: &[Buffer],
        pool: &rayon::ThreadPool,
    ) -> Result<Option<Vec<Buffer>>> {
        let mut outputs = eval::alloc_outputs(prog)?;
        let (in_acc, out_acc) = linearize_for(prog, inputs, &outputs)?;
        let oacc = &out_acc[0];
        // classify() proved the output index exprs ignore collapsed dims;
        // buffer-stride folding can only keep such coefficients zero, but
        // guard anyway: writing through a reduced dim would be wrong.
        if self.collapsed.iter().any(|&d| oacc.coeffs[d] != 0) {
            return Ok(None);
        }
        let ins = f32_inputs(prog, inputs)?;
        let path = self.pick_path(&in_acc);

        let mut partials: Vec<Option<PartialF64>> = Vec::new();
        pool.install(|| {
            plan.tasks
                .par_iter()
                .map(|t| Some(self.run_task(&ins, &in_acc, &t.range, plan, path)))
                .collect_into_vec(&mut partials);
        });

        // fold split-reduction groups exactly like the VM: the group
        // owner's partial first, members added in task-id order,
        // elementwise ascending, in f64
        let write_jobs: Vec<(usize, PartialF64)> = if plan.split_dims.is_empty() {
            partials
                .into_iter()
                .enumerate()
                .map(|(t, p)| (t, p.expect("partial")))
                .collect()
        } else {
            let mut partials = partials;
            plan.groups
                .iter()
                .map(|g| {
                    let owner = g.task_ids[0];
                    let mut acc = partials[owner].take().expect("owner partial");
                    for &tid in &g.task_ids[1..] {
                        let rhs = partials[tid].take().expect("member partial");
                        for (a, b) in acc.data.iter_mut().zip(&rhs.data) {
                            *a += *b;
                        }
                    }
                    (owner, acc)
                })
                .collect()
        };

        let out_buf = prog.out_view.accesses[0].buffer;
        {
            let out = outputs[out_buf]
                .as_f32_mut()
                .ok_or_else(|| MdhError::Type("fast contraction output must be f32".into()))?;
            for (owner, partial) in write_jobs {
                self.write_partial(&partial, &plan.tasks[owner].range, oacc, out)?;
            }
        }
        Ok(Some(outputs))
    }

    /// Round one task's partial to f32 and store it. The partial is
    /// row-major over the preserved extents, so it is read front to back
    /// while the output offset walks each row of the last preserved dim
    /// by that dim's stride — no per-point index vectors.
    fn write_partial(
        &self,
        partial: &PartialF64,
        range: &MdRange,
        oacc: &LinearAccess,
        out: &mut [f32],
    ) -> Result<()> {
        if partial.extents.contains(&0) {
            return Ok(());
        }
        let (outer, lane_d) = match self.preserved.split_last() {
            Some((&lane_d, outer)) => (outer, Some(lane_d)),
            None => (&[][..], None),
        };
        let lane_ext = lane_d.map_or(1, |d| range.extent(d));
        let ostep = lane_d.map_or(0, |d| oacc.coeffs[d]);
        // collapsed entries stay at `lo`: their output coefficients are zero
        let mut idx = range.lo.clone();
        for row in partial.data.chunks_exact(lane_ext) {
            let obase = oacc.offset(&idx);
            // affine in the lane index: the row's ends bound every store
            if obase.min(obase + (lane_ext as i64 - 1) * ostep) < 0 {
                return Err(MdhError::Eval("negative output offset".into()));
            }
            for (l, &v) in row.iter().enumerate() {
                out[(obase + l as i64 * ostep) as usize] = v as f32;
            }
            if !advance(&mut idx, outer, range) {
                break;
            }
        }
        Ok(())
    }

    /// Choose the loop arrangement from the factors' strides. The packed
    /// path needs one factor constant along the lane (last preserved) dim
    /// and the other constant along the row (second-last preserved) dim —
    /// the blocked-i/j/k MatMul shape.
    fn pick_path(&self, in_acc: &[LinearAccess]) -> TaskPath {
        let np = self.preserved.len();
        if np == 0 {
            return TaskPath::Scalar;
        }
        if np >= 2 {
            let lane_d = self.preserved[np - 1];
            let row_d = self.preserved[np - 2];
            let a0 = &in_acc[self.f0];
            let a1 = &in_acc[self.f1];
            if a0.coeffs[lane_d] == 0 && a1.coeffs[row_d] == 0 {
                return TaskPath::Packed {
                    a: self.f0,
                    b: self.f1,
                };
            }
            if a1.coeffs[lane_d] == 0 && a0.coeffs[row_d] == 0 {
                return TaskPath::Packed {
                    a: self.f1,
                    b: self.f0,
                };
            }
        }
        TaskPath::Unpacked
    }

    fn run_task(
        &self,
        ins: &[&[f32]],
        in_acc: &[LinearAccess],
        range: &MdRange,
        plan: &ExecutionPlan,
        path: TaskPath,
    ) -> PartialF64 {
        let extents: Vec<usize> = self.preserved.iter().map(|&d| range.extent(d)).collect();
        let n = extents.iter().product::<usize>().max(1);
        let mut partial = PartialF64 {
            extents,
            data: vec![0.0; n],
        };
        if range.is_empty() {
            return partial;
        }
        match path {
            TaskPath::Scalar => self.task_scalar(ins, in_acc, range, &mut partial),
            TaskPath::Unpacked => self.task_unpacked(ins, in_acc, range, &mut partial),
            TaskPath::Packed { a, b } => {
                let knt: usize = self
                    .collapsed
                    .iter()
                    .map(|&d| range.extent(d))
                    .product::<usize>()
                    .max(1);
                let np = self.preserved.len();
                let row_ext = range.extent(self.preserved[np - 2]);
                if (row_ext * knt + knt * LANES) * 8 <= PACK_CAP_BYTES {
                    self.task_packed(ins, in_acc, range, plan, a, b, knt, &mut partial);
                } else {
                    self.task_unpacked(ins, in_acc, range, &mut partial);
                }
            }
        }
        partial
    }

    /// Dot-style task: no preserved dims, one strictly sequential f64
    /// chain over the collapsed odometer — literally the VM's loop.
    fn task_scalar(
        &self,
        ins: &[&[f32]],
        in_acc: &[LinearAccess],
        range: &MdRange,
        partial: &mut PartialF64,
    ) {
        let a0 = &in_acc[self.f0];
        let a1 = &in_acc[self.f1];
        let x0 = ins[self.f0];
        let x1 = ins[self.f1];
        let (sk0, sk1) = self.inner_steps(in_acc);
        let mut idx = range.lo.clone();
        let mut acc = 0f64;
        let mut first = true;
        walk_runs(&mut idx, &self.collapsed, range, &mut |ir, nr| {
            let mut o0 = a0.offset(ir);
            let mut o1 = a1.offset(ir);
            let mut rem = nr;
            if first {
                acc = (x0[o0 as usize] as f64) * (x1[o1 as usize] as f64);
                o0 += sk0;
                o1 += sk1;
                rem -= 1;
                first = false;
            }
            for _ in 0..rem {
                acc += (x0[o0 as usize] as f64) * (x1[o1 as usize] as f64);
                o0 += sk0;
                o1 += sk1;
            }
        });
        partial.data[0] = acc;
    }

    /// Direct 8-lane task: lanes are adjacent points of the last
    /// preserved dim, each lane folding its own chain in VM order.
    fn task_unpacked(
        &self,
        ins: &[&[f32]],
        in_acc: &[LinearAccess],
        range: &MdRange,
        partial: &mut PartialF64,
    ) {
        let np = self.preserved.len();
        let lane_d = self.preserved[np - 1];
        let lane_ext = range.extent(lane_d);
        let outer_pres = &self.preserved[..np - 1];
        let a0 = &in_acc[self.f0];
        let a1 = &in_acc[self.f1];
        let x0 = ins[self.f0];
        let x1 = ins[self.f1];
        let s0l = a0.coeffs[lane_d];
        let s1l = a1.coeffs[lane_d];
        let (sk0, sk1) = self.inner_steps(in_acc);
        let mut idx = range.lo.clone();
        let mut outer_lin = 0usize;
        loop {
            let mut jp = 0usize;
            while jp < lane_ext {
                let ln = (lane_ext - jp).min(LANES);
                idx[lane_d] = range.lo[lane_d] + jp;
                let mut acc = Line::zero();
                let mut first = true;
                walk_runs(&mut idx, &self.collapsed, range, &mut |ir, nr| {
                    let mut o0 = a0.offset(ir);
                    let mut o1 = a1.offset(ir);
                    let mut rem = nr;
                    // MatVec shape — one factor row-major (contiguous in
                    // the reduction, strided across lanes), the other
                    // lane-invariant: fold whole 8x8 blocks through the
                    // convert-transpose kernel, leftovers scalar below
                    if ln == LANES && rem >= LANES {
                        let blocks = rem / LANES;
                        let consumed = if s1l == 0 && sk0 == 1 && s0l != 0 {
                            lane_blocks_rowmajor(
                                &mut acc, &mut first, x0, o0, s0l, x1, o1, sk1, blocks,
                            )
                        } else if s0l == 0 && sk1 == 1 && s1l != 0 {
                            lane_blocks_rowmajor(
                                &mut acc, &mut first, x1, o1, s1l, x0, o0, sk0, blocks,
                            )
                        } else {
                            0
                        };
                        o0 += consumed as i64 * sk0;
                        o1 += consumed as i64 * sk1;
                        rem -= consumed;
                    }
                    if rem > 0 && first {
                        lane_step::<true>(&mut acc, ln, x0, x1, o0, o1, s0l, s1l);
                        o0 += sk0;
                        o1 += sk1;
                        rem -= 1;
                        first = false;
                    }
                    for _ in 0..rem {
                        lane_step::<false>(&mut acc, ln, x0, x1, o0, o1, s0l, s1l);
                        o0 += sk0;
                        o1 += sk1;
                    }
                });
                let p0 = outer_lin * lane_ext + jp;
                partial.data[p0..p0 + ln].copy_from_slice(&acc.0[..ln]);
                jp += ln;
            }
            if !advance(&mut idx, outer_pres, range) {
                break;
            }
            outer_lin += 1;
        }
    }

    /// Blocked i/j/k task with packed panels: per macro point, factor `a`
    /// is packed row-major (`row_ext x knt`), and per 8-lane column chunk
    /// factor `b` is packed as one [`Line`] per reduction step; a
    /// `ROWS x LANES` register block then streams both panels. Tiling
    /// follows the plan's `inner_tiles` on the row, lane, and innermost
    /// reduction dims.
    #[allow(clippy::too_many_arguments)]
    fn task_packed(
        &self,
        ins: &[&[f32]],
        in_acc: &[LinearAccess],
        range: &MdRange,
        plan: &ExecutionPlan,
        a_f: usize,
        b_f: usize,
        knt: usize,
        partial: &mut PartialF64,
    ) {
        let np = self.preserved.len();
        let lane_d = self.preserved[np - 1];
        let row_d = self.preserved[np - 2];
        let macro_dims = &self.preserved[..np - 2];
        let lane_ext = range.extent(lane_d);
        let row_ext = range.extent(row_d);
        let aa = &in_acc[a_f];
        let ab = &in_acc[b_f];
        let xa = ins[a_f];
        let xb = ins[b_f];
        let sbl = ab.coeffs[lane_d];
        let ska = self.collapsed.last().map_or(0, |&d| aa.coeffs[d]);
        let skb = self.collapsed.last().map_or(0, |&d| ab.coeffs[d]);
        let it = tile_or(plan, row_d, row_ext);
        let jt = tile_or(plan, lane_d, lane_ext);
        let kbt = self
            .collapsed
            .last()
            .map_or(knt, |&d| tile_or(plan, d, knt));

        let mut apack = vec![0f64; row_ext * knt];
        let mut bpack = vec![Line::zero(); knt];
        let mut idx = range.lo.clone();
        let mut macro_lin = 0usize;
        loop {
            // pack a: one contiguous f64 row per row-dim point
            for r in 0..row_ext {
                idx[row_d] = range.lo[row_d] + r;
                idx[lane_d] = range.lo[lane_d];
                let dst = &mut apack[r * knt..(r + 1) * knt];
                let mut w = 0usize;
                walk_runs(&mut idx, &self.collapsed, range, &mut |ir, nr| {
                    let mut o = aa.offset(ir);
                    for _ in 0..nr {
                        dst[w] = xa[o as usize] as f64;
                        w += 1;
                        o += ska;
                    }
                });
            }
            let mut j0 = 0usize;
            while j0 < lane_ext {
                let jend = (j0 + jt).min(lane_ext);
                let mut jp = j0;
                while jp < jend {
                    let ln = (jend - jp).min(LANES);
                    // pack b: one Line (8 lane points) per reduction step
                    idx[row_d] = range.lo[row_d];
                    idx[lane_d] = range.lo[lane_d] + jp;
                    let mut w = 0usize;
                    walk_runs(&mut idx, &self.collapsed, range, &mut |ir, nr| {
                        let mut o = ab.offset(ir);
                        for _ in 0..nr {
                            let mut line = Line::zero();
                            for l in 0..ln {
                                line.0[l] = xb[(o + l as i64 * sbl) as usize] as f64;
                            }
                            bpack[w] = line;
                            w += 1;
                            o += skb;
                        }
                    });
                    let mut i0 = 0usize;
                    while i0 < row_ext {
                        let iend = (i0 + it).min(row_ext);
                        let mut r0 = i0;
                        while r0 < iend {
                            let rn = (iend - r0).min(ROWS);
                            let p0 = (macro_lin * row_ext + r0) * lane_ext + jp;
                            let micro = match rn {
                                8 => micro_packed::<8>,
                                7 => micro_packed::<7>,
                                6 => micro_packed::<6>,
                                5 => micro_packed::<5>,
                                4 => micro_packed::<4>,
                                3 => micro_packed::<3>,
                                2 => micro_packed::<2>,
                                _ => micro_packed::<1>,
                            };
                            micro(
                                &apack,
                                &bpack,
                                r0,
                                knt,
                                kbt,
                                &mut partial.data,
                                p0,
                                lane_ext,
                                ln,
                            );
                            r0 += rn;
                        }
                        i0 = iend;
                    }
                    jp += ln;
                }
                j0 = jend;
            }
            if !advance(&mut idx, macro_dims, range) {
                break;
            }
            macro_lin += 1;
        }
    }

    /// Innermost collapsed-dim strides for both factors.
    fn inner_steps(&self, in_acc: &[LinearAccess]) -> (i64, i64) {
        match self.collapsed.last() {
            Some(&d) => (in_acc[self.f0].coeffs[d], in_acc[self.f1].coeffs[d]),
            None => (0, 0),
        }
    }
}

/// The plan's tile for dim `d`, treating "untiled" (tile 1) as one full
/// sweep of `full` so a missing tile never degenerates into unit strips.
fn tile_or(plan: &ExecutionPlan, d: usize, full: usize) -> usize {
    let t = plan.tile_for(d);
    if t <= 1 {
        full.max(1)
    } else {
        t
    }
}

/// `RN x LANES` register-blocked micro-kernel over packed panels.
/// `rows[r][ck] * bpack[ck]` accumulates into `RN` [`Line`]s — per lane a
/// strictly sequential f64 chain over `ck` (copy-init at `ck == 0`), so
/// the fold order matches the VM regardless of `RN`, `kbt`, or SIMD
/// width. Finite f64 multiplication is bitwise commutative, so the packed
/// operand order (`a * b`) matches the VM even when `a` is the program's
/// second factor. The panels hold exact `f32 as f64` widenings, which is
/// what licenses [`Line::acc_fma_exact`] here: every product is exact in
/// f64, so the fused accumulate is bit-identical to mul-then-add.
#[allow(clippy::too_many_arguments)]
fn micro_packed<const RN: usize>(
    apack: &[f64],
    bpack: &[Line],
    r0: usize,
    knt: usize,
    kbt: usize,
    out: &mut [f64],
    p0: usize,
    row_stride: usize,
    ln: usize,
) {
    let rows: [&[f64]; RN] = core::array::from_fn(|r| &apack[(r0 + r) * knt..(r0 + r + 1) * knt]);
    let mut acc = [Line::zero(); RN];
    for r in 0..RN {
        acc[r].set_mul(rows[r][0], &bpack[0]);
    }
    let mut kb0 = 0usize;
    while kb0 < knt {
        let kend = (kb0 + kbt).min(knt);
        let start = if kb0 == 0 { 1 } else { kb0 };
        for ck in start..kend {
            let b = &bpack[ck];
            for r in 0..RN {
                acc[r].acc_fma_exact(rows[r][ck], b);
            }
        }
        kb0 = kend;
    }
    for r in 0..RN {
        let base = p0 + r * row_stride;
        out[base..base + ln].copy_from_slice(&acc[r].0[..ln]);
    }
}

/// One 8-lane product step: `acc[l] (=|+=) x0[o0 + l*s0] * x1[o1 + l*s1]`
/// in f64, with broadcast specialisation when a factor is lane-invariant.
#[inline]
#[allow(clippy::too_many_arguments)]
fn lane_step<const SET: bool>(
    acc: &mut Line,
    ln: usize,
    x0: &[f32],
    x1: &[f32],
    o0: i64,
    o1: i64,
    s0: i64,
    s1: i64,
) {
    if ln == LANES {
        lane_step_n::<SET, LANES>(acc, x0, x1, o0, o1, s0, s1);
    } else {
        for l in 0..ln {
            let v = (x0[(o0 + l as i64 * s0) as usize] as f64)
                * (x1[(o1 + l as i64 * s1) as usize] as f64);
            if SET {
                acc.0[l] = v;
            } else {
                acc.0[l] += v;
            }
        }
    }
}

#[inline]
fn lane_step_n<const SET: bool, const LN: usize>(
    acc: &mut Line,
    x0: &[f32],
    x1: &[f32],
    o0: i64,
    o1: i64,
    s0: i64,
    s1: i64,
) {
    if s0 == 0 {
        let a = x0[o0 as usize] as f64;
        for l in 0..LN {
            let v = a * (x1[(o1 + l as i64 * s1) as usize] as f64);
            if SET {
                acc.0[l] = v;
            } else {
                acc.0[l] += v;
            }
        }
    } else if s1 == 0 {
        let b = x1[o1 as usize] as f64;
        for l in 0..LN {
            let v = (x0[(o0 + l as i64 * s0) as usize] as f64) * b;
            if SET {
                acc.0[l] = v;
            } else {
                acc.0[l] += v;
            }
        }
    } else {
        for l in 0..LN {
            let v = (x0[(o0 + l as i64 * s0) as usize] as f64)
                * (x1[(o1 + l as i64 * s1) as usize] as f64);
            if SET {
                acc.0[l] = v;
            } else {
                acc.0[l] += v;
            }
        }
    }
}

/// Fold `blocks` aligned 8x8 tiles of a row-major strided factor into the
/// lane accumulator. `xs` is the strided factor: lane `l`'s chain reads
/// `xs[os + l*sl + k]` with the reduction contiguous (`k` stride 1);
/// `xv` is lane-invariant with reduction stride `sv`. Per tile the eight
/// rows are loaded as eight contiguous f32 octets, transposed in f32
/// (pure data movement), widened exactly to f64, and folded column by
/// column — `k` still strictly ascends per lane, so the fold order is the
/// VM's. Both operands are exact f32 widenings, which licenses the fused
/// accumulate (see [`Line::acc_fma_exact`]). Returns the number of
/// reduction steps consumed (`blocks * LANES`).
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[allow(clippy::too_many_arguments)]
fn lane_blocks_rowmajor(
    acc: &mut Line,
    first: &mut bool,
    xs: &[f32],
    os: i64,
    sl: i64,
    xv: &[f32],
    ov: i64,
    sv: i64,
    blocks: usize,
) -> usize {
    use core::arch::x86_64::*;
    unsafe {
        let mut av = _mm512_load_pd(acc.0.as_ptr());
        let mut os = os;
        let mut ov = ov;
        for _ in 0..blocks {
            let rows: [__m256; 8] = core::array::from_fn(|l| {
                let base = (os + l as i64 * sl) as usize;
                _mm256_loadu_ps(xs[base..base + 8].as_ptr())
            });
            // 8x8 f32 transpose: cols[u][l] == rows[l][u]
            let t0 = _mm256_unpacklo_ps(rows[0], rows[1]);
            let t1 = _mm256_unpackhi_ps(rows[0], rows[1]);
            let t2 = _mm256_unpacklo_ps(rows[2], rows[3]);
            let t3 = _mm256_unpackhi_ps(rows[2], rows[3]);
            let t4 = _mm256_unpacklo_ps(rows[4], rows[5]);
            let t5 = _mm256_unpackhi_ps(rows[4], rows[5]);
            let t6 = _mm256_unpacklo_ps(rows[6], rows[7]);
            let t7 = _mm256_unpackhi_ps(rows[6], rows[7]);
            let s0 = _mm256_shuffle_ps(t0, t2, 0x44);
            let s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
            let s2 = _mm256_shuffle_ps(t1, t3, 0x44);
            let s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
            let s4 = _mm256_shuffle_ps(t4, t6, 0x44);
            let s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
            let s6 = _mm256_shuffle_ps(t5, t7, 0x44);
            let s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
            let cols = [
                _mm256_permute2f128_ps(s0, s4, 0x20),
                _mm256_permute2f128_ps(s1, s5, 0x20),
                _mm256_permute2f128_ps(s2, s6, 0x20),
                _mm256_permute2f128_ps(s3, s7, 0x20),
                _mm256_permute2f128_ps(s0, s4, 0x31),
                _mm256_permute2f128_ps(s1, s5, 0x31),
                _mm256_permute2f128_ps(s2, s6, 0x31),
                _mm256_permute2f128_ps(s3, s7, 0x31),
            ];
            for (u, &col) in cols.iter().enumerate() {
                let wide = _mm512_cvtps_pd(col);
                let w = _mm512_set1_pd(xv[(ov + u as i64 * sv) as usize] as f64);
                if *first {
                    // the VM's copy-init: the accumulator becomes the
                    // first product, it is not seeded with 0 + x
                    av = _mm512_mul_pd(wide, w);
                    *first = false;
                } else {
                    av = _mm512_fmadd_pd(wide, w, av);
                }
            }
            os += LANES as i64;
            ov += LANES as i64 * sv;
        }
        _mm512_store_pd(acc.0.as_mut_ptr(), av);
    }
    blocks * LANES
}

/// Without AVX-512 the blocked path is declined (`0` steps consumed) and
/// the caller's scalar loop folds the whole run — same bits, fewer
/// instructions per cycle.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[allow(clippy::too_many_arguments)]
fn lane_blocks_rowmajor(
    _acc: &mut Line,
    _first: &mut bool,
    _xs: &[f32],
    _os: i64,
    _sl: i64,
    _xv: &[f32],
    _ov: i64,
    _sv: i64,
    _blocks: usize,
) -> usize {
    0
}

/// Walk the collapsed sub-space of `range` in the VM's ascending odometer
/// order (last collapsed dim fastest), calling `f(idx, run_len)` once per
/// innermost contiguous run with `idx` positioned at the run start.
/// Preserved entries of `idx` are left untouched.
pub(crate) fn walk_runs(
    idx: &mut [usize],
    collapsed: &[usize],
    range: &MdRange,
    f: &mut impl FnMut(&[usize], usize),
) {
    if collapsed.is_empty() {
        f(idx, 1);
        return;
    }
    for &d in collapsed {
        idx[d] = range.lo[d];
    }
    let inner_d = *collapsed.last().unwrap();
    let inner_n = range.extent(inner_d);
    if inner_n == 0 {
        return;
    }
    let outer = &collapsed[..collapsed.len() - 1];
    loop {
        f(idx, inner_n);
        let mut k = outer.len();
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            let d = outer[k];
            idx[d] += 1;
            if idx[d] < range.hi[d] {
                break;
            }
            idx[d] = range.lo[d];
        }
    }
}
