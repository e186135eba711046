//! Cache-blocked two-factor contraction kernel, bit-identical to the VM,
//! one kernel for f32 and f64 elements (generic over [`Elem`]).
//!
//! The VM folds each task's reduction strictly sequentially per output
//! point: ascending odometer over the collapsed dims (last fastest), all
//! arithmetic in f64, the accumulator copy-initialised from the first
//! element, every later element added as a separately rounded multiply
//! then add, one rounding to the element type at the final store (none
//! for f64). This kernel keeps exactly that chain per output point and
//! gets its speed from everything the chain does *not* pin down:
//!
//! - **Dim grouping.** A preserved dim on which only one factor's
//!   linearised coefficient is nonzero moves that factor alone: such dims
//!   form the row extent M (factor `a` moves) and the lane extent N
//!   (factor `b` moves), however many there are; dims on which both move
//!   are the batch loop. Accesses are affine, so a factor's offset is
//!   `base(batch) + off(m) + off(k)` through two precomputed tables, and
//!   MatMul, bMatMul, CCSD(T) and MCC are all the same M × N × K loop nest.
//! - **Blocking.** The nest is GotoBLAS's: per [`NC`] lanes, per [`KC`]
//!   reduction steps *ascending*, a B panel is packed once; per [`MC`]
//!   rows an A block is packed; an [`MR`] × [`NR`] register tile streams
//!   both. Between K blocks the accumulators are stored to and reloaded
//!   from the task's f64 partial — exact — so each point still folds k
//!   strictly ascending, copy-initialised at the task's very first k only.
//! - **Lanes are points.** The lanes of a [`Line`] are adjacent output
//!   points, never a split of one reduction; edge tiles run on zero-padded
//!   panels and store only their live rows and lanes.
//! - **FMA, for f32 only.** f32 panels hold exact `f32 as f64` widenings,
//!   so every product carries at most 48 significand bits, the inner
//!   rounding is the identity, and fused vs two-rounding accumulates
//!   coincide bit for bit (see [`Line::acc_fma_exact`]). An f64 product
//!   rounds, so f64 accumulates with [`Line::acc_mul`]: never fused.
//!
//! With only one of M and N present the direct lane walker runs, its loop
//! order picked from the strides: forward MatVec (matrix contiguous along
//! the reduction) folds eight lanes' whole chains at a time, MatVec^T
//! (matrix contiguous along the lanes) folds one row segment per
//! collapsed point into a [`ROW_LANES`] block of accumulators. With
//! neither (Dot) one sequential chain runs. All of them fold identical
//! chains, so result bits match `vm_exec` for every pool width.
//!
//! A product with no collapsed dim at all (AD's `adj_M`, Dot's adjoints)
//! has no chain to fold: each point is one product, and classify() proved
//! the output access injective, so [`FastContraction::task_direct`]
//! stores it straight into the output through the map kernel's
//! [`SyncSlice`] — no partial, no packing, no write phase, and no zero
//! fill of an output it provably covers ([`direct_outputs`]).

use crate::fast::line::{Line, LANES};
use crate::fast::map::SyncSlice;
use crate::fast::{direct_outputs, linearize_for, typed_inputs, Elem};
use crate::offsets::{advance, check_span, offset_table, LinearAccess};
use crate::partial::{finish, ColBank, Join, Partial};
use crate::vm_exec::Combiner;
use mdh_core::buffer::Buffer;
use mdh_core::combine::BuiltinReduce;
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::eval;
use mdh_core::shape::MdRange;
use mdh_core::types::ScalarKind;
use mdh_lowering::plan::ExecutionPlan;
use rayon::prelude::*;

/// Register tile: `MR` rows by `NR` lanes — sixteen accumulator registers
/// on AVX-512, ten loads (two B lines, eight A broadcasts) per sixteen
/// FMAs.
pub(crate) const MR: usize = 8;
pub(crate) const NR: usize = 2 * LANES;
/// Block sizes, picked by the KC / MC / NC sweep in EXPERIMENTS.md. `KC`
/// reduction steps per packed panel: a `KC x NR` B micro-panel (32 KiB)
/// stays in L1 while the A block streams past it, and the partial is
/// stored and reloaded once per `KC` steps.
pub(crate) const KC: usize = 256;
/// Rows per packed A block (`MC x KC` f64 = 128 KiB, L2-resident; the
/// block's partial rows, one page apart at paper sizes, fit the L1 dTLB).
pub(crate) const MC: usize = 64;
/// Lanes per packed B panel (`KC x NC` f64 = 2 MiB).
pub(crate) const NC: usize = 1024;
/// Lanes per accumulator row of the MatVec^T walk: 4 KiB of f64, which
/// stays in L1 while one row segment of the matrix per reduction step
/// folds into it.
pub(crate) const ROW_LANES: usize = 512;

thread_local! {
    /// This thread's packed A block and B panel, kept from task to task
    /// (at most `MC·KC + KC·NC` f64 = 2.1 MiB). Allocated and freed per
    /// task, a 2 MiB panel beside the 4 MiB partials fragments the
    /// allocator's arenas: ≈ 35 MiB of resident memory nothing was using.
    static PANELS: std::cell::Cell<(Vec<f64>, Vec<[Line; 2]>)> =
        const { std::cell::Cell::new((Vec::new(), Vec::new())) };
}

/// How a task's loops are arranged; chosen once per run from the access
/// coefficients. All three arrangements fold identical chains.
#[derive(Clone, Copy)]
enum TaskPath {
    /// Blocked M x N x K nest over packed panels; `a` is the factor the
    /// row dims move, `b` the one the lane dims move.
    Blocked { a: usize, b: usize },
    /// Direct 8-lane accumulation along the last preserved dim (MatVec).
    Unpacked,
    /// Pure reduction with no preserved dims (Dot): one sequential chain.
    Scalar,
}

/// The preserved dims by role. A task's f64 partial — the VM's
/// accumulator precision, rounded to the element type once, in the write
/// phase, exactly where the VM rounds — is laid out `[batch][m][n]`, each
/// group in odometer order.
struct Arrangement {
    path: TaskPath,
    batch: Vec<usize>,
    m: Vec<usize>,
    n: Vec<usize>,
}

/// A compiled two-factor contraction `out[..] = Σ x_f0 * x_f1`.
#[derive(Debug, Clone)]
pub struct FastContraction {
    /// The element type of the output and of every input: f32 or f64.
    pub(crate) elem: ScalarKind,
    pub(crate) f0: usize,
    pub(crate) f1: usize,
    pub(crate) preserved: Vec<usize>,
    pub(crate) collapsed: Vec<usize>,
}

impl FastContraction {
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
            k => Err(MdhError::Type(format!("no contraction kernel for {k}"))),
        }
    }

    fn run_typed<E: Elem>(
        &self,
        prog: &DslProgram,
        plan: &ExecutionPlan,
        inputs: &[Buffer],
        pool: &rayon::ThreadPool,
    ) -> Result<Vec<Buffer>> {
        let mut outputs = match self.collapsed.is_empty() {
            true => direct_outputs(prog)?,
            false => eval::alloc_outputs(prog)?,
        };
        let (in_acc, out_acc) = linearize_for(prog, inputs, &outputs)?;
        let oacc = &out_acc[0];
        // classify() proved the output index exprs ignore collapsed dims,
        // and linearising only sums those zero coefficients times strides
        if self.collapsed.iter().any(|&d| oacc.coeffs[d] != 0) {
            return Err(MdhError::Eval(
                "fast contraction output depends on a collapsed dim".into(),
            ));
        }
        let ins = typed_inputs::<E>(prog, inputs)?;
        if self.collapsed.is_empty() {
            // one product per point, and classify() proved the output
            // access injective: tasks store straight into the output
            let out = E::slice_mut(&mut outputs[oacc.buffer]).ok_or_else(|| {
                MdhError::Type(format!("fast contraction output must be {}", E::KIND))
            })?;
            let shared = SyncSlice::new(out);
            let mut done: Vec<Result<()>> = Vec::new();
            pool.install(|| {
                plan.tasks
                    .par_iter()
                    .map(|t| self.task_direct(&ins, &in_acc, oacc, &t.range, &shared))
                    .collect_into_vec(&mut done);
            });
            done.into_iter().collect::<Result<()>>()?;
            return Ok(outputs);
        }
        let arr = self.arrange(&in_acc);
        // a partial is laid out `[batch][m][n]`; the whole n group is a row
        let order: Vec<usize> = [&arr.batch[..], &arr.m, &arr.n].concat();
        let (outer, row) = order.split_at(order.len() - arr.n.len());

        let mut partials: Vec<Result<Partial>> = Vec::new();
        pool.install(|| {
            plan.tasks
                .par_iter()
                .map(|t| {
                    let partial = self.run_task(&ins, &in_acc, &t.range, &arr)?;
                    let extents = order.iter().map(|&d| t.range.extent(d)).collect();
                    let cols = vec![ColBank::F(partial)];
                    Ok(Partial { extents, cols })
                })
                .collect_into_vec(&mut partials);
        });
        let partials = partials.into_iter().collect::<Result<Vec<_>>>()?;

        // split-reduction groups fold in the VM's order, in f64
        let add = Combiner::Builtin(BuiltinReduce::Add);
        let join = Join::Fold(Some(&add));
        finish(plan, partials, join, (outer, row), &out_acc, &mut outputs)?;
        Ok(outputs)
    }

    /// Reduction-free task: each point is the one product
    /// `narrow(widen(x0) * widen(x1))`, the VM's whole chain for it,
    /// stored where it belongs. Rows run along the last dim. The row every
    /// adjoint AD emits — the cotangent first and invariant along it, the
    /// other factor and the output unit-stride — is one slice loop; any
    /// other row computes each point's offsets.
    fn task_direct<E: Elem>(
        &self,
        ins: &[&[E]],
        in_acc: &[LinearAccess],
        oacc: &LinearAccess,
        range: &MdRange,
        out: &SyncSlice<E>,
    ) -> Result<()> {
        if range.is_empty() {
            return Ok(());
        }
        for f in [self.f0, self.f1] {
            check_span("contraction input", &in_acc[f], range, ins[f].len())?;
        }
        check_span("contraction output", oacc, range, out.len)?;
        // a program with no dims is one row of one point
        let last = range.rank().checked_sub(1);
        let n = last.map_or(1, |d| range.extent(d));
        let outer: Vec<usize> = (0..last.unwrap_or(0)).collect();
        let step = |a: &LinearAccess| last.map_or(0, |d| a.coeffs[d]);
        let (a0, a1) = (&in_acc[self.f0], &in_acc[self.f1]);
        let (x0, x1) = (ins[self.f0], ins[self.f1]);
        let (s0, s1, so) = (step(a0), step(a1), step(oacc));
        let mut idx = range.lo.clone();
        loop {
            let (o0, o1, oo) = (a0.offset(&idx), a1.offset(&idx), oacc.offset(&idx));
            let point = |l: usize| {
                let l = l as i64;
                E::narrow(x0[(o0 + l * s0) as usize].widen() * x1[(o1 + l * s1) as usize].widen())
            };
            // SAFETY (of both spans below): `check_span` bounded every
            // output offset of the task to the buffer, and a span holds
            // only this row's points. classify() proved the output access
            // injective over the full iteration space and plan tasks cover
            // disjoint index ranges, so no other live span contains one of
            // these elements.
            if so == 1 {
                let row = unsafe { out.row_mut(oo as usize, n) };
                if (s0, s1) == (0, 1) {
                    let a = x0[o0 as usize].widen();
                    for (y, b) in row.iter_mut().zip(&x1[o1 as usize..][..n]) {
                        *y = E::narrow(a * b.widen());
                    }
                } else {
                    row.iter_mut().enumerate().for_each(|(l, y)| *y = point(l));
                }
            } else {
                for l in 0..n {
                    let at = oo + l as i64 * so;
                    let y = unsafe { out.row_mut(at as usize, 1) };
                    y[0] = point(l);
                }
            }
            if !advance(&mut idx, &outer, range) {
                return Ok(());
            }
        }
    }

    /// Group the preserved dims by which factor moves on them. The lane
    /// factor `b` is the one the last preserved dim moves (so stores run
    /// along the output's fastest dim); a dim neither factor moves costs
    /// nothing as a lane dim. Without both a row and a lane group there is
    /// no panel reuse to block for, and the direct walker runs instead.
    fn arrange(&self, in_acc: &[LinearAccess]) -> Arrangement {
        let (mut batch, mut m, mut n) = (Vec::new(), Vec::new(), Vec::new());
        let Some((&last, outer)) = self.preserved.split_last() else {
            let path = TaskPath::Scalar;
            return Arrangement { path, batch, m, n };
        };
        let (a, b) = if in_acc[self.f0].coeffs[last] == 0 {
            (self.f0, self.f1)
        } else {
            (self.f1, self.f0)
        };
        for &d in &self.preserved {
            match (in_acc[a].coeffs[d] != 0, in_acc[b].coeffs[d] != 0) {
                (true, true) => batch.push(d),
                (true, false) => m.push(d),
                (false, _) => n.push(d),
            }
        }
        if m.is_empty() || n.is_empty() {
            let path = TaskPath::Unpacked;
            (batch, m, n) = (outer.to_vec(), Vec::new(), vec![last]);
            return Arrangement { path, batch, m, n };
        }
        let path = TaskPath::Blocked { a, b };
        Arrangement { path, batch, m, n }
    }

    fn run_task<E: Elem>(
        &self,
        ins: &[&[E]],
        in_acc: &[LinearAccess],
        range: &MdRange,
        arr: &Arrangement,
    ) -> Result<Vec<f64>> {
        let points: usize = self.preserved.iter().map(|&d| range.extent(d)).product();
        let mut partial = vec![0.0; points];
        if range.is_empty() {
            return Ok(partial);
        }
        // every offset a factor takes over the task lies between the
        // extrema checked here, so no load below can leave its buffer
        for f in [self.f0, self.f1] {
            check_span("contraction input", &in_acc[f], range, ins[f].len())?;
        }
        match arr.path {
            TaskPath::Scalar => self.task_scalar(ins, in_acc, range, &mut partial),
            TaskPath::Unpacked => self.task_unpacked(ins, in_acc, range, &mut partial),
            TaskPath::Blocked { a, b } => {
                let (a, b) = ((&in_acc[a], ins[a]), (&in_acc[b], ins[b]));
                self.task_blocked(a, b, range, arr, &mut partial)
            }
        }
        Ok(partial)
    }

    /// Dot-style task: no preserved dims, one strictly sequential f64
    /// chain over the collapsed odometer — literally the VM's loop.
    fn task_scalar<E: Elem>(
        &self,
        ins: &[&[E]],
        in_acc: &[LinearAccess],
        range: &MdRange,
        partial: &mut [f64],
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
            // the chain runs in a local, not through the captured `acc`,
            // so each add stays in a register; it is written back once
            // per run
            let mut sum = acc;
            if first {
                sum = x0[o0 as usize].widen() * x1[o1 as usize].widen();
                o0 += sk0;
                o1 += sk1;
                rem -= 1;
                first = false;
            }
            for _ in 0..rem {
                sum += x0[o0 as usize].widen() * x1[o1 as usize].widen();
                o0 += sk0;
                o1 += sk1;
            }
            acc = sum;
        });
        partial[0] = acc;
    }

    /// Direct lane task: lanes are adjacent points of the last preserved
    /// dim, each lane folding its own chain in VM order. The walk follows
    /// the matrix. Forward MatVec's is strided along the lanes and
    /// contiguous along the reduction, so eight lanes at a time fold their
    /// whole chains, through the 8x8 transpose where it applies. MatVec^T's
    /// is contiguous along the lanes and strided along the reduction, so
    /// [`fold_rows`] folds it a row segment per collapsed point.
    fn task_unpacked<E: Elem>(
        &self,
        ins: &[&[E]],
        in_acc: &[LinearAccess],
        range: &MdRange,
        partial: &mut [f64],
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
        // MatVec^T: one factor unit-stride along the lanes and strided
        // along the reduction, the other lane-invariant
        let rows = match (s0l, s1l) {
            (1, 0) if sk0 != 1 => Some(((a0, x0), (a1, x1))),
            (0, 1) if sk1 != 1 => Some(((a1, x1), (a0, x0))),
            _ => None,
        };
        let mut idx = range.lo.clone();
        for row in partial.chunks_exact_mut(lane_ext) {
            if let Some((streamed, invariant)) = rows {
                self.fold_rows(&mut idx, range, lane_d, row, streamed, invariant);
                advance(&mut idx, outer_pres, range);
                continue;
            }
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
                    // MatVec shape over f32 — one factor row-major
                    // (contiguous in the reduction, strided across lanes),
                    // the other lane-invariant: fold whole 8x8 blocks
                    // through the convert-transpose kernel, leftovers
                    // scalar below
                    let whole = ln == LANES && rem >= LANES;
                    if let (Some(y0), Some(y1), true) = (E::as_f32(x0), E::as_f32(x1), whole) {
                        let blocks = rem / LANES;
                        let consumed = if s1l == 0 && sk0 == 1 && s0l != 0 {
                            lane_blocks_rowmajor(
                                &mut acc, &mut first, y0, o0, s0l, y1, o1, sk1, blocks,
                            )
                        } else if s0l == 0 && sk1 == 1 && s1l != 0 {
                            lane_blocks_rowmajor(
                                &mut acc, &mut first, y1, o1, s1l, y0, o0, sk0, blocks,
                            )
                        } else {
                            0
                        };
                        o0 += consumed as i64 * sk0;
                        o1 += consumed as i64 * sk1;
                        rem -= consumed;
                    }
                    if rem > 0 && first {
                        lane_step::<E, true>(&mut acc, ln, x0, x1, o0, o1, s0l, s1l);
                        o0 += sk0;
                        o1 += sk1;
                        rem -= 1;
                        first = false;
                    }
                    for _ in 0..rem {
                        lane_step::<E, false>(&mut acc, ln, x0, x1, o0, o1, s0l, s1l);
                        o0 += sk0;
                        o1 += sk1;
                    }
                });
                row[jp..jp + ln].copy_from_slice(&acc.0[..ln]);
                jp += ln;
            }
            advance(&mut idx, outer_pres, range);
        }
    }

    /// The MatVec^T walk over one output row: per [`ROW_LANES`] lanes, per
    /// collapsed point ascending, the `streamed` factor's contiguous
    /// segment times the `invariant` factor's one value folds into the
    /// block of `row` — the task's partial, in L1 while the block runs.
    /// Each lane's chain is still its collapsed points in ascending order,
    /// copy-initialised from the first product, every later product
    /// rounded before the add (f64 is never fused; an f32 product is
    /// exact, so there is nothing to fuse). The product is taken streamed
    /// times invariant, whichever the program's first factor is: finite
    /// f64 multiplication is bitwise commutative.
    fn fold_rows<E: Elem>(
        &self,
        idx: &mut [usize],
        range: &MdRange,
        lane_d: usize,
        row: &mut [f64],
        (as_, xs): (&LinearAccess, &[E]),
        (av, xv): (&LinearAccess, &[E]),
    ) {
        let inner = self.collapsed[self.collapsed.len() - 1];
        let (sks, skv) = (as_.coeffs[inner], av.coeffs[inner]);
        for (b, acc) in row.chunks_mut(ROW_LANES).enumerate() {
            idx[lane_d] = range.lo[lane_d] + b * ROW_LANES;
            let mut first = true;
            walk_runs(idx, &self.collapsed, range, &mut |ir, nr| {
                let (mut os, mut ov) = (as_.offset(ir), av.offset(ir));
                for _ in 0..nr {
                    let v = xv[ov as usize].widen();
                    let seg = &xs[os as usize..][..acc.len()];
                    if first {
                        for (a, x) in acc.iter_mut().zip(seg) {
                            *a = x.widen() * v;
                        }
                        first = false;
                    } else {
                        for (a, x) in acc.iter_mut().zip(seg) {
                            *a += x.widen() * v;
                        }
                    }
                    os += sks;
                    ov += skv;
                }
            });
        }
    }

    /// Blocked task. Per batch point: for each [`NC`] lanes, for each
    /// [`KC`] reduction steps ascending, pack the B panel once; for each
    /// [`MC`] rows pack the A block; then every `MR x NR` tile of the block
    /// folds the `kc` steps into its accumulators, which live in `partial`
    /// between K blocks.
    fn task_blocked<E: Elem>(
        &self,
        (aa, xa): (&LinearAccess, &[E]),
        (ab, xb): (&LinearAccess, &[E]),
        range: &MdRange,
        arr: &Arrangement,
        partial: &mut [f64],
    ) {
        let am = offset_table(aa, &arr.m, range);
        let ak = offset_table(aa, &self.collapsed, range);
        let bn = offset_table(ab, &arr.n, range);
        let bk = offset_table(ab, &self.collapsed, range);
        let (m_ext, n_ext, k_ext) = (am.len(), bn.len(), ak.len());
        let kc_max = k_ext.min(KC);
        let mut panels = PANELS.take();
        let (apanel, bpanel) = (&mut panels.0, &mut panels.1);
        apanel.resize(m_ext.min(MC).next_multiple_of(MR) * kc_max, 0.0);
        bpanel.resize(n_ext.min(NC).div_ceil(NR) * kc_max, [Line::zero(); 2]);
        let mut idx = range.lo.clone();
        for tile in partial.chunks_exact_mut(m_ext * n_ext) {
            let (base_a, base_b) = (aa.offset(&idx), ab.offset(&idx));
            for jc in (0..n_ext).step_by(NC) {
                let nc = (n_ext - jc).min(NC);
                for pc in (0..k_ext).step_by(KC) {
                    let kc = (k_ext - pc).min(KC);
                    pack_b(bpanel, xb, base_b, &bn[jc..jc + nc], &bk[pc..pc + kc]);
                    for ic in (0..m_ext).step_by(MC) {
                        let mc = (m_ext - ic).min(MC);
                        pack_a(apanel, xa, base_a, &am[ic..ic + mc], &ak[pc..pc + kc]);
                        for jr in (0..nc).step_by(NR) {
                            let bp = &bpanel[jr / NR * kc..][..kc];
                            for ir in (0..mc).step_by(MR) {
                                let ap = &apanel[ir * kc..][..MR * kc];
                                let rows = &mut tile[(ic + ir) * n_ext + jc + jr..];
                                let live = ((mc - ir).min(MR), (nc - jr).min(NR));
                                micro_tile::<E>(pc == 0, ap, bp, rows, n_ext, live);
                            }
                        }
                    }
                }
            }
            advance(&mut idx, &arr.batch, range);
        }
        PANELS.set(panels);
    }

    /// Innermost collapsed-dim strides for both factors.
    fn inner_steps(&self, in_acc: &[LinearAccess]) -> (i64, i64) {
        match self.collapsed.last() {
            Some(&d) => (in_acc[self.f0].coeffs[d], in_acc[self.f1].coeffs[d]),
            None => (0, 0),
        }
    }
}

/// Pack an A block: per [`MR`] rows one micro-panel, `MR` row values
/// contiguous per reduction step, rows past the block's end zero. Packing
/// widens exactly (or copies f64) and moves values, nothing else.
fn pack_a<E: Elem>(panel: &mut [f64], x: &[E], base: i64, m_off: &[i64], k_off: &[i64]) {
    let kc = k_off.len();
    for (rows, dst) in m_off.chunks(MR).zip(panel.chunks_exact_mut(MR * kc)) {
        for (step, &ko) in dst.chunks_exact_mut(MR).zip(k_off) {
            for (v, &mo) in step.iter_mut().zip(rows) {
                *v = x[(base + mo + ko) as usize].widen();
            }
            step[rows.len()..].fill(0.0);
        }
    }
}

/// Pack a B panel: per [`NR`] lanes one micro-panel, two [`Line`]s per
/// reduction step, lanes past the panel's end zero. Lanes that sit next
/// to each other in the buffer (row-major B) are widened as one slice.
fn pack_b<E: Elem>(panel: &mut [[Line; 2]], x: &[E], base: i64, n_off: &[i64], k_off: &[i64]) {
    let kc = k_off.len();
    for (lanes, dst) in n_off.chunks(NR).zip(panel.chunks_exact_mut(kc)) {
        let unit = lanes.len() == NR && lanes.windows(2).all(|w| w[1] == w[0] + 1);
        for (step, &ko) in dst.iter_mut().zip(k_off) {
            let mut v = [0f64; NR];
            if unit {
                let src = &x[(base + ko + lanes[0]) as usize..][..NR];
                v.iter_mut().zip(src).for_each(|(v, &s)| *v = s.widen());
            } else {
                for (v, &no) in v.iter_mut().zip(lanes) {
                    *v = x[(base + ko + no) as usize].widen();
                }
            }
            let (lo, hi) = v.split_at(LANES);
            step[0].0.copy_from_slice(lo);
            step[1].0.copy_from_slice(hi);
        }
    }
}

/// Run [`micro_kernel`] on the tile whose first element is `rows[0]`,
/// row stride `ld`. A tile with fewer than `MR x NR` `live` rows and lanes
/// goes through a stack copy, so only those are loaded and stored — what
/// the panels' zero padding computes is dropped here.
fn micro_tile<E: Elem>(
    first: bool,
    ap: &[f64],
    bp: &[[Line; 2]],
    rows: &mut [f64],
    ld: usize,
    (mr, nr): (usize, usize),
) {
    if (mr, nr) == (MR, NR) {
        return micro_kernel::<E>(first, ap, bp, rows, ld);
    }
    let mut edge = [0f64; MR * NR];
    if !first {
        for (r, row) in edge.chunks_exact_mut(NR).enumerate().take(mr) {
            row[..nr].copy_from_slice(&rows[r * ld..][..nr]);
        }
    }
    micro_kernel::<E>(first, ap, bp, &mut edge, NR);
    for (r, row) in edge.chunks_exact(NR).enumerate().take(mr) {
        rows[r * ld..][..nr].copy_from_slice(&row[..nr]);
    }
}

/// One `MR x NR` register tile over one K block: `ap[k][r] * bp[k]`
/// accumulates into sixteen [`Line`]s — per lane a strictly sequential f64
/// chain over `k`. On the task's `first` K block the chain is
/// copy-initialised from its first product (the VM's rule); on later
/// blocks the accumulators are reloaded from `tile`, where the previous
/// block stored them — an exact f64 round trip, so blocking K changes
/// memory traffic and not one bit. Finite f64 multiplication is bitwise
/// commutative, so `a * b` matches the VM even when `a` is the program's
/// second factor. [`Elem::accumulate`] is the one step that depends on
/// the element type: f32 panels hold exact widenings, which licenses
/// [`Line::acc_fma_exact`]; f64 products round, so f64 takes
/// [`Line::acc_mul`], whose AVX-512 arm keeps the tile in registers.
fn micro_kernel<E: Elem>(first: bool, ap: &[f64], bp: &[[Line; 2]], tile: &mut [f64], ld: usize) {
    let mut acc = [[Line::zero(); 2]; MR];
    if !first {
        for (r, acc) in acc.iter_mut().enumerate() {
            let row = &tile[r * ld..][..NR];
            acc[0].0.copy_from_slice(&row[..LANES]);
            acc[1].0.copy_from_slice(&row[LANES..]);
        }
    }
    let mut steps = ap.chunks_exact(MR).zip(bp);
    if first {
        if let Some((a, b)) = steps.next() {
            for r in 0..MR {
                acc[r][0].set_mul(a[r], &b[0]);
                acc[r][1].set_mul(a[r], &b[1]);
            }
        }
    }
    for (a, b) in steps {
        for r in 0..MR {
            E::accumulate(&mut acc[r][0], a[r], &b[0]);
            E::accumulate(&mut acc[r][1], a[r], &b[1]);
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        let row = &mut tile[r * ld..][..NR];
        row[..LANES].copy_from_slice(&acc[0].0);
        row[LANES..].copy_from_slice(&acc[1].0);
    }
}

/// One 8-lane product step: `acc[l] (=|+=) x0[o0 + l*s0] * x1[o1 + l*s1]`
/// in f64, with broadcast specialisation when a factor is lane-invariant.
#[inline]
#[allow(clippy::too_many_arguments)]
fn lane_step<E: Elem, const SET: bool>(
    acc: &mut Line,
    ln: usize,
    x0: &[E],
    x1: &[E],
    o0: i64,
    o1: i64,
    s0: i64,
    s1: i64,
) {
    if ln == LANES {
        lane_step_n::<E, SET, LANES>(acc, x0, x1, o0, o1, s0, s1);
    } else {
        for l in 0..ln {
            let v = x0[(o0 + l as i64 * s0) as usize].widen()
                * x1[(o1 + l as i64 * s1) as usize].widen();
            if SET {
                acc.0[l] = v;
            } else {
                acc.0[l] += v;
            }
        }
    }
}

#[inline]
fn lane_step_n<E: Elem, const SET: bool, const LN: usize>(
    acc: &mut Line,
    x0: &[E],
    x1: &[E],
    o0: i64,
    o1: i64,
    s0: i64,
    s1: i64,
) {
    if s0 == 0 {
        let a = x0[o0 as usize].widen();
        for l in 0..LN {
            let v = a * x1[(o1 + l as i64 * s1) as usize].widen();
            if SET {
                acc.0[l] = v;
            } else {
                acc.0[l] += v;
            }
        }
    } else if s1 == 0 {
        let b = x1[o1 as usize].widen();
        for l in 0..LN {
            let v = x0[(o0 + l as i64 * s0) as usize].widen() * b;
            if SET {
                acc.0[l] = v;
            } else {
                acc.0[l] += v;
            }
        }
    } else {
        for l in 0..LN {
            let v = x0[(o0 + l as i64 * s0) as usize].widen()
                * x1[(o1 + l as i64 * s1) as usize].widen();
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
/// Preserved entries of `idx` are left untouched. `collapsed` is never
/// empty: a reduction-free product is [`FastContraction::task_direct`]'s.
fn walk_runs(
    idx: &mut [usize],
    collapsed: &[usize],
    range: &MdRange,
    f: &mut impl FnMut(&[usize], usize),
) {
    let Some((&inner_d, outer)) = collapsed.split_last() else {
        return;
    };
    for &d in collapsed {
        idx[d] = range.lo[d];
    }
    let inner_n = range.extent(inner_d);
    if inner_n == 0 {
        return;
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuExecutor, ExecPath};
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::DslBuilder;
    use mdh_core::expr::ScalarFunction;
    use mdh_core::index_fn::{AffineExpr, IndexFn};
    use mdh_core::shape::Shape;
    use mdh_core::types::{BasicType, ScalarKind};
    use mdh_lowering::schedule::{ReductionStrategy, Schedule};
    use mdh_lowering::DeviceKind;

    /// One affine index expression: `Σ coeff · i_dim + constant`.
    fn e(rank: usize, terms: &[(usize, i64)], constant: i64) -> AffineExpr {
        let mut coeffs = vec![0; rank];
        for &(d, c) in terms {
            coeffs[d] = c;
        }
        AffineExpr::new(coeffs, constant)
    }

    /// `out[..] = Σ_red a[..] * b[..]` over `sizes`, every access affine.
    struct Case {
        sizes: Vec<usize>,
        /// the element type of the output and both inputs
        elem: ScalarKind,
        red: Vec<usize>,
        out: Vec<AffineExpr>,
        a: Vec<AffineExpr>,
        b: Vec<AffineExpr>,
    }

    impl Case {
        fn prog(&self) -> DslProgram {
            let ops = (0..self.sizes.len())
                .map(|d| match self.red.contains(&d) {
                    true => CombineOp::pw_add(),
                    false => CombineOp::cc(),
                })
                .collect();
            DslBuilder::new("case", self.sizes.clone())
                .out_buffer("c", self.elem.into())
                .out_access("c", IndexFn::affine(self.out.clone()))
                .inp_buffer("a", self.elem.into())
                .inp_access("a", IndexFn::affine(self.a.clone()))
                .inp_buffer("b", self.elem.into())
                .inp_access("b", IndexFn::affine(self.b.clone()))
                .scalar_function(ScalarFunction::mul2("f_mul", self.elem))
                .combine_ops(ops)
                .build()
                .unwrap()
        }

        /// The smallest buffer an access reaches into, zero-filled.
        fn buffer(&self, name: &str, exprs: &[AffineExpr]) -> Buffer {
            let range = MdRange::full(&self.sizes);
            let dims = exprs.iter().map(|x| x.bounds_over(&range).1 as usize + 1);
            Buffer::zeros(name, self.elem.into(), Shape::new(dims.collect::<Vec<_>>()))
        }

        /// Inputs whose sums round: 0.1 * k is not a binary float. In f64
        /// their products round too.
        fn inputs(&self) -> Vec<Buffer> {
            let mut ins = vec![self.buffer("a", &self.a), self.buffer("b", &self.b)];
            for (salt, buf) in ins.iter_mut().enumerate() {
                buf.fill_with(move |i| ((i + 17 * salt) * 2654435761 % 1000) as f64 * 0.1 - 31.7);
            }
            ins
        }
    }

    /// The nine layouts of the sweep over `elem`, each with row extent `m`
    /// (times a small constant where a group has several dims), lane
    /// extent `n` and innermost reduction extent `k`.
    fn layouts(elem: ScalarKind, m: usize, n: usize, k: usize) -> Vec<(&'static str, Case)> {
        let (ki, ni) = (k as i64, n as i64);
        let mm = |a: Vec<AffineExpr>, b: Vec<AffineExpr>| Case {
            sizes: vec![m, n, k],
            elem,
            red: vec![2],
            out: vec![e(3, &[(0, 1)], 0), e(3, &[(1, 1)], 0)],
            a,
            b,
        };
        let (i, j, kk) = (e(3, &[(0, 1)], 0), e(3, &[(1, 1)], 0), e(3, &[(2, 1)], 0));
        vec![
            (
                "row-major",
                mm(vec![i.clone(), kk.clone()], vec![kk.clone(), j.clone()]),
            ),
            (
                "A transposed",
                mm(vec![kk.clone(), i.clone()], vec![kk.clone(), j.clone()]),
            ),
            (
                "B transposed",
                mm(vec![i.clone(), kk.clone()], vec![j.clone(), kk.clone()]),
            ),
            (
                "reversed strides",
                mm(
                    vec![i.clone(), e(3, &[(2, -1)], ki - 1)],
                    vec![kk.clone(), e(3, &[(1, -1)], ni - 1)],
                ),
            ),
            (
                "two collapsed dims",
                Case {
                    sizes: vec![m, n, 2, k],
                    elem,
                    red: vec![2, 3],
                    out: vec![e(4, &[(0, 1)], 0), e(4, &[(1, 1)], 0)],
                    a: vec![e(4, &[(0, 1)], 0), e(4, &[(2, 1)], 0), e(4, &[(3, 1)], 0)],
                    b: vec![e(4, &[(2, 1)], 0), e(4, &[(3, 1)], 0), e(4, &[(1, 1)], 0)],
                },
            ),
            (
                // dims (a0, d0, a1, d1, a2, d2, k): row and lane dims
                // interleaved, the output permuted again
                "3 + 3 CCSD(T) grouping, permuted",
                Case {
                    sizes: vec![2, 1, m, n, 1, 2, k],
                    elem,
                    red: vec![6],
                    out: [5, 2, 1, 0, 3, 4].map(|d| e(7, &[(d, 1)], 0)).to_vec(),
                    a: [0, 2, 4, 6].map(|d| e(7, &[(d, 1)], 0)).to_vec(),
                    b: [6, 1, 3, 5].map(|d| e(7, &[(d, 1)], 0)).to_vec(),
                },
            ),
            (
                "one batch dim",
                Case {
                    sizes: vec![2, m, n, k],
                    elem,
                    red: vec![3],
                    out: [0, 1, 2].map(|d| e(4, &[(d, 1)], 0)).to_vec(),
                    a: [0, 1, 3].map(|d| e(4, &[(d, 1)], 0)).to_vec(),
                    b: [0, 3, 2].map(|d| e(4, &[(d, 1)], 0)).to_vec(),
                },
            ),
            (
                // dims (i, j, l, k): `a` moves alone on j, so the partial
                // is `[j][i][l]`, the row group ahead of the lane dim i,
                // where the output is `[i][j][l]`
                "row group ahead of a lane dim",
                Case {
                    sizes: vec![2, m, n, k],
                    elem,
                    red: vec![3],
                    out: [0, 1, 2].map(|d| e(4, &[(d, 1)], 0)).to_vec(),
                    a: [1, 3].map(|d| e(4, &[(d, 1)], 0)).to_vec(),
                    b: [0, 2, 3].map(|d| e(4, &[(d, 1)], 0)).to_vec(),
                },
            ),
            (
                // dims (p, j, r, c): img[p + r, c] * filt[j, r, c]
                "MCC-style p + r",
                Case {
                    sizes: vec![m, n, 2, k],
                    elem,
                    red: vec![2, 3],
                    out: vec![e(4, &[(0, 1)], 0), e(4, &[(1, 1)], 0)],
                    a: vec![e(4, &[(0, 1), (2, 1)], 0), e(4, &[(3, 1)], 0)],
                    b: vec![e(4, &[(1, 1)], 0), e(4, &[(2, 1)], 0), e(4, &[(3, 1)], 0)],
                },
            ),
        ]
    }

    /// Row and lane extents on either side of one register tile and of
    /// one and two `Line`s.
    const EXTENTS: [usize; 8] = [
        1,
        MR - 1,
        MR,
        MR + 1,
        2 * LANES - 1,
        2 * LANES,
        2 * LANES + 1,
        4 * LANES + 3,
    ];
    /// Reduction extents on either side of one and two K blocks.
    const K_EXTENTS: [usize; 6] = [1, 2, KC - 1, KC, KC + 1, 2 * KC + 3];

    /// The shapes the blocked nest leaves to the lane walker (MatVec, and
    /// MatVec^T, whose matrix steps by the row extent along the chain),
    /// to the scalar chain (Dot) and, at `k == 1`, to the direct store
    /// (AD's `adj_M`: an outer product with no collapsed dim at all), with
    /// `m` rows and `k` reduction steps.
    fn unblocked(elem: ScalarKind, m: usize, k: usize) -> Vec<(&'static str, Case)> {
        let (i, kk) = (e(2, &[(0, 1)], 0), e(2, &[(1, 1)], 0));
        let matvec = |a| Case {
            sizes: vec![m, k],
            elem,
            red: vec![1],
            out: vec![i.clone()],
            a,
            b: vec![kk.clone()],
        };
        let dot = Case {
            sizes: vec![k],
            elem,
            red: vec![0],
            out: vec![e(1, &[], 0)],
            a: vec![e(1, &[(0, 1)], 0)],
            b: vec![e(1, &[(0, 1)], 0)],
        };
        let mut all = vec![
            ("MatVec", matvec(vec![i.clone(), kk.clone()])),
            ("MatVec^T", matvec(vec![kk.clone(), i.clone()])),
            ("Dot", dot),
        ];
        if k == 1 {
            all.push((
                "K = 0 outer product",
                Case {
                    sizes: vec![m, m + 2],
                    elem,
                    red: vec![],
                    out: vec![i.clone(), kk.clone()],
                    a: vec![i],
                    b: vec![kk],
                },
            ));
        }
        all
    }

    fn bits(outs: Vec<Buffer>) -> Vec<u64> {
        match (outs[0].as_f32(), outs[0].as_f64()) {
            (Some(out), _) => out.iter().map(|v| v.to_bits().into()).collect(),
            (_, Some(out)) => out.iter().map(|v| v.to_bits()).collect(),
            _ => panic!("a contraction's output is f32 or f64"),
        }
    }

    /// The executor against `vm_exec` on the same plan at widths 1/2/4 —
    /// the preserved split follows the width, the reduction split (if
    /// any) is fixed at two tasks — and the same bits at every width.
    /// Returns those bits.
    /// `blocked` says whether the case is the blocked nest's to run.
    fn assert_bit_equal_to_vm(case: &Case, split_k: bool, what: &str, blocked: bool) -> Vec<u64> {
        static BASE: std::sync::OnceLock<CpuExecutor> = std::sync::OnceLock::new();
        let base = BASE.get_or_init(|| CpuExecutor::new(4).unwrap());
        let prog = case.prog();
        let inputs = case.inputs();
        let crate::fast::FastKernel::Contraction(kernel) = crate::fast::classify(&prog).unwrap()
        else {
            panic!("{what}: a two-factor product is a contraction kernel");
        };
        let outputs = eval::alloc_outputs(&prog).unwrap();
        let (in_acc, _) = linearize_for(&prog, &inputs, &outputs).unwrap();
        let nest = !kernel.collapsed.is_empty()
            && matches!(kernel.arrange(&in_acc).path, TaskPath::Blocked { .. });
        assert_eq!(nest, blocked, "{what}");
        assert_bits_on(base, case, &prog, &inputs, split_k, what)
    }

    fn assert_bits_on(
        base: &CpuExecutor,
        case: &Case,
        prog: &DslProgram,
        inputs: &[Buffer],
        split_k: bool,
        what: &str,
    ) -> Vec<u64> {
        let mut want: Option<Vec<u64>> = None;
        for width in [1usize, 2, 4] {
            let mut schedule = Schedule::sequential(case.sizes.len(), DeviceKind::Cpu);
            let row_d = (0..case.sizes.len())
                .filter(|d| !case.red.contains(d))
                .max_by_key(|&d| case.sizes[d]);
            if let Some(d) = row_d {
                schedule.par_chunks[d] = width.min(case.sizes[d]);
            }
            if split_k {
                schedule.par_chunks[*case.red.last().unwrap()] = 2;
                schedule.reduction = ReductionStrategy::Tree;
            }
            let exec = CpuExecutor::with_pool(base.pool(), width);
            assert_eq!(exec.path_for(prog), ExecPath::Fast, "{what}");
            let plan = ExecutionPlan::build(prog, &schedule).unwrap();
            let fast = bits(exec.run_planned(prog, &schedule, &plan, inputs).unwrap());
            let vm = bits(crate::vm_exec::run(prog, &plan, inputs, exec.pool()).unwrap());
            assert_eq!(fast, vm, "{what} width={width}");
            assert_eq!(want.get_or_insert(vm), &fast, "{what} width={width}");
        }
        want.unwrap()
    }

    /// Block boundaries of the blocked nest: row and lane extents on
    /// either side of one register tile and of one and two `Line`s, K on
    /// either side of one and two K blocks, every layout the dim grouping
    /// must see through, with and without the reduction split across
    /// tasks. Small row extents meet large lane extents and the reverse,
    /// so every value of each is covered and edge tiles meet full ones.
    /// The shapes the blocked nest leaves to the lane walker, the scalar
    /// chain and the direct store run at the same extents, and MatVec^T
    /// once more with its lanes past one [`ROW_LANES`] block. Both element
    /// types: every f64 product of this data rounds, so an f64 accumulate
    /// that fused one would move bits.
    #[test]
    fn block_boundary_sweep_bit_equal_to_the_vm() {
        let mut cases = 0;
        for elem in [ScalarKind::F32, ScalarKind::F64] {
            for (x, &m) in EXTENTS.iter().enumerate() {
                let n = EXTENTS[EXTENTS.len() - 1 - x];
                for k in K_EXTENTS {
                    // one lane extent past the MatVec^T walk's row block
                    let wide = (x == 0).then(|| unblocked(elem, ROW_LANES + 3, k).swap_remove(1));
                    let wide = wide.map(|(_, c)| ("MatVec^T, ROW_LANES + 3 lanes", c));
                    let blocked = layouts(elem, m, n, k).into_iter().map(|c| (c, true));
                    let unblocked = unblocked(elem, m, k).into_iter().chain(wide);
                    let unblocked = unblocked.map(|c| (c, false));
                    for ((layout, case), is_blocked) in blocked.chain(unblocked) {
                        for split_k in [false, true] {
                            if split_k && k == 1 {
                                continue;
                            }
                            let what =
                                format!("{elem:?} m={m} n={n} k={k} {layout} split_k={split_k}");
                            assert_bit_equal_to_vm(&case, split_k, &what, is_blocked);
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 8 * (5 * 12 * 2 + 13) + 2 * (5 * 2 + 1));
    }

    /// The VM copy-initialises the accumulator from the first product, so
    /// a chain of `-0.0` products stays `-0.0` where `0.0 + -0.0` is
    /// `+0.0`; the second K block must reload that accumulator, not start
    /// a fresh one.
    #[test]
    fn copy_init_survives_the_k_block_boundary() {
        let (_, case) = layouts(ScalarKind::F32, MR + 1, NR + 1, KC + 1).swap_remove(0);
        let prog = case.prog();
        let mut inputs = case.inputs();
        inputs[0].fill_with(|_| -0.0);
        inputs[1].fill_with(|_| 1.0);
        let base = CpuExecutor::new(2).unwrap();
        let got = assert_bits_on(&base, &case, &prog, &inputs, false, "-0.0 chain");
        assert!(got.iter().all(|&b| b == (-0.0f32).to_bits().into()));
    }

    /// A program with no dims at all is one point, one product: the direct
    /// store has no row dim to walk and must still write it.
    #[test]
    fn a_rank_zero_product_is_one_point() {
        for elem in [ScalarKind::F32, ScalarKind::F64] {
            let case = Case {
                sizes: vec![],
                elem,
                red: vec![],
                out: vec![],
                a: vec![],
                b: vec![],
            };
            let what = format!("{elem:?} rank 0");
            assert_bit_equal_to_vm(&case, false, &what, false);
        }
    }

    /// An Inf in the last live row of A and a NaN in the last live lane of
    /// B sit right next to the panels' zero padding: `0 * Inf` is NaN in
    /// the padded rows and lanes, and none of it may reach a stored lane.
    #[test]
    fn non_finite_operands_next_to_padding_stay_in_their_rows_and_lanes() {
        let (m, n, k) = (MR + 1, NR + 1, 3);
        let (_, case) = layouts(ScalarKind::F32, m, n, k).swap_remove(0);
        let prog = case.prog();
        let mut inputs = case.inputs();
        inputs[0].as_f32_mut().unwrap()[(m - 1) * k + 1] = f32::INFINITY;
        inputs[1].as_f32_mut().unwrap()[n + (n - 1)] = f32::NAN;
        let base = CpuExecutor::new(2).unwrap();
        let got = assert_bits_on(&base, &case, &prog, &inputs, false, "Inf/NaN");
        for (p, &b) in got.iter().enumerate() {
            let tainted = p / n == m - 1 || p % n == n - 1;
            assert_eq!(f32::from_bits(b as u32).is_finite(), !tainted, "point {p}");
        }
    }

    /// `run_planned` trusts its caller to have validated the program, so
    /// the kernel must not: an input smaller than its access reaches is an
    /// error, not a slice-index panic on the worker.
    #[test]
    fn undersized_input_is_an_error_not_a_panic() {
        let mut cases = layouts(ScalarKind::F32, 40, 40, 40);
        // the arrangements the sweep's layouts never take
        cases.extend(unblocked(ScalarKind::F32, 40, 40));
        // and the direct store, which only `k == 1` adds
        cases.extend(unblocked(ScalarKind::F32, 40, 1).pop());
        for (layout, case) in cases {
            let mut prog = case.prog();
            let schedule = Schedule::sequential(prog.rank(), DeviceKind::Cpu);
            let plan = ExecutionPlan::build(&prog, &schedule).unwrap();
            // what a stale or hand-built program could carry past
            // `check_inputs`: a declared shape its accesses overrun
            let small = vec![4; case.a.len()];
            prog.inp_view.buffers[0].declared_shape = Some(small.clone());
            let mut inputs = case.inputs();
            inputs[0] = Buffer::zeros("a", BasicType::F32, Shape::new(small));
            let exec = CpuExecutor::new(2).unwrap();
            match exec.run_planned(&prog, &schedule, &plan, &inputs) {
                Err(MdhError::Eval(msg)) => assert!(msg.contains("outside buffer"), "{msg}"),
                other => panic!("{layout}: expected an Eval error, got {:?}", other.err()),
            }
        }
    }
}
