//! Generic parallel execution through the register VM.
//!
//! Handles every program the specialised kernels don't: custom combine
//! operators (PRL's `prl_max` over a 3-tuple of outputs), record inputs,
//! prefix sums (`ps`), indexed reductions (`rbi`), arbitrary scalar
//! functions — as long as input accesses are affine and outputs are
//! scalar-typed. The scalar function is never interpreted one point at a
//! time: the innermost dimension of every loop nest advances a block of
//! up to [`LANES`] points per [`CompiledSf::run_block`] dispatch, and the
//! three modes differ only in what consumes the resulting lines:
//!
//! * **fold mode** — no `ps` dimension; all `pw` dimensions share one
//!   combine function. Each task folds its collapsed sub-range into
//!   per-result partial columns, every output's chain in ascending
//!   collapsed order — the same strictly sequential chain as a per-point
//!   loop. The lanes of a block are either consecutive elements of one
//!   output's chain (builtin combiners; folded lane by lane) or
//!   [`LANES`] neighbouring outputs at one collapsed point (a compiled
//!   combine function; one `run_block` of it combines them all);
//!   split-reduction groups combine partials with the same function.
//! * **scan mode** — one `ps` dimension (ordered before any `pw` dims so
//!   the scan is applied last, matching the nested semantics); `pw` dims
//!   must not be split across tasks. Lines are stored straight into the
//!   partial columns, tasks scan locally, and the epilogue carry-folds
//!   each split scan chunk from the chunk before it with the offset rule
//!   of Listing 17, then stores it at its own range. A builtin scan over the
//!   identity runs the fast scan kernel instead, which shares this
//!   mode's rows ([`scan_rows`], [`carry_rows`]); what stays here is
//!   combine functions, other scalar functions and integer scans.
//! * **rbi mode** — an indexed reduction. The `rbi` dimension is cut into
//!   [`RBI_CHUNKS`] fixed intervals; each chunk accumulates its points,
//!   ascending, into a private typed partial of the full output, and the
//!   partials are summed by a fixed pairwise tree. Neither depends on the
//!   pool width, so neither do the result bits. Per block, each output
//!   access writes its points' flat offsets into a [`LANES`]-sized array
//!   (a general index function writes its coordinates into a slice the
//!   chunk owns) and a [`Scatter`] adds the block with one typed loop: no
//!   allocation and no type dispatch per point.
//!
//! The three combines that run on whole partials — a task's local scan,
//! the carry-fold of split scan chunks and the group combine of a split
//! reduction — are one call each of [`Combiner::combine_rows`]: for a
//! builtin operator the one typed row loop, [`fold_row`], per partial
//! column, for a compiled combine function one tuple at a time; the same
//! element order and argument order either way. The local scan runs in
//! the task; the other two, and the store of every partial, are the CPU
//! epilogue (`partial.rs`) the scan and contraction kernels share.

use crate::offsets::{advance, linearize_view, LinearAccess, Loader, Scatter};
use crate::partial::{finish, ColBank, Join, Partial};
use crate::vm::{compile_sf, CompiledSf, ParamLoad, Reg, LANES};
use mdh_core::buffer::Buffer;
use mdh_core::combine::{fold_row, BuiltinReduce, CombineOp, Part, PwFunc, PwKind, Row};
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::eval;
use mdh_core::shape::MdRange;
use mdh_core::types::ScalarKind;
use mdh_lowering::plan::{split_even, ExecutionPlan};
use rayon::prelude::*;

/// Fixed number of chunks rbi mode cuts the indexed dimension into. A
/// *constant* — deliberately independent of the pool width — so the
/// private-partial structure and the shape of the combine tree are
/// identical at every thread count: result bits cannot depend on
/// parallelism, only wall-clock does.
const RBI_CHUNKS: usize = 16;

/// One tuple in flat typed form: result `r` lives in `f[r]` or `i[r]`,
/// whichever bank its kind selects.
struct Acc {
    f: Vec<f64>,
    i: Vec<i64>,
}

impl Acc {
    fn new(width: usize) -> Acc {
        Acc {
            f: vec![0.0; width],
            i: vec![0; width],
        }
    }

    /// Read element `at` of every column.
    #[inline]
    fn read(&mut self, cols: &[ColBank], at: usize) {
        for (r, col) in cols.iter().enumerate() {
            match col {
                ColBank::F(v) => self.f[r] = v[at],
                ColBank::I(v) => self.i[r] = v[at],
            }
        }
    }

    /// Write the tuple to element `at` of every column.
    #[inline]
    fn write(&self, cols: &mut [ColBank], at: usize) {
        for (r, col) in cols.iter_mut().enumerate() {
            match col {
                ColBank::F(v) => v[at] = self.f[r],
                ColBank::I(v) => v[at] = self.i[r],
            }
        }
    }

    /// Read lane `l` of the scalar function's result registers.
    #[inline]
    fn read_lane(&mut self, sf: &CompiledSf, f: &[f64], i: &[i64], l: usize) {
        for (r, reg) in sf.result_regs.iter().enumerate() {
            match reg {
                Reg::F(d) => self.f[r] = f[d * LANES + l],
                Reg::I(d) => self.i[r] = i[d * LANES + l],
            }
        }
    }
}

/// How tuples are combined in the hot loop.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Combiner {
    Builtin(BuiltinReduce),
    Vm {
        cf: CompiledSf,
        /// registers of the lhs tuple params, then of the rhs tuple params
        lhs_regs: Vec<Reg>,
        rhs_regs: Vec<Reg>,
    },
}

/// An f64 and an i64 register bank.
type Banks = (Vec<f64>, Vec<i64>);

/// One-lane banks for a compiled combine function (empty for builtins).
type Scratch = Banks;

impl Combiner {
    /// `kinds` are the scalar function's result kinds: the tuple a
    /// compiled combine function takes twice and returns must sit in the
    /// same register banks.
    fn build(f: &PwFunc, kinds: &[ScalarKind]) -> Result<Combiner> {
        let sf = match &f.kind {
            PwKind::Builtin(b) => return Ok(Combiner::Builtin(*b)),
            PwKind::Custom(sf) => sf,
        };
        let cf = compile_sf(sf)?;
        let mut regs = cf
            .param_loads
            .iter()
            .map(|pl| match pl {
                ParamLoad::Scalar(r) => Ok(*r),
                _ => Err(MdhError::Validation(
                    "record-typed combine params unsupported".into(),
                )),
            })
            .collect::<Result<Vec<Reg>>>()?;
        let width = kinds.len();
        let same_banks = |regs: &[Reg]| {
            (regs.iter().zip(kinds)).all(|(r, k)| matches!(r, Reg::F(_)) == k.is_float())
        };
        if cf.result_regs.len() != width
            || regs.len() != 2 * width
            || !same_banks(&cf.result_regs)
            || !same_banks(&regs[..width])
            || !same_banks(&regs[width..])
        {
            return Err(MdhError::Validation(
                "combine-function tuple does not match the scalar function's results".into(),
            ));
        }
        let rhs_regs = regs.split_off(width);
        Ok(Combiner::Vm {
            cf,
            lhs_regs: regs,
            rhs_regs,
        })
    }

    fn scratch(&self) -> Scratch {
        match self {
            Combiner::Builtin(_) => (Vec::new(), Vec::new()),
            Combiner::Vm { cf, .. } => cf.point_banks(),
        }
    }

    /// `acc[out] = left ⊗ right` along each of `rows` in order, tuple-wide
    /// and the left tuple first, with [`fold_row`]'s operands: `part`
    /// names the one another partial supplies. A builtin runs the typed
    /// row loop per column; a combine function steps one tuple at a time.
    pub(crate) fn combine_rows<I: Iterator<Item = Row>>(
        &self,
        acc: &mut [ColBank],
        part: Part<[ColBank]>,
        rows: impl Fn() -> I,
    ) -> Result<()> {
        let mismatch = || MdhError::Eval("column kind mismatch".into());
        let (cf, lhs_regs, rhs_regs) = match self {
            Combiner::Builtin(b) => {
                macro_rules! column {
                    ($col:ident, $r:ident, $kind:ident) => {{
                        let part = part.map(|p| match p.get($r) {
                            Some(ColBank::$kind(u)) => Some(&u[..]),
                            _ => None,
                        });
                        let part = part.ok_or_else(mismatch)?;
                        rows().for_each(|row| fold_row($col, &part, &row, Some(*b)));
                    }};
                }
                for (r, col) in acc.iter_mut().enumerate() {
                    match col {
                        ColBank::F(v) => column!(v, r, F),
                        ColBank::I(v) => column!(v, r, I),
                    }
                }
                return Ok(());
            }
            Combiner::Vm {
                cf,
                lhs_regs,
                rhs_regs,
            } => (cf, lhs_regs, rhs_regs),
        };
        let mut scratch = cf.point_banks();
        let (mut left, mut right) = (Acc::new(acc.len()), Acc::new(acc.len()));
        for row in rows() {
            for (o, l) in row.offsets() {
                left.read(if let Part::Left(p) = part { p } else { acc }, l);
                right.read(if let Part::Right(p) = part { p } else { acc }, o);
                combine_vm(cf, lhs_regs, rhs_regs, &mut left, &right, &mut scratch);
                left.write(acc, o);
            }
        }
        Ok(())
    }

    /// Fold lanes `from..n` of the scalar function's result registers
    /// into `acc` in ascending lane order — the per-point loop's strictly
    /// sequential chain, same bracketing, same bits.
    #[inline]
    fn fold_lanes(
        &self,
        sf: &CompiledSf,
        (f, i): &Banks,
        lanes: std::ops::Range<usize>,
        acc: &mut Acc,
        new: &mut Acc,
        scratch: &mut Scratch,
    ) {
        match self {
            // tuple components of a builtin are independent chains
            Combiner::Builtin(b) => {
                for (r, reg) in sf.result_regs.iter().enumerate() {
                    match reg {
                        Reg::F(d) => {
                            let line = &f[d * LANES..][lanes.clone()];
                            acc.f[r] = line.iter().fold(acc.f[r], |a, &x| b.apply_f64(a, x));
                        }
                        Reg::I(d) => {
                            let line = &i[d * LANES..][lanes.clone()];
                            acc.i[r] = line.iter().fold(acc.i[r], |a, &x| b.apply_i64(a, x));
                        }
                    }
                }
            }
            Combiner::Vm {
                cf,
                lhs_regs,
                rhs_regs,
            } => {
                for l in lanes {
                    new.read_lane(sf, f, i, l);
                    combine_vm(cf, lhs_regs, rhs_regs, acc, new, scratch);
                }
            }
        }
    }
}

/// acc (lhs) ⊗ new (rhs) → acc through a compiled combine function,
/// tuple-wide, one tuple per run.
#[inline]
fn combine_vm(
    cf: &CompiledSf,
    lhs_regs: &[Reg],
    rhs_regs: &[Reg],
    acc: &mut Acc,
    new: &Acc,
    (sf, si): &mut Scratch,
) {
    for (r, (lhs, rhs)) in lhs_regs.iter().zip(rhs_regs).enumerate() {
        match (lhs, rhs) {
            (Reg::F(l), Reg::F(n)) => (sf[*l], sf[*n]) = (acc.f[r], new.f[r]),
            (Reg::I(l), Reg::I(n)) => (si[*l], si[*n]) = (acc.i[r], new.i[r]),
            _ => unreachable!("banks checked by Combiner::build"),
        }
    }
    cf.run_point(sf, si);
    for (r, reg) in cf.result_regs.iter().enumerate() {
        match reg {
            Reg::F(d) => acc.f[r] = sf[*d],
            Reg::I(d) => acc.i[r] = si[*d],
        }
    }
}

/// Lanes `0..n` of `regs` to elements `at..at + n` of the partial's
/// columns. Column `r` and register `r` are in the same bank: both follow
/// result kind `r`.
#[inline]
fn store_row(cols: &mut [ColBank], at: usize, n: usize, regs: &[Reg], (f, i): &Banks) {
    for (col, reg) in cols.iter_mut().zip(regs) {
        match (col, reg) {
            (ColBank::F(v), Reg::F(d)) => v[at..at + n].copy_from_slice(&f[d * LANES..][..n]),
            (ColBank::I(v), Reg::I(d)) => v[at..at + n].copy_from_slice(&i[d * LANES..][..n]),
            _ => unreachable!("column kinds fixed by result kinds"),
        }
    }
}

/// Every lane of each `from` register to the `to` register beside it (a
/// whole line: fixed-size copies, and spare lanes are nobody's input).
#[inline]
fn copy_lines(from: &[Reg], (ff, fi): &Banks, to: &[Reg], (tf, ti): &mut Banks) {
    for (s, d) in from.iter().zip(to) {
        match (s, d) {
            (Reg::F(s), Reg::F(d)) => {
                tf[d * LANES..][..LANES].copy_from_slice(&ff[s * LANES..][..LANES])
            }
            (Reg::I(s), Reg::I(d)) => {
                ti[d * LANES..][..LANES].copy_from_slice(&fi[s * LANES..][..LANES])
            }
            _ => unreachable!("banks checked by Combiner::build"),
        }
    }
}

/// A compiled combine function folding [`LANES`] neighbouring outputs at
/// once: lane `l` of accumulator register `r` is component `r` of output
/// `l`'s tuple.
struct RowFold<'a> {
    cf: &'a CompiledSf,
    lhs_regs: &'a [Reg],
    rhs_regs: &'a [Reg],
    cf_banks: Banks,
    /// component `r` is register `r` of the bank its kind selects
    acc_regs: Vec<Reg>,
    acc: Banks,
}

impl<'a> RowFold<'a> {
    fn new(cf: &'a CompiledSf, lhs_regs: &'a [Reg], rhs_regs: &'a [Reg]) -> RowFold<'a> {
        let width = cf.result_regs.len();
        let acc_regs = (cf.result_regs.iter().enumerate())
            .map(|(r, reg)| match reg {
                Reg::F(_) => Reg::F(r),
                Reg::I(_) => Reg::I(r),
            })
            .collect();
        RowFold {
            cf,
            lhs_regs,
            rhs_regs,
            cf_banks: cf.banks(),
            acc_regs,
            acc: (vec![0.0; width * LANES], vec![0; width * LANES]),
        }
    }

    /// The line in `regs` starts every lane's chain (`first`) or is
    /// combined into it: acc ⊗ line → acc, all lanes in one dispatch.
    #[inline]
    fn push(&mut self, first: bool, regs: &[Reg], line: &Banks) {
        if first {
            return copy_lines(regs, line, &self.acc_regs, &mut self.acc);
        }
        copy_lines(&self.acc_regs, &self.acc, self.lhs_regs, &mut self.cf_banks);
        copy_lines(regs, line, self.rhs_regs, &mut self.cf_banks);
        let (cf_f, cf_i) = &mut self.cf_banks;
        self.cf.run_block(cf_f, cf_i, LANES);
        copy_lines(
            &self.cf.result_regs,
            &self.cf_banks,
            &self.acc_regs,
            &mut self.acc,
        );
    }
}

/// Execution mode derived from the combine operators, with the combine
/// functions it runs compiled.
pub(crate) enum Mode {
    Fold(Option<Combiner>),
    Scan {
        scan_dim: usize,
        scan: Combiner,
        fold: Option<Combiner>,
    },
    /// Indexed reduction along `dim` (the first `rbi` dimension).
    Rbi {
        dim: usize,
    },
}

fn derive_mode(prog: &DslProgram, kinds: &[ScalarKind]) -> Result<Mode> {
    let ops = &prog.md_hom.combine_ops;
    if let Some(dim) = ops.iter().position(|op| matches!(op, CombineOp::Rbi(_))) {
        // every colliding contribution folds with one typed `add`
        let all_add = ops.iter().all(|op| match op {
            CombineOp::Cc => true,
            CombineOp::Ps(_) => false,
            CombineOp::Pw(f) | CombineOp::Rbi(f) => f.as_builtin() == Some(BuiltinReduce::Add),
        });
        if !all_add {
            return Err(MdhError::Validation(
                "rbi mode requires every reduction dimension to be a builtin add".into(),
            ));
        }
        return Ok(Mode::Rbi { dim });
    }
    let mut ps_dims = Vec::new();
    let mut pw_fn: Option<&PwFunc> = None;
    for (d, op) in ops.iter().enumerate() {
        match op {
            CombineOp::Cc | CombineOp::Rbi(_) => {}
            CombineOp::Ps(f) => ps_dims.push((d, f)),
            CombineOp::Pw(f) => match pw_fn {
                // every pw dim folds into one chain: by one function
                Some(g) if !g.same_function(f) => {
                    return Err(MdhError::Validation(
                        "VM path requires a single pw combine function".into(),
                    ));
                }
                _ => pw_fn = Some(f),
            },
        }
    }
    let fold = pw_fn.map(|f| Combiner::build(f, kinds)).transpose()?;
    match ps_dims[..] {
        [] => Ok(Mode::Fold(fold)),
        [(scan_dim, scan_fn)] => {
            // scan must be applied after every pw fold, i.e. the ps dim
            // must come before all pw dims in ⊗_1..⊗_D order
            for (d, op) in ops.iter().enumerate() {
                if matches!(op, CombineOp::Pw(_)) && d < scan_dim {
                    return Err(MdhError::Validation(
                        "VM path requires the ps dimension to precede pw dimensions".into(),
                    ));
                }
            }
            Ok(Mode::Scan {
                scan_dim,
                scan: Combiner::build(scan_fn, kinds)?,
                fold,
            })
        }
        _ => Err(MdhError::Validation(
            "VM path supports at most one ps dimension".into(),
        )),
    }
}

/// Whether this program can run through the VM path at all — and if so
/// everything a run compiles: its scalar function and, inside the mode,
/// its combine functions. The executor's [`Route`](crate::cpu::Route)
/// keeps the pair, so nothing is compiled per run.
pub(crate) fn classify(prog: &DslProgram) -> Result<(CompiledSf, Mode)> {
    let affine = |view: &mdh_core::views::View| {
        view.accesses
            .iter()
            .all(|a| a.index_fn.as_affine().is_some())
    };
    let scalar_outputs = prog
        .out_view
        .buffers
        .iter()
        .all(|b| b.ty.as_scalar().is_some());
    if !scalar_outputs || !affine(&prog.inp_view) {
        return Err(MdhError::Validation(
            "VM path requires scalar outputs and affine input accesses".into(),
        ));
    }
    let sf = compile_sf(&prog.md_hom.sf)?;
    let mode = derive_mode(prog, &sf.result_kinds)?;
    // rbi mode evaluates its (data-dependent) output accesses per point
    if !matches!(mode, Mode::Rbi { .. }) && !affine(&prog.out_view) {
        return Err(MdhError::Validation(
            "VM path requires affine output accesses outside rbi mode".into(),
        ));
    }
    Ok((sf, mode))
}

/// What every task of one run shares.
struct TaskCtx<'a> {
    sf: &'a CompiledSf,
    fold: Option<&'a Combiner>,
    /// scan combiner and the scan dim's position among the preserved dims
    scan: Option<(&'a Combiner, usize)>,
    kinds: &'a [ScalarKind],
    loaders: &'a [Loader<'a>],
    in_acc: &'a [LinearAccess],
    preserved: &'a [usize],
    collapsed: &'a [usize],
}

/// Run the program on the given plan using the thread pool.
pub fn run(
    prog: &DslProgram,
    plan: &ExecutionPlan,
    inputs: &[Buffer],
    pool: &rayon::ThreadPool,
) -> Result<Vec<Buffer>> {
    let (sf, mode) = classify(prog)?;
    run_classified(prog, &sf, &mode, plan, inputs, pool)
}

/// [`run`] with what [`classify`] returned for `prog`.
pub(crate) fn run_classified(
    prog: &DslProgram,
    sf: &CompiledSf,
    mode: &Mode,
    plan: &ExecutionPlan,
    inputs: &[Buffer],
    pool: &rayon::ThreadPool,
) -> Result<Vec<Buffer>> {
    let kinds = &sf.result_kinds[..];

    eval::check_inputs(prog, inputs)?;
    let rank = prog.rank();
    let in_shapes: Vec<Vec<usize>> = inputs.iter().map(|b| b.shape.dims().to_vec()).collect();
    let in_acc = linearize_view(&prog.inp_view, &in_shapes, rank)?;
    let loaders = Loader::build_all(prog, inputs, &sf.param_loads)?;

    let preserved = prog.md_hom.preserved_dims();
    let (fold, scan) = match mode {
        Mode::Rbi { dim } => return run_rbi(prog, *dim, sf, &loaders, &in_acc, pool),
        Mode::Fold(fold) => (fold.as_ref(), None),
        Mode::Scan {
            scan_dim,
            scan,
            fold,
        } => (
            fold.as_ref(),
            Some((scan, scan_axis(plan, &preserved, *scan_dim)?)),
        ),
    };

    let mut outputs = eval::alloc_outputs(prog)?;
    let out_shapes: Vec<Vec<usize>> = outputs.iter().map(|b| b.shape.dims().to_vec()).collect();
    let out_acc = linearize_view(&prog.out_view, &out_shapes, rank)?;
    let collapsed = prog.md_hom.collapsed_dims();

    // --- per-task local computation, in parallel ------------------------
    let ctx = TaskCtx {
        sf,
        fold,
        scan,
        kinds,
        loaders: &loaders,
        in_acc: &in_acc,
        preserved: &preserved,
        collapsed: &collapsed,
    };
    let mut partials: Vec<Result<Partial>> = Vec::new();
    pool.install(|| {
        plan.tasks
            .par_iter()
            .map(|task| run_task(&ctx, &task.range))
            .collect_into_vec(&mut partials);
    });
    let partials = partials.into_iter().collect::<Result<Vec<_>>>()?;

    // --- recombine split groups and store, rows along the last preserved dim
    let join = match scan {
        Some((comb, sd_pos)) => Join::Carry(comb, sd_pos),
        None => Join::Fold(fold),
    };
    let order = preserved.split_at(preserved.len().saturating_sub(1));
    finish(plan, partials, join, order, &out_acc, &mut outputs)?;
    Ok(outputs)
}

/// A scan's restriction on its plan — a task's chain runs over every pw
/// point, so only the scan dimension may be split across tasks — and the
/// scan dimension's position among the `preserved` dims.
pub(crate) fn scan_axis(
    plan: &ExecutionPlan,
    preserved: &[usize],
    scan_dim: usize,
) -> Result<usize> {
    if plan.split_dims.iter().any(|d| *d != scan_dim) {
        return Err(MdhError::Validation(
            "scan mode cannot split pw dimensions across tasks".into(),
        ));
    }
    let not_preserved = || MdhError::Validation("scan dimension is not preserved".into());
    preserved
        .iter()
        .position(|&d| d == scan_dim)
        .ok_or_else(not_preserved)
}

/// Fewest points of the last preserved dim a task must own for a compiled
/// combine function to run with the lanes along it. A block costs the
/// same however many of its lanes are outputs, so below this the
/// collapsed-dim fold — full blocks of the scalar function, one
/// interpreted combine step per point — is the faster of the two; both
/// run every output's chain in the same order, so the constant moves
/// time, never a bit. Measured on PRL (72-op scalar function, 16-op
/// `prl_max`, registers allocated; 256 × 4096 pairs, one thread, the
/// preserved dim cut into tasks of 1 / 4 / 8 / 12 / 16 / 32 points, two
/// rounds): lanes along the outputs 603 / 176 / 66 / 44 / 41 / 25 ms and
/// 610 / 140 / 80 / 44 / 35 / 17 ms, along the chain 64–88 ms throughout.
const OUTPUT_LANES_MIN: usize = 12;

/// One task: evaluate the scalar function a block of up to [`LANES`]
/// points of one dimension at a time, the rest of the nest around it —
/// preserved dims outside, collapsed dims inside, each ascending. The
/// blocked dimension is
///
/// * the last preserved dim when nothing is collapsed (scan / no
///   reduction: a line is a row of the partial), and when the fold
///   combiner is a compiled function and the task owns at least
///   [`OUTPUT_LANES_MIN`] points of that dim — *lanes are outputs*: the
///   line at the first collapsed point is the row, every later one is
///   combined into it by one `run_block` of the combine function;
/// * else the last collapsed dim — *lanes are chain elements*, folded
///   into one output's accumulator in ascending lane order.
///
/// Either way an output's chain is its collapsed points in ascending
/// odometer order, so which form runs is invisible in the result. A run
/// shorter than [`LANES`] is simply a short block.
fn run_task(ctx: &TaskCtx, range: &MdRange) -> Result<Partial> {
    let &TaskCtx {
        sf,
        kinds,
        in_acc,
        preserved,
        collapsed,
        ..
    } = ctx;
    let extents: Vec<usize> = preserved.iter().map(|&d| range.extent(d)).collect();
    let n = extents.iter().product::<usize>().max(1);
    let mut cols: Vec<ColBank> = kinds.iter().map(|&k| ColBank::zeros(k, n)).collect();
    if range.is_empty() {
        return Ok(Partial { extents, cols });
    }

    // the compiled combine function, when its lanes run along the outputs
    let mut row_fold = match (ctx.fold, preserved.last()) {
        (
            Some(Combiner::Vm {
                cf,
                lhs_regs,
                rhs_regs,
            }),
            Some(&d),
        ) if !collapsed.is_empty() && range.extent(d) >= OUTPUT_LANES_MIN => {
            Some(RowFold::new(cf, lhs_regs, rhs_regs))
        }
        _ => None,
    };
    let lanes_are_outputs = collapsed.is_empty() || row_fold.is_some();

    let mut banks = sf.banks();
    let mut scratch = match ctx.fold {
        Some(c) if !lanes_are_outputs => c.scratch(),
        _ => Scratch::default(),
    };
    let (mut acc, mut new) = (Acc::new(kinds.len()), Acc::new(kinds.len()));

    // --- strength reduction --------------------------------------------
    // Every input access is affine, so along the blocked dimension each
    // access's linear offset moves by a fixed per-access stride. Hoist
    // those strides out of the odometer: a block loads its lanes at
    // `base + l·step` and the full rank-length `offset(&idx)` dot product
    // is paid only once per point of the nest around the blocks. Offsets
    // are exact integers, so incremental and recomputed forms are
    // identical bit-for-bit.
    let (outer_pres, outer_coll, lane_d) = if lanes_are_outputs {
        let (last, outer) = preserved.split_last().unzip();
        (outer.unwrap_or_default(), collapsed, last.copied())
    } else {
        let (last, outer) = collapsed.split_last().unzip();
        (preserved, outer.unwrap_or_default(), last.copied())
    };
    let lane_n = lane_d.map_or(1, |d| range.extent(d));
    // blocks of the lane dim are rows of the partial or links of a chain
    let (row_n, chain_n) = if lanes_are_outputs {
        (lane_n, 1)
    } else {
        (1, lane_n)
    };
    let steps: Vec<i64> = in_acc
        .iter()
        .map(|a| lane_d.map_or(0, |d| a.coeffs[d]))
        .collect();
    let mut offs: Vec<i64> = vec![0; in_acc.len()];
    // `(base, n)` of each access's last load. No instruction writes a
    // parameter register (`CompiledSf`'s invariant), so lanes `0..n` still
    // hold elements `base + l·step`, and an operand that did not move —
    // PRL's query record across all its database records — is not loaded
    // again.
    let mut loaded: Vec<(i64, usize)> = vec![(0, 0); in_acc.len()];

    let mut idx = range.lo.clone();
    let mut plin = 0usize;
    loop {
        for row in (0..row_n).step_by(LANES) {
            let mut first = true;
            loop {
                // base offsets at this point of the nest (idx never moves
                // along the lane dim: the block loops do)
                for (o, a) in offs.iter_mut().zip(in_acc) {
                    *o = a.offset(&idx);
                }
                for link in (0..chain_n).step_by(LANES) {
                    let at = row + link;
                    let n = LANES.min(lane_n - at);
                    let (f, i) = &mut banks;
                    for (a, l) in ctx.loaders.iter().enumerate() {
                        let base = offs[a] + at as i64 * steps[a];
                        if loaded[a].0 != base || loaded[a].1 < n {
                            l.load_block(base, steps[a], n, f, i);
                            loaded[a] = (base, n);
                        }
                    }
                    sf.run_block(f, i, n);
                    match &mut row_fold {
                        Some(rows) => rows.push(first, &sf.result_regs, &banks),
                        // scan / no reduction: the line is the row
                        None if lanes_are_outputs => {
                            store_row(&mut cols, plin, n, &sf.result_regs, &banks)
                        }
                        None => {
                            if first {
                                acc.read_lane(sf, &banks.0, &banks.1, 0);
                            }
                            if let Some(c) = ctx.fold {
                                let lanes = usize::from(first)..n;
                                c.fold_lanes(sf, &banks, lanes, &mut acc, &mut new, &mut scratch);
                            }
                        }
                    }
                    first = false;
                }
                if !advance(&mut idx, outer_coll, range) {
                    break;
                }
            }
            if lanes_are_outputs {
                let n = LANES.min(row_n - row);
                if let Some(rows) = &row_fold {
                    store_row(&mut cols, plin, n, &rows.acc_regs, &rows.acc);
                }
                plin += n;
            } else {
                acc.write(&mut cols, plin);
                plin += 1;
            }
        }
        if !advance(&mut idx, outer_pres, range) {
            break;
        }
    }

    // local scan along the ps dim
    if let Some((c, sd_pos)) = ctx.scan {
        c.combine_rows(&mut cols, Part::None, || scan_rows(&extents, sd_pos))?;
    }

    Ok(Partial { extents, cols })
}

/// `(outer, extent, stride)` of axis `pos` in a row-major array: element
/// `(o, s, t)` lives at `(o · extent + s) · stride + t`.
fn axis_split(extents: &[usize], pos: usize) -> (usize, usize, usize) {
    (
        extents[..pos].iter().product(),
        extents[pos],
        extents[pos + 1..].iter().product(),
    )
}

/// The rows of a local inclusive scan of a partial, row-major over its
/// preserved `extents`, along axis `sd_pos`, front to back: per outer
/// index, every element after the first slice combines with the one a
/// slice before it, on its left (a [`Part::None`] recurrence).
pub(crate) fn scan_rows(extents: &[usize], sd_pos: usize) -> impl Iterator<Item = Row> + Clone {
    let (outer, sd_ext, stride) = axis_split(extents, sd_pos);
    (0..outer).map(move |o| Row {
        out: ((o * sd_ext + 1) * stride) as i64,
        step: 1,
        lhs: (o * sd_ext * stride) as i64,
        lhs_step: 1,
        len: sd_ext.saturating_sub(1) * stride,
    })
}

/// The rows of Listing 17's contiguous-split rule between two scanned
/// chunks, row-major over their preserved extents `prev` and `cur`: every
/// element of `cur` combines with `prev`'s last slice along scan axis
/// `sd_pos`, `prev` on the left (a [`Part::Left`] fold). Rows run along
/// the scan axis, one per outer index and slice position; an empty `prev`
/// carries nothing.
pub(crate) fn carry_rows(
    prev: &[usize],
    cur: &[usize],
    sd_pos: usize,
) -> Result<impl Iterator<Item = Row> + Clone> {
    let (outer, p_sd, stride) = axis_split(prev, sd_pos);
    let (c_outer, c_sd, c_stride) = axis_split(cur, sd_pos);
    if (c_outer, c_stride) != (outer, stride) {
        return Err(MdhError::Eval("scan chunk extent mismatch".into()));
    }
    let rows = if p_sd == 0 { 0 } else { outer * stride };
    Ok((0..rows).map(move |ot| {
        let (o, t) = (ot / stride, ot % stride);
        Row {
            out: (o * c_sd * stride + t) as i64,
            step: stride as i64,
            lhs: (((o + 1) * p_sd - 1) * stride + t) as i64,
            lhs_step: 0,
            len: c_sd,
        }
    }))
}

/// rbi mode (see the module docs): [`RBI_CHUNKS`] fixed intervals of the
/// indexed dimension, each accumulated point-ascending into a private
/// typed partial of the outputs, folded by the fixed tree of
/// [`pairwise_sum`].
fn run_rbi(
    prog: &DslProgram,
    dim: usize,
    sf: &CompiledSf,
    loaders: &[Loader],
    in_acc: &[LinearAccess],
    pool: &rayon::ThreadPool,
) -> Result<Vec<Buffer>> {
    let full = prog.md_hom.full_range();
    let intervals = split_even(prog.md_hom.sizes[dim], RBI_CHUNKS);
    let mut chunk_outs: Vec<Result<Vec<Buffer>>> = Vec::new();
    pool.install(|| {
        intervals
            .par_iter()
            .map(|&(lo, hi)| {
                let mut range = full.clone();
                range.lo[dim] = lo;
                range.hi[dim] = hi;
                let mut outs = eval::alloc_outputs(prog)?;
                rbi_chunk(prog, sf, loaders, in_acc, &range, &mut outs)?;
                Ok(outs)
            })
            .collect_into_vec(&mut chunk_outs);
    });
    pairwise_sum(chunk_outs.into_iter().collect::<Result<_>>()?)
}

/// rbi mode's merge of its chunk partials: pair (0,1), (2,3), … per
/// level, in chunk order, until one is left.
fn pairwise_sum(mut layer: Vec<Vec<Buffer>>) -> Result<Vec<Buffer>> {
    while layer.len() > 1 {
        let mut pairs = std::mem::take(&mut layer).into_iter();
        while let Some(mut lhs) = pairs.next() {
            for (a, b) in lhs.iter_mut().zip(pairs.next().iter().flatten()) {
                a.accumulate(b)?;
            }
            layer.push(lhs);
        }
    }
    layer
        .pop()
        .ok_or_else(|| MdhError::Eval("rbi produced no partials".into()))
}

/// Accumulate one iteration sub-range into `outs`, visiting points in
/// ascending row-major order: the scalar function runs a block of the
/// last dimension at a time, then each output access in turn locates the
/// block's targets and adds the block with one typed [`Scatter`] loop.
fn rbi_chunk(
    prog: &DslProgram,
    sf: &CompiledSf,
    loaders: &[Loader],
    in_acc: &[LinearAccess],
    range: &MdRange,
    outs: &mut [Buffer],
) -> Result<()> {
    if range.is_empty() {
        return Ok(());
    }
    let inner_d = prog.rank() - 1;
    let outer: Vec<usize> = (0..inner_d).collect();
    let inner_n = range.extent(inner_d);
    let steps: Vec<i64> = in_acc.iter().map(|a| a.coeffs[inner_d]).collect();
    let (mut f, mut i) = sf.banks();
    let accesses = &prog.out_view.accesses;
    let mut scatters: Vec<Scatter> = accesses
        .iter()
        .zip(&sf.result_regs)
        .zip(&sf.result_kinds)
        .map(|((a, &reg), &kind)| Scatter::new(a, reg, kind))
        .collect();
    // two accesses into one buffer keep their point-by-point interleaving,
    // so the adds they share round in the same order
    let shared =
        (1..accesses.len()).any(|r| accesses[..r].iter().any(|a| a.buffer == accesses[r].buffer));
    let mut idx = range.lo.clone();
    loop {
        let mut done = 0;
        while done < inner_n {
            let (lo, n) = (range.lo[inner_d] + done, LANES.min(inner_n - done));
            idx[inner_d] = lo;
            for ((l, a), &s) in loaders.iter().zip(in_acc).zip(&steps) {
                l.load_block(a.offset(&idx), s, n, &mut f, &mut i);
            }
            sf.run_block(&mut f, &mut i, n);
            let located = scatters
                .iter_mut()
                .try_for_each(|s| s.locate_block(&mut idx, inner_d, lo, n, &outs[s.access.buffer]));
            if let Err(e) = located {
                // report the first failing (point, access) pair, as a
                // point-by-point walk would
                for l in 0..n {
                    idx[inner_d] = lo + l;
                    for s in &mut scatters {
                        s.locate(&idx, l, &outs[s.access.buffer])?;
                    }
                }
                return Err(e);
            }
            for s in &mut scatters {
                s.load(&f, &i, n);
            }
            if shared {
                for l in 0..n {
                    for s in &scatters {
                        s.add(&mut outs[s.access.buffer], l..l + 1)?;
                    }
                }
            } else {
                for s in &scatters {
                    s.add(&mut outs[s.access.buffer], 0..n)?;
                }
            }
            done += n;
        }
        idx[inner_d] = range.lo[inner_d];
        if !advance(&mut idx, &outer, range) {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::buffer::bits_hash;
    use mdh_core::dsl::DslBuilder;
    use mdh_core::eval::evaluate_recursive;
    use mdh_core::expr::{BinOp, Expr, MathFn, ScalarFunction, Stmt};
    use mdh_core::index_fn::{AffineExpr, IndexFn};
    use mdh_core::shape::Shape;
    use mdh_core::types::BasicType;
    use mdh_lowering::asm::DeviceKind;
    use mdh_lowering::schedule::{ReductionStrategy, Schedule};

    fn run_at(
        prog: &DslProgram,
        inputs: &[Buffer],
        par_chunks: &[usize],
        width: usize,
    ) -> Result<Vec<Buffer>> {
        let mut s = Schedule::sequential(prog.rank(), DeviceKind::Cpu);
        // never more chunks than points along a dim
        s.par_chunks = par_chunks
            .iter()
            .zip(&prog.md_hom.sizes)
            .map(|(&c, &n)| c.min(n))
            .collect();
        s.reduction = ReductionStrategy::Tree;
        let plan = ExecutionPlan::build(prog, &s)?;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap();
        run(prog, &plan, inputs, &pool)
    }

    /// Integer-valued fill (every sum exact) or an inexact one (every
    /// rounding visible in the bits).
    fn filled(name: &str, ty: BasicType, dims: Vec<usize>, exact: bool) -> Buffer {
        let mut b = Buffer::zeros(name, ty, Shape::new(dims));
        if exact {
            b.fill_with(|f| ((f * 7) % 11) as f64 - 5.0);
        } else {
            b.fill_with(|f| ((f * 7919) % 1013) as f64 / 97.0 - 5.2);
        }
        b
    }

    /// Innermost extents straddling every block boundary.
    const SWEEP: [usize; 5] = [1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3];

    /// The block-boundary sweep: `case(n, exact)` builds a program whose
    /// blocked dimension has extent `n`. On integer-valued data every
    /// schedule must equal the reference bit for bit; on inexact data
    /// every schedule must equal itself across pool widths.
    fn sweep(case: impl Fn(usize, bool) -> (DslProgram, Vec<Buffer>), schedules: &[&[usize]]) {
        for n in SWEEP {
            for &par_chunks in schedules {
                let (prog, inputs) = case(n, true);
                let expect = evaluate_recursive(&prog, &inputs).unwrap();
                let got = run_at(&prog, &inputs, par_chunks, 4).unwrap();
                assert_eq!(got, expect, "{} n={n} par={par_chunks:?}", prog.name);
                let (prog, inputs) = case(n, false);
                let at = |width| run_at(&prog, &inputs, par_chunks, width).unwrap();
                let one = at(1);
                assert_eq!(at(2), one, "{} n={n} par={par_chunks:?} width 2", prog.name);
                assert_eq!(at(4), one, "{} n={n} par={par_chunks:?} width 4", prog.name);
            }
        }
    }

    fn matvec_case(k: usize, exact: bool) -> (DslProgram, Vec<Buffer>) {
        let i = 5;
        let prog = DslBuilder::new("matvec", vec![i, k])
            .out_buffer("w", BasicType::F64)
            .out_access("w", IndexFn::select(2, &[0]))
            .inp_buffer("M", BasicType::F64)
            .inp_access("M", IndexFn::identity(2, 2))
            .inp_buffer("v", BasicType::F64)
            .inp_access("v", IndexFn::select(2, &[1]))
            .scalar_function(ScalarFunction::mul2(
                "f_mul",
                mdh_core::types::ScalarKind::F64,
            ))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap();
        let m = filled("M", BasicType::F64, vec![i, k], exact);
        let v = filled("v", BasicType::F64, vec![k], exact);
        (prog, vec![m, v])
    }

    #[test]
    fn fold_mode_builtin_across_block_boundaries() {
        // unsplit, and the reduction dim split three ways
        sweep(matvec_case, &[&[2, 1], &[2, 3]]);
    }

    fn id_w(prefix: &str) -> Vec<(String, BasicType)> {
        vec![
            (format!("{prefix}_id"), BasicType::I64),
            (format!("{prefix}_w"), BasicType::F64),
        ]
    }

    /// `res_id = <id>; res_w = <w>`.
    fn set_id_w(id: Expr, w: Expr) -> Vec<Stmt> {
        let assign = |name: &str, value| Stmt::Assign {
            name: name.into(),
            value,
        };
        vec![assign("res_id", id), assign("res_w", w)]
    }

    /// Leftmost maximum weight over `(id, w)` tuples: it only selects, so
    /// it rounds nothing and inexact data must match the reference too.
    fn argmax_fn() -> ScalarFunction {
        let ge = Expr::Bin(
            BinOp::Ge,
            Box::new(Expr::Param(1)),
            Box::new(Expr::Param(3)),
        );
        ScalarFunction {
            name: "argmax".into(),
            params: [id_w("lhs"), id_w("rhs")].concat(),
            results: id_w("res"),
            body: vec![Stmt::If {
                cond: ge,
                then_branch: set_id_w(Expr::Param(0), Expr::Param(1)),
                else_branch: set_id_w(Expr::Param(2), Expr::Param(3)),
            }],
        }
    }

    fn argmax() -> CombineOp {
        CombineOp::pw_custom(argmax_fn()).unwrap()
    }

    /// PRL-shaped: per query `n`, the id and weight of the heaviest of `i`
    /// candidates — `id = ids[i]`, `w = weights[n, i]`.
    fn argmax_case(n: usize, weights: Buffer) -> (DslProgram, Vec<Buffer>) {
        let i = weights.len() / n;
        let sf = ScalarFunction {
            name: "point".into(),
            params: vec![("id".into(), BasicType::I64), ("w".into(), BasicType::F64)],
            results: id_w("res"),
            body: set_id_w(Expr::Param(0), Expr::Param(1)),
        };
        let prog = DslBuilder::new("prl_like", vec![n, i])
            .out_buffer("match_id", BasicType::I64)
            .out_access("match_id", IndexFn::select(2, &[0]))
            .out_buffer("match_w", BasicType::F64)
            .out_access("match_w", IndexFn::select(2, &[0]))
            .inp_buffer("ids", BasicType::I64)
            .inp_access("ids", IndexFn::select(2, &[1]))
            .inp_buffer("weights", BasicType::F64)
            .inp_access("weights", IndexFn::identity(2, 2))
            .scalar_function(sf)
            .combine_ops(vec![CombineOp::cc(), argmax()])
            .build()
            .unwrap();
        let ids = Buffer::from_i64("ids", Shape::new(vec![i]), (0..i as i64).collect());
        (prog, vec![ids, weights])
    }

    /// Unsplit, the preserved dim split, the collapsed dim split (tuple-wide
    /// group combine), both.
    const SPLITS_2D: [&[usize]; 4] = [&[1, 1], &[3, 1], &[1, 5], &[2, 5]];

    /// Every schedule at every width reproduces the reference.
    fn assert_matches_reference(prog: &DslProgram, inputs: &[Buffer], schedules: &[&[usize]]) {
        let expect = evaluate_recursive(prog, inputs).unwrap();
        for &par_chunks in schedules {
            for width in [1, 2, 4] {
                let got = run_at(prog, inputs, par_chunks, width).unwrap();
                let sizes = &prog.md_hom.sizes;
                assert_eq!(got, expect, "{sizes:?} par={par_chunks:?} width={width}");
            }
        }
    }

    #[test]
    fn fold_mode_custom_tuple_across_block_boundaries() {
        // either dim can carry the lanes: both straddle every boundary
        for n in SWEEP {
            for i in SWEEP {
                for exact in [true, false] {
                    let weights = filled("weights", BasicType::F64, vec![n, i], exact);
                    let (prog, inputs) = argmax_case(n, weights);
                    assert_matches_reference(&prog, &inputs, &SPLITS_2D);
                }
            }
        }
    }

    #[test]
    fn fold_mode_custom_tuple_keeps_the_leftmost_of_equal_weights() {
        // three distinct weights over 67 candidates: nearly every step is
        // a tie, and only the ascending chain keeps the leftmost id
        let (n, i) = (LANES + 1, 2 * LANES + 3);
        let mut weights = Buffer::zeros("weights", BasicType::F64, Shape::new(vec![n, i]));
        weights.fill_with(|f| ((f * 7919) % 3) as f64);
        let (prog, inputs) = argmax_case(n, weights);
        assert_matches_reference(&prog, &inputs, &SPLITS_2D);
    }

    #[test]
    fn fold_mode_custom_tuple_agrees_on_both_sides_of_the_lane_threshold() {
        // the same rows as outputs-in-lanes (one task owns them all) and
        // as chains (split until no task owns enough of them)
        for n in [OUTPUT_LANES_MIN - 1, OUTPUT_LANES_MIN] {
            let weights = filled("weights", BasicType::F64, vec![n, LANES + 7], false);
            let (prog, inputs) = argmax_case(n, weights);
            assert_matches_reference(&prog, &inputs, &[&[1, 1], &[2, 1], &[1, 3]]);
        }
    }

    #[test]
    fn fold_mode_custom_tuple_in_4d_with_every_lane_step() {
        // cc over (a, b), argmax over (c, d). With the lanes along b the
        // operands step 0 (ids[c, d]), 1 (u[a, c, d, b]) and C·D
        // (v[a, b, c, d]); with them along d, 1, B and 1.
        let (a, b, c, d) = (3, LANES + 5, 3, 5);
        let at = |dims: &[usize]| IndexFn::select(4, dims);
        let sf = ScalarFunction {
            name: "point".into(),
            params: vec![
                ("id".into(), BasicType::I64),
                ("u".into(), BasicType::F64),
                ("v".into(), BasicType::F64),
            ],
            results: id_w("res"),
            body: set_id_w(Expr::Param(0), Expr::mul(Expr::Param(1), Expr::Param(2))),
        };
        let prog = DslBuilder::new("argmax4d", vec![a, b, c, d])
            .out_buffer("match_id", BasicType::I64)
            .out_access("match_id", at(&[0, 1]))
            .out_buffer("match_w", BasicType::F64)
            .out_access("match_w", at(&[0, 1]))
            .inp_buffer("ids", BasicType::I64)
            .inp_access("ids", at(&[2, 3]))
            .inp_buffer("u", BasicType::F64)
            .inp_access("u", at(&[0, 2, 3, 1]))
            .inp_buffer("v", BasicType::F64)
            .inp_access("v", IndexFn::identity(4, 4))
            .scalar_function(sf)
            .combine_ops(vec![CombineOp::cc(), CombineOp::cc(), argmax(), argmax()])
            .build()
            .unwrap();
        let ids = Buffer::from_i64("ids", Shape::new(vec![c, d]), (0..(c * d) as i64).collect());
        let inputs = vec![
            ids,
            filled("u", BasicType::F64, vec![a, c, d, b], false),
            filled("v", BasicType::F64, vec![a, b, c, d], false),
        ];
        let schedules: [&[usize]; 5] = [
            &[1, 1, 1, 1],
            &[2, 3, 1, 1],
            &[1, 1, 2, 1],
            &[1, 1, 1, 3],
            &[2, 8, 2, 2],
        ];
        assert_matches_reference(&prog, &inputs, &schedules);
    }

    #[test]
    fn an_operand_that_does_not_move_survives_a_function_assigning_to_its_name() {
        // `q = q + w; res_w = q * Param(q)` with `q = qs[n]` the same
        // element at every candidate: its register is loaded once per lane
        // block, so nothing the function does may disturb it
        let (n, i) = (LANES + 3, 9);
        let sf = ScalarFunction {
            name: "shadow".into(),
            params: vec![
                ("id".into(), BasicType::I64),
                ("w".into(), BasicType::F64),
                ("q".into(), BasicType::F64),
            ],
            results: id_w("res"),
            body: [
                vec![Stmt::Assign {
                    name: "q".into(),
                    value: Expr::add(Expr::var("q"), Expr::Param(1)),
                }],
                set_id_w(Expr::Param(0), Expr::mul(Expr::var("q"), Expr::Param(2))),
            ]
            .concat(),
        };
        let prog = DslBuilder::new("shadowed", vec![n, i])
            .out_buffer("match_id", BasicType::I64)
            .out_access("match_id", IndexFn::select(2, &[0]))
            .out_buffer("match_w", BasicType::F64)
            .out_access("match_w", IndexFn::select(2, &[0]))
            .inp_buffer("ids", BasicType::I64)
            .inp_access("ids", IndexFn::select(2, &[1]))
            .inp_buffer("weights", BasicType::F64)
            .inp_access("weights", IndexFn::identity(2, 2))
            .inp_buffer("qs", BasicType::F64)
            .inp_access("qs", IndexFn::select(2, &[0]))
            .scalar_function(sf)
            .combine_ops(vec![CombineOp::cc(), argmax()])
            .build()
            .unwrap();
        let inputs = vec![
            Buffer::from_i64("ids", Shape::new(vec![i]), (0..i as i64).collect()),
            filled("weights", BasicType::F64, vec![n, i], false),
            filled("qs", BasicType::F64, vec![n], false),
        ];
        assert_matches_reference(&prog, &inputs, &[&[1, 1], &[1, 2]]);
    }

    /// `y = x` under `ops`, every buffer of `kind`, the output indexed by
    /// the dims `out` selects.
    fn identity_case(
        kind: ScalarKind,
        sizes: &[usize],
        ops: Vec<CombineOp>,
        out: &[usize],
    ) -> DslProgram {
        let rank = sizes.len();
        DslBuilder::new("typed", sizes.to_vec())
            .out_buffer("y", kind.into())
            .out_access("y", IndexFn::select(rank, out))
            .inp_buffer("x", kind.into())
            .inp_access("x", IndexFn::identity(rank, rank))
            .scalar_function(ScalarFunction::identity("id", kind))
            .combine_ops(ops)
            .build()
            .unwrap()
    }

    /// `identity_case` with an input filled by `filled`.
    fn identity_with_input(
        kind: ScalarKind,
        sizes: &[usize],
        ops: Vec<CombineOp>,
        out: &[usize],
        exact: bool,
    ) -> (DslProgram, Vec<Buffer>) {
        let x = filled("x", kind.into(), sizes.to_vec(), exact);
        (identity_case(kind, sizes, ops, out), vec![x])
    }

    /// MBBS-like: ps(add) over i, pw(add) over the blocked j.
    fn scan_fold_case(j: usize, exact: bool) -> (DslProgram, Vec<Buffer>) {
        let ops = vec![CombineOp::ps_add(), CombineOp::pw_add()];
        identity_with_input(ScalarKind::F64, &[9, j], ops, &[0], exact)
    }

    /// A batch of scans: cc over b, ps(add) over the blocked i — lines
    /// are stored, not folded, and the scan axis has a stride.
    fn scan_lines_case(i: usize, exact: bool) -> (DslProgram, Vec<Buffer>) {
        let ops = vec![CombineOp::ps_add(), CombineOp::cc()];
        identity_with_input(ScalarKind::F32, &[i, 3], ops, &[0, 1], exact)
    }

    /// `ps(add)` over the blocked dimension itself.
    fn scan_1d_case(n: usize, exact: bool) -> (DslProgram, Vec<Buffer>) {
        identity_with_input(
            ScalarKind::F64,
            &[n],
            vec![CombineOp::ps_add()],
            &[0],
            exact,
        )
    }

    #[test]
    fn scan_mode_across_block_boundaries() {
        // unsplit, and the scan dim split across three carry-folded tasks
        sweep(scan_fold_case, &[&[1, 1], &[3, 1]]);
        sweep(scan_lines_case, &[&[1, 1], &[3, 1], &[2, 3]]);
        sweep(scan_1d_case, &[&[1], &[3]]);
    }

    /// `res = lhs ⊗ rhs` as a combine function: builtin `op`'s operator,
    /// run through the per-tuple `Combiner::Vm` path.
    fn as_function(op: BuiltinReduce, kind: ScalarKind) -> PwFunc {
        let res = |value| {
            vec![Stmt::Assign {
                name: "res".into(),
                value,
            }]
        };
        let body = match op {
            BuiltinReduce::Add => res(Expr::add(Expr::Param(0), Expr::Param(1))),
            BuiltinReduce::Max if kind.is_float() => res(Expr::Call(
                MathFn::Max,
                vec![Expr::Param(0), Expr::Param(1)],
            )),
            BuiltinReduce::Max => vec![Stmt::If {
                cond: Expr::Bin(
                    BinOp::Ge,
                    Box::new(Expr::Param(0)),
                    Box::new(Expr::Param(1)),
                ),
                then_branch: res(Expr::Param(0)),
                else_branch: res(Expr::Param(1)),
            }],
            _ => unimplemented!("the operators under test"),
        };
        PwFunc::custom(ScalarFunction {
            name: format!("{op}_fn"),
            params: vec![("lhs".into(), kind.into()), ("rhs".into(), kind.into())],
            results: vec![("res".into(), kind.into())],
            body,
        })
        .unwrap()
    }

    /// Builtin combines run as one typed loop per partial column; the same
    /// operator written as a combine function steps one tuple at a time.
    /// `ps(add)` and `ps(max)` over f64 and i64 along a strided and a unit
    /// scan axis (the local scan, and the carry-fold once split), and a split
    /// f64 `pw(add)` (the group combine), each at 1 / 2 / 4 chunks, on
    /// inexact data, on `-0.0`, and with a NaN: the same bits either way.
    #[test]
    fn builtin_combines_equal_the_same_operator_as_a_combine_function() {
        type Fill = (&'static str, fn(&mut Buffer));
        let fills: [Fill; 3] = [
            ("inexact", |_| {}),
            ("-0.0", |b| b.fill_with(|_| -0.0)),
            ("NaN", |b| {
                if let Some(v) = b.as_f64_mut() {
                    v[7] = f64::NAN;
                }
            }),
        ];
        let mut cases = 0;
        for kind in [ScalarKind::F64, ScalarKind::I64] {
            for op in [BuiltinReduce::Add, BuiltinReduce::Max] {
                let scans: [(&[usize], &[usize]); 2] = [(&[19, 3], &[0, 1]), (&[37], &[0])];
                for (sizes, out) in scans {
                    let ops = |f: PwFunc| {
                        let cc = std::iter::repeat_n(CombineOp::cc(), sizes.len() - 1);
                        std::iter::once(CombineOp::Ps(f)).chain(cc).collect()
                    };
                    let builtin = identity_case(kind, sizes, ops(PwFunc::builtin(op)), out);
                    let function = identity_case(kind, sizes, ops(as_function(op, kind)), out);
                    for (fill, alter) in fills.iter().take(if kind.is_float() { 3 } else { 1 }) {
                        let mut x = filled("x", kind.into(), sizes.to_vec(), false);
                        alter(&mut x);
                        for chunks in [1, 2, 4] {
                            let mut par = vec![1; sizes.len()];
                            par[0] = chunks;
                            let run = |p| bits_hash(&run_at(p, &[x.clone()], &par, 2).unwrap());
                            let at = format!("ps({op}) {kind} {sizes:?} {fill} chunks={chunks}");
                            assert_eq!(run(&builtin), run(&function), "{at}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        let kind = ScalarKind::F64;
        let ops = |f| vec![CombineOp::cc(), CombineOp::Pw(f)];
        let builtin = identity_case(
            kind,
            &[5, 37],
            ops(PwFunc::builtin(BuiltinReduce::Add)),
            &[0],
        );
        let function = identity_case(
            kind,
            &[5, 37],
            ops(as_function(BuiltinReduce::Add, kind)),
            &[0],
        );
        for (fill, alter) in &fills {
            let mut x = filled("x", kind.into(), vec![5, 37], false);
            alter(&mut x);
            for chunks in [1, 2, 4] {
                let run = |p| bits_hash(&run_at(p, &[x.clone()], &[1, chunks], 2).unwrap());
                assert_eq!(
                    run(&builtin),
                    run(&function),
                    "pw(add) {fill} chunks={chunks}"
                );
                cases += 1;
            }
        }
        assert_eq!(cases, (2 * 2 * 3 + 2 * 2) * 3 + 3 * 3);
    }

    /// A split custom scan is bit-identical to the unsplit one and to the
    /// reference: the running leftmost argmax over `(id, w)` on tie-heavy
    /// weights (the function is not commutative), along either axis of a
    /// 2-D space whose other, preserved axis has extent 3, the scan cut
    /// into 1 ..= 5 chunks, the other axis into 1 and 2.
    #[test]
    fn split_custom_scan_is_bit_identical_to_the_unsplit_scan() {
        let (n, other) = (23, 3);
        for sd in [0, 1] {
            let mut sizes = vec![other; 2];
            sizes[sd] = n;
            let mut ops = vec![CombineOp::cc(); 2];
            ops[sd] = CombineOp::ps_custom(argmax_fn()).unwrap();
            let sf = ScalarFunction {
                name: "point".into(),
                params: vec![("id".into(), BasicType::I64), ("w".into(), BasicType::F64)],
                results: id_w("res"),
                body: set_id_w(Expr::Param(0), Expr::Param(1)),
            };
            let prog = DslBuilder::new("running_argmax", sizes.clone())
                .out_buffer("run_id", BasicType::I64)
                .out_access("run_id", IndexFn::identity(2, 2))
                .out_buffer("run_w", BasicType::F64)
                .out_access("run_w", IndexFn::identity(2, 2))
                .inp_buffer("ids", BasicType::I64)
                .inp_access("ids", IndexFn::select(2, &[sd]))
                .inp_buffer("weights", BasicType::F64)
                .inp_access("weights", IndexFn::identity(2, 2))
                .scalar_function(sf)
                .combine_ops(ops)
                .build()
                .unwrap();
            let ids = Buffer::from_i64("ids", Shape::new(vec![n]), (0..n as i64).collect());
            let mut weights = Buffer::zeros("weights", BasicType::F64, Shape::new(sizes));
            weights.fill_with(|f| ((f * 7) % 5) as f64 * 0.3);
            let inputs = [ids, weights];
            let expect = bits_hash(&evaluate_recursive(&prog, &inputs).unwrap());
            for chunks in 1..=5 {
                for other_chunks in [1, 2] {
                    let mut par = vec![other_chunks; 2];
                    par[sd] = chunks;
                    for width in [1, 2] {
                        let got = bits_hash(&run_at(&prog, &inputs, &par, width).unwrap());
                        assert_eq!(got, expect, "scan dim {sd} par={par:?} width={width}");
                    }
                }
            }
        }
    }

    /// The scans the builtin scan kernel declines keep the route they had
    /// before it — the VM's scan mode, or the reference evaluator where
    /// the VM refuses too — and the kernel's reason names the cause.
    #[test]
    fn scans_the_scan_kernel_declines_keep_their_route_and_say_why() {
        use crate::cpu::{ExecPath, Route};
        use crate::fast;
        let (ps, pw) = (CombineOp::ps_add(), CombineOp::pw_add());
        let scan = |kind, ops| identity_case(kind, &[9, 4], ops, &[0]);
        let f64_scan = |ops| scan(ScalarKind::F64, ops);
        let custom = CombineOp::Ps(as_function(BuiltinReduce::Add, ScalarKind::F64));
        let mut doubled = f64_scan(vec![ps.clone(), pw.clone()]);
        doubled.md_hom.sf = ScalarFunction::weighted_sum("twice", ScalarKind::F64, &[2.0]).into();
        let late = identity_case(ScalarKind::F64, &[4, 9], vec![pw.clone(), ps.clone()], &[1]);
        let cases = [
            (
                f64_scan(vec![custom, pw.clone()]),
                ExecPath::Vm,
                "by a function",
            ),
            (
                scan(ScalarKind::I64, vec![ps.clone(), pw.clone()]),
                ExecPath::Vm,
                "neither f32 nor f64",
            ),
            (late, ExecPath::Reference, "after a pw dimension"),
            (doubled, ExecPath::Vm, "not the strict identity"),
        ];
        for (prog, path, cause) in cases {
            let why = fast::classify(&prog).err().unwrap_or_default();
            assert!(why.contains(cause), "{cause}: {why}");
            let route = Route::of(&prog);
            assert_eq!(route.path(), path, "{cause}: {route}");
        }
        assert_eq!(Route::of(&f64_scan(vec![ps, pw])).to_string(), "fast");
    }

    #[test]
    fn scan_mode_rejects_split_pw() {
        let (prog, inputs) = scan_fold_case(4, true);
        assert!(run_at(&prog, &inputs, &[1, 2], 4).is_err());
    }

    /// A general key over `buckets` at point `(r, c)`: `(131·r + step·c)
    /// mod buckets`.
    fn key(buckets: usize, step: usize) -> IndexFn {
        IndexFn::General {
            out_rank: 1,
            f: std::sync::Arc::new(move |idx: &[usize], out: &mut [usize]| {
                out[0] = (idx[0] * 131 + idx[1] * step) % buckets
            }),
            label: format!("key{step}"),
        }
    }

    /// The rbi programs below are `rows × cols`, both dims `rbi(add)`: the
    /// rows are rbi mode's chunks, the blocked dimension is a row.
    fn rbi_finish(
        b: DslBuilder,
        kind: ScalarKind,
        sf: ScalarFunction,
        exact: bool,
    ) -> (DslProgram, Vec<Buffer>) {
        let prog = b
            .inp_buffer("w", kind.into())
            .inp_access("w", IndexFn::identity(2, 2))
            .scalar_function(sf)
            .combine_ops(vec![CombineOp::rbi_add(), CombineOp::rbi_add()])
            .build()
            .unwrap();
        let dims = prog.md_hom.sizes.clone();
        (prog, vec![filled("w", kind.into(), dims, exact)])
    }

    /// A 2-D histogram: `hist[key(r, c)] += w[r, c]`.
    fn rbi_case(cols: usize, exact: bool) -> (DslProgram, Vec<Buffer>) {
        let b = DslBuilder::new("rbi", vec![4, cols])
            .out_buffer_with_shape("hist", BasicType::F32, vec![5])
            .out_access("hist", key(5, 7));
        rbi_finish(
            b,
            ScalarKind::F32,
            ScalarFunction::identity("id", ScalarKind::F32),
            exact,
        )
    }

    /// `hist[r + c + offset] += w[r, c]`: an affine output access.
    fn rbi_affine_case(cols: usize, exact: bool, offset: i64) -> (DslProgram, Vec<Buffer>) {
        let b = DslBuilder::new("rbi", vec![4, cols])
            .out_buffer_with_shape("hist", BasicType::F32, vec![4 + cols])
            .out_access(
                "hist",
                IndexFn::affine(vec![AffineExpr::new(vec![1, 1], offset)]),
            );
        rbi_finish(
            b,
            ScalarKind::F32,
            ScalarFunction::identity("id", ScalarKind::F32),
            exact,
        )
    }

    /// Two results, `w` and `w + w`, scattered by two keys into two
    /// buffers (`I32`), or both into one (`F64`): there the adds of the
    /// two accesses interleave point by point.
    fn rbi_pair_case(cols: usize, exact: bool, shared: bool) -> (DslProgram, Vec<Buffer>) {
        let buckets = 7;
        let kind = if shared {
            ScalarKind::F64
        } else {
            ScalarKind::I32
        };
        let mut b = DslBuilder::new("rbi", vec![3, cols]).out_buffer_with_shape(
            "hist",
            kind.into(),
            vec![buckets],
        );
        let second = if shared {
            "hist"
        } else {
            b = b.out_buffer_with_shape("hist2", kind.into(), vec![buckets]);
            "hist2"
        };
        let b = b
            .out_access("hist", key(buckets, 7))
            .out_access(second, key(buckets, 3));
        rbi_finish(b, kind, doubled(kind), exact)
    }

    /// Two results: `w` and `w + w`.
    fn doubled(kind: ScalarKind) -> ScalarFunction {
        let mut sf = ScalarFunction::identity("id", kind);
        sf.results.push(("twice".into(), kind.into()));
        sf.body.push(Stmt::Assign {
            name: "twice".into(),
            value: Expr::add(Expr::Param(0), Expr::Param(0)),
        });
        sf
    }

    /// `eval::scatter_range` over rbi mode's decomposition: one call per
    /// chunk interval, the partials merged by the same tree.
    fn rbi_oracle(prog: &DslProgram, inputs: &[Buffer]) -> Result<Vec<Buffer>> {
        let full = prog.md_hom.full_range();
        let parts = split_even(prog.md_hom.sizes[0], RBI_CHUNKS)
            .into_iter()
            .map(|(lo, hi)| {
                let mut range = full.clone();
                range.lo[0] = lo;
                range.hi[0] = hi;
                let mut outs = eval::alloc_outputs(prog)?;
                eval::scatter_range(prog, inputs, &range, &mut outs)?;
                Ok(outs)
            })
            .collect::<Result<_>>()?;
        pairwise_sum(parts)
    }

    #[test]
    fn rbi_mode_equals_the_oracle_over_its_chunks_at_every_block_tail() {
        type Case = fn(usize, bool) -> (DslProgram, Vec<Buffer>);
        let cases: [(&str, Case); 4] = [
            ("general key", rbi_case),
            ("affine", |n, exact| rbi_affine_case(n, exact, 0)),
            ("two buffers", |n, exact| rbi_pair_case(n, exact, false)),
            ("one buffer twice", |n, exact| rbi_pair_case(n, exact, true)),
        ];
        for (what, case) in cases {
            for n in SWEEP {
                for exact in [true, false] {
                    let (prog, inputs) = case(n, exact);
                    let want = bits_hash(&rbi_oracle(&prog, &inputs).unwrap());
                    for width in [1, 2, 4] {
                        let got = run_at(&prog, &inputs, &[1, 1], width).unwrap();
                        let at = format!("{what} n={n} exact={exact} width={width}");
                        assert_eq!(bits_hash(&got), want, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn rbi_mode_reports_the_oracles_scatter_errors() {
        // a general key past the end of its buffer
        let oob = DslBuilder::new("oob", vec![8])
            .out_buffer_with_shape("hist", BasicType::F32, vec![4])
            .out_access(
                "hist",
                IndexFn::General {
                    out_rank: 1,
                    f: std::sync::Arc::new(|idx: &[usize], out: &mut [usize]| out[0] = idx[0]),
                    label: "key".into(),
                },
            )
            .inp_buffer("w", BasicType::F32)
            .inp_access("w", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F32))
            .combine_ops(vec![CombineOp::rbi_add()])
            .build()
            .unwrap();
        let oob = (oob, vec![filled("w", BasicType::F32, vec![8], true)]);
        // an affine access whose offset goes below zero at (0, 0)
        let negative = rbi_affine_case(LANES + 1, true, -2);
        // two accesses failing in one block: the first past the end from
        // (0, 5) on, the second below zero from (0, 3) on, so the second
        // one's error comes first
        let late = IndexFn::General {
            out_rank: 1,
            f: std::sync::Arc::new(|idx: &[usize], out: &mut [usize]| {
                out[0] = if idx[1] >= 5 { 9 } else { 0 }
            }),
            label: "late".into(),
        };
        let b = DslBuilder::new("rbi", vec![3, LANES])
            .out_buffer_with_shape("hist", BasicType::F64, vec![4])
            .out_access("hist", late)
            .out_access(
                "hist",
                IndexFn::affine(vec![AffineExpr::new(vec![0, -1], 2)]),
            );
        let both = rbi_finish(b, ScalarKind::F64, doubled(ScalarKind::F64), true);
        for (prog, inputs) in [oob, negative, both] {
            let want = evaluate_recursive(&prog, &inputs).unwrap_err();
            let got = run_at(&prog, &inputs, &[1, 1], 2).unwrap_err();
            assert_eq!(got.to_string(), want.to_string());
        }
    }

    #[test]
    fn applicability_checks() {
        assert!(classify(&matvec_case(4, true).0).is_ok());
        assert!(classify(&scan_1d_case(4, true).0).is_ok());
        // rbi: the output access may be data-dependent…
        assert!(classify(&rbi_case(4, true).0).is_ok());
        // …but an input gather through a general index function may not
        let gather = DslBuilder::new("gather", vec![4])
            .out_buffer("y", BasicType::F32)
            .out_access("y", IndexFn::identity(1, 1))
            .inp_buffer_with_shape("t", BasicType::F32, vec![4])
            .inp_access(
                "t",
                IndexFn::General {
                    out_rank: 1,
                    f: std::sync::Arc::new(|idx: &[usize], out: &mut [usize]| out[0] = 3 - idx[0]),
                    label: "rev".into(),
                },
            )
            .scalar_function(ScalarFunction::identity(
                "id",
                mdh_core::types::ScalarKind::F32,
            ))
            .combine_ops(vec![CombineOp::cc()])
            .build()
            .unwrap();
        assert!(classify(&gather).is_err());
    }
}
