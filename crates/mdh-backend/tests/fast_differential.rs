//! Differential proof of the fast path's bit-identity contract.
//!
//! The fast kernels promise: for any eligible program and any FIXED
//! execution plan, their output is bitwise equal to `vm_exec` on that
//! same plan, at every pool width. This harness generates random affine
//! `cc`/`pw` contraction programs over f32 and over f64 (including
//! reduction-free products: the AD adjoint shapes), and random
//! weighted-sum map programs
//! (including sums under one literal scale: Jacobi1D's shape), and
//! random builtin scans over f32 and f64 (with signed zeros and NaNs) — with
//! deliberately inexact (non-binary-float) fills, so any fold-order
//! deviation must surface as a bit difference — and checks the kernel
//! against the VM under pool widths 1, 2, and 4.
//!
//! Schedules are randomized too: per-dim parallel chunking (exercising
//! the split-reduction group combine) and per-dim tile sizes (which no
//! CPU engine reads any more: a plan's tiles must not move a bit).

use mdh_backend::fast;
use mdh_backend::fast::line::LANES;
use mdh_backend::vm_exec;
use mdh_core::buffer::{Buffer, BufferData};
use mdh_core::combine::{BuiltinReduce, CombineOp, PwFunc};
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::expr::{Expr, ScalarFunction, Stmt};
use mdh_core::index_fn::{AffineExpr, IndexFn};
use mdh_core::shape::Shape;
use mdh_core::types::{BasicType, ScalarKind, Value};
use mdh_lowering::plan::ExecutionPlan;
use mdh_lowering::schedule::{ReductionStrategy, Schedule};
use mdh_lowering::DeviceKind;
use proptest::prelude::*;

fn shared_base() -> &'static mdh_backend::CpuExecutor {
    static POOL: std::sync::OnceLock<mdh_backend::CpuExecutor> = std::sync::OnceLock::new();
    POOL.get_or_init(|| mdh_backend::CpuExecutor::new(4).expect("pool"))
}

/// Bitwise output equality (distinguishes -0.0/0.0, compares NaN bits).
fn bits_eq(a: &[Buffer], b: &[Buffer]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (&x.data, &y.data) {
            (BufferData::F32(p), BufferData::F32(q)) => {
                p.len() == q.len() && p.iter().zip(q).all(|(s, t)| s.to_bits() == t.to_bits())
            }
            (BufferData::F64(p), BufferData::F64(q)) => {
                p.len() == q.len() && p.iter().zip(q).all(|(s, t)| s.to_bits() == t.to_bits())
            }
            (p, q) => p == q,
        })
}

/// Inexact, position-dependent fill: 0.1*k is not a binary float, so a
/// reassociated fold changes low-order bits.
fn inexact_fill(buf: &mut Buffer, salt: usize) {
    buf.fill_with(move |i| {
        let k = i.wrapping_add(salt).wrapping_mul(2654435761) % 1000;
        k as f64 * 0.1 - 31.7
    });
}

/// The proptest shim has no `prop_flat_map`, so strategies generate all
/// dimension-indexed material at `MAX_RANK` and truncate to the drawn
/// rank in `prop_map`.
const MAX_RANK: usize = 3;
const TILE_CHOICES: [usize; 5] = [1, 2, 4, 8, 64];
const WEIGHT_CHOICES: [f64; 5] = [1.0, 0.1, 0.25, 0.333, -2.5];

/// One random affine access: coefficients per iteration dim plus a
/// constant, one expr per buffer dim.
#[derive(Debug, Clone)]
struct RandAccess {
    exprs: Vec<(Vec<i64>, i64)>,
}

impl RandAccess {
    fn truncated(&self, rank: usize) -> RandAccess {
        RandAccess {
            exprs: self
                .exprs
                .iter()
                .map(|(c, k)| (c[..rank].to_vec(), *k))
                .collect(),
        }
    }

    fn index_fn(&self) -> IndexFn {
        IndexFn::affine(
            self.exprs
                .iter()
                .map(|(c, k)| AffineExpr::new(c.clone(), *k))
                .collect(),
        )
    }

    /// Smallest buffer shape covering the access over `sizes`.
    fn buffer_shape(&self, sizes: &[usize]) -> Vec<usize> {
        self.exprs
            .iter()
            .map(|(coeffs, constant)| {
                let hi: i64 = coeffs
                    .iter()
                    .zip(sizes)
                    .map(|(&c, &s)| (c * (s as i64 - 1)).max(0))
                    .sum::<i64>()
                    + constant;
                (hi + 1) as usize
            })
            .collect()
    }

    /// Step by exactly 1 along iteration dim `d`: only the last buffer
    /// dim moves with it, one element per point.
    fn with_unit_step(mut self, d: usize) -> RandAccess {
        let last = self.exprs.len() - 1;
        for (k, (coeffs, _)) in self.exprs.iter_mut().enumerate() {
            coeffs[d] = (k == last) as i64;
        }
        self
    }

    /// The same footprint walked backwards along iteration dim `d`.
    fn reversed(mut self, d: usize, size: usize) -> RandAccess {
        for (coeffs, constant) in &mut self.exprs {
            *constant += coeffs[d] * (size as i64 - 1);
            coeffs[d] = -coeffs[d];
        }
        self
    }
}

fn rand_access() -> impl Strategy<Value = RandAccess> {
    prop::collection::vec((prop::collection::vec(0i64..3, MAX_RANK), 0i64..3), 1..=2)
        .prop_map(|exprs| RandAccess { exprs })
}

#[derive(Debug, Clone)]
struct ContractionCase {
    sizes: Vec<usize>,
    /// Bitmask of pw (reduced) dims; 0 is a reduction-free product.
    pw_mask: usize,
    acc0: RandAccess,
    acc1: RandAccess,
    tiles: Vec<usize>,
    chunks: Vec<usize>,
    salt: usize,
}

impl ContractionCase {
    /// The case rearranged for the blocked nest, where the accumulates
    /// run: with rank 3 the last dim is the only reduced one, and of the
    /// two preserved dims `x0` moves alone on the first and `x1` alone on
    /// the second — a MatMul under whatever strides were drawn. The
    /// random draw reaches that nest in few cases.
    fn blocked(mut self) -> ContractionCase {
        if self.sizes.len() != 3 {
            return self;
        }
        self.pw_mask = 0b100;
        for (acc, own, other) in [(&mut self.acc0, 0, 1), (&mut self.acc1, 1, 0)] {
            for (coeffs, _) in &mut acc.exprs {
                coeffs[other] = 0;
            }
            let c = &mut acc.exprs[0].0[own];
            *c = (*c).max(1);
        }
        self
    }
}

/// `fast/contraction.rs`'s K block (`KC`, crate-private): the generator
/// must reach past it, so a change there belongs here too.
const K_BLOCK: usize = 256;

/// Extents are small, except that a quarter of the cases stretch one
/// preserved extent past four `Line`s and the innermost collapsed extent
/// past one K block — the register-tile, panel and K-block boundaries of
/// the blocked nest, under whatever strides the accesses drew.
fn contraction_case() -> impl Strategy<Value = ContractionCase> {
    (
        1usize..=MAX_RANK,
        prop::collection::vec(2usize..=7, MAX_RANK),
        0usize..(1 << MAX_RANK),
        rand_access(),
        rand_access(),
        prop::collection::vec(0usize..TILE_CHOICES.len(), MAX_RANK),
        prop::collection::vec(1usize..=2, MAX_RANK),
        (
            0usize..1000,
            0usize..4,
            2usize..=4 * LANES + 3,
            2usize..=K_BLOCK + 3,
        ),
    )
        .prop_map(
            |(rank, sizes, mask, acc0, acc1, tiles, chunks, (salt, stretch, wide, deep))| {
                let pw_mask = mask & ((1 << rank) - 1);
                let mut sizes = sizes[..rank].to_vec();
                if stretch == 0 {
                    let is_pw = |d: &usize| pw_mask >> d & 1 == 1;
                    if let Some(d) = (0..rank).rev().find(|d| !is_pw(d)) {
                        sizes[d] = wide;
                    }
                    if let Some(d) = (0..rank).rev().find(is_pw) {
                        sizes[d] = deep;
                    }
                }
                ContractionCase {
                    sizes,
                    pw_mask,
                    acc0: acc0.truncated(rank),
                    acc1: acc1.truncated(rank),
                    tiles: tiles[..rank].iter().map(|&t| TILE_CHOICES[t]).collect(),
                    chunks: chunks[..rank].to_vec(),
                    salt,
                }
            },
        )
}

/// `res = Σ x0 * x1` with every buffer of element type `elem`.
fn build_contraction(case: &ContractionCase, elem: ScalarKind) -> DslProgram {
    let rank = case.sizes.len();
    let ops: Vec<CombineOp> = (0..rank)
        .map(|d| {
            if case.pw_mask >> d & 1 == 1 {
                CombineOp::pw_add()
            } else {
                CombineOp::cc()
            }
        })
        .collect();
    let preserved: Vec<usize> = (0..rank).filter(|d| case.pw_mask >> d & 1 == 0).collect();
    let mut b = DslBuilder::new("rand_contraction", case.sizes.clone());
    b = if preserved.is_empty() {
        b.out_buffer_with_shape("res", elem.into(), vec![1])
            .out_access(
                "res",
                IndexFn::affine(vec![AffineExpr::new(vec![0; rank], 0)]),
            )
    } else {
        b.out_buffer("res", elem.into())
            .out_access("res", IndexFn::select(rank, &preserved))
    };
    b.inp_buffer("x0", elem.into())
        .inp_access("x0", case.acc0.index_fn())
        .inp_buffer("x1", elem.into())
        .inp_access("x1", case.acc1.index_fn())
        .scalar_function(ScalarFunction::mul2("f_mul", elem))
        .combine_ops(ops)
        .build()
        .expect("valid random contraction")
}

#[derive(Debug, Clone)]
struct MapCase {
    sizes: Vec<usize>,
    accs: Vec<RandAccess>,
    weights: Vec<f64>,
    /// Weights are f64 literals, not f32 ones.
    f64_weights: bool,
    scale: Scale,
    tiles: Vec<usize>,
    chunks: Vec<usize>,
    salt: usize,
}

/// The literal factor around the whole sum, if any: either orientation,
/// f32 or f64 literal (an f32 literal widens exactly in the VM).
#[derive(Debug, Clone)]
enum Scale {
    None,
    Left(Value),
    Right(Value),
}

const SCALE_CHOICES: [Scale; 6] = [
    Scale::None,
    Scale::None,
    Scale::Left(Value::F64(0.333)),
    Scale::Right(Value::F64(0.333)),
    Scale::Left(Value::F32(0.1)),
    Scale::Right(Value::F32(-2.5)),
];

/// Points per iteration of the widest vector loop LLVM emits for a map
/// row: 8 f64 lanes interleaved four times is 32 on AVX-512; 64 leaves
/// room.
const WIDEST_ROW_LOOP: usize = 64;

/// Sums of every term count the map kernel has an arm for, and one more
/// (its run-time-count arm). Rows run from one point to past twice the
/// widest vector loop. Half the cases step every term by 1 along the row
/// (the map kernel's slice loads); in the rest each term keeps its drawn
/// step — 0, 2, a multiple of an outer extent — or walks it backwards
/// (the offset-computing loads).
///
/// An f32 literal times a widened f32 is exact in f64, so on those
/// weights a fused multiply-add equals the separate multiply and add. An
/// eighth of the cases are `w·x - w·x` over one access, read through two
/// equal buffers, with an f64 literal `w`: separately rounded, the terms
/// cancel to 0; fused, the product's rounding error survives, far above
/// the f32 rounding.
fn map_case() -> impl Strategy<Value = MapCase> {
    const MAX_TERMS: usize = fast::MAP_ARMS + 1;
    (
        1usize..=MAX_RANK,
        prop::collection::vec(2usize..=7, MAX_RANK),
        prop::collection::vec(rand_access(), 1..=MAX_TERMS),
        prop::collection::vec(0usize..WEIGHT_CHOICES.len(), MAX_TERMS),
        0usize..SCALE_CHOICES.len(),
        prop::collection::vec(0usize..TILE_CHOICES.len(), MAX_RANK),
        prop::collection::vec(1usize..=2, MAX_RANK),
        (
            0usize..1000,
            1usize..=2 * WIDEST_ROW_LOOP + 3,
            any::<bool>(),
            prop::collection::vec(any::<bool>(), MAX_TERMS),
            0usize..8,
        ),
    )
        .prop_map(
            |(
                rank,
                sizes,
                accs,
                weights,
                scale,
                tiles,
                chunks,
                (salt, row, unit, reversed, form),
            )| {
                let mut sizes = sizes[..rank].to_vec();
                sizes[rank - 1] = row;
                let mut chunks = chunks[..rank].to_vec();
                chunks[rank - 1] = chunks[rank - 1].min(row);
                let accs: Vec<RandAccess> = accs
                    .iter()
                    .zip(reversed)
                    .map(|(a, rev)| {
                        let a = a.truncated(rank);
                        if unit {
                            a.with_unit_step(rank - 1)
                        } else if rev {
                            a.reversed(rank - 1, row)
                        } else {
                            a
                        }
                    })
                    .collect();
                let mut weights: Vec<f64> = weights.iter().map(|&w| WEIGHT_CHOICES[w]).collect();
                let (accs, f64_weights) = match form {
                    0 => {
                        weights = vec![weights[0], -weights[0]];
                        (vec![accs[0].clone(), accs[0].clone()], true)
                    }
                    _ => (accs, false),
                };
                MapCase {
                    sizes,
                    accs,
                    weights,
                    f64_weights,
                    scale: SCALE_CHOICES[scale].clone(),
                    tiles: tiles[..rank].iter().map(|&t| TILE_CHOICES[t]).collect(),
                    chunks,
                    salt,
                }
            },
        )
}

fn build_map(case: &MapCase) -> DslProgram {
    let rank = case.sizes.len();
    let ops: Vec<CombineOp> = (0..rank).map(|_| CombineOp::cc()).collect();
    let weights: Vec<f64> = case
        .accs
        .iter()
        .zip(&case.weights)
        .map(|(_, &w)| w)
        .collect();
    let mut b = DslBuilder::new("rand_map", case.sizes.clone())
        .out_buffer("res", BasicType::F32)
        .out_access("res", IndexFn::identity(rank, rank));
    for (i, acc) in case.accs.iter().enumerate() {
        let name = format!("x{i}");
        b = b
            .inp_buffer(&name, BasicType::F32)
            .inp_access(&name, acc.index_fn());
    }
    let mut sf = ScalarFunction::weighted_sum("f_ws", ScalarKind::F32, &weights);
    if let Stmt::Assign { value, .. } = &mut sf.body[0] {
        let term = |i: usize| Expr::mul(Expr::Lit(Value::F64(weights[i])), Expr::Param(i));
        let sum = match case.f64_weights {
            true => (1..weights.len()).fold(term(0), |sum, i| Expr::add(sum, term(i))),
            false => value.clone(),
        };
        *value = match case.scale.clone() {
            Scale::None => sum,
            Scale::Left(lit) => Expr::mul(Expr::Lit(lit), sum),
            Scale::Right(lit) => Expr::mul(sum, Expr::Lit(lit)),
        };
    }
    b.scalar_function(sf)
        .combine_ops(ops)
        .build()
        .expect("valid random map")
}

#[derive(Debug, Clone)]
struct ScanCase {
    sizes: Vec<usize>,
    /// The `ps` dim, and the `pw` dim after it, if any.
    scan_dim: usize,
    pw_dim: Option<usize>,
    scan: BuiltinReduce,
    fold: BuiltinReduce,
    input: RandAccess,
    /// Walk the output backwards along the scan dim.
    out_reversed: bool,
    chunks: Vec<usize>,
    salt: usize,
}

const OPS: [BuiltinReduce; 4] = [
    BuiltinReduce::Add,
    BuiltinReduce::Mul,
    BuiltinReduce::Min,
    BuiltinReduce::Max,
];

/// A builtin scan over the identity of one input: the scan dim anywhere,
/// a `pw` fold dim after it in half the cases (the VM's scan mode needs
/// the scan first), `cc` dims around them. The input steps by 1 along
/// the last dim, keeps its drawn strides, or walks the scan dim backwards
/// (a reversed `ps(add)` is the AD adjoint of a scan); the output is the
/// preserved dims, forwards or reversed along the scan dim. The scan dim
/// is cut into 1–5 chunks, a `cc` dim into 1–2, a `pw` dim never (the VM
/// refuses that plan).
fn scan_case() -> impl Strategy<Value = ScanCase> {
    (
        1usize..=MAX_RANK,
        prop::collection::vec(2usize..=7, MAX_RANK),
        (0usize..MAX_RANK, any::<bool>()),
        (0usize..OPS.len(), 0usize..OPS.len()),
        (rand_access(), 0usize..3, any::<bool>()),
        (1usize..=5, prop::collection::vec(1usize..=2, MAX_RANK)),
        (0usize..1000, 1usize..=40),
    )
        .prop_map(
            |(
                rank,
                sizes,
                (sd, fold),
                (scan, fold_op),
                (acc, walk, out_reversed),
                (k, chunks),
                (salt, long),
            )| {
                let scan_dim = sd % rank;
                let pw_dim = (fold && scan_dim + 1 < rank).then_some(rank - 1);
                let mut sizes = sizes[..rank].to_vec();
                sizes[scan_dim] = long;
                let acc = acc.truncated(rank);
                let input = match walk {
                    0 => acc.with_unit_step(rank - 1),
                    1 => acc.reversed(scan_dim, long),
                    _ => acc,
                };
                let mut chunks = chunks[..rank].to_vec();
                chunks[scan_dim] = k.min(long);
                if let Some(d) = pw_dim {
                    chunks[d] = 1;
                }
                ScanCase {
                    sizes,
                    scan_dim,
                    pw_dim,
                    scan: OPS[scan],
                    fold: OPS[fold_op],
                    input,
                    out_reversed,
                    chunks,
                    salt,
                }
            },
        )
}

fn build_scan(case: &ScanCase, elem: ScalarKind) -> DslProgram {
    let rank = case.sizes.len();
    let ops: Vec<CombineOp> = (0..rank)
        .map(|d| match d {
            d if d == case.scan_dim => CombineOp::Ps(PwFunc::builtin(case.scan)),
            d if Some(d) == case.pw_dim => CombineOp::Pw(PwFunc::builtin(case.fold)),
            _ => CombineOp::cc(),
        })
        .collect();
    let preserved: Vec<usize> = (0..rank).filter(|&d| Some(d) != case.pw_dim).collect();
    let out = RandAccess {
        exprs: (preserved.iter())
            .map(|&p| ((0..rank).map(|d| (d == p) as i64).collect(), 0))
            .collect(),
    };
    let out = match case.out_reversed {
        true => out.reversed(case.scan_dim, case.sizes[case.scan_dim]),
        false => out,
    };
    DslBuilder::new("rand_scan", case.sizes.clone())
        .out_buffer("y", elem.into())
        .out_access("y", out.index_fn())
        .inp_buffer("x", elem.into())
        .inp_access("x", case.input.index_fn())
        .scalar_function(ScalarFunction::identity("id", elem))
        .combine_ops(ops)
        .build()
        .expect("valid random scan")
}

/// [`inexact_fill`] with a `-0.0` every 7th element and a NaN every 11th,
/// its sign alternating: signed zeros and NaNs through add, mul, min and
/// max. A sum of two NaNs keeps its left operand's sign, so an operand
/// order that moves shows; a quarter of the salts keep the plain fill.
fn special_fill(buf: &mut Buffer, salt: usize) {
    if salt.is_multiple_of(4) {
        return;
    }
    buf.fill_with(move |i| {
        let k = i.wrapping_add(salt).wrapping_mul(2654435761) % 1000;
        match i % 11 {
            5 if i / 11 % 2 == 0 => f64::NAN,
            5 => -f64::NAN,
            _ if i % 7 == 3 => -0.0,
            _ => k as f64 * 0.1 - 31.7,
        }
    });
}

/// Build inputs sized for the accesses, of their declared element type,
/// fill inexactly.
fn build_inputs(
    prog: &DslProgram,
    accs: &[&RandAccess],
    sizes: &[usize],
    salt: usize,
) -> Vec<Buffer> {
    accs.iter()
        .enumerate()
        .map(|(i, acc)| {
            let decl = &prog.inp_view.buffers[i];
            let mut buf = Buffer::zeros(
                decl.name.clone(),
                decl.ty.clone(),
                Shape::new(acc.buffer_shape(sizes)),
            );
            inexact_fill(&mut buf, salt.wrapping_add(i * 97));
            buf
        })
        .collect()
}

/// A fixed randomized schedule: given per-dim chunks and tiles. Any pw
/// dim with more than one chunk makes this a split-reduction plan.
fn build_plan(prog: &DslProgram, chunks: &[usize], tiles: &[usize]) -> ExecutionPlan {
    let rank = prog.rank();
    let mut s = Schedule::sequential(rank, DeviceKind::Cpu);
    s.par_chunks = chunks.to_vec();
    s.inner_tiles = tiles.to_vec();
    let reduction_split = prog
        .md_hom
        .reduction_dims()
        .iter()
        .any(|&d| chunks[d].min(prog.md_hom.sizes[d]) > 1);
    if reduction_split {
        s.reduction = ReductionStrategy::Tree;
    }
    s.validate(prog, 1 << 24).expect("valid random schedule");
    ExecutionPlan::build(prog, &s).expect("plan")
}

/// The core assertion: fast kernel output == `vm_exec` output, bitwise,
/// on the same plan, at pool widths 1/2/4.
fn assert_fast_matches_vm(prog: &DslProgram, plan: &ExecutionPlan, inputs: &[Buffer]) {
    let kernel = fast::classify(prog).expect("generated program must be fast-eligible");
    let base = shared_base();
    let vm_pool = base.pool().with_width(1);
    let vm_out = vm_exec::run(prog, plan, inputs, &vm_pool).expect("vm_exec");
    for width in [1usize, 2, 4] {
        let pool = base.pool().with_width(width);
        let fast_out = kernel
            .run(prog, plan, inputs, &pool)
            .expect("fast kernel run");
        assert!(
            bits_eq(&vm_out, &fast_out),
            "fast path diverged from vm_exec at width {width} for {}",
            prog.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_contractions_bit_identical_to_vm(case in contraction_case()) {
        let prog = build_contraction(&case, ScalarKind::F32);
        let inputs = build_inputs(&prog, &[&case.acc0, &case.acc1], &case.sizes, case.salt);
        let plan = build_plan(&prog, &case.chunks, &case.tiles);
        assert_fast_matches_vm(&prog, &plan, &inputs);
    }

    /// f64 products of this fill round: an accumulate that fused one
    /// would move bits the f32 generator cannot see. Half the cases are
    /// steered into the blocked nest.
    #[test]
    fn random_f64_contractions_bit_identical_to_vm(
        case in contraction_case(),
        blocked in any::<bool>(),
    ) {
        let case = if blocked { case.blocked() } else { case };
        let prog = build_contraction(&case, ScalarKind::F64);
        let inputs = build_inputs(&prog, &[&case.acc0, &case.acc1], &case.sizes, case.salt);
        let plan = build_plan(&prog, &case.chunks, &case.tiles);
        assert_fast_matches_vm(&prog, &plan, &inputs);
    }

    /// Builtin scans over f32 and f64, on data with signed zeros and
    /// NaNs, are the VM's scan mode bit for bit: chains, local scans,
    /// carry-folds and the one rounding at the store.
    #[test]
    fn random_scans_bit_identical_to_vm(case in scan_case(), f64_elem in any::<bool>()) {
        let elem = if f64_elem { ScalarKind::F64 } else { ScalarKind::F32 };
        let prog = build_scan(&case, elem);
        let mut inputs = build_inputs(&prog, &[&case.input], &case.sizes, case.salt);
        special_fill(&mut inputs[0], case.salt);
        let plan = build_plan(&prog, &case.chunks, &vec![1; case.sizes.len()]);
        assert_fast_matches_vm(&prog, &plan, &inputs);
    }

    #[test]
    fn random_maps_bit_identical_to_vm(case in map_case()) {
        let prog = build_map(&case);
        let accs: Vec<&RandAccess> = case.accs.iter().collect();
        let mut inputs = build_inputs(&prog, &accs, &case.sizes, case.salt);
        if case.f64_weights {
            // `w·x - w·x`: both terms read the same values
            inputs[1].data = inputs[0].data.clone();
        }
        let plan = build_plan(&prog, &case.chunks, &case.tiles);
        assert_fast_matches_vm(&prog, &plan, &inputs);
    }
}

/// The two reduction-free product shapes AD emits, pinned (the random
/// generator only reaches them by chance): Dot's adjoint
/// `x_bar[k] = res_bar[0] * y[k]` (a broadcast scalar factor) and
/// MatVec's `M_bar[i, k] = w_bar[i] * v[k]` (an outer product — the
/// packed arrangement with a one-step reduction), at sizes that leave
/// lane and row remainders.
#[test]
fn adjoint_product_shapes_bit_identical_to_vm() {
    let acc = |coeffs: &[i64]| RandAccess {
        exprs: vec![(coeffs.to_vec(), 0)],
    };
    for (sizes, acc0, acc1) in [
        (vec![37], acc(&[0]), acc(&[1])),
        (vec![19, 23], acc(&[1, 0]), acc(&[0, 1])),
    ] {
        let rank = sizes.len();
        let case = ContractionCase {
            sizes,
            pw_mask: 0,
            acc0,
            acc1,
            tiles: vec![4; rank],
            chunks: vec![2; rank],
            salt: 7,
        };
        for elem in [ScalarKind::F32, ScalarKind::F64] {
            let prog = build_contraction(&case, elem);
            let inputs = build_inputs(&prog, &[&case.acc0, &case.acc1], &case.sizes, case.salt);
            let plan = build_plan(&prog, &case.chunks, &case.tiles);
            assert_fast_matches_vm(&prog, &plan, &inputs);
        }
    }
}

/// The full executor must agree bitwise with `vm_exec` on the same plan
/// for an eligible program — the end-to-end form of the contract,
/// including the registry, routing, and hit accounting.
#[test]
fn executor_matches_the_vm_end_to_end() {
    let (i, j, k) = (37, 29, 23);
    let prog = DslBuilder::new("mm_e2e", vec![i, j, k])
        .out_buffer("c", BasicType::F32)
        .out_access("c", IndexFn::select(3, &[0, 1]))
        .inp_buffer("a", BasicType::F32)
        .inp_access("a", IndexFn::select(3, &[0, 2]))
        .inp_buffer("b", BasicType::F32)
        .inp_access("b", IndexFn::select(3, &[2, 1]))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::cc(), CombineOp::cc(), CombineOp::pw_add()])
        .build()
        .unwrap();
    let mut a = Buffer::zeros("a", BasicType::F32, Shape::new(vec![i, k]));
    let mut b = Buffer::zeros("b", BasicType::F32, Shape::new(vec![k, j]));
    inexact_fill(&mut a, 5);
    inexact_fill(&mut b, 11);
    let inputs = vec![a, b];
    let schedule = mdh_lowering::mdh_default_schedule(&prog, DeviceKind::Cpu, 4);
    let plan = ExecutionPlan::build(&prog, &schedule).unwrap();
    let base = shared_base();
    let exec = mdh_backend::CpuExecutor::with_pool(base.pool(), 4);
    assert_eq!(exec.path_for(&prog), mdh_backend::ExecPath::Fast);
    let (hits0, _) = fast::registry().counters();
    let fast_out = exec.run_planned(&prog, &schedule, &plan, &inputs).unwrap();
    let (hits1, _) = fast::registry().counters();
    assert!(hits1 > hits0, "eligible program must count a kernel hit");
    let vm_out = vm_exec::run(&prog, &plan, &inputs, exec.pool()).unwrap();
    assert!(bits_eq(&fast_out, &vm_out));
}
