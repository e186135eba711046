//! Program generators and the single-device oracle shared by the
//! `dist_props` and `fault_props` suites.
//!
//! Inputs are filled with small integer values, which every element kind
//! represents exactly — so every legal reassociation of an associative
//! fold agrees *bitwise*, and `assert_eq!` on output buffers is
//! meaningful. Every generator takes a [`Variant`]: the output element
//! kind, the output layout (identity, transposed/reversed, strided with
//! an offset) and whether one program writes two outputs — the axes a
//! strided, typed recombination can get wrong and a per-point one could
//! not.

#![allow(dead_code)] // each suite uses its own subset

use mdh_backend::cpu::CpuExecutor;
use mdh_core::buffer::Buffer;
use mdh_core::combine::{BuiltinReduce, CombineOp, PwFunc};
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::eval::evaluate_recursive;
use mdh_core::expr::{BinOp, Expr, ScalarFunction, Stmt};
use mdh_core::index_fn::{AffineExpr, IndexFn};
use mdh_core::shape::Shape;
use mdh_core::types::{BasicType, ScalarKind};
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::heuristics::mdh_default_schedule;

/// Number of [`variant`]s; generators draw `0..=VARIANTS`, and the extra
/// value selects the custom tuple combiner where a suite has one.
pub const VARIANTS: usize = 24;

#[derive(Debug, Clone, Copy)]
pub struct Variant {
    pub kind: ScalarKind,
    /// 0 identity, 1 transposed (2-D) / reversed (1-D), 2 strided + offset.
    pub layout: usize,
    /// Whether a second output (different values, next layout) is written.
    pub second: bool,
}

pub fn variant(v: usize) -> Variant {
    let kinds = [
        ScalarKind::F32,
        ScalarKind::F64,
        ScalarKind::I32,
        ScalarKind::I64,
    ];
    Variant {
        kind: kinds[v % 4],
        layout: (v / 4) % 3,
        second: v / 12 % 2 == 1,
    }
}

/// Integer-valued, position-dependent fill (exact in every kind).
pub fn filled(name: &str, kind: ScalarKind, dims: Vec<usize>, salt: usize) -> Buffer {
    let mut buf = Buffer::zeros(name, BasicType::Scalar(kind), Shape::new(dims));
    buf.fill_with(move |i| ((i.wrapping_add(salt).wrapping_mul(2654435761)) % 16) as f64 - 8.0);
    buf
}

/// Single-device oracle: `CpuExecutor` at width 1, which must itself
/// agree bitwise with the reference semantics of `mdh_core::eval`.
pub fn reference(prog: &DslProgram, inputs: &[Buffer]) -> Vec<Buffer> {
    let schedule = mdh_default_schedule(prog, DeviceKind::Cpu, 1);
    let cpu = CpuExecutor::new(1)
        .expect("executor")
        .run(prog, &schedule, inputs)
        .expect("single-device run");
    let eval = evaluate_recursive(prog, inputs).expect("reference semantics");
    assert_eq!(cpu, eval, "{}: CpuExecutor diverged from eval", prog.name);
    cpu
}

/// Where a layout puts element `(a, b)` of a 2-D result over iteration
/// dimensions `(da, db)`: `[a, b]`, `[b, a]`, or `[2a + 1, 3b]`.
fn layout2(rank: usize, (da, db): (usize, usize), layout: usize) -> IndexFn {
    let scaled = |d: usize, c: i64, k: i64| {
        let mut coeffs = vec![0; rank];
        coeffs[d] = c;
        AffineExpr::new(coeffs, k)
    };
    match layout % 3 {
        0 => IndexFn::select(rank, &[da, db]),
        1 => IndexFn::select(rank, &[db, da]),
        _ => IndexFn::affine(vec![scaled(da, 2, 1), scaled(db, 3, 0)]),
    }
}

/// Where a variant puts element `j` (of `n`) of a 1-D result over
/// iteration dimension `d`: identity, reversed, or stride 3 from 2.
fn layout1(rank: usize, d: usize, n: usize, layout: usize) -> IndexFn {
    let (c, k) = [(1, 0), (-1, n as i64 - 1), (3, 2)][layout % 3];
    let mut coeffs = vec![0; rank];
    coeffs[d] = c;
    IndexFn::affine(vec![AffineExpr::new(coeffs, k)])
}

/// `f` with a second result `d = value` when the variant writes two
/// outputs.
fn with_second(mut f: ScalarFunction, v: Variant, value: Expr) -> ScalarFunction {
    if v.second {
        f.results.push(("d".into(), v.kind.into()));
        f.body.push(Stmt::Assign {
            name: "d".into(),
            value,
        });
    }
    f
}

/// `c = a · b` and, with a second output, `d = a + b`.
fn mul_and_add(v: Variant) -> ScalarFunction {
    let sum = Expr::add(Expr::Param(0), Expr::Param(1));
    with_second(ScalarFunction::mul2("f_mul", v.kind), v, sum)
}

/// `c = a` and, with a second output, `d = a + a`.
fn id_and_double(v: Variant) -> ScalarFunction {
    let twice = Expr::add(Expr::Param(0), Expr::Param(0));
    with_second(ScalarFunction::identity("f_id", v.kind), v, twice)
}

/// Declare output `c` — and `d`, one layout on, when the variant writes
/// two — through `access(layout)`.
fn outputs(b: DslBuilder, v: Variant, access: impl Fn(usize) -> IndexFn) -> DslBuilder {
    let ty = BasicType::Scalar(v.kind);
    let b = b
        .out_buffer("c", ty.clone())
        .out_access("c", access(v.layout));
    if v.second {
        b.out_buffer("d", ty).out_access("d", access(v.layout + 1))
    } else {
        b
    }
}

/// MatMul-shaped: `cc` over rows and columns, `pw(+)` over `k` — concat
/// sharding over rows of a 2-D output (columns when `i == 1`) and, when
/// both degenerate to 1, reduction sharding of a single point.
pub fn grid(i: usize, j: usize, k: usize, v: Variant) -> (DslProgram, Vec<Buffer>) {
    let b = DslBuilder::new("grid", vec![i, j, k]);
    let prog = outputs(b, v, |l| layout2(3, (0, 1), l))
        .inp_buffer("A", BasicType::Scalar(v.kind))
        .inp_access("A", IndexFn::select(3, &[0, 2]))
        .inp_buffer("B", BasicType::Scalar(v.kind))
        .inp_access("B", IndexFn::select(3, &[2, 1]))
        .scalar_function(mul_and_add(v))
        .combine_ops(vec![CombineOp::cc(), CombineOp::cc(), CombineOp::pw_add()])
        .build()
        .expect("grid");
    let inputs = vec![
        filled("A", v.kind, vec![i, k], 1),
        filled("B", v.kind, vec![k, j], 2),
    ];
    (prog, inputs)
}

/// Row sums, scanned: `ps(+)` over `j`, `pw(+)` over `k`. With no `cc`
/// dimension the reduction is what gets sharded, and every shard's
/// partial is a whole row along `j` — the fold row operation. `j == 1`
/// is Dot.
pub fn row_sums(j: usize, k: usize, v: Variant) -> (DslProgram, Vec<Buffer>) {
    let b = DslBuilder::new("row_sums", vec![j, k]);
    let prog = outputs(b, v, |l| layout1(2, 0, j, l))
        .inp_buffer("M", BasicType::Scalar(v.kind))
        .inp_access("M", IndexFn::identity(2, 2))
        .inp_buffer("x", BasicType::Scalar(v.kind))
        .inp_access("x", IndexFn::select(2, &[1]))
        .scalar_function(mul_and_add(v))
        .combine_ops(vec![CombineOp::ps_add(), CombineOp::pw_add()])
        .build()
        .expect("row_sums");
    let inputs = vec![
        filled("M", v.kind, vec![j, k], 3),
        filled("x", v.kind, vec![k], 4),
    ];
    (prog, inputs)
}

/// Running maximum: a `ps(max)` dimension — scan sharding with the
/// ordered cross-shard carry chain of Listing 17, the strategy most
/// sensitive to shard order and to where the carry is read from.
pub fn running_max(n: usize, v: Variant) -> (DslProgram, Vec<Buffer>) {
    let b = DslBuilder::new("running_max", vec![n]);
    let prog = outputs(b, v, |l| layout1(1, 0, n, l))
        .inp_buffer("x", BasicType::Scalar(v.kind))
        .inp_access("x", IndexFn::identity(1, 1))
        .scalar_function(id_and_double(v))
        .combine_ops(vec![CombineOp::Ps(PwFunc::builtin(BuiltinReduce::Max))])
        .build()
        .expect("running_max");
    (prog, vec![filled("x", v.kind, vec![n], 5)])
}

/// The PRL/MBBS argmax shape: a custom combiner over the output *tuple*
/// `(id, w)` that keeps the left operand on a tie — associative but not
/// commutative, so a fold that swaps or re-orders shards shows up in
/// `id`. Reduced (`scan == false`, both outputs one point) or scanned
/// (running argmax) along the only dimension.
pub fn argmax(n: usize, scan: bool) -> (DslProgram, Vec<Buffer>) {
    let tuple = |p: &str| {
        vec![
            (format!("{p}_id"), BasicType::I64),
            (format!("{p}_w"), BasicType::F64),
        ]
    };
    let take = |id: usize, w: usize| {
        [("res_id", id), ("res_w", w)]
            .map(|(name, p)| Stmt::Assign {
                name: name.into(),
                value: Expr::Param(p),
            })
            .to_vec()
    };
    let keep_left_on_ties = ScalarFunction {
        name: "argmax".into(),
        params: [tuple("lhs"), tuple("rhs")].concat(),
        results: tuple("res"),
        body: vec![Stmt::If {
            cond: Expr::Bin(
                BinOp::Ge,
                Box::new(Expr::Param(1)),
                Box::new(Expr::Param(3)),
            ),
            then_branch: take(0, 1),
            else_branch: take(2, 3),
        }],
    };
    let point = ScalarFunction {
        name: "point".into(),
        params: vec![("id".into(), BasicType::I64), ("w".into(), BasicType::F64)],
        results: tuple("res"),
        body: take(0, 1),
    };
    let (at, op) = if scan {
        (
            IndexFn::identity(1, 1),
            CombineOp::ps_custom(keep_left_on_ties),
        )
    } else {
        (
            IndexFn::affine(vec![AffineExpr::constant(1, 0)]),
            CombineOp::pw_custom(keep_left_on_ties),
        )
    };
    let prog = DslBuilder::new("argmax", vec![n])
        .out_buffer("best_id", BasicType::I64)
        .out_access("best_id", at.clone())
        .out_buffer("best_w", BasicType::F64)
        .out_access("best_w", at)
        .inp_buffer("ids", BasicType::I64)
        .inp_access("ids", IndexFn::identity(1, 1))
        .inp_buffer("weights", BasicType::F64)
        .inp_access("weights", IndexFn::identity(1, 1))
        .scalar_function(point)
        .combine_ops(vec![op.expect("argmax combiner")])
        .build()
        .expect("argmax");
    let ids = Buffer::from_i64("ids", Shape::new(vec![n]), (0..n as i64).collect());
    // sixteen distinct weights: ties from n = 17 on, everywhere by 160
    (
        prog,
        vec![ids, filled("weights", ScalarKind::F64, vec![n], 6)],
    )
}
