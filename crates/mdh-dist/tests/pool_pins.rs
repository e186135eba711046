//! Bit pins of device-pool outputs on non-integer inputs.
//!
//! `dist_props` and `registry_identity` fill small integers, so every
//! reassociation of a fold agrees bitwise there and a recombination that
//! regrouped a reduction would pass them. Here the inputs are uniform in
//! `[-1, 1)`: a `pw`/`ps` recombination that folds in another order, a
//! `cc` copy that reads the wrong shard element, or a carry taken from the
//! wrong position moves a hash. Each row is one program on an `n`-device
//! pool; the chaos row hashes every launch of a crash-and-hang schedule
//! under hedging.
//!
//! On a mismatch the test prints the replacement table; re-baseline only
//! for a deliberate change of reduction order.

use mdh_apps::data::{f32_buffer, f64_buffer};
use mdh_core::buffer::{bits_hash, Buffer};
use mdh_core::combine::{BuiltinReduce, CombineOp, PwFunc};
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::expr::ScalarFunction;
use mdh_core::index_fn::{AffineExpr, IndexFn};
use mdh_core::types::{BasicType, ScalarKind};
use mdh_dist::{DevicePool, DistExecutor, FaultPlan, HealPolicy};
use std::fmt::Write as _;

/// `(case, devices, bits_hash of the outputs)`.
const PINNED: &[(&str, usize, u64)] = &[
    ("matvec_cc", 2, 0x81b288fc8941c5d4),
    ("matvec_cc", 3, 0x81b288fc8941c5d4),
    ("matvec_cc", 4, 0x81b288fc8941c5d4),
    ("matmul_cc", 2, 0x960ea0a6a3ff001b),
    ("matmul_cc", 3, 0x960ea0a6a3ff001b),
    ("matmul_cc", 4, 0x960ea0a6a3ff001b),
    ("scan_f64_add", 2, 0x3b9eb5b95ec81c7b),
    ("scan_f64_add", 3, 0xeca1330dbf6c0dca),
    ("scan_f64_add", 4, 0x92d5eb019ebf8c9c),
    ("scan_f64_max", 2, 0xdf41ef90b1986c34),
    ("scan_f64_max", 3, 0xdf41ef90b1986c34),
    ("scan_f64_max", 4, 0xdf41ef90b1986c34),
    ("dot_pw_add", 2, 0xa0bf5c596288e54e),
    ("dot_pw_add", 3, 0xa0bf5c596288e54e),
    ("dot_pw_add", 4, 0xa0bf5c596288e54e),
    ("strided_y_2i", 2, 0xbf6f9877bd48dfc4),
    ("strided_y_2i", 3, 0xbf6f9877bd48dfc4),
    ("strided_y_2i", 4, 0xbf6f9877bd48dfc4),
    ("reversed_y_n1_i", 2, 0x650455d181478820),
    ("reversed_y_n1_i", 3, 0x650455d181478820),
    ("reversed_y_n1_i", 4, 0x650455d181478820),
    ("matmul_out_ji", 2, 0x92fec08c38d59d77),
    ("matmul_out_ji", 3, 0x92fec08c38d59d77),
    ("matmul_out_ji", 4, 0x92fec08c38d59d77),
    ("chaos_crash_hang_hedged", 4, 0xe0b7a5d99bbccb0a),
];

/// `out = sum_k M[i][k] · v[k]` over `[i, k]` (`cc`, `pw(add)`), the
/// output written through `out_fn` into a buffer of `out_shape`.
fn matvec_into(name: &str, i: usize, k: usize, out_fn: IndexFn, out_shape: usize) -> DslProgram {
    DslBuilder::new(name, vec![i, k])
        .out_buffer_with_shape("y", BasicType::F32, vec![out_shape])
        .out_access("y", out_fn)
        .inp_buffer("M", BasicType::F32)
        .inp_access("M", IndexFn::identity(2, 2))
        .inp_buffer("v", BasicType::F32)
        .inp_access("v", IndexFn::select(2, &[1]))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
        .build()
        .unwrap()
}

/// `C = A · B` over `[i, j, k]`, `C` written as `[i][j]` or, transposed,
/// as `[j][i]` — a split along `i` whose coordinate is not outermost.
fn matmul(name: &str, (i, j, k): (usize, usize, usize), transposed: bool) -> DslProgram {
    let out = if transposed {
        IndexFn::select(3, &[1, 0])
    } else {
        IndexFn::select(3, &[0, 1])
    };
    DslBuilder::new(name, vec![i, j, k])
        .out_buffer("C", BasicType::F32)
        .out_access("C", out)
        .inp_buffer("A", BasicType::F32)
        .inp_access("A", IndexFn::select(3, &[0, 2]))
        .inp_buffer("B", BasicType::F32)
        .inp_access("B", IndexFn::select(3, &[2, 1]))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::cc(), CombineOp::cc(), CombineOp::pw_add()])
        .build()
        .unwrap()
}

fn scan(name: &str, n: usize, op: BuiltinReduce) -> DslProgram {
    DslBuilder::new(name, vec![n])
        .out_buffer("out", BasicType::F64)
        .out_access("out", IndexFn::identity(1, 1))
        .inp_buffer("x", BasicType::F64)
        .inp_access("x", IndexFn::identity(1, 1))
        .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
        .combine_ops(vec![CombineOp::Ps(PwFunc::builtin(op))])
        .build()
        .unwrap()
}

fn dot(n: usize) -> DslProgram {
    DslBuilder::new("dot", vec![n])
        .out_buffer("res", BasicType::F32)
        .out_access("res", IndexFn::affine(vec![AffineExpr::constant(1, 0)]))
        .inp_buffer("x", BasicType::F32)
        .inp_access("x", IndexFn::identity(1, 1))
        .inp_buffer("y", BasicType::F32)
        .inp_access("y", IndexFn::identity(1, 1))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::pw_add()])
        .build()
        .unwrap()
}

/// Every case: a name, its program and its non-integer inputs.
fn cases() -> Vec<(&'static str, DslProgram, Vec<Buffer>)> {
    let (i, k) = (37, 53);
    let matvec_inputs = || {
        vec![
            f32_buffer("pin_M", vec![i, k]),
            f32_buffer("pin_v", vec![k]),
        ]
    };
    let row = |c: i64, k0: i64| IndexFn::affine(vec![AffineExpr::new(vec![c, 0], k0)]);
    let (mi, mj, mk) = (19, 23, 29);
    let matmul_inputs = || {
        vec![
            f32_buffer("pin_A", vec![mi, mk]),
            f32_buffer("pin_B", vec![mk, mj]),
        ]
    };
    let n = 1001;
    vec![
        (
            "matvec_cc",
            matvec_into("matvec", i, k, row(1, 0), i),
            matvec_inputs(),
        ),
        (
            "matmul_cc",
            matmul("matmul", (mi, mj, mk), false),
            matmul_inputs(),
        ),
        (
            "scan_f64_add",
            scan("psum", n, BuiltinReduce::Add),
            vec![f64_buffer("pin_x", vec![n])],
        ),
        (
            "scan_f64_max",
            scan("pmax", n, BuiltinReduce::Max),
            vec![f64_buffer("pin_x", vec![n])],
        ),
        (
            "dot_pw_add",
            dot(4099),
            vec![
                f32_buffer("pin_x32", vec![4099]),
                f32_buffer("pin_y32", vec![4099]),
            ],
        ),
        (
            "strided_y_2i",
            matvec_into("strided", i, k, row(2, 0), 2 * i),
            matvec_inputs(),
        ),
        (
            "reversed_y_n1_i",
            matvec_into("reversed", i, k, row(-1, i as i64 - 1), i),
            matvec_inputs(),
        ),
        (
            "matmul_out_ji",
            matmul("matmul_t", (mi, mj, mk), true),
            matmul_inputs(),
        ),
    ]
}

/// Six launches on four devices under hedging: device 1 crashes at launch
/// 1 and device 2 hangs at launch 3; every launch's outputs are hashed
/// together, over a scan (order-sensitive carries) and a `cc` MatVec.
fn chaos_hash() -> u64 {
    let plan = FaultPlan::parse("crash=1@1,hang=2@3").expect("fault spec");
    let dist = DistExecutor::with_faults(DevicePool::gpus(4), plan)
        .expect("pool")
        .with_healing(HealPolicy {
            hedge_ms: 0.05,
            probe_every: 2,
            reinstate_after: 1,
        });
    let n = 1001;
    let scan_prog = scan("psum", n, BuiltinReduce::Add);
    let scan_in = vec![f64_buffer("pin_x", vec![n])];
    let mv = matvec_into("matvec", 37, 53, IndexFn::select(2, &[0]), 37);
    let mv_in = vec![
        f32_buffer("pin_M", vec![37, 53]),
        f32_buffer("pin_v", vec![53]),
    ];
    let mut all = Vec::new();
    for _ in 0..6 {
        all.extend(dist.run(&scan_prog, &scan_in).expect("chaos scan").0);
        all.extend(dist.run(&mv, &mv_in).expect("chaos matvec").0);
    }
    assert!(dist.fault_stats().injected_crashes > 0, "the crash fired");
    bits_hash(&all)
}

#[test]
fn pool_outputs_on_non_integer_inputs_keep_their_bits() {
    let mut got = Vec::new();
    for (name, prog, inputs) in cases() {
        for devices in [2usize, 3, 4] {
            let dist = DistExecutor::new(DevicePool::gpus(devices)).unwrap();
            let (outs, report) = dist
                .run(&prog, &inputs)
                .unwrap_or_else(|e| panic!("{name} on {devices} devices: {e}"));
            assert!(
                report.shards > 1,
                "{name} on {devices} devices did not split"
            );
            // a warm relaunch keeps the first launch's bits
            assert_eq!(
                bits_hash(&dist.run(&prog, &inputs).unwrap().0),
                bits_hash(&outs)
            );
            got.push((name, devices, bits_hash(&outs)));
        }
    }
    got.push(("chaos_crash_hang_hedged", 4, chaos_hash()));
    let mut table = String::new();
    for (name, devices, hash) in &got {
        writeln!(table, "    (\"{name}\", {devices}, {hash:#018x}),").unwrap();
    }
    let pinned: Vec<(&str, usize, u64)> = PINNED.to_vec();
    assert!(
        pinned == got,
        "pool output bits moved; the table at this tree is:\n{table}"
    );
}
