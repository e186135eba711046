//! End-to-end properties of the AD transform:
//!
//! * adjoints match a central-finite-difference oracle (rel tol 1e-4;
//!   exact for the bilinear kernels, whose integer-valued fills make the
//!   ±0.5 probes exact in floating point),
//! * combine-operator classification lands where the theory says
//!   (MatVec's `M̄` is an outer product `(cc, cc)`; `v̄` reduces rows),
//! * scatter-classified (`rbi`) adjoints are bit-identical across CPU
//!   pool widths 1/2/4 and device counts 1/2/4 — including under a
//!   seeded fault plan with one scheduled crash (failure messages carry
//!   the `--faults` replay spec).

use mdh_ad::{eval_gradients, grad, grad_all, part_inputs};
use mdh_core::buffer::Buffer;
use mdh_core::combine::CombineOp;
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::error::MdhError;
use mdh_core::expr::{Expr, MathFn, ScalarFunction, Stmt};
use mdh_core::index_fn::{AffineExpr, IndexFn};
use mdh_core::shape::Shape;
use mdh_core::types::{BasicType, ScalarKind};
use mdh_dist::{DevicePool, DistExecutor, FaultPlan};

/// Combine operators rendered for comparison (`CombineOp` holds function
/// values, so it has no `PartialEq`).
fn ops(prog: &DslProgram) -> Vec<String> {
    prog.md_hom
        .combine_ops
        .iter()
        .map(|c| c.to_string())
        .collect()
}

/// Integer-valued, position-dependent fill (exact in f32/f64).
fn int_fill(buf: &mut Buffer, salt: usize) {
    buf.fill_with(move |i| ((i.wrapping_add(salt).wrapping_mul(2654435761)) % 16) as f64 - 8.0);
}

fn assert_close(ad: &Buffer, fd: &[f64], what: &str) {
    assert_eq!(ad.len(), fd.len(), "{what}: gradient length");
    for (e, &f) in fd.iter().enumerate() {
        let a = ad.get_flat(e).as_f64().unwrap();
        let tol = 1e-4 * f.abs().max(1.0);
        assert!(
            (a - f).abs() <= tol,
            "{what}: element {e}: AD {a} vs FD {f}"
        );
    }
}

fn fd_check(prog: &DslProgram, inputs: &[Buffer], eps: f64) {
    let gp = grad_all(prog).expect("grad");
    let y = mdh_core::eval::evaluate_recursive(prog, inputs).unwrap();
    let mut cot = Buffer::zeros("cot", y[0].ty.clone(), y[0].shape.clone());
    int_fill(&mut cot, 99);
    let grads = eval_gradients(&gp, inputs, &cot).unwrap();
    for (gi, &w) in gp.wrt.iter().enumerate() {
        let fd = mdh_ad::oracle::central_diff(prog, inputs, &cot, w, eps).unwrap();
        assert_close(&grads[gi], &fd, &format!("{} wrt input {w}", prog.name));
    }
}

fn matvec(i: usize, k: usize) -> (DslProgram, Vec<Buffer>) {
    let prog = DslBuilder::new("matvec", vec![i, k])
        .out_buffer("w", BasicType::F32)
        .out_access("w", IndexFn::select(2, &[0]))
        .inp_buffer("M", BasicType::F32)
        .inp_access("M", IndexFn::identity(2, 2))
        .inp_buffer("v", BasicType::F32)
        .inp_access("v", IndexFn::select(2, &[1]))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
        .build()
        .unwrap();
    let mut m = Buffer::zeros("M", BasicType::F32, Shape::new(vec![i, k]));
    let mut v = Buffer::zeros("v", BasicType::F32, Shape::new(vec![k]));
    int_fill(&mut m, 1);
    int_fill(&mut v, 2);
    (prog, vec![m, v])
}

#[test]
fn dot_adjoint_matches_fd() {
    let n = 64;
    let prog = DslBuilder::new("dot", vec![n])
        .out_buffer("res", BasicType::F32)
        .out_access("res", IndexFn::affine(vec![AffineExpr::constant(1, 0)]))
        .inp_buffer("x", BasicType::F32)
        .inp_access("x", IndexFn::identity(1, 1))
        .inp_buffer("y", BasicType::F32)
        .inp_access("y", IndexFn::identity(1, 1))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::pw_add()])
        .build()
        .unwrap();
    let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![n]));
    let mut y = Buffer::zeros("y", BasicType::F32, Shape::new(vec![n]));
    int_fill(&mut x, 3);
    int_fill(&mut y, 4);
    let inputs = vec![x, y];
    // x̄[i] = ȳ·y[i]: the dot adjoint concatenates where the forward reduced
    let gp = grad_all(&prog).unwrap();
    for part in &gp.parts {
        assert_eq!(ops(&part.program), ["cc"]);
    }
    fd_check(&prog, &inputs, 0.5);
}

#[test]
fn matvec_adjoint_classification_and_fd() {
    let (prog, inputs) = matvec(12, 9);
    let gp = grad_all(&prog).unwrap();
    let m_part = gp.parts_for(0).next().unwrap();
    // M̄[i,k] = ȳ[i]·v[k] — an outer product, both dims preserved
    assert_eq!(ops(&m_part.program), ["cc", "cc"]);
    let v_part = gp.parts_for(1).next().unwrap();
    // v̄[k] = Σ_i ȳ[i]·M[i,k] — rows reduce, columns concatenate
    assert_eq!(ops(&v_part.program), ["pw(add)", "cc"]);
    fd_check(&prog, &inputs, 0.5);
    // an input named twice would get its parts twice, and twice its
    // gradient: it is refused, as an out-of-range one is
    for wrt in [&[1, 1][..], &[0, 1, 0], &[2]] {
        let r = grad(&prog, wrt);
        assert!(matches!(r, Err(MdhError::Validation(_))), "{wrt:?}: {r:?}");
    }
}

#[test]
fn matmul_adjoint_matches_fd() {
    let (i, j, k) = (6, 5, 7);
    let prog = DslBuilder::new("matmul", vec![i, j, k])
        .out_buffer("C", BasicType::F32)
        .out_access("C", IndexFn::select(3, &[0, 1]))
        .inp_buffer("A", BasicType::F32)
        .inp_access("A", IndexFn::select(3, &[0, 2]))
        .inp_buffer("B", BasicType::F32)
        .inp_access("B", IndexFn::select(3, &[2, 1]))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::cc(), CombineOp::cc(), CombineOp::pw_add()])
        .build()
        .unwrap();
    let mut a = Buffer::zeros("A", BasicType::F32, Shape::new(vec![i, k]));
    let mut b = Buffer::zeros("B", BasicType::F32, Shape::new(vec![k, j]));
    int_fill(&mut a, 5);
    int_fill(&mut b, 6);
    let inputs = vec![a, b];
    let gp = grad_all(&prog).unwrap();
    // Ā[i,k] = Σ_j C̄[i,j]·B[k,j]: j reduces, i and k preserve
    let a_part = gp.parts_for(0).next().unwrap();
    assert_eq!(ops(&a_part.program), ["cc", "pw(add)", "cc"]);
    fd_check(&prog, &inputs, 0.5);
}

#[test]
fn stencil_adjoint_sums_parts_and_matches_fd() {
    // jacobi-style: y[i] = (x[i] + x[i+1] + x[i+2]) / 3 over padded x
    let n = 40;
    let prog = DslBuilder::new("jacobi1d", vec![n])
        .out_buffer("y", BasicType::F64)
        .out_access("y", IndexFn::identity(1, 1))
        .inp_buffer("x", BasicType::F64)
        .inp_access("x", IndexFn::affine(vec![AffineExpr::new(vec![1], 0)]))
        .inp_access("x", IndexFn::affine(vec![AffineExpr::new(vec![1], 1)]))
        .inp_access("x", IndexFn::affine(vec![AffineExpr::new(vec![1], 2)]))
        .scalar_function(ScalarFunction::weighted_sum(
            "w",
            ScalarKind::F64,
            &[0.25, 0.5, 0.25],
        ))
        .combine_ops(vec![CombineOp::cc()])
        .build()
        .unwrap();
    let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![n + 2]));
    int_fill(&mut x, 7);
    let inputs = vec![x];
    let gp = grad_all(&prog).unwrap();
    assert_eq!(gp.parts.len(), 3, "one adjoint part per stencil access");
    fd_check(&prog, &inputs, 0.5);
}

#[test]
fn nonlinear_sf_adjoint_matches_fd() {
    // y[i] = x[i]²·z[i] + sqrt(z[i] + 20): product, power, and a math fn
    let n = 24;
    let sf = ScalarFunction {
        name: "nl".into(),
        params: vec![("a".into(), BasicType::F64), ("b".into(), BasicType::F64)],
        results: vec![("res".into(), BasicType::F64)],
        body: vec![
            Stmt::Let {
                name: "t".into(),
                value: Expr::mul(Expr::Param(0), Expr::Param(0)),
            },
            Stmt::Assign {
                name: "res".into(),
                value: Expr::add(
                    Expr::mul(Expr::var("t"), Expr::Param(1)),
                    Expr::Call(
                        MathFn::Sqrt,
                        vec![Expr::add(Expr::Param(1), Expr::lit_f64(20.0))],
                    ),
                ),
            },
        ],
    };
    let prog = DslBuilder::new("nonlinear", vec![n])
        .out_buffer("y", BasicType::F64)
        .out_access("y", IndexFn::identity(1, 1))
        .inp_buffer("x", BasicType::F64)
        .inp_access("x", IndexFn::identity(1, 1))
        .inp_buffer("z", BasicType::F64)
        .inp_access("z", IndexFn::identity(1, 1))
        .scalar_function(sf)
        .combine_ops(vec![CombineOp::cc()])
        .build()
        .unwrap();
    let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![n]));
    let mut z = Buffer::zeros("z", BasicType::F64, Shape::new(vec![n]));
    int_fill(&mut x, 8);
    int_fill(&mut z, 9);
    let inputs = vec![x, z];
    fd_check(&prog, &inputs, 1e-5);
}

fn prefix_sum(n: usize) -> (DslProgram, Vec<Buffer>) {
    let prog = DslBuilder::new("prefix_sum", vec![n])
        .out_buffer("y", BasicType::F64)
        .out_access("y", IndexFn::identity(1, 1))
        .inp_buffer("x", BasicType::F64)
        .inp_access("x", IndexFn::identity(1, 1))
        .scalar_function(ScalarFunction::identity("f_id", ScalarKind::F64))
        .combine_ops(vec![CombineOp::ps_add()])
        .build()
        .unwrap();
    let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![n]));
    int_fill(&mut x, 11);
    (prog, vec![x])
}

#[test]
fn scan_adjoint_is_the_reverse_scan() {
    let n = 33;
    let (prog, inputs) = prefix_sum(n);
    let gp = grad_all(&prog).unwrap();
    assert_eq!(gp.parts.len(), 1);
    // still one ps(add) dimension — the adjoint reuses the scan machinery
    assert_eq!(ops(&gp.parts[0].program), ["ps(add)"]);
    let y = mdh_core::eval::evaluate_recursive(&prog, &inputs).unwrap();
    let mut cot = Buffer::zeros("cot", y[0].ty.clone(), y[0].shape.clone());
    int_fill(&mut cot, 12);
    let grads = eval_gradients(&gp, &inputs, &cot).unwrap();
    // x̄[k] = Σ_{i≥k} ȳ[i] — the suffix sum, checked against FD
    let fd = mdh_ad::oracle::central_diff(&prog, &inputs, &cot, 0, 0.5).unwrap();
    assert_close(&grads[0], &fd, "prefix_sum wrt x");
    let mut suffix = 0.0;
    for k in (0..n).rev() {
        suffix += cot.get_flat(k).as_f64().unwrap();
        assert_eq!(grads[0].get_flat(k).as_f64().unwrap(), suffix, "k={k}");
    }
}

/// A `ps` program differentiates when its scalar function is exactly
/// `res = p0`, whatever the parameter's type; any other body is refused.
#[test]
fn scan_adjoint_needs_a_res_equals_p0_body() {
    let scan_of = |param: BasicType, body: Vec<Stmt>| {
        let sf = ScalarFunction {
            name: "f".into(),
            params: vec![("p".into(), param.clone())],
            results: vec![("res".into(), BasicType::F64)],
            body,
        };
        DslBuilder::new("scan", vec![9])
            .out_buffer("y", BasicType::F64)
            .out_access("y", IndexFn::identity(1, 1))
            .inp_buffer("x", param)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(sf)
            .combine_ops(vec![CombineOp::ps_add()])
            .build()
            .unwrap()
    };
    let assign = |value: Expr| Stmt::Assign {
        name: "res".into(),
        value,
    };
    let widened = scan_of(BasicType::F32, vec![assign(Expr::Param(0))]);
    assert_eq!(grad_all(&widened).unwrap().parts.len(), 1);
    let doubled = Expr::mul(Expr::Param(0), Expr::lit_f64(2.0));
    for body in [vec![assign(doubled)], vec![assign(Expr::Param(0)); 2]] {
        let err = grad_all(&scan_of(BasicType::F64, body)).unwrap_err();
        assert!(
            err.to_string().contains("identity scalar function"),
            "{err}"
        );
    }
}

/// Gather forward: y[i] = table[idx[i]] — its adjoint is the
/// embedding-style scatter-add the `rbi` operator exists for.
fn gather(n: usize, vocab: usize) -> (DslProgram, Vec<Buffer>, Vec<usize>) {
    let idx: Vec<usize> = (0..n).map(|i| (i * 131 + 7) % vocab).collect();
    let captured = idx.clone();
    let prog = DslBuilder::new("gather", vec![n])
        .out_buffer("y", BasicType::F64)
        .out_access("y", IndexFn::identity(1, 1))
        .inp_buffer_with_shape("table", BasicType::F64, vec![vocab])
        .inp_access(
            "table",
            IndexFn::General {
                out_rank: 1,
                f: std::sync::Arc::new(move |i: &[usize], out: &mut [usize]| {
                    out[0] = captured[i[0]]
                }),
                label: "idx".into(),
            },
        )
        .scalar_function(ScalarFunction::identity("f_id", ScalarKind::F64))
        .combine_ops(vec![CombineOp::cc()])
        .build()
        .unwrap();
    let mut table = Buffer::zeros("table", BasicType::F64, Shape::new(vec![vocab]));
    int_fill(&mut table, 13);
    (prog, vec![table], idx)
}

#[test]
fn gather_adjoint_is_rbi_and_matches_fd() {
    let (n, vocab) = (50, 8);
    let (prog, inputs, idx) = gather(n, vocab);
    let gp = grad_all(&prog).unwrap();
    assert_eq!(gp.parts.len(), 1);
    let part = &gp.parts[0];
    // data-dependent output access → the scatter classification
    assert_eq!(ops(&part.program), ["rbi(add)"]);
    let y = mdh_core::eval::evaluate_recursive(&prog, &inputs).unwrap();
    let mut cot = Buffer::zeros("cot", y[0].ty.clone(), y[0].shape.clone());
    int_fill(&mut cot, 14);
    let grads = eval_gradients(&gp, &inputs, &cot).unwrap();
    // closed form: t̄[v] = Σ_{i: idx[i]=v} ȳ[i]
    let mut expect = vec![0.0f64; vocab];
    for (i, &v) in idx.iter().enumerate() {
        expect[v] += cot.get_flat(i).as_f64().unwrap();
    }
    for (v, &e) in expect.iter().enumerate() {
        assert_eq!(grads[0].get_flat(v).as_f64().unwrap(), e, "v={v}");
    }
    let fd = mdh_ad::oracle::central_diff(&prog, &inputs, &cot, 0, 0.5).unwrap();
    assert_close(&grads[0], &fd, "gather wrt table");
}

#[test]
fn rbi_adjoint_bit_identical_across_pool_widths() {
    use mdh_backend::cpu::CpuExecutor;
    use mdh_lowering::asm::DeviceKind;
    use mdh_lowering::heuristics::mdh_default_schedule;

    let (prog, inputs, _) = gather(4000, 16);
    let gp = grad_all(&prog).unwrap();
    let part = &gp.parts[0];
    let y = mdh_core::eval::evaluate_recursive(&prog, &inputs).unwrap();
    let mut cot = Buffer::zeros("cot", y[0].ty.clone(), y[0].shape.clone());
    int_fill(&mut cot, 15);
    let part_ins = part_inputs(part, &cot, &inputs);
    let mut bits: Vec<Vec<u64>> = Vec::new();
    for width in [1usize, 2, 4] {
        let ex = CpuExecutor::new(width).unwrap();
        let s = mdh_default_schedule(&part.program, DeviceKind::Cpu, width);
        let out = ex.run(&part.program, &s, &part_ins).unwrap();
        bits.push(
            out[0]
                .as_f64()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        );
    }
    assert!(
        bits.windows(2).all(|p| p[0] == p[1]),
        "gradient bits differ across pool widths"
    );
}

#[test]
fn adjoints_bit_identical_across_devices_and_one_crash() {
    // the emitted adjoint programs run through mdh-dist like any other
    // program: shard, execute, recombine — and survive a seeded fault
    // plan with one scheduled crash without changing a single bit
    let (prog, inputs, _) = gather(600, 12);
    let gp = grad_all(&prog).unwrap();
    let part = &gp.parts[0];
    let y = mdh_core::eval::evaluate_recursive(&prog, &inputs).unwrap();
    let mut cot = Buffer::zeros("cot", y[0].ty.clone(), y[0].shape.clone());
    int_fill(&mut cot, 16);
    let part_ins = part_inputs(part, &cot, &inputs);

    let reference = {
        let dist = DistExecutor::new(DevicePool::gpus(1)).unwrap();
        dist.run(&part.program, &part_ins).unwrap().0
    };
    for devices in [2usize, 4] {
        let dist = DistExecutor::new(DevicePool::gpus(devices)).unwrap();
        let (outs, report) = dist.run(&part.program, &part_ins).unwrap();
        assert_eq!(outs, reference, "{devices} devices diverged");
        assert!(report.devices_alive >= 1);
    }
    let plan = FaultPlan::seeded(42, 300).crash(1, 0);
    let spec = plan.to_string();
    let dist = DistExecutor::with_faults(DevicePool::gpus(4), plan).unwrap();
    for launch in 0..3 {
        let (outs, _) = dist
            .run(&part.program, &part_ins)
            .unwrap_or_else(|e| panic!("launch {launch} failed (replay: --faults '{spec}'): {e}"));
        assert_eq!(
            outs, reference,
            "launch {launch} diverged (replay: --faults '{spec}')"
        );
    }

    // a dense adjoint (MatVec M̄, pure cc) takes the same path
    let (mprog, m_inputs) = matvec(24, 18);
    let mgp = grad(&mprog, &[0]).unwrap();
    let mpart = mgp.parts_for(0).next().unwrap();
    let my = mdh_core::eval::evaluate_recursive(&mprog, &m_inputs).unwrap();
    let mut mcot = Buffer::zeros("cot", my[0].ty.clone(), my[0].shape.clone());
    int_fill(&mut mcot, 17);
    let mpart_ins = part_inputs(mpart, &mcot, &m_inputs);
    let mref = {
        let dist = DistExecutor::new(DevicePool::gpus(1)).unwrap();
        dist.run(&mpart.program, &mpart_ins).unwrap().0
    };
    for devices in [2usize, 4] {
        let dist = DistExecutor::new(DevicePool::gpus(devices)).unwrap();
        let (outs, _) = dist.run(&mpart.program, &mpart_ins).unwrap();
        assert_eq!(outs, mref, "M̄ diverged at {devices} devices");
    }
}

/// The typed slice add behind `accumulate` gives, bit for bit, what the
/// boxed per-element path it replaced gave: `eval_bin(Add, acc[i],
/// part[i])` stored back through `set_flat`.
#[test]
fn accumulate_is_bit_equal_to_the_per_element_value_add() {
    use mdh_core::buffer::bits_hash;
    use mdh_core::expr::{eval_bin, BinOp};
    use mdh_core::types::Value;

    fn per_element(acc: &mut Buffer, part: &Buffer) {
        for i in 0..acc.len() {
            let v = eval_bin(BinOp::Add, &acc.get_flat(i), &part.get_flat(i)).unwrap();
            acc.set_flat(i, &v).unwrap();
        }
    }
    fn buffer(ty: BasicType, vals: &[Value]) -> Buffer {
        let mut b = Buffer::zeros("b", ty, Shape::new(vec![vals.len()]));
        for (i, v) in vals.iter().enumerate() {
            b.set_flat(i, v).unwrap();
        }
        b
    }
    // every pair of specials meets: lhs cycles fast, rhs slow
    fn pairs(specials: &[Value]) -> (Vec<Value>, Vec<Value>) {
        let n = specials.len();
        let lhs = (0..n * n).map(|i| specials[i % n].clone()).collect();
        let rhs = (0..n * n).map(|i| specials[i / n].clone()).collect();
        (lhs, rhs)
    }
    let f32s = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN_POSITIVE,
        // the f64 sum of these two needs more than 24 bits: the rounding
        // to f32 is visible
        16_777_216.0,
        1.000_000_1,
        -3.3,
    ]
    .map(Value::F32);
    let f64s = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        1e-300,
        0.1,
        9_007_199_254_740_992.0,
        -3.3,
    ]
    .map(Value::F64);
    let i32s = [0, 1, -1, i32::MAX, i32::MIN, 123_456].map(Value::I32);
    let i64s = [0, 1, -1, i64::MAX, i64::MIN, 1 << 40].map(Value::I64);
    for (ty, specials) in [
        (BasicType::F32, &f32s[..]),
        (BasicType::F64, &f64s[..]),
        (BasicType::I32, &i32s[..]),
        (BasicType::I64, &i64s[..]),
    ] {
        let (lhs, rhs) = pairs(specials);
        let part = buffer(ty.clone(), &rhs);
        let mut want = buffer(ty.clone(), &lhs);
        per_element(&mut want, &part);
        let mut got = buffer(ty.clone(), &lhs);
        mdh_ad::accumulate(&mut got, &part).unwrap();
        assert_eq!(bits_hash(&[got]), bits_hash(&[want]), "{ty}");
    }
    // a length or a type that does not match is an error, not a partial sum
    let mut acc = buffer(BasicType::F32, &f32s[..4]);
    assert!(mdh_ad::accumulate(&mut acc, &buffer(BasicType::F32, &f32s[..3])).is_err());
    assert!(mdh_ad::accumulate(&mut acc, &buffer(BasicType::F64, &f64s[..4])).is_err());
    assert_eq!(
        bits_hash(&[acc]),
        bits_hash(&[buffer(BasicType::F32, &f32s[..4])])
    );
}
