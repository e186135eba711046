//! Training-shaped case studies: Histogram (the canonical indexed
//! reduction) and AD-emitted adjoints of the differentiable Fig. 3 apps.
//!
//! Histogram cannot be written in the textual directive — its output
//! subscript `hist[key[i]]` is data-dependent, which is exactly what the
//! `rbi(add)` combine operator exists for — so it is built through the
//! DSL builder with a `General` output access capturing the key stream.
//!
//! The adjoint instances are *derived*, not hand-written: [`adjoints_of`]
//! runs [`mdh_ad::grad_all`] on a forward study and packages each emitted
//! adjoint part as a regular [`AppInstance`], so gradients flow through
//! every harness (executors, tuner, sharding, serving) exactly like
//! forward programs.

use crate::data::rng_for;
use crate::registry::{instantiate, StudyId};
use crate::spec::{AppInstance, Scale};
use mdh_ad::part_inputs;
use mdh_core::buffer::Buffer;
use mdh_core::combine::CombineOp;
use mdh_core::dsl::DslBuilder;
use mdh_core::error::Result;
use mdh_core::expr::ScalarFunction;
use mdh_core::index_fn::IndexFn;
use mdh_core::shape::Shape;
use mdh_core::types::{BasicType, ScalarKind};
use rand::Rng;

/// Fig. 3 studies whose adjoints the AD transform emits today: a single
/// output access and a polynomial scalar function. (PRL reduces records
/// with a user-defined combine; CCSD(T)/MCC are differentiable in
/// principle but their 7–10-D instances are exercised elsewhere.)
pub const DIFFERENTIABLE_FIG3: &[&str] = &[
    "Dot",
    "MatVec",
    "MatMul",
    "MatMul^T",
    "bMatMul",
    "Gaussian_2D",
    "Jacobi_3D",
];

/// Histogram: `hist[key[i]] += w[i]` — the indexed reduction (`rbi`)
/// study. The key stream is seeded and captured by the output access.
pub fn histogram(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let (n, buckets) = match input_no {
        1 => (scale.pick(1 << 22, 1 << 20, 4000), scale.pick(256, 256, 16)),
        // adversarial: almost all keys collide into one bucket
        _ => (scale.pick(1 << 20, 1 << 18, 2000), scale.pick(16, 16, 4)),
    };
    let mut rng = rng_for(&format!("hist_keys_{input_no}"));
    let keys: Vec<usize> = (0..n)
        .map(|_| {
            if input_no == 1 {
                rng.gen_range(0..buckets as i64) as usize
            } else {
                // 7/8 of the stream lands in bucket 0
                let r = rng.gen_range(0..(8 * buckets) as i64) as usize;
                r.saturating_sub(7 * buckets)
            }
        })
        .collect();
    let program = DslBuilder::new("histogram", vec![n])
        .out_buffer_with_shape("hist", BasicType::F32, vec![buckets])
        .out_access(
            "hist",
            IndexFn::General {
                out_rank: 1,
                f: std::sync::Arc::new(move |i: &[usize], out: &mut [usize]| out[0] = keys[i[0]]),
                label: "key".into(),
            },
        )
        .inp_buffer("w", BasicType::F32)
        .inp_access("w", IndexFn::identity(1, 1))
        .scalar_function(ScalarFunction::identity("f_id", ScalarKind::F32))
        .combine_ops(vec![CombineOp::rbi_add()])
        .build()?;
    // quantized weights (counts in [-8, 8)): integer-valued f32 is exact
    // under addition, so the scatter is bit-identical under *any* legal
    // reassociation — across pool widths, device counts, and fault
    // recovery — not just the structurally-fixed single-node chunk tree
    let mut w = Buffer::zeros(
        format!("hist_w_{input_no}"),
        BasicType::F32,
        Shape::new(vec![n]),
    );
    let wrng = std::cell::RefCell::new(rng_for(&format!("hist_w_{input_no}")));
    w.fill_with(move |_| wrng.borrow_mut().gen_range(0..16) as f64 - 8.0);
    Ok(AppInstance {
        name: "Histogram".into(),
        input_no,
        domain: "Data Mining".into(),
        program,
        inputs: vec![w],
        vendor_op: None,
        sizes_desc: format!("{n} -> {buckets} bins"),
    })
}

/// Deterministic cotangent for a forward study's output (the `ȳ` a
/// training step would feed back).
pub fn cotangent_for(app: &AppInstance) -> Result<Buffer> {
    let shape = app.program.output_shapes()?.remove(0);
    let decl = &app.program.out_view.buffers[0];
    let mut cot = Buffer::zeros(
        format!("{}_bar", decl.name),
        decl.ty.clone(),
        Shape::new(shape),
    );
    let rng = std::cell::RefCell::new(rng_for(&format!("cot_{}_{}", app.name, app.input_no)));
    cot.fill_with(move |_| rng.borrow_mut().gen_range(-1.0..1.0));
    Ok(cot)
}

/// Instantiate the adjoints of one forward study: one [`AppInstance`] per
/// AD-emitted adjoint part, inputs pre-assembled as `[cotangent] ++
/// forward inputs`.
pub fn adjoints_of(id: StudyId, scale: Scale) -> Result<Vec<AppInstance>> {
    let fwd = instantiate(id, scale)?;
    let gp = mdh_ad::grad_all(&fwd.program)?;
    let cot = cotangent_for(&fwd)?;
    Ok(gp
        .parts
        .iter()
        .map(|part| AppInstance {
            name: part.program.name.clone(),
            input_no: fwd.input_no,
            domain: fwd.domain.clone(),
            inputs: part_inputs(part, &cot, &fwd.inputs),
            program: part.program.clone(),
            vendor_op: None,
            sizes_desc: fwd.sizes_desc.clone(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_ad::{eval_gradients, grad_all, oracle};
    use mdh_backend::cpu::CpuExecutor;
    use mdh_core::eval::evaluate_recursive;
    use mdh_lowering::asm::DeviceKind;
    use mdh_lowering::heuristics::mdh_default_schedule;

    #[test]
    fn histogram_matches_scalar_reference() {
        for input_no in [1, 2] {
            let app = histogram(Scale::Small, input_no).unwrap();
            let out = evaluate_recursive(&app.program, &app.inputs).unwrap();
            // independent reference: walk the weight stream and re-derive
            // the keys from the access closure
            let key_fn = &app.program.out_view.accesses[0].index_fn;
            let w = app.inputs[0].as_f32().unwrap();
            let buckets = out[0].len();
            let mut expect = vec![0.0f32; buckets];
            for (i, &wi) in w.iter().enumerate() {
                expect[key_fn.eval(&[i]).unwrap()[0]] += wi;
            }
            assert_eq!(out[0].as_f32().unwrap(), &expect[..], "input {input_no}");
        }
    }

    #[test]
    fn histogram_scatter_is_bit_identical_across_widths() {
        let app = histogram(Scale::Small, 1).unwrap();
        // the scatter path's fixed combine tree sums chunks in a
        // different order than the recursive evaluator, so with real
        // float weights the comparison is approximate — but across pool
        // widths the tree is identical, so those runs must agree bitwise
        let expect = evaluate_recursive(&app.program, &app.inputs).unwrap();
        let mut runs = Vec::new();
        for width in [1usize, 2, 4] {
            let ex = CpuExecutor::new(width).unwrap();
            let sched = mdh_default_schedule(&app.program, DeviceKind::Cpu, width);
            let got = ex.run(&app.program, &sched, &app.inputs).unwrap();
            assert!(got[0].approx_eq(&expect[0], 1e-3), "width {width}");
            runs.push(
                got[0]
                    .as_f32()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<u32>>(),
            );
        }
        assert!(runs.windows(2).all(|p| p[0] == p[1]), "widths diverged");
    }

    #[test]
    fn differentiable_studies_have_adjoints_matching_fd() {
        // f32 forwards + random fills: central differences with a large
        // probe (the loss is multilinear, so the probe size only has to
        // beat f32 rounding, not curvature)
        for &name in DIFFERENTIABLE_FIG3 {
            let id = StudyId { name, input_no: 1 };
            let fwd = instantiate(id, Scale::Small).unwrap();
            let gp = grad_all(&fwd.program).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!gp.parts.is_empty(), "{name}: no adjoint parts");
            let cot = cotangent_for(&fwd).unwrap();
            let grads = eval_gradients(&gp, &fwd.inputs, &cot).unwrap();
            for (gi, &w) in gp.wrt.iter().enumerate() {
                let fd = oracle::central_diff(&fwd.program, &fwd.inputs, &cot, w, 0.125).unwrap();
                for e in 0..grads[gi].len() {
                    let a = grads[gi].get_flat(e).as_f64().unwrap();
                    let f = fd[e];
                    assert!(
                        (a - f).abs() <= 1e-4 * f.abs().max(1.0),
                        "{name} wrt {w} elem {e}: AD {a} vs FD {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn adjoint_instances_run_on_the_executor() {
        let exec = CpuExecutor::new(2).unwrap();
        for &name in &["MatVec", "Jacobi_3D"] {
            let parts = adjoints_of(StudyId { name, input_no: 1 }, Scale::Small).unwrap();
            for app in &parts {
                app.program.validate().unwrap();
                let sched = mdh_default_schedule(&app.program, DeviceKind::Cpu, 2);
                let got = exec.run(&app.program, &sched, &app.inputs).unwrap();
                let expect = evaluate_recursive(&app.program, &app.inputs).unwrap();
                for (g, e) in got.iter().zip(&expect) {
                    assert!(g.approx_eq(e, 1e-3), "{} mismatch", app.name);
                }
            }
        }
    }
}
