//! A training step over the serving runtime: reverse-mode AD emits the
//! adjoints of Fig. 3 case studies as ordinary MDH programs, the runtime
//! serves forward + adjoint parts through the same plan cache / admission
//! path as inference traffic, and the indexed reduction (`rbi`) covers
//! the scatter-shaped pieces (histograms, embedding-table gradients).
//!
//! The example prints `output-hash` lines over gradient and output bits.
//! Everything is deterministic (integer-valued fills, fixed combine
//! trees, all-exact f32 arithmetic) — CI runs the example twice and
//! diffs the outputs as a determinism smoke test.
//!
//! Run with `cargo run --release --example training_step`.

use mdh::apps::registry::{instantiate, StudyId};
use mdh::apps::spec::Scale;
use mdh::core::buffer::{bits_hash, Buffer, BufferData};
use mdh::core::shape::Shape;
use mdh::dist::{DevicePool, DistExecutor};
use mdh::lowering::asm::DeviceKind;
use mdh::runtime::{Request, Runtime, RuntimeConfig};

/// Integer-valued refill: exact in f32/f64, so gradient reassociation
/// across schedules and devices cannot introduce rounding.
fn exactify(inputs: &mut [Buffer]) {
    for (salt, buf) in inputs.iter_mut().enumerate() {
        if matches!(buf.data, BufferData::Record(_)) {
            continue;
        }
        buf.fill_with(move |i| ((i.wrapping_add(salt).wrapping_mul(2654435761)) % 16) as f64 - 8.0);
    }
}

/// Integer-valued cotangent for a program's (single) output.
fn cotangent(prog: &mdh::core::dsl::DslProgram) -> Buffer {
    let shape = prog.output_shapes().expect("output shape").remove(0);
    let decl = &prog.out_view.buffers[0];
    let mut cot = Buffer::zeros(
        format!("{}_bar", decl.name),
        decl.ty.clone(),
        Shape::new(shape),
    );
    cot.fill_with(|i| ((i.wrapping_mul(40503)) % 16) as f64 - 8.0);
    cot
}

/// The scalar training loss `Σ out·cot` (exact: integer-valued f64 sums).
fn loss(outputs: &[Buffer], cot: &Buffer) -> f64 {
    (0..cot.len())
        .map(|i| outputs[0].get_flat(i).as_f64().unwrap() * cot.get_flat(i).as_f64().unwrap())
        .sum()
}

fn main() {
    println!("=== training step: gradients as served MDH programs ===\n");
    let runtime = Runtime::new(RuntimeConfig {
        workers: 2,
        exec_threads: 2,
        ..RuntimeConfig::default()
    })
    .expect("runtime");

    // --- gradient round trips for differentiable Fig. 3 studies ---------
    for name in ["Dot", "MatVec", "MatMul"] {
        let mut app =
            instantiate(StudyId { name, input_no: 1 }, Scale::Small).expect("instantiate study");
        exactify(&mut app.inputs);
        let cot = cotangent(&app.program);
        let resp = runtime
            .submit_grad(
                Request::new(app.program.clone(), DeviceKind::Cpu, app.inputs.clone()),
                None,
                Some(cot.clone()),
            )
            .expect("grad admits")
            .wait()
            .expect("grad round trip");
        println!(
            "--- {name} ({}): {} adjoint parts, {} gradients",
            app.sizes_desc,
            resp.parts,
            resp.gradients.len()
        );
        for (w, g) in &resp.gradients {
            let input = &app.program.inp_view.buffers[*w].name;
            println!(
                "  output-hash {name}/d_{input} {:#018x}",
                bits_hash(std::slice::from_ref(g))
            );
        }
    }

    // --- one SGD step on MatVec's vector input --------------------------
    // loss is linear in v, so stepping v -= lr·∇v must lower it by
    // exactly lr·‖∇v‖² (lr a power of two keeps the arithmetic exact)
    println!("\n--- SGD step (MatVec, lr = 0.125) ---");
    let mut mv = instantiate(
        StudyId {
            name: "MatVec",
            input_no: 1,
        },
        Scale::Small,
    )
    .expect("instantiate MatVec");
    exactify(&mut mv.inputs);
    let cot = cotangent(&mv.program);
    let resp = runtime
        .submit_grad(
            Request::new(mv.program.clone(), DeviceKind::Cpu, mv.inputs.clone()),
            Some(&[1]),
            Some(cot.clone()),
        )
        .expect("grad admits")
        .wait()
        .expect("grad round trip");
    let before = loss(&resp.forward.outputs, &cot);
    let grad = &resp.gradients[0].1;
    let lr = 0.125f64;
    let norm2: f64 = (0..grad.len())
        .map(|i| grad.get_flat(i).as_f64().unwrap().powi(2))
        .sum();
    let stepped: Vec<f64> = (0..grad.len())
        .map(|i| {
            mv.inputs[1].get_flat(i).as_f64().unwrap() - lr * grad.get_flat(i).as_f64().unwrap()
        })
        .collect();
    mv.inputs[1].fill_with(move |i| stepped[i]);
    let after_resp = runtime
        .submit(Request::new(
            mv.program.clone(),
            DeviceKind::Cpu,
            mv.inputs.clone(),
        ))
        .wait()
        .expect("forward after step");
    let after = loss(&after_resp.outputs, &cot);
    println!(
        "  loss {before:.3} -> {after:.3} (predicted drop {:.3})",
        lr * norm2
    );
    assert_eq!(
        after,
        before - lr * norm2,
        "linear loss must drop by lr·‖∇v‖²"
    );
    println!(
        "  output-hash MatVec/sgd-step {:#018x}",
        bits_hash(&after_resp.outputs)
    );

    // --- the indexed reduction (rbi) is ordinary serving traffic --------
    println!("\n--- Histogram (rbi) ---");
    for input_no in [1usize, 2] {
        let app = instantiate(
            StudyId {
                name: "Histogram",
                input_no,
            },
            Scale::Small,
        )
        .expect("instantiate Histogram");
        let served = runtime
            .submit(Request::new(
                app.program.clone(),
                DeviceKind::Cpu,
                app.inputs.clone(),
            ))
            .wait()
            .expect("histogram serves");
        // the same program across device pools: bit-identical recombination
        let mut hashes = Vec::new();
        for devices in [1usize, 2, 4] {
            let dist = DistExecutor::new(DevicePool::gpus(devices)).expect("pool");
            let (outs, _) = dist.run(&app.program, &app.inputs).expect("dist run");
            hashes.push(bits_hash(&outs));
        }
        assert!(
            hashes.windows(2).all(|w| w[0] == w[1]),
            "Histogram/{input_no} diverged across device counts"
        );
        assert_eq!(bits_hash(&served.outputs), hashes[0], "served run diverged");
        println!(
            "  output-hash Histogram/{input_no} ({}) {:#018x}",
            app.sizes_desc, hashes[0]
        );
    }

    // --- training traffic counters (deterministic fields only) ----------
    let stats = runtime.stats();
    println!(
        "\ngrad-requests={} rbi-requests={}",
        stats.grad_requests, stats.rbi_requests
    );
}
