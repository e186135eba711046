//! Deep learning: multi-channel convolution (the paper's Listing 12,
//! ResNet-50 first layer) on the CPU executor and the simulated A100,
//! compared against the vendor-library stand-ins.
//!
//! ```text
//! cargo run --release --example deep_learning
//! ```

use mdh::apps::dl::mcc;
use mdh::apps::Scale;
use mdh::backend::cpu::CpuExecutor;
use mdh::backend::gpu::GpuSim;
use mdh::baselines::vendor::{VendorCpu, VendorGpu};
use mdh::lowering::asm::DeviceKind;
use mdh::lowering::heuristics::mdh_default_schedule;
use mdh::tuner::{tune_gpu, Budget, Technique};

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let app = mcc(Scale::Medium, 2).expect("mcc");
    println!(
        "MCC: {} — 7D iteration space, {} reduction dims",
        app.sizes_desc,
        app.program.md_hom.reduction_dims().len()
    );

    // --- CPU: MDH vs the oneDNN-style direct convolution ----------------
    let exec = CpuExecutor::new(threads).expect("executor");
    let schedule = mdh_default_schedule(&app.program, DeviceKind::Cpu, threads);
    let (out, mdh_t) = exec
        .run_timed(&app.program, &schedule, &app.inputs)
        .expect("mcc run");
    let vendor = VendorCpu::new(threads).expect("vendor pool");
    let op = app.vendor_op.as_ref().unwrap();
    let (vout, ven_t) = vendor.run(op, &app.inputs).expect("vendor conv");
    println!(
        "CPU measured: MDH {:.1} ms, oneDNN-style {:.1} ms",
        mdh_t.as_secs_f64() * 1e3,
        ven_t.as_secs_f64() * 1e3
    );
    // both compute the same convolution
    let a = out[0].as_f32().unwrap();
    let b = vout[0].as_f32().unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() < 1e-2 * x.abs().max(1.0));
    }
    println!("MDH and vendor agree ✓");

    // --- GPU model: tuned MDH vs cuDNN-style roofline ---------------------
    let paper = mcc(Scale::Paper, 2).expect("mcc paper");
    let sim = GpuSim::a100(threads).expect("sim");
    let tuned = tune_gpu(
        &sim,
        &paper.program,
        Technique::Annealing,
        Budget::evals(120),
    );
    let cudnn = VendorGpu::a100().estimate_ms(paper.vendor_op.as_ref().unwrap());
    println!(
        "A100 model (paper sizes): MDH tuned {:.4} ms, cuDNN-style {:.4} ms -> {:.2}x",
        tuned.cost,
        cudnn,
        cudnn / tuned.cost
    );
}
