//! Artifact-style validation (the paper's Appendix B workflow): run every
//! case study end-to-end — directive compile → parallel CPU execution →
//! comparison against the formal reference semantics — plus the GPU
//! functional path, and print a PASS/FAIL table.
//!
//! Usage: `cargo run --release -p mdh-bench --bin validate [-- --scale small|medium]`

use mdh_apps::{instantiate, Scale, StudyId, FIG3_STUDIES};
use mdh_backend::cpu::CpuExecutor;
use mdh_backend::gpu::GpuSim;
use mdh_bench::parse_scale;
use mdh_core::error::Result;
use mdh_core::eval::evaluate_recursive;
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::heuristics::mdh_default_schedule;

fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .map(|s| parse_scale(s))
        .unwrap_or(Scale::Small);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let exec = CpuExecutor::new(threads)?;
    let sim = GpuSim::a100(threads)?;

    println!("Validation at scale {scale:?} ({threads} threads)\n");
    println!(
        "{:<14} {:>4} {:<12} {:<10} {:<10}",
        "study", "inp", "path", "cpu", "gpu(func)"
    );
    println!("{}", "-".repeat(56));

    let mut failures = 0;
    let extra = [
        StudyId {
            name: "Jacobi1D",
            input_no: 1,
        },
        StudyId {
            name: "MBBS",
            input_no: 1,
        },
    ];
    for &id in FIG3_STUDIES.iter().chain(&extra) {
        let app = match instantiate(id, scale) {
            Ok(a) => a,
            Err(e) => {
                println!("{:<14} {:>4} INSTANTIATION FAIL: {e}", id.name, id.input_no);
                failures += 1;
                continue;
            }
        };
        let expect = match evaluate_recursive(&app.program, &app.inputs) {
            Ok(o) => o,
            Err(e) => {
                println!("{:<14} {:>4} REFERENCE FAIL: {e}", app.name, app.input_no);
                failures += 1;
                continue;
            }
        };
        let path = format!("{:?}", exec.path_for(&app.program));
        let sched = mdh_default_schedule(&app.program, DeviceKind::Cpu, threads);
        let cpu_ok = match exec.run(&app.program, &sched, &app.inputs) {
            Ok(got) => got.iter().zip(&expect).all(|(g, e)| g.approx_eq(e, 1e-3)),
            Err(_) => false,
        };
        let gsched = mdh_default_schedule(&app.program, DeviceKind::Gpu, 108 * 32);
        let gpu_ok = match sim.run(&app.program, &gsched, &app.inputs) {
            Ok((got, _)) => got.iter().zip(&expect).all(|(g, e)| g.approx_eq(e, 1e-3)),
            Err(_) => false,
        };
        if !cpu_ok || !gpu_ok {
            failures += 1;
        }
        println!(
            "{:<14} {:>4} {:<12} {:<10} {:<10}",
            app.name,
            app.input_no,
            path,
            if cpu_ok { "PASS" } else { "FAIL" },
            if gpu_ok { "PASS" } else { "FAIL" },
        );
    }
    println!();
    if failures == 0 {
        println!("all studies validate ✓");
    } else {
        println!("{failures} validation failure(s)");
        std::process::exit(1);
    }
    Ok(())
}
