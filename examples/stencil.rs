//! Stencils: 3D Jacobi through the directive (reduction-free, cc-only)
//! with the direct-write parallel fast map kernel.
//!
//! ```text
//! cargo run --release --example stencil
//! ```

use mdh::apps::stencil::jacobi_3d;
use mdh::apps::Scale;
use mdh::backend::cpu::CpuExecutor;
use mdh::lowering::asm::DeviceKind;
use mdh::lowering::heuristics::mdh_default_schedule;
use mdh::lowering::schedule::Schedule;

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let app = jacobi_3d(Scale::Medium, 1).expect("jacobi");
    println!("Jacobi_3D: {} (7-point, stride-1)", app.sizes_desc);

    let exec = CpuExecutor::new(threads).expect("executor");

    // sequential vs parallel map execution
    let seq = Schedule::sequential(3, DeviceKind::Cpu);
    let (out_seq, t_seq) = exec
        .run_timed(&app.program, &seq, &app.inputs)
        .expect("seq run");
    let par = mdh_default_schedule(&app.program, DeviceKind::Cpu, threads);
    let (out_par, t_par) = exec
        .run_timed(&app.program, &par, &app.inputs)
        .expect("par run");
    assert!(out_seq[0].approx_eq(&out_par[0], 1e-5));
    println!(
        "sequential {:.1} ms, parallel ({} tasks) {:.1} ms — results identical ✓",
        t_seq.as_secs_f64() * 1e3,
        par.grid_size(),
        t_par.as_secs_f64() * 1e3
    );
}
