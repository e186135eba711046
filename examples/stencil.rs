//! Stencils: 3D Jacobi through the directive (reduction-free, cc-only)
//! with the direct-write parallel fast map kernel.
//!
//! The sequential run, the parallel run and a second parallel run must
//! agree bit for bit. The second parallel run starts after the first one's
//! output is dropped, so its 65.5 MB output is that recycled host block,
//! handed back without a zero fill because the kernel provably writes
//! every element; the last line is the output's hash, which two runs of
//! this example must print identically.
//!
//! ```text
//! cargo run --release --example stencil
//! ```

use mdh::apps::stencil::jacobi_3d;
use mdh::apps::Scale;
use mdh::backend::cpu::CpuExecutor;
use mdh::core::buffer::{bits_hash, host_blocks};
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
    let hash = bits_hash(&out_seq);
    assert_eq!(bits_hash(&out_par), hash, "parallel run differs");
    drop(out_par);

    // the dropped output's block comes back for the next run's output
    let (reuses, _, _) = host_blocks().counters();
    let (out_again, t_again) = exec
        .run_timed(&app.program, &par, &app.inputs)
        .expect("recycled run");
    assert!(
        host_blocks().counters().0 > reuses,
        "the second parallel run reuses a held block"
    );
    assert_eq!(bits_hash(&out_again), hash, "recycled-block run differs");
    println!(
        "sequential {:.1} ms, parallel ({} tasks) {:.1} ms, again on a recycled block {:.1} ms \
         — bit-identical ✓",
        t_seq.as_secs_f64() * 1e3,
        par.grid_size(),
        t_par.as_secs_f64() * 1e3,
        t_again.as_secs_f64() * 1e3
    );
    println!("output-hash {hash:016x}");
}
