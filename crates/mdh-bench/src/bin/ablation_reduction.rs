//! Ablation: what parallel (tree) reduction is worth — the design choice
//! that distinguishes the MDH directive from every baseline.
//!
//! Runs Dot and PRL with MDH's reduction-aware schedule versus the same
//! schedule with reductions forced sequential (the PPCG/Pluto treatment),
//! on both the CPU (measured) and the GPU model (simulated).
//!
//! Usage: `cargo run --release -p mdh-bench --bin ablation_reduction`

use mdh_apps::{instantiate, Scale, StudyId};
use mdh_backend::cpu::CpuExecutor;
use mdh_backend::gpu::GpuSim;
use mdh_core::error::Result;
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::heuristics::mdh_default_schedule;
use mdh_lowering::schedule::ReductionStrategy;

fn main() -> Result<()> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let exec = CpuExecutor::new(threads)?;
    let sim = GpuSim::a100(2)?;

    println!("Ablation: parallel (tree) reductions vs sequential reductions\n");
    for (name, input_no) in [("Dot", 1), ("Dot", 2), ("PRL", 1)] {
        let app = instantiate(StudyId { name, input_no }, Scale::Medium)?;
        let par = mdh_default_schedule(&app.program, DeviceKind::Cpu, threads);
        let mut seq = par.clone();
        // forbid reduction splitting, as polyhedral compilers do
        for d in app.program.md_hom.reduction_dims() {
            seq.par_chunks[d] = 1;
            seq.block_threads[d] = 1;
        }
        seq.reduction = ReductionStrategy::Sequential;

        let t_par = exec
            .run_timed(&app.program, &par, &app.inputs)
            .map(|(_, d)| d.as_secs_f64());
        let t_seq = exec
            .run_timed(&app.program, &seq, &app.inputs)
            .map(|(_, d)| d.as_secs_f64());

        println!("{name} (Inp. {input_no}) on CPU ({threads} threads):");
        match (t_par, t_seq) {
            (Ok(p), Ok(s)) => println!(
                "  tree reduction {:.4} s   sequential {:.4} s   -> {:.2}x from reduction-awareness",
                p,
                s,
                s / p
            ),
            (p, s) => println!("  tree: {p:?}  sequential: {s:?}"),
        }

        // GPU model
        let gpar = mdh_default_schedule(&app.program, DeviceKind::Gpu, 108 * 32);
        let mut gseq = gpar.clone();
        for d in app.program.md_hom.reduction_dims() {
            gseq.par_chunks[d] = 1;
            gseq.block_threads[d] = 1;
        }
        gseq.reduction = ReductionStrategy::Sequential;
        let g_par = sim.estimate(&app.program, &gpar);
        let g_seq = sim.estimate(&app.program, &gseq);
        match (g_par, g_seq) {
            (Ok(p), Ok(s)) => println!(
                "  GPU model: tree {:.4} ms   sequential {:.4} ms   -> {:.1}x\n",
                p.time_ms,
                s.time_ms,
                s.time_ms / p.time_ms
            ),
            (p, s) => println!("  GPU model: tree {p:?} sequential {s:?}\n"),
        }
    }
    Ok(())
}
