//! Ablation: auto-tuning techniques and budgets (the ATF machinery).
//!
//! Tunes the MatMul GPU schedule with each search technique at several
//! evaluation budgets and reports the best simulated time found,
//! alongside the heuristic (untuned) schedule.
//!
//! Usage: `cargo run --release -p mdh-bench --bin ablation_tuning`

use mdh_apps::{instantiate, Scale, StudyId};
use mdh_backend::gpu::GpuSim;
use mdh_core::error::Result;
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::heuristics::mdh_default_schedule;
use mdh_tuner::{tune_gpu, Budget, Technique};

fn main() -> Result<()> {
    let sim = GpuSim::a100(2)?;
    println!("Ablation: tuning techniques on MatMul (GPU model)\n");
    for input_no in [1, 2] {
        let app = instantiate(
            StudyId {
                name: "MatMul",
                input_no,
            },
            Scale::Paper,
        )?;
        let heuristic = mdh_default_schedule(&app.program, DeviceKind::Gpu, 108 * 32);
        let h_cost = sim
            .estimate(&app.program, &heuristic)
            .map(|r| r.time_ms)
            .unwrap_or(f64::INFINITY);
        println!("MatMul Inp. {input_no}: heuristic schedule {h_cost:.4} ms");
        for technique in [
            Technique::Random,
            Technique::HillClimb,
            Technique::Annealing,
        ] {
            for budget in [25, 100, 400] {
                let tuned = tune_gpu(&sim, &app.program, technique, Budget::evals(budget));
                println!(
                    "  {technique:<10?} budget {budget:>4}: best {:>10.4} ms  ({:.2}x vs heuristic)",
                    tuned.cost,
                    h_cost / tuned.cost
                );
            }
        }
        println!();
    }
    Ok(())
}
