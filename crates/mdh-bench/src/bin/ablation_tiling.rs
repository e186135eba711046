//! Section 5.2's CCSD(T)/OpenACC study: what automatic tiling is worth.
//!
//! The paper reports OpenACC >150× slower than MDH without tiling and
//! ~60× slower with the best hand-applied `tile` directive. This binary
//! reproduces the three-way comparison on the GPU cost model.
//!
//! Usage: `cargo run --release -p mdh-bench --bin ablation_tiling`

use mdh_apps::{instantiate, Scale, StudyId};
use mdh_backend::gpu::GpuSim;
use mdh_baselines::schedulers::{Baseline, OpenAccLike};
use mdh_core::error::Result;
use mdh_tuner::{tune_gpu, Budget, Technique};

fn main() -> Result<()> {
    let sim = GpuSim::a100(2)?;
    println!("Ablation: automatic tiling (CCSD(T) on the A100 model)\n");
    for input_no in [1, 2] {
        let app = instantiate(
            StudyId {
                name: "CCSD(T)",
                input_no,
            },
            Scale::Paper,
        )?;

        let mdh = tune_gpu(&sim, &app.program, Technique::Annealing, Budget::evals(300));
        let acc_untiled = OpenAccLike {
            manual_tiling: false,
        }
        .schedule(&app.program)
        .and_then(|s| {
            sim.estimate(&app.program, &s)
                .map_err(|e| mdh_baselines::schedulers::ScheduleError {
                    system: "OpenACC".into(),
                    reason: e.to_string(),
                })
        });
        let acc_manual = OpenAccLike {
            manual_tiling: true,
        }
        .schedule(&app.program)
        .and_then(|s| {
            sim.estimate(&app.program, &s)
                .map_err(|e| mdh_baselines::schedulers::ScheduleError {
                    system: "OpenACC".into(),
                    reason: e.to_string(),
                })
        });

        println!("CCSD(T) Inp. {input_no}:");
        println!("  MDH (tuned, staged tiles)      {:>10.3} ms", mdh.cost);
        match acc_untiled {
            Ok(r) => println!(
                "  OpenACC (no tiling)            {:>10.3} ms   ({:.0}x slower than MDH)",
                r.time_ms,
                r.time_ms / mdh.cost
            ),
            Err(e) => println!("  OpenACC (no tiling)            FAIL: {e}"),
        }
        match acc_manual {
            Ok(r) => println!(
                "  OpenACC (manual tile pragma)   {:>10.3} ms   ({:.0}x slower than MDH)",
                r.time_ms,
                r.time_ms / mdh.cost
            ),
            Err(e) => println!("  OpenACC (manual tile pragma)   FAIL: {e}"),
        }
        println!();
    }
    println!("Paper reference: >150x (untiled), ~60x (manually tiled).");
    Ok(())
}
