//! # mdh-bench
//!
//! The experiment harness regenerating the paper's evaluation:
//!
//! * `figure3` — the workload-characteristics table,
//! * `figure4` — the speedup series of MDH vs every baseline, per device,
//! * `ablation_*` — the Section 5.2 deep-dives (tiling on CCSD(T),
//!   reduction parallelisation, tuning techniques).
//!
//! The library half contains the shared machinery: running one case study
//! on every system and collecting times/failures.

#![allow(clippy::needless_range_loop)]
pub mod stats;

use mdh_apps::{AppInstance, Scale, StudyId};
use mdh_backend::cpu::CpuExecutor;
use mdh_backend::cpu_model::{estimate_cpu, CpuParams};
use mdh_backend::gpu::GpuSim;
use mdh_baselines::schedulers::{
    Baseline, NumbaLike, OpenAccLike, OpenMpLike, PlutoLike, PpcgLike, TvmLike,
};
use mdh_baselines::vendor::{VendorCpu, VendorCpuModel, VendorGpu};
use mdh_core::error::Result;
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::schedule::Schedule;
use mdh_tuner::{tune_cpu, tune_cpu_model, tune_gpu, Budget, Technique};

/// Outcome for one system on one study.
#[derive(Debug, Clone)]
pub struct SystemResult {
    pub system: String,
    /// Execution time (seconds on CPU, milliseconds on the GPU
    /// simulator), or the failure reason.
    pub outcome: Result<f64, String>,
}

impl SystemResult {
    pub fn time(&self) -> Option<f64> {
        self.outcome.as_ref().ok().copied()
    }
}

/// All systems' results for one study on one device.
#[derive(Debug, Clone)]
pub struct StudyResult {
    pub study: String,
    pub input_no: usize,
    pub device: DeviceKind,
    pub results: Vec<SystemResult>,
}

impl StudyResult {
    /// MDH's time (the reference for speedups).
    pub fn mdh_time(&self) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.system == "MDH")
            .and_then(|r| r.time())
    }

    /// Speedup of MDH over the named system (>1 = MDH faster).
    pub fn speedup_vs(&self, system: &str) -> Option<f64> {
        let mdh = self.mdh_time()?;
        let other = self.results.iter().find(|r| r.system == system)?.time()?;
        Some(other / mdh)
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    pub threads: usize,
    /// Tuning budget for MDH (evaluations; the paper used 12 h).
    pub mdh_budget: usize,
    /// Tuning budget for tuned baselines (TVM, PPCG+ATF, Pluto+ATF).
    pub baseline_budget: usize,
    /// Measured repetitions per configuration on CPU (min taken).
    pub reps: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            mdh_budget: 24,
            baseline_budget: 8,
            reps: 2,
        }
    }
}

/// Measure a schedule's wall time with the paper's protocol (Section
/// 5.1, Hoefler & Belli): repeat until the 99% CI is within 5% of the
/// mean, using `reps` as the minimum and `8·reps` as the cap.
fn min_time(
    exec: &CpuExecutor,
    app: &AppInstance,
    s: &Schedule,
    reps: usize,
) -> Result<f64, String> {
    let mut err: Option<String> = None;
    let m = stats::measure_until_ci(
        || match exec.run_timed(&app.program, s, &app.inputs) {
            Ok((_, d)) => d.as_secs_f64(),
            Err(e) => {
                err = Some(e.to_string());
                f64::INFINITY
            }
        },
        0.99,
        0.05,
        reps.max(2),
        (reps * 8).max(4),
    );
    match err {
        Some(e) => Err(e),
        None => Ok(m.mean),
    }
}

/// CPU timing mode: modelled Xeon Gold 6140 (the default — this
/// container exposes a single core, see `mdh_backend::cpu_model`) or
/// measured wall time on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuTiming {
    /// Analytic Xeon model; times in milliseconds.
    Model,
    /// Measured host execution; times in seconds.
    Measured,
}

/// Run one study on the CPU against all CPU systems.
pub fn run_cpu_study(
    app: &AppInstance,
    cfg: &HarnessConfig,
    timing: CpuTiming,
) -> Result<StudyResult> {
    let params = CpuParams::xeon_gold_6140();
    let threads = match timing {
        CpuTiming::Model => params.smt_threads,
        CpuTiming::Measured => cfg.threads,
    };
    let exec = CpuExecutor::new(cfg.threads)?;
    let cost = |s: &Schedule| -> Result<f64, String> {
        match timing {
            CpuTiming::Model => estimate_cpu(&app.program, s, &params)
                .map(|r| r.time_ms)
                .map_err(|e| e.to_string()),
            CpuTiming::Measured => min_time(&exec, app, s, cfg.reps),
        }
    };
    let mut results = Vec::new();

    // --- MDH: auto-tuned schedule ----------------------------------------
    let tuned = match timing {
        CpuTiming::Model => tune_cpu_model(
            &app.program,
            &params,
            Technique::Annealing,
            Budget::evals(cfg.mdh_budget * 4),
        ),
        CpuTiming::Measured => tune_cpu(
            &exec,
            &app.program,
            &app.inputs,
            Technique::Annealing,
            Budget::evals(cfg.mdh_budget),
        ),
    };
    results.push(SystemResult {
        system: "MDH".into(),
        outcome: cost(&tuned.schedule),
    });

    // --- directive baselines --------------------------------------------
    let baselines: Vec<Box<dyn Baseline>> = vec![
        Box::new(OpenMpLike { threads }),
        Box::new(PlutoLike::heuristic(threads)),
        Box::new(NumbaLike { threads }),
    ];
    for b in &baselines {
        let outcome = match b.schedule(&app.program) {
            Ok(s) => cost(&s),
            Err(e) => Err(e.reason),
        };
        results.push(SystemResult {
            system: b.name().to_string(),
            outcome,
        });
    }

    // --- Pluto + ATF: tile sizes tuned ----------------------------------
    {
        let mut best: Result<f64, String> = Err("no valid tile".into());
        for tile in [8, 16, 32, 64, 128] {
            match PlutoLike::with_tile(threads, tile, "Pluto+ATF").schedule(&app.program) {
                Ok(s) => {
                    if let Ok(t) = cost(&s) {
                        best = Ok(match best {
                            Ok(b) => b.min(t),
                            Err(_) => t,
                        });
                    }
                }
                Err(e) => {
                    best = Err(e.reason);
                    break;
                }
            }
        }
        results.push(SystemResult {
            system: "Pluto+ATF".into(),
            outcome: best,
        });
    }

    // --- TVM: tuned templates, restricted reducers -----------------------
    {
        let tvm = TvmLike {
            device: DeviceKind::Cpu,
            parallel_units: threads,
        };
        let outcome = match tvm.schedule(&app.program) {
            Ok(_) => {
                let tuned = match timing {
                    CpuTiming::Model => tune_cpu_model(
                        &app.program,
                        &params,
                        Technique::Random,
                        Budget::evals(cfg.baseline_budget * 4),
                    ),
                    CpuTiming::Measured => tune_cpu(
                        &exec,
                        &app.program,
                        &app.inputs,
                        Technique::Random,
                        Budget::evals(cfg.baseline_budget),
                    ),
                };
                cost(&tuned.schedule)
            }
            Err(e) => Err(e.reason),
        };
        results.push(SystemResult {
            system: "TVM".into(),
            outcome,
        });
    }

    // --- vendor library ----------------------------------------------------
    {
        let outcome = match (&app.vendor_op, timing) {
            (Some(op), CpuTiming::Model) => Ok(VendorCpuModel::xeon_gold_6140().estimate_ms(op)),
            (Some(op), CpuTiming::Measured) => VendorCpu::new(cfg.threads)
                .map_err(|e| e.to_string())
                .and_then(|vendor| {
                    let mut err = None;
                    let m = stats::measure_until_ci(
                        || match vendor.run(op, &app.inputs) {
                            Some((_, d)) => d.as_secs_f64(),
                            None => {
                                err = Some("unsupported input type".to_string());
                                f64::INFINITY
                            }
                        },
                        0.99,
                        0.05,
                        cfg.reps.max(2),
                        (cfg.reps * 8).max(4),
                    );
                    match err {
                        Some(e) => Err(e),
                        None => Ok(m.mean),
                    }
                }),
            (None, _) => Err("operation not covered by oneMKL/oneDNN".into()),
        };
        results.push(SystemResult {
            system: "oneMKL/oneDNN".into(),
            outcome,
        });
    }

    Ok(StudyResult {
        study: app.name.clone(),
        input_no: app.input_no,
        device: DeviceKind::Cpu,
        results,
    })
}

/// Run one study on the simulated GPU against all GPU systems. Returns
/// simulated times in milliseconds.
pub fn run_gpu_study(app: &AppInstance, cfg: &HarnessConfig) -> Result<StudyResult> {
    let sim = GpuSim::a100(cfg.threads.min(4))?;
    let mut results = Vec::new();

    // --- MDH: auto-tuned against the cost model (hybrid search, as a
    // short stand-in for the paper's 12 h ATF budget) ----------------------
    let t1 = tune_gpu(
        &sim,
        &app.program,
        Technique::Annealing,
        Budget::evals(cfg.mdh_budget * 4),
    );
    let t2 = tune_gpu(
        &sim,
        &app.program,
        Technique::Random,
        Budget::evals(cfg.mdh_budget * 4),
    );
    let tuned = if t1.cost <= t2.cost { t1 } else { t2 };
    results.push(SystemResult {
        system: "MDH".into(),
        outcome: if tuned.cost.is_finite() {
            Ok(tuned.cost)
        } else {
            Err("no valid schedule found".into())
        },
    });

    // --- directive baselines ---------------------------------------------
    let baselines: Vec<Box<dyn Baseline>> = vec![
        Box::new(OpenAccLike {
            manual_tiling: false,
        }),
        Box::new(OpenAccLike {
            manual_tiling: true,
        }),
        Box::new(PpcgLike::heuristic()),
    ];
    for b in &baselines {
        let outcome = match b.schedule(&app.program) {
            Ok(s) => sim
                .estimate(&app.program, &s)
                .map(|r| r.time_ms)
                .map_err(|e| e.to_string()),
            Err(e) => Err(e.reason),
        };
        results.push(SystemResult {
            system: b.name().to_string(),
            outcome,
        });
    }

    // --- PPCG + ATF: tile sizes tuned --------------------------------------
    {
        let mut best: Result<f64, String> = Err("no valid tile".into());
        for tile in [4, 8, 16, 32, 64] {
            match PpcgLike::with_tile(tile, "PPCG+ATF").schedule(&app.program) {
                Ok(s) => {
                    if let Ok(r) = sim.estimate(&app.program, &s) {
                        best = Ok(match best {
                            Ok(b) => b.min(r.time_ms),
                            Err(_) => r.time_ms,
                        });
                    }
                }
                Err(e) => {
                    best = Err(e.reason);
                    break;
                }
            }
        }
        results.push(SystemResult {
            system: "PPCG+ATF".into(),
            outcome: best,
        });
    }

    // --- TVM -----------------------------------------------------------------
    {
        let tvm = TvmLike {
            device: DeviceKind::Gpu,
            parallel_units: sim.params.num_sms * 32,
        };
        let outcome = match tvm.schedule(&app.program) {
            Ok(_) => {
                let tuned = tune_gpu(
                    &sim,
                    &app.program,
                    Technique::Random,
                    Budget::evals(cfg.baseline_budget * 8),
                );
                if tuned.cost.is_finite() {
                    Ok(tuned.cost)
                } else {
                    Err("no valid schedule".into())
                }
            }
            Err(e) => Err(e.reason),
        };
        results.push(SystemResult {
            system: "TVM".into(),
            outcome,
        });
    }

    // --- vendor library --------------------------------------------------------
    {
        let outcome = match &app.vendor_op {
            Some(op) => Ok(VendorGpu::a100().estimate_ms(op)),
            None => Err("operation not covered by cuBLAS/cuDNN".into()),
        };
        results.push(SystemResult {
            system: "cuBLAS/cuDNN".into(),
            outcome,
        });
    }

    Ok(StudyResult {
        study: app.name.clone(),
        input_no: app.input_no,
        device: DeviceKind::Gpu,
        results,
    })
}

/// Pretty-print one study's results as a Figure-4 row block.
pub fn print_study(res: &StudyResult, unit: &str) {
    println!("\n{} (Inp. {}) — {}", res.study, res.input_no, res.device);
    let mdh = res.mdh_time();
    for r in &res.results {
        match (&r.outcome, mdh) {
            (Ok(t), Some(m)) if r.system != "MDH" => {
                println!(
                    "  {:<22} {:>12.4} {unit}   speedup of MDH: {:>8.2}x",
                    r.system,
                    t,
                    t / m
                );
            }
            (Ok(t), _) => {
                println!("  {:<22} {:>12.4} {unit}", r.system, t);
            }
            (Err(e), _) => {
                println!("  {:<22} {:>12} FAIL: {e}", r.system, "-");
            }
        }
    }
}

/// Parse a scale name.
pub fn parse_scale(s: &str) -> Scale {
    match s {
        "paper" => Scale::Paper,
        "small" => Scale::Small,
        _ => Scale::Medium,
    }
}

/// Parse a study filter like "MatVec" or "all".
pub fn select_studies(filter: &str) -> Vec<StudyId> {
    mdh_apps::FIG3_STUDIES
        .iter()
        .copied()
        .filter(|id| filter == "all" || id.name.eq_ignore_ascii_case(filter))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_apps::instantiate;

    fn small_cfg() -> HarnessConfig {
        HarnessConfig {
            threads: 2,
            mdh_budget: 4,
            baseline_budget: 2,
            reps: 1,
        }
    }

    #[test]
    fn cpu_harness_runs_matvec() {
        let app = instantiate(
            StudyId {
                name: "MatVec",
                input_no: 1,
            },
            Scale::Small,
        )
        .unwrap();
        for timing in [CpuTiming::Measured, CpuTiming::Model] {
            let res = run_cpu_study(&app, &small_cfg(), timing).unwrap();
            assert!(res.mdh_time().is_some(), "{timing:?}");
            assert!(res
                .results
                .iter()
                .any(|r| r.system == "OpenMP" && r.time().is_some()));
            assert!(res.speedup_vs("OpenMP").is_some());
        }
    }

    #[test]
    fn gpu_harness_runs_matvec_and_ppcg_fails_on_dot() {
        let cfg = small_cfg();
        let app = instantiate(
            StudyId {
                name: "MatVec",
                input_no: 1,
            },
            Scale::Small,
        )
        .unwrap();
        let res = run_gpu_study(&app, &cfg).unwrap();
        assert!(res.mdh_time().is_some());

        let dot = instantiate(
            StudyId {
                name: "Dot",
                input_no: 1,
            },
            Scale::Small,
        )
        .unwrap();
        let res = run_gpu_study(&dot, &cfg).unwrap();
        let ppcg = res.results.iter().find(|r| r.system == "PPCG").unwrap();
        assert!(ppcg.outcome.is_err(), "PPCG must fail on Dot");
    }

    #[test]
    fn prl_fails_for_pluto_and_tvm_in_harness() {
        let app = instantiate(
            StudyId {
                name: "PRL",
                input_no: 1,
            },
            Scale::Small,
        )
        .unwrap();
        let res = run_cpu_study(&app, &small_cfg(), CpuTiming::Model).unwrap();
        let pluto = res.results.iter().find(|r| r.system == "Pluto").unwrap();
        assert!(pluto.outcome.is_err());
        let tvm = res.results.iter().find(|r| r.system == "TVM").unwrap();
        assert!(tvm.outcome.is_err());
        // vendor does not cover PRL
        let vendor = res
            .results
            .iter()
            .find(|r| r.system == "oneMKL/oneDNN")
            .unwrap();
        assert!(vendor.outcome.is_err());
    }

    #[test]
    fn study_selection() {
        assert_eq!(select_studies("all").len(), mdh_apps::FIG3_STUDIES.len());
        assert_eq!(select_studies("matvec").len(), 2);
        assert!(select_studies("nonexistent").is_empty());
    }
}
