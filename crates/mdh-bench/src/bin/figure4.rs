//! Regenerates Figure 4: speedup of the MDH directive over every
//! baseline, per device and case study.
//!
//! Usage:
//! ```text
//! cargo run --release -p mdh-bench --bin figure4 -- \
//!     [--device cpu|gpu|both] [--scale paper|medium|small] \
//!     [--studies all|<name>] [--budget N] [--reps N]
//! ```
//!
//! GPU results come from the A100-class cost model (full paper sizes are
//! the default there); CPU results are measured wall time on this host
//! (default scale `medium` so the full sweep finishes in minutes — see
//! EXPERIMENTS.md).

use mdh_apps::{instantiate, Scale};
use mdh_bench::{
    parse_scale, print_study, run_cpu_study, run_gpu_study, select_studies, CpuTiming,
    HarnessConfig,
};
use mdh_lowering::asm::DeviceKind;

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let device = arg(&args, "--device").unwrap_or_else(|| "both".into());
    let filter = arg(&args, "--studies").unwrap_or_else(|| "all".into());
    let mut cfg = HarnessConfig::default();
    if let Some(b) = arg(&args, "--budget").and_then(|s| s.parse().ok()) {
        cfg.mdh_budget = b;
        cfg.baseline_budget = (b / 3).max(1);
    }
    if let Some(r) = arg(&args, "--reps").and_then(|s| s.parse().ok()) {
        cfg.reps = r;
    }
    let cpu_timing = if args.iter().any(|a| a == "--measured") {
        CpuTiming::Measured
    } else {
        CpuTiming::Model
    };

    let studies = select_studies(&filter);
    if studies.is_empty() {
        eprintln!("no studies match '{filter}'");
        std::process::exit(1);
    }

    let devices: Vec<DeviceKind> = match device.as_str() {
        "cpu" => vec![DeviceKind::Cpu],
        "gpu" => vec![DeviceKind::Gpu],
        _ => vec![DeviceKind::Gpu, DeviceKind::Cpu],
    };

    for dev in devices {
        // GPU timing is analytic: paper sizes by default. CPU timing is
        // measured: medium sizes by default.
        let default_scale = match (dev, cpu_timing) {
            (DeviceKind::Gpu, _) => Scale::Paper,
            (DeviceKind::Cpu, CpuTiming::Model) => Scale::Paper,
            (DeviceKind::Cpu, CpuTiming::Measured) => Scale::Medium,
        };
        let scale = arg(&args, "--scale")
            .map(|s| parse_scale(&s))
            .unwrap_or(default_scale);
        println!(
            "\n=== Figure 4 ({dev}) — scale {scale:?}, MDH budget {} evals ===",
            cfg.mdh_budget
        );
        let unit = match (dev, cpu_timing) {
            (DeviceKind::Gpu, _) => "ms(sim)",
            (DeviceKind::Cpu, CpuTiming::Model) => "ms(model)",
            (DeviceKind::Cpu, CpuTiming::Measured) => "s",
        };
        for &id in &studies {
            let app = match instantiate(id, scale) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{} (Inp. {}): {e}", id.name, id.input_no);
                    continue;
                }
            };
            let res = match dev {
                DeviceKind::Gpu => run_gpu_study(&app, &cfg),
                DeviceKind::Cpu => run_cpu_study(&app, &cfg, cpu_timing),
            };
            match res {
                Ok(res) => print_study(&res, unit),
                Err(e) => eprintln!("{} (Inp. {}): {e}", id.name, id.input_no),
            }
        }
    }
}
