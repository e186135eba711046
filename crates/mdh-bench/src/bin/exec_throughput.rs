//! Width-scaling study: the Fig. 3 case studies over thread counts
//! {1, 2, 4, N} on the persistent work-stealing pool.
//!
//! Usage:
//! ```text
//! cargo run --release -p mdh-bench --bin exec_throughput -- \
//!     [--scale paper|medium|small] [--out BENCH_exec.json]
//! ```
//!
//! One physical pool is built once (sized for the largest thread count);
//! every sweep point runs through a width-scoped handle of that pool, so
//! the per-point `threads_spawned_during` counters show that no OS thread
//! is created after warmup. One execution plan is built per study (for
//! the largest width — the serving scenario, where the plan cache hands
//! the same compiled plan to every pool width) and pinned across all
//! sweep points; the bin asserts the output bits are identical across
//! widths, which is what makes the speedups comparable (the bits
//! themselves are pinned by `mdh-apps/tests/routing_pin.rs`). Studies
//! whose paper sizes exceed the per-run flop budget (MCC-class
//! convolutions are ~1e13 flops) fall back to a smaller scale, print a
//! `SCALE_FALLBACK` line and record `scale_fallback_reason` in the JSON.
//!
//! GFLOP/s uses the algorithmic flop count `points x sf_flops_estimate`,
//! the same estimate the GPU simulator charges — an approximation (it
//! counts the scalar-function body once per point), not a hardware
//! counter. A point asking for more threads than the host has is still
//! timed, but it is marked `"gated": false` with the reason and carries no
//! `efficiency` (`speedup / threads` on gated points). The acceptance block
//! judges MatMul only when the run exercised the target — enough hardware
//! threads, its paper size, at least one pool region; otherwise it says
//! `"pass": null` with the reason and the bin exits 0.

use mdh_apps::{instantiate, AppInstance, Scale, StudyId, FIG3_STUDIES};
use mdh_backend::cpu::CpuExecutor;
use mdh_bench::parse_scale;
use mdh_core::buffer::bits_hash;
use mdh_core::error::Result;
use mdh_lowering::{mdh_default_schedule, DeviceKind, ExecutionPlan, Schedule};
use std::fmt::Write as _;
use std::time::Instant;

/// Per-run algorithmic flop budget before a study falls back to a
/// smaller scale. Paper MatMul (2 * 1024^3 ~ 2.1e9) must fit.
const FLOP_BUDGET: f64 = 4.0e9;
/// Keep timing a sweep point until this much time has accumulated...
const MIN_TOTAL_S: f64 = 0.25;
/// ...or this many timed iterations have run, whichever comes first.
const MAX_ITERS: usize = 5;
/// The acceptance bar: MatMul's efficiency at this width.
const GATE_THREADS: usize = 4;
const GATE_EFFICIENCY: f64 = 0.5;

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn flops_per_run(app: &AppInstance) -> f64 {
    let per_point = app.program.md_hom.sf.flops_estimate().max(1);
    app.program.md_hom.points() as f64 * per_point as f64
}

/// Instantiate at the requested scale, stepping down while the study
/// blows the per-run flop budget. A step-down returns the reason (which
/// scale was rejected and by how much) so callers can surface it instead
/// of silently shrinking the study.
fn instantiate_within_budget(
    name: &'static str,
    requested: Scale,
) -> (AppInstance, Scale, Option<String>) {
    let ladder: &[Scale] = match requested {
        Scale::Paper => &[Scale::Paper, Scale::Medium, Scale::Small],
        Scale::Medium => &[Scale::Medium, Scale::Small],
        Scale::Small => &[Scale::Small],
    };
    let mut reason = None;
    for &scale in ladder {
        let app = instantiate(StudyId { name, input_no: 1 }, scale)
            .unwrap_or_else(|e| panic!("{name} @ {scale:?}: {e}"));
        let flops = flops_per_run(&app);
        if flops <= FLOP_BUDGET || scale == Scale::Small {
            return (app, scale, reason);
        }
        reason = Some(format!(
            "{flops:.3e} flops/run at {scale:?} exceeds budget {FLOP_BUDGET:.1e}"
        ));
    }
    unreachable!("every ladder ends at Small")
}

struct Point {
    threads: usize,
    /// Why the host cannot exercise this point; `None` on a gated point.
    ungated_reason: Option<String>,
    iters: usize,
    best_ms: f64,
    gflops: f64,
    speedup: f64,
    threads_spawned_during: u64,
    regions_per_run: u64,
    output_hash: u64,
}

impl Point {
    /// `speedup / threads` on a gated point, the reason on an ungated one.
    fn efficiency(&self) -> Result<f64, &str> {
        match &self.ungated_reason {
            None => Ok(self.speedup / self.threads as f64),
            Some(reason) => Err(reason),
        }
    }
}

struct StudyRow {
    name: String,
    sizes: String,
    scale_used: Scale,
    scale_fallback_reason: Option<String>,
    path: String,
    flops: f64,
    plan_threads: usize,
    points: Vec<Point>,
}

/// Time one width; `speedup` is left at 1.0 for the caller, who knows the
/// 1-thread point.
fn time_point(
    exec: &CpuExecutor,
    app: &AppInstance,
    schedule: &Schedule,
    plan: &ExecutionPlan,
    threads: usize,
    hw: usize,
) -> Result<Point> {
    let spawn0 = rayon::total_threads_spawned();
    let regions0 = exec.pool().regions_executed();
    // the warmup run doubles as the determinism probe: its output bits and
    // region count are pure functions of (program, plan, width)
    let out = exec.run_planned(&app.program, schedule, plan, &app.inputs)?;
    let output_hash = bits_hash(&out);
    let threads_spawned_during = rayon::total_threads_spawned() - spawn0;
    let regions_per_run = exec.pool().regions_executed() - regions0;

    let mut best = f64::INFINITY;
    let mut total = 0.0;
    let mut iters = 0;
    while total < MIN_TOTAL_S && iters < MAX_ITERS {
        let t0 = Instant::now();
        let r = exec.run_planned(&app.program, schedule, plan, &app.inputs);
        let dt = t0.elapsed().as_secs_f64();
        r?;
        best = best.min(dt);
        total += dt;
        iters += 1;
    }
    Ok(Point {
        threads,
        ungated_reason: (threads > hw)
            .then(|| format!("{threads} threads > {hw} hardware threads")),
        iters,
        best_ms: best * 1e3,
        gflops: flops_per_run(app) / best / 1e9,
        speedup: 1.0,
        threads_spawned_during,
        regions_per_run,
        output_hash,
    })
}

fn run_study(
    name: &'static str,
    requested: Scale,
    base: &CpuExecutor,
    counts: &[usize],
    hw: usize,
) -> Result<StudyRow> {
    let (app, scale_used, fallback) = instantiate_within_budget(name, requested);
    if let Some(reason) = &fallback {
        println!(
            "SCALE_FALLBACK study=\"{name}\" requested={requested:?} used={scale_used:?} \
             reason=\"{reason}\""
        );
    }

    let plan_threads = counts.iter().copied().max().unwrap_or(1);
    let schedule = mdh_default_schedule(&app.program, DeviceKind::Cpu, plan_threads);
    let plan = ExecutionPlan::build(&app.program, &schedule)?;

    let mut points: Vec<Point> = Vec::new();
    for &t in counts {
        let exec = CpuExecutor::with_pool(base.pool(), t);
        let mut p = time_point(&exec, &app, &schedule, &plan, t, hw)?;
        if let Some(first) = points.first() {
            // one pinned plan: the sweep must be bit-identical, or the
            // speedups compare different computations
            assert_eq!(
                p.output_hash, first.output_hash,
                "{name}: output bits diverged between {} and {t} threads under one pinned plan",
                first.threads
            );
            p.speedup = first.best_ms / p.best_ms;
        }
        points.push(p);
    }

    Ok(StudyRow {
        name: app.name.clone(),
        sizes: app.sizes_desc.clone(),
        scale_used,
        scale_fallback_reason: fallback,
        path: format!("{:?}", base.path_for(&app.program)),
        flops: flops_per_run(&app),
        plan_threads,
        points,
    })
}

/// The acceptance block: MatMul's efficiency at `GATE_THREADS`, judged
/// only when the run exercised it — the host has that many threads, MatMul
/// ran at its paper size and the point entered the pool; `Err` is the
/// reason there is no verdict.
fn acceptance(rows: &[StudyRow]) -> Result<f64, String> {
    let row = rows.iter().find(|r| r.name == "MatMul");
    let row = row.ok_or("the sweep has no MatMul row")?;
    let point = row.points.iter().find(|p| p.threads == GATE_THREADS);
    let point = point.ok_or("the sweep did not time MatMul at GATE_THREADS")?;
    let eff = point.efficiency()?;
    if row.scale_used != Scale::Paper {
        let used = row.scale_used;
        return Err(format!("MatMul ran at {used:?} scale, not its paper size"));
    }
    if point.regions_per_run == 0 {
        return Err("MatMul ran sequentially (0 pool regions per run)".into());
    }
    Ok(eff)
}

fn to_json(
    rows: &[StudyRow],
    requested: Scale,
    hw: usize,
    counts: &[usize],
    pool_spawned: u64,
    verdict: &Result<f64, String>,
) -> String {
    let counts_s = counts
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"experiment\": \"exec_throughput\",");
    let _ = writeln!(j, "  \"requested_scale\": \"{requested:?}\",");
    let _ = writeln!(j, "  \"hw_threads\": {hw},");
    let _ = writeln!(j, "  \"thread_counts\": [{counts_s}],");
    let _ = writeln!(j, "  \"pool_threads_spawned_at_build\": {pool_spawned},");
    let _ = writeln!(
        j,
        "  \"efficiency_basis\": \"speedup / threads, on gated points (threads <= hw_threads) only\","
    );
    let _ = writeln!(
        j,
        "  \"flops_note\": \"algorithmic: points * sf_flops_estimate, not a hardware counter\","
    );
    let _ = writeln!(j, "  \"studies\": [");
    for (si, s) in rows.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"name\": \"{}\",", json_escape(&s.name));
        let _ = writeln!(j, "      \"sizes\": \"{}\",", json_escape(&s.sizes));
        let _ = writeln!(j, "      \"scale_used\": \"{:?}\",", s.scale_used);
        let fallback = match &s.scale_fallback_reason {
            Some(r) => format!("\"{}\"", json_escape(r)),
            None => "null".into(),
        };
        let _ = writeln!(j, "      \"scale_fallback_reason\": {fallback},");
        let _ = writeln!(j, "      \"path\": \"{}\",", s.path);
        let _ = writeln!(j, "      \"flops_per_run\": {:.0},", s.flops);
        let _ = writeln!(j, "      \"plan_threads\": {},", s.plan_threads);
        let _ = writeln!(j, "      \"points\": [");
        for (pi, p) in s.points.iter().enumerate() {
            let gate = match p.efficiency() {
                Ok(eff) => format!("\"gated\": true, \"efficiency\": {eff:.4}"),
                Err(reason) => format!("\"gated\": false, \"reason\": \"{reason}\""),
            };
            let _ = writeln!(
                j,
                "        {{\"threads\": {}, {gate}, \"iters\": {}, \"best_ms\": {:.4}, \
                 \"gflops\": {:.4}, \"speedup\": {:.4}, \"threads_spawned_during\": {}, \
                 \"regions_per_run\": {}}}{}",
                p.threads,
                p.iters,
                p.best_ms,
                p.gflops,
                p.speedup,
                p.threads_spawned_during,
                p.regions_per_run,
                if pi + 1 < s.points.len() { "," } else { "" }
            );
        }
        let _ = writeln!(j, "      ]");
        let _ = writeln!(j, "    }}{}", if si + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"acceptance\": {{");
    let _ = writeln!(j, "    \"matmul_efficiency_target\": {GATE_EFFICIENCY},");
    let _ = writeln!(j, "    \"matmul_threads\": {GATE_THREADS},");
    match verdict {
        Ok(eff) => {
            let _ = writeln!(j, "    \"matmul_efficiency\": {eff:.4},");
            let _ = writeln!(j, "    \"pass\": {}", *eff >= GATE_EFFICIENCY);
        }
        Err(reason) => {
            let _ = writeln!(j, "    \"pass\": null,");
            let _ = writeln!(j, "    \"reason\": \"{}\"", json_escape(reason));
        }
    }
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");
    j
}

fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let requested = arg(&args, "--scale")
        .map(|s| parse_scale(&s))
        .unwrap_or(Scale::Paper);
    let out_path = arg(&args, "--out").unwrap_or_else(|| "BENCH_exec.json".into());

    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 2, 4, hw];
    counts.sort_unstable();
    counts.dedup();
    let max_threads = hw.max(4);

    let spawn0 = rayon::total_threads_spawned();
    let base = CpuExecutor::new(max_threads)?;
    let pool_spawned = rayon::total_threads_spawned() - spawn0;

    println!(
        "=== exec throughput ({requested:?} scale, hw_threads={hw}, pool={max_threads} threads) ==="
    );

    let mut rows = Vec::new();
    // a `StudyId` is unique, so input 1 names each study once
    for id in FIG3_STUDIES.iter().filter(|id| id.input_no == 1) {
        let row = run_study(id.name, requested, &base, &counts, hw)?;
        println!(
            "\n--- {} ({}) — {:?} scale, {} path, {:.2e} flops/run ---",
            row.name, row.sizes, row.scale_used, row.path, row.flops
        );
        println!(
            "  {:>7}  {:>10}  {:>9}  {:>8}  {:>10}  {:>7}  {:>8}",
            "threads", "best ms", "GFLOP/s", "speedup", "efficiency", "spawns", "regions"
        );
        for p in &row.points {
            println!(
                "  {:>7}  {:>10.3}  {:>9.3}  {:>7.2}x  {:>10}  {:>7}  {:>8}",
                p.threads,
                p.best_ms,
                p.gflops,
                p.speedup,
                p.efficiency()
                    .map_or("ungated".into(), |e| format!("{e:.2}")),
                p.threads_spawned_during,
                p.regions_per_run
            );
        }
        rows.push(row);
    }

    let verdict = acceptance(&rows);
    let json = to_json(&rows, requested, hw, &counts, pool_spawned, &verdict);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("{out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");

    match verdict {
        Ok(eff) if eff >= GATE_EFFICIENCY => println!(
            "acceptance: MatMul @ {GATE_THREADS} threads efficiency {eff:.2} \
             (target >= {GATE_EFFICIENCY}) — OK"
        ),
        Ok(eff) => {
            eprintln!(
                "acceptance FAILED: MatMul @ {GATE_THREADS} threads efficiency {eff:.2} \
                 (need >= {GATE_EFFICIENCY})"
            );
            std::process::exit(1);
        }
        Err(reason) => println!("acceptance: no verdict — {reason}"),
    }
    Ok(())
}
