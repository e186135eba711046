//! Multi-device scaling experiment: how do the Fig. 3 case studies
//! scale across 1/2/4/8 simulated A100s, and what do the cross-device
//! combine trees cost?
//!
//! Usage:
//! ```text
//! cargo run --release -p mdh-bench --bin dist_scaling -- \
//!     [--scale paper|medium|small] [--out BENCH_dist.json]
//! ```
//!
//! Every time in this study is **modelled**, none is measured: it comes
//! from [`mdh_dist::DistExecutor::estimate`] — the same analytic pipeline
//! the executor attaches to real runs (whose values are property-tested
//! bit-identical against single-device execution) — or, in the healing
//! study, from launches on simulated devices. So the sweep is
//! deterministic and free at paper sizes, every such column in
//! `BENCH_dist.json` is named `model_*`, and CI diffs a fresh run against
//! the committed file byte for byte. Results go to stdout as a table and
//! to the JSON as records: per-device-count hot/cold speedup,
//! combine-tree overhead, and transfer share. Measured host time for the
//! same pool is `stack_bench`'s `wire_pool4_gpu` workload.
//!
//! The acceptance bars checked at the end: at 4 devices, at least one
//! reduction-heavy kernel (partition strategy `pw`) must show hot
//! speedup > 1.5x with a non-trivial combine tree; and in the
//! `resident` study (repeated launches through an `mdh-mem` pool), the
//! gated repeated-operand workload's warm relaunch must spend < 10% of
//! its time on transfer and land within 2x of the hot (zero-transfer)
//! model.

use mdh_apps::{instantiate, Scale, StudyId};
use mdh_bench::parse_scale;
use mdh_dist::{DevicePool, DistExecutor, DistReport, FaultPlan, HealPolicy, MemLaunchStats};
use mdh_mem::MemPool;
use std::fmt::Write as _;
use std::sync::Arc;

const DEVICE_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Per-device residency budget for the `resident` study — comfortably
/// larger than any paper-scale working set, so the study isolates
/// residency reuse from eviction pressure (pressure behaviour is
/// covered by the mdh-mem and mdh-dist test suites instead).
const RESIDENT_BUDGET: u64 = 2 << 30;
/// Device counts for the `resident` study (8 adds nothing: the warm
/// path is already transfer-free at 4).
const RESIDENT_COUNTS: [usize; 3] = [1, 2, 4];
/// `healing` study shape: a straggler workload where every
/// `HEALING_STRAGGLER_EVERY`-th launch stretches one rotating device's
/// H2D by `HEALING_SLOW_FACTOR`, run with and without the hedged
/// watchdog. Fixed at Small scale and real (not estimated) launches —
/// faults only fire on real launches — so the study costs milliseconds
/// at any sweep scale.
const HEALING_DEVICES: usize = 4;
const HEALING_LAUNCHES: usize = 24;
const HEALING_STRAGGLER_EVERY: usize = 3;
const HEALING_SLOW_FACTOR: u32 = 40;
const HEALING_HEDGE_MS: f64 = 0.05;

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

struct Point {
    devices: usize,
    report: DistReport,
    speedup_hot: f64,
    speedup_cold: f64,
}

struct StudyResult {
    name: String,
    sizes: String,
    strategy: &'static str,
    points: Vec<Point>,
}

/// `r`'s value, or `None` once `what` and the error are printed.
fn reported<T>(what: &str, r: mdh_core::error::Result<T>) -> Option<T> {
    r.map_err(|e| eprintln!("{what}: {e}")).ok()
}

fn run_study(name: &'static str, scale: Scale) -> Option<StudyResult> {
    let app = match instantiate(StudyId { name, input_no: 1 }, scale) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{name}: {e}");
            return None;
        }
    };
    let mut points = Vec::new();
    let mut base: Option<(f64, f64)> = None;
    for devices in DEVICE_COUNTS {
        let dist = reported(name, DistExecutor::new(DevicePool::gpus(devices)))?;
        let report = match dist.estimate(&app.program, &app.inputs) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name} @ {devices} devices: {e}");
                return None;
            }
        };
        let (hot1, cold1) = *base.get_or_insert((report.hot_ms, report.total_ms));
        points.push(Point {
            devices,
            speedup_hot: hot1 / report.hot_ms,
            speedup_cold: cold1 / report.total_ms,
            report,
        });
    }
    let strategy = points[1].report.strategy_label();
    Some(StudyResult {
        name: app.name.clone(),
        sizes: app.sizes_desc.clone(),
        strategy,
        points,
    })
}

/// One device count of the `resident` study: the same launch estimated
/// twice through one pool-attached executor. The first (cold) launch
/// pays full H2D and populates residency; the second (warm) launch
/// re-uploads only what residency could not serve. `hot_ms` is the
/// zero-transfer model from the same report.
struct ResidentPoint {
    devices: usize,
    cold: DistReport,
    warm: DistReport,
}

impl ResidentPoint {
    fn warm_mem(&self) -> MemLaunchStats {
        self.warm.mem.unwrap_or_default()
    }

    fn warm_hot_ratio(&self) -> f64 {
        if self.warm.hot_ms <= 0.0 {
            return 1.0;
        }
        self.warm.total_ms / self.warm.hot_ms
    }
}

struct ResidentResult {
    name: String,
    sizes: String,
    strategy: &'static str,
    /// Whether this study is held to the repeated-operand acceptance
    /// bar. Reduction kernels whose hot path is dominated by combine
    /// and D2H transfer (e.g. Dot) are reported but not gated: the
    /// pool removes input H2D, not output movement.
    gated: bool,
    points: Vec<ResidentPoint>,
}

fn run_resident_study(name: &'static str, scale: Scale, gated: bool) -> Option<ResidentResult> {
    let app = match instantiate(StudyId { name, input_no: 1 }, scale) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{name}: {e}");
            return None;
        }
    };
    let mut points = Vec::new();
    for devices in RESIDENT_COUNTS {
        let dist = reported(name, DistExecutor::new(DevicePool::gpus(devices)))?
            .with_mem(Arc::new(MemPool::new(devices, RESIDENT_BUDGET)));
        let launch = || match dist.estimate(&app.program, &app.inputs) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("{name} @ {devices} devices (resident): {e}");
                None
            }
        };
        let cold = launch()?;
        let warm = launch()?;
        points.push(ResidentPoint {
            devices,
            cold,
            warm,
        });
    }
    let strategy = points[points.len() - 1].cold.strategy_label();
    Some(ResidentResult {
        name: app.name.clone(),
        sizes: app.sizes_desc.clone(),
        strategy,
        gated,
        points,
    })
}

/// One arm of the `healing` study: per-launch modelled totals plus the
/// cumulative fault counters of the arm's executor.
struct HealingArm {
    totals_ms: Vec<f64>,
    stats: mdh_dist::FaultStats,
}

impl HealingArm {
    /// Nearest-rank percentile of the modelled launch totals.
    fn percentile_ms(&self, p: f64) -> f64 {
        if self.totals_ms.is_empty() {
            return 0.0;
        }
        let mut sorted = self.totals_ms.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    fn mean_ms(&self) -> f64 {
        if self.totals_ms.is_empty() {
            return 0.0;
        }
        self.totals_ms.iter().sum::<f64>() / self.totals_ms.len() as f64
    }
}

struct HealingResult {
    name: String,
    sizes: String,
    plan: String,
    unhedged: HealingArm,
    hedged: HealingArm,
}

/// The rotating-straggler fault plan shared by both arms: every
/// `HEALING_STRAGGLER_EVERY`-th launch, device `launch % devices` gets a
/// `HEALING_SLOW_FACTOR`× slow H2D link.
fn healing_plan() -> FaultPlan {
    let mut plan = FaultPlan::none();
    for launch in (0..HEALING_LAUNCHES).step_by(HEALING_STRAGGLER_EVERY) {
        plan = plan.slow(launch % HEALING_DEVICES, launch as u64, HEALING_SLOW_FACTOR);
    }
    plan
}

fn run_healing_arm(app: &mdh_apps::AppInstance, heal: Option<HealPolicy>) -> Option<HealingArm> {
    let pool = DistExecutor::with_faults(DevicePool::gpus(HEALING_DEVICES), healing_plan());
    let mut dist = reported("healing pool", pool)?;
    if let Some(h) = heal {
        dist = dist.with_healing(h);
    }
    let mut totals_ms = Vec::with_capacity(HEALING_LAUNCHES);
    for launch in 0..HEALING_LAUNCHES {
        let (_, report) = match dist.run(&app.program, &app.inputs) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("healing launch {launch}: {e}");
                return None;
            }
        };
        totals_ms.push(report.total_ms);
    }
    Some(HealingArm {
        totals_ms,
        stats: dist.fault_stats(),
    })
}

/// The `healing` study: the same straggler workload through an unhedged
/// and a hedged executor. Real launches (the fault channel only fires on
/// real launches), always at Small scale.
fn run_healing_study(name: &'static str) -> Option<HealingResult> {
    let app = match instantiate(StudyId { name, input_no: 1 }, Scale::Small) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{name}: {e}");
            return None;
        }
    };
    let unhedged = run_healing_arm(&app, None)?;
    let hedged = run_healing_arm(
        &app,
        Some(HealPolicy {
            hedge_ms: HEALING_HEDGE_MS,
            probe_every: 0,
            reinstate_after: 0,
        }),
    )?;
    Some(HealingResult {
        name: app.name.clone(),
        sizes: app.sizes_desc.clone(),
        plan: healing_plan().to_string(),
        unhedged,
        hedged,
    })
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn healing_arm_json(label: &str, arm: &HealingArm) -> String {
    format!(
        "{{\"label\": \"{label}\", \"model_p50_ms\": {:.6}, \"model_p99_ms\": {:.6}, \
         \"model_max_ms\": {:.6}, \"model_mean_ms\": {:.6}, \"hedges\": {}, \"retries\": {}, \
         \"slow_links\": {}}}",
        arm.percentile_ms(50.0),
        arm.percentile_ms(99.0),
        arm.percentile_ms(100.0),
        arm.mean_ms(),
        arm.stats.hedges,
        arm.stats.retries,
        arm.stats.slow_links,
    )
}

fn to_json(
    results: &[StudyResult],
    resident: &[ResidentResult],
    healing: &[HealingResult],
    scale: Scale,
) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"experiment\": \"dist_scaling\",");
    let _ = writeln!(
        j,
        "  \"timing\": \"modelled: every model_* column is analytic or simulated-device time, none is wall clock\","
    );
    let _ = writeln!(j, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(j, "  \"device_counts\": [1, 2, 4, 8],");
    let _ = writeln!(j, "  \"topology\": \"tree\",");
    let _ = writeln!(j, "  \"studies\": [");
    for (si, s) in results.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"name\": \"{}\",", json_escape(&s.name));
        let _ = writeln!(j, "      \"sizes\": \"{}\",", json_escape(&s.sizes));
        let _ = writeln!(j, "      \"strategy\": \"{}\",", s.strategy);
        let _ = writeln!(j, "      \"points\": [");
        for (pi, p) in s.points.iter().enumerate() {
            let r = &p.report;
            let _ = write!(
                j,
                "        {{\"devices\": {}, \"model_hot_ms\": {:.6}, \"model_cold_ms\": {:.6}, \
                 \"model_exec_ms\": {:.6}, \"model_h2d_ms\": {:.6}, \"model_combine_ms\": {:.6}, \
                 \"combine_steps\": {}, \"model_d2h_ms\": {:.6}, \"model_speedup_hot\": {:.4}, \
                 \"model_speedup_cold\": {:.4}, \"model_transfer_share\": {:.4}, \
                 \"model_combine_share\": {:.4}}}",
                p.devices,
                r.hot_ms,
                r.total_ms,
                r.exec_ms,
                r.h2d_ms,
                r.combine.total_ms(),
                r.combine.steps,
                r.d2h_ms,
                p.speedup_hot,
                p.speedup_cold,
                r.transfer_share(),
                r.combine_share()
            );
            let _ = writeln!(j, "{}", if pi + 1 < s.points.len() { "," } else { "" });
        }
        let _ = writeln!(j, "      ]");
        let _ = writeln!(j, "    }}{}", if si + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"resident\": {{");
    let _ = writeln!(j, "    \"budget_bytes\": {RESIDENT_BUDGET},");
    let _ = writeln!(j, "    \"device_counts\": [1, 2, 4],");
    let _ = writeln!(j, "    \"studies\": [");
    for (si, s) in resident.iter().enumerate() {
        let _ = writeln!(j, "      {{");
        let _ = writeln!(j, "        \"name\": \"{}\",", json_escape(&s.name));
        let _ = writeln!(j, "        \"sizes\": \"{}\",", json_escape(&s.sizes));
        let _ = writeln!(j, "        \"strategy\": \"{}\",", s.strategy);
        let _ = writeln!(j, "        \"gated\": {},", s.gated);
        let _ = writeln!(j, "        \"points\": [");
        for (pi, p) in s.points.iter().enumerate() {
            let m = p.warm_mem();
            let _ = write!(
                j,
                "          {{\"devices\": {}, \"model_cold_ms\": {:.6}, \"model_warm_ms\": {:.6}, \
                 \"model_hot_ms\": {:.6}, \"model_h2d_cold_ms\": {:.6}, \"model_h2d_warm_ms\": {:.6}, \
                 \"model_transfer_share_warm\": {:.4}, \"model_warm_hot_ratio\": {:.4}, \
                 \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
                 \"bytes_uploaded\": {}, \"bytes_avoided\": {}}}",
                p.devices,
                p.cold.total_ms,
                p.warm.total_ms,
                p.warm.hot_ms,
                p.cold.h2d_ms,
                p.warm.h2d_ms,
                p.warm.transfer_share(),
                p.warm_hot_ratio(),
                m.hits,
                m.misses,
                m.evictions,
                m.bytes_uploaded,
                m.bytes_avoided,
            );
            let _ = writeln!(j, "{}", if pi + 1 < s.points.len() { "," } else { "" });
        }
        let _ = writeln!(j, "        ]");
        let _ = writeln!(
            j,
            "      }}{}",
            if si + 1 < resident.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "    ]");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"healing\": {{");
    let _ = writeln!(j, "    \"devices\": {HEALING_DEVICES},");
    let _ = writeln!(j, "    \"launches\": {HEALING_LAUNCHES},");
    let _ = writeln!(j, "    \"straggler_every\": {HEALING_STRAGGLER_EVERY},");
    let _ = writeln!(j, "    \"slow_factor\": {HEALING_SLOW_FACTOR},");
    let _ = writeln!(j, "    \"model_hedge_ms\": {HEALING_HEDGE_MS},");
    let _ = writeln!(j, "    \"scale\": \"Small\",");
    let _ = writeln!(j, "    \"studies\": [");
    for (si, s) in healing.iter().enumerate() {
        let _ = writeln!(j, "      {{");
        let _ = writeln!(j, "        \"name\": \"{}\",", json_escape(&s.name));
        let _ = writeln!(j, "        \"sizes\": \"{}\",", json_escape(&s.sizes));
        let _ = writeln!(j, "        \"plan\": \"{}\",", json_escape(&s.plan));
        let _ = writeln!(j, "        \"arms\": [");
        let _ = writeln!(
            j,
            "          {},",
            healing_arm_json("unhedged", &s.unhedged)
        );
        let _ = writeln!(j, "          {}", healing_arm_json("hedged", &s.hedged));
        let _ = writeln!(j, "        ]");
        let _ = writeln!(
            j,
            "      }}{}",
            if si + 1 < healing.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "    ]");
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");
    j
}

/// In-bin acceptance for the resident study. Every study (gated or
/// not) must show warm no slower than cold and a transfer-free warm
/// H2D phase once residency is populated; gated studies must
/// additionally meet the repeated-operand bar at 4 devices:
/// `transfer_share_warm < 0.1` and warm within 2x of hot.
fn validate_resident(resident: &[ResidentResult]) {
    let mut ok = true;
    let mut fail = |msg: String| {
        eprintln!("resident acceptance FAILED: {msg}");
        ok = false;
    };
    if !resident.iter().any(|s| s.gated) {
        fail("no gated repeated-operand study ran".into());
    }
    for s in resident {
        for p in &s.points {
            let m = p.warm_mem();
            if p.warm.total_ms > p.cold.total_ms + 1e-9 {
                fail(format!(
                    "{} @ {}: warm {:.4}ms slower than cold {:.4}ms",
                    s.name, p.devices, p.warm.total_ms, p.cold.total_ms
                ));
            }
            if m.hits == 0 {
                fail(format!(
                    "{} @ {}: warm relaunch recorded no residency hits",
                    s.name, p.devices
                ));
            }
            if p.warm.h2d_ms > 1e-9 {
                fail(format!(
                    "{} @ {}: warm H2D {:.6}ms nonzero — residency missed",
                    s.name, p.devices, p.warm.h2d_ms
                ));
            }
        }
        if !s.gated {
            continue;
        }
        let Some(p4) = s.points.iter().find(|p| p.devices == 4) else {
            fail(format!("{}: no 4-device point", s.name));
            continue;
        };
        let share = p4.warm.transfer_share();
        if share >= 0.1 {
            fail(format!(
                "{} @ 4: warm transfer share {:.1}% (need < 10%)",
                s.name,
                share * 100.0
            ));
        }
        let ratio = p4.warm_hot_ratio();
        if ratio > 2.0 {
            fail(format!(
                "{} @ 4: warm/hot ratio {ratio:.2}x (need <= 2x)",
                s.name
            ));
        }
    }
    if ok {
        println!(
            "resident acceptance: warm relaunches transfer-free on inputs; \
             gated workload under 10% transfer share and within 2x of hot — OK"
        );
    } else {
        std::process::exit(1);
    }
}

/// In-bin acceptance for the `healing` study: the hedged watchdog must
/// beat the unhedged executor on modelled tail latency — p99 strictly
/// lower — and the mechanism must actually have engaged (stragglers
/// fired in both arms, hedges fired only in the hedged arm).
fn validate_healing(healing: &[HealingResult]) {
    let mut ok = true;
    let mut fail = |msg: String| {
        eprintln!("healing acceptance FAILED: {msg}");
        ok = false;
    };
    if healing.is_empty() {
        fail("no healing study ran".into());
    }
    for s in healing {
        if s.unhedged.stats.slow_links == 0 {
            fail(format!("{}: unhedged arm saw no straggler events", s.name));
        }
        if s.hedged.stats.slow_links == 0 {
            fail(format!("{}: hedged arm saw no straggler events", s.name));
        }
        if s.unhedged.stats.hedges != 0 {
            fail(format!(
                "{}: unhedged arm recorded {} hedges (policy disabled)",
                s.name, s.unhedged.stats.hedges
            ));
        }
        if s.hedged.stats.hedges == 0 {
            fail(format!("{}: hedged arm never hedged a straggler", s.name));
        }
        let (u99, h99) = (s.unhedged.percentile_ms(99.0), s.hedged.percentile_ms(99.0));
        if h99 >= u99 {
            fail(format!(
                "{}: hedged p99 {h99:.4}ms not strictly below unhedged p99 {u99:.4}ms",
                s.name
            ));
        }
    }
    if ok {
        let s = &healing[0];
        println!(
            "healing acceptance: hedged p99 {:.4}ms < unhedged p99 {:.4}ms \
             under the rotating-straggler plan — OK",
            s.hedged.percentile_ms(99.0),
            s.unhedged.percentile_ms(99.0)
        );
    } else {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg(&args, "--scale")
        .map(|s| parse_scale(&s))
        .unwrap_or(Scale::Paper);
    let out_path = arg(&args, "--out").unwrap_or_else(|| "BENCH_dist.json".into());

    println!("=== multi-device scaling ({scale:?} scale, tree combine, modelled ms) ===");
    let mut results = Vec::new();
    for name in ["Dot", "MatVec", "MatMul", "Jacobi_3D"] {
        let Some(s) = run_study(name, scale) else {
            continue;
        };
        println!(
            "\n--- {} ({}) — strategy {} ---",
            s.name, s.sizes, s.strategy
        );
        println!(
            "  {:>7}  {:>10}  {:>10}  {:>10}  {:>12}  {:>8}  {:>10}  {:>10}",
            "devices",
            "hot ms",
            "cold ms",
            "exec ms",
            "combine ms",
            "steps",
            "hot spdup",
            "xfer share"
        );
        for p in &s.points {
            let r = &p.report;
            println!(
                "  {:>7}  {:>10.4}  {:>10.4}  {:>10.4}  {:>12.4}  {:>8}  {:>9.2}x  {:>9.0}%",
                p.devices,
                r.hot_ms,
                r.total_ms,
                r.exec_ms,
                r.combine.total_ms(),
                r.combine.steps,
                p.speedup_hot,
                r.transfer_share() * 100.0
            );
        }
        results.push(s);
    }

    // resident re-launch study: the same workload launched twice
    // through one pool-attached executor. MatVec is the gated
    // repeated-operand workload (weight-serving shape: operands
    // re-uploaded every launch without the pool); Dot rides along
    // ungated — its warm time is dominated by combine + D2H, which
    // input residency cannot remove.
    println!("\n=== resident re-launch (mdh-mem pool, 2 GiB/device) ===");
    let mut resident = Vec::new();
    for (name, gated) in [("MatVec", true), ("Dot", false)] {
        let Some(s) = run_resident_study(name, scale, gated) else {
            continue;
        };
        println!(
            "\n--- {} ({}) — strategy {}{} ---",
            s.name,
            s.sizes,
            s.strategy,
            if s.gated { ", gated" } else { "" }
        );
        println!(
            "  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}  {:>9}  {:>6}  {:>6}",
            "devices", "cold ms", "warm ms", "hot ms", "warm xfer", "warm/hot", "hits", "misses"
        );
        for p in &s.points {
            let m = p.warm_mem();
            println!(
                "  {:>7}  {:>10.4}  {:>10.4}  {:>10.4}  {:>9.0}%  {:>8.2}x  {:>6}  {:>6}",
                p.devices,
                p.cold.total_ms,
                p.warm.total_ms,
                p.warm.hot_ms,
                p.warm.transfer_share() * 100.0,
                p.warm_hot_ratio(),
                m.hits,
                m.misses
            );
        }
        resident.push(s);
    }

    // healing study: the same straggler workload through an unhedged
    // and a hedged executor — real launches at Small scale, so the
    // fault channel fires and the study costs milliseconds regardless
    // of the sweep scale
    println!("\n=== self-healing: hedged watchdog vs stragglers (Small, 4 devices) ===");
    let mut healing = Vec::new();
    if let Some(s) = run_healing_study("MatVec") {
        println!(
            "\n--- {} ({}) — {} launches, 1-in-{} straggler x{}, hedge {} ms ---",
            s.name,
            s.sizes,
            HEALING_LAUNCHES,
            HEALING_STRAGGLER_EVERY,
            HEALING_SLOW_FACTOR,
            HEALING_HEDGE_MS
        );
        println!(
            "  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>6}  {:>10}",
            "arm", "p50 ms", "p99 ms", "max ms", "mean ms", "hedges", "slow links"
        );
        for (label, arm) in [("unhedged", &s.unhedged), ("hedged", &s.hedged)] {
            println!(
                "  {:>8}  {:>10.4}  {:>10.4}  {:>10.4}  {:>10.4}  {:>6}  {:>10}",
                label,
                arm.percentile_ms(50.0),
                arm.percentile_ms(99.0),
                arm.percentile_ms(100.0),
                arm.mean_ms(),
                arm.stats.hedges,
                arm.stats.slow_links
            );
        }
        healing.push(s);
    }

    let json = to_json(&results, &resident, &healing, scale);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("{out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");

    validate_resident(&resident);
    validate_healing(&healing);

    // acceptance: a reduction-heavy kernel must scale through its
    // combine tree
    let best = results
        .iter()
        .filter(|s| s.strategy == "pw")
        .filter_map(|s| {
            s.points
                .iter()
                .find(|p| p.devices == 4)
                .map(|p| (s.name.as_str(), p.speedup_hot, p.report.combine.steps))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1));
    match best {
        Some((name, speedup, steps)) if speedup > 1.5 && steps > 0 => {
            println!(
                "acceptance: {name} hot speedup at 4 devices = {speedup:.2}x \
                 through a {steps}-step combine tree (target > 1.5x) — OK"
            );
        }
        Some((name, speedup, steps)) => {
            eprintln!(
                "acceptance FAILED: best reduction-heavy kernel {name} reached \
                 {speedup:.2}x at 4 devices ({steps} combine steps); need > 1.5x"
            );
            std::process::exit(1);
        }
        None => {
            eprintln!("acceptance FAILED: no reduction-partitioned study ran");
            std::process::exit(1);
        }
    }
}
