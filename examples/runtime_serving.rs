//! Serving with the persistent runtime: plan-cache amortisation,
//! request batching, and warm starts from a tuning-cache file.
//!
//! Drives a mixed workload of three Fig. 3 case studies — Dot (pure
//! reduction), MatMul (contraction), PRL (custom combine operator) —
//! through [`mdh::runtime::Runtime`]:
//!
//! 1. cold start: every signature misses and is lowered from the
//!    heuristic schedule;
//! 2. warm start: the three programs are tuned offline into a cache file,
//!    the way `mdhc tune --cache` does, and a second runtime lowers each
//!    miss from the stored schedule instead;
//! 3. steady state: hundreds of mixed launches, all plan-cache hits,
//!    with cache hit-rate and latency percentiles printed at the end.
//!
//! A cached plan never changes, so every launch reports epoch 0.
//!
//! Run with `cargo run --release --example runtime_serving`.

use mdh::apps::registry::{instantiate, StudyId};
use mdh::apps::spec::{AppInstance, Scale};
use mdh::backend::cpu_model::CpuParams;
use mdh::lowering::asm::DeviceKind;
use mdh::runtime::{PlanSource, Request, Runtime, RuntimeConfig};
use mdh::tuner::{tune_cpu_model, Budget, Technique, TuningCache};

/// One CPU launch of every study, each printed; every reply's plan must
/// come from `source`.
fn launch_each(runtime: &Runtime, studies: &[AppInstance], source: PlanSource) {
    for app in studies {
        let resp = runtime
            .submit(Request::new(
                app.program.clone(),
                DeviceKind::Cpu,
                app.inputs.clone(),
            ))
            .wait()
            .expect("launch");
        println!(
            "  {:<8} hit={:<5} plan={:<10} epoch={} exec {:.3} ms",
            app.name,
            resp.cache_hit,
            resp.plan_source.to_string(),
            resp.plan_epoch,
            resp.exec_ms
        );
        assert_eq!(resp.plan_source, source, "{}", app.name);
        assert_eq!(resp.plan_epoch, 0, "a cached plan never changes");
    }
}

fn main() {
    let studies = ["Dot", "MatMul", "PRL"].map(|name| {
        instantiate(StudyId { name, input_no: 1 }, Scale::Small).expect("instantiate study")
    });
    let config = RuntimeConfig {
        workers: 2,
        exec_threads: 4,
        max_batch: 8,
        ..RuntimeConfig::default()
    };

    // ---- phase 1: cold start -----------------------------------------
    println!("== cold start (every signature is a plan-cache miss) ==");
    let cold = Runtime::new(config.clone()).expect("runtime");
    launch_each(&cold, &studies, PlanSource::Heuristic);
    drop(cold);

    // ---- phase 2: warm start from a tuning-cache file ----------------
    println!("\n== tune offline into a cache file, then start warm from it ==");
    let path = std::env::temp_dir().join(format!("mdh-serving-{}.txt", std::process::id()));
    let mut cache = TuningCache::new();
    for app in &studies {
        let tuned = tune_cpu_model(
            &app.program,
            &CpuParams::xeon_gold_6140(),
            Technique::Annealing,
            Budget::evals(100),
        );
        println!("  {:<8} tuned: {}", app.name, tuned.schedule.summary());
        cache.record(&app.program, DeviceKind::Cpu, tuned.schedule, tuned.cost);
    }
    cache.save(&path).expect("write the tuning cache");
    let runtime = Runtime::new(RuntimeConfig {
        tuning_cache_path: Some(path.clone()),
        ..config
    })
    .expect("runtime");
    let _ = std::fs::remove_file(&path); // read once, at construction
    launch_each(&runtime, &studies, PlanSource::Persistent);

    // ---- phase 3: steady-state mixed serving -------------------------
    const ROUNDS: usize = 60;
    println!("\n== steady state: {ROUNDS} rounds of mixed Dot/MatMul/PRL ==");
    let handles: Vec<_> = (0..ROUNDS)
        .flat_map(|_| {
            studies.iter().map(|app| {
                runtime.submit(Request::new(
                    app.program.clone(),
                    DeviceKind::Cpu,
                    app.inputs.clone(),
                ))
            })
        })
        .collect();
    let mut max_batch_seen = 0usize;
    for h in handles {
        let resp = h.wait().expect("steady-state launch");
        assert!(resp.cache_hit, "steady state must hit the plan cache");
        max_batch_seen = max_batch_seen.max(resp.batch_size);
    }
    println!(
        "  all {} launches hit; largest batch {}",
        ROUNDS * 3,
        max_batch_seen
    );

    // ---- phase 4: the GPU path amortises transfers too ---------------
    println!("\n== GPU simulator: residency amortises transfers ==");
    let dot = &studies[0];
    for round in 0..2 {
        let resp = runtime
            .submit(Request::new(
                dot.program.clone(),
                DeviceKind::Gpu,
                dot.inputs.clone(),
            ))
            .wait()
            .expect("gpu launch");
        println!(
            "  Dot round {round}: transfer {:.3} ms (copy-in amortises once resident), \
             sim exec {:.3} ms",
            resp.transfer_ms, resp.exec_ms
        );
    }

    runtime.wait_idle();
    let s = runtime.stats();
    println!("\n== final runtime statistics ==");
    println!(
        "  plan cache : {} resident, {} hits / {} misses (hit rate {:.3})",
        s.plans_resident,
        s.plan_hits,
        s.plan_misses,
        s.hit_rate()
    );
    println!(
        "  batching   : {} requests in {} batches (mean {:.2}, max {})",
        s.completed,
        s.batches,
        s.mean_batch(),
        s.max_batch
    );
    println!(
        "  latency ms : p50 {:.3}  p99 {:.3}  mean {:.3}",
        s.latency_p50_ms(),
        s.latency_p99_ms(),
        s.latency_mean_ms()
    );
    assert!(
        s.hit_rate() > 0.9,
        "steady-state workload must be cache-hit dominated"
    );
}
