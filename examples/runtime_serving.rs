//! Serving with the persistent runtime: plan-cache amortisation,
//! request batching, and background tune-and-swap.
//!
//! Drives a mixed workload of three Fig. 3 case studies — Dot (pure
//! reduction), MatMul (contraction), PRL (custom combine operator) —
//! through [`mdh::runtime::Runtime`]:
//!
//! 1. cold start: every signature misses and is served immediately from
//!    the heuristic schedule while a background tuner search starts;
//! 2. the tuner finishes and hot-swaps the winning schedules into the
//!    plan cache (watch the epoch counters);
//! 3. steady state: hundreds of mixed launches, all plan-cache hits,
//!    with cache hit-rate and latency percentiles printed at the end.
//!
//! Run with `cargo run --release --example runtime_serving`.

use mdh::apps::registry::{instantiate, StudyId};
use mdh::apps::spec::Scale;
use mdh::lowering::asm::DeviceKind;
use mdh::runtime::{Request, Runtime, RuntimeConfig, TunePolicy};
use std::time::Duration;

fn main() {
    let studies = ["Dot", "MatMul", "PRL"].map(|name| {
        instantiate(StudyId { name, input_no: 1 }, Scale::Small).expect("instantiate study")
    });

    let runtime = Runtime::new(RuntimeConfig {
        workers: 2,
        exec_threads: 4,
        max_batch: 8,
        tune: TunePolicy {
            budget_evals: 12,
            ..TunePolicy::default()
        },
        ..RuntimeConfig::default()
    })
    .expect("runtime");

    // ---- phase 1: cold start -----------------------------------------
    println!("== cold start (every signature is a plan-cache miss) ==");
    for app in &studies {
        let resp = runtime
            .submit(Request::new(
                app.program.clone(),
                DeviceKind::Cpu,
                app.inputs.clone(),
            ))
            .wait()
            .expect("cold launch");
        println!(
            "  {:<8} hit={:<5} plan={:<10} epoch={} exec {:.3} ms",
            app.name,
            resp.cache_hit,
            resp.plan_source.to_string(),
            resp.plan_epoch,
            resp.exec_ms
        );
    }

    // ---- phase 2: background tuning lands ----------------------------
    print!("\n== waiting for background tune-and-swap ==\n");
    let quiesced = runtime.wait_for_tunes(Duration::from_secs(120));
    let s = runtime.stats();
    println!(
        "  tuner quiescent={quiesced}: {} searches finished, {} plans hot-swapped",
        s.tunes_done, s.plan_swaps
    );
    for app in &studies {
        let resp = runtime
            .submit(Request::new(
                app.program.clone(),
                DeviceKind::Cpu,
                app.inputs.clone(),
            ))
            .wait()
            .expect("warm launch");
        println!(
            "  {:<8} hit={:<5} plan={:<10} epoch={} exec {:.3} ms",
            app.name,
            resp.cache_hit,
            resp.plan_source.to_string(),
            resp.plan_epoch,
            resp.exec_ms
        );
    }

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
        "  plan cache : {} resident, {} hits / {} misses (hit rate {:.3}), {} swaps",
        s.plans_resident,
        s.plan_hits,
        s.plan_misses,
        s.hit_rate(),
        s.plan_swaps
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
