//! Acceptance tests for the persistent execution runtime (`mdh-runtime`):
//! cache-hit-rate on a same-signature workload, warm starts from a
//! tuning-cache file, batching, and multi-device serving.

use mdh::backend::cpu::CpuExecutor;
use mdh::core::buffer::Buffer;
use mdh::directive::{compile, DirectiveEnv};
use mdh::lowering::asm::DeviceKind;
use mdh::lowering::heuristics::mdh_default_schedule;
use mdh::lowering::schedule::{ReductionStrategy, Schedule};
use mdh::runtime::server::deterministic_inputs;
use mdh::runtime::{Request, Runtime, RuntimeConfig};
use mdh::tuner::TuningCache;

const MATVEC: &str = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
";

fn matvec_prog(i: i64, k: i64) -> mdh::core::dsl::DslProgram {
    let env = DirectiveEnv::new().size("I", i).size("K", k);
    compile(MATVEC, &env).expect("compile matvec")
}

fn f32_data(b: &Buffer) -> &[f32] {
    b.as_f32().expect("f32 buffer")
}

/// 100 same-signature requests: the first is the only plan-cache miss,
/// so the hit rate must exceed 0.9; and every response must be
/// *bit-identical* to a single-shot reference execution (the inputs are
/// integer-valued with a short reduction, so no schedule can introduce
/// rounding).
#[test]
fn hit_rate_and_bit_identical_results_on_100_request_workload() {
    let prog = matvec_prog(32, 64);
    let inputs = deterministic_inputs(&prog).unwrap();

    // single-shot reference: a plain one-off executor run
    let exec = CpuExecutor::new(2).unwrap();
    let schedule = mdh_default_schedule(&prog, DeviceKind::Cpu, 2);
    let reference = exec.run(&prog, &schedule, &inputs).unwrap();

    let runtime = Runtime::new(RuntimeConfig {
        workers: 2,
        exec_threads: 2,
        ..RuntimeConfig::default()
    })
    .unwrap();

    let handles: Vec<_> = (0..100)
        .map(|_| runtime.submit(Request::new(prog.clone(), DeviceKind::Cpu, inputs.clone())))
        .collect();
    for h in handles {
        let resp = h.wait().expect("launch");
        assert_eq!(resp.outputs.len(), reference.len());
        for (got, want) in resp.outputs.iter().zip(&reference) {
            assert_eq!(
                f32_data(got),
                f32_data(want),
                "runtime output must be bit-identical to the reference"
            );
        }
    }

    let stats = runtime.stats();
    assert_eq!(stats.completed, 100);
    assert!(
        stats.hit_rate() > 0.9,
        "expected hit rate > 0.9 on a same-signature workload, got {:.3} \
         ({} hits / {} misses)",
        stats.hit_rate(),
        stats.plan_hits,
        stats.plan_misses
    );
    assert_eq!(stats.plan_misses, 1, "only the cold launch may miss");
    assert!(stats.latency_p99_ms() > 0.0, "latencies recorded");
}

/// A runtime given the file `mdhc tune --cache` writes starts warm: its
/// first request is a plan-cache miss, served from the stored schedule
/// rather than the heuristic, with the bits a one-off run of that
/// schedule gives.
#[test]
fn tuned_schedules_persist_across_runtimes() {
    let dir = std::env::temp_dir().join(format!("mdh-rt-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_path = dir.join("tuning-cache.txt");
    let prog = matvec_prog(16, 32);
    let inputs = deterministic_inputs(&prog).unwrap();

    // the file as `mdhc tune` writes it, holding a schedule the heuristic
    // would not pick: the reduction split four ways, none of the rows
    let mut tuned = Schedule::sequential(2, DeviceKind::Cpu);
    tuned.par_chunks = vec![1, 4];
    tuned.reduction = ReductionStrategy::Tree;
    assert_ne!(tuned, mdh_default_schedule(&prog, DeviceKind::Cpu, 2));
    let mut cache = TuningCache::new();
    assert!(cache.record(&prog, DeviceKind::Cpu, tuned.clone(), 1.0));
    cache.save(&cache_path).unwrap();

    let runtime = Runtime::new(RuntimeConfig {
        workers: 1,
        exec_threads: 2,
        tuning_cache_path: Some(cache_path),
        ..RuntimeConfig::default()
    })
    .unwrap();
    let resp = runtime
        .submit(Request::new(prog.clone(), DeviceKind::Cpu, inputs.clone()))
        .wait()
        .unwrap();
    assert!(!resp.cache_hit, "fresh process, fresh plan cache");
    assert_eq!(
        resp.plan_source.to_string(),
        "persistent",
        "plan must come from the tuning-cache file, not the heuristic"
    );
    let want = CpuExecutor::new(2)
        .unwrap()
        .run(&prog, &tuned, &inputs)
        .unwrap();
    let bits = |b: &Buffer| f32_data(b).iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(resp.outputs.len(), want.len());
    for (got, want) in resp.outputs.iter().zip(&want) {
        assert_eq!(bits(got), bits(want), "the stored schedule's bits");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

const MATMUL: &str = "\
@mdh( out( C = Buffer[fp32] ),
      inp( A = Buffer[fp32], B = Buffer[fp32] ),
      combine_ops( cc, cc, pw(add) ) )
def matmul(C, A, B):
    for i in range(I):
        for j in range(J):
            for k in range(K):
                C[i, j] = A[i, k] * B[k, j]
";

/// Burst submission of same-signature requests forms batches (the plan
/// lookup is paid once per batch) and every response reports its batch.
#[test]
fn bursts_batch_same_signature_requests() {
    let prog = matvec_prog(16, 16);
    let inputs = deterministic_inputs(&prog).unwrap();
    // a deliberately heavy request occupies the single worker while the
    // burst below queues up behind it
    let blocker_env = DirectiveEnv::new()
        .size("I", 128)
        .size("J", 128)
        .size("K", 128);
    let blocker = compile(MATMUL, &blocker_env).expect("compile matmul");
    let blocker_inputs = deterministic_inputs(&blocker).unwrap();

    let runtime = Runtime::new(RuntimeConfig {
        workers: 1, // one worker → queued requests pile up and batch
        exec_threads: 2,
        max_batch: 8,
        ..RuntimeConfig::default()
    })
    .unwrap();
    let block_handle = runtime.submit(Request::new(blocker, DeviceKind::Cpu, blocker_inputs));
    let handles: Vec<_> = (0..32)
        .map(|_| runtime.submit(Request::new(prog.clone(), DeviceKind::Cpu, inputs.clone())))
        .collect();
    block_handle.wait().unwrap();
    let mut max_batch = 0;
    for h in handles {
        let resp = h.wait().unwrap();
        assert!(resp.batch_size >= 1 && resp.batch_size <= 8);
        max_batch = max_batch.max(resp.batch_size);
    }
    let stats = runtime.stats();
    assert_eq!(stats.completed, 33);
    assert!(
        max_batch >= 2,
        "requests queued behind the blocker must coalesce (max batch {max_batch})"
    );
    assert_eq!(stats.max_batch, max_batch);
}

/// `devices = N`: GPU launches go through the `mdh-dist` pool. Results
/// stay bit-identical to the single-device simulator, and the stats
/// expose per-device dispatch counts (one shard per device per launch
/// for a partitionable program).
#[test]
fn multi_device_serving_is_bit_identical_and_counts_dispatches() {
    let prog = matvec_prog(32, 64);
    let inputs = deterministic_inputs(&prog).unwrap();
    let config = |devices: usize| RuntimeConfig {
        workers: 2,
        exec_threads: 2,
        devices,
        ..RuntimeConfig::default()
    };

    let single = Runtime::new(config(1)).unwrap();
    let reference = single
        .submit(Request::new(prog.clone(), DeviceKind::Gpu, inputs.clone()))
        .wait()
        .expect("single-device launch")
        .outputs;
    assert!(
        single.stats().device_dispatches.is_empty(),
        "no pool, no dispatch counters"
    );

    let pooled = Runtime::new(config(4)).unwrap();
    let launches = 6;
    let handles: Vec<_> = (0..launches)
        .map(|_| pooled.submit(Request::new(prog.clone(), DeviceKind::Gpu, inputs.clone())))
        .collect();
    for h in handles {
        let resp = h.wait().expect("pooled launch");
        assert_eq!(resp.outputs.len(), reference.len());
        for (got, want) in resp.outputs.iter().zip(&reference) {
            assert_eq!(
                f32_data(got),
                f32_data(want),
                "multi-device serving must be bit-identical"
            );
        }
    }
    let stats = pooled.stats();
    assert_eq!(stats.completed, launches as u64);
    assert_eq!(stats.device_dispatches.len(), 4);
    assert_eq!(stats.device_dispatches[0].0, "gpu0");
    for (label, n) in &stats.device_dispatches {
        assert_eq!(
            *n, launches as u64,
            "{label} must serve one shard per launch (matvec rows split 4 ways)"
        );
    }
    let line = stats.to_string();
    assert!(line.contains("dispatch: gpu0="), "{line}");
}

/// Degraded-mode serving: 100 same-signature GPU requests on a 4-device
/// pool while a deterministic fault plan kills a device mid-stream.
/// Every request must still succeed bit-identically (the lost shard runs
/// whole on a survivor), the plan cache stays hot, and the
/// fault counters in the stats are monotone across snapshots.
#[test]
fn degraded_pool_keeps_serving_through_a_mid_stream_crash() {
    use mdh::dist::FaultPlan;

    let prog = matvec_prog(32, 64);
    let inputs = deterministic_inputs(&prog).unwrap();

    let single = Runtime::new(RuntimeConfig {
        workers: 1,
        exec_threads: 2,
        ..RuntimeConfig::default()
    })
    .unwrap();
    let reference = single
        .submit(Request::new(prog.clone(), DeviceKind::Gpu, inputs.clone()))
        .wait()
        .expect("reference launch")
        .outputs;

    // device 2 dies at pool launch 30 — mid-stream of the 100-request
    // workload; transient hiccups on device 1 early on for good measure
    let faults = FaultPlan::none().crash(2, 30).transient(1, 3, 2);
    let runtime = Runtime::new(RuntimeConfig {
        workers: 2,
        exec_threads: 2,
        devices: 4,
        faults: Some(faults),
        ..RuntimeConfig::default()
    })
    .unwrap();

    let mut served = 0u64;
    let mut prev = runtime.stats();
    for _wave in 0..5 {
        let handles: Vec<_> = (0..20)
            .map(|_| runtime.submit(Request::new(prog.clone(), DeviceKind::Gpu, inputs.clone())))
            .collect();
        for h in handles {
            let resp = h.wait().expect("no request may fail during the crash");
            served += 1;
            assert_eq!(resp.outputs.len(), reference.len());
            for (got, want) in resp.outputs.iter().zip(&reference) {
                assert_eq!(
                    f32_data(got),
                    f32_data(want),
                    "degraded serving must stay bit-identical"
                );
            }
        }
        // counters are monotone across snapshots
        let snap = runtime.stats();
        assert!(snap.completed >= prev.completed, "completed regressed");
        assert!(snap.plan_hits >= prev.plan_hits, "plan_hits regressed");
        assert!(
            snap.fault_retries >= prev.fault_retries,
            "fault_retries regressed"
        );
        assert!(
            snap.device_evictions >= prev.device_evictions,
            "device_evictions regressed"
        );
        assert!(
            snap.repartitions >= prev.repartitions,
            "repartitions regressed"
        );
        assert!(
            snap.degraded_requests >= prev.degraded_requests,
            "degraded_requests regressed"
        );
        prev = snap;
    }
    assert_eq!(served, 100, "all 100 requests answered");

    let stats = runtime.stats();
    assert_eq!(stats.completed, 100, "zero failed requests");
    assert!(
        stats.hit_rate() > 0.9,
        "plan cache must stay hot through the crash, got {:.3}",
        stats.hit_rate()
    );
    assert_eq!(stats.device_evictions, 1, "exactly the scheduled crash");
    assert!(stats.repartitions >= 1, "the lost shard was re-homed");
    assert_eq!(stats.fault_retries, 2, "the scheduled transients retried");
    assert!(
        stats.degraded_requests > 0 && stats.degraded_requests < 100,
        "the crash landed mid-stream ({} degraded requests)",
        stats.degraded_requests
    );
    // the dead device stops being dispatched to; survivors keep working
    let dispatches = &stats.device_dispatches;
    assert_eq!(dispatches.len(), 4);
    assert!(
        dispatches[2].1 < dispatches[0].1,
        "evicted gpu2 must fall behind the survivors: {dispatches:?}"
    );
    let line = stats.to_string();
    assert!(
        line.contains("faults: retries=2 evictions=1"),
        "stats line must surface the fault counters: {line}"
    );
}
