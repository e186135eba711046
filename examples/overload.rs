//! Overload, poison, and recovery: the serving edge under deliberate
//! abuse, with every request getting exactly one terminal answer.
//!
//! Three phases against one small runtime (2 workers, queue depth 8):
//!
//! 1. **flood** — both workers are pinned by blocker launches, eight
//!    already-expired requests fill the queue, and 200 concurrent
//!    submissions pile on top. Admission control sheds the overflow with
//!    retryable `overloaded` errors, the expired requests are answered
//!    `deadline exceeded` without executing, and every accepted request
//!    that does execute produces bit-identical results to an unloaded
//!    reference run;
//! 2. **poison** — a program whose name matches the runtime's
//!    `panic_marker` panics inside the worker on every execution. The
//!    panics are isolated into per-request `worker panic` errors, and
//!    after `breaker_threshold` consecutive failures the plan-key
//!    circuit breaker trips: later poison requests fail fast with
//!    `breaker open` instead of burning a worker;
//! 3. **recovery** — 100 good requests after the poisoning all succeed
//!    with a >0.9 plan-cache hit rate and zero lost worker threads.
//!
//! The `output-hash` lines are FNV-1a over result bit patterns and fully
//! deterministic; CI runs this example twice and diffs them. Counts that
//! depend on thread interleaving (how many of the 200 flood requests got
//! shed vs served) are printed as plain lines, not hashes.
//!
//! Run with `cargo run --release --example overload`.

use mdh::apps::registry::{instantiate, StudyId};
use mdh::apps::spec::Scale;
use mdh::core::buffer::{bits_hash, Buffer, BufferData};
use mdh::core::error::MdhError;
use mdh::lowering::asm::DeviceKind;
use mdh::runtime::{Request, Runtime, RuntimeConfig, TunePolicy};
use std::time::{Duration, Instant};

/// Integer-valued refill: exact in f32/f64, so batching and scheduling
/// differences cannot introduce rounding.
fn exactify(inputs: &mut [Buffer]) {
    for (salt, buf) in inputs.iter_mut().enumerate() {
        if matches!(buf.data, BufferData::Record(_)) {
            continue;
        }
        buf.fill_with(move |i| ((i.wrapping_add(salt).wrapping_mul(2654435761)) % 16) as f64 - 8.0);
    }
}

fn main() {
    println!("=== serving-edge overload / poison / recovery ===\n");

    let mut good = instantiate(
        StudyId {
            name: "MatMul",
            input_no: 1,
        },
        Scale::Small,
    )
    .expect("instantiate MatMul");
    exactify(&mut good.inputs);

    // the poison program: structurally distinct from the good one (so
    // its plan key — and therefore its breaker — is its own), renamed to
    // match the runtime's panic marker
    let mut poison = instantiate(
        StudyId {
            name: "Dot",
            input_no: 1,
        },
        Scale::Small,
    )
    .expect("instantiate Dot");
    exactify(&mut poison.inputs);
    poison.program.name = "poison".into();

    // ---- unloaded reference -------------------------------------------
    let reference = {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            exec_threads: 2,
            tune: TunePolicy {
                enabled: false,
                ..TunePolicy::default()
            },
            ..RuntimeConfig::default()
        })
        .expect("reference runtime");
        let resp = rt
            .submit(Request::new(
                good.program.clone(),
                DeviceKind::Cpu,
                good.inputs.clone(),
            ))
            .wait()
            .expect("unloaded reference launch");
        bits_hash(&resp.outputs)
    };

    let config = RuntimeConfig {
        workers: 2,
        exec_threads: 2,
        max_queue_depth: 8,
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_secs(30), // stays open for the demo
        panic_marker: Some("poison".into()),
        tune: TunePolicy {
            enabled: false,
            ..TunePolicy::default()
        },
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(config).expect("runtime");

    // ---- phase 1: flood past the queue bound --------------------------
    println!("== flood: 2 blockers + 8 expired + 200 concurrent submissions ==");
    let blockers: Vec<_> = (0..2)
        .map(|_| {
            runtime.submit(Request::new(
                good.program.clone(),
                DeviceKind::Cpu,
                good.inputs.clone(),
            ))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30)); // workers pick the blockers up
    let expired: Vec<_> = (0..8)
        .map(|_| {
            runtime.submit(
                Request::new(good.program.clone(), DeviceKind::Cpu, good.inputs.clone())
                    .with_deadline(Instant::now()),
            )
        })
        .collect();

    let mut results: Vec<Result<u64, MdhError>> = Vec::new();
    std::thread::scope(|scope| {
        let flood: Vec<_> = (0..200)
            .map(|_| {
                let rt = &runtime;
                let prog = good.program.clone();
                let inputs = good.inputs.clone();
                scope.spawn(move || {
                    rt.submit(Request::new(prog, DeviceKind::Cpu, inputs))
                        .wait()
                        .map(|resp| bits_hash(&resp.outputs))
                })
            })
            .collect();
        for h in flood {
            results.push(h.join().expect("flood submitter thread"));
        }
    });
    for h in blockers {
        results.push(h.wait().map(|r| bits_hash(&r.outputs)));
    }
    for h in expired {
        results.push(h.wait().map(|r| bits_hash(&r.outputs)));
    }

    let total = results.len();
    let mut ok = 0usize;
    let mut shed = 0usize;
    let mut lapsed = 0usize;
    let mut wrong = 0usize;
    for r in &results {
        match r {
            Ok(h) => {
                ok += 1;
                if *h != reference {
                    wrong += 1;
                }
            }
            Err(MdhError::Overloaded(_)) => shed += 1,
            Err(MdhError::DeadlineExceeded(_)) => lapsed += 1,
            Err(other) => panic!("unexpected terminal answer: {other}"),
        }
    }
    println!("answers: {total} total = {ok} ok + {shed} overloaded + {lapsed} deadline-exceeded");
    assert_eq!(total, 210, "every request answers exactly once");
    assert_eq!(ok + shed + lapsed, total, "no other terminal kinds");
    assert!(shed > 0, "a depth-8 queue must shed under a 200-wide flood");
    assert_eq!(
        lapsed, 8,
        "all pre-expired requests answer without executing"
    );
    assert_eq!(
        wrong, 0,
        "accepted results must be bit-identical under load"
    );
    println!("output-hash flood {reference:#018x}");

    // ---- phase 2: poison program trips the breaker --------------------
    println!("\n== poison: panicking program vs the circuit breaker ==");
    let mut panics = 0usize;
    let mut fast_fails = 0usize;
    for i in 0..5 {
        let r = runtime
            .submit(Request::new(
                poison.program.clone(),
                DeviceKind::Cpu,
                poison.inputs.clone(),
            ))
            .wait();
        match r {
            Err(MdhError::WorkerPanic(_)) => panics += 1,
            Err(MdhError::BreakerOpen(_)) => fast_fails += 1,
            other => panic!("poison launch {i}: unexpected answer {other:?}"),
        }
    }
    println!("poison answers: {panics} worker-panic + {fast_fails} breaker-open");
    assert_eq!(panics, 3, "threshold panics execute, each isolated");
    assert_eq!(fast_fails, 2, "the tripped breaker fails the rest fast");

    // ---- phase 3: recovery --------------------------------------------
    println!("\n== recovery: 100 good requests after the poisoning ==");
    let before = runtime.stats();
    let mut recovery_hash = None;
    for _ in 0..100 {
        let resp = runtime
            .submit(Request::new(
                good.program.clone(),
                DeviceKind::Cpu,
                good.inputs.clone(),
            ))
            .wait()
            .expect("good requests must succeed after poisoning");
        let h = bits_hash(&resp.outputs);
        assert_eq!(h, reference, "recovery results must stay bit-identical");
        recovery_hash = Some(h);
    }
    let after = runtime.stats();
    let hits = after.plan_hits - before.plan_hits;
    let misses = after.plan_misses - before.plan_misses;
    let hit_rate = hits as f64 / (hits + misses) as f64;
    println!(
        "recovery: 100 ok, hit rate {hit_rate:.3}, live workers {}/2",
        runtime.live_workers()
    );
    assert!(hit_rate > 0.9, "recovery hit rate {hit_rate} too low");
    assert_eq!(runtime.live_workers(), 2, "no worker thread may be lost");
    assert_eq!(after.worker_panics, 3, "stats: {after}");
    assert_eq!(after.breaker_trips, 1, "stats: {after}");
    assert_eq!(after.shed_requests, shed as u64, "stats: {after}");
    assert_eq!(after.deadline_exceeded, 8, "stats: {after}");
    println!("output-hash recovery {:#018x}", recovery_hash.unwrap());

    println!("\nfinal stats: {after}");
}
