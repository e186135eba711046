//! Serving-edge robustness acceptance tests: admission control under a
//! concurrent flood, deadline handling, worker panic isolation, and the
//! plan-key circuit breaker (trip, fail-fast, half-open heal).

use mdh::backend::cpu::CpuExecutor;
use mdh::core::error::MdhError;
use mdh::directive::{compile, DirectiveEnv};
use mdh::lowering::asm::DeviceKind;
use mdh::runtime::server::deterministic_inputs;
use mdh::runtime::{Request, Runtime, RuntimeConfig};
use std::time::{Duration, Instant};

const MATVEC: &str = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
";

const DOT: &str = "\
@mdh( out( res = Buffer[fp32] ),
      inp( x = Buffer[fp32], y = Buffer[fp32] ),
      combine_ops( pw(add) ) )
def dot(res, x, y):
    for k in range(N):
        res[0] = x[k] * y[k]
";

fn matvec_prog(i: i64, k: i64) -> mdh::core::dsl::DslProgram {
    let env = DirectiveEnv::new().size("I", i).size("K", k);
    compile(MATVEC, &env).expect("compile matvec")
}

fn dot_prog(n: i64) -> mdh::core::dsl::DslProgram {
    let env = DirectiveEnv::new().size("N", n);
    compile(DOT, &env).expect("compile dot")
}

/// The headline acceptance test: `max_queue_depth = 8` under 200
/// concurrent submissions. Every request gets exactly one terminal
/// answer — `ok`, `overloaded`, or `deadline exceeded` — and every
/// accepted result is bit-identical to an unloaded run.
#[test]
fn flood_past_queue_bound_sheds_and_keeps_results_bit_identical() {
    let prog = matvec_prog(48, 64);
    let inputs = deterministic_inputs(&prog).unwrap();

    // unloaded reference
    let exec = CpuExecutor::new(2).unwrap();
    let schedule = mdh::lowering::heuristics::mdh_default_schedule(&prog, DeviceKind::Cpu, 2);
    let reference = exec.run(&prog, &schedule, &inputs).unwrap();

    let runtime = Runtime::new(RuntimeConfig {
        workers: 2,
        exec_threads: 2,
        max_queue_depth: 8,
        ..RuntimeConfig::default()
    })
    .unwrap();

    // mixed deadlines: every 4th request is already expired at submit
    let answers: Vec<Result<_, MdhError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..200)
            .map(|i| {
                let rt = &runtime;
                let prog = prog.clone();
                let inputs = inputs.clone();
                scope.spawn(move || {
                    let mut req = Request::new(prog, DeviceKind::Cpu, inputs);
                    if i % 4 == 0 {
                        req = req.with_deadline(Instant::now());
                    }
                    rt.submit(req).wait()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .collect()
    });

    assert_eq!(answers.len(), 200, "every request answers exactly once");
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut lapsed = 0u64;
    for a in &answers {
        match a {
            Ok(resp) => {
                ok += 1;
                for (got, want) in resp.outputs.iter().zip(&reference) {
                    assert_eq!(
                        got.as_f32().unwrap(),
                        want.as_f32().unwrap(),
                        "accepted results must be bit-identical under overload"
                    );
                }
            }
            Err(MdhError::Overloaded(m)) => {
                shed += 1;
                assert!(MdhError::Overloaded(m.clone()).is_retryable());
            }
            Err(MdhError::DeadlineExceeded(_)) => lapsed += 1,
            Err(other) => panic!("unexpected terminal answer: {other}"),
        }
    }
    assert_eq!(ok + shed + lapsed, 200);
    assert!(shed > 0, "a 200-wide flood must shed on a depth-8 queue");

    let stats = runtime.stats();
    assert_eq!(stats.shed_requests, shed, "stats: {stats}");
    assert_eq!(stats.deadline_exceeded, lapsed, "stats: {stats}");
    // submitted = answered by workers (completed) + rejected at admission
    assert_eq!(stats.completed + stats.shed_requests, 200, "stats: {stats}");
    // requests that lapsed in the queue never joined a batch
    assert!(
        stats.mean_batch() <= stats.max_batch as f64,
        "stats: {stats}"
    );
    assert_eq!(runtime.live_workers(), 2);
}

/// Poison program: `breaker_threshold` isolated panics trip the plan-key
/// breaker; subsequent poison requests fail fast; good requests on other
/// keys keep being served at full hit rate with no worker lost.
#[test]
fn poison_program_trips_breaker_and_runtime_recovers() {
    let mut poison = dot_prog(64);
    poison.name = "poison".into();
    let good = matvec_prog(16, 32);
    let good_inputs = deterministic_inputs(&good).unwrap();
    let poison_inputs = deterministic_inputs(&poison).unwrap();

    let runtime = Runtime::new(RuntimeConfig {
        workers: 2,
        exec_threads: 2,
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_secs(60), // stays open for the test
        panic_marker: Some("poison".into()),
        ..RuntimeConfig::default()
    })
    .unwrap();

    let mut panics = 0;
    let mut fast = 0;
    for _ in 0..6 {
        match runtime
            .submit(Request::new(
                poison.clone(),
                DeviceKind::Cpu,
                poison_inputs.clone(),
            ))
            .wait()
        {
            Err(MdhError::WorkerPanic(_)) => panics += 1,
            Err(MdhError::BreakerOpen(m)) => {
                fast += 1;
                assert!(MdhError::BreakerOpen(m).is_retryable());
            }
            other => panic!("unexpected poison answer: {other:?}"),
        }
    }
    assert_eq!(panics, 3, "exactly threshold panics execute");
    assert_eq!(fast, 3, "the rest fail fast on the open breaker");

    // the runtime serves 100 subsequent good requests normally
    let before = runtime.stats();
    for _ in 0..100 {
        runtime
            .submit(Request::new(
                good.clone(),
                DeviceKind::Cpu,
                good_inputs.clone(),
            ))
            .wait()
            .expect("good requests must succeed after poisoning");
    }
    let after = runtime.stats();
    let hits = after.plan_hits - before.plan_hits;
    let misses = after.plan_misses - before.plan_misses;
    let rate = hits as f64 / (hits + misses) as f64;
    assert!(rate > 0.9, "recovery hit rate {rate:.3} too low");
    assert_eq!(after.worker_panics, 3, "stats: {after}");
    assert_eq!(after.breaker_trips, 1, "stats: {after}");
    assert_eq!(after.breaker_fast_fails, 3, "stats: {after}");
    assert_eq!(runtime.live_workers(), 2, "no worker thread may be lost");
}

/// After the cooldown the breaker goes half-open and admits one probe.
/// The probe is a *structurally identical* program under a different
/// name — same plan key (the key ignores names), but it no longer
/// matches the panic marker — so it succeeds and closes the breaker.
#[test]
fn breaker_half_open_probe_closes_after_cooldown() {
    let mut poison = dot_prog(32);
    poison.name = "poison".into();
    let healed = dot_prog(32); // same structure & shape ⇒ same plan key
    let inputs = deterministic_inputs(&poison).unwrap();

    let runtime = Runtime::new(RuntimeConfig {
        workers: 1,
        exec_threads: 2,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(50),
        panic_marker: Some("poison".into()),
        ..RuntimeConfig::default()
    })
    .unwrap();

    for _ in 0..2 {
        let r = runtime
            .submit(Request::new(
                poison.clone(),
                DeviceKind::Cpu,
                inputs.clone(),
            ))
            .wait();
        assert!(matches!(r, Err(MdhError::WorkerPanic(_))), "{r:?}");
    }
    // tripped: immediate requests on the key fail fast
    let r = runtime
        .submit(Request::new(
            healed.clone(),
            DeviceKind::Cpu,
            inputs.clone(),
        ))
        .wait();
    assert!(matches!(r, Err(MdhError::BreakerOpen(_))), "{r:?}");

    std::thread::sleep(Duration::from_millis(120));
    // half-open: the probe executes, succeeds, and closes the breaker
    runtime
        .submit(Request::new(
            healed.clone(),
            DeviceKind::Cpu,
            inputs.clone(),
        ))
        .wait()
        .expect("half-open probe must execute and close the breaker");
    for _ in 0..5 {
        runtime
            .submit(Request::new(
                healed.clone(),
                DeviceKind::Cpu,
                inputs.clone(),
            ))
            .wait()
            .expect("breaker must be closed after a successful probe");
    }
    let stats = runtime.stats();
    assert_eq!(stats.breaker_trips, 1, "stats: {stats}");
    assert_eq!(stats.worker_panics, 2, "stats: {stats}");
}

/// Two requests hitting a cooled-down breaker at the same time: exactly
/// one is admitted as the half-open probe; the other must fail fast
/// rather than pile a second probe onto a key that is most likely still
/// broken. Whether the two race to separate workers or drain into one
/// batch, the single-probe invariant holds.
#[test]
fn half_open_admits_exactly_one_of_two_simultaneous_probes() {
    let mut poison = dot_prog(48);
    poison.name = "poison".into();
    let inputs = deterministic_inputs(&poison).unwrap();

    let runtime = Runtime::new(RuntimeConfig {
        workers: 2,
        exec_threads: 2,
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_millis(1000),
        panic_marker: Some("poison".into()),
        ..RuntimeConfig::default()
    })
    .unwrap();

    // trip the breaker with a single panic (threshold 1)
    let r = runtime
        .submit(Request::new(
            poison.clone(),
            DeviceKind::Cpu,
            inputs.clone(),
        ))
        .wait();
    assert!(matches!(r, Err(MdhError::WorkerPanic(_))), "{r:?}");

    std::thread::sleep(Duration::from_millis(1200));
    // two simultaneous submissions race for the single half-open slot
    let h1 = runtime.submit(Request::new(
        poison.clone(),
        DeviceKind::Cpu,
        inputs.clone(),
    ));
    let h2 = runtime.submit(Request::new(
        poison.clone(),
        DeviceKind::Cpu,
        inputs.clone(),
    ));
    let answers = [h1.wait(), h2.wait()];
    let panics = answers
        .iter()
        .filter(|a| matches!(a, Err(MdhError::WorkerPanic(_))))
        .count();
    let fast = answers
        .iter()
        .filter(|a| matches!(a, Err(MdhError::BreakerOpen(_))))
        .count();
    assert_eq!(panics, 1, "exactly one probe may execute: {answers:?}");
    assert_eq!(fast, 1, "the loser must fail fast: {answers:?}");

    let stats = runtime.stats();
    assert_eq!(stats.worker_panics, 2, "stats: {stats}");
    assert_eq!(
        stats.breaker_trips, 2,
        "initial trip + failed-probe reopen: {stats}"
    );
    assert_eq!(runtime.live_workers(), 2);
}

/// A successful half-open probe must fully reset the breaker: the next
/// failure run needs the whole threshold again before tripping, and the
/// reopened breaker fails fast cleanly.
#[test]
fn successful_probe_resets_threshold_before_reopening() {
    let mut poison = dot_prog(96);
    poison.name = "poison".into();
    let healed = dot_prog(96); // same structure & shape ⇒ same plan key
    let inputs = deterministic_inputs(&poison).unwrap();

    let runtime = Runtime::new(RuntimeConfig {
        workers: 1, // serialise: every submission is its own batch
        exec_threads: 2,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(50),
        panic_marker: Some("poison".into()),
        ..RuntimeConfig::default()
    })
    .unwrap();

    // trip: two consecutive panics
    for _ in 0..2 {
        let r = runtime
            .submit(Request::new(
                poison.clone(),
                DeviceKind::Cpu,
                inputs.clone(),
            ))
            .wait();
        assert!(matches!(r, Err(MdhError::WorkerPanic(_))), "{r:?}");
    }
    std::thread::sleep(Duration::from_millis(120));
    // the probe succeeds and closes the breaker
    runtime
        .submit(Request::new(
            healed.clone(),
            DeviceKind::Cpu,
            inputs.clone(),
        ))
        .wait()
        .expect("successful probe closes the breaker");

    // the failure counter was reset by the success: the first panic of
    // the next run must NOT trip (closed breaker, threshold 2) ...
    let r = runtime
        .submit(Request::new(
            poison.clone(),
            DeviceKind::Cpu,
            inputs.clone(),
        ))
        .wait();
    assert!(matches!(r, Err(MdhError::WorkerPanic(_))), "{r:?}");
    runtime
        .submit(Request::new(
            healed.clone(),
            DeviceKind::Cpu,
            inputs.clone(),
        ))
        .wait()
        .expect("one failure below threshold must not reopen the breaker");

    // ... but a full failure run reopens it cleanly
    for _ in 0..2 {
        let r = runtime
            .submit(Request::new(
                poison.clone(),
                DeviceKind::Cpu,
                inputs.clone(),
            ))
            .wait();
        assert!(matches!(r, Err(MdhError::WorkerPanic(_))), "{r:?}");
    }
    let r = runtime
        .submit(Request::new(
            healed.clone(),
            DeviceKind::Cpu,
            inputs.clone(),
        ))
        .wait();
    assert!(matches!(r, Err(MdhError::BreakerOpen(_))), "{r:?}");

    let stats = runtime.stats();
    assert_eq!(stats.breaker_trips, 2, "stats: {stats}");
    assert_eq!(stats.worker_panics, 5, "stats: {stats}");
    assert_eq!(stats.breaker_fast_fails, 1, "stats: {stats}");
}

/// Requests that expire while queued are answered without executing:
/// the drain loop skips them even when a different-key batch anchors.
#[test]
fn expired_mid_queue_requests_are_answered_without_executing() {
    let blocker = matvec_prog(128, 256);
    let blocker_inputs = deterministic_inputs(&blocker).unwrap();
    let doomed = dot_prog(64);
    let doomed_inputs = deterministic_inputs(&doomed).unwrap();

    let runtime = Runtime::new(RuntimeConfig {
        workers: 1, // one worker ⇒ the blocker serialises the queue
        exec_threads: 2,
        ..RuntimeConfig::default()
    })
    .unwrap();

    let block = runtime.submit(Request::new(
        blocker.clone(),
        DeviceKind::Cpu,
        blocker_inputs,
    ));
    // queued behind the blocker with deadlines already in the past
    let doomed_handles: Vec<_> = (0..6)
        .map(|_| {
            runtime.submit(
                Request::new(doomed.clone(), DeviceKind::Cpu, doomed_inputs.clone())
                    .with_deadline(Instant::now()),
            )
        })
        .collect();
    block.wait().expect("blocker");
    for h in doomed_handles {
        let r = h.wait();
        assert!(matches!(r, Err(MdhError::DeadlineExceeded(_))), "{r:?}");
    }
    let stats = runtime.stats();
    assert_eq!(stats.deadline_exceeded, 6, "stats: {stats}");
    // the doomed requests never executed: no plan was ever built for
    // their key, so the only cache traffic is the blocker's
    assert_eq!(stats.plan_misses, 1, "stats: {stats}");
    assert_eq!(stats.plans_resident, 1, "stats: {stats}");
}

/// A shut-down runtime answers new submissions `draining` instead of
/// hanging or panicking.
#[test]
fn draining_runtime_rejects_new_submissions() {
    let prog = dot_prog(64);
    let inputs = deterministic_inputs(&prog).unwrap();
    let mut runtime = Runtime::new(RuntimeConfig {
        workers: 1,
        exec_threads: 2,
        ..RuntimeConfig::default()
    })
    .unwrap();
    runtime
        .submit(Request::new(prog.clone(), DeviceKind::Cpu, inputs.clone()))
        .wait()
        .expect("launch before shutdown");
    runtime.shutdown();
    let r = runtime
        .submit(Request::new(prog, DeviceKind::Cpu, inputs))
        .wait();
    match r {
        Err(MdhError::Draining(m)) => assert!(MdhError::Draining(m).is_retryable()),
        other => panic!("expected draining rejection, got {other:?}"),
    }
    assert_eq!(runtime.stats().draining_rejects, 1);
}

/// The pool executor refuses a launch whose deadline already passed —
/// cheaply, before any shard dispatch.
#[test]
fn dist_run_with_deadline_refuses_expired_launch() {
    use mdh::dist::{DevicePool, DistExecutor};
    let prog = matvec_prog(32, 32);
    let inputs = deterministic_inputs(&prog).unwrap();
    let dist = DistExecutor::new(DevicePool::gpus(2)).unwrap();
    let r = dist.run_with_deadline(&prog, &inputs, Some(Instant::now()));
    assert!(matches!(r, Err(MdhError::DeadlineExceeded(_))), "{r:?}");
    // and a generous deadline still executes normally
    let (outs, _) = dist
        .run_with_deadline(
            &prog,
            &inputs,
            Some(Instant::now() + Duration::from_secs(60)),
        )
        .expect("launch with generous deadline");
    let (want, _) = dist.run(&prog, &inputs).expect("reference");
    assert_eq!(outs, want);
}
