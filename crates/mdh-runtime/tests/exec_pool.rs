//! Runtime integration tests for the persistent execution pool:
//!
//! * a 100-request workload through `workers = 2, exec_threads = 4`
//!   creates a bounded number of OS threads — all pool threads are
//!   spawned at `Runtime::new`, none per request or per region;
//! * with `devices: 4` the shards of every GPU launch are a region on
//!   that same pool — `mdh-dist` spawns no thread per launch;
//! * a panicking kernel is isolated to its request and the shared pool
//!   keeps serving (workers survive, no replacement threads appear);
//! * the exec-latency reservoir samples every served request.

use mdh_core::buffer::Buffer;
use mdh_core::combine::CombineOp;
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::expr::ScalarFunction;
use mdh_core::index_fn::IndexFn;
use mdh_core::shape::Shape;
use mdh_core::types::{BasicType, ScalarKind};
use mdh_lowering::DeviceKind;
use mdh_runtime::{Request, Runtime, RuntimeConfig};

/// A MatVec big enough (256 x 2048 = 524288 points) that every launch
/// crosses the small-plan cutoff and runs through real pool regions.
fn matvec(name: &str) -> (DslProgram, Vec<Buffer>) {
    let (rows, cols) = (256usize, 2048usize);
    let prog = DslBuilder::new(name, vec![rows, cols])
        .out_buffer("w", BasicType::F32)
        .out_access("w", IndexFn::select(2, &[0]))
        .inp_buffer("M", BasicType::F32)
        .inp_access("M", IndexFn::identity(2, 2))
        .inp_buffer("v", BasicType::F32)
        .inp_access("v", IndexFn::select(2, &[1]))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
        .build()
        .expect("matvec");
    let mut m = Buffer::zeros("M", BasicType::F32, Shape::new(vec![rows, cols]));
    let mut v = Buffer::zeros("v", BasicType::F32, Shape::new(vec![cols]));
    m.fill_with(|i| (i % 13) as f64 - 6.0);
    v.fill_with(|i| (i % 7) as f64 - 3.0);
    (prog, vec![m, v])
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        workers: 2,
        exec_threads: 4,
        ..RuntimeConfig::default()
    }
}

#[test]
fn hundred_requests_spawn_no_threads_beyond_startup() {
    let mut rt = Runtime::new(config().clone()).expect("runtime");
    // Everything the pool will ever spawn exists now. The count is the
    // runtime's own pool's (the process-wide one moves whenever a
    // sibling test builds a runtime): snapshot it and demand zero growth.
    let spawned_at_start = rt.executor().pool().spawned_threads();
    assert_eq!(spawned_at_start, 3, "exec_threads - 1 workers at startup");

    let (prog, inputs) = matvec("bounded_threads");
    let handles: Vec<_> = (0..100)
        .map(|_| rt.submit(Request::new(prog.clone(), DeviceKind::Cpu, inputs.clone())))
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let resp = h.wait().unwrap_or_else(|e| panic!("request {i}: {e}"));
        assert_eq!(resp.outputs.len(), 1, "request {i}");
    }

    assert_eq!(
        rt.executor().pool().spawned_threads(),
        spawned_at_start,
        "requests must reuse the startup pool, not spawn threads"
    );

    let stats = rt.stats();
    assert_eq!(stats.completed, 100);
    assert_eq!(stats.exec_samples(), 100, "histogram saw every request");
    assert!(stats.exec_p50_us() > 0.0);
    assert!(stats.exec_p99_us() >= stats.exec_p50_us());
    rt.shutdown();
}

#[test]
fn pool_launches_are_regions_on_the_startup_pool() {
    let mut rt = Runtime::new(RuntimeConfig {
        devices: 4,
        ..config()
    })
    .expect("runtime");
    let (prog, inputs) = matvec("pool_regions");
    let launch = || {
        rt.submit(Request::new(prog.clone(), DeviceKind::Gpu, inputs.clone()))
            .wait()
            .expect("pool launch")
    };
    launch(); // warm-up: plan built, operands resident
    let pool = rt.executor().pool();
    let (regions, spawned) = (pool.regions_executed(), pool.spawned_threads());
    for _ in 0..200 {
        launch();
    }
    assert!(
        pool.regions_executed() >= regions + 200,
        "every launch dispatches its four shards as a region of the pool"
    );
    assert_eq!(pool.spawned_threads(), spawned, "and spawns nothing");
    rt.shutdown();
}

#[test]
fn panicking_kernel_is_isolated_and_pool_survives() {
    let mut cfg = config();
    cfg.panic_marker = Some("poison".into());
    let mut rt = Runtime::new(cfg).expect("runtime");
    let spawned_at_start = rt.executor().pool().spawned_threads();

    // Healthy request first: the pool is warm and serving.
    let (good, good_inputs) = matvec("healthy");
    rt.submit(Request::new(
        good.clone(),
        DeviceKind::Cpu,
        good_inputs.clone(),
    ))
    .wait()
    .expect("healthy request before the panic");

    // The poisoned program panics inside the worker at execution time.
    let (bad, bad_inputs) = matvec("poison");
    let err = rt
        .submit(Request::new(bad, DeviceKind::Cpu, bad_inputs))
        .wait()
        .expect_err("poisoned request must fail");
    assert!(
        err.to_string().contains("panic"),
        "panic must be visible in the error: {err}"
    );

    // The pool is not wedged: the same runtime keeps serving, with the
    // same worker threads (no replacements spawned) and no dead workers.
    for i in 0..10 {
        rt.submit(Request::new(
            good.clone(),
            DeviceKind::Cpu,
            good_inputs.clone(),
        ))
        .wait()
        .unwrap_or_else(|e| panic!("post-panic request {i}: {e}"));
    }
    assert_eq!(rt.live_workers(), 2, "both serving workers survived");
    assert_eq!(
        rt.executor().pool().spawned_threads(),
        spawned_at_start,
        "no replacement pool threads after the panic"
    );
    assert_eq!(rt.stats().worker_panics, 1);
    rt.shutdown();
}
