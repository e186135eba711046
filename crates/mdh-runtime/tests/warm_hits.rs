//! A warm plan-cache hit runs the route its plan was built with: it
//! neither classifies the program nor compiles its scalar function again.
//!
//! Compiling a scalar function allocates more the more statements it has;
//! running a compiled one allocates the same whatever its length. So a
//! runtime worker makes exactly as many heap allocations for a warm hit
//! of a one-statement function as for a 64-statement one — on the CPU and
//! on the single-device GPU path. Only the worker threads' allocations
//! are counted: `submit` builds the plan key, whose length follows the
//! function's, on the caller's thread.
//!
//! The counting allocator is process-wide, so this file holds one test.

use mdh_backend::cpu::{CpuExecutor, ExecPath};
use mdh_core::buffer::Buffer;
use mdh_core::combine::CombineOp;
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::expr::{Expr, ScalarFunction, Stmt};
use mdh_core::index_fn::IndexFn;
use mdh_core::shape::Shape;
use mdh_core::types::{BasicType, Value};
use mdh_lowering::asm::DeviceKind;
use mdh_runtime::{Request, Runtime, RuntimeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static WORKER_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

const UNKNOWN: u8 = 0;
const RESOLVING: u8 = 1;
const WORKER: u8 = 2;
const OTHER: u8 = 3;

thread_local! {
    static THREAD: Cell<u8> = const { Cell::new(UNKNOWN) };
}

/// Whether the calling thread is a runtime worker. Resolving the name may
/// allocate; that allocation re-enters here and is not counted.
fn on_worker() -> bool {
    THREAD.with(|t| match t.get() {
        UNKNOWN => {
            t.set(RESOLVING);
            let current = std::thread::current();
            let worker = current
                .name()
                .is_some_and(|n| n.starts_with("mdh-runtime-worker"));
            t.set(if worker { WORKER } else { OTHER });
            worker
        }
        state => state == WORKER,
    })
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_worker() {
            WORKER_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if on_worker() {
            WORKER_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_worker() {
            WORKER_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `y[i] = x[i]` through `stmts` statements: an f64 map, which runs on the
/// VM. Every variant reads its parameter once, so validating any of them
/// allocates alike.
fn map(stmts: usize) -> DslProgram {
    let one = || Expr::Lit(Value::F64(1.0));
    let mut body = vec![Stmt::Assign {
        name: "r".into(),
        value: Expr::Param(0),
    }];
    for i in 1..stmts {
        let step = if i % 2 == 1 { Expr::add } else { Expr::sub };
        body.push(Stmt::Assign {
            name: "r".into(),
            value: step(Expr::Var("r".into()), one()),
        });
    }
    let f = ScalarFunction {
        name: "f".into(),
        params: vec![("a".into(), BasicType::F64)],
        results: vec![("r".into(), BasicType::F64)],
        body,
    };
    DslBuilder::new("map", vec![64])
        .out_buffer("y", BasicType::F64)
        .out_access("y", IndexFn::identity(1, 1))
        .inp_buffer("x", BasicType::F64)
        .inp_access("x", IndexFn::identity(1, 1))
        .scalar_function(f)
        .combine_ops(vec![CombineOp::cc()])
        .build()
        .expect("map program")
}

/// Worker allocations of one warm hit of `prog` on `device`.
fn warm_hit_allocations(rt: &Runtime, prog: &DslProgram, device: DeviceKind) -> usize {
    let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![64]));
    x.fill_with(|i| i as f64);
    let inputs = Arc::new(vec![x]);
    let launch = || {
        let req = Request::new(prog.clone(), device, Arc::clone(&inputs));
        let resp = rt.submit(req).wait().expect("launch");
        // the worker may still be finishing the batch after it replies
        rt.wait_idle();
        resp
    };
    // the first launch builds the plan; the next ones fill whatever the
    // worker grows lazily
    for _ in 0..3 {
        launch();
    }
    let before = WORKER_ALLOCATIONS.load(Ordering::Relaxed);
    let resp = launch();
    let made = WORKER_ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(resp.cache_hit);
    made
}

#[test]
fn warm_hits_neither_route_nor_compile() {
    let (short, long) = (map(1), map(64));
    let exec = CpuExecutor::new(1).expect("executor");
    assert_eq!(exec.path_for(&short), ExecPath::Vm);
    assert_eq!(exec.path_for(&long), ExecPath::Vm);
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        exec_threads: 1,
        ..RuntimeConfig::default()
    })
    .expect("runtime");
    for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
        let few = warm_hit_allocations(&rt, &short, device);
        let many = warm_hit_allocations(&rt, &long, device);
        assert_eq!(
            few,
            many,
            "{device}: a warm hit of a 64-statement function made {} more allocations \
             than of a 1-statement one",
            many as i64 - few as i64
        );
    }
}
