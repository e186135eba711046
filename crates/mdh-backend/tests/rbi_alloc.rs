//! What a warm pinned run allocates, counted in calls and bytes by a
//! global allocator:
//!
//! - the `rbi` kernel allocates per chunk, never per point: one plan of a
//!   Histogram-shaped program (`hist[key[i]] += w[i]`, the key stream
//!   captured by a general output access) makes exactly as many heap
//!   allocations at 2¹⁶ points as at 2¹²;
//! - a reduction-free product (AD's MatVec `adj_M`, an all-`cc` outer
//!   product) stores straight into its output: a 512 × 512 f32 run
//!   allocates that output plus a small constant per task, and no f64
//!   partial twice the output's size.
//!
//! The counting allocator is process-wide, so this file holds one test and
//! the executor runs one thread.

use mdh_backend::cpu::{CpuExecutor, ExecPath, Route};
use mdh_core::buffer::Buffer;
use mdh_core::combine::CombineOp;
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::expr::ScalarFunction;
use mdh_core::index_fn::IndexFn;
use mdh_core::shape::Shape;
use mdh_core::types::{BasicType, ScalarKind};
use mdh_lowering::heuristics::mdh_default_schedule;
use mdh_lowering::plan::ExecutionPlan;
use mdh_lowering::DeviceKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Bytes requested: a `realloc` counts its whole new size.
static BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn histogram(n: usize) -> (DslProgram, Vec<Buffer>) {
    let buckets = 256;
    let keys: Arc<Vec<usize>> = Arc::new((0..n).map(|i| (i * 2_654_435_761) % buckets).collect());
    let prog = DslBuilder::new("histogram", vec![n])
        .out_buffer_with_shape("hist", BasicType::F32, vec![buckets])
        .out_access(
            "hist",
            IndexFn::General {
                out_rank: 1,
                f: Arc::new(move |i: &[usize], out: &mut [usize]| out[0] = keys[i[0]]),
                label: "key".into(),
            },
        )
        .inp_buffer("w", BasicType::F32)
        .inp_access("w", IndexFn::identity(1, 1))
        .scalar_function(ScalarFunction::identity("f_id", ScalarKind::F32))
        .combine_ops(vec![CombineOp::rbi_add()])
        .build()
        .expect("histogram");
    let mut w = Buffer::zeros("w", BasicType::F32, Shape::new(vec![n]));
    w.fill_with(|i| (i % 16) as f64 - 8.0);
    (prog, vec![w])
}

/// `out[i, j] = a[i] * b[j]` over `n × n` f32 points.
fn outer_product(n: usize) -> (DslProgram, Vec<Buffer>) {
    let prog = DslBuilder::new("outer", vec![n, n])
        .out_buffer("c", BasicType::F32)
        .out_access("c", IndexFn::identity(2, 2))
        .inp_buffer("a", BasicType::F32)
        .inp_access("a", IndexFn::select(2, &[0]))
        .inp_buffer("b", BasicType::F32)
        .inp_access("b", IndexFn::select(2, &[1]))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::cc(), CombineOp::cc()])
        .build()
        .expect("outer product");
    let mut inputs = vec![
        Buffer::zeros("a", BasicType::F32, Shape::new(vec![n])),
        Buffer::zeros("b", BasicType::F32, Shape::new(vec![n])),
    ];
    for buf in &mut inputs {
        buf.fill_with(|i| i as f64 * 0.1);
    }
    (prog, inputs)
}

/// Heap allocations and bytes of one warm run of `prog` on `path` —
/// routed once beforehand, as a cached plan is — and the plan's task
/// count.
fn allocations(
    ex: &CpuExecutor,
    (prog, inputs): (DslProgram, Vec<Buffer>),
    path: ExecPath,
) -> (usize, usize, usize) {
    let route = Route::of(&prog);
    assert_eq!(route.path(), path);
    let schedule = mdh_default_schedule(&prog, DeviceKind::Cpu, 1);
    let plan = ExecutionPlan::build(&prog, &schedule).expect("plan");
    // the first run fills whatever the process builds lazily
    ex.run_routed(&prog, &route, &plan, &inputs)
        .expect("warm run");
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let outs = ex.run_routed(&prog, &route, &plan, &inputs);
    let calls = ALLOCATIONS.load(Ordering::Relaxed) - before.0;
    let bytes = BYTES.load(Ordering::Relaxed) - before.1;
    assert!(outs.is_ok(), "{outs:?}");
    (calls, bytes, plan.tasks.len())
}

#[test]
fn the_rbi_kernel_allocates_per_chunk_not_per_point() {
    let ex = CpuExecutor::new(1).expect("executor");
    let (small, _, _) = allocations(&ex, histogram(1 << 12), ExecPath::Vm);
    let (large, _, _) = allocations(&ex, histogram(1 << 16), ExecPath::Vm);
    assert_eq!(
        small,
        large,
        "16x the points made {} more allocations",
        large as i64 - small as i64
    );

    // the output, and at most this much per task besides (the run's own
    // bookkeeping, ≈ 1 KiB, counts against it too)
    const PER_TASK: usize = 4096;
    let n = 512;
    let (_, bytes, tasks) = allocations(&ex, outer_product(n), ExecPath::Fast);
    let output = n * n * std::mem::size_of::<f32>();
    assert!(
        bytes <= output + tasks * PER_TASK,
        "a {n} x {n} outer product allocated {bytes} bytes over {tasks} task(s) \
         for a {output}-byte output"
    );
}
