//! The `rbi` kernel allocates per chunk, never per point: one pinned plan
//! of a Histogram-shaped program (`hist[key[i]] += w[i]`, the key stream
//! captured by a general output access) makes exactly as many heap
//! allocations at 2¹⁶ points as at 2¹².
//!
//! The counting allocator is process-wide, so this file holds one test and
//! the executor runs one thread.

use mdh_backend::cpu::{CpuExecutor, ExecPath};
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

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
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

/// Heap allocations of one warm `run_planned` at `n` points.
fn allocations(ex: &CpuExecutor, n: usize) -> usize {
    let (prog, inputs) = histogram(n);
    assert_eq!(ex.path_for(&prog), ExecPath::Vm);
    let schedule = mdh_default_schedule(&prog, DeviceKind::Cpu, 1);
    let plan = ExecutionPlan::build(&prog, &schedule).expect("plan");
    // the first run fills whatever the process builds lazily
    ex.run_planned(&prog, &schedule, &plan, &inputs)
        .expect("warm run");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outs = ex.run_planned(&prog, &schedule, &plan, &inputs);
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(outs.is_ok(), "{outs:?}");
    made
}

#[test]
fn the_rbi_kernel_allocates_per_chunk_not_per_point() {
    let ex = CpuExecutor::new(1).expect("executor");
    let small = allocations(&ex, 1 << 12);
    let large = allocations(&ex, 1 << 16);
    assert_eq!(
        small,
        large,
        "16x the points made {} more allocations",
        large as i64 - small as i64
    );
}
