//! A recycled host block handed to a fast kernel without its zero fill
//! must never show through an output: only a kernel that provably writes
//! every element of its output may take one.
//!
//! The block list (`host_blocks()`) is process-wide, so this file holds
//! one test.

use mdh_backend::cpu::{CpuExecutor, ExecPath};
use mdh_core::buffer::{host_blocks, Buffer, HOST_BLOCK_MIN_BYTES};
use mdh_core::combine::CombineOp;
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::expr::ScalarFunction;
use mdh_core::index_fn::{AffineExpr, IndexFn};
use mdh_core::shape::Shape;
use mdh_core::types::{BasicType, ScalarKind};
use mdh_lowering::heuristics::mdh_default_schedule;
use mdh_lowering::plan::ExecutionPlan;
use mdh_lowering::DeviceKind;

/// f32 elements of the smallest recycled block.
const N: usize = HOST_BLOCK_MIN_BYTES / 4;

/// `y[step * i] = 0.5 * x[i]` over `points` points, into an `N`-element `y`.
fn halve(step: i64, points: usize) -> DslProgram {
    DslBuilder::new("halve", vec![points])
        .out_buffer_with_shape("y", BasicType::F32, vec![N])
        .out_access("y", IndexFn::affine(vec![AffineExpr::new(vec![step], 0)]))
        .inp_buffer("x", BasicType::F32)
        .inp_access("x", IndexFn::identity(1, 1))
        .scalar_function(ScalarFunction::weighted_sum("w", ScalarKind::F32, &[0.5]))
        .combine_ops(vec![CombineOp::cc()])
        .build()
        .unwrap()
}

fn run(exec: &CpuExecutor, prog: &DslProgram, x: &Buffer) -> Buffer {
    assert_eq!(exec.path_for(prog), ExecPath::Fast, "{}", prog.name);
    let schedule = mdh_default_schedule(prog, DeviceKind::Cpu, 2);
    let plan = ExecutionPlan::build(prog, &schedule).unwrap();
    let mut outs = exec
        .run_planned(prog, &schedule, &plan, std::slice::from_ref(x))
        .unwrap();
    outs.remove(0)
}

#[test]
fn an_injective_map_that_skips_elements_reads_zero_where_it_skipped() {
    let exec = CpuExecutor::new(2).unwrap();
    let input = |n: usize| {
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![n]));
        x.fill_with(|i| 1.0 + (i % 7) as f64);
        x
    };

    // every element written, none of them zero: the block goes back to
    // the list full of nonzero values
    let covering = run(&exec, &halve(1, N), &input(N));
    assert!(covering.as_f32().unwrap().iter().all(|&v| v != 0.0));
    drop(covering);

    // injective but not onto: the odd elements are never written
    let (reuses, _, _) = host_blocks().counters();
    let x = input(N / 2);
    let skipping = run(&exec, &halve(2, N / 2), &x);
    assert_eq!(
        host_blocks().counters().0,
        reuses + 1,
        "the output is the recycled block"
    );
    let (y, x) = (skipping.as_f32().unwrap(), x.as_f32().unwrap());
    for (i, &v) in y.iter().enumerate() {
        let want = if i % 2 == 0 { 0.5 * x[i / 2] } else { 0.0 };
        assert_eq!(v.to_bits(), want.to_bits(), "y[{i}]");
    }
}
