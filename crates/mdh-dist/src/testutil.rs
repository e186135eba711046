//! Programs, fills and the single-device oracle shared by the stage
//! modules' unit tests.

use mdh_backend::cpu::CpuExecutor;
use mdh_core::buffer::Buffer;
use mdh_core::combine::CombineOp;
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::expr::ScalarFunction;
use mdh_core::index_fn::IndexFn;
use mdh_core::shape::Shape;
use mdh_core::types::{BasicType, ScalarKind};
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::heuristics::mdh_default_schedule;

/// Integer-valued fill: exact in f32/f64, so every reassociation of
/// an add/mul reduction agrees bitwise.
pub(crate) fn int_fill(buf: &mut Buffer) {
    buf.fill_with(|i| ((i.wrapping_mul(2654435761)) % 16) as f64 - 8.0);
}

pub(crate) fn matvec(i: usize, k: usize) -> DslProgram {
    DslBuilder::new("matvec", vec![i, k])
        .out_buffer("w", BasicType::F32)
        .out_access("w", IndexFn::select(2, &[0]))
        .inp_buffer("M", BasicType::F32)
        .inp_access("M", IndexFn::identity(2, 2))
        .inp_buffer("v", BasicType::F32)
        .inp_access("v", IndexFn::select(2, &[1]))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
        .build()
        .unwrap()
}

pub(crate) fn matvec_inputs(i: usize, k: usize) -> Vec<Buffer> {
    let mut m = Buffer::zeros("M", BasicType::F32, Shape::new(vec![i, k]));
    let mut v = Buffer::zeros("v", BasicType::F32, Shape::new(vec![k]));
    int_fill(&mut m);
    int_fill(&mut v);
    vec![m, v]
}

pub(crate) fn single_device(prog: &DslProgram, inputs: &[Buffer]) -> Vec<Buffer> {
    let exec = CpuExecutor::new(1).unwrap();
    let schedule = mdh_default_schedule(prog, DeviceKind::Cpu, 1);
    exec.run(prog, &schedule, inputs).unwrap()
}
