//! Pipelines: composition of MDH programs.
//!
//! Many applications the paper motivates are *chains* of data-parallel
//! computations: the full Maximum Bottom Box Sum is a prefix-sum program
//! followed by a max-reduction; a neural network is a chain of MCC and
//! GEMM layers. A [`Pipeline`] wires programs' outputs to later programs'
//! inputs, executes the stages through the CPU backend, and accumulates
//! GPU-model cost (kernel time + inter-stage data staying resident on the
//! device, per the transfer model).

use crate::cpu::CpuExecutor;
use crate::gpu::GpuSim;
use crate::transfer::{DeviceDataRegion, LinkParams};
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::heuristics::mdh_default_schedule;
use mdh_lowering::schedule::Schedule;
use std::collections::HashMap;

/// Where a stage input comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// An external buffer supplied to [`Pipeline::run`], by name.
    External(String),
    /// Output buffer `buffer` of earlier stage `stage`.
    Stage { stage: usize, buffer: String },
}

/// One stage: a program plus where each of its inputs comes from.
pub struct Stage {
    pub program: DslProgram,
    pub inputs: Vec<Source>,
    /// Schedule override (defaults to the device heuristic).
    pub schedule: Option<Schedule>,
}

/// A chain of programs.
#[derive(Default)]
pub struct Pipeline {
    pub stages: Vec<Stage>,
}

impl Pipeline {
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Append a stage; `inputs` must name one source per program input
    /// buffer (in order).
    pub fn stage(mut self, program: DslProgram, inputs: Vec<Source>) -> Self {
        self.stages.push(Stage {
            program,
            inputs,
            schedule: None,
        });
        self
    }

    /// Append a stage with an explicit schedule.
    pub fn stage_with_schedule(
        mut self,
        program: DslProgram,
        inputs: Vec<Source>,
        schedule: Schedule,
    ) -> Self {
        self.stages.push(Stage {
            program,
            inputs,
            schedule: Some(schedule),
        });
        self
    }

    /// Structural validation: arities and source references.
    pub fn validate(&self) -> Result<()> {
        for (si, st) in self.stages.iter().enumerate() {
            if st.inputs.len() != st.program.inp_view.buffers.len() {
                return Err(MdhError::Validation(format!(
                    "stage {si} ('{}') declares {} inputs but {} sources are wired",
                    st.program.name,
                    st.program.inp_view.buffers.len(),
                    st.inputs.len()
                )));
            }
            for src in &st.inputs {
                if let Source::Stage { stage, buffer } = src {
                    if *stage >= si {
                        return Err(MdhError::Validation(format!(
                            "stage {si} reads from stage {stage}, which is not earlier"
                        )));
                    }
                    let producer = &self.stages[*stage].program;
                    if producer.out_view.buffer_index(buffer).is_none() {
                        return Err(MdhError::Validation(format!(
                            "stage {si} reads '{buffer}' from stage {stage}, \
                             which has no such output"
                        )));
                    }
                }
            }
            st.program.validate()?;
        }
        Ok(())
    }

    /// Execute the chain on the CPU backend. Returns the outputs of every
    /// stage (`result[stage][output]`).
    pub fn run(
        &self,
        exec: &CpuExecutor,
        external: &HashMap<String, Buffer>,
    ) -> Result<Vec<Vec<Buffer>>> {
        self.validate()?;
        let mut results: Vec<Vec<Buffer>> = Vec::with_capacity(self.stages.len());
        for st in &self.stages {
            let mut inputs = Vec::with_capacity(st.inputs.len());
            for src in &st.inputs {
                let buf = match src {
                    Source::External(name) => external.get(name).cloned().ok_or_else(|| {
                        MdhError::Validation(format!("missing external buffer '{name}'"))
                    })?,
                    Source::Stage { stage, buffer } => {
                        let producer = &self.stages[*stage].program;
                        let idx = producer.out_view.buffer_index(buffer).expect("validated");
                        results[*stage][idx].clone()
                    }
                };
                inputs.push(buf);
            }
            let schedule = st.schedule.clone().unwrap_or_else(|| {
                mdh_default_schedule(&st.program, DeviceKind::Cpu, exec.threads)
            });
            results.push(exec.run(&st.program, &schedule, &inputs)?);
        }
        Ok(results)
    }

    /// Modelled end-to-end GPU time: per-stage kernel estimates plus
    /// host↔device transfers — intermediate buffers stay device-resident,
    /// so only externals are copied in and only final-stage outputs out.
    pub fn estimate_gpu_ms(
        &self,
        sim: &GpuSim,
        external_bytes: &HashMap<String, usize>,
    ) -> Result<f64> {
        self.validate()?;
        let mut region = DeviceDataRegion::new(LinkParams::pcie4_x16());
        let mut total = 0.0;
        for (si, st) in self.stages.iter().enumerate() {
            // copy in external inputs (resident ones are free)
            for src in &st.inputs {
                if let Source::External(name) = src {
                    let bytes = *external_bytes.get(name).ok_or_else(|| {
                        MdhError::Validation(format!("missing size for external '{name}'"))
                    })?;
                    let fake = Buffer::zeros(
                        name.clone(),
                        mdh_core::types::BasicType::CHAR,
                        mdh_core::shape::Shape::new(vec![bytes]),
                    );
                    total += region.copyin(&fake);
                }
            }
            let schedule = st
                .schedule
                .clone()
                .unwrap_or_else(|| mdh_default_schedule(&st.program, DeviceKind::Gpu, 108 * 32));
            total += sim.estimate(&st.program, &schedule)?.time_ms;
            // final stage: results come back to the host
            if si == self.stages.len() - 1 {
                if let Ok(shapes) = st.program.output_shapes() {
                    for (decl, shape) in st.program.out_view.buffers.iter().zip(shapes) {
                        let bytes = shape.iter().product::<usize>() * decl.ty.size_bytes();
                        total += region.copyout(bytes);
                    }
                }
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::DslBuilder;
    use mdh_core::expr::ScalarFunction;
    use mdh_core::index_fn::{AffineExpr, IndexFn};
    use mdh_core::shape::Shape;
    use mdh_core::types::{BasicType, ScalarKind};

    /// Stage 1 of full MBBS: bbs[i] = prefix over i of row sums.
    fn scan_stage(i: usize, j: usize) -> DslProgram {
        DslBuilder::new("mbbs_scan", vec![i, j])
            .out_buffer("bbs", BasicType::F64)
            .out_access("bbs", IndexFn::select(2, &[0]))
            .inp_buffer("M", BasicType::F64)
            .inp_access("M", IndexFn::identity(2, 2))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::ps_add(), CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    /// Stage 2: the maximum over the scan — Farzan & Nicolet's MBBS value.
    fn max_stage(i: usize) -> DslProgram {
        DslBuilder::new("mbbs_max", vec![i])
            .out_buffer("best", BasicType::F64)
            .out_access("best", IndexFn::affine(vec![AffineExpr::constant(1, 0)]))
            .inp_buffer("bbs", BasicType::F64)
            .inp_access("bbs", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::pw_max()])
            .build()
            .unwrap()
    }

    #[test]
    fn full_mbbs_pipeline_matches_reference() {
        let (i, j) = (12, 5);
        let pipeline = Pipeline::new()
            .stage(scan_stage(i, j), vec![Source::External("M".into())])
            .stage(
                max_stage(i),
                vec![Source::Stage {
                    stage: 0,
                    buffer: "bbs".into(),
                }],
            );
        let mut m = Buffer::zeros("M", BasicType::F64, Shape::new(vec![i, j]));
        m.fill_with(|f| ((f * 37) % 19) as f64 - 9.0);
        let mut external = HashMap::new();
        external.insert("M".to_string(), m.clone());

        let exec = CpuExecutor::new(3).unwrap();
        let results = pipeline.run(&exec, &external).unwrap();
        let got = results[1][0].as_f64().unwrap()[0];

        // reference: max over prefix sums of row sums
        let mf = m.as_f64().unwrap();
        let mut acc = 0.0;
        let mut best = f64::NEG_INFINITY;
        for ii in 0..i {
            for jj in 0..j {
                acc += mf[ii * j + jj];
            }
            best = best.max(acc);
        }
        assert!((got - best).abs() < 1e-9, "{got} vs {best}");
    }

    #[test]
    fn two_layer_gemm_chain() {
        // y = B (A x): two MatVec stages chained
        let matvec = |name: &str, i: usize, k: usize| {
            DslBuilder::new(name, vec![i, k])
                .out_buffer("y", BasicType::F32)
                .out_access("y", IndexFn::select(2, &[0]))
                .inp_buffer("W", BasicType::F32)
                .inp_access("W", IndexFn::identity(2, 2))
                .inp_buffer("x", BasicType::F32)
                .inp_access("x", IndexFn::select(2, &[1]))
                .scalar_function(ScalarFunction::mul2("f", ScalarKind::F32))
                .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
                .build()
                .unwrap()
        };
        let (n0, n1, n2) = (6, 4, 3);
        let pipeline = Pipeline::new()
            .stage(
                matvec("layer1", n1, n0),
                vec![Source::External("W1".into()), Source::External("x".into())],
            )
            .stage(
                matvec("layer2", n2, n1),
                vec![
                    Source::External("W2".into()),
                    Source::Stage {
                        stage: 0,
                        buffer: "y".into(),
                    },
                ],
            );
        let mut w1 = Buffer::zeros("W1", BasicType::F32, Shape::new(vec![n1, n0]));
        w1.fill_with(|f| (f % 5) as f64 * 0.25);
        let mut w2 = Buffer::zeros("W2", BasicType::F32, Shape::new(vec![n2, n1]));
        w2.fill_with(|f| (f % 3) as f64 - 1.0);
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![n0]));
        x.fill_with(|f| f as f64);
        let mut external = HashMap::new();
        external.insert("W1".into(), w1.clone());
        external.insert("W2".into(), w2.clone());
        external.insert("x".into(), x.clone());

        let exec = CpuExecutor::new(2).unwrap();
        let results = pipeline.run(&exec, &external).unwrap();
        let y = results[1][0].as_f32().unwrap();

        // reference
        let (w1f, w2f, xf) = (
            w1.as_f32().unwrap(),
            w2.as_f32().unwrap(),
            x.as_f32().unwrap(),
        );
        let h: Vec<f32> = (0..n1)
            .map(|r| (0..n0).map(|c| w1f[r * n0 + c] * xf[c]).sum())
            .collect();
        for r in 0..n2 {
            let expect: f32 = (0..n1).map(|c| w2f[r * n1 + c] * h[c]).sum();
            assert!((y[r] - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn validation_catches_bad_wiring() {
        let p = Pipeline::new().stage(
            max_stage(4),
            vec![Source::Stage {
                stage: 0,
                buffer: "bbs".into(),
            }],
        );
        assert!(p.validate().is_err(), "self-reference must fail");

        let p = Pipeline::new()
            .stage(scan_stage(4, 2), vec![Source::External("M".into())])
            .stage(
                max_stage(4),
                vec![Source::Stage {
                    stage: 0,
                    buffer: "nonexistent".into(),
                }],
            );
        assert!(p.validate().is_err(), "unknown producer output must fail");
    }

    #[test]
    fn gpu_estimate_includes_transfers_once() {
        let (i, j) = (1024, 512);
        let pipeline = Pipeline::new()
            .stage(scan_stage(i, j), vec![Source::External("M".into())])
            .stage(
                max_stage(i),
                vec![Source::Stage {
                    stage: 0,
                    buffer: "bbs".into(),
                }],
            );
        let sim = GpuSim::a100(1).unwrap();
        let mut sizes = HashMap::new();
        sizes.insert("M".to_string(), i * j * 8);
        let total = pipeline.estimate_gpu_ms(&sim, &sizes).unwrap();
        // must at least cover the H2D copy of M (4 MiB over PCIe)
        let h2d = crate::transfer::transfer_ms(&LinkParams::pcie4_x16(), i * j * 8);
        assert!(total > h2d, "total {total} ms must include {h2d} ms copyin");
    }
}
