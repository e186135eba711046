//! The GPU simulator.
//!
//! Real CUDA code generation is hardware-gated in this environment, so the
//! GPU backend is split into two honest halves (documented in DESIGN.md):
//!
//! * **functional execution** — the schedule's decomposition semantics are
//!   device-independent (guaranteed by the homomorphism laws), so results
//!   are computed on the host through the CPU executor;
//! * **timing** — an analytic cost model of an A100-class device charges
//!   exactly the effects the paper's evaluation hinges on: DRAM traffic
//!   with coalescing, shared-memory staging and its occupancy cost,
//!   compute throughput under partial utilisation (sequential reductions
//!   idle the device), kernel-launch overhead, and extra passes for
//!   tree-combined reductions.
//!
//! Schedule quality — tiling, staging, parallel reductions — therefore
//! translates into simulated time the way it translates into measured time
//! on real hardware, preserving the orderings and crossovers of Figure 4.

use crate::cpu::CpuExecutor;
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::shape::MdRange;
use mdh_lowering::asm::{DeviceKind, GpuParams};
use mdh_lowering::heuristics::mdh_default_schedule;
use mdh_lowering::schedule::{ReductionStrategy, Schedule};

/// Cost breakdown for one simulated kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuReport {
    /// End-to-end simulated time in milliseconds.
    pub time_ms: f64,
    pub compute_ms: f64,
    pub mem_ms: f64,
    pub launch_ms: f64,
    /// Cost of inter-block reduction-tree passes.
    pub combine_ms: f64,
    pub dram_bytes: f64,
    /// Achieved occupancy in [0, 1].
    pub occupancy: f64,
    /// Mean coalescing efficiency in (0, 1].
    pub coalescing: f64,
    /// Shared memory used per block (bytes) when staging.
    pub shared_bytes: usize,
}

/// The simulated GPU device.
pub struct GpuSim {
    pub params: GpuParams,
    exec: CpuExecutor,
}

impl GpuSim {
    pub fn a100(host_threads: usize) -> Result<GpuSim> {
        Ok(GpuSim {
            params: GpuParams::a100(),
            exec: CpuExecutor::new(host_threads)?,
        })
    }

    /// A100-class simulator whose host execution shares an existing
    /// pool instead of spawning its own threads.
    pub fn a100_with_pool(pool: &rayon::ThreadPool, host_threads: usize) -> GpuSim {
        GpuSim {
            params: GpuParams::a100(),
            exec: CpuExecutor::with_pool(pool, host_threads),
        }
    }

    /// Functionally execute (on the host) and attach the simulated cost of
    /// the given GPU schedule.
    pub fn run(
        &self,
        prog: &DslProgram,
        schedule: &Schedule,
        inputs: &[Buffer],
    ) -> Result<(Vec<Buffer>, GpuReport)> {
        let report = self.estimate(prog, schedule)?;
        // semantics are schedule-independent; compute on the host with an
        // equivalent CPU decomposition
        let host_schedule = mdh_default_schedule(prog, DeviceKind::Cpu, self.exec.threads);
        let out = self.exec.run(prog, &host_schedule, inputs)?;
        Ok((out, report))
    }

    /// Analytic cost of executing `prog` under `schedule`.
    pub fn estimate(&self, prog: &DslProgram, schedule: &Schedule) -> Result<GpuReport> {
        prog.validate()?;
        schedule.validate(prog, usize::MAX / 2)?;
        let p = &self.params;
        let rank = prog.rank();
        let sizes = &prog.md_hom.sizes;
        let points: f64 = prog.md_hom.points() as f64;
        let flops_per_point = prog.md_hom.sf.flops_estimate() as f64;
        let flops = points * flops_per_point;

        // ---- geometry ---------------------------------------------------
        let n_blocks: usize = schedule.grid_size();
        let tpb = schedule.threads_per_block().max(1);
        if tpb > p.max_threads_per_block {
            return Err(MdhError::Validation(format!(
                "threads per block {tpb} exceeds device limit {}",
                p.max_threads_per_block
            )));
        }
        // block tile extents per dim
        let block_tile: Vec<usize> = (0..rank)
            .map(|d| sizes[d].div_ceil(schedule.par_chunks[d].max(1)).max(1))
            .collect();

        // staging strip: `inner_tiles` strip-mines the block tile so the
        // staged working set is the strip footprint, not the whole block
        // tile (this is how PPCG stages sequential reductions)
        let stage_tile: Vec<usize> = (0..rank)
            .map(|d| {
                if schedule.inner_tiles[d] > 1 {
                    schedule.inner_tiles[d].min(block_tile[d]).max(1)
                } else {
                    block_tile[d]
                }
            })
            .collect();
        let stage_phases: f64 = (0..rank)
            .map(|d| block_tile[d].div_ceil(stage_tile[d]) as f64)
            .product();

        // ---- occupancy ---------------------------------------------------
        let stage_range = MdRange::new(vec![0; rank], stage_tile.clone());
        let mut shared_bytes = 0usize;
        if schedule.stage_inputs {
            for b in 0..prog.inp_view.buffers.len() {
                shared_bytes += prog
                    .inp_view
                    .footprint_bytes(b, &stage_range)
                    .unwrap_or(usize::MAX / 4);
            }
            if shared_bytes > p.shared_mem_per_sm {
                // the real toolchains fail exactly like this (PPCG's
                // "out of resources" on untuned tile sizes, Section 5.2)
                return Err(MdhError::Validation(format!(
                    "out of resources: staged block footprint {shared_bytes} B exceeds \
                     shared memory {} B",
                    p.shared_mem_per_sm
                )));
            }
        }
        let blocks_per_sm_threads = (p.max_threads_per_sm / tpb).max(1);
        let blocks_per_sm_shared = if shared_bytes > 0 {
            (p.shared_mem_per_sm / shared_bytes.max(1)).max(1)
        } else {
            usize::MAX
        };
        let blocks_per_sm = blocks_per_sm_threads.min(blocks_per_sm_shared).max(1);
        // shared-memory/blocks cap on resident threads per SM, in (0, 1]
        let resident_cap =
            (blocks_per_sm * tpb).min(p.max_threads_per_sm) as f64 / p.max_threads_per_sm as f64;

        // warp efficiency: partially-filled warps waste lanes
        let warp_eff = tpb as f64 / (tpb.div_ceil(p.warp_size) * p.warp_size) as f64;

        // ---- compute time -------------------------------------------------
        // single-counted utilisation: the device runs at the fraction of
        // peak given by how many threads the grid supplies, capped by what
        // shared-memory occupancy allows to be resident
        let total_threads = (n_blocks * tpb) as f64;
        let device_threads = (p.num_sms * p.max_threads_per_sm) as f64;
        let fill_util = (total_threads / device_threads).min(1.0);
        let occupancy = fill_util.min(resident_cap).clamp(1e-6, 1.0);
        // interpret the scalar function cost: one "flop" ≈ one fused op
        let throughput = p.peak_gflops * 1e9 * occupancy * warp_eff.max(0.03125);
        let compute_ms = flops / throughput * 1e3;

        // ---- memory time ---------------------------------------------------
        // fastest-varying thread dim: the highest-indexed dim with >1 thread
        let vec_dim = (0..rank).rev().find(|&d| schedule.block_threads[d] > 1);
        let mut dram_bytes = 0f64;
        let mut coal_num = 0f64;
        let mut coal_den = 0f64;
        let in_shapes = prog.input_shapes()?;
        if schedule.stage_inputs {
            // each block stages each strip's footprint once, coalesced;
            // strips are reloaded per phase
            for b in 0..prog.inp_view.buffers.len() {
                let fp = prog.inp_view.footprint_bytes(b, &stage_range).unwrap_or(0) as f64;
                dram_bytes += fp * stage_phases * n_blocks as f64;
            }
            coal_num += 1.0;
            coal_den += 1.0;
        }
        for a in &prog.inp_view.accesses {
            let elem = prog.inp_view.buffers[a.buffer].ty.size_bytes() as f64;
            if schedule.stage_inputs {
                // traffic charged per buffer above
            } else {
                // every point issues a load; charge a coalescing factor
                let factor = coalescing_factor(
                    a,
                    &in_shapes[a.buffer],
                    vec_dim,
                    p.transaction_bytes,
                    elem as usize,
                );
                dram_bytes += points * elem * factor;
                coal_num += 1.0 / factor;
                coal_den += 1.0;
            }
        }
        // output traffic: final writes
        let out_points: f64 = prog
            .md_hom
            .preserved_dims()
            .iter()
            .map(|&d| sizes[d] as f64)
            .product();
        let out_elem: f64 = prog
            .out_view
            .accesses
            .iter()
            .map(|a| prog.out_view.buffers[a.buffer].ty.size_bytes() as f64)
            .sum();
        dram_bytes += out_points * out_elem;

        // ---- reduction handling ---------------------------------------------
        let mut combine_ms = 0.0;
        let mut launches = 1.0;
        let red_dims = prog.md_hom.reduction_dims();
        let split_chunks: usize = red_dims
            .iter()
            .map(|&d| schedule.par_chunks[d])
            .product::<usize>()
            .max(1);
        if schedule.reduction == ReductionStrategy::Tree && split_chunks > 1 {
            // partial buffers written + read per tree pass
            let partial_bytes = out_points * out_elem * split_chunks as f64;
            combine_ms += 2.0 * partial_bytes / (p.dram_bw_gib_s * (1 << 30) as f64) * 1e3;
            // each combine pass reduces by a block's worth of partials
            let fanout = (tpb.max(32)) as f64;
            launches += ((split_chunks as f64).ln() / fanout.ln()).ceil().max(1.0);
        } else if !red_dims.is_empty() && schedule.reduction == ReductionStrategy::Sequential {
            // threads serially walk their reduction range; if the grid has
            // little preserved-dim parallelism the device idles. The
            // utilization term above already covers thread count; the
            // serial chain's latency is hidden unless parallelism is
            // degenerate, and only then charged.
            if out_points.max(1.0) < (p.num_sms * p.warp_size) as f64 {
                let serial: f64 = red_dims
                    .iter()
                    .map(|&d| {
                        let threads = schedule.par_chunks[d] * schedule.block_threads[d];
                        (sizes[d] / threads.max(1)).max(1) as f64
                    })
                    .product();
                // ~4 cycles per dependent FMA at 1.41 GHz
                combine_ms += serial * flops_per_point * 4.0 / 1.41e9 * 1e3;
            }
        }

        let mem_ms = dram_bytes / (p.dram_bw_gib_s * (1 << 30) as f64) * 1e3;
        let launch_ms = launches * p.launch_overhead_us / 1e3;
        let time_ms = compute_ms.max(mem_ms) + combine_ms + launch_ms;
        Ok(GpuReport {
            time_ms,
            compute_ms,
            mem_ms,
            launch_ms,
            combine_ms,
            dram_bytes,
            occupancy,
            coalescing: if coal_den > 0.0 {
                coal_num / coal_den
            } else {
                1.0
            },
            shared_bytes,
        })
    }
}

/// DRAM-transaction expansion factor for one access: 1.0 when consecutive
/// threads touch consecutive addresses (or all share one address), up to
/// `transaction/elem` for strided/scattered access.
fn coalescing_factor(
    access: &mdh_core::views::Access,
    buf_shape: &[usize],
    vec_dim: Option<usize>,
    transaction_bytes: usize,
    elem: usize,
) -> f64 {
    let Some(vd) = vec_dim else {
        return 1.0; // no thread-level vector dim: treat as coalesced
    };
    let Some(exprs) = access.index_fn.as_affine() else {
        return (transaction_bytes / elem).max(1) as f64;
    };
    // stride in elements of this access along the vector dim
    let mut strides = vec![1i64; buf_shape.len()];
    for d in (0..buf_shape.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * buf_shape[d + 1] as i64;
    }
    let mut stride = 0i64;
    for (e, &s) in exprs.iter().zip(&strides) {
        stride += e.coeffs.get(vd).copied().unwrap_or(0) * s;
    }
    match stride.unsigned_abs() as usize {
        0 => 1.0, // broadcast: one transaction per warp
        1 => 1.0, // perfectly coalesced
        s => (s * elem).min(transaction_bytes.max(elem)) as f64 / elem as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::{DslBuilder, DslProgram};
    use mdh_core::expr::ScalarFunction;
    use mdh_core::index_fn::IndexFn;
    use mdh_core::shape::Shape;
    use mdh_core::types::{BasicType, ScalarKind};

    fn matmul_prog(i: usize, j: usize, k: usize) -> DslProgram {
        DslBuilder::new("matmul", vec![i, j, k])
            .out_buffer("C", BasicType::F32)
            .out_access("C", IndexFn::select(3, &[0, 1]))
            .inp_buffer("A", BasicType::F32)
            .inp_access("A", IndexFn::select(3, &[0, 2]))
            .inp_buffer("B", BasicType::F32)
            .inp_access("B", IndexFn::select(3, &[2, 1]))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    fn gpu_schedule(prog: &DslProgram) -> Schedule {
        mdh_default_schedule(prog, DeviceKind::Gpu, 108 * 32)
    }

    #[test]
    fn tiled_schedule_beats_untiled() {
        // the CCSD(T)/OpenACC story: no staging => footprint reloaded per
        // point => memory-bound catastrophe
        let prog = matmul_prog(1024, 1024, 1024);
        let sim = GpuSim::a100(2).unwrap();
        let mut tiled = gpu_schedule(&prog);
        tiled.stage_inputs = true;
        // keep the staged footprint within shared memory
        tiled.par_chunks = vec![32, 32, 16];
        tiled.reduction = ReductionStrategy::Tree;
        let mut untiled = tiled.clone();
        untiled.stage_inputs = false;
        let t = sim.estimate(&prog, &tiled).unwrap();
        let u = sim.estimate(&prog, &untiled).unwrap();
        assert!(
            u.time_ms > 3.0 * t.time_ms,
            "untiled {:.3} ms should be ≫ tiled {:.3} ms",
            u.time_ms,
            t.time_ms
        );
    }

    #[test]
    fn sequential_reduction_on_dot_is_catastrophic() {
        // Dot with a sequential reduction uses one thread: the PPCG story
        use mdh_core::index_fn::AffineExpr;
        let n = 1 << 24;
        let prog = DslBuilder::new("dot", vec![n])
            .out_buffer("res", BasicType::F32)
            .out_access("res", IndexFn::affine(vec![AffineExpr::constant(1, 0)]))
            .inp_buffer("x", BasicType::F32)
            .inp_access("x", IndexFn::identity(1, 1))
            .inp_buffer("y", BasicType::F32)
            .inp_access("y", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::mul2("f", ScalarKind::F32))
            .combine_ops(vec![CombineOp::pw_add()])
            .build()
            .unwrap();
        let sim = GpuSim::a100(2).unwrap();
        let seq = Schedule::sequential(1, DeviceKind::Gpu);
        let mut par = Schedule::sequential(1, DeviceKind::Gpu);
        par.par_chunks = vec![1024];
        par.block_threads = vec![256];
        par.reduction = ReductionStrategy::Tree;
        let s = sim.estimate(&prog, &seq).unwrap();
        let p = sim.estimate(&prog, &par).unwrap();
        assert!(
            s.time_ms > 20.0 * p.time_ms,
            "sequential {:.3} ms vs parallel {:.3} ms",
            s.time_ms,
            p.time_ms
        );
    }

    #[test]
    fn oversized_staging_reports_out_of_resources() {
        let prog = matmul_prog(4096, 4096, 4096);
        let sim = GpuSim::a100(2).unwrap();
        let mut s = Schedule::sequential(3, DeviceKind::Gpu);
        s.stage_inputs = true; // full-size footprints blow shared memory
        let err = sim.estimate(&prog, &s).unwrap_err();
        assert!(err.to_string().contains("out of resources"), "{err}");
    }

    #[test]
    fn functional_run_matches_reference() {
        let prog = matmul_prog(8, 8, 8);
        let mut a = Buffer::zeros("A", BasicType::F32, Shape::new(vec![8, 8]));
        a.fill_with(|f| (f % 5) as f64);
        let mut b = Buffer::zeros("B", BasicType::F32, Shape::new(vec![8, 8]));
        b.fill_with(|f| (f % 3) as f64);
        let inputs = vec![a, b];
        let sim = GpuSim::a100(2).unwrap();
        let sched = gpu_schedule(&prog);
        let (out, report) = sim.run(&prog, &sched, &inputs).unwrap();
        let expect = mdh_core::eval::evaluate_recursive(&prog, &inputs).unwrap();
        assert!(out[0].approx_eq(&expect[0], 1e-4));
        assert!(report.time_ms > 0.0);
    }

    #[test]
    fn more_threads_lower_compute_time() {
        let prog = matmul_prog(2048, 2048, 64);
        let sim = GpuSim::a100(2).unwrap();
        let mut narrow = Schedule::sequential(3, DeviceKind::Gpu);
        narrow.par_chunks = vec![16, 1, 1];
        narrow.block_threads = vec![32, 1, 1];
        let mut wide = narrow.clone();
        wide.par_chunks = vec![64, 64, 1];
        wide.block_threads = vec![8, 32, 1];
        let n = sim.estimate(&prog, &narrow).unwrap();
        let w = sim.estimate(&prog, &wide).unwrap();
        assert!(w.time_ms < n.time_ms);
    }
}
