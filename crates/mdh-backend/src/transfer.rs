//! Host↔device data movement (the `acc data copyin/copyout` clauses of
//! Listing 3).
//!
//! The paper's GPU measurements exclude one-time transfers, but its
//! auto-tuning discussion (Section 5's footnote on amortisation) depends
//! on the fact that kernels are re-executed against *resident* device
//! buffers. This module models a PCIe-class link with latency and
//! bandwidth, and the cost of one launch with or without its operands
//! resident — what `#pragma acc data` regions express.

use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;

/// Transfer-link constants (PCIe 4.0 x16-class, as on the paper's
/// A100-PCIE-40GB).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkParams {
    pub bandwidth_gib_s: f64,
    /// Per-transfer latency in microseconds (driver + DMA setup).
    pub latency_us: f64,
}

impl LinkParams {
    pub fn pcie4_x16() -> LinkParams {
        LinkParams {
            bandwidth_gib_s: 24.0,
            latency_us: 10.0,
        }
    }

    /// NVLink 3.0-class device-to-device link (A100: 12 links × ~25 GB/s
    /// per direction ≈ 300 GB/s aggregate; we model the ~250 GiB/s a single
    /// peer pair sustains, with much lower setup latency than a
    /// host-mediated PCIe DMA). Used for intra-pool peer combines in
    /// `mdh-dist`: a `pw`/`rbi` combine tree pays this link ⌈log2(N)⌉
    /// times, a `ps` carry chain N-1 times.
    pub fn nvlink3() -> LinkParams {
        LinkParams {
            bandwidth_gib_s: 250.0,
            latency_us: 2.0,
        }
    }
}

/// Cost of moving `bytes` across the link.
pub fn transfer_ms(link: &LinkParams, bytes: usize) -> f64 {
    link.latency_us / 1e3 + bytes as f64 / (link.bandwidth_gib_s * (1u64 << 30) as f64) * 1e3
}

/// Transfer cost of one launch of `prog`: copyin of every input unless
/// the operands are already `resident` on the device, plus copyout of
/// every output (the host always needs the fresh values). Stateless —
/// the caller decides what residency means (the runtime: a key's
/// operands stay resident exactly as long as its plan stays cached).
pub fn launch_cost_ms(
    link: &LinkParams,
    prog: &DslProgram,
    inputs: &[Buffer],
    resident: bool,
) -> f64 {
    let mut total = 0.0;
    if !resident {
        for buf in inputs {
            total += transfer_ms(link, buf.size_bytes());
        }
    }
    if let Ok(shapes) = prog.output_shapes() {
        for (decl, shape) in prog.out_view.buffers.iter().zip(shapes) {
            total += transfer_ms(link, shape.iter().product::<usize>() * decl.ty.size_bytes());
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::DslBuilder;
    use mdh_core::expr::ScalarFunction;
    use mdh_core::index_fn::IndexFn;
    use mdh_core::shape::Shape;
    use mdh_core::types::{BasicType, ScalarKind};

    fn matvec(i: usize, k: usize) -> mdh_core::dsl::DslProgram {
        DslBuilder::new("matvec", vec![i, k])
            .out_buffer("w", BasicType::F32)
            .out_access("w", IndexFn::select(2, &[0]))
            .inp_buffer("M", BasicType::F32)
            .inp_access("M", IndexFn::identity(2, 2))
            .inp_buffer("v", BasicType::F32)
            .inp_access("v", IndexFn::select(2, &[1]))
            .scalar_function(ScalarFunction::mul2("f", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let link = LinkParams::pcie4_x16();
        let small = transfer_ms(&link, 1 << 10);
        let big = transfer_ms(&link, 1 << 30);
        assert!(big > 30.0 * small);
        // 1 GiB at 24 GiB/s ≈ 41.7 ms + latency
        assert!((big - (1000.0 / 24.0 + 0.01)).abs() < 1.0);
    }

    #[test]
    fn nvlink_beats_pcie_for_peer_combines() {
        let pcie = LinkParams::pcie4_x16();
        let nv = LinkParams::nvlink3();
        // a 64 MiB partial-result exchange: NVLink must be roughly an
        // order of magnitude cheaper, both in latency and bandwidth terms
        let bytes = 64 << 20;
        assert!(transfer_ms(&nv, bytes) * 8.0 < transfer_ms(&pcie, bytes));
        assert!(transfer_ms(&nv, 0) < transfer_ms(&pcie, 0));
    }

    #[test]
    fn residency_amortises_repeated_launches() {
        let prog = matvec(1024, 1024);
        let m = Buffer::zeros("M", BasicType::F32, Shape::new(vec![1024, 1024]));
        let v = Buffer::zeros("v", BasicType::F32, Shape::new(vec![1024]));
        let inputs = vec![m, v];
        let link = LinkParams::pcie4_x16();
        let first = launch_cost_ms(&link, &prog, &inputs, false);
        let second = launch_cost_ms(&link, &prog, &inputs, true);
        assert!(first > second, "first {first} ms, second {second} ms");
        // the second launch pays only the copyout of w (4 KiB)
        assert_eq!(second, transfer_ms(&link, 4096));
    }

    #[test]
    fn amortisation_story_vs_kernel_time() {
        // the paper's point: tuned kernels are reused extensively, so
        // one-time transfer cost amortises. Check the crossover exists.
        let link = LinkParams::pcie4_x16();
        let bytes = 64 << 20; // 64 MiB of inputs
        let t_transfer = transfer_ms(&link, bytes);
        let t_kernel = 0.1; // a fast tuned kernel
                            // after N launches, amortised overhead per launch:
        let n = 100.0;
        let per_launch = t_transfer / n + t_kernel;
        assert!(per_launch < 2.0 * t_kernel + 1.0);
        assert!(t_transfer > t_kernel, "transfers dominate a single launch");
    }
}
