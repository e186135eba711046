//! Vendor-library stand-ins.
//!
//! The paper compares against Intel oneMKL/oneDNN (CPU) and NVIDIA
//! cuBLAS/cuDNN (GPU): hand-optimised, fixed-schedule, non-tunable
//! libraries covering linear algebra and DNN primitives only. We
//! substitute:
//!
//! * **CPU** — hand-written parallel Rust kernels (blocked GEMM, GEMV,
//!   dot, direct convolution). Like the real libraries they are tuned for
//!   the common large/square regime; skewed shapes (the paper's
//!   `MatMul` Inp. 2 `1×2048×1000`, `MatMul^T`, capsule convolutions) pay
//!   fixed threading and blocking overheads — exactly the regime where
//!   the paper reports MDH beating MKL by up to 5×.
//! * **GPU** — roofline cost entries with shape-dependent efficiency
//!   (cuBLAS-class GEMM reaches ~85 % of peak on large square shapes but
//!   a small fraction on skinny ones; cuDNN-class convolution ~70 %;
//!   capsule variants much less).
//!
//! Coverage mirrors the real libraries: BLAS ops and convolutions only —
//! no stencils, no PRL, no MBBS, no general tensor contractions like
//! CCSD(T).

use mdh_backend::cpu_model::CpuParams;
use mdh_core::buffer::Buffer;
use mdh_core::error::{MdhError, Result};
use mdh_core::shape::Shape;
use mdh_lowering::asm::GpuParams;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Operations the vendor stand-ins cover, with their problem sizes.
#[derive(Debug, Clone, PartialEq)]
pub enum VendorOp {
    /// `res = x · y`, length n.
    Dot { n: usize },
    /// `w = M v`, `M: i×k`.
    Gemv { i: usize, k: usize },
    /// `C = A B`, `A: i×k`, `B: k×j` (or `Bᵀ: j×k`).
    Gemm {
        i: usize,
        j: usize,
        k: usize,
        transpose_b: bool,
    },
    /// Batched GEMM, `A: b×i×k`, `B: b×k×j`.
    BatchedGemm {
        b: usize,
        i: usize,
        j: usize,
        k: usize,
    },
    /// Strided multi-channel convolution (MCC of Listing 12):
    /// `res[n,p,q,o] = Σ_{r,s,c} img[n, 2p+r, 2q+s, c] * flt[o,r,s,c]`,
    /// with `caps` extra unit dimensions modelling MCC_Caps.
    Conv2d {
        n: usize,
        p: usize,
        q: usize,
        o: usize,
        r: usize,
        s: usize,
        c: usize,
        caps: usize,
    },
}

impl VendorOp {
    pub fn flops(&self) -> f64 {
        match self {
            VendorOp::Dot { n } => 2.0 * *n as f64,
            VendorOp::Gemv { i, k } => 2.0 * (*i * *k) as f64,
            VendorOp::Gemm { i, j, k, .. } => 2.0 * (*i * *j * *k) as f64,
            VendorOp::BatchedGemm { b, i, j, k } => 2.0 * (*b * *i * *j * *k) as f64,
            VendorOp::Conv2d {
                n,
                p,
                q,
                o,
                r,
                s,
                c,
                caps,
            } => 2.0 * (*n * *p * *q * *o * *r * *s * *c * *caps) as f64,
        }
    }

    pub fn bytes(&self) -> f64 {
        let f = 4.0;
        match self {
            VendorOp::Dot { n } => 2.0 * *n as f64 * f,
            VendorOp::Gemv { i, k } => ((*i * *k) + *k + *i) as f64 * f,
            VendorOp::Gemm { i, j, k, .. } => ((*i * *k) + (*k * *j) + (*i * *j)) as f64 * f,
            VendorOp::BatchedGemm { b, i, j, k } => {
                (*b * ((*i * *k) + (*k * *j) + (*i * *j))) as f64 * f
            }
            VendorOp::Conv2d {
                n,
                p,
                q,
                o,
                r,
                s,
                c,
                caps,
            } => {
                ((*n * (2 * *p + *r) * (2 * *q + *s) * *c + *o * *r * *s * *c + *n * *p * *q * *o)
                    * *caps) as f64
                    * f
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CPU kernels (oneMKL / oneDNN stand-in)
// ---------------------------------------------------------------------------

/// Hand-optimised CPU kernels behind a rayon pool.
pub struct VendorCpu {
    pool: rayon::ThreadPool,
}

impl VendorCpu {
    pub fn new(threads: usize) -> Result<VendorCpu> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| MdhError::Validation(format!("thread pool: {e}")))?;
        Ok(VendorCpu { pool })
    }

    pub fn dot(&self, x: &[f32], y: &[f32]) -> f32 {
        self.pool.install(|| {
            x.par_chunks(1 << 14)
                .zip(y.par_chunks(1 << 14))
                .map(|(a, b)| a.iter().zip(b).map(|(p, q)| p * q).sum::<f32>())
                .sum()
        })
    }

    pub fn gemv(&self, m: &[f32], v: &[f32], i: usize, k: usize, w: &mut [f32]) {
        assert_eq!(m.len(), i * k);
        assert_eq!(v.len(), k);
        assert_eq!(w.len(), i);
        self.pool.install(|| {
            w.par_iter_mut().enumerate().for_each(|(row, out)| {
                let r = &m[row * k..(row + 1) * k];
                *out = r.iter().zip(v).map(|(a, b)| a * b).sum();
            });
        });
    }

    /// Blocked row-parallel SGEMM, `C = A B` (`B` optionally transposed).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        &self,
        a: &[f32],
        b: &[f32],
        i: usize,
        j: usize,
        k: usize,
        transpose_b: bool,
        c: &mut [f32],
    ) {
        assert_eq!(a.len(), i * k);
        assert_eq!(b.len(), k * j);
        assert_eq!(c.len(), i * j);
        const KB: usize = 256;
        self.pool.install(|| {
            c.par_chunks_mut(j).enumerate().for_each(|(row, crow)| {
                crow.fill(0.0);
                let arow = &a[row * k..(row + 1) * k];
                let mut k0 = 0;
                while k0 < k {
                    let k1 = (k0 + KB).min(k);
                    if transpose_b {
                        for (jj, cv) in crow.iter_mut().enumerate() {
                            let brow = &b[jj * k + k0..jj * k + k1];
                            *cv += arow[k0..k1]
                                .iter()
                                .zip(brow)
                                .map(|(x, y)| x * y)
                                .sum::<f32>();
                        }
                    } else {
                        for kk in k0..k1 {
                            let av = arow[kk];
                            let brow = &b[kk * j..(kk + 1) * j];
                            for (cv, bv) in crow.iter_mut().zip(brow) {
                                *cv += av * bv;
                            }
                        }
                    }
                    k0 = k1;
                }
            });
        });
    }

    #[allow(clippy::too_many_arguments)]
    pub fn batched_gemm(
        &self,
        a: &[f32],
        b: &[f32],
        batches: usize,
        i: usize,
        j: usize,
        k: usize,
        c: &mut [f32],
    ) {
        for bt in 0..batches {
            self.gemm(
                &a[bt * i * k..(bt + 1) * i * k],
                &b[bt * k * j..(bt + 1) * k * j],
                i,
                j,
                k,
                false,
                &mut c[bt * i * j..(bt + 1) * i * j],
            );
        }
    }

    /// Direct strided convolution in NHWC layout (MCC semantics).
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        &self,
        img: &[f32],
        flt: &[f32],
        n: usize,
        p: usize,
        q: usize,
        o: usize,
        r: usize,
        s: usize,
        ch: usize,
        out: &mut [f32],
    ) {
        let ih = 2 * p + r - 1;
        let iw = 2 * q + s - 1;
        assert_eq!(img.len(), n * ih * iw * ch);
        assert_eq!(flt.len(), o * r * s * ch);
        assert_eq!(out.len(), n * p * q * o);
        self.pool.install(|| {
            out.par_chunks_mut(q * o)
                .enumerate()
                .for_each(|(np, chunk)| {
                    let nn = np / p;
                    let pp = np % p;
                    for qq in 0..q {
                        for oo in 0..o {
                            let mut acc = 0f32;
                            for rr in 0..r {
                                for ss in 0..s {
                                    let ibase =
                                        ((nn * ih + (2 * pp + rr)) * iw + (2 * qq + ss)) * ch;
                                    let fbase = ((oo * r + rr) * s + ss) * ch;
                                    acc += img[ibase..ibase + ch]
                                        .iter()
                                        .zip(&flt[fbase..fbase + ch])
                                        .map(|(x, y)| x * y)
                                        .sum::<f32>();
                                }
                            }
                            chunk[qq * o + oo] = acc;
                        }
                    }
                });
        });
    }

    /// Run a covered operation on DSL-shaped buffers, timed. Returns
    /// `None` for uncovered operations (stencils, PRL, MBBS, CCSD(T)).
    pub fn run(&self, op: &VendorOp, inputs: &[Buffer]) -> Option<(Vec<Buffer>, Duration)> {
        let t0 = Instant::now();
        let out = match op {
            VendorOp::Dot { n } => {
                let x = inputs[0].as_f32()?;
                let y = inputs[1].as_f32()?;
                assert_eq!(x.len(), *n);
                let r = self.dot(x, y);
                vec![Buffer::from_f32("res", Shape::new(vec![1]), vec![r])]
            }
            VendorOp::Gemv { i, k } => {
                let m = inputs[0].as_f32()?;
                let v = inputs[1].as_f32()?;
                let mut w = vec![0f32; *i];
                self.gemv(m, v, *i, *k, &mut w);
                vec![Buffer::from_f32("w", Shape::new(vec![*i]), w)]
            }
            VendorOp::Gemm {
                i,
                j,
                k,
                transpose_b,
            } => {
                let a = inputs[0].as_f32()?;
                let b = inputs[1].as_f32()?;
                let mut c = vec![0f32; i * j];
                self.gemm(a, b, *i, *j, *k, *transpose_b, &mut c);
                vec![Buffer::from_f32("C", Shape::new(vec![*i, *j]), c)]
            }
            VendorOp::BatchedGemm { b, i, j, k } => {
                let a = inputs[0].as_f32()?;
                let bb = inputs[1].as_f32()?;
                let mut c = vec![0f32; b * i * j];
                self.batched_gemm(a, bb, *b, *i, *j, *k, &mut c);
                vec![Buffer::from_f32("C", Shape::new(vec![*b, *i, *j]), c)]
            }
            VendorOp::Conv2d {
                n,
                p,
                q,
                o,
                r,
                s,
                c,
                caps,
            } => {
                // capsule dims are folded into the channel dim for the
                // vendor path (the library has no native capsule support)
                let img = inputs[0].as_f32()?;
                let flt = inputs[1].as_f32()?;
                let ch = c * caps;
                let mut out = vec![0f32; n * p * q * o];
                self.conv2d(img, flt, *n, *p, *q, *o, *r, *s, ch, &mut out);
                vec![Buffer::from_f32(
                    "res",
                    Shape::new(vec![*n, *p, *q, *o]),
                    out,
                )]
            }
        };
        Some((out, t0.elapsed()))
    }
}

// ---------------------------------------------------------------------------
// GPU roofline entries (cuBLAS / cuDNN stand-in)
// ---------------------------------------------------------------------------

/// Analytic vendor-GPU times.
pub struct VendorGpu {
    pub params: GpuParams,
}

impl VendorGpu {
    pub fn a100() -> VendorGpu {
        VendorGpu {
            params: GpuParams::a100(),
        }
    }

    /// Shape-dependent fraction of peak the library achieves.
    pub fn efficiency(&self, op: &VendorOp) -> f64 {
        match op {
            // bandwidth-bound BLAS-1/2: effectively full bandwidth
            VendorOp::Dot { .. } | VendorOp::Gemv { .. } => 0.9,
            VendorOp::Gemm { i, j, k, .. } => gemm_efficiency(*i, *j, *k),
            VendorOp::BatchedGemm { b, i, j, k } => {
                // batching amortises launches but small mats stay inefficient
                (gemm_efficiency(*i, *j, *k) * (1.0 + (*b as f64).log2() * 0.05)).min(0.85)
            }
            VendorOp::Conv2d { o, c, caps, .. } => {
                if *caps > 1 {
                    // capsule-style convolutions are exactly the case the
                    // paper's [6] calls out: libraries fall off a cliff
                    0.08
                } else if *c < 8 || *o < 16 {
                    0.25 // first-layer convs (c=3) are notoriously inefficient
                } else {
                    0.70
                }
            }
        }
    }

    /// Simulated execution time in milliseconds.
    pub fn estimate_ms(&self, op: &VendorOp) -> f64 {
        let eff = self.efficiency(op);
        let compute_ms = op.flops() / (self.params.peak_gflops * 1e9 * eff) * 1e3;
        let mem_ms = op.bytes() / (self.params.dram_bw_gib_s * (1u64 << 30) as f64) * 1e3;
        compute_ms.max(mem_ms) + self.params.launch_overhead_us / 1e3
    }
}

/// Analytic vendor-CPU times (oneMKL/oneDNN on the modelled Xeon).
/// Used by the Figure 4 harness's modelled-CPU mode; the measured mode
/// runs [`VendorCpu`]'s real kernels instead.
pub struct VendorCpuModel {
    pub params: CpuParams,
}

impl VendorCpuModel {
    pub fn xeon_gold_6140() -> VendorCpuModel {
        VendorCpuModel {
            params: CpuParams::xeon_gold_6140(),
        }
    }

    /// Shape-dependent fraction of peak the library achieves.
    pub fn efficiency(&self, op: &VendorOp) -> f64 {
        match op {
            VendorOp::Dot { .. } | VendorOp::Gemv { .. } => 0.85, // bandwidth-bound
            VendorOp::Gemm { i, j, k, .. } => gemm_efficiency(*i, *j, *k) * 0.95,
            VendorOp::BatchedGemm { b, i, j, k } => {
                (gemm_efficiency(*i, *j, *k) * (1.0 + (*b as f64).log2() * 0.05)).min(0.8)
            }
            VendorOp::Conv2d { o, c, caps, .. } => {
                if *caps > 1 {
                    0.06
                } else if *c < 8 || *o < 16 {
                    0.22
                } else {
                    0.65
                }
            }
        }
    }

    /// Modelled execution time in milliseconds.
    pub fn estimate_ms(&self, op: &VendorOp) -> f64 {
        let eff = self.efficiency(op);
        let compute_ms = op.flops() / (self.params.peak_gflops * 1e9 * eff) * 1e3;
        let mem_ms = op.bytes() / (self.params.dram_bw_gib_s * (1u64 << 30) as f64) * 1e3;
        // MKL dispatch + threading-runtime overhead
        compute_ms.max(mem_ms) + 0.02
    }
}

/// cuBLAS-class GEMM efficiency: high for large square shapes, poor for
/// skinny/small ones.
fn gemm_efficiency(i: usize, j: usize, k: usize) -> f64 {
    let dims = [i as f64, j as f64, k as f64];
    let min_d = dims.iter().copied().fold(f64::INFINITY, f64::min);
    let geo = (dims[0] * dims[1] * dims[2]).powf(1.0 / 3.0);
    if min_d >= 512.0 {
        0.85
    } else if min_d >= 64.0 {
        0.55
    } else {
        // skinny: utilisation collapses with the smallest dim
        (0.4 * min_d / 64.0 + 0.02).min(0.4) * (geo / 1024.0).clamp(0.2, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> VendorCpu {
        VendorCpu::new(2).unwrap()
    }

    #[test]
    fn dot_matches_reference() {
        let n = 10_000;
        let x: Vec<f32> = (0..n).map(|i| ((i % 13) as f32 - 6.0) / 13.0).collect();
        let y: Vec<f32> = (0..n).map(|i| ((i % 7) as f32) / 7.0).collect();
        let got = cpu().dot(&x, &y) as f64;
        let expect: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        assert!((got - expect).abs() < 1e-2);
    }

    #[test]
    fn gemm_matches_reference() {
        let (i, j, k) = (17, 23, 31);
        let a: Vec<f32> = (0..i * k).map(|x| ((x * 7) % 11) as f32 - 5.0).collect();
        let b: Vec<f32> = (0..k * j).map(|x| ((x * 5) % 9) as f32 * 0.25).collect();
        let mut c = vec![0f32; i * j];
        cpu().gemm(&a, &b, i, j, k, false, &mut c);
        for ii in 0..i {
            for jj in 0..j {
                let expect: f32 = (0..k).map(|kk| a[ii * k + kk] * b[kk * j + jj]).sum();
                assert!((c[ii * j + jj] - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn gemm_transposed_matches() {
        let (i, j, k) = (5, 7, 9);
        let a: Vec<f32> = (0..i * k).map(|x| x as f32).collect();
        let bt: Vec<f32> = (0..j * k).map(|x| (x % 4) as f32).collect(); // j×k
        let mut c = vec![0f32; i * j];
        cpu().gemm(&a, &bt, i, j, k, true, &mut c);
        for ii in 0..i {
            for jj in 0..j {
                let expect: f32 = (0..k).map(|kk| a[ii * k + kk] * bt[jj * k + kk]).sum();
                assert!((c[ii * j + jj] - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn gemv_matches_reference() {
        let (i, k) = (13, 29);
        let m: Vec<f32> = (0..i * k).map(|x| ((x * 3) % 7) as f32).collect();
        let v: Vec<f32> = (0..k).map(|x| (x % 5) as f32 * 0.5).collect();
        let mut w = vec![0f32; i];
        cpu().gemv(&m, &v, i, k, &mut w);
        for ii in 0..i {
            let expect: f32 = (0..k).map(|kk| m[ii * k + kk] * v[kk]).sum();
            assert!((w[ii] - expect).abs() < 1e-3);
        }
    }

    #[test]
    fn conv2d_matches_naive() {
        let (n, p, q, o, r, s, ch) = (1, 3, 3, 2, 3, 3, 2);
        let ih = 2 * p + r - 1;
        let iw = 2 * q + s - 1;
        let img: Vec<f32> = (0..n * ih * iw * ch)
            .map(|x| ((x * 13) % 5) as f32)
            .collect();
        let flt: Vec<f32> = (0..o * r * s * ch).map(|x| ((x * 11) % 3) as f32).collect();
        let mut out = vec![0f32; n * p * q * o];
        cpu().conv2d(&img, &flt, n, p, q, o, r, s, ch, &mut out);
        for pp in 0..p {
            for qq in 0..q {
                for oo in 0..o {
                    let mut expect = 0f32;
                    for rr in 0..r {
                        for ss in 0..s {
                            for cc in 0..ch {
                                let iidx = (((2 * pp + rr) * iw) + (2 * qq + ss)) * ch + cc;
                                let fidx = ((oo * r + rr) * s + ss) * ch + cc;
                                expect += img[iidx] * flt[fidx];
                            }
                        }
                    }
                    assert!((out[(pp * q + qq) * o + oo] - expect).abs() < 1e-3);
                }
            }
        }
    }

    #[test]
    fn gpu_efficiency_shapes() {
        let g = VendorGpu::a100();
        let square = VendorOp::Gemm {
            i: 1024,
            j: 1024,
            k: 1024,
            transpose_b: false,
        };
        let skinny = VendorOp::Gemm {
            i: 1,
            j: 1000,
            k: 2048,
            transpose_b: false,
        };
        assert!(g.efficiency(&square) > 4.0 * g.efficiency(&skinny));
        let caps = VendorOp::Conv2d {
            n: 1,
            p: 112,
            q: 112,
            o: 64,
            r: 7,
            s: 7,
            c: 3,
            caps: 16,
        };
        assert!(g.efficiency(&caps) < 0.1);
        assert!(g.estimate_ms(&square) > 0.0);
    }

    #[test]
    fn flops_and_bytes_positive() {
        for op in [
            VendorOp::Dot { n: 1024 },
            VendorOp::Gemv { i: 64, k: 64 },
            VendorOp::BatchedGemm {
                b: 4,
                i: 8,
                j: 8,
                k: 8,
            },
        ] {
            assert!(op.flops() > 0.0);
            assert!(op.bytes() > 0.0);
        }
    }
}
