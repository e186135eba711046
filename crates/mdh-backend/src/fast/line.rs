//! The fixed-width vector accumulator the fast-path kernels fold through.
//!
//! A [`Line`] is eight f64 lanes. Crucially, each lane is an *independent*
//! output accumulator (the lanes index eight adjacent points of the last
//! preserved dimension, or of the blocked contraction's lane group), never
//! a partial split of one reduction: a single reduction chain always lives
//! entirely inside one lane, folded strictly sequentially. That is what
//! makes the SIMD width a pure instruction-selection choice — 8 lanes, 4
//! lanes, or scalar code all produce the same bits, because no
//! floating-point fold order depends on the width.

/// Number of f64 lanes in a [`Line`].
pub const LANES: usize = 8;

/// An 8-lane f64 accumulator. General arithmetic ([`Line::set_mul`],
/// [`Line::acc_mul`]) is ordinary two-rounding f64 multiply followed by
/// f64 add, so the per-lane result bits match the VM interpreter's `Mul`
/// then `Add` instruction pair exactly. A fused multiply-add is allowed
/// in exactly one place — [`Line::acc_fma_exact`] — and only under a
/// precondition that makes fusing bitwise *unobservable* (see its docs).
///
/// The 64-byte alignment makes a `Line` exactly one cache line and lets
/// the vector paths use aligned full-width loads.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub struct Line(pub [f64; LANES]);

impl Line {
    #[inline]
    pub fn zero() -> Line {
        Line([0.0; LANES])
    }

    /// Copy-initialise every lane to `a * b[l]`. This is the VM's
    /// first-element rule: the accumulator *becomes* the first value
    /// (`acc = x`), it is not seeded with `0 + x` — the distinction is
    /// bitwise observable for signed zeros.
    ///
    /// This and [`Line::acc_mul`] have two arms: one 512-bit operation
    /// on AVX-512 hosts, and a portable loop elsewhere. On AVX-512 LLVM
    /// still splits the portable loop into two 256-bit halves, and in an
    /// 8 × 16 register tile of those halves the accumulators spill. There
    /// is no fused middle arm as in [`Line::acc_fma_exact`]: these two
    /// operations must round the product.
    #[inline]
    pub fn set_mul(&mut self, a: f64, b: &Line) {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        unsafe {
            use core::arch::x86_64::*;
            // `repr(align(64))` guarantees both pointers are 64-aligned
            let r = _mm512_mul_pd(_mm512_set1_pd(a), _mm512_load_pd(b.0.as_ptr()));
            _mm512_store_pd(self.0.as_mut_ptr(), r);
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
        for l in 0..LANES {
            self.0[l] = a * b.0[l];
        }
    }

    /// `self[l] += a * b[l]` as two separately rounded f64 operations,
    /// never fused: the VM's `Mul` then `Add` on factors whose product
    /// may round.
    #[inline]
    pub fn acc_mul(&mut self, a: f64, b: &Line) {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        unsafe {
            use core::arch::x86_64::*;
            let p = _mm512_mul_pd(_mm512_set1_pd(a), _mm512_load_pd(b.0.as_ptr()));
            let r = _mm512_add_pd(_mm512_load_pd(self.0.as_ptr()), p);
            _mm512_store_pd(self.0.as_mut_ptr(), r);
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
        for l in 0..LANES {
            self.0[l] += a * b.0[l];
        }
    }

    /// `self[l] += a * b[l]`, allowed to fuse into one rounding.
    ///
    /// Precondition: every product `a * b[l]` must be exactly
    /// representable in f64. The contraction kernels satisfy this by
    /// construction — both factors are exact `f32 as f64` widenings, so
    /// each product carries at most 24 + 24 = 48 significand bits, well
    /// inside f64's 53. Under that precondition the two-rounding
    /// `round(round(a*b) + acc)` and the fused `round(a*b + acc)`
    /// coincide bit for bit (the inner rounding is the identity), so
    /// fusing is a pure throughput upgrade, not a semantics change. Do
    /// NOT call this with arbitrary f64 factors (e.g. the map path's
    /// stencil weights): there the product rounds and fusing would
    /// diverge from the VM.
    #[inline]
    pub fn acc_fma_exact(&mut self, a: f64, b: &Line) {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        unsafe {
            use core::arch::x86_64::*;
            // `repr(align(64))` guarantees both pointers are 64-aligned
            let acc = _mm512_load_pd(self.0.as_ptr());
            let bv = _mm512_load_pd(b.0.as_ptr());
            let r = _mm512_fmadd_pd(_mm512_set1_pd(a), bv, acc);
            _mm512_store_pd(self.0.as_mut_ptr(), r);
        }
        #[cfg(all(
            not(all(target_arch = "x86_64", target_feature = "avx512f")),
            target_feature = "fma"
        ))]
        for l in 0..LANES {
            self.0[l] = a.mul_add(b.0[l], self.0[l]);
        }
        #[cfg(not(any(
            all(target_arch = "x86_64", target_feature = "avx512f"),
            target_feature = "fma"
        )))]
        for l in 0..LANES {
            // no hardware FMA: the separately rounded form is bit-equal
            // under the exactness precondition and avoids a libm call
            self.0[l] += a * b.0[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_then_acc_matches_scalar_chain() {
        let mut acc = Line::zero();
        let b0 = Line([1.5; LANES]);
        let b1 = Line([2.25; LANES]);
        acc.set_mul(0.3, &b0);
        acc.acc_mul(0.7, &b1);
        let expected = 0.3f64 * 1.5 + 0.7 * 2.25;
        for l in 0..LANES {
            assert_eq!(acc.0[l].to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn acc_mul_rounds_the_product_before_the_add() {
        // (1 + 2⁻³⁰)² = 1 + 2⁻²⁹ + 2⁻⁶⁰ rounds to 1 + 2⁻²⁹; a fused
        // accumulate onto -1 would keep the 2⁻⁶⁰
        let x = 1.0 + 2f64.powi(-30);
        let mut acc = Line([-1.0; LANES]);
        acc.acc_mul(x, &Line([x; LANES]));
        assert!(acc.0.iter().all(|&v| v == 2f64.powi(-29)), "{:?}", acc.0);
        let mut set = Line::zero();
        set.set_mul(x, &Line([x; LANES]));
        assert!(set.0.iter().all(|&v| v == 1.0 + 2f64.powi(-29)));
    }

    #[test]
    fn fma_matches_two_rounding_on_widened_f32() {
        // long alternating-sign chains of exact f32 widenings: the fused
        // and two-rounding folds must agree bit for bit on every lane
        let mut plain = Line::zero();
        let mut fused = Line::zero();
        for i in 0..10_000u32 {
            let a = ((i as f32) * 0.013_f32).sin() as f64;
            let mut b = Line::zero();
            for l in 0..LANES {
                b.0[l] = (((i * 8 + l as u32) as f32) * 0.017_f32).cos() as f64;
            }
            if i == 0 {
                plain.set_mul(a, &b);
                fused.set_mul(a, &b);
            } else {
                plain.acc_mul(a, &b);
                fused.acc_fma_exact(a, &b);
            }
        }
        for l in 0..LANES {
            assert_eq!(plain.0[l].to_bits(), fused.0[l].to_bits(), "lane {l}");
        }
    }

    #[test]
    fn set_mul_preserves_signed_zero() {
        // copy-init must yield -0.0 where 0 + (-0.0) would yield +0.0
        let mut acc = Line([f64::NAN; LANES]);
        let b = Line([-0.0; LANES]);
        acc.set_mul(1.0, &b);
        assert_eq!(acc.0[0].to_bits(), (-0.0f64).to_bits());
    }
}
