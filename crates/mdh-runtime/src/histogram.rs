//! A fixed-size latency histogram (DESIGN.md §6 "Stats").

/// Sub-buckets per power of two: a bucket is at most 1/16 = 6.25 % wide
/// relative to its lower bound.
const SUB_BITS: u32 = 4;
/// Samples of 2^40 ns (≈ 18 min) and beyond share the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

/// Fixed-size log-linear histogram of durations in integer nanoseconds.
///
/// Values below 32 ns are exact; above, every power of two is cut into
/// 16 equal buckets, so a percentile is off by at most one bucket width
/// (≤ 6.25 %). The count and the sum are exact. Memory does not depend
/// on the number of samples and recording is O(1). Everything is
/// cumulative since start; a window is two snapshots subtracted.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u128,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl Histogram {
    /// Bucket `16·shift + (ns >> shift)`, the shift chosen so that the
    /// second term keeps the top five bits of `ns`.
    fn bucket_of(ns: u64) -> usize {
        let ns = ns.min((1 << MAX_EXP) - 1);
        let shift = (ns | 1).ilog2().saturating_sub(SUB_BITS);
        ((shift as usize) << SUB_BITS) + (ns >> shift) as usize
    }

    /// Midpoint of bucket `i` (the value itself where buckets are 1 ns).
    fn value_of(i: usize) -> u64 {
        let shift = (i >> SUB_BITS).saturating_sub(1);
        ((i - (shift << SUB_BITS)) << shift) as u64 + (1 << shift) / 2
    }

    /// Record one duration given in milliseconds, rounded to the
    /// nanosecond. Non-finite and negative samples are dropped.
    pub fn record_ms(&mut self, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        let ns = (ms * 1e6).round() as u64;
        self.buckets[Histogram::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean over every sample, in nanoseconds; 0.0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.count as f64
    }

    /// Nearest-rank `p`-th percentile in nanoseconds, to within one
    /// bucket; 0.0 when empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut seen = 0;
        let at = self.buckets.iter().position(|&n| {
            seen += n;
            seen >= rank
        });
        at.map_or(0.0, |i| Histogram::value_of(i) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The count and mean are the raw samples' exactly, and the
        /// percentiles sit within one bucket of theirs.
        #[test]
        fn percentiles_sit_within_one_bucket_of_the_samples(
            samples in prop::collection::vec((0u32..38, 0.0f64..1.0), 1..300),
        ) {
            let ms = samples.iter().map(|&(e, f)| (1u64 << e) as f64 * (1.0 + f) / 1e6);
            let ms: Vec<f64> = ms.collect();
            let mut raw: Vec<u64> = ms.iter().map(|x| (x * 1e6).round() as u64).collect();
            raw.sort_unstable();
            let mut h = Histogram::default();
            ms.iter().for_each(|&x| h.record_ms(x));
            for junk in [f64::NAN, f64::INFINITY, -1.0] {
                h.record_ms(junk);
            }
            prop_assert_eq!(h.count(), raw.len() as u64);
            let mean = raw.iter().sum::<u64>() as f64 / raw.len() as f64;
            prop_assert!((h.mean_ns() - mean).abs() <= mean * 1e-12);
            for p in [50.0, 99.0] {
                let rank = (p / 100.0 * raw.len() as f64).ceil() as usize;
                let exact = raw[rank.clamp(1, raw.len()) - 1] as f64;
                let got = h.percentile_ns(p);
                prop_assert!((got - exact).abs() <= exact / 16.0, "p{p} {got} {exact}");
            }
        }
    }

    #[test]
    fn size_is_fixed_and_small_values_are_exact() {
        assert!(std::mem::size_of::<Histogram>() < 5 * 1024);
        let mut h = Histogram::default();
        assert_eq!(
            (h.percentile_ns(50.0), h.mean_ns(), h.count()),
            (0.0, 0.0, 0)
        );
        (1..=15).for_each(|ns| h.record_ms(ns as f64 / 1e6));
        assert_eq!((h.percentile_ns(50.0), h.percentile_ns(99.0)), (8.0, 15.0));
        assert_eq!(h.mean_ns(), 8.0);
        // every bucket's value falls back into that bucket, in order
        let values: Vec<u64> = (0..BUCKETS).map(Histogram::value_of).collect();
        assert!(values.windows(2).all(|w| w[0] < w[1]));
        assert!((0..BUCKETS).all(|i| Histogram::bucket_of(values[i]) == i));
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }
}
