//! Fixed-bucket log-linear histogram of durations in nanoseconds.
//!
//! Values below [`SUB`] get a bucket each; above, every power of two is
//! split into [`SUB`] equal buckets, so a bucket's width is at most 1/[`SUB`]
//! of its lower bound and a percentile read from the bucket midpoint is
//! within 1/(2·[`SUB`]) of the exact order statistic.  The bucket array is
//! allocated once, so recording never allocates.

/// Linear sub-buckets per power of two (a power of two itself).
pub const SUB: u64 = 8;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Buckets covering the whole `u64` range.
pub const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

/// Bucket index of `v`.
pub fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    (SUB * u64::from(shift + 1) + sub) as usize
}

/// Inclusive value range `[lo, hi]` of bucket `i`.
pub fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i);
    }
    let shift = i / SUB - 1;
    let sub = i % SUB;
    let lo = (SUB + sub) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the midpoint of the bucket that
    /// holds the ⌈q·n⌉-th smallest value; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_range(i);
                return (lo as f64 + hi as f64) / 2.0;
            }
        }
        unreachable!("rank ≤ total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(
                lo,
                next,
                "bucket {i} starts where {} ended",
                i.saturating_sub(1)
            );
            assert_eq!(bucket(lo), i);
            assert_eq!(bucket(hi), i);
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn bucket_width_is_bounded_relative_to_its_values() {
        for i in SUB as usize..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert!((hi - lo) as f64 <= lo as f64 / SUB as f64, "bucket {i}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in [3, 1, 2, 7, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 7.0);
        assert_eq!(h.quantile(0.01), 1.0);
    }

    #[test]
    fn quantiles_match_exact_order_statistics_within_bucket_error() {
        // 1..=10_000 ns: the exact q-quantile is ⌈q·n⌉.
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let exact = (q * 10_000.0_f64).ceil();
            let got = h.quantile(q);
            let tolerance = exact / (2 * SUB) as f64 + 0.5;
            assert!((got - exact).abs() <= tolerance, "q={q}: {got} vs {exact}");
        }
    }

    #[test]
    fn a_skewed_tail_shows_in_p99_not_p50() {
        let mut h = Histogram::default();
        for _ in 0..990 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let (lo, hi) = bucket_range(bucket(100));
        assert!((lo as f64..=hi as f64).contains(&h.quantile(0.5)));
        assert!((lo as f64..=hi as f64).contains(&h.quantile(0.99)));
        let (lo, hi) = bucket_range(bucket(1_000_000));
        assert!((lo as f64..=hi as f64).contains(&h.quantile(0.995)));
    }

    #[test]
    fn empty_histogram_reads_zero() {
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }
}
