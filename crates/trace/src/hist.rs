//! Streaming log-bucketed histograms (HDR-style, allocation-free).
//!
//! A [`LogHistogram`] is a fixed array of 65 power-of-two buckets:
//! bucket 0 counts exact zeros, bucket `b ≥ 1` counts values in
//! `[2^(b-1), 2^b)`. Recording is a `leading_zeros` and an increment —
//! no allocation, no branching beyond the zero check — so the engine can
//! stream per-cycle wall-clock spans into one on the hot path, and the
//! metrics layer can fold whole wait/slowdown distributions without
//! materializing them.
//!
//! Quantiles are estimated from bucket midpoints (the arithmetic middle
//! of the bucket range), giving ≤ ±50% relative error per value — the
//! usual log-bucket trade: exact enough to tell 1 ms from 10 ms, cheap
//! enough to never matter.

use serde::{Deserialize, Serialize};

/// Number of buckets: one for zero plus one per bit of a `u64`.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-size, allocation-free, log-bucketed histogram of `u64`
/// samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Per-bucket counts (see module docs for the bucket bounds).
    pub counts: [u64; HIST_BUCKETS],
    /// Total samples recorded.
    pub n: u64,
    /// Largest sample seen (0 when empty).
    pub max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: [0; HIST_BUCKETS],
            n: 0,
            max: 0,
        }
    }
}

/// Bucket index of a sample: 0 for 0, else `64 - leading_zeros`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Public bucket index of a sample, shared with the atomic registry
/// histograms in [`crate::metrics`] so both bucketizations stay
/// bit-identical (a merge between them must line up bucket-for-bucket).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    bucket_of(v)
}

/// Inclusive upper bound of a bucket, as used for Prometheus `le`
/// labels: bucket 0 holds only zeros (`le="0"`), bucket `b ≥ 1` holds
/// `[2^(b-1), 2^b)` whose largest integer is `2^b - 1`.
pub fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// Midpoint representative of a bucket, for quantile estimates.
fn bucket_mid(b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        // Bucket b covers [2^(b-1), 2^b): arithmetic middle 1.5 · 2^(b-1).
        1.5 * 2f64.powi(b as i32 - 1)
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    ///
    /// Counts saturate at `u64::MAX` rather than wrapping: a histogram
    /// that has been fed `u64::MAX` samples keeps reporting `u64::MAX`
    /// instead of silently restarting from zero (the counts are only
    /// ever used for quantile estimates, where "pinned at the ceiling"
    /// is the honest answer).
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        self.counts[b] = self.counts[b].saturating_add(1);
        self.n = self.n.saturating_add(1);
        if v > self.max {
            self.max = v;
        }
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`), from bucket midpoints
    /// capped at the exact recorded maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                return bucket_mid(b).min(self.max as f64);
            }
        }
        self.max as f64
    }

    /// Merge another histogram into this one. Saturating, commutative,
    /// and associative, so per-run histograms fold in any order.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.n = self.n.saturating_add(other.n);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn record_counts_and_max() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 1, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.n, 5);
        assert_eq!(h.max, 1000);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 2);
        assert_eq!(h.counts[3], 1); // 5 ∈ [4, 8)
        assert_eq!(h.counts[10], 1); // 1000 ∈ [512, 1024)
    }

    #[test]
    fn quantile_is_log_accurate() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        // True median 500; a log-bucket estimate must land in [256, 1024).
        assert!((256.0..1024.0).contains(&p50), "p50 = {p50}");
        // The minimum lands in bucket [1, 2), midpoint 1.5.
        let p0 = h.quantile(0.0);
        assert!((1.0..2.0).contains(&p0), "p0 = {p0}");
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(LogHistogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn merge_adds_distributions() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(3);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.n, 2);
        assert_eq!(a.max, 300);
    }

    #[test]
    fn empty_quantiles_are_zero_at_every_q() {
        let h = LogHistogram::new();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "q = {q}");
        }
        // Out-of-range q must clamp, not panic or index out of bounds.
        assert_eq!(h.quantile(-1.0), 0.0);
        assert_eq!(h.quantile(2.0), 0.0);
    }

    #[test]
    fn merge_of_disjoint_bucket_ranges_keeps_both_tails() {
        // a occupies only low buckets, b only high buckets; the merge
        // must preserve both ends of the distribution exactly.
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for _ in 0..100 {
            a.record(1); // bucket 1
        }
        for _ in 0..100 {
            b.record(1 << 40); // bucket 41
        }
        a.merge(&b);
        assert_eq!(a.n, 200);
        assert_eq!(a.counts[1], 100);
        assert_eq!(a.counts[41], 100);
        // Low half of the mass stays low, top of the mass lands high.
        assert!(a.quantile(0.25) < 4.0, "p25 = {}", a.quantile(0.25));
        assert!(a.quantile(0.99) > 1e12, "p99 = {}", a.quantile(0.99));
        assert_eq!(a.max, 1 << 40);
    }

    #[test]
    fn saturates_at_u64_max_instead_of_wrapping() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.counts[64], 1);
        // Force the counters to the ceiling and record again: no wrap.
        h.n = u64::MAX;
        h.counts[64] = u64::MAX;
        h.record(u64::MAX);
        assert_eq!(h.n, u64::MAX);
        assert_eq!(h.counts[64], u64::MAX);
        // Merging two saturated histograms also pins at the ceiling.
        let other = h;
        h.merge(&other);
        assert_eq!(h.n, u64::MAX);
        assert_eq!(h.counts[64], u64::MAX);
        // The p100 estimate stays finite and ≤ max.
        assert!(h.quantile(1.0) <= u64::MAX as f64);
    }

    #[test]
    fn snapshot_merge_is_associative() {
        let mk = |vals: &[u64]| {
            let mut h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[0, 1, 7]);
        let b = mk(&[1 << 20, 3]);
        let c = mk(&[u64::MAX, 42, 42]);

        // (a ⊔ b) ⊔ c
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        // a ⊔ (b ⊔ c)
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);

        assert_eq!(left, right);
        // And commutative for good measure: c ⊔ b ⊔ a.
        let mut rev = c;
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(left, rev);
    }

    #[test]
    fn bucket_upper_bounds_are_inclusive_maxima() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for b in 1..HIST_BUCKETS {
            let ub = bucket_upper_bound(b);
            assert_eq!(bucket_index(ub), b, "upper bound of bucket {b}");
            if ub < u64::MAX {
                assert_eq!(bucket_index(ub + 1), b + 1);
            }
        }
    }
}
