//! Kolmogorov–Smirnov tests.
//!
//! Lublin & Feitelson validate their workload models with the K-S
//! goodness-of-fit test (paper §IV-D); this module provides both the
//! one-sample test (empirical sample vs. a theoretical CDF) and the
//! two-sample test, implemented from scratch. The asymptotic p-value uses
//! the Kolmogorov distribution series
//! `Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} e^{-2k²λ²}`.

/// Result of a K-S test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The K-S statistic `D` (supremum CDF distance).
    pub statistic: f64,
    /// Asymptotic p-value (probability of observing `D` this large under
    /// the null hypothesis).
    pub p_value: f64,
}

impl KsResult {
    /// Reject the null hypothesis at significance `alpha`?
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Kolmogorov distribution tail `Q(λ)`.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        sum += if k % 2 == 1 { term } else { -term };
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// One-sample K-S test of `sample` against a theoretical CDF.
///
/// # Panics
/// If `sample` is empty or contains NaN.
pub fn ks_test_cdf(sample: &[f64], cdf: impl Fn(f64) -> f64) -> KsResult {
    assert!(!sample.is_empty(), "K-S test needs data");
    let mut xs: Vec<f64> = sample.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in K-S sample"));
    let n = xs.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let f = cdf(x).clamp(0.0, 1.0);
        let ecdf_hi = (i as f64 + 1.0) / n;
        let ecdf_lo = i as f64 / n;
        d = d.max((ecdf_hi - f).abs()).max((f - ecdf_lo).abs());
    }
    let lambda = (n.sqrt() + 0.12 + 0.11 / n.sqrt()) * d;
    KsResult {
        statistic: d,
        p_value: kolmogorov_q(lambda),
    }
}

/// Two-sample K-S test.
///
/// # Panics
/// If either sample is empty or contains NaN.
pub fn ks_test_two_sample(a: &[f64], b: &[f64]) -> KsResult {
    assert!(!a.is_empty() && !b.is_empty(), "K-S test needs data");
    let mut xs: Vec<f64> = a.to_vec();
    let mut ys: Vec<f64> = b.to_vec();
    xs.sort_by(|p, q| p.partial_cmp(q).expect("NaN in K-S sample"));
    ys.sort_by(|p, q| p.partial_cmp(q).expect("NaN in K-S sample"));
    let (n, m) = (xs.len(), ys.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < n && j < m {
        let x = xs[i];
        let y = ys[j];
        let v = x.min(y);
        while i < n && xs[i] <= v {
            i += 1;
        }
        while j < m && ys[j] <= v {
            j += 1;
        }
        let fa = i as f64 / n as f64;
        let fb = j as f64 / m as f64;
        d = d.max((fa - fb).abs());
    }
    let ne = (n * m) as f64 / (n + m) as f64;
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    KsResult {
        statistic: d,
        p_value: kolmogorov_q(lambda),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen::<f64>()).collect()
    }

    #[test]
    fn uniform_sample_passes_uniform_cdf() {
        let xs = uniform_sample(2_000, 1);
        let r = ks_test_cdf(&xs, |x| x.clamp(0.0, 1.0));
        assert!(
            !r.rejects_at(0.01),
            "uniform sample rejected: D={} p={}",
            r.statistic,
            r.p_value
        );
    }

    #[test]
    fn shifted_sample_fails_uniform_cdf() {
        let xs: Vec<f64> = uniform_sample(2_000, 2).iter().map(|x| x * 0.8).collect();
        let r = ks_test_cdf(&xs, |x| x.clamp(0.0, 1.0));
        assert!(
            r.rejects_at(0.01),
            "shifted sample accepted: p={}",
            r.p_value
        );
    }

    #[test]
    fn exponential_sample_passes_exponential_cdf() {
        let mut rng = StdRng::seed_from_u64(3);
        let mean = 5.0;
        let xs: Vec<f64> = (0..2_000)
            .map(|_| -mean * (1.0 - rng.gen::<f64>()).ln())
            .collect();
        let r = ks_test_cdf(&xs, |x| 1.0 - (-x / mean).exp());
        assert!(!r.rejects_at(0.01), "p={}", r.p_value);
        // And against the wrong mean it must fail.
        let r2 = ks_test_cdf(&xs, |x| 1.0 - (-x / (2.0 * mean)).exp());
        assert!(r2.rejects_at(0.01));
    }

    #[test]
    fn two_sample_same_distribution_passes() {
        let a = uniform_sample(1_500, 4);
        let b = uniform_sample(1_500, 5);
        let r = ks_test_two_sample(&a, &b);
        assert!(!r.rejects_at(0.01), "p={}", r.p_value);
    }

    #[test]
    fn two_sample_different_distributions_fail() {
        let a = uniform_sample(1_500, 6);
        let b: Vec<f64> = uniform_sample(1_500, 7).iter().map(|x| x * x).collect();
        let r = ks_test_two_sample(&a, &b);
        assert!(r.rejects_at(0.01), "p={}", r.p_value);
    }

    #[test]
    fn kolmogorov_q_boundaries() {
        assert_eq!(kolmogorov_q(0.0), 1.0);
        assert!(kolmogorov_q(3.0) < 1e-6);
        let q1 = kolmogorov_q(0.5);
        let q2 = kolmogorov_q(1.0);
        assert!(q1 > q2, "Q must be decreasing");
    }

    #[test]
    fn statistic_is_in_unit_interval() {
        let a = uniform_sample(100, 8);
        let r = ks_test_cdf(&a, |x| x.clamp(0.0, 1.0));
        assert!((0.0..=1.0).contains(&r.statistic));
        assert!((0.0..=1.0).contains(&r.p_value));
    }
}
