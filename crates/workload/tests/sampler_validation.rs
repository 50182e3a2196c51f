//! Statistical validation of the from-scratch samplers against their
//! theoretical CDFs with the Kolmogorov–Smirnov test — mirroring the
//! paper's §IV-D use of K-S goodness-of-fit for the workload models.

use elastisched_metrics::ks::ks_test_cdf;
use elastisched_metrics::special::{gamma_cdf, hyper_gamma_cdf};
use elastisched_workload::dist::{Exponential, Gamma, HyperGamma, Sample};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 4_000;
const ALPHA: f64 = 0.001; // conservative: only scream on gross mismatch

fn sample_n(dist: &impl Sample, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N).map(|_| dist.sample(&mut rng)).collect()
}

#[test]
fn gamma_sampler_matches_gamma_cdf_paper_runtime_params() {
    // Both runtime Gammas from the paper's Table I.
    for (a, b, seed) in [(4.2, 0.94, 1u64), (312.0, 0.03, 2)] {
        let xs = sample_n(&Gamma::new(a, b), seed);
        let r = ks_test_cdf(&xs, |x| gamma_cdf(a, b, x));
        assert!(
            !r.rejects_at(ALPHA),
            "Gamma({a},{b}) rejected: D={} p={}",
            r.statistic,
            r.p_value
        );
    }
}

#[test]
fn gamma_sampler_matches_gamma_cdf_arrival_params() {
    // The arrival Gammas from Table II, across the β_arr load range.
    for (a, b, seed) in [
        (13.2303, 0.4101, 3u64),
        (13.2303, 0.6101, 4),
        (15.1737, 0.9631, 5),
    ] {
        let xs = sample_n(&Gamma::new(a, b), seed);
        let r = ks_test_cdf(&xs, |x| gamma_cdf(a, b, x));
        assert!(!r.rejects_at(ALPHA), "Gamma({a},{b}) p={}", r.p_value);
    }
}

#[test]
fn gamma_sampler_shape_below_one() {
    let (a, b) = (0.35, 2.5);
    let xs = sample_n(&Gamma::new(a, b), 6);
    let r = ks_test_cdf(&xs, |x| gamma_cdf(a, b, x));
    assert!(!r.rejects_at(ALPHA), "p={}", r.p_value);
}

#[test]
fn hyper_gamma_sampler_matches_mixture_cdf() {
    for (p, seed) in [(0.78, 7u64), (0.3, 8), (0.0, 9), (1.0, 10)] {
        let hg = HyperGamma::new(Gamma::new(4.2, 0.94), Gamma::new(312.0, 0.03), p);
        let xs = sample_n(&hg, seed);
        let r = ks_test_cdf(&xs, |x| hyper_gamma_cdf(4.2, 0.94, 312.0, 0.03, p, x));
        assert!(!r.rejects_at(ALPHA), "p_mix={p}: p={}", r.p_value);
    }
}

#[test]
fn exponential_sampler_matches_cdf() {
    let mean = 1_800.0; // the dedicated-advance default
    let xs = sample_n(&Exponential::new(mean), 11);
    let r = ks_test_cdf(&xs, |x| 1.0 - (-x / mean).exp());
    assert!(!r.rejects_at(ALPHA), "p={}", r.p_value);
}

#[test]
fn wrong_parameters_are_rejected() {
    // Sanity: the K-S harness has power — a mis-parameterized CDF fails.
    let xs = sample_n(&Gamma::new(4.2, 0.94), 12);
    let r = ks_test_cdf(&xs, |x| gamma_cdf(4.2, 1.3, x));
    assert!(
        r.rejects_at(ALPHA),
        "should reject wrong scale, p={}",
        r.p_value
    );
}
