//! Random-variate samplers used by the workload models.
//!
//! The paper's generator (§IV-D) relies on Gamma, hyper-Gamma (a two
//! component Gamma mixture), exponential, and two-stage uniform
//! distributions. The approved dependency set does not include
//! `rand_distr`, so the samplers are implemented here from first
//! principles:
//!
//! * standard normal — Marsaglia's polar method;
//! * `Gamma(α, β)` — Marsaglia & Tsang's squeeze method (2000), with the
//!   `α < 1` boosting transform;
//! * `Exp(mean)` — inverse CDF;
//! * hyper-Gamma — mixture of two Gammas with mixing probability `p`.
//!
//! All samplers are validated by moment tests here and by the
//! Kolmogorov–Smirnov test in `elastisched-metrics`.

use rand::Rng;

/// A continuous distribution that can be sampled with any RNG.
pub trait Sample {
    /// Draw one variate.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Theoretical mean, if finite and known (used by tests and by load
    /// calibration heuristics).
    fn mean(&self) -> f64;
}

/// Standard normal variate via Marsaglia's polar method.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// The exponential distribution with the given mean (rate `1/mean`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Exponential with mean `mean > 0`.
    ///
    /// # Panics
    /// If `mean` is not strictly positive and finite.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential mean must be positive"
        );
        Exponential { mean }
    }
}

impl Sample for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen::<f64>() is in [0, 1); flip to (0, 1] to avoid ln(0).
        let u: f64 = 1.0 - rng.gen::<f64>();
        -self.mean * u.ln()
    }

    fn mean(&self) -> f64 {
        self.mean
    }
}

/// The Gamma distribution with shape `alpha` and scale `beta`
/// (mean `alpha * beta`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    alpha: f64,
    beta: f64,
}

impl Gamma {
    /// Gamma with shape `alpha > 0` and scale `beta > 0`.
    ///
    /// # Panics
    /// If either parameter is not strictly positive and finite.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "gamma shape must be positive"
        );
        assert!(
            beta > 0.0 && beta.is_finite(),
            "gamma scale must be positive"
        );
        Gamma { alpha, beta }
    }

    /// Shape parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Scale parameter β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Theoretical variance `α β²`.
    pub fn variance(&self) -> f64 {
        self.alpha * self.beta * self.beta
    }

    /// Marsaglia–Tsang sampler for shape ≥ 1 (unit scale).
    fn sample_unit_scale_ge1<R: Rng + ?Sized>(alpha: f64, rng: &mut R) -> f64 {
        debug_assert!(alpha >= 1.0);
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let t = 1.0 + c * x;
            if t <= 0.0 {
                continue;
            }
            let v = t * t * t;
            let u: f64 = rng.gen::<f64>();
            // Squeeze check first (cheap), then the full acceptance test.
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Sample for Gamma {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z = if self.alpha >= 1.0 {
            Gamma::sample_unit_scale_ge1(self.alpha, rng)
        } else {
            // Boost: Gamma(α) = Gamma(α+1) · U^(1/α) for α < 1.
            let g = Gamma::sample_unit_scale_ge1(self.alpha + 1.0, rng);
            let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
            g * u.powf(1.0 / self.alpha)
        };
        z * self.beta
    }

    fn mean(&self) -> f64 {
        self.alpha * self.beta
    }
}

/// A two-component Gamma mixture: with probability `p` sample the first
/// Gamma, otherwise the second. This is the "bimodal hyper-Gamma"
/// distribution of Lublin & Feitelson used for job runtimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperGamma {
    first: Gamma,
    second: Gamma,
    p: f64,
}

impl HyperGamma {
    /// Mixture of `first` (chosen with probability `p`) and `second`.
    ///
    /// # Panics
    /// If `p` is not in `[0, 1]`.
    pub fn new(first: Gamma, second: Gamma, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "mixture probability must be in [0,1]"
        );
        HyperGamma { first, second, p }
    }

    /// The mixing probability of the first component.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Replace the mixing probability (used for the size–runtime
    /// correlation `p = p_a · num + p_b`).
    pub fn with_p(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "mixture probability must be in [0,1]"
        );
        self.p = p;
        self
    }
}

impl Sample for HyperGamma {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if rng.gen::<f64>() < self.p {
            self.first.sample(rng)
        } else {
            self.second.sample(rng)
        }
    }

    fn mean(&self) -> f64 {
        self.p * self.first.mean() + (1.0 - self.p) * self.second.mean()
    }
}

/// Uniform over an inclusive integer range, as used by the paper's
/// two-stage uniform job-size model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformInt {
    lo: u32,
    hi: u32,
}

impl UniformInt {
    /// Uniform over `{lo, lo+1, …, hi}`.
    ///
    /// # Panics
    /// If `lo > hi`.
    pub fn new(lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "empty integer range");
        UniformInt { lo, hi }
    }

    /// Draw one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        rng.gen_range(self.lo..=self.hi)
    }

    /// Theoretical mean.
    pub fn mean(&self) -> f64 {
        (self.lo as f64 + self.hi as f64) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 200_000;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    fn sample_stats(dist: &impl Sample, n: usize) -> (f64, f64) {
        let mut r = rng();
        let xs: Vec<f64> = (0..n).map(|_| dist.sample(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var)
    }

    #[test]
    fn normal_has_zero_mean_unit_variance() {
        let mut r = rng();
        let xs: Vec<f64> = (0..N).map(|_| standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / N as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / N as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn exponential_moments() {
        let d = Exponential::new(42.0);
        let (mean, var) = sample_stats(&d, N);
        assert!((mean - 42.0).abs() / 42.0 < 0.02, "mean {mean}");
        assert!(
            (var - 42.0 * 42.0).abs() / (42.0 * 42.0) < 0.05,
            "var {var}"
        );
    }

    #[test]
    fn gamma_moments_large_shape() {
        // The paper's second runtime Gamma: α=312, β=0.03.
        let d = Gamma::new(312.0, 0.03);
        let (mean, var) = sample_stats(&d, N);
        assert!((mean - d.mean()).abs() / d.mean() < 0.01, "mean {mean}");
        assert!(
            (var - d.variance()).abs() / d.variance() < 0.05,
            "var {var}"
        );
    }

    #[test]
    fn gamma_moments_moderate_shape() {
        // The paper's first runtime Gamma: α=4.2, β=0.94.
        let d = Gamma::new(4.2, 0.94);
        let (mean, var) = sample_stats(&d, N);
        assert!((mean - d.mean()).abs() / d.mean() < 0.02, "mean {mean}");
        assert!(
            (var - d.variance()).abs() / d.variance() < 0.05,
            "var {var}"
        );
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        let d = Gamma::new(0.4, 2.0);
        let (mean, var) = sample_stats(&d, N);
        assert!((mean - d.mean()).abs() / d.mean() < 0.03, "mean {mean}");
        assert!(
            (var - d.variance()).abs() / d.variance() < 0.08,
            "var {var}"
        );
    }

    #[test]
    fn gamma_is_nonnegative() {
        let d = Gamma::new(0.7, 1.3);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn hypergamma_mixes_components() {
        let g1 = Gamma::new(4.2, 0.94); // mean ≈ 3.948
        let g2 = Gamma::new(312.0, 0.03); // mean = 9.36
        let d = HyperGamma::new(g1, g2, 0.7);
        let (mean, _) = sample_stats(&d, N);
        assert!((mean - d.mean()).abs() / d.mean() < 0.02, "mean {mean}");
    }

    #[test]
    fn hypergamma_extreme_p_degenerates() {
        let g1 = Gamma::new(2.0, 1.0);
        let g2 = Gamma::new(100.0, 1.0);
        let only_first = HyperGamma::new(g1, g2, 1.0);
        let only_second = HyperGamma::new(g1, g2, 0.0);
        let (m1, _) = sample_stats(&only_first, 20_000);
        let (m2, _) = sample_stats(&only_second, 20_000);
        assert!((m1 - 2.0).abs() < 0.2, "m1 {m1}");
        assert!((m2 - 100.0).abs() < 1.0, "m2 {m2}");
    }

    #[test]
    fn with_p_replaces_probability() {
        let g1 = Gamma::new(2.0, 1.0);
        let g2 = Gamma::new(3.0, 1.0);
        let d = HyperGamma::new(g1, g2, 0.2).with_p(0.9);
        assert!((d.p() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn uniform_int_covers_range() {
        let d = UniformInt::new(4, 10);
        let mut r = rng();
        let mut seen = [false; 11];
        for _ in 0..10_000 {
            let v = d.sample(&mut r);
            assert!((4..=10).contains(&v));
            seen[v as usize] = true;
        }
        assert!(seen[4..=10].iter().all(|&s| s));
        assert!((d.mean() - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn gamma_rejects_nonpositive_shape() {
        let _ = Gamma::new(0.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn hypergamma_rejects_bad_p() {
        let _ = HyperGamma::new(Gamma::new(1.0, 1.0), Gamma::new(1.0, 1.0), 1.5);
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_nonpositive_mean() {
        let _ = Exponential::new(-1.0);
    }
}
