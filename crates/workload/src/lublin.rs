//! The Lublin–Feitelson analytical workload model (paper §IV-D, ref \[17\]).
//!
//! Lublin & Feitelson fit distributions to real supercomputer logs and
//! found that job runtimes and inter-arrival times are well modelled in
//! **log₂ space**: a variate `X` drawn from a (hyper-)Gamma gives the
//! actual value `2^X` seconds. This module implements:
//!
//! * the **runtime model** — a bimodal hyper-Gamma whose mixing
//!   probability is correlated with job size via `p = p_a · num + p_b`
//!   (clamped to `[0, 1]`), with the paper's Table I parameters as
//!   defaults;
//! * the **arrival model** — Gamma-distributed log₂ inter-arrival times
//!   (Table II) with an optional daily rush-hour cycle controlled by the
//!   *Arrive Rush-to-All Ratio* (ARAR) and hour-to-hour burstiness from
//!   the `(α_num, β_num)` Gamma.

use crate::dist::{Gamma, HyperGamma, Sample};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Runtime-model parameters (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeParams {
    /// Shape of the first (short-job) Gamma in log₂ space.
    pub alpha1: f64,
    /// Scale of the first Gamma.
    pub beta1: f64,
    /// Shape of the second (long-job) Gamma.
    pub alpha2: f64,
    /// Scale of the second Gamma.
    pub beta2: f64,
    /// Slope of the size–runtime correlation `p = p_a · num + p_b`.
    pub pa: f64,
    /// Intercept of the correlation.
    pub pb: f64,
    /// Hard cap on generated runtimes, in seconds (Lublin's generator
    /// caps runtimes at the trace horizon; we default to 2¹⁶ s ≈ 18 h).
    pub max_runtime_secs: u64,
    /// Floor on generated runtimes, in seconds.
    pub min_runtime_secs: u64,
}

impl Default for RuntimeParams {
    /// The paper's Table I values.
    fn default() -> Self {
        RuntimeParams {
            alpha1: 4.2,
            beta1: 0.94,
            alpha2: 312.0,
            beta2: 0.03,
            pa: -0.0054,
            pb: 0.78,
            max_runtime_secs: 1 << 16,
            min_runtime_secs: 1,
        }
    }
}

/// Samples job runtimes correlated with job size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeModel {
    params: RuntimeParams,
    first: Gamma,
    second: Gamma,
}

impl RuntimeModel {
    /// Build from parameters.
    pub fn new(params: RuntimeParams) -> Self {
        RuntimeModel {
            params,
            first: Gamma::new(params.alpha1, params.beta1),
            second: Gamma::new(params.alpha2, params.beta2),
        }
    }

    /// The paper's default model.
    pub fn paper_default() -> Self {
        RuntimeModel::new(RuntimeParams::default())
    }

    /// The mixing probability for a job of `num` processors:
    /// `clamp(p_a · num + p_b, 0, 1)`. With the paper's parameters this
    /// makes large jobs overwhelmingly sample the long-runtime Gamma.
    pub fn mixing_probability(&self, num: u32) -> f64 {
        (self.params.pa * num as f64 + self.params.pb).clamp(0.0, 1.0)
    }

    /// Draw a runtime (seconds) for a job of `num` processors.
    pub fn sample_runtime<R: Rng + ?Sized>(&self, num: u32, rng: &mut R) -> u64 {
        let p = self.mixing_probability(num);
        let hg = HyperGamma::new(self.first, self.second, p);
        let log2_runtime = hg.sample(rng);
        let secs = 2f64.powf(log2_runtime);
        let capped = secs.clamp(
            self.params.min_runtime_secs as f64,
            self.params.max_runtime_secs as f64,
        );
        capped.round() as u64
    }

    /// Access the parameters.
    pub fn params(&self) -> &RuntimeParams {
        &self.params
    }
}

/// Arrival-model parameters (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalParams {
    /// Shape of the log₂ inter-arrival Gamma.
    pub alpha_arr: f64,
    /// Scale of the log₂ inter-arrival Gamma. The paper varies this in
    /// `[0.4101, 0.6101]` to vary offered load.
    pub beta_arr: f64,
    /// Shape of the jobs-per-hour burstiness Gamma.
    pub alpha_num: f64,
    /// Scale of the jobs-per-hour burstiness Gamma.
    pub beta_num: f64,
    /// Arrive Rush-to-All Ratio: arrival rate multiplier during rush
    /// hours relative to the overall rate.
    pub arar: f64,
    /// Inclusive rush-hour window `[start, end)` in hours-of-day.
    pub rush_hours: (u32, u32),
    /// Enable the per-hour burstiness modulation drawn from
    /// `(α_num, β_num)`; when disabled inter-arrivals are i.i.d.
    pub hourly_burstiness: bool,
    /// Optional full diurnal cycle: 24 relative arrival-rate weights,
    /// one per hour of day. When set, this replaces the binary
    /// rush-window/ARAR modulation (weights are normalized to mean 1 so
    /// the long-run rate is preserved).
    pub hourly_weights: Option<[f64; 24]>,
}

impl Default for ArrivalParams {
    /// The paper's Table II values, mid-range β_arr.
    fn default() -> Self {
        ArrivalParams {
            alpha_arr: 13.2303,
            beta_arr: 0.5101,
            alpha_num: 15.1737,
            beta_num: 0.9631,
            arar: 1.0225,
            rush_hours: (8, 18),
            hourly_burstiness: true,
            hourly_weights: None,
        }
    }
}

impl ArrivalParams {
    /// Same parameters with a different `β_arr` (the load knob).
    pub fn with_beta_arr(mut self, beta_arr: f64) -> Self {
        self.beta_arr = beta_arr;
        self
    }

    /// A plausible supercomputer diurnal cycle fitted after Lublin &
    /// Feitelson's Fig. 3 shape: a deep overnight trough, a steep morning
    /// ramp, a broad afternoon peak, and an evening decline.
    pub fn with_diurnal_cycle(mut self) -> Self {
        let weights = [
            0.45, 0.35, 0.30, 0.28, 0.28, 0.32, // 00-05
            0.45, 0.70, 1.05, 1.35, 1.55, 1.65, // 06-11
            1.60, 1.55, 1.60, 1.65, 1.60, 1.45, // 12-17
            1.25, 1.05, 0.90, 0.75, 0.65, 0.55, // 18-23
        ];
        self.hourly_weights = Some(weights);
        self
    }
}

/// Generates a monotone stream of arrival times.
#[derive(Debug, Clone)]
pub struct ArrivalModel {
    params: ArrivalParams,
    interarrival: Gamma,
    burst: Gamma,
    /// Current absolute time in seconds.
    now: f64,
    /// Multiplier applied to the current hour's inter-arrival times.
    current_hour: u64,
    current_hour_factor: f64,
}

impl ArrivalModel {
    /// Build from parameters, starting at time zero.
    pub fn new(params: ArrivalParams) -> Self {
        ArrivalModel {
            params,
            interarrival: Gamma::new(params.alpha_arr, params.beta_arr),
            burst: Gamma::new(params.alpha_num, params.beta_num),
            now: 0.0,
            current_hour: u64::MAX,
            current_hour_factor: 1.0,
        }
    }

    /// The paper's default model.
    pub fn paper_default() -> Self {
        ArrivalModel::new(ArrivalParams::default())
    }

    /// Whether `hour_of_day` falls in the rush window.
    fn is_rush_hour(&self, hour_of_day: u64) -> bool {
        let (s, e) = self.params.rush_hours;
        (u64::from(s)..u64::from(e)).contains(&hour_of_day)
    }

    fn refresh_hour_factor<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let hour = self.now as u64 / 3600;
        if hour == self.current_hour {
            return;
        }
        self.current_hour = hour;
        let mut factor = 1.0;
        if self.params.hourly_burstiness {
            // Normalised hour-to-hour variability: Gamma / E[Gamma] has
            // mean 1, so the long-run rate is preserved.
            let g = self.burst.sample(rng);
            let norm = g / self.burst.mean();
            // Bound the factor to keep pathological draws from stalling
            // the stream.
            factor = norm.clamp(0.25, 4.0);
        }
        if let Some(weights) = self.params.hourly_weights {
            let sum: f64 = weights.iter().sum();
            factor *= weights[(hour % 24) as usize] * 24.0 / sum;
        } else if self.is_rush_hour(hour % 24) {
            factor *= self.params.arar;
        }
        // Higher factor == higher arrival rate == shorter gaps.
        self.current_hour_factor = factor;
    }

    /// Draw the next arrival time (seconds). Strictly non-decreasing.
    pub fn next_arrival<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        self.refresh_hour_factor(rng);
        let log2_gap = self.interarrival.sample(rng);
        let gap = 2f64.powf(log2_gap) / self.current_hour_factor;
        // Cap single gaps at a week to keep horizons sane even for
        // extreme parameter choices.
        self.now += gap.clamp(1.0, 7.0 * 86_400.0);
        self.now as u64
    }

    /// Access the parameters.
    pub fn params(&self) -> &ArrivalParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn mixing_probability_clamps() {
        let m = RuntimeModel::paper_default();
        // Small jobs: p = -0.0054*32 + 0.78 ≈ 0.607.
        assert!((m.mixing_probability(32) - 0.6072).abs() < 1e-9);
        // The paper's largest job: p would be negative, clamped to 0.
        assert_eq!(m.mixing_probability(320), 0.0);
        assert_eq!(m.mixing_probability(0), 0.78);
    }

    #[test]
    fn runtimes_respect_bounds() {
        let m = RuntimeModel::paper_default();
        let mut r = rng();
        for num in [32, 160, 320] {
            for _ in 0..5_000 {
                let rt = m.sample_runtime(num, &mut r);
                assert!((1..=1 << 16).contains(&rt), "runtime {rt} out of bounds");
            }
        }
    }

    #[test]
    fn large_jobs_run_longer_on_average() {
        // The size–runtime correlation: mean runtime of 320-proc jobs
        // must exceed mean runtime of 32-proc jobs.
        let m = RuntimeModel::paper_default();
        let mut r = rng();
        let mean = |num: u32, r: &mut StdRng| -> f64 {
            (0..20_000)
                .map(|_| m.sample_runtime(num, r) as f64)
                .sum::<f64>()
                / 20_000.0
        };
        let small = mean(32, &mut r);
        let large = mean(320, &mut r);
        assert!(
            large > small * 2.0,
            "expected strong correlation, got small={small:.0}s large={large:.0}s"
        );
    }

    #[test]
    fn short_mode_and_long_mode_both_present_for_small_jobs() {
        let m = RuntimeModel::paper_default();
        let mut r = rng();
        let samples: Vec<u64> = (0..20_000).map(|_| m.sample_runtime(32, &mut r)).collect();
        let short = samples.iter().filter(|&&s| s < 120).count();
        let long = samples.iter().filter(|&&s| s > 300).count();
        assert!(short > 1_000, "short mode missing ({short})");
        assert!(long > 1_000, "long mode missing ({long})");
    }

    #[test]
    fn arrivals_are_monotone_nondecreasing() {
        let mut m = ArrivalModel::paper_default();
        let mut r = rng();
        let mut prev = 0;
        for _ in 0..5_000 {
            let t = m.next_arrival(&mut r);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn smaller_beta_arr_means_higher_rate() {
        let mut r1 = rng();
        let mut r2 = rng();
        let mut fast = ArrivalModel::new(ArrivalParams::default().with_beta_arr(0.4101));
        let mut slow = ArrivalModel::new(ArrivalParams::default().with_beta_arr(0.6101));
        let n = 2_000;
        let mut t_fast = 0;
        let mut t_slow = 0;
        for _ in 0..n {
            t_fast = fast.next_arrival(&mut r1);
            t_slow = slow.next_arrival(&mut r2);
        }
        assert!(
            t_fast < t_slow,
            "β_arr=0.4101 horizon {t_fast} should be shorter than β_arr=0.6101 horizon {t_slow}"
        );
    }

    #[test]
    fn rush_hours_membership() {
        let m = ArrivalModel::paper_default();
        assert!(m.is_rush_hour(8));
        assert!(m.is_rush_hour(17));
        assert!(!m.is_rush_hour(18));
        assert!(!m.is_rush_hour(3));
    }

    #[test]
    fn diurnal_cycle_shifts_density_to_daytime() {
        let params = ArrivalParams {
            hourly_burstiness: false,
            ..ArrivalParams::default()
        }
        .with_diurnal_cycle();
        let mut m = ArrivalModel::new(params);
        let mut r = rng();
        let mut day_count = 0u32;
        let mut night_count = 0u32;
        for _ in 0..30_000 {
            let t = m.next_arrival(&mut r);
            let hour = (t / 3600) % 24;
            if (9..=17).contains(&hour) {
                day_count += 1;
            } else if !(6..=20).contains(&hour) {
                night_count += 1;
            }
        }
        // 9 daytime hours vs 9 deep-night hours: the cycle must tilt the
        // per-hour density clearly toward daytime.
        let day_rate = f64::from(day_count) / 9.0;
        let night_rate = f64::from(night_count) / 9.0;
        assert!(
            day_rate > 1.5 * night_rate,
            "day {day_rate:.1}/h vs night {night_rate:.1}/h"
        );
    }

    #[test]
    fn diurnal_cycle_preserves_long_run_rate() {
        let flat = ArrivalParams {
            hourly_burstiness: false,
            arar: 1.0,
            ..ArrivalParams::default()
        };
        let cyclic = flat.with_diurnal_cycle();
        let mut m1 = ArrivalModel::new(flat);
        let mut m2 = ArrivalModel::new(cyclic);
        let mut r1 = rng();
        let mut r2 = rng();
        let n = 20_000;
        let mut end1 = 0;
        let mut end2 = 0;
        for _ in 0..n {
            end1 = m1.next_arrival(&mut r1);
            end2 = m2.next_arrival(&mut r2);
        }
        let ratio = end2 as f64 / end1 as f64;
        assert!(
            (0.6..1.7).contains(&ratio),
            "diurnal cycle distorted the long-run rate by {ratio}"
        );
    }

    #[test]
    fn burstiness_preserves_long_run_rate_roughly() {
        // With and without burstiness the mean inter-arrival should agree
        // within a factor comfortably below the clamp bounds.
        let mut with = ArrivalModel::new(ArrivalParams {
            hourly_burstiness: true,
            arar: 1.0,
            ..ArrivalParams::default()
        });
        let mut without = ArrivalModel::new(ArrivalParams {
            hourly_burstiness: false,
            arar: 1.0,
            ..ArrivalParams::default()
        });
        let mut r1 = rng();
        let mut r2 = rng();
        let n = 20_000;
        let mut last_w = 0;
        let mut last_wo = 0;
        for _ in 0..n {
            last_w = with.next_arrival(&mut r1);
            last_wo = without.next_arrival(&mut r2);
        }
        let ratio = last_w as f64 / last_wo as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "burstiness distorted the rate by {ratio}"
        );
    }
}
