//! Workload characterization.
//!
//! Summaries of a workload's shape — size histogram, runtime
//! distribution, inter-arrival statistics, small-job fraction, squashed
//! area — in the spirit of Lublin & Feitelson's "inherent characteristics
//! of real workloads" (degree of parallelism, runtime model, correlation
//! between parallelism and runtime, arrival process).

use crate::set::Workload;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A histogram over fixed buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive lower edge of each bucket.
    pub edges: Vec<f64>,
    /// Counts per bucket (same length as `edges`; the last bucket is
    /// open-ended).
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Build from values with explicit ascending bucket edges.
    pub fn new(edges: Vec<f64>, values: impl IntoIterator<Item = f64>) -> Histogram {
        assert!(!edges.is_empty(), "need at least one bucket");
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]));
        let mut counts = vec![0u64; edges.len()];
        for v in values {
            // Last edge ≤ v → last bucket; below first edge → first.
            let idx = edges.iter().rposition(|&e| v >= e).unwrap_or_default();
            counts[idx] += 1;
        }
        Histogram { edges, counts }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of observations in bucket `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.counts[i] as f64 / t as f64
        }
    }
}

/// The characterization of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Characterization {
    /// Number of jobs.
    pub jobs: usize,
    /// Fraction of jobs with ≤ 96 processors (the paper's "small").
    pub small_fraction: f64,
    /// Mean size in processors (`n̄`).
    pub mean_size: f64,
    /// Mean runtime in seconds.
    pub mean_runtime: f64,
    /// Median runtime in seconds.
    pub median_runtime: f64,
    /// Mean inter-arrival gap in seconds.
    pub mean_interarrival: f64,
    /// Total work in processor-seconds ("squashed area").
    pub squashed_area: f64,
    /// Pearson correlation between size and runtime (the Lublin model
    /// builds this in via `p = p_a·num + p_b`).
    pub size_runtime_correlation: f64,
    /// Size histogram over the BlueGene/P unit grid.
    pub size_histogram: Histogram,
    /// Runtime histogram over powers-of-4 seconds.
    pub runtime_histogram: Histogram,
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Characterize a workload.
pub fn characterize(w: &Workload) -> Characterization {
    let sizes: Vec<f64> = w.jobs.iter().map(|j| j.num as f64).collect();
    let runtimes: Vec<f64> = w.jobs.iter().map(|j| j.actual.as_secs_f64()).collect();
    let small = w.jobs.iter().filter(|j| j.num <= 96).count();
    let gaps: Vec<f64> = w
        .jobs
        .windows(2)
        .map(|p| (p[1].submit.as_secs() - p[0].submit.as_secs()) as f64)
        .collect();
    let mut sorted_rt = runtimes.clone();
    sorted_rt.sort_by(|a, b| a.partial_cmp(b).expect("finite runtimes"));
    let median_runtime = if sorted_rt.is_empty() {
        0.0
    } else {
        sorted_rt[sorted_rt.len() / 2]
    };
    Characterization {
        jobs: w.len(),
        small_fraction: if w.is_empty() {
            0.0
        } else {
            small as f64 / w.len() as f64
        },
        mean_size: w.mean_size(),
        mean_runtime: w.mean_runtime(),
        median_runtime,
        mean_interarrival: if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        },
        squashed_area: w
            .jobs
            .iter()
            .map(|j| j.num as f64 * j.actual.as_secs_f64())
            .sum(),
        size_runtime_correlation: pearson(&sizes, &runtimes),
        size_histogram: Histogram::new(
            (1..=10).map(|u| (u * 32) as f64).collect(),
            sizes.iter().copied(),
        ),
        runtime_histogram: Histogram::new(
            (0..9).map(|e| 4f64.powi(e)).collect(),
            runtimes.iter().copied(),
        ),
    }
}

/// Human-readable report.
pub fn characterization_to_text(c: &Characterization) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "jobs:                   {}", c.jobs);
    let _ = writeln!(out, "small fraction (≤96p):  {:.3}", c.small_fraction);
    let _ = writeln!(out, "mean size:              {:.1} procs", c.mean_size);
    let _ = writeln!(
        out,
        "runtime mean/median:    {:.0}s / {:.0}s",
        c.mean_runtime, c.median_runtime
    );
    let _ = writeln!(out, "mean inter-arrival:     {:.1}s", c.mean_interarrival);
    let _ = writeln!(
        out,
        "squashed area:          {:.3e} proc·s",
        c.squashed_area
    );
    let _ = writeln!(
        out,
        "size↔runtime corr:      {:+.3}",
        c.size_runtime_correlation
    );
    let _ = writeln!(out, "size histogram (procs → share):");
    for (i, &edge) in c.size_histogram.edges.iter().enumerate() {
        let frac = c.size_histogram.fraction(i);
        let bar = "#".repeat((frac * 50.0).round() as usize);
        let _ = writeln!(out, "  {:>4}: {:>5.1}% {}", edge as u64, frac * 100.0, bar);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GeneratorConfig};
    use elastisched_sim::JobSpec;

    #[test]
    fn histogram_buckets_and_totals() {
        let h = Histogram::new(vec![0.0, 10.0, 100.0], [5.0, 15.0, 50.0, 500.0, -2.0]);
        assert_eq!(h.counts, vec![2, 2, 1]); // -2 clamps into bucket 0
        assert_eq!(h.total(), 5);
        assert!((h.fraction(0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn paper_workload_characterization_matches_knobs() {
        let w = generate(
            &GeneratorConfig::paper_batch(0.8)
                .with_jobs(4000)
                .with_seed(6),
        );
        let c = characterize(&w);
        assert_eq!(c.jobs, 4000);
        assert!(
            (c.small_fraction - 0.8).abs() < 0.02,
            "{}",
            c.small_fraction
        );
        // The Lublin model correlates size and runtime positively.
        assert!(
            c.size_runtime_correlation > 0.1,
            "correlation {}",
            c.size_runtime_correlation
        );
        assert!(c.squashed_area > 0.0);
        assert!(c.mean_interarrival > 0.0);
    }

    #[test]
    fn empty_workload_is_all_zeros() {
        let c = characterize(&Workload::default());
        assert_eq!(c.jobs, 0);
        assert_eq!(c.small_fraction, 0.0);
        assert_eq!(c.size_runtime_correlation, 0.0);
    }

    #[test]
    fn text_report_mentions_key_lines() {
        let w = Workload::from_jobs(vec![
            JobSpec::batch(1, 0, 32, 100),
            JobSpec::batch(2, 50, 320, 1000),
        ]);
        let txt = characterization_to_text(&characterize(&w));
        assert!(txt.contains("jobs:"));
        assert!(txt.contains("size histogram"));
        assert!(txt.contains("squashed area"));
    }

    #[test]
    fn pearson_extremes() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0], &[1.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }
}
