//! Per-category metric breakdowns.
//!
//! The paper's analysis hinges on how performance differs by job
//! *population*: small vs large jobs (`P_S`), batch vs dedicated
//! (`P_D`). This module slices the per-job outcomes accordingly —
//! useful both for analysis and for validating the schedulers'
//! fairness characteristics (e.g. that Delayed-LOS's packing gains do
//! not starve large jobs).

use crate::stats::Summary;
use elastisched_sim::JobOutcome;
use serde::{Deserialize, Serialize};

/// Metrics for one slice of the job population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassMetrics {
    /// Slice label.
    pub label: String,
    /// Number of jobs in the slice.
    pub jobs: usize,
    /// Mean waiting time, seconds.
    pub mean_wait: f64,
    /// Waiting-time distribution.
    pub wait_summary: Summary,
    /// Mean runtime, seconds.
    pub mean_runtime: f64,
    /// Mean size, processors.
    pub mean_size: f64,
}

impl ClassMetrics {
    fn of<'a>(label: &str, outcomes: impl Iterator<Item = &'a JobOutcome>) -> ClassMetrics {
        let slice: Vec<&JobOutcome> = outcomes.collect();
        let waits: Vec<f64> = slice.iter().map(|o| o.wait.as_secs_f64()).collect();
        let runtimes: Vec<f64> = slice.iter().map(|o| o.runtime.as_secs_f64()).collect();
        let sizes: Vec<f64> = slice.iter().map(|o| o.num as f64).collect();
        ClassMetrics {
            label: label.to_string(),
            jobs: slice.len(),
            mean_wait: crate::stats::mean(&waits),
            wait_summary: Summary::of(&waits),
            mean_runtime: crate::stats::mean(&runtimes),
            mean_size: crate::stats::mean(&sizes),
        }
    }
}

/// Breakdown of a run by job size and class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Jobs with `num ≤ small_threshold`.
    pub small: ClassMetrics,
    /// Jobs with `num > small_threshold`.
    pub large: ClassMetrics,
    /// Batch jobs.
    pub batch: ClassMetrics,
    /// Dedicated jobs.
    pub dedicated: ClassMetrics,
    /// The size threshold used, in processors.
    pub small_threshold: u32,
}

/// Slice outcomes by size (at `small_threshold` processors — the paper's
/// small jobs are ≤ 96 = 3 × 32) and by class.
pub fn breakdown(outcomes: &[JobOutcome], small_threshold: u32) -> Breakdown {
    Breakdown {
        small: ClassMetrics::of(
            "small",
            outcomes.iter().filter(|o| o.num <= small_threshold),
        ),
        large: ClassMetrics::of("large", outcomes.iter().filter(|o| o.num > small_threshold)),
        batch: ClassMetrics::of(
            "batch",
            outcomes.iter().filter(|o| o.requested_start.is_none()),
        ),
        dedicated: ClassMetrics::of(
            "dedicated",
            outcomes.iter().filter(|o| o.requested_start.is_some()),
        ),
        small_threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::{Duration, JobId, SimTime};

    fn outcome(id: u64, num: u32, wait: u64, dedicated: bool) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            submit: SimTime::ZERO,
            requested_start: dedicated.then_some(SimTime::ZERO),
            started: SimTime::from_secs(wait),
            finished: SimTime::from_secs(wait + 100),
            num,
            runtime: Duration::from_secs(100),
            wait: Duration::from_secs(wait),
            attribution: None,
        }
    }

    #[test]
    fn slices_by_size_and_class() {
        let os = vec![
            outcome(1, 32, 10, false),
            outcome(2, 96, 20, false),
            outcome(3, 128, 100, true),
            outcome(4, 320, 200, true),
        ];
        let b = breakdown(&os, 96);
        assert_eq!(b.small.jobs, 2);
        assert_eq!(b.large.jobs, 2);
        assert_eq!(b.batch.jobs, 2);
        assert_eq!(b.dedicated.jobs, 2);
        assert!((b.small.mean_wait - 15.0).abs() < 1e-12);
        assert!((b.large.mean_wait - 150.0).abs() < 1e-12);
        assert!((b.dedicated.mean_size - 224.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_are_zeroed() {
        let os = vec![outcome(1, 32, 10, false)];
        let b = breakdown(&os, 96);
        assert_eq!(b.large.jobs, 0);
        assert_eq!(b.large.mean_wait, 0.0);
        assert_eq!(b.dedicated.jobs, 0);
    }
}
