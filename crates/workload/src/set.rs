//! An in-memory workload: jobs plus Elastic Control Commands.

use elastisched_sim::{EccSpec, JobSpec, SimTime};
use serde::{Deserialize, Serialize};

/// A complete workload ready to feed to the simulation engine.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Job submissions, in arrival order.
    pub jobs: Vec<JobSpec>,
    /// Elastic Control Commands, in issue order.
    pub eccs: Vec<EccSpec>,
}

impl Workload {
    /// A workload with jobs only.
    pub fn from_jobs(jobs: Vec<JobSpec>) -> Self {
        Workload {
            jobs,
            eccs: Vec::new(),
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when there are no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Number of dedicated jobs.
    pub fn dedicated_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.class.is_dedicated()).count()
    }

    /// Offered load on an `m`-processor machine (paper §IV-D):
    /// `Load = λ/M · Σ num_i / μ_i` where `1/μ_i` is job `i`'s runtime and
    /// `λ` the inverse of the trace duration (first to last arrival).
    pub fn offered_load(&self, machine_procs: u32) -> f64 {
        crate::load::offered_load(
            self.jobs
                .iter()
                .map(|j| (j.num as f64, j.actual.as_secs_f64(), j.submit.as_secs())),
            machine_procs,
        )
    }

    /// Mean job size `n̄` in processors.
    pub fn mean_size(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.num as f64).sum::<f64>() / self.jobs.len() as f64
    }

    /// Mean job runtime in seconds.
    pub fn mean_runtime(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs
            .iter()
            .map(|j| j.actual.as_secs_f64())
            .sum::<f64>()
            / self.jobs.len() as f64
    }

    /// Scale all arrival times (and ECC issue times, and dedicated
    /// requested-start offsets) by `factor` — the paper's load-variation
    /// technique. `factor > 1` lowers the load.
    pub fn scale_arrivals(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor.is_finite(), "bad scale factor");
        let scale = |t: SimTime| SimTime::from_secs((t.as_secs() as f64 * factor).round() as u64);
        for j in &mut self.jobs {
            j.submit = scale(j.submit);
            if let elastisched_sim::JobClass::Dedicated { requested_start } = &mut j.class {
                *requested_start = scale(*requested_start);
            }
        }
        for e in &mut self.eccs {
            e.issue_at = scale(e.issue_at);
        }
    }

    /// A borrowed streaming view over this workload: jobs and ECCs merged
    /// in time order with jobs first at ties — the same total order
    /// `Engine::load` establishes, so `Engine::run_streaming_folded`
    /// over this source reproduces the materialized run exactly.
    pub fn source(&self) -> elastisched_sim::SliceSource<'_> {
        elastisched_sim::SliceSource::new(&self.jobs, &self.eccs)
    }

    /// Rescale arrivals so the offered load becomes `target` on a machine
    /// of `machine_procs` processors. Returns the factor applied.
    /// Load is inversely proportional to the trace duration, so a single
    /// multiplicative correction suffices (up to rounding).
    pub fn scale_to_load(&mut self, machine_procs: u32, target: f64) -> f64 {
        assert!(target > 0.0, "target load must be positive");
        let current = self.offered_load(machine_procs);
        if current <= 0.0 || !current.is_finite() {
            return 1.0;
        }
        let factor = current / target;
        self.scale_arrivals(factor);
        factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::{EccSpec, JobId};

    fn jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::batch(1, 0, 64, 100),
            JobSpec::batch(2, 500, 128, 200),
            JobSpec::dedicated(3, 800, 32, 50, 1000),
        ]
    }

    #[test]
    fn counts_and_means() {
        let w = Workload::from_jobs(jobs());
        assert_eq!(w.len(), 3);
        assert_eq!(w.dedicated_count(), 1);
        assert!((w.mean_size() - (64.0 + 128.0 + 32.0) / 3.0).abs() < 1e-9);
        assert!((w.mean_runtime() - (100.0 + 200.0 + 50.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn offered_load_formula() {
        let w = Workload::from_jobs(jobs());
        // work = 64·100 + 128·200 + 32·50 = 33600; duration = 800; M=320.
        let expected = 33600.0 / (800.0 * 320.0);
        assert!((w.offered_load(320) - expected).abs() < 1e-9);
    }

    #[test]
    fn scale_arrivals_shifts_everything() {
        let mut w = Workload {
            jobs: jobs(),
            eccs: vec![EccSpec::extend_time(JobId(1), SimTime::from_secs(100), 60)],
        };
        w.scale_arrivals(2.0);
        assert_eq!(w.jobs[1].submit.as_secs(), 1000);
        assert_eq!(w.jobs[2].class.requested_start().unwrap().as_secs(), 2000);
        assert_eq!(w.eccs[0].issue_at.as_secs(), 200);
    }

    #[test]
    fn scale_to_load_hits_target() {
        let mut w = Workload::from_jobs(jobs());
        w.scale_to_load(320, 0.5);
        let achieved = w.offered_load(320);
        assert!((achieved - 0.5).abs() < 0.01, "achieved {achieved}");
    }

    #[test]
    fn empty_workload_degenerates_gracefully() {
        let w = Workload::default();
        assert!(w.is_empty());
        assert_eq!(w.offered_load(320), 0.0);
        assert_eq!(w.mean_size(), 0.0);
        assert_eq!(w.mean_runtime(), 0.0);
    }
}
