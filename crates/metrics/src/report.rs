//! Experiment-level metrics (paper §V).
//!
//! The paper evaluates three metrics: **mean system utilization**, **mean
//! job waiting time**, and **slowdown**, defined as
//! `(avg. waiting time + avg. runtime) / avg. runtime`. This module
//! derives them (plus extra diagnostics) from a [`SimResult`].

use crate::stats::Summary;
use elastisched_sim::{AttributionProfile, LogHistogram, PhaseProfile, RunTimeline, SimResult};
use serde::{Deserialize, Serialize};

/// The paper's metrics for one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Scheduler name.
    pub scheduler: String,
    /// Number of completed jobs.
    pub jobs: usize,
    /// Mean machine utilization over `[0, makespan]`.
    pub utilization: f64,
    /// Mean job waiting time, seconds. Batch jobs wait from arrival;
    /// dedicated jobs from `max(arrival, requested start)`.
    pub mean_wait: f64,
    /// The paper's slowdown: `(mean_wait + mean_runtime) / mean_runtime`.
    pub slowdown: f64,
    /// Mean per-job bounded slowdown `max(1, (wait+run)/max(run, 10s))`
    /// (a standard robustness companion; not in the paper's tables).
    pub mean_bounded_slowdown: f64,
    /// Mean job runtime, seconds.
    pub mean_runtime: f64,
    /// Waiting-time distribution.
    pub wait_summary: Summary,
    /// Mean start-delay of dedicated jobs past their requested start,
    /// seconds (0 when the workload has none).
    pub mean_dedicated_delay: f64,
    /// Number of dedicated jobs.
    pub dedicated_jobs: usize,
    /// Dedicated jobs started exactly on time.
    pub dedicated_on_time: usize,
    /// Makespan, seconds.
    pub makespan: f64,
    /// ECCs applied (running + queued).
    pub eccs_applied: u64,
    /// Scheduler-initiated grows applied to running malleable jobs
    /// (0 for rigid workloads or non-`+m` stacks).
    #[serde(default)]
    pub reconfig_grows: u64,
    /// Scheduler-initiated shrinks applied to running malleable jobs.
    #[serde(default)]
    pub reconfig_shrinks: u64,
    /// Processors granted across all grows.
    #[serde(default)]
    pub reconfig_procs_granted: u64,
    /// Processors reclaimed across all shrinks.
    #[serde(default)]
    pub reconfig_procs_reclaimed: u64,
    /// Total reconfiguration cost charged to resized jobs, seconds.
    #[serde(default)]
    pub reconfig_cost_secs: u64,
    /// DP solves answered from the scheduler's selection cache
    /// (0 for schedulers without DP kernels).
    #[serde(default)]
    pub dp_cache_hits: u64,
    /// DP solves that actually ran a kernel.
    #[serde(default)]
    pub dp_cache_misses: u64,
    /// Cumulative wall-clock nanoseconds the scheduler spent in DP
    /// solves.
    #[serde(default)]
    pub dp_nanos: u64,
    /// DP cache misses answered by extending/replaying the solver's
    /// retained cross-cycle reachability table.
    #[serde(default)]
    pub dp_incremental_hits: u64,
    /// DP cache misses where the retained table was rebuilt from row
    /// zero.
    #[serde(default)]
    pub dp_incremental_rebuilds: u64,
    /// Events the engine dispatched over the run.
    #[serde(default)]
    pub engine_events: u64,
    /// Scheduler cycles the engine fired (one per distinct timestamp).
    #[serde(default)]
    pub engine_cycles: u64,
    /// Events coalesced into a cycle shared with an earlier same-instant
    /// event (scheduler invocations saved).
    #[serde(default)]
    pub events_coalesced: u64,
    /// Event-queue pushes + pops.
    #[serde(default)]
    pub queue_ops: u64,
    /// Peak event-queue population.
    #[serde(default)]
    pub peak_queue_len: u64,
    /// Wall-clock nanoseconds spent in the engine's event loop.
    #[serde(default)]
    pub engine_nanos: u64,
    /// Streaming log-bucketed distribution of per-job waiting times,
    /// in whole seconds.
    #[serde(default)]
    pub wait_hist: LogHistogram,
    /// Streaming log-bucketed distribution of per-job bounded slowdowns,
    /// in milli-units (a slowdown of 1.5 records as 1500).
    #[serde(default)]
    pub slowdown_hist: LogHistogram,
    /// Streaming log-bucketed distribution of per-cycle scheduler
    /// wall-clock nanoseconds. Populated only when the run was traced
    /// with timing enabled (see `TraceSink`); empty otherwise.
    #[serde(default)]
    pub cycle_hist: LogHistogram,
    /// Where this run's wall time went, by coarse phase: DP solves and
    /// the engine loop come from the simulator's own timers, metrics
    /// derivation is timed here, and workload generation is absorbed
    /// from any `PhaseTimer` the caller dropped on this thread before
    /// deriving (see [`RunMetrics::from_result`]). Wall-clock detail,
    /// excluded from equality like `engine_nanos`.
    #[serde(default)]
    pub phase_profile: PhaseProfile,
    /// Budget-bounded time series of periodic engine samples, populated
    /// when the run had its telemetry sampler enabled (empty
    /// otherwise). Observability detail, excluded from equality like
    /// `phase_profile`.
    #[serde(default)]
    pub timeline: RunTimeline,
    /// Run-level wait-time attribution: where the fleet's queue wait
    /// went, by cause, with the top capacity blockers (populated when
    /// the run had attribution enabled; empty otherwise). Observability
    /// detail, excluded from equality like `phase_profile`.
    #[serde(default)]
    pub attribution: AttributionProfile,
}

/// Equality ignores `dp_nanos`, `engine_nanos`, the engine-loop
/// diagnostic counters, and the streaming histograms: the nanos fields
/// are wall-clock timing that varies between otherwise identical
/// (deterministic) runs, the loop counters describe *how* the engine
/// processed events, not what the simulation computed, and the
/// histograms are derived observability detail (fixtures recorded
/// before they existed must still compare equal). Two metrics are equal
/// when every simulation-derived quantity matches — the DP cache and
/// incremental counters included, since the solver's call sequence is
/// deterministic for a given workload and policy.
impl PartialEq for RunMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.scheduler == other.scheduler
            && self.jobs == other.jobs
            && self.utilization == other.utilization
            && self.mean_wait == other.mean_wait
            && self.slowdown == other.slowdown
            && self.mean_bounded_slowdown == other.mean_bounded_slowdown
            && self.mean_runtime == other.mean_runtime
            && self.wait_summary == other.wait_summary
            && self.mean_dedicated_delay == other.mean_dedicated_delay
            && self.dedicated_jobs == other.dedicated_jobs
            && self.dedicated_on_time == other.dedicated_on_time
            && self.makespan == other.makespan
            && self.eccs_applied == other.eccs_applied
            && self.reconfig_grows == other.reconfig_grows
            && self.reconfig_shrinks == other.reconfig_shrinks
            && self.reconfig_procs_granted == other.reconfig_procs_granted
            && self.reconfig_procs_reclaimed == other.reconfig_procs_reclaimed
            && self.reconfig_cost_secs == other.reconfig_cost_secs
            && self.dp_cache_hits == other.dp_cache_hits
            && self.dp_cache_misses == other.dp_cache_misses
            && self.dp_incremental_hits == other.dp_incremental_hits
            && self.dp_incremental_rebuilds == other.dp_incremental_rebuilds
    }
}

impl RunMetrics {
    /// Derive the metrics from a completed simulation.
    ///
    /// Also assembles the run's [`PhaseProfile`]: the derivation pass
    /// itself is timed here, DP/engine-loop time is copied from the
    /// result's counters, and — so callers can attribute workload
    /// generation with a plain RAII timer — this thread's pending
    /// [`profile::PhaseTimer`] recordings are **drained and absorbed**
    /// into the profile (`profile::take_pending`).
    pub fn from_result(result: &SimResult) -> RunMetrics {
        // One fold pass over the outcomes, in completion order, on the
        // exact accumulator — the same path a streamed run drives one
        // completion at a time (see [`crate::accum::RunAccumulator`]),
        // so materialized and folded derivations are bit-identical by
        // construction.
        let mut acc = crate::accum::RunAccumulator::exact_with_capacity(result.outcomes.len());
        for o in &result.outcomes {
            acc.record(o);
        }
        acc.finish(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::{
        profile, Duration, EccStats, JobId, JobOutcome, Phase, SchedStats, SimResult, SimTime,
    };

    fn outcome(id: u64, submit: u64, started: u64, finished: u64, num: u32) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            requested_start: None,
            started: SimTime::from_secs(started),
            finished: SimTime::from_secs(finished),
            num,
            runtime: Duration::from_secs(finished - started),
            wait: Duration::from_secs(started - submit),
            attribution: None,
        }
    }

    fn result(outcomes: Vec<JobOutcome>) -> SimResult {
        let makespan = outcomes.iter().map(|o| o.finished).max().unwrap();
        let busy: f64 = outcomes
            .iter()
            .map(|o| o.num as f64 * o.runtime.as_secs_f64())
            .sum();
        SimResult {
            scheduler: "TEST",
            outcomes,
            machine_total: 320,
            busy_area: busy,
            first_arrival: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            makespan,
            ecc: EccStats::default(),
            reconfig: Default::default(),
            sched_stats: SchedStats::default(),
            engine: elastisched_sim::EngineStats::default(),
            trace: None,
            timeline: Default::default(),
            attribution: Default::default(),
        }
    }

    #[test]
    fn paper_slowdown_definition() {
        // Two jobs: waits {0, 100}, runtimes {100, 100}.
        // mean wait = 50, mean runtime = 100 → slowdown = 1.5.
        let r = result(vec![
            outcome(1, 0, 0, 100, 320),
            outcome(2, 0, 100, 200, 320),
        ]);
        let m = RunMetrics::from_result(&r);
        assert!((m.mean_wait - 50.0).abs() < 1e-12);
        assert!((m.slowdown - 1.5).abs() < 1e-12);
        assert!((m.utilization - 1.0).abs() < 1e-12);
        assert_eq!(m.jobs, 2);
    }

    #[test]
    fn dedicated_delay_accounting() {
        let mut o1 = outcome(1, 0, 500, 600, 64);
        o1.requested_start = Some(SimTime::from_secs(500));
        o1.wait = Duration::ZERO; // started exactly on time
        let mut o2 = outcome(2, 0, 250, 300, 64);
        o2.requested_start = Some(SimTime::from_secs(200));
        o2.wait = Duration::from_secs(50);
        let r = result(vec![o1, o2]);
        let m = RunMetrics::from_result(&r);
        assert_eq!(m.dedicated_jobs, 2);
        assert_eq!(m.dedicated_on_time, 1);
        assert!((m.mean_dedicated_delay - 25.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_slowdown_floors() {
        // Tiny job: runtime 1 s, wait 0 → bounded slowdown clamps to 1.
        let r = result(vec![outcome(1, 0, 0, 1, 32)]);
        let m = RunMetrics::from_result(&r);
        assert!((m.mean_bounded_slowdown - 1.0).abs() < 1e-12);
    }

    #[test]
    fn streaming_histograms_populated() {
        let r = result(vec![
            outcome(1, 0, 0, 100, 32),   // wait 0
            outcome(2, 0, 100, 200, 32), // wait 100
        ]);
        let m = RunMetrics::from_result(&r);
        assert_eq!(m.wait_hist.n, 2);
        assert_eq!(m.wait_hist.max, 100);
        assert_eq!(m.slowdown_hist.n, 2);
        // Job 1: bounded slowdown 1.0 → 1000 milli-units.
        // Job 2: (100+100)/100 = 2.0 → 2000.
        assert_eq!(m.slowdown_hist.max, 2000);
        assert!(m.cycle_hist.is_empty(), "untraced run has no cycle hist");
    }

    #[test]
    fn phase_profile_stamped_and_absorbs_pending_timers() {
        let _ = profile::take_pending(); // isolate this test thread
        profile::record_pending(Phase::WorkloadGen, 1234);
        let mut r = result(vec![outcome(1, 0, 0, 100, 32)]);
        r.sched_stats.dp_nanos = 55;
        r.engine.engine_nanos = 99;
        let m = RunMetrics::from_result(&r);
        assert_eq!(m.phase_profile.nanos_of(Phase::WorkloadGen), 1234);
        assert_eq!(m.phase_profile.nanos_of(Phase::DpSolve), 55);
        assert_eq!(m.phase_profile.nanos_of(Phase::EngineLoop), 99);
        assert_eq!(m.phase_profile.calls_of(Phase::MetricsDerivation), 1);
        // The pending profile was drained into this run.
        assert!(profile::take_pending().is_empty());
        // Equality ignores the profile (wall-clock diagnostic), so a
        // re-derivation without the pending timer still compares equal.
        let again = RunMetrics::from_result(&r);
        assert_eq!(m, again);
        assert_eq!(again.phase_profile.nanos_of(Phase::WorkloadGen), 0);
    }

    #[test]
    fn wait_summary_populated() {
        let r = result(vec![
            outcome(1, 0, 0, 10, 32),
            outcome(2, 0, 10, 20, 32),
            outcome(3, 0, 90, 100, 32),
        ]);
        let m = RunMetrics::from_result(&r);
        assert_eq!(m.wait_summary.n, 3);
        assert_eq!(m.wait_summary.max, 90.0);
        assert_eq!(m.wait_summary.min, 0.0);
    }
}
