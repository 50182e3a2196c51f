//! Streaming per-job metric accumulation.
//!
//! [`RunAccumulator`] folds [`JobOutcome`]s into the paper's run metrics
//! one completion at a time, so a streamed run (`Engine::
//! run_streaming_folded`) can derive a full [`RunMetrics`] without ever
//! retaining the outcome vector. Two storage modes:
//!
//! * **exact** — keeps the per-job wait series (O(jobs) memory) and
//!   produces *bit-identical* numbers to [`RunMetrics::from_result`];
//!   `from_result` itself is implemented on this path.
//! * **bounded** — groups waits by whole seconds into ascending
//!   `(wait, count)` runs (memory proportional to *distinct* wait
//!   values, not jobs — the benchmark's 250k-job archive replay sees
//!   98,070 of them). New waits collect in an unsorted tail that is
//!   sorted and merged into the runs every `MERGE_EVERY` records and
//!   at the end. Waits are whole seconds in this simulator, so every
//!   summary field is still exact *except* `std_dev`, whose
//!   floating-point accumulation order differs (grouped ascending vs
//!   completion order) — equal to the exact value up to ulp-level
//!   rounding.
//!
//! Every other metric (means, slowdowns, histograms, dedicated-job
//! accounting) is accumulated identically in both modes, in completion
//! order, and is bit-identical to the materialized derivation.

use crate::report::RunMetrics;
use crate::stats::Summary;
use elastisched_sim::{JobOutcome, LogHistogram, Phase, PhaseProfile, SimResult};
use std::time::Instant;

/// Bounded mode's tail length: the waits recorded between two merges.
const MERGE_EVERY: usize = 8192;

/// Wait-series storage backing the summary's order statistics.
enum WaitStore {
    /// The full series, in completion order.
    Exact(Vec<f64>),
    /// Whole-second waits grouped by value.
    Bounded(WaitRuns),
}

/// Whole-second waits as ascending `(wait, count)` runs with distinct
/// waits, plus an unsorted tail of recent waits not merged in yet.
#[derive(Default)]
struct WaitRuns {
    runs: Vec<(u64, u64)>,
    tail: Vec<u64>,
    /// The merge's output buffer, swapped with `runs` after each merge.
    spare: Vec<(u64, u64)>,
}

impl WaitRuns {
    fn record(&mut self, wait: u64) {
        self.tail.push(wait);
        if self.tail.len() >= MERGE_EVERY {
            self.merge();
        }
    }

    /// Sort the tail and merge it into the runs, adding up the counts
    /// of a wait present in both.
    fn merge(&mut self) {
        self.tail.sort_unstable();
        self.spare.clear();
        let (mut i, mut t) = (0, 0);
        while t < self.tail.len() {
            let v = self.tail[t];
            let mut count = 0;
            while self.tail.get(t) == Some(&v) {
                count += 1;
                t += 1;
            }
            while self.runs.get(i).is_some_and(|r| r.0 < v) {
                self.spare.push(self.runs[i]);
                i += 1;
            }
            if self.runs.get(i).is_some_and(|r| r.0 == v) {
                count += self.runs[i].1;
                i += 1;
            }
            self.spare.push((v, count));
        }
        self.spare.extend_from_slice(&self.runs[i..]);
        std::mem::swap(&mut self.runs, &mut self.spare);
        self.tail.clear();
    }
}

/// Folds job completions into [`RunMetrics`] incrementally. See the
/// module docs for the exact/bounded trade-off.
pub struct RunAccumulator {
    store: WaitStore,
    n: usize,
    wait_sum: f64,
    runtime_sum: f64,
    bounded_sum: f64,
    ded_count: usize,
    ded_wait_sum: f64,
    on_time: usize,
    wait_hist: LogHistogram,
    slowdown_hist: LogHistogram,
}

impl RunAccumulator {
    fn with_store(store: WaitStore) -> Self {
        RunAccumulator {
            store,
            n: 0,
            wait_sum: 0.0,
            runtime_sum: 0.0,
            bounded_sum: 0.0,
            ded_count: 0,
            ded_wait_sum: 0.0,
            on_time: 0,
            wait_hist: LogHistogram::new(),
            slowdown_hist: LogHistogram::new(),
        }
    }

    /// Exact mode: retains the wait series, bit-identical to
    /// [`RunMetrics::from_result`].
    pub fn exact() -> Self {
        RunAccumulator::with_store(WaitStore::Exact(Vec::new()))
    }

    /// Exact mode with the wait series pre-sized for `jobs` completions
    /// (one allocation instead of a growth doubling chain).
    pub fn exact_with_capacity(jobs: usize) -> Self {
        RunAccumulator::with_store(WaitStore::Exact(Vec::with_capacity(jobs)))
    }

    /// Bounded mode: memory proportional to distinct whole-second wait
    /// values; `std_dev` exact up to ulp-level rounding, everything else
    /// bit-identical.
    pub fn bounded() -> Self {
        RunAccumulator::with_store(WaitStore::Bounded(WaitRuns::default()))
    }

    /// Completions folded so far.
    pub fn jobs(&self) -> usize {
        self.n
    }

    /// Fold one completion. Call in completion order — the
    /// floating-point sums are order-sensitive, and completion order is
    /// what the materialized derivation uses.
    pub fn record(&mut self, o: &JobOutcome) {
        let wait = o.wait.as_secs_f64();
        let runtime = o.runtime.as_secs_f64();
        match &mut self.store {
            WaitStore::Exact(waits) => waits.push(wait),
            WaitStore::Bounded(runs) => runs.record(o.wait.as_secs()),
        }
        self.wait_sum += wait;
        self.runtime_sum += runtime;
        let bounded = ((wait + runtime) / runtime.max(10.0)).max(1.0);
        self.bounded_sum += bounded;
        self.wait_hist.record(o.wait.as_secs());
        self.slowdown_hist.record((bounded * 1000.0) as u64);
        if o.requested_start.is_some() {
            self.ded_count += 1;
            self.ded_wait_sum += wait;
            if o.wait.as_secs() == 0 {
                self.on_time += 1;
            }
        }
        self.n += 1;
    }

    /// Close the accumulation and assemble the metrics, taking the
    /// run-level quantities (utilization, makespan, ECC and scheduler
    /// counters) from `result`. `result.outcomes` is *not* read — a
    /// folded streamed run legitimately leaves it empty.
    ///
    /// Also assembles the run's phase profile: DP/engine-loop time from
    /// the result's counters, and this call as the derivation phase (the
    /// folds already happened inside the engine loop).
    pub fn finish(self, result: &SimResult) -> RunMetrics {
        self.finish_since(result, Instant::now())
    }

    /// [`RunAccumulator::finish`], charging the derivation phase from
    /// `started` — [`RunMetrics::from_result`] starts it before its fold
    /// loop.
    pub(crate) fn finish_since(mut self, result: &SimResult, started: Instant) -> RunMetrics {
        let n = self.n;
        let mean_of = |sum: f64, count: usize| if count == 0 { 0.0 } else { sum / count as f64 };
        let mean_wait = mean_of(self.wait_sum, n);
        let mean_runtime = mean_of(self.runtime_sum, n);
        let slowdown = if mean_runtime > 0.0 {
            (mean_wait + mean_runtime) / mean_runtime
        } else {
            1.0
        };
        let wait_summary = match &mut self.store {
            WaitStore::Exact(waits) => Summary::of_unsorted_in_place(waits),
            WaitStore::Bounded(runs) => {
                runs.merge();
                summary_of_counts(&runs.runs, n, mean_wait)
            }
        };
        let mut phase_profile = PhaseProfile::new();
        phase_profile.record(Phase::DpSolve, result.sched_stats.dp_nanos);
        phase_profile.record(Phase::EngineLoop, result.engine.engine_nanos);
        phase_profile.record(
            Phase::MetricsDerivation,
            started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
        RunMetrics {
            scheduler: result.scheduler.to_string(),
            jobs: n,
            utilization: result.mean_utilization(),
            mean_wait,
            slowdown,
            mean_bounded_slowdown: mean_of(self.bounded_sum, n),
            mean_runtime,
            wait_summary,
            mean_dedicated_delay: mean_of(self.ded_wait_sum, self.ded_count),
            dedicated_jobs: self.ded_count,
            dedicated_on_time: self.on_time,
            makespan: result.makespan.as_secs() as f64,
            eccs_applied: result.ecc.applied(),
            reconfig_grows: result.reconfig.grows,
            reconfig_shrinks: result.reconfig.shrinks,
            reconfig_procs_granted: result.reconfig.procs_granted,
            reconfig_procs_reclaimed: result.reconfig.procs_reclaimed,
            reconfig_cost_secs: result.reconfig.cost_secs,
            dp_cache_hits: result.sched_stats.dp_cache_hits,
            dp_cache_misses: result.sched_stats.dp_cache_misses,
            dp_nanos: result.sched_stats.dp_nanos,
            dp_incremental_hits: result.sched_stats.dp_incremental_hits,
            dp_incremental_rebuilds: result.sched_stats.dp_incremental_rebuilds,
            engine_events: result.engine.events,
            engine_cycles: result.engine.cycles,
            events_coalesced: result.engine.events_coalesced,
            queue_ops: result.engine.queue_ops,
            peak_queue_len: result.engine.peak_queue_len,
            engine_nanos: result.engine.engine_nanos,
            wait_hist: self.wait_hist,
            slowdown_hist: self.slowdown_hist,
            cycle_hist: result
                .trace
                .as_deref()
                .map(|t| t.cycle_hist)
                .unwrap_or_default(),
            phase_profile,
            timeline: result.timeline.clone(),
            attribution: result.attribution.clone(),
        }
    }
}

/// [`Summary`] over a grouped whole-second series, given as ascending
/// `(wait, count)` runs with distinct waits: order statistics are exact
/// (computed from cumulative counts with the same interpolation as the
/// sorted-series path); `mean` is the caller's completion-order sum;
/// `std_dev` groups the squared deviations by value, ascending — equal
/// to the completion-order accumulation up to ulp-level rounding.
fn summary_of_counts(counts: &[(u64, u64)], n: usize, mean: f64) -> Summary {
    if n == 0 {
        return Summary::of(&[]);
    }
    let var_sum: f64 = counts
        .iter()
        .map(|&(v, c)| {
            let d = v as f64 - mean;
            c as f64 * d * d
        })
        .sum();
    let std_dev = if n < 2 {
        0.0
    } else {
        (var_sum / (n - 1) as f64).sqrt()
    };
    Summary {
        n,
        mean,
        std_dev,
        min: counts.first().expect("non-empty").0 as f64,
        median: quantile_of_counts(counts, n, 0.5),
        p95: quantile_of_counts(counts, n, 0.95),
        max: counts.last().expect("non-empty").0 as f64,
    }
}

/// The value at (possibly interpolated) rank `q·(n−1)` of the grouped
/// series — the same linear interpolation `quantile_of_sorted` applies
/// to an explicit sorted series.
fn quantile_of_counts(counts: &[(u64, u64)], n: usize, q: f64) -> f64 {
    let q = q.clamp(0.0, 1.0);
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as u64;
    let hi = pos.ceil() as u64;
    let mut lo_val = 0.0;
    let mut hi_val = 0.0;
    let mut seen = 0u64;
    for &(v, c) in counts {
        let last_rank_here = seen + c - 1;
        if lo >= seen && lo <= last_rank_here {
            lo_val = v as f64;
        }
        if hi >= seen && hi <= last_rank_here {
            hi_val = v as f64;
            break;
        }
        seen += c;
    }
    if lo == hi {
        lo_val
    } else {
        let frac = pos - lo as f64;
        lo_val * (1.0 - frac) + hi_val * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::{Duration, EccStats, JobId, SchedStats, SimTime};

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
        let makespan = outcomes
            .iter()
            .map(|o| o.finished)
            .max()
            .unwrap_or(SimTime::ZERO);
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

    fn mixed_outcomes() -> Vec<JobOutcome> {
        let mut out = Vec::new();
        for i in 0..50u64 {
            // Waits 0,7,14,…, runtimes 5..105, a dedicated job every 5th.
            let submit = i * 10;
            let started = submit + (i % 8) * 7;
            let finished = started + 5 + i * 2;
            let mut o = outcome(i + 1, submit, started, finished, 32 + (i % 4) as u32 * 32);
            if i % 5 == 0 {
                o.requested_start = Some(SimTime::from_secs(submit));
            }
            out.push(o);
        }
        out
    }

    #[test]
    fn exact_fold_matches_from_result_bit_for_bit() {
        let r = result(mixed_outcomes());
        let folded = {
            let mut acc = RunAccumulator::exact_with_capacity(r.outcomes.len());
            for o in &r.outcomes {
                acc.record(o);
            }
            acc.finish(&r)
        };
        let direct = RunMetrics::from_result(&r);
        assert_eq!(folded, direct);
        // Bit-level, beyond the PartialEq subset:
        assert_eq!(
            folded.wait_summary.std_dev.to_bits(),
            direct.wait_summary.std_dev.to_bits()
        );
        assert_eq!(
            folded.mean_bounded_slowdown.to_bits(),
            direct.mean_bounded_slowdown.to_bits()
        );
        assert_eq!(folded.wait_hist, direct.wait_hist);
        assert_eq!(folded.slowdown_hist, direct.slowdown_hist);
    }

    /// Fold `outcomes` in both modes: everything but `std_dev` must be
    /// bit-identical, and `std_dev` equal up to ulp-level rounding.
    fn assert_bounded_agrees_with_exact(outcomes: Vec<JobOutcome>) {
        let r = result(outcomes);
        let mut exact = RunAccumulator::exact();
        let mut bounded = RunAccumulator::bounded();
        for o in &r.outcomes {
            exact.record(o);
            bounded.record(o);
        }
        let e = exact.finish(&r);
        let b = bounded.finish(&r);
        // Everything but std_dev is exact; waits are whole seconds.
        assert_eq!(e.wait_summary.n, b.wait_summary.n);
        assert_eq!(e.wait_summary.mean.to_bits(), b.wait_summary.mean.to_bits());
        assert_eq!(e.wait_summary.min, b.wait_summary.min);
        assert_eq!(e.wait_summary.median, b.wait_summary.median);
        assert_eq!(e.wait_summary.p95, b.wait_summary.p95);
        assert_eq!(e.wait_summary.max, b.wait_summary.max);
        let rel = (e.wait_summary.std_dev - b.wait_summary.std_dev).abs()
            / e.wait_summary.std_dev.max(1e-12);
        assert!(rel < 1e-12, "std_dev diverged beyond ulp noise: {rel}");
        assert_eq!(e.mean_wait.to_bits(), b.mean_wait.to_bits());
        assert_eq!(
            e.mean_bounded_slowdown.to_bits(),
            b.mean_bounded_slowdown.to_bits()
        );
        assert_eq!(e.wait_hist, b.wait_hist);
        assert_eq!(e.slowdown_hist, b.slowdown_hist);
        assert_eq!(e.dedicated_jobs, b.dedicated_jobs);
        assert_eq!(e.dedicated_on_time, b.dedicated_on_time);
        assert_eq!(e, b, "PartialEq subset must agree");
    }

    #[test]
    fn bounded_fold_agrees_with_exact() {
        assert_bounded_agrees_with_exact(mixed_outcomes());
    }

    #[test]
    fn bounded_fold_agrees_with_exact_across_merges() {
        // 20,000 completions: two full merge batches plus a tail merged
        // at `finish`. Waits cycle through 600 values every batch sees
        // again (equal keys in the runs and the tail), and every 7th job
        // waits a value no earlier job did.
        let jobs = 20_000u64;
        assert!(jobs as usize > 2 * MERGE_EVERY);
        let outcomes = (0..jobs)
            .map(|i| {
                let wait = if i % 7 == 0 {
                    1_000 + i
                } else {
                    (i * 37) % 600
                };
                let submit = i * 3;
                let started = submit + wait;
                outcome(i + 1, submit, started, started + 10 + i % 50, 32)
            })
            .collect();
        assert_bounded_agrees_with_exact(outcomes);
    }

    #[test]
    fn wait_runs_merge_adds_equal_keys_and_keeps_order() {
        let mut w = WaitRuns::default();
        for v in [5, 1, 5, 9] {
            w.record(v);
        }
        w.merge();
        for v in [9, 0, 5, 12] {
            w.record(v);
        }
        w.merge();
        assert_eq!(w.runs, vec![(0, 1), (1, 1), (5, 3), (9, 2), (12, 1)]);
        assert!(w.tail.is_empty());
    }

    #[test]
    fn grouped_quantiles_match_sorted_series() {
        // 1,1,1,2,5,5,9 → check every interpolation case.
        let series = [1.0, 1.0, 1.0, 2.0, 5.0, 5.0, 9.0];
        let counts = [(1, 3), (2, 1), (5, 2), (9, 1)];
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0] {
            let grouped = quantile_of_counts(&counts, series.len(), q);
            let direct = crate::stats::quantile(&series, q);
            assert_eq!(grouped.to_bits(), direct.to_bits(), "q={q}");
        }
    }

    #[test]
    fn empty_accumulator_finishes_clean() {
        let r = result(Vec::new());
        let m = RunAccumulator::bounded().finish(&r);
        assert_eq!(m.jobs, 0);
        assert_eq!(m.mean_wait, 0.0);
        assert_eq!(m.wait_summary.n, 0);
        let m = RunAccumulator::exact().finish(&r);
        assert_eq!(m.jobs, 0);
    }

    #[test]
    fn single_value_bounded_summary() {
        let r = result(vec![outcome(1, 0, 3, 10, 32)]);
        let mut acc = RunAccumulator::bounded();
        acc.record(&r.outcomes[0]);
        assert_eq!(acc.jobs(), 1);
        let m = acc.finish(&r);
        assert_eq!(m.wait_summary.min, 3.0);
        assert_eq!(m.wait_summary.median, 3.0);
        assert_eq!(m.wait_summary.max, 3.0);
        assert_eq!(m.wait_summary.std_dev, 0.0);
    }
}
