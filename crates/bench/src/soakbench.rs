//! The `repro soak --smoke` leak check: a bounded streamed replay that
//! fails when the run's peak RSS grows past a fixed budget or the
//! telemetry timeline is empty or over its point budget. It is not a
//! timing gate (`repro perf-gate` is); the events/s it prints is for
//! reading only.
//!
//! Methodology: the Lublin generator runs **unbounded** behind a
//! [`TakeJobs`] cap and a [`ScaleArrivals`] load knob (factor estimated
//! once from a 10k-job materialized sample at the 0.9 target load), and
//! the engine pulls it through the streaming path with the bounded
//! accumulator — no materialized `Vec<JobSpec>`, no retained outcomes,
//! per-job state reclaimed at completion. Peak memory tracks *live*
//! jobs rather than trace length, so a wait-view or slab leak shows as
//! peak-RSS growth, read from `/proc/self/status` (`VmHWM`).

use elastisched_metrics::RunAccumulator;
use elastisched_sched::{Algorithm, SchedParams};
use elastisched_sim::{Engine, Machine, TimelineConfig};
use elastisched_workload::{generate, GeneratorConfig, LublinSource, ScaleArrivals, TakeJobs};
use std::time::Instant;

const TOTAL: u32 = 320;
const UNIT: u32 = 32;
const TARGET_LOAD: f64 = 0.9;
/// Jobs in the materialized sample the arrival-scale factor is fitted on.
const SAMPLE_JOBS: usize = 10_000;

/// One streamed replay at a fixed trace length.
#[derive(Debug)]
struct SoakRun {
    /// Jobs completed (= the [`TakeJobs`] cap).
    jobs: usize,
    /// Arrivals + completions + ECC applications.
    events: u64,
    events_per_sec: f64,
    /// Most jobs simultaneously admitted and not yet reclaimed — the
    /// quantity peak memory is proportional to.
    peak_live_jobs: u64,
    /// How much this run raised the process's peak RSS, KiB.
    peak_rss_growth_kb: u64,
    /// Points in the run's telemetry timeline — the sampler is on for
    /// every soak (that is its production posture), and decimation must
    /// hold this at or under [`elastisched_sim::DEFAULT_TIMELINE_BUDGET`]
    /// no matter the trace length.
    timeline_samples: u64,
}

/// The process's peak RSS (`VmHWM` in `/proc/self/status`), KiB; 0 off
/// Linux or on parse trouble.
fn peak_rss_kb() -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = text.lines().find(|l| l.starts_with("VmHWM:"));
    line.and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// The soak traffic model: the paper's batch mix with elastic commands,
/// so the replay exercises the DP kernels and the ECC path at scale.
fn soak_config(jobs: usize) -> GeneratorConfig {
    GeneratorConfig::paper_batch(0.5)
        .with_paper_eccs()
        .with_jobs(jobs)
        .with_seed(1)
}

const SOAK_ALGO: Algorithm = Algorithm::DelayedLosE;

/// Fit the arrival-scale factor on a materialized sample: the factor
/// `scale_to_load` would apply to hit [`TARGET_LOAD`], reused verbatim
/// by the streaming [`ScaleArrivals`] adapter (the differential suite
/// proves the two paths equivalent).
fn fit_scale_factor() -> f64 {
    let mut sample = generate(&soak_config(SAMPLE_JOBS));
    sample.scale_to_load(TOTAL, TARGET_LOAD)
}

/// Stream `jobs` jobs through a fresh engine with the bounded
/// accumulator and measure the whole pull-admit-reclaim-fold loop.
fn soak_run(jobs: usize, factor: f64) -> SoakRun {
    let source = ScaleArrivals::new(
        TakeJobs::new(LublinSource::unbounded(&soak_config(jobs)), jobs),
        factor,
    );
    let scheduler = SOAK_ALGO.build(SchedParams::default());
    let mut engine = Engine::new(Machine::new(TOTAL, UNIT), scheduler, SOAK_ALGO.ecc_policy());
    // Soaks run with the sampler on: it is the observability plane's
    // production posture, and a week of virtual time must still land in
    // the default point budget.
    engine.enable_timeline(TimelineConfig::default());
    let mut acc = RunAccumulator::bounded();
    let hwm_before = peak_rss_kb();
    let t0 = Instant::now();
    let result = engine
        .run_streaming_folded(source, &mut |o| acc.record(o))
        .expect("soak source is submit-ordered");
    let elapsed_secs = t0.elapsed().as_secs_f64();
    let metrics = acc.finish(&result);
    let peak = peak_rss_kb();
    assert_eq!(metrics.jobs, jobs, "soak must complete every job");
    let events = 2 * metrics.jobs as u64 + metrics.eccs_applied;
    SoakRun {
        jobs,
        events,
        events_per_sec: events as f64 / elapsed_secs,
        peak_live_jobs: result.engine.peak_live_jobs,
        peak_rss_growth_kb: peak.saturating_sub(hwm_before),
        timeline_samples: metrics.timeline.samples.len() as u64,
    }
}

/// What a smoke run may use: peak-RSS growth in KiB, and timeline points
/// (at least one must be recorded).
#[derive(Debug, Clone, Copy)]
struct SmokeBudget {
    rss_growth_kb: u64,
    timeline_samples: u64,
}

/// The smoke's verdict on a run's peak-RSS growth and timeline size.
fn smoke_verdict(
    peak_rss_growth_kb: u64,
    timeline_samples: u64,
    budget: SmokeBudget,
) -> Result<(), &'static str> {
    if peak_rss_growth_kb > budget.rss_growth_kb {
        return Err("soak smoke blew the memory budget");
    }
    if timeline_samples == 0 {
        return Err("soak smoke ran without a populated timeline");
    }
    if timeline_samples > budget.timeline_samples {
        return Err("sampler decimation failed to hold its budget");
    }
    Ok(())
}

/// `repro soak --smoke`: a bounded CI-sized soak — `jobs` streamed jobs
/// asserting peak-RSS growth stays under `rss_budget_kb` and the
/// timeline within the default point budget. Returns a one-line verdict;
/// errs when a budget is blown (or the replay lost jobs, which the run
/// itself asserts).
pub fn smoke(jobs: usize, rss_budget_kb: u64) -> Result<String, String> {
    let run = soak_run(jobs, fit_scale_factor());
    let budget = SmokeBudget {
        rss_growth_kb: rss_budget_kb,
        timeline_samples: elastisched_sim::DEFAULT_TIMELINE_BUDGET as u64,
    };
    let line = format!(
        "soak smoke: {} jobs, {} events, {:.0} ev/s, peak live {} jobs, peak-RSS growth {} KiB \
         (budget {} KiB), timeline {} samples (budget {})",
        run.jobs,
        run.events,
        run.events_per_sec,
        run.peak_live_jobs,
        run.peak_rss_growth_kb,
        budget.rss_growth_kb,
        run.timeline_samples,
        budget.timeline_samples,
    );
    smoke_verdict(run.peak_rss_growth_kb, run.timeline_samples, budget)
        .map_err(|e| format!("{e}: {line}"))?;
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_status_reports_positive_peak_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }

    #[test]
    fn tiny_soak_completes_and_measures() {
        let factor = fit_scale_factor();
        assert!(factor.is_finite() && factor > 0.0);
        let run = soak_run(2_000, factor);
        assert_eq!(run.jobs, 2_000);
        assert!(run.events >= 4_000);
        assert!(run.events_per_sec > 0.0);
        assert!(run.peak_live_jobs > 0);
        assert!(
            run.peak_live_jobs < 2_000,
            "streamed replay retained {} live jobs of 2000",
            run.peak_live_jobs
        );
        assert!(
            run.timeline_samples > 0
                && run.timeline_samples <= elastisched_sim::DEFAULT_TIMELINE_BUDGET as u64,
            "soak timeline must be populated and budget-bounded, got {}",
            run.timeline_samples
        );
    }

    const BUDGET: SmokeBudget = SmokeBudget {
        rss_growth_kb: 64,
        timeline_samples: 1024,
    };

    #[test]
    fn smoke_passes_with_a_sane_budget_and_fails_with_zero() {
        let verdict = smoke(2_000, 512 * 1024).unwrap();
        assert!(verdict.contains("2000 jobs"), "{verdict}");
        // The smoke cannot force growth (an earlier run may already have
        // raised the HWM), so a zero budget is checked on the verdict.
        let zero = SmokeBudget {
            rss_growth_kb: 0,
            ..BUDGET
        };
        assert_eq!(
            smoke_verdict(1, 10, zero),
            Err("soak smoke blew the memory budget")
        );
    }

    #[test]
    fn smoke_verdict_fails_each_broken_budget() {
        assert_eq!(smoke_verdict(64, 1024, BUDGET), Ok(()));
        let verdict = |growth, samples| smoke_verdict(growth, samples, BUDGET).unwrap_err();
        assert_eq!(verdict(65, 10), "soak smoke blew the memory budget");
        assert_eq!(verdict(0, 0), "soak smoke ran without a populated timeline");
        assert_eq!(
            verdict(0, 1025),
            "sampler decimation failed to hold its budget"
        );
    }
}
