//! Oracle for the timeline's `oldest_wait_secs`.
//!
//! The sampler reads the oldest waiting job off the head of the
//! engine's arrival-ordered waiting list, which each start unlinks its
//! job from. Backfilling policies start jobs from the middle of the
//! queue, so the list is unlinked in the middle as well as at its head;
//! FCFS rides along and only ever unlinks the head. The streamed rerun
//! recycles record slots, so a slot re-enters the list under a new job.
//! This test checks every sample against a brute force over the run's
//! outcomes: at `at`, the waiting jobs are those with
//! `submit <= at < started`, and the oldest wait is `at - min(submit)`
//! over them, or 0.

use elastisched::{Experiment, MachineSpec};
use elastisched_metrics::RunAccumulator;
use elastisched_sched::Algorithm;
use elastisched_sim::{Duration, JobOutcome, SimTime, TimelineConfig};
use elastisched_workload::{generate, GeneratorConfig, Workload};

fn oldest_wait(outcomes: &[JobOutcome], at: SimTime) -> u64 {
    outcomes
        .iter()
        .filter(|o| o.submit <= at && at < o.started)
        .map(|o| o.submit)
        .min()
        .map_or(0, |s| at.saturating_since(s).as_secs())
}

fn workload(jobs: usize, load: f64) -> Workload {
    let cfg = GeneratorConfig::paper_batch(0.5)
        .with_paper_eccs()
        .with_jobs(jobs)
        .with_seed(77);
    let mut w = generate(&cfg);
    w.scale_to_load(MachineSpec::BLUEGENE_P.total, load);
    w
}

#[test]
fn oldest_wait_matches_brute_force_under_backfilling() {
    // Conservative's reservation profile is costly in a debug build, so
    // it runs a smaller, lighter workload.
    for (algo, jobs, load) in [
        (Algorithm::Easy, 3000, 1.0),
        (Algorithm::Conservative, 1500, 0.8),
        (Algorithm::Fcfs, 3000, 1.0),
    ] {
        let w = workload(jobs, load);
        let exp = Experiment::new(algo).with_timeline(TimelineConfig {
            stride: Duration::from_secs(1),
            budget: 4096,
        });
        let r = exp.run_raw(&w).unwrap();
        // Premise: a backfilling policy started some job ahead of an
        // earlier submission, so the list was unlinked in its middle
        // (FCFS never does), and the engine's peak waiting count covers
        // every backlog the samples saw.
        let mut by_submit: Vec<&JobOutcome> = r.outcomes.iter().collect();
        by_submit.sort_by_key(|o| (o.submit, o.id));
        assert_eq!(
            by_submit.windows(2).any(|p| p[1].started < p[0].started),
            algo != Algorithm::Fcfs,
            "{algo}: mid-queue starts"
        );
        let samples = &r.timeline.samples;
        let deepest = samples.iter().map(|s| s.queue_depth).max().unwrap_or(0);
        assert!(
            r.engine.peak_wait_views >= u64::from(deepest),
            "{algo}: peak waiting count {} below a sampled queue depth of {deepest}",
            r.engine.peak_wait_views
        );
        assert!(
            samples.len() > 100,
            "{algo}: only {} samples",
            samples.len()
        );
        assert!(
            samples.iter().any(|s| s.oldest_wait_secs > 0),
            "{algo}: nothing waited"
        );
        for s in samples {
            assert_eq!(
                s.oldest_wait_secs,
                oldest_wait(&r.outcomes, s.at),
                "{algo}: sample at {}s",
                s.at.as_secs()
            );
        }
        // The streamed run recycles record slots; same samples.
        let st = exp
            .run_streamed_with(w.source(), RunAccumulator::exact())
            .unwrap();
        assert_eq!(st.timeline, r.timeline, "{algo}: streamed timeline differs");
    }
}
