//! Oracle for the timeline's `oldest_wait_secs`.
//!
//! The sampler finds the oldest waiting job by scanning the engine's
//! arrival-ordered wait views for the first live one, resuming where
//! the previous sample stopped. Backfilling policies start jobs from
//! the middle of the queue, which leaves dead views behind the oldest
//! live one. Registry policies never borrow the engine's snapshot, so
//! the buffer is compacted at a start once more than 1024 views are
//! dead; the workload is sized to cross that several times, shifting
//! every view under the sampler's resume point. FCFS rides along: it
//! only ever starts the head, so its compactions take the other branch
//! (dropping a dead prefix). This test checks every sample against a
//! brute force over the run's outcomes:
//! at `at`, the waiting jobs are those with `submit <= at < started`,
//! and the oldest wait is `at - min(submit)` over them, or 0.

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
    // it runs a smaller, lighter workload that still compacts.
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
        // earlier submission, so dead views sat behind live ones (FCFS
        // never does), and the buffer was compacted.
        let mut by_submit: Vec<&JobOutcome> = r.outcomes.iter().collect();
        by_submit.sort_by_key(|o| (o.submit, o.id));
        assert_eq!(
            by_submit.windows(2).any(|p| p[1].started < p[0].started),
            algo != Algorithm::Fcfs,
            "{algo}: mid-queue starts"
        );
        assert!(
            r.engine.peak_wait_views < jobs as u64,
            "{algo}: the wait-view buffer was never compacted"
        );
        let samples = &r.timeline.samples;
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
