//! Golden-fixture test: the sampler's JSONL export for a tiny,
//! fully deterministic run is pinned byte-for-byte.
//!
//! The run is a 24-job staircase (320-processor batch jobs arriving
//! every 50 seconds, each running 400 seconds) under Delayed-LOS,
//! sampled on a 100-second stride with a budget of 8 points — the
//! ~10000-second makespan forces repeated decimation, so the fixture
//! pins the decimation arithmetic as well as the serialization.
//!
//! Regenerate after an *intentional* sampler or serialization change:
//!
//! ```text
//! ELASTISCHED_BLESS=1 cargo test -p elastisched --test golden_timeline
//! ```

use elastisched::prelude::*;
use elastisched_sim::RunTimeline;
use elastisched_test_util::{assert_golden, read_fixture};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/staircase_timeline.jsonl"
);

fn staircase_timeline() -> RunTimeline {
    let jobs: Vec<JobSpec> = (0..24)
        .map(|i| JobSpec::batch(i + 1, i * 50, 320, 400))
        .collect();
    let workload = Workload::from_jobs(jobs);
    let r = Experiment::new(Algorithm::DelayedLos)
        .with_timeline(TimelineConfig {
            stride: Duration::from_secs(100),
            budget: 8,
        })
        .run_raw(&workload)
        .unwrap();
    r.timeline
}

#[test]
fn staircase_timeline_matches_golden_fixture() {
    let tl = staircase_timeline();
    assert!(
        tl.decimations > 0,
        "budget 8 over ~10000s at 100s must decimate"
    );
    assert_golden(FIXTURE, &tl.to_jsonl());
}

#[test]
fn golden_fixture_round_trips_through_the_parser() {
    let golden = read_fixture(FIXTURE);
    let parsed = RunTimeline::from_jsonl(&golden).expect("fixture is valid timeline JSONL");
    assert_eq!(parsed, staircase_timeline(), "parse(export(tl)) == tl");
    // The final forced sample captures the end of the run: everything
    // finished, machine drained.
    let last = parsed.samples.last().expect("non-empty");
    assert_eq!(last.running, 0);
    assert_eq!(last.queue_depth, 0);
    assert_eq!(last.util, 0.0);
}
