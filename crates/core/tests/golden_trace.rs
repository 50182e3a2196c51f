//! Golden-fixture test: the JSONL trace of a tiny, fully deterministic
//! run is pinned byte-for-byte.
//!
//! The run is the paper's Figure 2 workload (three batch jobs of 224,
//! 128, and 192 processors submitted together) under Delayed-LOS — small
//! enough to review by eye, rich enough to exercise the head-skip and
//! DP-selection decision events. Timing is disabled on the sink so every
//! `Cycle::nanos` is zero and the bytes cannot drift between runs.
//!
//! Regenerate after an *intentional* taxonomy or serialization change:
//!
//! ```text
//! ELASTISCHED_BLESS=1 cargo test -p elastisched --test golden_trace
//! ```

use elastisched::prelude::*;
use elastisched_test_util::{assert_golden, read_fixture};
use elastisched_trace::{from_jsonl, to_jsonl, TraceSink};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/figure2_trace.jsonl"
);

fn figure2_jsonl() -> String {
    let jobs = vec![
        JobSpec::batch(1, 0, 224, 100),
        JobSpec::batch(2, 0, 128, 100),
        JobSpec::batch(3, 0, 192, 100),
    ];
    let workload = Workload::from_jobs(jobs);
    let mut sink = TraceSink::new();
    sink.disable_timing();
    let exp = Experiment {
        trace: Some(sink),
        ..Experiment::new(Algorithm::DelayedLos)
    };
    let result = exp.run_raw(&workload).unwrap();
    let trace = result.trace.expect("tracing was enabled");
    to_jsonl(trace.events())
}

#[test]
fn figure2_trace_matches_golden_fixture() {
    assert_golden(FIXTURE, &figure2_jsonl());
}

#[test]
fn golden_fixture_parses_and_contains_decisions() {
    let golden = read_fixture(FIXTURE);
    let events = from_jsonl(&golden).expect("fixture is valid JSONL");
    use elastisched_trace::TraceEvent;
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::HeadSkip { job: 1, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::DpSelect { .. })));
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Finish { .. }))
            .count(),
        3,
        "all three jobs finish inside the fixture window"
    );
}
