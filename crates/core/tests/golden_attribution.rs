//! Golden-fixture test: the wait-attribution profile for a tiny,
//! fully deterministic run is pinned byte-for-byte.
//!
//! The run is the same 24-job staircase the timeline fixture uses
//! (320-processor batch jobs arriving every 50 seconds, each running
//! 400 seconds) under Delayed-LOS: jobs pile up behind the capacity
//! they need, so every cause bucket the staircase can produce —
//! capacity wait with concrete blockers, policy-skip wait from the
//! lookahead — lands in the profile. The fixture pins the charging
//! arithmetic, the Misra–Gries blocker ranking, and the serde layout
//! in one artifact.
//!
//! Regenerate after an *intentional* attribution or serialization
//! change:
//!
//! ```text
//! ELASTISCHED_BLESS=1 cargo test -p elastisched --test golden_attribution
//! ```

use elastisched::prelude::*;
use elastisched_sim::AttributionProfile;
use elastisched_test_util::{assert_golden, read_fixture};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/staircase_attribution.json"
);

fn staircase_attribution() -> AttributionProfile {
    let jobs: Vec<JobSpec> = (0..24)
        .map(|i| JobSpec::batch(i + 1, i * 50, 320, 400))
        .collect();
    let workload = Workload::from_jobs(jobs);
    let r = Experiment::new(Algorithm::DelayedLos)
        .with_attribution()
        .run_raw(&workload)
        .unwrap();
    r.attribution
}

#[test]
fn staircase_attribution_matches_golden_fixture() {
    let profile = staircase_attribution();
    assert!(
        profile.total_secs() > 0,
        "the staircase must queue: a zero-wait fixture pins nothing"
    );
    let mut text = serde_json::to_string_pretty(&profile).expect("profile serializes");
    text.push('\n');
    assert_golden(FIXTURE, &text);
}

#[test]
fn golden_fixture_round_trips_through_serde() {
    let golden = read_fixture(FIXTURE);
    let parsed: AttributionProfile =
        serde_json::from_str(&golden).expect("fixture is a valid profile");
    assert_eq!(parsed, staircase_attribution(), "parse(export(p)) == p");
    // The staircase is pure capacity contention: each job waits on the
    // processors its predecessors hold, so the profile names blockers
    // and charges nothing to freezes or reconfiguration.
    assert!(
        !parsed.top_blockers.is_empty(),
        "capacity waits name blockers"
    );
    assert_eq!(parsed.ecc_secs, 0);
    assert_eq!(parsed.freeze_secs, 0);
    assert_eq!(parsed.jobs, 24);
}
