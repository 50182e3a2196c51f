//! Golden-fixture test: the standard metric set's two renderings are
//! pinned byte-for-byte.
//!
//! A fresh `MetricsRegistry::standard()` takes one write to a counter,
//! a gauge and a histogram; the Prometheus text exposition (`/metrics`)
//! and the `MetricsSnapshot` JSON (the `/status` payload) must then match
//! the fixtures exactly. Between them they pin every metric's name, help
//! text, kind and registration order.
//!
//! Regenerate after an *intentional* change to the standard set:
//!
//! ```text
//! ELASTISCHED_BLESS=1 cargo test -p elastisched --test golden_exposition
//! ```

use elastisched_test_util::assert_golden;
use elastisched_trace::metrics::{keys, MetricsRegistry};

const PROMETHEUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/standard_metrics.prom"
);
const SNAPSHOT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/standard_metrics_snapshot.json"
);

fn written_registry() -> MetricsRegistry {
    let reg = MetricsRegistry::standard();
    reg.counter_add(keys::RUNS_TOTAL, 3);
    reg.gauge_set(keys::SWEEP_ETA_SECONDS, 12.5);
    reg.observe(keys::POINT_MILLIS, 42);
    reg
}

#[test]
fn prometheus_exposition_matches_golden_fixture() {
    let text = written_registry().snapshot().to_prometheus();
    assert_golden(PROMETHEUS, &text);
}

#[test]
fn snapshot_json_matches_golden_fixture() {
    let snap = written_registry().snapshot();
    let json = serde_json::to_string_pretty(&snap).expect("snapshot serializes") + "\n";
    assert_golden(SNAPSHOT, &json);
}
