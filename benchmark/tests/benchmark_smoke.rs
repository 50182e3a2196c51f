//! Runs `benchmark --smoke` (every workload at tiny sizes, untraced and
//! traced) and checks that it measures exactly the workloads and metrics
//! `BENCHMARK.json` declares, with the declared units.

use serde::Deserialize;
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Spec {
    workloads: Vec<Named>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Deserialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[test]
fn smoke_prints_the_declared_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Spec = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--smoke")
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "benchmark --smoke failed:\n{stdout}");

    let results: Vec<ResultLine> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    // One line per workload and mode, then the combined line.
    assert_eq!(results.len(), 2 * spec.workloads.len() + 1, "{stdout}");
    for r in &results {
        assert!(r.correct && r.failed == 0 && r.attempted > 0, "{stdout}");
    }

    // The combined line names each metric `<workload>.<metric>`.
    let combined = results.last().unwrap();
    let mut seen: BTreeMap<&str, BTreeMap<&str, &str>> = BTreeMap::new();
    for (key, v) in &combined.metrics {
        let (workload, metric) = key.split_once('.').unwrap();
        assert!(v.value.is_finite(), "{key}");
        seen.entry(workload).or_default().insert(metric, &v.unit);
    }
    let workloads: BTreeSet<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(seen.keys().copied().collect::<BTreeSet<_>>(), workloads);
    let declared: BTreeMap<&str, &str> = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    for (workload, metrics) in &seen {
        assert_eq!(
            metrics, &declared,
            "{workload} prints other metrics than declared"
        );
    }
}
