//! End-to-end engine determinism contract.
//!
//! The event-loop internals (queue data structure, same-instant
//! coalescing, snapshot plumbing) must never change *what* a simulation
//! computes — only how fast. This test pins `RunMetrics` for every
//! registry scheduler on seeded Lublin workloads against a golden
//! fixture generated before the engine hot-path overhaul, so any
//! semantic drift in the engine shows up as a metrics diff.
//!
//! `RunMetrics` equality already ignores wall-clock nanosecond fields
//! and engine-loop diagnostics, so the comparison is bit-exact on every
//! simulation-derived quantity.
//!
//! Regenerate (only when a *deliberate* semantic change is made):
//!
//! ```text
//! ELASTISCHED_BLESS=1 cargo test -p elastisched --test engine_determinism
//! ```

use elastisched::Experiment;
use elastisched_metrics::RunMetrics;
use elastisched_sched::{Algorithm, StackSpec};
use elastisched_test_util::bless_or_read;
use elastisched_workload::{generate, GeneratorConfig, Workload};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden_engine_metrics.json"
);

const MALLEABLE_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden_malleable_metrics.json"
);

/// Every algorithm the registry can build, in a stable order.
const ALGORITHMS: [Algorithm; 19] = [
    Algorithm::Fcfs,
    Algorithm::Conservative,
    Algorithm::Easy,
    Algorithm::EasyD,
    Algorithm::EasyE,
    Algorithm::EasyDE,
    Algorithm::Los,
    Algorithm::LosD,
    Algorithm::LosE,
    Algorithm::LosDE,
    Algorithm::DelayedLos,
    Algorithm::HybridLos,
    Algorithm::DelayedLosE,
    Algorithm::HybridLosE,
    Algorithm::Adaptive,
    Algorithm::Sjf,
    Algorithm::SjfBf,
    Algorithm::SmallestFirstBf,
    Algorithm::LargestFirstBf,
];

/// A seeded Lublin batch workload with the paper's ECC mix.
fn batch_workload() -> Workload {
    generate(
        &GeneratorConfig::paper_batch(0.5)
            .with_paper_eccs()
            .with_jobs(300)
            .with_seed(42),
    )
}

/// A seeded heterogeneous workload (dedicated jobs + ECCs) exercising
/// the Reservation_DP and dedicated-promotion paths.
fn heterogeneous_workload() -> Workload {
    generate(
        &GeneratorConfig::paper_heterogeneous(0.5, 0.3)
            .with_paper_eccs()
            .with_jobs(300)
            .with_seed(7),
    )
}

/// The fixture text for `metrics`: pretty JSON plus a final newline.
fn pretty(metrics: &[RunMetrics]) -> String {
    let json = serde_json::to_string_pretty(metrics).expect("metrics serialize");
    format!("{json}\n")
}

fn run_all() -> Vec<RunMetrics> {
    let batch = batch_workload();
    let hetero = heterogeneous_workload();
    let mut out = Vec::new();
    for workload in [&batch, &hetero] {
        for algo in ALGORITHMS {
            out.push(Experiment::new(algo).run(workload).expect("run succeeds"));
        }
    }
    out
}

#[test]
fn run_metrics_match_pre_overhaul_golden() {
    let measured = run_all();
    let Some(fixture) = bless_or_read(GOLDEN_PATH, &pretty(&measured)) else {
        return;
    };
    let golden: Vec<RunMetrics> = serde_json::from_str(&fixture).expect("fixture parses");
    assert_eq!(
        golden.len(),
        measured.len(),
        "algorithm × workload grid changed"
    );
    for (g, m) in golden.iter().zip(&measured) {
        assert_eq!(g, m, "RunMetrics drifted for {}", g.scheduler);
    }
}

/// The `+m` stacks on a half-malleable workload, pinning the
/// work-conserving resize semantics (shrink-to-admit, profitable grows,
/// reconfiguration charges) bit-for-bit. Separate fixture from the
/// rigid grid above so rigid goldens never churn when malleable
/// behaviour evolves deliberately.
///
/// Regenerate: `ELASTISCHED_BLESS=1 cargo test -p elastisched --test
/// engine_determinism malleable`.
#[test]
fn malleable_run_metrics_match_golden() {
    let w = generate(
        &GeneratorConfig::paper_heterogeneous(0.5, 0.3)
            .with_malleable(0.5)
            .with_jobs(300)
            .with_seed(7),
    );
    let measured: Vec<RunMetrics> = ["delayed-los+m", "hybrid-los+d+m", "easy+m", "fcfs+m"]
        .iter()
        .map(|spec| {
            Experiment::new(spec.parse::<StackSpec>().unwrap())
                .run(&w)
                .expect("run succeeds")
        })
        .collect();
    assert!(
        measured
            .iter()
            .any(|m| m.reconfig_grows + m.reconfig_shrinks > 0),
        "golden grid exercises no resizes"
    );
    let Some(fixture) = bless_or_read(MALLEABLE_GOLDEN_PATH, &pretty(&measured)) else {
        return;
    };
    let golden: Vec<RunMetrics> = serde_json::from_str(&fixture).expect("fixture parses");
    assert_eq!(golden.len(), measured.len(), "malleable spec grid changed");
    for (g, m) in golden.iter().zip(&measured) {
        assert_eq!(g, m, "RunMetrics drifted for {}", g.scheduler);
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Same seed → same metrics, twice over, for a representative spread
    // of policies (cheap subset of the full grid).
    let w = heterogeneous_workload();
    for algo in [
        Algorithm::Easy,
        Algorithm::DelayedLosE,
        Algorithm::HybridLos,
    ] {
        let a = Experiment::new(algo).run(&w).expect("run succeeds");
        let b = Experiment::new(algo).run(&w).expect("run succeeds");
        assert_eq!(a, b, "{algo:?} not deterministic");
    }
}
