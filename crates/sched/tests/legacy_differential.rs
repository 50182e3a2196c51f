//! Differential oracle for the composable policy stack.
//!
//! Every registry algorithm is run twice on each generated workload:
//! once through the compositional [`Algorithm::build`] (policy stack)
//! and once through the pre-stack implementation kept verbatim under the
//! `legacy-schedulers` feature. The derived [`RunMetrics`] must be
//! **identical** — and since metric equality includes the DP cache
//! hit/miss counters, this pins not just the schedule but the exact
//! sequence of DP solves each scheduler issued.

use elastisched_metrics::RunMetrics;
use elastisched_sched::{legacy, Algorithm, SchedParams};
use elastisched_sim::{simulate, Machine, Scheduler};
use elastisched_workload::{generate, GeneratorConfig, Workload};

/// Three generated workloads covering the registry's capability matrix:
/// pure batch, heterogeneous (dedicated jobs), and heterogeneous with
/// the paper's elastic-command injection.
fn workloads() -> Vec<(&'static str, Workload)> {
    vec![
        (
            "batch-small-heavy",
            generate(&GeneratorConfig::paper_batch(0.8).with_jobs(300).with_seed(11)),
        ),
        (
            "heterogeneous",
            generate(
                &GeneratorConfig::paper_heterogeneous(0.5, 0.3)
                    .with_jobs(300)
                    .with_seed(22),
            ),
        ),
        (
            "heterogeneous-elastic",
            generate(
                &GeneratorConfig::paper_heterogeneous(0.3, 0.2)
                    .with_paper_eccs()
                    .with_jobs(300)
                    .with_seed(33),
            ),
        ),
    ]
}

fn run(scheduler: Box<dyn Scheduler + Send>, algo: Algorithm, w: &Workload) -> RunMetrics {
    let r = simulate(
        Machine::bluegene_p(),
        scheduler,
        algo.ecc_policy(),
        &w.jobs,
        &w.eccs,
    )
    .expect("simulation runs to completion");
    RunMetrics::from_result(&r)
}

#[test]
fn every_algorithm_matches_its_legacy_oracle() {
    let params = SchedParams::default();
    for (wname, w) in workloads() {
        for algo in Algorithm::ALL {
            let stacked = run(algo.build(params), algo, &w);
            let oracle = run(legacy::build(algo, params), algo, &w);
            assert_eq!(
                stacked, oracle,
                "{algo} diverged from its legacy oracle on workload {wname}:\n\
                 stack:  {stacked:?}\n\
                 legacy: {oracle:?}"
            );
        }
    }
}

#[test]
fn oracle_matches_on_a_deep_backlog() {
    // At load 1.0 the queue stays deep, so Conservative's per-cycle walk
    // reaches its "nothing free now" exit and long profiles, and the
    // ordered backfills drop many too-wide candidates before sorting.
    let mut w = generate(
        &GeneratorConfig::paper_batch(0.5)
            .with_paper_eccs()
            .with_jobs(500)
            .with_seed(66),
    );
    w.scale_to_load(Machine::bluegene_p().total(), 1.0);
    let params = SchedParams::default();
    for algo in [
        Algorithm::Conservative,
        Algorithm::SjfBf,
        Algorithm::SmallestFirstBf,
        Algorithm::LargestFirstBf,
    ] {
        let stacked = run(algo.build(params), algo, &w);
        let oracle = run(legacy::build(algo, params), algo, &w);
        assert_eq!(stacked, oracle, "{algo} diverged on the load-1.0 backlog");
    }
}

#[test]
fn oracle_matches_under_non_default_params() {
    // A second `C_s` exercises the skip-budget plumbing of the
    // Delayed-LOS / Hybrid-LOS pair specifically.
    let params = SchedParams::with_cs(2);
    let w = generate(
        &GeneratorConfig::paper_heterogeneous(0.4, 0.4)
            .with_paper_eccs()
            .with_jobs(250)
            .with_seed(44),
    );
    for algo in [
        Algorithm::DelayedLos,
        Algorithm::DelayedLosE,
        Algorithm::HybridLos,
        Algorithm::HybridLosE,
    ] {
        let stacked = run(algo.build(params), algo, &w);
        let oracle = run(legacy::build(algo, params), algo, &w);
        assert_eq!(stacked, oracle, "{algo} diverged with C_s = 2");
    }
}

#[test]
fn oracle_matches_under_non_default_lookahead() {
    // A shorter DP lookahead changes which candidates every LOS-family
    // scheduler stages; both implementations must honor it. (The legacy
    // LOS-D constructor used to hard-code the default lookahead — this
    // pins the fix on both sides of the differential.)
    let params = SchedParams {
        lookahead: 7,
        ..SchedParams::default()
    };
    let w = generate(
        &GeneratorConfig::paper_heterogeneous(0.4, 0.4)
            .with_paper_eccs()
            .with_jobs(250)
            .with_seed(55),
    );
    for algo in [
        Algorithm::Los,
        Algorithm::LosD,
        Algorithm::LosDE,
        Algorithm::DelayedLos,
        Algorithm::HybridLos,
    ] {
        let stacked = run(algo.build(params), algo, &w);
        let oracle = run(legacy::build(algo, params), algo, &w);
        assert_eq!(stacked, oracle, "{algo} diverged with lookahead = 7");
    }
}
