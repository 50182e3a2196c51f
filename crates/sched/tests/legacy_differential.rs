//! Differential test of the policy stacks against the pre-stack
//! scheduler implementations' frozen answers: the schedules of all 19
//! registry algorithms on six fixed, seeded cases are pinned in
//! `fixtures/stack_runs.json`.
//!
//! The fixture was written from the pre-stack scheduler
//! implementations, which the policy stacks replaced and which checked
//! them on exactly these cases until they were retired. Every case is
//! deterministic, so their frozen answers check what they checked.
//! Each of the 70 runs pins
//!
//! * the fields [`RunMetrics`] equality compares — the DP cache and
//!   incremental counters included, so the exact sequence of DP solves
//!   each scheduler issued is pinned, not just the schedule;
//! * an FNV-1a digest of every job's `(id, start, finish, processors)`
//!   in completion order, so two schedules that happen to share their
//!   averages still differ.
//!
//! The cases: 19 algorithms on a batch, a heterogeneous and an elastic
//! heterogeneous workload; a load-1.0 backlog for Conservative and the
//! ordered backfills (Conservative's walk exit and the `*-BF` fit
//! filter run often there); `C_s = 2` for the Delayed-/Hybrid-LOS skip
//! budget; and a DP lookahead of 7 for the LOS family. Each test
//! checks its cases' runs; all share one simulation of every case.
//!
//! Regenerate after an *intentional* scheduling change:
//!
//! ```text
//! ELASTISCHED_BLESS=1 cargo test -p elastisched-sched --test legacy_differential
//! ```

use elastisched_metrics::RunMetrics;
use elastisched_sched::{Algorithm, SchedParams};
use elastisched_sim::{simulate, Machine};
use elastisched_test_util::{bless_or_read, Fnv};
use elastisched_workload::{generate, GeneratorConfig, Workload};
use serde::{Deserialize, Serialize, Value};
use std::sync::OnceLock;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/stack_runs.json"
);

/// The `RunMetrics` fields its equality skips (wall-clock time, engine
/// loop diagnostics and observability planes), left out of the fixture.
const UNPINNED: [&str; 13] = [
    "dp_nanos",
    "engine_events",
    "engine_cycles",
    "events_coalesced",
    "queue_ops",
    "peak_queue_len",
    "engine_nanos",
    "wait_hist",
    "slowdown_hist",
    "cycle_hist",
    "phase_profile",
    "timeline",
    "attribution",
];

/// One pinned run.
#[derive(Debug, Deserialize)]
struct StackRun {
    case: String,
    algorithm: String,
    metrics: RunMetrics,
    /// FNV-1a over every outcome's id, start, finish and processor
    /// count, in completion order, as hex.
    schedule: String,
}

impl Serialize for StackRun {
    fn to_value(&self) -> Value {
        let Value::Map(mut metrics) = self.metrics.to_value() else {
            unreachable!("RunMetrics serializes as a map")
        };
        metrics.retain(|(k, _)| !UNPINNED.contains(&k.as_str()));
        Value::Map(vec![
            ("case".into(), self.case.to_value()),
            ("algorithm".into(), self.algorithm.to_value()),
            ("metrics".into(), Value::Map(metrics)),
            ("schedule".into(), self.schedule.to_value()),
        ])
    }
}

/// One case: a workload, the scheduler parameters, and the algorithms
/// run on it.
struct Case {
    name: &'static str,
    workload: Workload,
    params: SchedParams,
    algorithms: Vec<Algorithm>,
}

fn cases() -> Vec<Case> {
    let every = |name, workload| Case {
        name,
        workload,
        params: SchedParams::default(),
        algorithms: Algorithm::ALL.to_vec(),
    };
    // At load 1.0 the queue stays deep, so Conservative's walk reaches
    // its "nothing more can start now" exit and long profiles, and the
    // ordered backfills drop many too-wide candidates before sorting.
    let mut backlog = generate(
        &GeneratorConfig::paper_batch(0.5)
            .with_paper_eccs()
            .with_jobs(500)
            .with_seed(66),
    );
    backlog.scale_to_load(Machine::bluegene_p().total(), 1.0);
    vec![
        every(
            "batch-small-heavy",
            generate(
                &GeneratorConfig::paper_batch(0.8)
                    .with_jobs(300)
                    .with_seed(11),
            ),
        ),
        every(
            "heterogeneous",
            generate(
                &GeneratorConfig::paper_heterogeneous(0.5, 0.3)
                    .with_jobs(300)
                    .with_seed(22),
            ),
        ),
        every(
            "heterogeneous-elastic",
            generate(
                &GeneratorConfig::paper_heterogeneous(0.3, 0.2)
                    .with_paper_eccs()
                    .with_jobs(300)
                    .with_seed(33),
            ),
        ),
        Case {
            name: "deep-backlog",
            workload: backlog,
            params: SchedParams::default(),
            algorithms: vec![
                Algorithm::Conservative,
                Algorithm::SjfBf,
                Algorithm::SmallestFirstBf,
                Algorithm::LargestFirstBf,
            ],
        },
        // A second `C_s` exercises the skip-budget plumbing of the
        // Delayed-LOS / Hybrid-LOS pair.
        Case {
            name: "cs-2",
            workload: generate(
                &GeneratorConfig::paper_heterogeneous(0.4, 0.4)
                    .with_paper_eccs()
                    .with_jobs(250)
                    .with_seed(44),
            ),
            params: SchedParams::with_cs(2),
            algorithms: vec![
                Algorithm::DelayedLos,
                Algorithm::DelayedLosE,
                Algorithm::HybridLos,
                Algorithm::HybridLosE,
            ],
        },
        // A shorter DP lookahead changes which candidates every
        // LOS-family scheduler stages.
        Case {
            name: "lookahead-7",
            workload: generate(
                &GeneratorConfig::paper_heterogeneous(0.4, 0.4)
                    .with_paper_eccs()
                    .with_jobs(250)
                    .with_seed(55),
            ),
            params: SchedParams {
                lookahead: 7,
                ..SchedParams::default()
            },
            algorithms: vec![
                Algorithm::Los,
                Algorithm::LosD,
                Algorithm::LosDE,
                Algorithm::DelayedLos,
                Algorithm::HybridLos,
            ],
        },
    ]
}

/// Every case's runs through the policy stacks.
fn stack_runs() -> Vec<StackRun> {
    let mut out = Vec::new();
    for case in cases() {
        let w = &case.workload;
        for &algo in &case.algorithms {
            let r = simulate(
                Machine::bluegene_p(),
                algo.build(case.params),
                algo.ecc_policy(),
                &w.jobs,
                &w.eccs,
            )
            .expect("simulation runs to completion");
            let mut schedule = Fnv::default();
            for o in &r.outcomes {
                for v in [o.id.0, o.started.0, o.finished.0, u64::from(o.num)] {
                    schedule.u64(v);
                }
            }
            out.push(StackRun {
                case: case.name.to_string(),
                algorithm: algo.to_string(),
                metrics: RunMetrics::from_result(&r),
                schedule: schedule.hex(),
            });
        }
    }
    out
}

/// The stack runs paired with their pinned runs, computed once per
/// test binary. `None` when blessing: the fixture was just rewritten
/// from the runs, so there is nothing to compare.
fn pinned_runs() -> Option<&'static [(StackRun, StackRun)]> {
    static RUNS: OnceLock<Option<Vec<(StackRun, StackRun)>>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let runs = stack_runs();
        assert_eq!(runs.len(), 70);
        let mut text = serde_json::to_string_pretty(&runs).expect("runs serialize");
        text.push('\n');
        let fixture = bless_or_read(FIXTURE, &text)?;
        let golden: Vec<StackRun> = serde_json::from_str(&fixture).expect("fixture parses");
        assert_eq!(golden.len(), runs.len(), "the case grid changed");
        Some(golden.into_iter().zip(runs).collect())
    })
    .as_deref()
}

/// Assert that every stack run of the cases named in `cases` matches
/// its pinned run.
fn check(cases: &[&str]) {
    let Some(pairs) = pinned_runs() else {
        return;
    };
    let mut checked = 0;
    for (g, r) in pairs {
        assert_eq!((&g.case, &g.algorithm), (&r.case, &r.algorithm));
        if !cases.contains(&r.case.as_str()) {
            continue;
        }
        assert!(
            g.metrics == r.metrics,
            "{} diverged on {}:\nfixture: {:?}\nstack:   {:?}",
            r.algorithm,
            r.case,
            g.metrics,
            r.metrics
        );
        assert_eq!(
            g.schedule, r.schedule,
            "{} scheduled different jobs on {}",
            r.algorithm, r.case
        );
        checked += 1;
    }
    assert!(checked > 0, "no pinned runs for {cases:?}");
}

#[test]
fn every_algorithm_matches_its_legacy_oracle() {
    check(&[
        "batch-small-heavy",
        "heterogeneous",
        "heterogeneous-elastic",
    ]);
}

#[test]
fn oracle_matches_on_a_deep_backlog() {
    check(&["deep-backlog"]);
}

#[test]
fn oracle_matches_under_non_default_params() {
    check(&["cs-2"]);
}

#[test]
fn oracle_matches_under_non_default_lookahead() {
    // A shorter lookahead must reach every LOS-family constructor; the
    // pre-stack LOS-D once hard-coded the default.
    check(&["lookahead-7"]);
}
