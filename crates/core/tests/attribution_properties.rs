//! Property-based tests of wait-time attribution.
//!
//! Two invariants, over random workloads × every registry algorithm
//! family the streaming differential suite spans, and over malleable
//! workloads with queued processor ECCs × resizing stacks:
//!
//! 1. **Conservation** — every job's cause buckets sum *exactly* to its
//!    total wait (`sum(causes) == started − eligible`), whole seconds,
//!    no rounding slop. The attribution machinery charges intervals at
//!    cycle boundaries; this pins that the telescoping never loses or
//!    double-counts a span, whatever the policy decided.
//! 2. **Path independence** — a streamed run (per-job state reclaimed
//!    at completion, attributions folded on reclamation) produces the
//!    identical [`AttributionProfile`] to the materialized run, top
//!    blockers included.
//!
//! The second workload family drives the paths the first cannot:
//! malleable grows holding headroom a waiting job needs (the
//! `malleable` cause) and processor ECCs changing a queued job's width,
//! which moves it between the engine's width classes mid-wait.

use elastisched::{Experiment, MachineSpec};
use elastisched_metrics::RunAccumulator;
use elastisched_sched::{Algorithm, SchedParams, StackSpec};
use elastisched_sim::{Duration, Engine, SimResult};
use elastisched_test_util::add_procs_eccs;
use elastisched_workload::{generate, GeneratorConfig, LublinSource, Workload};
use proptest::prelude::*;

/// The same six-family spread the streaming differential suite uses:
/// plain FIFO, backfilling, DP-driven LOS variants, the dedicated
/// layer, and ECC processing.
const ALGORITHMS: [Algorithm; 6] = [
    Algorithm::Fcfs,
    Algorithm::Easy,
    Algorithm::DelayedLos,
    Algorithm::LosD,
    Algorithm::DelayedLosE,
    Algorithm::HybridLosE,
];

/// Stacks that resize jobs: the malleable layer over a skip-budgeted
/// and a backfilling core, with ECCs (time and processor) honoured.
const RESIZING_STACKS: [&str; 2] = ["hybrid-los+m+e", "easy+d+m+e"];

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        0u64..1_000_000,
        30usize..100,
        0usize..3,
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(|(seed, jobs, psi, dedicated, eccs)| {
            let ps = [0.2, 0.5, 0.8][psi];
            let pd = if dedicated { 0.3 } else { 0.0 };
            let mut cfg = GeneratorConfig::paper_heterogeneous(ps, pd)
                .with_jobs(jobs)
                .with_seed(seed);
            if eccs {
                cfg = cfg.with_paper_eccs();
            }
            cfg
        })
}

proptest! {
    // Each case simulates the workload 12 times (6 algorithms × 2
    // paths), so a modest case count already covers a wide space.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cause_buckets_sum_to_the_wait_and_profiles_are_path_independent(
        cfg in arb_config(),
    ) {
        let w = generate(&cfg);
        for algo in ALGORITHMS {
            let exp = Experiment::new(algo).with_attribution();
            let mat = exp.run_raw(&w).unwrap();
            prop_assert_eq!(mat.outcomes.len(), w.len());
            let mut waited = 0u64;
            for o in &mat.outcomes {
                let attr = o.attribution.expect("attribution was enabled");
                prop_assert_eq!(
                    attr.total_secs(),
                    o.wait.as_secs(),
                    "{}: job {} buckets {:?} != wait {}s",
                    algo, o.id.0, attr, o.wait.as_secs()
                );
                waited += o.wait.as_secs();
            }
            // The run-level profile conserves the fleet total too.
            prop_assert_eq!(mat.attribution.total_secs(), waited, "{}", algo);
            prop_assert_eq!(mat.attribution.jobs, w.len() as u64, "{}", algo);

            // Streamed run: identical profile, fold order and all.
            let st = exp
                .run_streamed_with(LublinSource::new(&cfg), RunAccumulator::exact())
                .unwrap();
            prop_assert_eq!(&st.attribution, &mat.attribution, "{}", algo);
        }
    }
}

/// A malleable heterogeneous workload at load 1.0 on the BlueGene/P,
/// with processor ECCs (one to three allocation units, issued up to an
/// hour after submit) derived from its time ECCs.
fn arb_resizing_workload() -> impl Strategy<Value = Workload> {
    (
        0u64..1_000_000,
        30usize..100,
        0usize..3,
        1u32..4,
        1u64..3600,
    )
        .prop_map(|(seed, jobs, pmi, units, delay)| {
            let m = MachineSpec::BLUEGENE_P;
            let cfg = GeneratorConfig::paper_heterogeneous(0.5, 0.3)
                .with_paper_eccs()
                .with_malleable([0.25, 0.5, 0.9][pmi])
                .with_jobs(jobs)
                .with_seed(seed);
            let mut w = generate(&cfg);
            w.scale_to_load(m.total, 1.0);
            add_procs_eccs(
                &w.jobs,
                &mut w.eccs,
                units * m.unit,
                Duration::from_secs(delay),
            );
            w
        })
}

/// `spec` with attribution on and processor ECCs honoured, run through
/// `load` + `run` or as a folded stream of the same slices (the folded
/// outcomes collected back into `SimResult::outcomes`).
fn run_resizing(spec: StackSpec, w: &Workload, folded: bool) -> SimResult {
    let mut policy = spec.ecc_policy();
    policy.resource_elasticity = true;
    let mut engine = Engine::new(
        MachineSpec::BLUEGENE_P.build(),
        spec.build(SchedParams::default()),
        policy,
    );
    engine.enable_attribution();
    if folded {
        let mut outcomes = Vec::new();
        let mut r = engine
            .run_streaming_folded(w.source(), &mut |o| outcomes.push(o.clone()))
            .unwrap();
        r.outcomes = outcomes;
        r
    } else {
        engine.load(&w.jobs, &w.eccs).unwrap();
        engine.run().unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn resizing_stacks_conserve_waits_on_both_paths(w in arb_resizing_workload()) {
        for name in RESIZING_STACKS {
            let spec: StackSpec = name.parse().unwrap();
            let mat = run_resizing(spec, &w, false);
            let st = run_resizing(spec, &w, true);
            let mut waited = 0u64;
            for o in &mat.outcomes {
                let attr = o.attribution.expect("attribution was enabled");
                prop_assert_eq!(
                    attr.total_secs(),
                    o.wait.as_secs(),
                    "{}: job {} buckets {:?} != wait {}s",
                    name, o.id.0, attr, o.wait.as_secs()
                );
                waited += o.wait.as_secs();
            }
            prop_assert_eq!(mat.attribution.total_secs(), waited, "{}", name);
            prop_assert_eq!(&st.attribution, &mat.attribution, "{}", name);
            // Per job, too: same attribution for the same id.
            let by_id = |r: &SimResult| {
                let mut v: Vec<_> = r.outcomes.iter().map(|o| (o.id, o.attribution)).collect();
                v.sort_by_key(|&(id, _)| id);
                v
            };
            prop_assert_eq!(by_id(&st), by_id(&mat), "{}", name);
        }
    }
}
