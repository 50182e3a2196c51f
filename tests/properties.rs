//! Property-based integration tests: random workloads against every
//! scheduler, checking the simulation's conservation laws and the
//! schedulers' contracts.

use elastisched::prelude::*;
use elastisched_sched::SchedParams;
use proptest::prelude::*;

/// Random job streams on the BlueGene/P machine (sizes are multiples of
/// 32 in [32, 320]).
fn arb_jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    let job = (
        0u64..2_000,   // submit
        1u32..=10,     // size in units
        1u64..500,     // duration
        prop::bool::ANY, // dedicated?
        1u64..1_500,   // dedicated start offset
    );
    prop::collection::vec(job, 1..40).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (submit, units, dur, dedicated, offset))| {
                if dedicated {
                    JobSpec::dedicated(i as u64 + 1, submit, units * 32, dur, submit + offset)
                } else {
                    JobSpec::batch(i as u64 + 1, submit, units * 32, dur)
                }
            })
            .collect()
    })
}

/// Random ECCs referencing jobs 1..=n (some may miss).
fn arb_eccs(max_job: u64) -> impl Strategy<Value = Vec<EccSpec>> {
    let ecc = (
        1u64..=max_job + 3, // job id, possibly dangling
        0u64..3_000,        // issue time
        0u8..4,             // kind
        1u64..400,          // amount
    );
    prop::collection::vec(ecc, 0..15).prop_map(|raw| {
        raw.into_iter()
            .map(|(job, issue, kind, amount)| EccSpec {
                job: JobId(job),
                issue_at: SimTime::from_secs(issue),
                kind: match kind {
                    0 => EccKind::ExtendTime,
                    1 => EccKind::ReduceTime,
                    2 => EccKind::ExtendProcs,
                    _ => EccKind::ReduceProcs,
                },
                amount,
            })
            .collect()
    })
}

const ALGOS: [Algorithm; 13] = [
    Algorithm::Fcfs,
    Algorithm::Conservative,
    Algorithm::Easy,
    Algorithm::Los,
    Algorithm::DelayedLos,
    Algorithm::EasyD,
    Algorithm::LosD,
    Algorithm::HybridLos,
    Algorithm::Adaptive,
    Algorithm::Sjf,
    Algorithm::SjfBf,
    Algorithm::SmallestFirstBf,
    Algorithm::LargestFirstBf,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every scheduler completes every job exactly once, and the busy
    /// integral equals the total work done.
    #[test]
    fn conservation_laws(jobs in arb_jobs(), algo_idx in 0usize..ALGOS.len()) {
        let algo = ALGOS[algo_idx];
        let w = Workload::from_jobs(jobs.clone());
        let exp = Experiment {
            params: SchedParams::with_cs(3),
            machine: MachineSpec::BLUEGENE_P,
            ..Experiment::new(algo)
        };
        let r = exp.run_raw(&w).expect("simulation completes");
        prop_assert_eq!(r.outcomes.len(), jobs.len());
        // Each job completed exactly once.
        let mut seen: Vec<u64> = r.outcomes.iter().map(|o| o.id.0).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), jobs.len());
        // Work conservation.
        let work: f64 = r
            .outcomes
            .iter()
            .map(|o| o.num as f64 * o.runtime.as_secs_f64())
            .sum();
        prop_assert!((r.busy_area - work).abs() < 1e-6);
        // Utilization in [0, 1].
        let util = r.mean_utilization();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&util));
        // Independent sweep-line oracle: the schedule is physically
        // feasible and the engine's busy-area bookkeeping agrees.
        // (Batch-only schedulers legitimately ignore requested starts, so
        // that check only applies to heterogeneous-capable algorithms.)
        let violations: Vec<_> = elastisched_metrics::validate_schedule(&r.outcomes, 320)
            .into_iter()
            .filter(|v| {
                algo.heterogeneous()
                    || !matches!(
                        v,
                        elastisched_metrics::Violation::StartedBeforeRequestedStart { .. }
                    )
            })
            .collect();
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
        let occ = elastisched_metrics::occupancy(&r.outcomes);
        prop_assert!(occ.peak <= 320);
        prop_assert!((occ.busy_area - r.busy_area).abs() < 1e-6);
    }

    /// No job ever starts before it is eligible; dedicated jobs never
    /// start before their requested start under heterogeneous-capable
    /// schedulers.
    #[test]
    fn start_time_contracts(jobs in arb_jobs(), algo_idx in 0usize..3) {
        let algo = [Algorithm::EasyD, Algorithm::LosD, Algorithm::HybridLos][algo_idx];
        let w = Workload::from_jobs(jobs);
        let exp = Experiment::new(algo);
        let r = exp.run_raw(&w).expect("simulation completes");
        for o in &r.outcomes {
            prop_assert!(o.started >= o.submit, "{:?} started before submit", o.id);
            if let Some(start) = o.requested_start {
                prop_assert!(
                    o.started >= start,
                    "{:?} started at {} before requested {}",
                    o.id,
                    o.started.as_secs(),
                    start.as_secs()
                );
            }
            prop_assert_eq!(o.finished, o.started + o.runtime);
        }
    }

    /// ECC accounting is conserved: every issued command is counted
    /// exactly once (applied, policy-dropped, or stale), under both the
    /// disabled and full-elasticity policies.
    #[test]
    fn ecc_accounting(jobs in arb_jobs(), eccs_seed in arb_eccs(40)) {
        let n = jobs.len() as u64;
        let eccs: Vec<EccSpec> = eccs_seed
            .into_iter()
            .map(|mut e| {
                // Keep some dangling ids to exercise the stale path.
                if e.job.0 > n + 2 {
                    e.job = JobId(n + 3);
                }
                e
            })
            .collect();
        let w = Workload { jobs, eccs: eccs.clone() };
        for policy_elastic in [false, true] {
            let algo = if policy_elastic {
                Algorithm::DelayedLosE
            } else {
                Algorithm::DelayedLos
            };
            let r = Experiment::new(algo).run_raw(&w).expect("completes");
            let counted = r.ecc.applied_running
                + r.ecc.applied_queued
                + r.ecc.dropped_policy
                + r.ecc.dropped_stale;
            prop_assert_eq!(counted, eccs.len() as u64);
            if !policy_elastic {
                prop_assert_eq!(r.ecc.applied(), 0);
            }
        }
    }

    /// Resource-dimension elasticity never oversubscribes and never
    /// shrinks a job below one allocation unit.
    #[test]
    fn resource_elasticity_bounds(jobs in arb_jobs(), eccs in arb_eccs(40)) {
        let w = Workload { jobs, eccs };
        let scheduler = elastisched_sched::DelayedLos::new();
        let mut engine = elastisched_sim::Engine::new(
            Machine::bluegene_p(),
            scheduler,
            EccPolicy::with_resource_elasticity(),
        );
        engine.load(&w.jobs, &w.eccs).expect("valid workload");
        let r = engine.run().expect("simulation completes");
        for o in &r.outcomes {
            prop_assert!(o.num >= 32 && o.num <= 320);
            prop_assert_eq!(o.num % 32, 0);
        }
    }

    /// The CWF text round-trip is the identity on generated workloads.
    #[test]
    fn cwf_roundtrip_identity(seed in 0u64..500, ps in 0.0f64..=1.0, pd in 0.0f64..=1.0) {
        let w = generate(
            &GeneratorConfig::paper_heterogeneous(ps, pd)
                .with_paper_eccs()
                .with_jobs(30)
                .with_seed(seed),
        );
        let text = CwfFile::from_workload(&w).to_text();
        let back = CwfFile::parse(&text).expect("parses").to_workload();
        prop_assert_eq!(w, back);
    }
}
