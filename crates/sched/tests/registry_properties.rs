//! Registry-wide structural properties of the policy stack.
//!
//! The layered construction makes two degeneracies hold *by design*, for
//! every core in the registry rather than for hand-picked pairs:
//!
//! * **`+d` degeneracy** — on a workload with no dedicated jobs, the
//!   dedicated layer has nothing to promote and no claim to freeze, so
//!   `<core>+d` must start every job at exactly the same time as the
//!   plain `<core>` stack.
//! * **`-E` degeneracy** — the `-E` variants are the *same* scheduler
//!   struct run under a different engine ECC policy, so building an
//!   elastic algorithm and running it with [`EccPolicy::disabled`] must
//!   reproduce the plain variant's metrics exactly.

use elastisched_metrics::RunMetrics;
use elastisched_sched::{Algorithm, CorePolicy, SchedParams, StackSpec};
use elastisched_sim::{simulate, EccPolicy, Machine, SimResult};
use elastisched_workload::{generate, GeneratorConfig, Workload};

fn batch_only_workloads() -> Vec<Workload> {
    vec![
        generate(
            &GeneratorConfig::paper_batch(0.8)
                .with_jobs(250)
                .with_seed(7),
        ),
        generate(
            &GeneratorConfig::paper_batch(0.3)
                .with_jobs(250)
                .with_seed(8),
        ),
    ]
}

fn run_spec(spec: StackSpec, ecc: EccPolicy, w: &Workload) -> SimResult {
    simulate(
        Machine::bluegene_p(),
        spec.build(SchedParams::default()),
        ecc,
        &w.jobs,
        &w.eccs,
    )
    .expect("simulation runs to completion")
}

fn start_times(r: &SimResult) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = r
        .outcomes
        .iter()
        .map(|o| (o.id.0, o.started.as_secs()))
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn dedicated_layer_degenerates_on_pure_batch_workloads() {
    for (wi, w) in batch_only_workloads().iter().enumerate() {
        for core in CorePolicy::ALL {
            let plain = StackSpec::plain(core);
            let plain_r = run_spec(plain, EccPolicy::disabled(), w);
            let ded_r = run_spec(plain.with_dedicated(), EccPolicy::disabled(), w);
            assert_eq!(
                start_times(&plain_r),
                start_times(&ded_r),
                "{} and {} diverged on pure-batch workload #{wi}",
                plain,
                plain.with_dedicated(),
            );
        }
    }
}

#[test]
fn elastic_variants_degenerate_when_ecc_processor_is_off() {
    let w = generate(
        &GeneratorConfig::paper_heterogeneous(0.5, 0.3)
            .with_paper_eccs()
            .with_jobs(250)
            .with_seed(9),
    );
    for algo in Algorithm::ALL.into_iter().filter(Algorithm::elastic) {
        let plain_spec = StackSpec {
            elastic: false,
            ..algo.stack_spec()
        };
        // Same struct, same (disabled) engine policy → identical metrics.
        let elastic_off = run_spec(algo.stack_spec(), EccPolicy::disabled(), &w);
        let plain = run_spec(plain_spec, EccPolicy::disabled(), &w);
        assert_eq!(
            RunMetrics::from_result(&elastic_off),
            RunMetrics::from_result(&plain),
            "{algo} with the ECC processor disabled diverged from {plain_spec}"
        );
        // And with the processor on, the elastic run actually applies
        // commands (the degeneracy is not vacuous).
        let elastic_on = run_spec(algo.stack_spec(), algo.ecc_policy(), &w);
        assert!(
            RunMetrics::from_result(&elastic_on).eccs_applied > 0,
            "{algo} applied no ECCs on an elastic workload"
        );
    }
}
