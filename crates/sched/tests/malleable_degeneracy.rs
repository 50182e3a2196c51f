//! The `+m` degeneracy property, mirroring `registry_properties.rs`.
//!
//! [`WithMalleable`] only acts through the proc-range slack of *running*
//! jobs: on a workload where every job is rigid (`min == max == unset`)
//! both its passes see no candidates, so `<core>+m` must reproduce the
//! plain `<core>` stack *exactly* — same metrics, same DP counters, same
//! start times — for every core in the registry and under the dedicated
//! layer too. A proptest drives the same identity across random loads
//! and seeds, and a companion test pins that the property is not
//! vacuous: with malleable jobs present, resizes actually happen.

use elastisched_metrics::RunMetrics;
use elastisched_sched::{CorePolicy, SchedParams, StackSpec};
use elastisched_sim::{simulate, EccPolicy, Machine, SimResult};
use elastisched_workload::{generate, GeneratorConfig, Workload};
use proptest::prelude::*;

fn run_spec(spec: StackSpec, w: &Workload) -> SimResult {
    simulate(
        Machine::bluegene_p(),
        spec.build(SchedParams::default()),
        EccPolicy::disabled(),
        &w.jobs,
        &w.eccs,
    )
    .expect("simulation runs to completion")
}

fn assert_degenerate(base: StackSpec, mal: StackSpec, w: &Workload, ctx: &str) {
    let base_r = run_spec(base, w);
    let mal_r = run_spec(mal, w);
    assert_eq!(
        mal_r.reconfig.total(),
        0,
        "{mal} resized rigid jobs ({ctx})"
    );
    // RunMetrics equality covers the simulation-derived quantities
    // including the DP cache/incremental counters (see its PartialEq).
    // The scheduler *name* legitimately differs ("EASY" vs "EASY-M") —
    // pin the suffix, then normalize it away for the identity check.
    let base_m = RunMetrics::from_result(&base_r);
    let mut mal_m = RunMetrics::from_result(&mal_r);
    assert_eq!(
        mal_m.scheduler,
        format!("{}-M", base_m.scheduler),
        "({ctx})"
    );
    mal_m.scheduler = base_m.scheduler.clone();
    assert_eq!(base_m, mal_m, "{base} and {mal} diverged ({ctx})");
}

#[test]
fn malleable_layer_degenerates_on_rigid_workloads_for_every_core() {
    let batch = generate(
        &GeneratorConfig::paper_batch(0.7)
            .with_jobs(250)
            .with_seed(11),
    );
    let hetero = generate(
        &GeneratorConfig::paper_heterogeneous(0.5, 0.3)
            .with_jobs(250)
            .with_seed(12),
    );
    for core in CorePolicy::ALL {
        let plain = StackSpec::plain(core);
        assert_degenerate(plain, plain.with_malleable(), &batch, "batch");
        assert_degenerate(
            plain.with_dedicated(),
            plain.with_dedicated().with_malleable(),
            &hetero,
            "heterogeneous",
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The identity holds across random loads and seeds, not just the
    /// two hand-picked workloads above (Delayed-LOS exercises the
    /// interleaved drive, EASY the bulk one).
    #[test]
    fn malleable_degeneracy_holds_across_loads_and_seeds(
        seed in 0u64..1000,
        load_pct in 20u32..95,
        core_idx in 0usize..2,
    ) {
        let w = generate(
            &GeneratorConfig::paper_batch(f64::from(load_pct) / 100.0)
                .with_jobs(120)
                .with_seed(seed),
        );
        let core = [CorePolicy::DelayedLos, CorePolicy::Easy][core_idx];
        let plain = StackSpec::plain(core);
        assert_degenerate(plain, plain.with_malleable(), &w, "proptest");
    }
}

#[test]
fn malleable_degeneracy_is_not_vacuous() {
    // Same generator, malleable fraction turned on: the layer must
    // actually resize something, and the run must still complete every
    // job (capacity conservation is separately pinned under `audit`).
    let w = generate(
        &GeneratorConfig::paper_batch(0.9)
            .with_malleable(0.5)
            .with_jobs(250)
            .with_seed(11),
    );
    assert!(w.jobs.iter().any(|j| j.is_malleable()));
    let spec: StackSpec = "delayed-los+m".parse().unwrap();
    let r = run_spec(spec, &w);
    assert_eq!(r.outcomes.len(), 250);
    assert!(
        r.reconfig.total() > 0,
        "malleable workload produced no resizes"
    );
    // The shrink pass reclaims processors to admit blocked heads under
    // a 0.9 offered load.
    assert!(r.reconfig.shrinks > 0, "no shrink-to-admit fired");
}
