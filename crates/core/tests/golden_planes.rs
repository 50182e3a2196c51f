//! Golden-fixture test: the attribution and timeline planes of every
//! registry algorithm (plus two composed stacks) are pinned on seeded
//! 300-job workloads.
//!
//! `RunMetrics` equality and the repository benchmark's digest both
//! skip these planes, and the staircase fixtures cover one policy on a
//! 24-job toy. This fixture pins, per run, the run-level
//! [`AttributionProfile`], an FNV-1a digest over every job's
//! `WaitAttribution`, and an FNV-1a digest of the timeline's JSONL
//! export — so any change to how waits are charged or how the sampler
//! reads the queue shows up here, byte for byte.
//!
//! Two workloads at load 1.0 on the BlueGene/P: a heterogeneous one
//! (dedicated jobs, paper ECC rates) and the same shape with half the
//! jobs malleable. The generator emits only time ECCs, so processor
//! ECCs of one allocation unit are derived from them, issued a second
//! after each job's submit, and the `-E` stacks run with resource
//! elasticity on: queued jobs change width mid-wait.
//!
//! Regenerate after an *intentional* attribution, sampler, or
//! serialization change:
//!
//! ```text
//! ELASTISCHED_BLESS=1 cargo test -p elastisched --test golden_planes
//! ```

use elastisched::MachineSpec;
use elastisched_sched::{Algorithm, SchedParams, StackSpec};
use elastisched_sim::{AttributionProfile, Duration, Engine, SimResult, TimelineConfig};
use elastisched_test_util::{add_procs_eccs, assert_golden, Fnv};
use elastisched_workload::{generate, GeneratorConfig, Workload};
use serde::{Deserialize, Serialize};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/plane_digests.json"
);

const MACHINE: MachineSpec = MachineSpec::BLUEGENE_P;

/// One pinned run.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct PlaneRun {
    workload: String,
    stack: String,
    profile: AttributionProfile,
    /// FNV-1a over every outcome's id and `WaitAttribution`, in
    /// completion order, as hex.
    attribution_digest: String,
    /// FNV-1a over `RunTimeline::to_jsonl()`, as hex.
    timeline_digest: String,
}

fn workloads() -> Vec<(&'static str, Workload)> {
    let base = GeneratorConfig::paper_heterogeneous(0.5, 0.3)
        .with_paper_eccs()
        .with_jobs(300);
    [
        ("hetero", base.with_seed(2012)),
        ("malleable", base.with_malleable(0.5).with_seed(2020)),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        let mut w = generate(&cfg);
        w.scale_to_load(MACHINE.total, 1.0);
        add_procs_eccs(&w.jobs, &mut w.eccs, MACHINE.unit, Duration::from_secs(1));
        (name, w)
    })
    .collect()
}

fn stacks() -> Vec<StackSpec> {
    let mut v: Vec<StackSpec> = Algorithm::ALL.iter().map(|a| a.stack_spec()).collect();
    for s in ["hybrid-los+m+e", "easy+d+m"] {
        v.push(s.parse().expect("valid stack spec"));
    }
    v
}

fn run(spec: StackSpec, w: &Workload) -> SimResult {
    let mut policy = spec.ecc_policy();
    policy.resource_elasticity = policy.time_elasticity;
    let mut engine = Engine::new(MACHINE.build(), spec.build(SchedParams::default()), policy);
    engine.enable_attribution();
    engine.enable_timeline(TimelineConfig::default());
    engine.load(&w.jobs, &w.eccs).unwrap();
    engine.run().unwrap()
}

fn attribution_digest(r: &SimResult) -> String {
    let mut h = Fnv::default();
    for o in &r.outcomes {
        let a = o.attribution.expect("attribution was enabled");
        h.u64(o.id.0);
        for v in [
            a.capacity_secs,
            a.dedicated_secs,
            a.ecc_secs,
            a.malleable_secs,
            a.policy_skip_secs,
            a.freeze_secs,
            a.lead_blocker.map_or(u64::MAX, |b| b),
            a.lead_blocker_secs,
        ] {
            h.u64(v);
        }
    }
    h.hex()
}

fn plane_runs() -> Vec<PlaneRun> {
    let mut out = Vec::new();
    for (name, w) in workloads() {
        for spec in stacks() {
            let r = run(spec, &w);
            let mut tl = Fnv::default();
            tl.bytes(r.timeline.to_jsonl().as_bytes());
            out.push(PlaneRun {
                workload: name.to_string(),
                stack: spec.to_string(),
                attribution_digest: attribution_digest(&r),
                timeline_digest: tl.hex(),
                profile: r.attribution,
            });
        }
    }
    out
}

#[test]
fn wait_planes_match_golden_fixture() {
    let runs = plane_runs();
    // The fixture must pin the paths it claims to: every cause family
    // is charged somewhere (the malleable seed is one where both `+m`
    // stacks hold headroom a waiting job needed).
    let sum = |f: fn(&AttributionProfile) -> u64| runs.iter().map(|r| f(&r.profile)).sum::<u64>();
    assert!(sum(|p| p.capacity_secs) > 0);
    assert!(sum(|p| p.dedicated_secs) > 0);
    assert!(sum(|p| p.ecc_secs) > 0);
    assert!(sum(|p| p.malleable_secs) > 0);
    assert!(sum(|p| p.policy_skip_secs) > 0);
    assert!(sum(|p| p.freeze_secs) > 0);
    let mut text = serde_json::to_string_pretty(&runs).expect("runs serialize");
    text.push('\n');
    assert_golden(FIXTURE, &text);
}

#[test]
fn derived_procs_eccs_reach_queued_jobs() {
    // Guard the fixture's premise: with resource elasticity on, some
    // derived processor ECC lands on a job that is still waiting.
    let (_, w) = workloads().remove(0);
    let spec = Algorithm::HybridLosE.stack_spec();
    let r = run(spec, &w);
    assert!(r.ecc.applied_queued > 0, "{:?}", r.ecc);
    let queued_procs = w
        .eccs
        .iter()
        .filter(|e| !e.kind.is_time())
        .filter(|e| {
            r.outcomes
                .iter()
                .find(|o| o.id == e.job)
                .is_some_and(|o| o.started > e.issue_at)
        })
        .count();
    assert!(queued_procs > 0, "no processor ECC landed on a waiting job");
}
