//! Streaming ≡ materialized differential suite.
//!
//! Every test runs the same workload twice — once materialized
//! (`Engine::load` + `run`, via [`Experiment::run`]) and once pulled
//! lazily from a [`JobSource`] with per-job state reclaimed at
//! completion — and asserts [`RunMetrics`] *identity*. RunMetrics
//! equality covers every simulation-derived quantity including the DP
//! cache hit/miss and incremental counters, so a pass means the
//! streamed engine made bit-for-bit the same scheduling decisions in
//! the same order, not merely similar aggregates.
//!
//! The fixed workloads above are backed by a random-input proptest
//! (`random_workloads_run_identically_on_both_paths`): every registry
//! algorithm plus the two resizing stacks, on random workloads with
//! bursts, dedicated jobs, malleable ranges and time and processor ECCs
//! on queued, running and completed targets, must give the same
//! `RunMetrics` and the same per-job `(id, started, finished, num)`
//! through `load` + `run` as through a folded run over the same slices.

use elastisched::{Experiment, MachineSpec};
use elastisched_metrics::{RunAccumulator, RunMetrics};
use elastisched_sched::{Algorithm, SchedParams, StackSpec};
use elastisched_sim::{
    Duration, EccKind, EccPolicy, EccSpec, Engine, JobId, JobSpec, SimResult, SimTime,
};
use elastisched_workload::{
    generate, CwfFile, CwfSource, GeneratorConfig, LublinSource, ScaleArrivals, SwfFile, SwfRecord,
    SwfSource, Workload,
};
use proptest::prelude::*;

/// A workload exercising everything at once: dedicated jobs, ET and RT
/// commands landing on queued/running/completed targets, and enough
/// contention to drive the DP kernels and skip logic.
fn heavy_config() -> GeneratorConfig {
    GeneratorConfig::paper_heterogeneous(0.5, 0.3)
        .with_paper_eccs()
        .with_jobs(300)
        .with_seed(11)
}

/// Algorithms spanning the policy space: plain FIFO, backfilling,
/// DP-driven LOS variants, the dedicated layer, and ECC processing.
fn algorithms() -> [Algorithm; 6] {
    [
        Algorithm::Fcfs,
        Algorithm::Easy,
        Algorithm::DelayedLos,
        Algorithm::LosD,
        Algorithm::DelayedLosE,
        Algorithm::HybridLosE,
    ]
}

#[test]
fn lublin_source_matches_materialized_for_all_algorithms() {
    let cfg = heavy_config();
    let w = generate(&cfg);
    for algo in algorithms() {
        let exp = Experiment::new(algo);
        let materialized = exp.run(&w).unwrap();
        let streamed = exp
            .run_streamed_with(LublinSource::new(&cfg), RunAccumulator::exact())
            .unwrap();
        assert_eq!(streamed, materialized, "{algo}: streamed Lublin diverged");
        assert_eq!(
            streamed.jobs, 300,
            "{algo}: streamed run must complete every job"
        );
    }
}

#[test]
fn slice_source_matches_materialized() {
    let w = generate(&heavy_config());
    for algo in algorithms() {
        let exp = Experiment::new(algo);
        let materialized = exp.run(&w).unwrap();
        let streamed = exp
            .run_streamed_with(w.source(), RunAccumulator::exact())
            .unwrap();
        assert_eq!(streamed, materialized, "{algo}: streamed slices diverged");
    }
}

#[test]
fn swf_source_matches_materialized() {
    // A batch-only workload round-tripped through SWF text: the
    // materialized path parses the whole file, the streamed path reads
    // it line by line.
    let w = generate(
        &GeneratorConfig::paper_batch(0.4)
            .with_jobs(250)
            .with_seed(7),
    );
    let file = SwfFile {
        comments: vec!["Computer: Synthetic BlueGene/P".to_string()],
        records: w
            .jobs
            .iter()
            .map(|j| {
                SwfRecord::synthetic(
                    j.id.0,
                    j.submit.as_secs(),
                    j.num,
                    j.actual.as_secs(),
                    j.dur.as_secs(),
                )
            })
            .collect(),
    };
    let text = file.to_text();
    let materialized_workload = Workload::from_jobs(SwfFile::parse(&text).unwrap().to_job_specs());
    for algo in [Algorithm::Easy, Algorithm::DelayedLos] {
        let exp = Experiment::new(algo);
        let materialized = exp.run(&materialized_workload).unwrap();
        let streamed = exp
            .run_streamed_with(SwfSource::from_text(&text), RunAccumulator::exact())
            .unwrap();
        assert_eq!(streamed, materialized, "{algo}: streamed SWF diverged");
    }
}

#[test]
fn cwf_source_matches_materialized() {
    // Full CWF round trip including dedicated rows and ECC rows; the
    // file is time-sorted so it can stream.
    let w = generate(&heavy_config());
    let mut file = CwfFile::from_workload(&w);
    file.sort_by_time();
    let text = file.to_text();
    let materialized_workload = CwfFile::parse(&text).unwrap().to_workload();
    for algo in [Algorithm::DelayedLosE, Algorithm::HybridLosE] {
        let exp = Experiment::new(algo);
        let materialized = exp.run(&materialized_workload).unwrap();
        let streamed = exp
            .run_streamed_with(CwfSource::from_text(&text), RunAccumulator::exact())
            .unwrap();
        assert_eq!(streamed, materialized, "{algo}: streamed CWF diverged");
    }
}

#[test]
fn scaled_swf_replay_matches_materialized_scaling() {
    // The §III load knob over a streamed archive log: scale-then-load
    // must equal stream-through-ScaleArrivals. Stretching factors are
    // exactly equivalent (no new instant collisions).
    let w = generate(
        &GeneratorConfig::paper_batch(0.5)
            .with_jobs(200)
            .with_seed(3),
    );
    let file = SwfFile {
        comments: Vec::new(),
        records: w
            .jobs
            .iter()
            .map(|j| {
                SwfRecord::synthetic(
                    j.id.0,
                    j.submit.as_secs(),
                    j.num,
                    j.actual.as_secs(),
                    j.dur.as_secs(),
                )
            })
            .collect(),
    };
    let text = file.to_text();
    for factor in [1.5, 3.0] {
        let mut scaled = Workload::from_jobs(SwfFile::parse(&text).unwrap().to_job_specs());
        scaled.scale_arrivals(factor);
        let exp = Experiment::new(Algorithm::DelayedLos);
        let materialized = exp.run(&scaled).unwrap();
        let streamed = exp
            .run_streamed_with(
                ScaleArrivals::new(SwfSource::from_text(&text), factor),
                RunAccumulator::exact(),
            )
            .unwrap();
        assert_eq!(streamed, materialized, "factor {factor} diverged");
    }
}

#[test]
fn folded_run_equals_retained_run() {
    // run_streamed_with folds outcomes away as they complete; deriving
    // from the same streamed outcomes collected into a Vec must give the
    // same metrics.
    let cfg = heavy_config();
    let exp = Experiment::new(Algorithm::HybridLosE);
    let folded = exp
        .run_streamed_with(LublinSource::new(&cfg), RunAccumulator::exact())
        .unwrap();
    let spec = exp.spec;
    let engine = Engine::new(
        exp.machine.build(),
        spec.build(exp.params),
        spec.ecc_policy(),
    );
    let mut outcomes = Vec::new();
    let mut raw = engine
        .run_streaming_folded(LublinSource::new(&cfg), &mut |o| outcomes.push(o.clone()))
        .unwrap();
    raw.outcomes = outcomes;
    assert_eq!(raw.outcomes.len(), 300);
    let derived = elastisched_metrics::RunMetrics::from_result(&raw);
    assert_eq!(folded, derived);
}

#[test]
fn bounded_accumulator_matches_on_every_aggregate() {
    // The bounded (grouped-wait) accumulator backs archive-scale soaks;
    // everything except the summary's std_dev is exact.
    let cfg = heavy_config();
    let w = generate(&cfg);
    let exp = Experiment::new(Algorithm::DelayedLosE);
    let materialized = exp.run(&w).unwrap();
    let bounded = exp
        .run_streamed_with(LublinSource::new(&cfg), RunAccumulator::bounded())
        .unwrap();
    assert_eq!(bounded.jobs, materialized.jobs);
    assert_eq!(
        bounded.mean_wait.to_bits(),
        materialized.mean_wait.to_bits()
    );
    assert_eq!(bounded.slowdown.to_bits(), materialized.slowdown.to_bits());
    assert_eq!(
        bounded.mean_bounded_slowdown.to_bits(),
        materialized.mean_bounded_slowdown.to_bits()
    );
    assert_eq!(
        bounded.utilization.to_bits(),
        materialized.utilization.to_bits()
    );
    assert_eq!(bounded.makespan, materialized.makespan);
    assert_eq!(bounded.eccs_applied, materialized.eccs_applied);
    assert_eq!(bounded.dp_cache_hits, materialized.dp_cache_hits);
    assert_eq!(bounded.dp_cache_misses, materialized.dp_cache_misses);
    assert_eq!(bounded.wait_summary.n, materialized.wait_summary.n);
    assert_eq!(bounded.wait_summary.min, materialized.wait_summary.min);
    assert_eq!(
        bounded.wait_summary.median,
        materialized.wait_summary.median
    );
    assert_eq!(bounded.wait_summary.p95, materialized.wait_summary.p95);
    assert_eq!(bounded.wait_summary.max, materialized.wait_summary.max);
    let rel = (bounded.wait_summary.std_dev - materialized.wait_summary.std_dev).abs()
        / materialized.wait_summary.std_dev.max(1e-12);
    assert!(rel < 1e-12, "std_dev beyond ulp noise: {rel}");
}

#[test]
fn streamed_timeline_matches_materialized_for_all_algorithms() {
    // The telemetry sampler observes the run rather than steering it,
    // so a streamed run must produce the identical RunTimeline — same
    // decimation level, same sample instants, same utilization / queue
    // / DP readings, and the same `event_queue_len`.
    let cfg = heavy_config();
    let w = generate(&cfg);
    let tl_cfg = elastisched_sim::TimelineConfig {
        stride: elastisched_sim::Duration::from_secs(500),
        budget: 16,
    };
    for algo in algorithms() {
        let exp = Experiment::new(algo).with_timeline(tl_cfg);
        let materialized = exp.run(&w).unwrap().timeline;
        let streamed = exp
            .run_streamed_with(LublinSource::new(&cfg), RunAccumulator::exact())
            .unwrap()
            .timeline;
        assert!(
            materialized.decimations > 0,
            "{algo}: budget 16 must force decimation"
        );
        assert_eq!(
            streamed.decimations, materialized.decimations,
            "{algo}: decimation level diverged"
        );
        assert_eq!(
            streamed.samples.len(),
            materialized.samples.len(),
            "{algo}: sample count diverged"
        );
        for (a, b) in materialized.samples.iter().zip(&streamed.samples) {
            assert_eq!(a, b, "{algo}: timeline sample diverged");
        }
    }
}

#[test]
fn stack_experiment_streams_arbitrary_specs() {
    let cfg = heavy_config();
    let w = generate(&cfg);
    let exp = Experiment::new("fcfs+d+e".parse::<StackSpec>().unwrap());
    let materialized = {
        let raw = exp.run_raw(&w).unwrap();
        elastisched_metrics::RunMetrics::from_result(&raw)
    };
    let streamed = exp
        .run_streamed_with(LublinSource::new(&cfg), RunAccumulator::exact())
        .unwrap();
    assert_eq!(streamed, materialized);
}

#[test]
fn malleable_stack_streams_identically() {
    // The +m layer resizes *running* jobs mid-flight; the streamed
    // engine must make the identical shrink/grow decisions even though
    // it only ever sees a bounded window of the arrival stream.
    let cfg = heavy_config().with_malleable(0.5);
    let w = generate(&cfg);
    let exp = Experiment::new("hybrid-los+d+m".parse::<StackSpec>().unwrap());
    let materialized = {
        let raw = exp.run_raw(&w).unwrap();
        elastisched_metrics::RunMetrics::from_result(&raw)
    };
    assert!(
        materialized.reconfig_grows + materialized.reconfig_shrinks > 0,
        "identity check is vacuous without resizes"
    );
    let streamed = exp
        .run_streamed_with(LublinSource::new(&cfg), RunAccumulator::exact())
        .unwrap();
    assert_eq!(streamed, materialized);
}

/// A random workload on the BlueGene/P: every size from one allocation
/// unit to the whole machine, short, medium and long runtimes (some
/// over-estimated), bursts of jobs at one instant, dedicated jobs whose
/// requested start falls before, at or after their submit, and
/// malleable proc ranges. Job ids are assigned before the jobs are
/// sorted by submit, so id order is not time order. ECCs of all four
/// kinds are issued at or after their job's submit, early enough to
/// find it queued or running or late enough to find it completed; a
/// few name ids outside the workload.
fn arb_workload() -> impl Strategy<Value = Workload> {
    let job = (
        (0u64..30, prop::bool::ANY, 1u64..100), // submit slot, burst?, offset
        1u32..=10,                              // size in 32-processor units
        (0usize..3, 1u64..=100, 1u64..=100),    // runtime class, length, actual %
        (prop::bool::ANY, 0u64..2_000),         // dedicated?, start offset
        (0u32..=10, 0u32..=10),                 // malleable min/max units
    );
    let ecc = (
        0usize..64,  // target index (past the jobs: an unknown id)
        0u64..6_000, // issue offset after the target's submit
        0u8..4,      // kind
        1u64..2_000, // amount
    );
    (
        prop::collection::vec(job, 1..48),
        prop::collection::vec(ecc, 0..24),
    )
        .prop_map(|(raw_jobs, raw_eccs)| {
            let mut jobs: Vec<JobSpec> = raw_jobs
                .into_iter()
                .enumerate()
                .map(|(i, (time, units, run, ded, mal))| {
                    let ((slot, burst, offset), (class, len, pct)) = (time, run);
                    let submit = slot * 150 + if burst { 0 } else { offset };
                    let dur = [len, 60 + len * 30, 3_600 + len * 150][class];
                    let num = units * 32;
                    let mut spec = if ded.0 {
                        JobSpec::dedicated(
                            i as u64 + 1,
                            submit,
                            num,
                            dur,
                            submit.saturating_sub(100) + ded.1,
                        )
                    } else {
                        JobSpec::batch(i as u64 + 1, submit, num, dur)
                    };
                    spec.actual = Duration::from_secs((dur * pct).div_ceil(100));
                    spec.with_proc_range(mal.0 * 32, mal.1 * 32)
                })
                .collect();
            jobs.sort_by_key(|j| j.submit);
            let mut eccs: Vec<EccSpec> = raw_eccs
                .into_iter()
                .map(|(target, offset, kind, amount)| {
                    let (job, submit) = match jobs.get(target) {
                        Some(j) => (j.id, j.submit),
                        None => (JobId(1_000 + target as u64), SimTime::ZERO),
                    };
                    let kind = [
                        EccKind::ExtendTime,
                        EccKind::ReduceTime,
                        EccKind::ExtendProcs,
                        EccKind::ReduceProcs,
                    ][usize::from(kind)];
                    EccSpec {
                        job,
                        issue_at: submit + Duration::from_secs(offset),
                        kind,
                        amount: if kind.is_time() {
                            amount
                        } else {
                            amount % 100 + 1
                        },
                    }
                })
                .collect();
            eccs.sort_by_key(|e| e.issue_at);
            Workload { jobs, eccs }
        })
}

/// Every registry algorithm plus the two resizing stacks.
fn every_stack() -> Vec<StackSpec> {
    let mut specs: Vec<StackSpec> = Algorithm::ALL.map(StackSpec::from).to_vec();
    specs.extend(["hybrid-los+m+e", "easy+d+m+e"].map(|s| s.parse::<StackSpec>().unwrap()));
    specs
}

/// `spec` under `policy` on the BlueGene/P, run through `load` + `run`
/// or streamed from `w.source()` with its folded outcomes collected
/// back into `SimResult::outcomes`.
fn run_engine(spec: StackSpec, policy: EccPolicy, w: &Workload, folded: bool) -> SimResult {
    let mut engine = Engine::new(
        MachineSpec::BLUEGENE_P.build(),
        spec.build(SchedParams::default()),
        policy,
    );
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

/// Each job's `(id, started, finished, num)`, in completion order.
fn schedule(r: &SimResult) -> Vec<(JobId, SimTime, SimTime, u32)> {
    r.outcomes
        .iter()
        .map(|o| (o.id, o.started, o.finished, o.num))
        .collect()
}

proptest! {
    // Each case simulates the workload 105 times (21 stacks × 5 runs).
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_workloads_run_identically_on_both_paths(w in arb_workload()) {
        for spec in every_stack() {
            // The stack's own ECC policy, through every Experiment entry.
            let exp = Experiment::new(spec);
            let raw = exp.run_raw(&w).unwrap();
            let metrics = RunMetrics::from_result(&raw);
            prop_assert_eq!(&exp.run(&w).unwrap(), &metrics, "{}: run", spec);
            let streamed = exp
                .run_streamed_with(w.source(), RunAccumulator::exact())
                .unwrap();
            prop_assert_eq!(&streamed, &metrics, "{}: run_streamed_with", spec);
            let folded = run_engine(spec, spec.ecc_policy(), &w, true);
            prop_assert_eq!(&RunMetrics::from_result(&folded), &metrics, "{}: folded", spec);
            prop_assert_eq!(schedule(&folded), schedule(&raw), "{}: folded schedule", spec);

            // Time and processor ECCs honoured on every stack.
            let policy = EccPolicy::with_resource_elasticity();
            let loaded = run_engine(spec, policy, &w, false);
            let folded = run_engine(spec, policy, &w, true);
            prop_assert_eq!(
                RunMetrics::from_result(&folded),
                RunMetrics::from_result(&loaded),
                "{}: resource ECCs", spec
            );
            prop_assert_eq!(folded.ecc, loaded.ecc, "{}: ECC counters", spec);
            prop_assert_eq!(schedule(&folded), schedule(&loaded), "{}: resource schedule", spec);
        }
    }
}
