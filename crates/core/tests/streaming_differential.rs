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

use elastisched::Experiment;
use elastisched_metrics::RunAccumulator;
use elastisched_sched::{Algorithm, StackSpec};
use elastisched_workload::{
    generate, CwfFile, CwfSource, GeneratorConfig, LublinSource, ScaleArrivals, SwfFile,
    SwfRecord, SwfSource, Workload,
};

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
        let streamed = exp.run_streamed(LublinSource::new(&cfg)).unwrap();
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
        let streamed = exp.run_streamed(w.source()).unwrap();
        assert_eq!(streamed, materialized, "{algo}: streamed slices diverged");
    }
}

#[test]
fn swf_source_matches_materialized() {
    // A batch-only workload round-tripped through SWF text: the
    // materialized path parses the whole file, the streamed path reads
    // it line by line.
    let w = generate(&GeneratorConfig::paper_batch(0.4).with_jobs(250).with_seed(7));
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
    let materialized_workload =
        Workload::from_jobs(SwfFile::parse(&text).unwrap().to_job_specs());
    for algo in [Algorithm::Easy, Algorithm::DelayedLos] {
        let exp = Experiment::new(algo);
        let materialized = exp.run(&materialized_workload).unwrap();
        let streamed = exp
            .run_streamed(SwfSource::from_text(&text))
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
            .run_streamed(CwfSource::from_text(&text))
            .unwrap();
        assert_eq!(streamed, materialized, "{algo}: streamed CWF diverged");
    }
}

#[test]
fn scaled_swf_replay_matches_materialized_scaling() {
    // The §III load knob over a streamed archive log: scale-then-load
    // must equal stream-through-ScaleArrivals. Stretching factors are
    // exactly equivalent (no new instant collisions).
    let w = generate(&GeneratorConfig::paper_batch(0.5).with_jobs(200).with_seed(3));
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
            .run_streamed(ScaleArrivals::new(SwfSource::from_text(&text), factor))
            .unwrap();
        assert_eq!(streamed, materialized, "factor {factor} diverged");
    }
}

#[test]
fn folded_run_equals_retained_run() {
    // run_streamed folds outcomes away as they complete; deriving from
    // the retained-outcome streamed result must give the same metrics.
    let cfg = heavy_config();
    let exp = Experiment::new(Algorithm::HybridLosE);
    let folded = exp.run_streamed(LublinSource::new(&cfg)).unwrap();
    let raw = exp.run_streamed_raw(LublinSource::new(&cfg)).unwrap();
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
    assert_eq!(bounded.mean_wait.to_bits(), materialized.mean_wait.to_bits());
    assert_eq!(bounded.slowdown.to_bits(), materialized.slowdown.to_bits());
    assert_eq!(
        bounded.mean_bounded_slowdown.to_bits(),
        materialized.mean_bounded_slowdown.to_bits()
    );
    assert_eq!(bounded.utilization.to_bits(), materialized.utilization.to_bits());
    assert_eq!(bounded.makespan, materialized.makespan);
    assert_eq!(bounded.eccs_applied, materialized.eccs_applied);
    assert_eq!(bounded.dp_cache_hits, materialized.dp_cache_hits);
    assert_eq!(bounded.dp_cache_misses, materialized.dp_cache_misses);
    assert_eq!(bounded.wait_summary.n, materialized.wait_summary.n);
    assert_eq!(bounded.wait_summary.min, materialized.wait_summary.min);
    assert_eq!(bounded.wait_summary.median, materialized.wait_summary.median);
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
        let materialized = exp.run_raw(&w).unwrap().timeline;
        let streamed = exp.run_streamed_raw(LublinSource::new(&cfg)).unwrap().timeline;
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
    let streamed = exp.run_streamed(LublinSource::new(&cfg)).unwrap();
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
    let streamed = exp.run_streamed(LublinSource::new(&cfg)).unwrap();
    assert_eq!(streamed, materialized);
}
