//! Integration tests for the trace pipeline: generator → CWF text →
//! parser → simulator, and the figure-reproduction harness.

use elastisched::figures::{self, ReproConfig};
use elastisched::prelude::*;

#[test]
fn cwf_roundtrip_preserves_simulation_results() {
    let mut w = generate(
        &GeneratorConfig::paper_heterogeneous(0.5, 0.4)
            .with_paper_eccs()
            .with_jobs(150)
            .with_seed(77),
    );
    w.scale_to_load(320, 0.9);

    let text = CwfFile::from_workload(&w).to_text();
    let reparsed = CwfFile::parse(&text)
        .expect("round-trip parse")
        .to_workload();
    assert_eq!(w, reparsed, "CWF round-trip must be lossless");

    let direct = Experiment::new(Algorithm::HybridLosE).run(&w).unwrap();
    let via_text = Experiment::new(Algorithm::HybridLosE)
        .run(&reparsed)
        .unwrap();
    assert_eq!(direct, via_text);
}

#[test]
fn swf_files_are_valid_cwf_inputs() {
    let w = generate(&GeneratorConfig::paper_batch(0.5).with_jobs(50).with_seed(3));
    // Write as plain SWF (18 fields), read back through the CWF parser.
    let mut swf = SwfFile::default();
    for j in &w.jobs {
        swf.records.push(elastisched_workload::SwfRecord::synthetic(
            j.id.0,
            j.submit.as_secs(),
            j.num,
            j.actual.as_secs(),
            j.dur.as_secs(),
        ));
    }
    let parsed = CwfFile::parse(&swf.to_text()).expect("SWF is valid CWF");
    let w2 = parsed.to_workload();
    assert_eq!(w2.len(), 50);
    assert!(w2.eccs.is_empty());
    let m = Experiment::new(Algorithm::Easy).run(&w2).unwrap();
    assert_eq!(m.jobs, 50);
}

#[test]
fn quick_figure_harness_produces_consistent_shapes() {
    let cfg = ReproConfig {
        n_jobs: 80,
        replications: 1,
        base_seed: 5,
        loads: vec![0.8],
        cs_values: vec![4],
    };
    let f7 = figures::fig7(&cfg);
    assert_eq!(f7.series.len(), 3);
    let t4 = figures::table4(&f7);
    // One column per baseline, three metric rows, finite values.
    assert_eq!(t4.baselines.len(), 2);
    assert_eq!(t4.rows.len(), 3);
    for (_, vals) in &t4.rows {
        assert!(vals.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn figure_data_serializes_to_json_and_csv() {
    let cfg = ReproConfig {
        n_jobs: 60,
        replications: 1,
        base_seed: 6,
        loads: vec![0.7],
        cs_values: vec![3],
    };
    let fig = figures::fig5(&cfg);
    let json = serde_json::to_string(&fig).expect("figure serializes");
    let back: elastisched::Figure = serde_json::from_str(&json).expect("figure deserializes");
    assert_eq!(back, fig);
    let csv = elastisched::report::figure_to_csv(&fig);
    // Header + one row per (series × point).
    let rows: usize = fig.series.iter().map(|s| s.points.len()).sum();
    assert_eq!(csv.lines().count(), rows + 1);
}

#[test]
fn calibration_is_stable_across_loads() {
    let base = GeneratorConfig::paper_batch(0.5).with_jobs(200);
    for load in [0.5, 0.75, 1.0] {
        let w = elastisched::calibrated_workload(&base, MachineSpec::BLUEGENE_P, load, 9);
        assert!((w.offered_load(320) - load).abs() < 0.02);
    }
}

#[test]
fn sdsc_like_trace_runs_under_easy_and_los() {
    let base = GeneratorConfig {
        n_jobs: 150,
        ..GeneratorConfig::sdsc_like()
    };
    let w = elastisched::calibrated_workload(&base, MachineSpec::SDSC_SP2, 0.85, 4);
    for algo in [Algorithm::Easy, Algorithm::Los] {
        let m = Experiment::new(algo)
            .on_machine(MachineSpec::SDSC_SP2)
            .run(&w)
            .unwrap();
        assert_eq!(m.jobs, 150, "{algo}");
    }
}
