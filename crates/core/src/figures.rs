//! Reproduction specs for every figure and table in the paper's
//! evaluation (§V), plus ablations.
//!
//! Each `fig*` function regenerates the data behind the corresponding
//! figure: a set of series (one per algorithm) of averaged metrics over
//! an x-axis sweep (load or `C_s`). `improvement_table` derives the
//! paper's Tables IV–VII (maximum percentage improvements) from figure
//! data. See DESIGN.md §5 for the experiment index.

use crate::calibrate::calibrated_workload;
use crate::experiment::{Experiment, MachineSpec};
use crate::sweep::try_parallel_map;
use elastisched_metrics::{improvement_higher_is_better, improvement_lower_is_better, RunMetrics};
use elastisched_sched::{Algorithm, SchedParams};
use elastisched_workload::{GeneratorConfig, Workload};
use serde::{Deserialize, Serialize};

/// Generate one calibrated workload on a sweep worker, then drain the
/// thread-local phase profile and attribute the generation time to the
/// campaign's workload-gen row. Pre-generation fan-outs never call
/// `RunMetrics::from_result` on the generating thread, so without the
/// drain the pending profile would leak into whatever simulation runs
/// on that worker next.
fn gen_calibrated(
    base: &GeneratorConfig,
    machine: MachineSpec,
    load: f64,
    seed: u64,
) -> Workload {
    let w = calibrated_workload(base, machine, load, seed);
    let pending = elastisched_sim::profile::take_pending();
    crate::telemetry::record_workload_gen(
        pending.nanos_of(elastisched_sim::Phase::WorkloadGen),
    );
    w
}

/// Fan one named stage of a figure out over the sweep pool, reporting it
/// to the campaign telemetry and *continuing* when individual points
/// panic: failed points are warned about on stderr and dropped, so one
/// bad (algorithm × load × seed) combination degrades the averages for
/// its bucket instead of discarding the whole figure.
fn run_stage<I, O, F, N>(stage: &str, inputs: Vec<I>, name_of: N, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
    N: Fn(usize, &I) -> String + Sync,
{
    crate::telemetry::begin_stage(stage, inputs.len());
    let (results, failures) = try_parallel_map(inputs, name_of, f);
    crate::telemetry::end_stage();
    for fail in &failures {
        eprintln!("warning: sweep {fail}; continuing without it");
    }
    results.into_iter().flatten().collect()
}

/// Global knobs for the reproduction harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReproConfig {
    /// Jobs per run (`N_J`; the paper uses 500).
    pub n_jobs: usize,
    /// Independent seeds averaged per point (the paper plots single
    /// runs; averaging a few seeds stabilizes the shapes).
    pub replications: usize,
    /// Base RNG seed.
    pub base_seed: u64,
    /// Load sweep points for Figures 7–11.
    pub loads: Vec<f64>,
    /// `C_s` sweep for Figures 5–6.
    pub cs_values: Vec<u32>,
}

impl ReproConfig {
    /// The paper's settings: 500 jobs, loads 0.5–1.0.
    pub fn paper() -> Self {
        ReproConfig {
            n_jobs: 500,
            replications: 3,
            base_seed: 42,
            loads: vec![0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            cs_values: (1..=20).collect(),
        }
    }

    /// A scaled-down configuration for tests and smoke runs.
    pub fn quick() -> Self {
        ReproConfig {
            n_jobs: 120,
            replications: 1,
            base_seed: 42,
            loads: vec![0.7, 0.9],
            cs_values: vec![1, 4, 8],
        }
    }
}

/// One averaged data point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// The x-axis value (load, `C_s`, lookahead, …).
    pub x: f64,
    /// Mean utilization.
    pub utilization: f64,
    /// Mean job waiting time, seconds.
    pub mean_wait: f64,
    /// The paper's slowdown metric.
    pub slowdown: f64,
    /// Mean dedicated start delay, seconds (0 for batch workloads).
    pub dedicated_delay: f64,
}

/// One algorithm's line in a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Algorithm display name.
    pub algorithm: String,
    /// Points in x order.
    pub points: Vec<SeriesPoint>,
}

/// A reproduced figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Identifier, e.g. `"fig7"`.
    pub id: String,
    /// Human caption.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// One series per algorithm.
    pub series: Vec<Series>,
}

impl Figure {
    /// The series for a given algorithm name.
    pub fn series_for(&self, algorithm: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.algorithm == algorithm)
    }
}

/// A reproduced improvement table (Tables IV–VII).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImprovementTable {
    /// Identifier, e.g. `"table4"`.
    pub id: String,
    /// Caption.
    pub caption: String,
    /// The algorithm whose improvements are tabulated.
    pub ours: String,
    /// Baseline algorithm names (column order).
    pub baselines: Vec<String>,
    /// `(metric name, max % improvement per baseline)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

/// The default `C_s` for a given small-job probability, from the paper's
/// Figures 5–6: ≈7–8 at `P_S = 0.5`, insensitive beyond ≈3 at
/// `P_S = 0.8`; low `P_S` (many large jobs) benefits from a longer skip
/// budget.
pub fn default_cs_for_ps(p_small: f64) -> u32 {
    if p_small >= 0.75 {
        3
    } else if p_small >= 0.4 {
        7
    } else {
        8
    }
}

fn average(metrics: &[RunMetrics], x: f64) -> SeriesPoint {
    let n = metrics.len().max(1) as f64;
    SeriesPoint {
        x,
        utilization: metrics.iter().map(|m| m.utilization).sum::<f64>() / n,
        mean_wait: metrics.iter().map(|m| m.mean_wait).sum::<f64>() / n,
        slowdown: metrics.iter().map(|m| m.slowdown).sum::<f64>() / n,
        dedicated_delay: metrics.iter().map(|m| m.mean_dedicated_delay).sum::<f64>() / n,
    }
}

/// Run a load-sweep figure: for each load and each algorithm, average
/// `cfg.replications` runs. `make_base` builds the generator config
/// (size model, P_D, ECC probabilities) — it is re-seeded per replication.
fn load_sweep(
    cfg: &ReproConfig,
    id: &str,
    title: &str,
    base: &GeneratorConfig,
    algorithms: &[(Algorithm, SchedParams)],
) -> Figure {
    let machine = MachineSpec::BLUEGENE_P;
    // Pre-generate workloads: one per (load, replication).
    let mut wl_inputs = Vec::new();
    for (li, &load) in cfg.loads.iter().enumerate() {
        for r in 0..cfg.replications {
            wl_inputs.push((li, load, cfg.base_seed + r as u64));
        }
    }
    let n_jobs = cfg.n_jobs;
    let workloads: Vec<(usize, Workload)> = run_stage(
        &format!("{id} workload-gen"),
        wl_inputs,
        |_, (_, load, seed)| format!("{id} gen load={load:.2} seed={seed}"),
        |(li, load, seed)| {
            let b = GeneratorConfig {
                n_jobs,
                ..*base
            };
            (li, gen_calibrated(&b, machine, load, seed))
        },
    );

    // Fan out (algorithm × workload) simulations.
    let mut tasks = Vec::new();
    for (ai, &(algo, params)) in algorithms.iter().enumerate() {
        for (wi, (li, _)) in workloads.iter().enumerate() {
            tasks.push((ai, *li, wi, algo, params));
        }
    }
    let loads = &cfg.loads;
    let results: Vec<(usize, usize, RunMetrics)> = run_stage(
        &format!("{id} simulations"),
        tasks,
        |_, (_, li, wi, algo, _)| {
            format!("{id} {} load={:.2} wl{wi}", algo.name(), loads[*li])
        },
        |(ai, li, wi, algo, params)| {
            let exp = Experiment {
                params,
                machine,
                ..Experiment::new(algo)
            };
            let m = exp
                .run(&workloads[wi].1)
                .expect("simulation must complete");
            (ai, li, m)
        },
    );

    let mut series: Vec<Series> = algorithms
        .iter()
        .map(|(a, _)| Series {
            algorithm: a.name().to_string(),
            points: Vec::new(),
        })
        .collect();
    for (li, &load) in cfg.loads.iter().enumerate() {
        for (ai, _) in algorithms.iter().enumerate() {
            let bucket: Vec<RunMetrics> = results
                .iter()
                .filter(|(a, l, _)| *a == ai && *l == li)
                .map(|(_, _, m)| m.clone())
                .collect();
            series[ai].points.push(average(&bucket, load));
        }
    }
    Figure {
        id: id.to_string(),
        title: title.to_string(),
        x_label: "Load".to_string(),
        series,
    }
}

/// Figure 1: EASY vs LOS on an SDSC-like trace, load varied by scaling
/// arrival times (DESIGN.md substitution #2).
pub fn fig1(cfg: &ReproConfig) -> Figure {
    let machine = MachineSpec::SDSC_SP2;
    let loads = &cfg.loads;
    let mut tasks = Vec::new();
    for (li, &load) in loads.iter().enumerate() {
        for r in 0..cfg.replications {
            tasks.push((li, load, cfg.base_seed + r as u64));
        }
    }
    let n_jobs = cfg.n_jobs;
    let workloads: Vec<(usize, Workload)> = run_stage(
        "fig1 workload-gen",
        tasks,
        |_, (_, load, seed)| format!("fig1 gen load={load:.2} seed={seed}"),
        |(li, load, seed)| {
            let base = GeneratorConfig {
                n_jobs,
                ..GeneratorConfig::sdsc_like()
            };
            (li, gen_calibrated(&base, machine, load, seed))
        },
    );
    let algorithms = [Algorithm::Easy, Algorithm::Los];
    let mut sims = Vec::new();
    for (ai, algo) in algorithms.iter().enumerate() {
        for (wi, (li, _)) in workloads.iter().enumerate() {
            sims.push((ai, *li, wi, *algo));
        }
    }
    let results: Vec<(usize, usize, RunMetrics)> = run_stage(
        "fig1 simulations",
        sims,
        |_, (_, li, wi, algo)| format!("fig1 {} load={:.2} wl{wi}", algo.name(), loads[*li]),
        |(ai, li, wi, algo)| {
            let exp = Experiment::new(algo).on_machine(machine);
            (
                ai,
                li,
                exp.run(&workloads[wi].1).expect("simulation must complete"),
            )
        },
    );
    let mut series: Vec<Series> = algorithms
        .iter()
        .map(|a| Series {
            algorithm: a.name().to_string(),
            points: Vec::new(),
        })
        .collect();
    for (li, &load) in loads.iter().enumerate() {
        for (ai, s) in series.iter_mut().enumerate() {
            let bucket: Vec<RunMetrics> = results
                .iter()
                .filter(|(a, l, _)| *a == ai && *l == li)
                .map(|(_, _, m)| m.clone())
                .collect();
            s.points.push(average(&bucket, load));
        }
    }
    Figure {
        id: "fig1".into(),
        title: "EASY vs LOS, SDSC-like trace, load varied by arrival scaling".into(),
        x_label: "Load".into(),
        series,
    }
}

/// Figures 5 and 6: metric variation with `C_s`, at fixed load 0.9.
pub fn cs_sweep(cfg: &ReproConfig, id: &str, p_small: f64) -> Figure {
    let machine = MachineSpec::BLUEGENE_P;
    let base = GeneratorConfig {
        n_jobs: cfg.n_jobs,
        ..GeneratorConfig::paper_batch(p_small)
    };
    let workloads: Vec<Workload> = run_stage(
        &format!("{id} workload-gen"),
        (0..cfg.replications)
            .map(|r| cfg.base_seed + r as u64)
            .collect(),
        |_, seed| format!("{id} gen seed={seed}"),
        |seed| gen_calibrated(&base, machine, 0.9, seed),
    );
    // Baselines do not depend on C_s: run once per replication.
    let baseline_metrics: Vec<(Algorithm, Vec<RunMetrics>)> = run_stage(
        &format!("{id} baselines"),
        vec![Algorithm::Easy, Algorithm::Los],
        |_, algo| format!("{id} baseline {}", algo.name()),
        |algo| {
            let ms = workloads
                .iter()
                .map(|w| {
                    Experiment::new(algo)
                        .on_machine(machine)
                        .run(w)
                        .expect("simulation must complete")
                })
                .collect();
            (algo, ms)
        },
    );
    // Delayed-LOS per C_s.
    let mut tasks = Vec::new();
    for (ci, &cs) in cfg.cs_values.iter().enumerate() {
        for (wi, _) in workloads.iter().enumerate() {
            tasks.push((ci, cs, wi));
        }
    }
    let dl_results: Vec<(usize, RunMetrics)> = run_stage(
        &format!("{id} Delayed-LOS sweep"),
        tasks,
        |_, (_, cs, wi)| format!("{id} Delayed-LOS Cs={cs} wl{wi}"),
        |(ci, cs, wi)| {
            let exp = Experiment::new(Algorithm::DelayedLos)
                .with_cs(cs)
                .on_machine(machine);
            (
                ci,
                exp.run(&workloads[wi]).expect("simulation must complete"),
            )
        },
    );

    let mut series = Vec::new();
    for (algo, ms) in &baseline_metrics {
        let flat = average(ms, 0.0);
        series.push(Series {
            algorithm: algo.name().to_string(),
            points: cfg
                .cs_values
                .iter()
                .map(|&cs| SeriesPoint {
                    x: cs as f64,
                    ..flat
                })
                .collect(),
        });
    }
    let mut dl_points = Vec::new();
    for (ci, &cs) in cfg.cs_values.iter().enumerate() {
        let bucket: Vec<RunMetrics> = dl_results
            .iter()
            .filter(|(c, _)| *c == ci)
            .map(|(_, m)| m.clone())
            .collect();
        dl_points.push(average(&bucket, cs as f64));
    }
    series.push(Series {
        algorithm: Algorithm::DelayedLos.name().to_string(),
        points: dl_points,
    });
    Figure {
        id: id.to_string(),
        title: format!(
            "Batch workload: metric variation with C_s (Load=0.9, P_S={p_small})"
        ),
        x_label: "Maximum skip count C_s".to_string(),
        series,
    }
}

/// Figure 5 (`P_S = 0.5`).
pub fn fig5(cfg: &ReproConfig) -> Figure {
    cs_sweep(cfg, "fig5", 0.5)
}

/// Figure 6 (`P_S = 0.8`).
pub fn fig6(cfg: &ReproConfig) -> Figure {
    cs_sweep(cfg, "fig6", 0.8)
}

/// Batch load sweep (Figures 7 and 8): EASY vs LOS vs Delayed-LOS.
pub fn batch_load_sweep(cfg: &ReproConfig, id: &str, p_small: f64) -> Figure {
    let params = SchedParams::with_cs(default_cs_for_ps(p_small));
    load_sweep(
        cfg,
        id,
        &format!("Batch workload: variation with Load (P_S={p_small})"),
        &GeneratorConfig::paper_batch(p_small),
        &[
            (Algorithm::Easy, SchedParams::default()),
            (Algorithm::Los, SchedParams::default()),
            (Algorithm::DelayedLos, params),
        ],
    )
}

/// Figure 7 (`P_S = 0.2`).
pub fn fig7(cfg: &ReproConfig) -> Figure {
    batch_load_sweep(cfg, "fig7", 0.2)
}

/// Figure 8: two panels, `P_S = 0.5` and `P_S = 0.8`.
pub fn fig8(cfg: &ReproConfig) -> Vec<Figure> {
    vec![
        batch_load_sweep(cfg, "fig8a", 0.5),
        batch_load_sweep(cfg, "fig8b", 0.8),
    ]
}

/// Heterogeneous load sweep (Figures 9 and 10): EASY-D vs LOS-D vs
/// Hybrid-LOS.
pub fn heterogeneous_load_sweep(
    cfg: &ReproConfig,
    id: &str,
    p_small: f64,
    p_dedicated: f64,
) -> Figure {
    let params = SchedParams::with_cs(default_cs_for_ps(p_small));
    load_sweep(
        cfg,
        id,
        &format!("Heterogeneous workload: variation with Load (P_D={p_dedicated}, P_S={p_small})"),
        &GeneratorConfig::paper_heterogeneous(p_small, p_dedicated),
        &[
            (Algorithm::EasyD, SchedParams::default()),
            (Algorithm::LosD, SchedParams::default()),
            (Algorithm::HybridLos, params),
        ],
    )
}

/// Figure 9 (`P_D = 0.5`, `P_S = 0.2`).
pub fn fig9(cfg: &ReproConfig) -> Figure {
    heterogeneous_load_sweep(cfg, "fig9", 0.2, 0.5)
}

/// Figure 10 (`P_D = 0.9`, `P_S = 0.5`).
pub fn fig10(cfg: &ReproConfig) -> Figure {
    heterogeneous_load_sweep(cfg, "fig10", 0.5, 0.9)
}

/// Figure 11: elastic workloads (`P_E = 0.2`, `P_R = 0.1`).
/// Panel (a): batch with ECCs — EASY-E, LOS-E, Delayed-LOS-E.
/// Panel (b): heterogeneous with ECCs — EASY-DE, LOS-DE, Hybrid-LOS-E.
pub fn fig11(cfg: &ReproConfig) -> Vec<Figure> {
    let params = SchedParams::with_cs(default_cs_for_ps(0.5));
    let batch = load_sweep(
        cfg,
        "fig11a",
        "Elastic batch workload (P_S=0.5, P_E=0.2, P_R=0.1)",
        &GeneratorConfig::paper_batch(0.5).with_paper_eccs(),
        &[
            (Algorithm::EasyE, SchedParams::default()),
            (Algorithm::LosE, SchedParams::default()),
            (Algorithm::DelayedLosE, params),
        ],
    );
    let het = load_sweep(
        cfg,
        "fig11b",
        "Elastic heterogeneous workload (P_S=0.5, P_D=0.5, P_E=0.2, P_R=0.1)",
        &GeneratorConfig::paper_heterogeneous(0.5, 0.5).with_paper_eccs(),
        &[
            (Algorithm::EasyDE, SchedParams::default()),
            (Algorithm::LosDE, SchedParams::default()),
            (Algorithm::HybridLosE, params),
        ],
    );
    vec![batch, het]
}

/// Derive a Tables IV–VII style maximum-improvement table from a figure.
pub fn improvement_table(
    fig: &Figure,
    id: &str,
    caption: &str,
    ours: &str,
    baselines: &[&str],
) -> ImprovementTable {
    let our_series = fig
        .series_for(ours)
        .unwrap_or_else(|| panic!("{ours} missing from {}", fig.id));
    let mut rows: Vec<(String, Vec<f64>)> = vec![
        ("Utilization".into(), Vec::new()),
        ("Job waiting time".into(), Vec::new()),
        ("Slowdown".into(), Vec::new()),
    ];
    for &base in baselines {
        let base_series = fig
            .series_for(base)
            .unwrap_or_else(|| panic!("{base} missing from {}", fig.id));
        let mut util: f64 = f64::NEG_INFINITY;
        let mut wait: f64 = f64::NEG_INFINITY;
        let mut slow: f64 = f64::NEG_INFINITY;
        for (o, b) in our_series.points.iter().zip(base_series.points.iter()) {
            util = util.max(improvement_higher_is_better(o.utilization, b.utilization));
            wait = wait.max(improvement_lower_is_better(o.mean_wait, b.mean_wait));
            slow = slow.max(improvement_lower_is_better(o.slowdown, b.slowdown));
        }
        rows[0].1.push(util);
        rows[1].1.push(wait);
        rows[2].1.push(slow);
    }
    ImprovementTable {
        id: id.to_string(),
        caption: caption.to_string(),
        ours: ours.to_string(),
        baselines: baselines.iter().map(|s| s.to_string()).collect(),
        rows,
    }
}

/// Table IV from Figure 7 data.
pub fn table4(fig7: &Figure) -> ImprovementTable {
    improvement_table(
        fig7,
        "table4",
        "Maximum % improvement of Delayed-LOS over LOS and EASY (Figure 7)",
        "Delayed-LOS",
        &["LOS", "EASY"],
    )
}

/// Table V from Figure 9 data.
pub fn table5(fig9: &Figure) -> ImprovementTable {
    improvement_table(
        fig9,
        "table5",
        "Maximum % improvement of Hybrid-LOS over LOS-D and EASY-D (Figure 9)",
        "Hybrid-LOS",
        &["LOS-D", "EASY-D"],
    )
}

/// Table VI from Figure 11 panel (a).
pub fn table6(fig11a: &Figure) -> ImprovementTable {
    improvement_table(
        fig11a,
        "table6",
        "Maximum % improvement of Delayed-LOS-E over LOS-E and EASY-E (Figure 11)",
        "Delayed-LOS-E",
        &["LOS-E", "EASY-E"],
    )
}

/// Table VII from Figure 11 panel (b).
pub fn table7(fig11b: &Figure) -> ImprovementTable {
    improvement_table(
        fig11b,
        "table7",
        "Maximum % improvement of Hybrid-LOS-E over LOS-DE and EASY-DE (Figure 11)",
        "Hybrid-LOS-E",
        &["LOS-DE", "EASY-DE"],
    )
}

/// Related-work baseline comparison (paper §II-B): FCFS, SJF,
/// smallest/largest-first (with backfilling), Conservative, EASY and
/// Delayed-LOS across load. Reproduces the cited finding that size- and
/// runtime-ordered disciplines "do not necessarily perform better than a
/// straightforward FCFS" once backfilling is in play.
pub fn baselines(cfg: &ReproConfig) -> Figure {
    load_sweep(
        cfg,
        "baselines",
        "Related-work baselines: variation with Load (P_S=0.5)",
        &GeneratorConfig::paper_batch(0.5),
        &[
            (Algorithm::Fcfs, SchedParams::default()),
            (Algorithm::Sjf, SchedParams::default()),
            (Algorithm::SjfBf, SchedParams::default()),
            (Algorithm::SmallestFirstBf, SchedParams::default()),
            (Algorithm::LargestFirstBf, SchedParams::default()),
            (Algorithm::Conservative, SchedParams::default()),
            (Algorithm::Easy, SchedParams::default()),
            (Algorithm::Adaptive, SchedParams::default()),
            (Algorithm::DelayedLos, SchedParams::with_cs(default_cs_for_ps(0.5))),
        ],
    )
}

/// Ablation: Delayed-LOS packing quality vs DP lookahead window
/// (the LOS paper's lookahead-50 claim).
pub fn ablation_lookahead(cfg: &ReproConfig) -> Figure {
    let machine = MachineSpec::BLUEGENE_P;
    let base = GeneratorConfig {
        n_jobs: cfg.n_jobs,
        ..GeneratorConfig::paper_batch(0.2)
    };
    let workloads: Vec<Workload> = (0..cfg.replications)
        .map(|r| gen_calibrated(&base, machine, 0.9, cfg.base_seed + r as u64))
        .collect();
    let lookaheads = [1usize, 2, 5, 10, 25, 50, 100];
    let mut tasks = Vec::new();
    for (i, &look) in lookaheads.iter().enumerate() {
        for (wi, _) in workloads.iter().enumerate() {
            tasks.push((i, look, wi));
        }
    }
    let results: Vec<(usize, RunMetrics)> = run_stage(
        "ablation-lookahead simulations",
        tasks,
        |_, (_, look, wi)| format!("ablation lookahead={look} wl{wi}"),
        |(i, look, wi)| {
            let exp = Experiment {
                params: SchedParams {
                    cs: default_cs_for_ps(0.2),
                    lookahead: look,
                },
                machine,
                ..Experiment::new(Algorithm::DelayedLos)
            };
            (i, exp.run(&workloads[wi]).expect("simulation must complete"))
        },
    );
    let mut points = Vec::new();
    for (i, &look) in lookaheads.iter().enumerate() {
        let bucket: Vec<RunMetrics> = results
            .iter()
            .filter(|(j, _)| *j == i)
            .map(|(_, m)| m.clone())
            .collect();
        points.push(average(&bucket, look as f64));
    }
    Figure {
        id: "ablation-lookahead".into(),
        title: "Delayed-LOS vs DP lookahead window (Load=0.9, P_S=0.2)".into(),
        x_label: "Lookahead (jobs)".into(),
        series: vec![Series {
            algorithm: "Delayed-LOS".into(),
            points,
        }],
    }
}

/// Ablation: runtime over-estimation factor (Mu'alem & Feitelson's
/// observation that backfilling works better when estimates are ×2).
pub fn ablation_overestimate(cfg: &ReproConfig) -> Figure {
    let machine = MachineSpec::BLUEGENE_P;
    let factors = [1.0f64, 1.5, 2.0, 3.0];
    let algorithms = [Algorithm::Easy, Algorithm::DelayedLos];
    let mut tasks = Vec::new();
    for (fi, &factor) in factors.iter().enumerate() {
        for (ai, &algo) in algorithms.iter().enumerate() {
            for r in 0..cfg.replications {
                tasks.push((fi, factor, ai, algo, cfg.base_seed + r as u64));
            }
        }
    }
    let n_jobs = cfg.n_jobs;
    // Generation happens inline here, on the same worker that runs the
    // simulation: the pending workload-gen time is absorbed into that
    // run's phase profile by `RunMetrics::from_result`, so no explicit
    // drain is needed.
    let results: Vec<(usize, usize, RunMetrics)> = run_stage(
        "ablation-overestimate simulations",
        tasks,
        |_, (_, factor, _, algo, seed)| {
            format!("ablation overestimate={factor} {} seed={seed}", algo.name())
        },
        |(fi, factor, ai, algo, seed)| {
            let mut base = GeneratorConfig {
                n_jobs,
                ..GeneratorConfig::paper_batch(0.5)
            };
            base.overestimate_factor = factor;
            let w = calibrated_workload(&base, machine, 0.9, seed);
            let exp = Experiment::new(algo).on_machine(machine);
            (
                fi,
                ai,
                exp.run(&w).expect("simulation must complete"),
            )
        },
    );
    let mut series: Vec<Series> = algorithms
        .iter()
        .map(|a| Series {
            algorithm: a.name().to_string(),
            points: Vec::new(),
        })
        .collect();
    for (fi, &factor) in factors.iter().enumerate() {
        for (ai, _) in algorithms.iter().enumerate() {
            let bucket: Vec<RunMetrics> = results
                .iter()
                .filter(|(f, a, _)| *f == fi && *a == ai)
                .map(|(_, _, m)| m.clone())
                .collect();
            series[ai].points.push(average(&bucket, factor));
        }
    }
    Figure {
        id: "ablation-overestimate".into(),
        title: "Effect of runtime over-estimation factor (Load=0.9, P_S=0.5)".into(),
        x_label: "Over-estimation factor".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReproConfig {
        ReproConfig {
            n_jobs: 60,
            replications: 1,
            base_seed: 7,
            loads: vec![0.8],
            cs_values: vec![2, 6],
        }
    }

    #[test]
    fn fig7_structure() {
        let f = fig7(&tiny());
        assert_eq!(f.id, "fig7");
        assert_eq!(f.series.len(), 3);
        for s in &f.series {
            assert_eq!(s.points.len(), 1);
            let p = &s.points[0];
            assert!(p.utilization > 0.0 && p.utilization <= 1.0);
            assert!(p.slowdown >= 1.0);
        }
        assert!(f.series_for("Delayed-LOS").is_some());
        assert!(f.series_for("EASY").is_some());
        assert!(f.series_for("LOS").is_some());
    }

    #[test]
    fn fig5_baselines_are_flat_in_cs() {
        let f = fig5(&tiny());
        let easy = f.series_for("EASY").unwrap();
        assert_eq!(easy.points.len(), 2);
        assert_eq!(easy.points[0].mean_wait, easy.points[1].mean_wait);
        let dl = f.series_for("Delayed-LOS").unwrap();
        assert_eq!(dl.points[0].x, 2.0);
        assert_eq!(dl.points[1].x, 6.0);
    }

    #[test]
    fn fig9_has_dedicated_delay_data() {
        let f = fig9(&tiny());
        assert_eq!(f.series.len(), 3);
        for s in &f.series {
            assert!(s.points[0].dedicated_delay >= 0.0);
        }
    }

    #[test]
    fn fig11_panels() {
        let figs = fig11(&tiny());
        assert_eq!(figs.len(), 2);
        assert!(figs[0].series_for("Delayed-LOS-E").is_some());
        assert!(figs[1].series_for("Hybrid-LOS-E").is_some());
        let t6 = table6(&figs[0]);
        assert_eq!(t6.baselines, vec!["LOS-E".to_string(), "EASY-E".to_string()]);
        let t7 = table7(&figs[1]);
        assert_eq!(t7.ours, "Hybrid-LOS-E");
    }

    #[test]
    fn table_from_figure() {
        let f = fig7(&tiny());
        let t = table4(&f);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.baselines, vec!["LOS".to_string(), "EASY".to_string()]);
        for (_, vals) in &t.rows {
            assert_eq!(vals.len(), 2);
            for v in vals {
                assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn default_cs_map() {
        assert_eq!(default_cs_for_ps(0.8), 3);
        assert_eq!(default_cs_for_ps(0.5), 7);
        assert_eq!(default_cs_for_ps(0.2), 8);
    }

    #[test]
    fn fig1_runs_on_sdsc_machine() {
        let f = fig1(&tiny());
        assert_eq!(f.series.len(), 2);
        assert!(f.series_for("LOS").is_some());
    }
}
