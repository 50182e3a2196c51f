//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all [--quick] [--out DIR]        # everything (writes results/)
//! repro fig1|fig5|fig6|fig7|fig8|fig9|fig10|fig11 [--quick] [--out DIR]
//! repro table3|table4|table5|table6|table7 [--quick]
//! repro baselines [--quick]              # §II-B related-work disciplines
//! repro ablation-lookahead|ablation-overestimate|ablation-contiguity [--quick]
//! repro perf-gate                        # benchmark vs scripts/perf_baseline.jsonl
//! repro soak --smoke                     # 50k-job streamed replay, bounded RSS
//! ```
//!
//! `perf-gate` runs the repository benchmark (`BENCHMARK.json`) as many
//! times as the committed baseline has lines and fails when an
//! end-to-end metric's median is worse than the baseline's by more than
//! its declared bound; run it from the repository root. `soak --smoke`
//! is a leak check, not a timing gate.
//!
//! Global flags: `--serve-metrics <addr>` serves `/metrics` (Prometheus
//! text) and `/status` (JSON) for the duration of the run; `--progress`
//! prints per-point stderr progress lines with rate and ETA. Either one
//! starts a telemetry campaign, whose per-scheduler cost table is
//! printed at exit (see DESIGN.md §11; `escli top --addr <addr>` gives a
//! one-shot live view).
//!
//! Figures are emitted as text series, CSV, JSON, and SVG plots.
//!
//! Absolute numbers are not expected to match the paper (different
//! substrate); the *shapes* — who wins, by roughly what factor — are the
//! reproduction target. EXPERIMENTS.md records paper-vs-measured.

use elastisched::figures::{self, Figure, ImprovementTable, ReproConfig};
use elastisched::report::{figure_to_text, table_to_text, write_figure, write_table};
use elastisched_sched::Algorithm;
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    quick: bool,
    out: PathBuf,
}

fn emit_figure(fig: &Figure, opts: &Opts) {
    print!("{}", figure_to_text(fig));
    if let Err(e) = write_figure(&opts.out, fig) {
        eprintln!("warning: could not write {}: {e}", fig.id);
    }
    if let Err(e) = elastisched::write_figure_svgs(&opts.out, fig) {
        eprintln!("warning: could not write {} SVGs: {e}", fig.id);
    }
}

fn emit_table(t: &ImprovementTable, opts: &Opts) {
    print!("{}", table_to_text(t));
    if let Err(e) = write_table(&opts.out, t) {
        eprintln!("warning: could not write {}: {e}", t.id);
    }
}

fn table3() {
    println!("== Table III: list of all algorithms ==");
    println!("{:<16} {:<15} ECC Processor", "Algorithm", "Workload");
    for a in Algorithm::PAPER_TABLE_III {
        println!(
            "{:<16} {:<15} {}",
            a.name(),
            if a.heterogeneous() {
                "Heterogeneous"
            } else {
                "Batch"
            },
            if a.elastic() { "Yes" } else { "No" }
        );
    }
}

/// The BlueGene contiguity + migration study for EASY and Delayed-LOS.
fn contiguity(cfg: &ReproConfig, opts: &Opts) {
    for algo in [Algorithm::Easy, Algorithm::DelayedLos] {
        let study = elastisched::contiguity_study(cfg, algo);
        print!("{}", elastisched::contiguity::study_to_text(&study));
        let json = serde_json::to_string_pretty(&study).expect("study serializes");
        let _ = std::fs::create_dir_all(&opts.out);
        let name = format!("ablation-contiguity-{}.json", algo.name());
        let _ = std::fs::write(opts.out.join(name.to_ascii_lowercase()), json);
    }
}

fn run(target: &str, cfg: &ReproConfig, opts: &Opts) -> Result<(), String> {
    match target {
        "fig1" => emit_figure(&figures::fig1(cfg), opts),
        "fig5" => emit_figure(&figures::fig5(cfg), opts),
        "fig6" => emit_figure(&figures::fig6(cfg), opts),
        "fig7" => emit_figure(&figures::fig7(cfg), opts),
        "fig8" => {
            for f in figures::fig8(cfg) {
                emit_figure(&f, opts);
            }
        }
        "fig9" => emit_figure(&figures::fig9(cfg), opts),
        "fig10" => emit_figure(&figures::fig10(cfg), opts),
        "fig11" => {
            for f in figures::fig11(cfg) {
                emit_figure(&f, opts);
            }
        }
        "table3" => table3(),
        "table4" => emit_table(&figures::table4(&figures::fig7(cfg)), opts),
        "table5" => emit_table(&figures::table5(&figures::fig9(cfg)), opts),
        "table6" => {
            let figs = figures::fig11(cfg);
            emit_table(&figures::table6(&figs[0]), opts);
        }
        "table7" => {
            let figs = figures::fig11(cfg);
            emit_table(&figures::table7(&figs[1]), opts);
        }
        "baselines" => emit_figure(&figures::baselines(cfg), opts),
        "ablation-contiguity" => contiguity(cfg, opts),
        "ablation-lookahead" => emit_figure(&figures::ablation_lookahead(cfg), opts),
        "ablation-overestimate" => emit_figure(&figures::ablation_overestimate(cfg), opts),
        "perf-gate" => println!("{}", elastisched_bench::perfgate::run()?),
        "soak" => {
            // The leak check `scripts/ci.sh` runs: a 50k-job streamed
            // replay whose peak-RSS growth must stay under 64 MiB. It is
            // the target's only mode, so `--smoke` is accepted, not needed.
            let verdict = elastisched_bench::soakbench::smoke(50_000, 64 * 1024)?;
            println!("{verdict}");
        }
        "all" => {
            table3();
            emit_figure(&figures::fig1(cfg), opts);
            emit_figure(&figures::fig5(cfg), opts);
            emit_figure(&figures::fig6(cfg), opts);
            let f7 = figures::fig7(cfg);
            emit_figure(&f7, opts);
            emit_table(&figures::table4(&f7), opts);
            for f in figures::fig8(cfg) {
                emit_figure(&f, opts);
            }
            let f9 = figures::fig9(cfg);
            emit_figure(&f9, opts);
            emit_table(&figures::table5(&f9), opts);
            emit_figure(&figures::fig10(cfg), opts);
            let f11 = figures::fig11(cfg);
            for f in &f11 {
                emit_figure(f, opts);
            }
            emit_table(&figures::table6(&f11[0]), opts);
            emit_table(&figures::table7(&f11[1]), opts);
            emit_figure(&figures::baselines(cfg), opts);
            contiguity(cfg, opts);
            emit_figure(&figures::ablation_lookahead(cfg), opts);
            emit_figure(&figures::ablation_overestimate(cfg), opts);
        }
        other => {
            return Err(format!(
                "unknown target {other:?}; try: all, fig1, fig5-fig11, table3-table7, \
                 ablation-lookahead, ablation-overestimate, ablation-contiguity, baselines, \
                 perf-gate, soak"
            ))
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: repro <target> [--quick] [--out DIR] [--serve-metrics ADDR] [--progress]\n\
             targets: all, fig1, fig5, fig6, fig7, fig8, fig9, fig10, fig11,\n\
             \x20        table3, table4, table5, table6, table7,\n\
             \x20        baselines, ablation-lookahead, ablation-overestimate, ablation-contiguity,\n\
             \x20        perf-gate, soak --smoke"
        );
        return ExitCode::from(2);
    }
    let target = args[0].clone();
    let quick = args.iter().any(|a| a == "--quick");
    let progress = args.iter().any(|a| a == "--progress");
    let serve_metrics = args
        .iter()
        .position(|a| a == "--serve-metrics")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    let telemetry_requested = serve_metrics.is_some() || progress;
    if telemetry_requested {
        if let Err(e) = elastisched::telemetry::init(serve_metrics.as_deref(), progress) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        elastisched::telemetry::set_label("command", &format!("repro {target}"));
    }
    let cfg = if quick {
        ReproConfig::quick()
    } else {
        ReproConfig::paper()
    };
    let opts = Opts { quick, out };
    if opts.quick {
        eprintln!(
            "(quick mode: {} jobs, {} loads)",
            cfg.n_jobs,
            cfg.loads.len()
        );
    }
    let result = run(&target, &cfg, &opts);
    if telemetry_requested {
        if let Some(table) = elastisched::telemetry::cost_table() {
            eprint!("{table}");
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
