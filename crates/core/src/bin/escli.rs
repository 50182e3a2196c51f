//! `escli` — command-line front end for the elastisched library.
//!
//! Subcommands:
//!
//! * `generate` — produce a synthetic CWF workload file;
//! * `run` — simulate one algorithm over a CWF/SWF trace and print the
//!   paper's metrics;
//! * `compare` — run several algorithms over the same trace;
//! * `gantt` — render a schedule as a text Gantt chart + sparkline;
//! * `timeline` — simulate with the virtual-time telemetry sampler on
//!   and render the run's load shape as sparkline tracks, with optional
//!   JSONL / CSV export;
//! * `explain` — replay one job's trace: lifecycle plus every scheduler
//!   decision that touched it, with optional JSONL / Chrome-trace
//!   export — or `--postmortem <file>` to replay a flight-recorder
//!   dump, or `--why-wait <job>` for the job's wait-cause breakdown;
//! * `diff` — run two algorithms over the same workload with wait-time
//!   attribution and tracing on, and report the metric deltas, the
//!   per-cause attribution shift, and the first divergent scheduler
//!   decision (lockstep trace replay);
//! * `tune` — empirically tune the maximum skip count `C_s` (§V-A);
//! * `info` — trace statistics and workload characterization;
//! * `top` — one-shot live view of another invocation's `--serve-metrics`
//!   endpoint (`/status`);
//! * `algorithms` — list the algorithm registry (paper Table III).
//!
//! The global `--serve-metrics <addr>` / `--progress` flags start a
//! telemetry campaign for any simulating subcommand: a Prometheus-style
//! scrape endpoint (`/metrics` + `/status`), stderr progress lines with
//! ETA, and a per-scheduler cost table at exit. See DESIGN.md §11.

use elastisched::prelude::*;
use elastisched_sched::SchedParams;
use elastisched_workload::cwf::CwfFile;
use std::process::ExitCode;

fn usage() -> &'static str {
    "escli — elastic heterogeneous job-scheduling simulator

USAGE:
  escli generate --out <file.cwf> [--jobs N] [--ps P] [--pd P] [--pm P]
                 [--eccs] [--load L] [--seed S]
  escli run --trace <file.cwf> --algo <name> [--cs N] [--machine M:unit]
            [--attribution]
  escli diff <algo-a> <algo-b> [--trace <file.cwf>] [--cs N] [--machine M:unit]
             [--jobs N] [--ps P] [--pd P] [--eccs] [--seed S]
  escli compare --trace <file.cwf> [--algos a,b,c] [--cs N] [--machine M:unit]
  escli gantt --trace <file.cwf> --algo <name> [--cs N] [--machine M:unit]
              [--width W] [--rows R]
  escli timeline --trace <file.cwf> --algo <name> [--cs N] [--machine M:unit]
                 [--stride SECS] [--budget N] [--jsonl <out.jsonl>] [--csv <out.csv>]
  escli explain --trace <file.cwf> --algo <name> --job <id> [--cs N]
                [--machine M:unit] [--jsonl <out.jsonl>] [--chrome <out.json>]
  escli explain --trace <file.cwf> --algo <name> --why-wait <id> [--cs N]
                [--machine M:unit]
  escli explain --postmortem <dump.jsonl>
  escli tune --ps P [--load L] [--jobs N] [--reps R] [--cs 1,3,7,...]
  escli info --trace <file.cwf>
  escli top --addr <host:port>
  escli algorithms

Global flags (any simulating subcommand):
  --serve-metrics <addr>  serve /metrics (Prometheus) and /status (JSON)
                          while running, e.g. 127.0.0.1:9898
  --progress              stderr progress lines with rate and ETA

Defaults: 500 jobs, P_S=0.5, P_D=0, machine 320:32 (BlueGene/P), C_s=7.
Algorithms: FCFS, Conservative, EASY[-D|-E|-DE], LOS[-D|-E|-DE],
            Delayed-LOS[-E], Hybrid-LOS[-E], Adaptive — or a stack spec
            <core>[+d][+m][+e] (e.g. \"delayed-los+d\", \"fcfs+d\",
            \"hybrid-los+m\", \"easy+d+e\"); see `escli algorithms`."
}

struct Args {
    flags: std::collections::HashMap<String, String>,
    bools: std::collections::HashSet<String>,
    /// Bare tokens that were not consumed as a flag's value, in order
    /// (`escli diff easy delayed-los`).
    pos: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut flags = std::collections::HashMap::new();
        let mut bools = std::collections::HashSet::new();
        let mut pos = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(name) = argv[i].strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    flags.insert(name.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    bools.insert(name.to_string());
                    i += 1;
                }
            } else {
                pos.push(argv[i].clone());
                i += 1;
            }
        }
        Args { flags, bools, pos }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.bools.contains(name)
    }
}

fn parse_machine(args: &Args) -> Result<MachineSpec, String> {
    match args.get("machine") {
        None => Ok(MachineSpec::BLUEGENE_P),
        Some(spec) => {
            let (m, u) = spec
                .split_once(':')
                .ok_or_else(|| format!("--machine must be TOTAL:UNIT, got {spec:?}"))?;
            Ok(MachineSpec {
                total: m.parse().map_err(|_| "bad machine total".to_string())?,
                unit: u.parse().map_err(|_| "bad machine unit".to_string())?,
            })
        }
    }
}

fn load_trace(path: &str) -> Result<Workload, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let cwf = CwfFile::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    Ok(cwf.to_workload())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let out = args.get("out").ok_or("--out is required")?;
    let jobs: usize = args.get_parsed("jobs", 500)?;
    let ps: f64 = args.get_parsed("ps", 0.5)?;
    let pd: f64 = args.get_parsed("pd", 0.0)?;
    let pm: f64 = args.get_parsed("pm", 0.0)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let mut cfg = GeneratorConfig::paper_heterogeneous(ps, pd)
        .with_jobs(jobs)
        .with_seed(seed)
        .with_malleable(pm);
    if args.has("eccs") {
        cfg = cfg.with_paper_eccs();
    }
    let mut w = generate(&cfg);
    if let Some(load) = args.get("load") {
        let load: f64 = load.parse().map_err(|_| "bad --load")?;
        w.scale_to_load(320, load);
    }
    let file = CwfFile::from_workload(&w);
    std::fs::write(out, file.to_text()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} jobs ({} dedicated, {} malleable), {} ECCs, offered load {:.3}",
        w.len(),
        w.dedicated_count(),
        w.jobs.iter().filter(|j| j.is_malleable()).count(),
        w.eccs.len(),
        w.offered_load(320)
    );
    Ok(())
}

fn print_metrics(m: &RunMetrics) {
    println!(
        "{:<14} util {:>7.4}  wait {:>9.1}s  slowdown {:>7.3}  jobs {:>5}  ded-delay {:>8.1}s  eccs {}",
        m.scheduler,
        m.utilization,
        m.mean_wait,
        m.slowdown,
        m.jobs,
        m.mean_dedicated_delay,
        m.eccs_applied
    );
    if m.dp_cache_hits + m.dp_cache_misses > 0 {
        println!(
            "{:<14} dp solves {} ({} cached), dp time {:.3}ms",
            "",
            m.dp_cache_hits + m.dp_cache_misses,
            m.dp_cache_hits,
            m.dp_nanos as f64 / 1e6
        );
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let trace = args.get("trace").ok_or("--trace is required")?;
    let exp = Experiment {
        attribution: args.has("attribution"),
        ..experiment(args)?
    };
    let w = load_trace(trace)?;
    let m = exp.run(&w).map_err(|e| e.to_string())?;
    print_metrics(&m);
    if exp.attribution {
        println!("wait attribution:");
        print!("{}", elastisched::render_attribution(&m.attribution));
    }
    Ok(())
}

/// The experiment for `name` — a registry name ("Hybrid-LOS") or a
/// stack spec ("delayed-los+d", "fcfs+d", "hybrid-los+m") — with the
/// shared `--cs` and `--machine` flags applied.
fn experiment_for(name: &str, args: &Args) -> Result<Experiment, String> {
    Ok(Experiment {
        params: SchedParams::with_cs(args.get_parsed("cs", 7)?),
        machine: parse_machine(args)?,
        ..Experiment::new(name.trim().parse::<StackSpec>()?)
    })
}

/// [`experiment_for`] the required `--algo` flag.
fn experiment(args: &Args) -> Result<Experiment, String> {
    experiment_for(args.get("algo").ok_or("--algo is required")?, args)
}

fn cmd_diff(args: &Args) -> Result<(), String> {
    let [a, b] = args.pos.as_slice() else {
        return Err("diff needs exactly two algorithms: escli diff <algo-a> <algo-b>".to_string());
    };
    let w = match args.get("trace") {
        Some(path) => load_trace(path)?,
        None => {
            // No trace: generate the headline workload with the same
            // defaults as `escli generate`.
            let jobs: usize = args.get_parsed("jobs", 500)?;
            let ps: f64 = args.get_parsed("ps", 0.5)?;
            let pd: f64 = args.get_parsed("pd", 0.0)?;
            let seed: u64 = args.get_parsed("seed", 42)?;
            let mut cfg = GeneratorConfig::paper_heterogeneous(ps, pd)
                .with_jobs(jobs)
                .with_seed(seed);
            if args.has("eccs") {
                cfg = cfg.with_paper_eccs();
            }
            generate(&cfg)
        }
    };
    let d = elastisched::diff_runs(&experiment_for(a, args)?, &experiment_for(b, args)?, &w)
        .map_err(|e| e.to_string())?;
    print!("{}", elastisched::render_diff(&d));
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let trace = args.get("trace").ok_or("--trace is required")?;
    let machine = parse_machine(args)?;
    let w = load_trace(trace)?;
    let names = match args.get("algos") {
        Some(list) => list.split(',').collect(),
        None if w.dedicated_count() > 0 => vec!["EASY-D", "LOS-D", "Hybrid-LOS"],
        None => vec!["EASY", "LOS", "Delayed-LOS"],
    };
    let exps = names
        .into_iter()
        .map(|name| experiment_for(name, args))
        .collect::<Result<Vec<_>, _>>()?;
    println!(
        "trace: {} jobs ({} dedicated), {} ECCs, load {:.3}",
        w.len(),
        w.dedicated_count(),
        w.eccs.len(),
        w.offered_load(machine.total)
    );
    let results = elastisched::parallel_map(exps, |exp| exp.run(&w).map_err(|e| e.to_string()));
    for r in results {
        print_metrics(&r?);
    }
    Ok(())
}

fn cmd_gantt(args: &Args) -> Result<(), String> {
    let trace = args.get("trace").ok_or("--trace is required")?;
    let exp = experiment(args)?;
    let width: usize = args.get_parsed("width", 100)?;
    let rows: usize = args.get_parsed("rows", 40)?;
    let machine = exp.machine;
    let w = load_trace(trace)?;
    let r = exp.run_raw(&w).map_err(|e| e.to_string())?;
    println!("{}", elastisched_metrics::gantt(&r.outcomes, width, rows));
    let profile = elastisched_metrics::utilization_profile(
        &r.outcomes,
        machine.total,
        (r.makespan.as_secs() / width.max(1) as u64).max(1),
    );
    println!("utilization {}", elastisched_metrics::sparkline(&profile));
    println!(
        "mean utilization {:.4} over makespan {}s ('·' waiting, '=' batch, '#' dedicated)",
        r.mean_utilization(),
        r.makespan.as_secs()
    );
    Ok(())
}

fn cmd_timeline(args: &Args) -> Result<(), String> {
    let trace = args.get("trace").ok_or("--trace is required")?;
    let exp = experiment(args)?;
    let stride: u64 = args.get_parsed("stride", 1)?;
    let budget: u32 = args.get_parsed("budget", elastisched_sim::DEFAULT_TIMELINE_BUDGET)?;
    if stride == 0 {
        return Err("--stride must be at least 1 second".to_string());
    }
    let w = load_trace(trace)?;
    let cfg = elastisched_sim::TimelineConfig {
        stride: Duration::from_secs(stride),
        budget,
    };
    let r = exp
        .with_timeline(cfg)
        .run_raw(&w)
        .map_err(|e| e.to_string())?;
    print!("{}", elastisched::render_timeline(&r.timeline));
    if let Some(path) = args.get("jsonl") {
        std::fs::write(path, r.timeline.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote JSONL timeline ({} samples) to {path}",
            r.timeline.samples.len()
        );
    }
    if let Some(path) = args.get("csv") {
        std::fs::write(path, r.timeline.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote CSV timeline ({} samples) to {path}",
            r.timeline.samples.len()
        );
    }
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("postmortem") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        print!("{}", elastisched::explain_postmortem(&text)?);
        return Ok(());
    }
    let trace = args.get("trace").ok_or("--trace is required")?;
    let exp = experiment(args)?;
    let w = load_trace(trace)?;
    if let Some(id) = args.get("why-wait") {
        let job: u64 = id.parse().map_err(|_| "bad --why-wait id".to_string())?;
        let r = exp
            .with_attribution()
            .run_raw(&w)
            .map_err(|e| e.to_string())?;
        let o = r
            .outcomes
            .iter()
            .find(|o| o.id.0 == job)
            .ok_or_else(|| format!("job {job} did not complete in this run"))?;
        print!("{}", elastisched::render_wait_breakdown(o));
        return Ok(());
    }
    let job: u64 = args
        .get("job")
        .ok_or("--job is required")?
        .parse()
        .map_err(|_| "bad --job id".to_string())?;
    let exp = Experiment {
        trace: Some(elastisched_trace::TraceSink::new()),
        ..exp
    };
    let r = exp.run_raw(&w).map_err(|e| e.to_string())?;
    let sink = r.trace.as_deref().expect("tracing was enabled");
    match elastisched::explain_job(sink, job) {
        Some(text) => print!("{text}"),
        None => {
            return Err(format!(
                "job {job} does not appear in the trace ({} events held, {} dropped)",
                sink.len(),
                sink.dropped()
            ))
        }
    }
    if let Some(path) = args.get("jsonl") {
        let text = elastisched_trace::to_jsonl(sink.events());
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote JSONL trace ({} events) to {path}", sink.len());
    }
    if let Some(path) = args.get("chrome") {
        let text = elastisched_trace::to_chrome_trace(sink.events());
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote Chrome trace to {path} (open in ui.perfetto.dev)");
    }
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let ps: f64 = args.get_parsed("ps", 0.5)?;
    let load: f64 = args.get_parsed("load", 0.9)?;
    let jobs: usize = args.get_parsed("jobs", 400)?;
    let reps: usize = args.get_parsed("reps", 2)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let candidates: Vec<u32> = match args.get("cs") {
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("bad C_s {t:?}"))
            })
            .collect::<Result<_, _>>()?,
        None => vec![0, 1, 2, 3, 5, 7, 10, 14, 20],
    };
    let base = GeneratorConfig::paper_batch(ps).with_jobs(jobs);
    let tuning = elastisched::tune_cs(
        &base,
        MachineSpec::BLUEGENE_P,
        load,
        &candidates,
        reps,
        seed,
    );
    println!("tuning C_s for Delayed-LOS (P_S={ps}, load={load}, {jobs} jobs × {reps} seeds):");
    println!("{:>5} {:>12} {:>14}", "C_s", "utilization", "mean wait (s)");
    for c in &tuning.candidates {
        let marker = if c.cs == tuning.best {
            "  ← best"
        } else {
            ""
        };
        println!(
            "{:>5} {:>12.4} {:>14.1}{marker}",
            c.cs, c.utilization, c.mean_wait
        );
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let trace = args.get("trace").ok_or("--trace is required")?;
    let w = load_trace(trace)?;
    println!("jobs:            {}", w.len());
    println!("dedicated:       {}", w.dedicated_count());
    println!("eccs:            {}", w.eccs.len());
    println!("mean size:       {:.1} procs", w.mean_size());
    println!("mean runtime:    {:.1} s", w.mean_runtime());
    println!("offered load:    {:.3} (on 320 procs)", w.offered_load(320));
    if let (Some(first), Some(last)) = (w.jobs.first(), w.jobs.last()) {
        println!(
            "arrival span:    {} .. {} s",
            first.submit.as_secs(),
            last.submit.as_secs()
        );
    }
    println!();
    print!(
        "{}",
        elastisched_workload::characterization_to_text(&elastisched_workload::characterize(&w))
    );
    Ok(())
}

fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args
        .get("addr")
        .ok_or("--addr is required (host:port of a process started with --serve-metrics)")?;
    let (code, body) =
        elastisched_sim::serve::http_get(addr, "/status", std::time::Duration::from_secs(3))
            .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if code != 200 {
        return Err(format!("{addr} returned HTTP {code} for /status"));
    }
    let doc = elastisched_sim::StatusDoc::parse(&body)?;
    print!("{}", elastisched::telemetry::render_status(&doc));
    Ok(())
}

fn cmd_algorithms() {
    println!(
        "{:<18} {:<18} {:<15} ECC Processor",
        "Algorithm", "Stack spec", "Workload"
    );
    for a in Algorithm::ALL {
        println!(
            "{:<18} {:<18} {:<15} {}",
            a.name(),
            a.stack_spec().to_string(),
            if a.heterogeneous() {
                "Heterogeneous"
            } else {
                "Batch"
            },
            if a.elastic() { "Yes" } else { "No" }
        );
    }
    println!("\n`run --algo` also accepts any stack spec <core>[+d][+m][+e]");
    println!("(`+m` = scheduler-initiated malleability over proc-range jobs).");
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let args = Args::parse(&argv[1..]);
    // Global telemetry flags: start the campaign before dispatch so the
    // scrape endpoint is up for the whole run (`top` itself is a client
    // and must not grab the registry).
    let telemetry_requested = args.get("serve-metrics").is_some() || args.has("progress");
    if cmd != "top" && telemetry_requested {
        if let Err(e) =
            elastisched::telemetry::init(args.get("serve-metrics"), args.has("progress"))
        {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        elastisched::telemetry::set_label("command", cmd);
    }
    let result = match cmd {
        "generate" => cmd_generate(&args),
        "run" => cmd_run(&args),
        "diff" => cmd_diff(&args),
        "compare" => cmd_compare(&args),
        "info" => cmd_info(&args),
        "tune" => cmd_tune(&args),
        "gantt" => cmd_gantt(&args),
        "timeline" => cmd_timeline(&args),
        "explain" => cmd_explain(&args),
        "top" => cmd_top(&args),
        "algorithms" => {
            cmd_algorithms();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n\n{}", usage())),
    };
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
