//! The repository benchmark command.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!           [--smoke] [--bless]
//! ```
//!
//! With `--workload` it measures one workload in this process and prints
//! its metrics, the last line being one JSON object. Without, it runs
//! every workload in a child process of its own, so memory and allocator
//! state do not leak between workloads. See README.md.

use elastisched_benchmark::check::{digest, Pins};
use elastisched_benchmark::host::{self, HostClock, REFERENCE_KERNEL_MS};
use elastisched_benchmark::timed::{self, Calibration, Recorder, SelfSums, Span};
use elastisched_benchmark::workloads::{Instance, Kind, Setup, Sizes, OUT_DIR};
use elastisched_sim::SimResult;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1 | --traced] [--smoke] [--bless]";

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median. More do not steady it: its
/// spread between runs comes from the seeds, whose warm-up runs differ.
const SETUPS: usize = 3;
/// Raw spans kept for `spans.jsonl`.
const RING_CAP: usize = 1 << 16;
/// A streamed workload verifies every this-many-th group's instances
/// through the traced path.
const VERIFY_EVERY: u64 = 8;
/// How often the reference kernel is timed: the host's speed changes on
/// a scale of 100 ms.
const KERNEL_EVERY: Duration = Duration::from_millis(20);
/// Span costs are measured at the first group boundary after this many
/// seconds.
const CALIBRATE_EVERY_S: f64 = 0.5;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    bless: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            smoke: false,
            bless: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    args.workload = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                        return Err("--seconds must be a non-negative number".into());
                    }
                }
                "--trace" => {
                    args.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                "--traced" => args.traced = true,
                "--smoke" => args.smoke = true,
                "--bless" => args.bless = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(args)
    }

    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }

    /// Whole groups run until `--seconds` have passed; a smoke run makes
    /// exactly one.
    fn done(&self, started: Instant) -> bool {
        self.smoke || started.elapsed().as_secs_f64() >= self.seconds
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.bless {
        bless()
    } else if let Some(kind) = args.workload {
        let pins = Pins::load();
        let report = if args.traced {
            traced(kind, &args, &pins)
        } else {
            end_to_end(kind, &args, &pins)
        };
        report.map(|r| r.print())
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

/// The last line a run prints.
#[derive(Debug, Serialize, Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

struct Report {
    lines: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        let line = ResultLine {
            correct: self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite()),
            attempted: self.attempted,
            failed: self.failed,
            metrics: self
                .metrics
                .iter()
                .map(|&(name, value, unit)| {
                    let value = if value.is_finite() { value } else { 0.0 };
                    (
                        name.to_string(),
                        MetricValue {
                            value,
                            unit: unit.into(),
                        },
                    )
                })
                .collect(),
        };
        println!(
            "{}",
            serde_json::to_string(&line).expect("result serializes")
        );
    }
}

/// What a run learned about one instance: its untraced run times and
/// the check of its output.
struct Record {
    label: String,
    /// Which group the instance belongs to.
    group: u64,
    /// Each successful untraced run as measured, ms, and its
    /// [`HostClock`] segment.
    runs_ms: Vec<(f64, usize)>,
    /// Arrivals + completions + applied ECCs of one run.
    events: u64,
    /// The traced pass's runs of the instance through the timed wrappers:
    /// the wrapped run's wall time, and the traced run's wall time and
    /// span sums.
    pairs: Vec<(u64, u64, SelfSums)>,
    runs: u64,
    failed: u64,
    digest: Option<String>,
    error: Option<String>,
}

impl Record {
    fn new(label: &str, group: u64) -> Record {
        Record {
            label: label.to_string(),
            group,
            runs_ms: Vec::new(),
            events: 0,
            pairs: Vec::new(),
            runs: 0,
            failed: 0,
            digest: None,
            error: None,
        }
    }

    /// Count one run: its digest, or why it failed. A digest that differs
    /// from the instance's first is a failed output check.
    fn record(&mut self, run: Result<String, String>) {
        self.runs += 1;
        match (run, &self.digest) {
            (Ok(d), None) => self.digest = Some(d),
            (Ok(d), Some(first)) if d == *first => {}
            (Ok(d), Some(first)) => {
                self.failed += 1;
                let why = format!("digest {d} differs from the first run's {first}");
                self.note(why);
            }
            (Err(e), _) => {
                self.failed += 1;
                self.note(e);
            }
        }
    }

    /// The instance's output is wrong, so every run of it failed.
    fn fail_all(&mut self, why: String) {
        self.failed = self.runs;
        self.note(why);
    }

    fn note(&mut self, why: String) {
        self.error.get_or_insert(why);
    }
}

/// One [`Record`] per distinct instance a run has seen.
#[derive(Default)]
struct Records(Vec<Record>);

impl Records {
    /// The records of group `g`'s instances, made on first sight: a
    /// repeated workload reuses the first group's.
    fn of_group(&mut self, setup: &Setup, g: u64, insts: &[Instance]) -> &mut [Record] {
        let start = if setup.streamed() { self.0.len() } else { 0 };
        if self.0.len() < start + insts.len() {
            self.0
                .extend(insts.iter().map(|i| Record::new(&i.label, g)));
        }
        &mut self.0[start..start + insts.len()]
    }

    /// Runs attempted, runs failed, and the first errors.
    fn summary(&self) -> (u64, u64, Vec<String>) {
        let attempted = self.0.iter().map(|r| r.runs).sum();
        let failed = self.0.iter().map(|r| r.failed).sum();
        let errors = self
            .0
            .iter()
            .filter_map(|r| {
                r.error
                    .as_ref()
                    .map(|e| format!("  FAILED {}: {e}", r.label))
            })
            .take(10)
            .collect();
        (attempted, failed, errors)
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Linear-interpolation quantile of ascending `sorted`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    quantile(&xs, 0.5)
}

/// The lower median of a non-empty sequence: a member of it, and the
/// faster of two. A host stall only ever adds time, so this is the
/// estimate of one instance's run time from its repeated runs.
fn lower_median(xs: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.collect();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Inputs ready to measure, and what making them cost.
struct Prepared {
    setup: Setup,
    /// Median set-up time at the reference host speed, and as measured.
    setup_s: f64,
    setup_raw_s: f64,
    generate_ms: f64,
    write_ms: f64,
}

/// Set up [`SETUPS`] times from scratch, each set-up ending with a
/// warm-up run of every distinct scheduler, and keep the last inputs.
fn prepare(kind: Kind, args: &Args, pins: &Pins) -> Result<Prepared, String> {
    let (mut secs, mut raw, mut gen, mut write) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut clock = HostClock::new(Duration::ZERO);
    let mut setup = None;
    for _ in 0..SETUPS {
        // Free the previous inputs (and its trace file) first.
        drop(setup.take());
        clock.close();
        let segment = clock.segment();
        let t = Instant::now();
        let s = Setup::new(kind, args.sizes(), args.seed, &pins.archive_replay)
            .map_err(|e| format!("{} set-up failed: {e}", kind.name()))?;
        // Warm code, caches and the allocator. A failing run fails again
        // when measured, so its result is not needed here.
        let mut seen = Vec::new();
        for inst in s.group(0).iter() {
            if !seen.contains(&inst.entry) {
                seen.push(inst.entry);
                let _ = guarded(|| inst.run_public());
            }
        }
        let elapsed = t.elapsed().as_secs_f64();
        clock.close();
        raw.push(elapsed);
        secs.push(elapsed * clock.scale(segment));
        gen.push(s.generate.as_secs_f64() * 1e3);
        write.push(s.write.as_secs_f64() * 1e3);
        setup = Some(s);
    }
    Ok(Prepared {
        setup: setup.expect("at least one set-up"),
        setup_s: median(secs),
        setup_raw_s: median(raw),
        generate_ms: median(gen),
        write_ms: median(write),
    })
}

/// Check the pinned groups' digests, when this run uses the seed the pins
/// were taken at.
fn check_pins(kind: Kind, args: &Args, pins: &Pins, setup: &Setup, records: &mut Records) -> bool {
    if args.smoke || args.seed != pins.seed {
        return false;
    }
    let pinned = pins.digests.get(kind.name());
    for rec in records
        .0
        .iter_mut()
        .filter(|r| r.group < setup.reference_groups())
    {
        let want = pinned.and_then(|p| p.get(&rec.label));
        if want.is_none() || want != rec.digest.as_ref() {
            let why = format!(
                "digest {:?} differs from the pinned {want:?} (re-pin with --bless)",
                rec.digest
            );
            rec.fail_all(why);
        }
    }
    true
}

/// Run each instance through the traced path, which must reproduce the
/// digest of its untraced runs.
fn verify(insts: &[Instance], recs: &mut [Record]) {
    timed::install(Recorder::new(Calibration::default(), 0));
    for (inst, rec) in insts.iter().zip(recs) {
        match guarded(|| inst.run_decomposed(true, true)) {
            Ok(d) if rec.digest.as_deref() == Some(digest(&d.metrics).as_str()) => {}
            Ok(d) => {
                let why = format!(
                    "traced digest {} differs from untraced {:?}",
                    digest(&d.metrics),
                    rec.digest
                );
                rec.fail_all(why);
            }
            Err(e) => {
                timed::drop_open_spans();
                rec.fail_all(format!("traced run: {e}"));
            }
        }
    }
    timed::uninstall();
}

fn end_to_end(kind: Kind, args: &Args, pins: &Pins) -> Result<Report, String> {
    let prep = prepare(kind, args, pins)?;
    let setup = &prep.setup;
    let mut records = Records::default();
    let mut groups = 0u64;
    let mut clock = HostClock::new(KERNEL_EVERY);
    let mut peak_rss_mb = None;
    host::reset_peak_rss()?;
    let started = Instant::now();
    loop {
        let insts = setup.group(groups);
        let recs = records.of_group(setup, groups, &insts);
        for _ in 0..setup.passes() {
            for (inst, rec) in insts.iter().zip(recs.iter_mut()) {
                let segment = clock.segment();
                let t = Instant::now();
                let run = guarded(|| inst.run_public());
                let ms = nanos_since(t) as f64 / 1e6;
                if let Ok(m) = &run {
                    rec.runs_ms.push((ms, segment));
                    rec.events = 2 * m.jobs as u64 + m.eccs_applied;
                }
                rec.record(run.map(|m| digest(&m)));
                clock.tick();
            }
        }
        // A streamed group is verified while its inputs exist; a sample of
        // groups keeps the traced runs to a fraction of the measured ones.
        if setup.streamed() && groups % VERIFY_EVERY == 0 {
            verify(&insts, recs);
        }
        groups += 1;
        let done = args.done(started);
        if peak_rss_mb.is_none() && (done || groups == setup.rss_groups()) {
            peak_rss_mb = Some(host::peak_rss_mb()?);
        }
        if done {
            break;
        }
    }
    clock.close();
    let peak_rss_mb = peak_rss_mb.expect("read by the last group");
    if !setup.streamed() {
        let insts = setup.group(0);
        verify(&insts, records.of_group(setup, 0, &insts));
    }
    let pinned = check_pins(kind, args, pins, setup, &mut records);

    // Each instance's time is the lower median of its runs: the faster of
    // two (a host hiccup rarely slows both), the median of the archive's
    // replays. The quantiles are over instances.
    let (mut inst_ms, mut raw_ms, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for rec in records.0.iter().filter(|r| !r.runs_ms.is_empty()) {
        let ms = lower_median(rec.runs_ms.iter().map(|&(ms, s)| ms * clock.scale(s)));
        inst_ms.push(ms);
        raw_ms.push(lower_median(rec.runs_ms.iter().map(|r| r.0)));
        rates.push(rec.events as f64 / (ms / 1e3));
    }
    inst_ms.sort_by(f64::total_cmp);
    raw_ms.sort_by(f64::total_cmp);
    let n = inst_ms.len();
    let (p50, p99) = (quantile(&inst_ms, 0.5), quantile(&inst_ms, 0.99));
    let above_p99 = inst_ms.iter().filter(|&&x| x > p99).count();
    let events_per_s = median(rates);
    let mut kernels = clock.timings().to_vec();
    kernels.sort_by(f64::total_cmp);
    let (attempted, failed, errors) = records.summary();
    let mut lines = vec![format!(
        "{}: seed {}, {groups} groups, {n} instances, {attempted} runs, {failed} failed \
         (failed_frac {}); outputs checked against the traced path{}",
        kind.name(),
        args.seed,
        ratio(failed as f64, attempted as f64),
        if pinned {
            " and the pinned digests"
        } else {
            ""
        },
    )];
    lines.extend(errors);
    lines.push(format!(
        "  host: reference kernel {:.4} ms (quartiles {:.4}-{:.4} over {} timings); times \
         below are scaled to {REFERENCE_KERNEL_MS} ms",
        quantile(&kernels, 0.5),
        quantile(&kernels, 0.25),
        quantile(&kernels, 0.75),
        kernels.len(),
    ));
    lines.push(format!(
        "  events_per_s {events_per_s:.1} 1/s  (median over {n} instances)"
    ));
    lines.push(format!(
        "  run_ms_p50 {p50:.4} ms  (n={n} instances; {:.4} ms as measured)",
        quantile(&raw_ms, 0.5)
    ));
    lines.push(format!(
        "  run_ms_p99 {p99:.4} ms  (n={n} instances, {above_p99} above; {:.4} ms as measured)",
        quantile(&raw_ms, 0.99)
    ));
    lines.push(format!(
        "  peak_rss_mb {peak_rss_mb:.2} MiB  (VmHWM over the first {} groups)",
        groups.min(setup.rss_groups())
    ));
    lines.push(format!(
        "  setup_s {:.4} s  (median of {SETUPS} set-ups, {:.4} s as measured; generate {:.1} ms, \
         write {:.1} ms)",
        prep.setup_s, prep.setup_raw_s, prep.generate_ms, prep.write_ms
    ));
    Ok(Report {
        lines,
        metrics: vec![
            ("events_per_s", events_per_s, "1/s"),
            ("run_ms_p50", p50, "ms"),
            ("run_ms_p99", p99, "ms"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("setup_s", prep.setup_s, "s"),
        ],
        attempted,
        failed,
    })
}

/// Totals over the reference groups of the program's own counters. The
/// counts repeat exactly for a seed; `dp_ns_est` is the program's sampled
/// estimate of its DP time.
#[derive(Default)]
struct Counts {
    events: u64,
    cycles: u64,
    events_coalesced: u64,
    queue_ops: u64,
    peak_queue_len: u64,
    peak_live_jobs: u64,
    peak_wait_views: u64,
    eccs_applied: u64,
    reconfig_grows: u64,
    reconfig_shrinks: u64,
    timeline_samples: u64,
    dp_hits: u64,
    dp_misses: u64,
    dp_incremental_hits: u64,
    dp_incremental_rebuilds: u64,
    head_skips: u64,
    dp_starts: u64,
    promotions: u64,
    dp_ns_est: u64,
}

impl Counts {
    fn add(&mut self, r: &SimResult) {
        let (e, s) = (&r.engine, &r.sched_stats);
        self.events += e.events;
        self.cycles += e.cycles;
        self.events_coalesced += e.events_coalesced;
        self.queue_ops += e.queue_ops;
        self.peak_queue_len = self.peak_queue_len.max(e.peak_queue_len);
        self.peak_live_jobs = self.peak_live_jobs.max(e.peak_live_jobs);
        self.peak_wait_views = self.peak_wait_views.max(e.peak_wait_views);
        self.eccs_applied += r.ecc.applied();
        self.reconfig_grows += r.reconfig.grows;
        self.reconfig_shrinks += r.reconfig.shrinks;
        self.timeline_samples += r.timeline.samples.len() as u64;
        self.dp_hits += s.dp_cache_hits;
        self.dp_misses += s.dp_cache_misses;
        self.dp_incremental_hits += s.dp_incremental_hits;
        self.dp_incremental_rebuilds += s.dp_incremental_rebuilds;
        self.head_skips += s.head_skips;
        self.dp_starts += s.dp_starts;
        self.promotions += s.dedicated_promotions;
        self.dp_ns_est += s.dp_nanos;
    }
}

/// Totals over the traced runs of one kind (planes on or off).
#[derive(Default)]
struct TracedTotals {
    events: u64,
    jobs: u64,
}

impl TracedTotals {
    fn engine_self_ns_per_event(&self, rec: &Recorder, cal: Calibration) -> f64 {
        ratio(rec.stats(Span::Run).self_ns(cal), self.events as f64)
    }
}

fn traced(kind: Kind, args: &Args, pins: &Pins) -> Result<Report, String> {
    let prep = prepare(kind, args, pins)?;
    let setup = &prep.setup;
    let mut records = Records::default();
    let mut cals = vec![Calibration::measure()];
    let mut rec_on = Recorder::new(cals[0], 0);
    let mut rec_off = Recorder::new(cals[0], 0);
    let (mut on, mut off) = (TracedTotals::default(), TracedTotals::default());
    let mut counts = Counts::default();
    let (mut public_ns, mut pieces_ns, mut groups) = (0u64, 0u64, 0u64);
    let mut last_cal = Instant::now();
    let started = Instant::now();
    loop {
        let insts = setup.group(groups);
        let recs = records.of_group(setup, groups, &insts);
        // Each instance runs five ways back to back, so that the host's
        // speed, which changes from one 100 ms to the next, is alike for
        // the runs compared: through the public entry points, then step by
        // step (the difference is what `Experiment` adds); through the
        // timed wrappers with no recorder installed (the same code as the
        // traced run without the spans: the baseline for the tracing
        // overhead and coverage); traced; and traced with the observability
        // planes off (the difference in engine self time is what the
        // planes cost).
        for (inst, rec) in insts.iter().zip(recs.iter_mut()) {
            let t = Instant::now();
            let run = guarded(|| inst.run_public());
            public_ns += nanos_since(t);
            rec.record(run.map(|m| digest(&m)));
            let run = guarded(|| inst.run_decomposed(false, true));
            if let Ok(d) = &run {
                pieces_ns += d.pieces.total_ns();
            }
            rec.record(run.map(|d| digest(&d.metrics)));
            let run = guarded(|| inst.run_decomposed(true, true));
            let wrapped_ns = run.as_ref().ok().map(|d| d.wall_ns);
            rec.record(run.map(|d| digest(&d.metrics)));
            for (planes, recorder, totals) in [
                (true, &mut rec_on, &mut on),
                (false, &mut rec_off, &mut off),
            ] {
                let before = recorder.self_sums();
                timed::install(std::mem::replace(recorder, Recorder::new(cals[0], 0)));
                let run = guarded(|| inst.run_decomposed(true, planes));
                if run.is_err() {
                    timed::drop_open_spans();
                }
                *recorder = timed::uninstall();
                if let Ok(d) = &run {
                    totals.events += d.result.engine.events;
                    totals.jobs += d.metrics.jobs as u64;
                    if planes && groups < setup.reference_groups() {
                        counts.add(&d.result);
                    }
                    if let (true, Some(w)) = (planes, wrapped_ns) {
                        let sums = recorder.self_sums().since(before);
                        rec.pairs.push((w, d.wall_ns, sums));
                    }
                }
                rec.record(run.map(|d| digest(&d.metrics)));
            }
        }
        groups += 1;
        // Span cost drifts with the machine's state; the median over the
        // run corrects every sum.
        let done = args.done(started);
        if done || last_cal.elapsed().as_secs_f64() >= CALIBRATE_EVERY_S {
            cals.push(Calibration::measure());
            last_cal = Instant::now();
        }
        if done {
            break;
        }
    }
    let cal = Calibration::median(&cals);
    // Raw spans for spans.jsonl come from a pass of their own over the
    // first group: writing the ring costs more per span than the
    // calibration covers.
    timed::install(Recorder::new(cal, RING_CAP));
    for inst in setup.group(0).iter() {
        if guarded(|| inst.run_decomposed(true, true)).is_err() {
            timed::drop_open_spans();
        }
    }
    let capture = timed::uninstall();
    let (attempted, failed, errors) = records.summary();

    let stat = |s: Span| rec_on.stats(s);
    let total_self = rec_on.total_self_ns(cal);
    let share = |ns: f64| ratio(ns, total_self);
    let per_call = |s: Span| stat(s).per_call_ns(cal);
    let metrics_ns = [
        Span::MetricsFromResult,
        Span::MetricsFold,
        Span::MetricsFinish,
    ]
    .iter()
    .map(|&s| stat(s).incl_ns(cal))
    .sum::<f64>();
    let self_per_event = on.engine_self_ns_per_event(&rec_on, cal);
    // Coverage and overhead compare each instance's wrapped and traced
    // runs by the lower median over its runs, as the end-to-end times do,
    // so that one of the archive's few replays slowed by the host does not
    // set them.
    let (mut wrapped_ns, mut traced_ns, mut traced_self_ns) = (0.0, 0.0, 0.0);
    for rec in records.0.iter().filter(|r| !r.pairs.is_empty()) {
        wrapped_ns += lower_median(rec.pairs.iter().map(|p| p.0 as f64));
        traced_ns += lower_median(rec.pairs.iter().map(|p| p.1 as f64));
        traced_self_ns += lower_median(rec.pairs.iter().map(|p| p.2.self_ns(cal)));
    }
    let c = &counts;
    let metrics: Vec<(&'static str, f64, &'static str)> = vec![
        ("workload.generate_ms", prep.generate_ms, "ms"),
        ("workload.write_ms", prep.write_ms, "ms"),
        (
            "workload.pull_ns_per_item",
            per_call(Span::SourcePull),
            "ns",
        ),
        (
            "workload.pull_share",
            share(stat(Span::SourcePull).self_ns(cal)),
            "frac",
        ),
        ("sim.load_ms", per_call(Span::SimLoad) / 1e6, "ms"),
        ("sim.self_ns_per_event", self_per_event, "ns"),
        (
            "sim.self_share",
            share(stat(Span::Run).self_ns(cal)),
            "frac",
        ),
        (
            "sim.hooks_ns_per_event",
            self_per_event - off.engine_self_ns_per_event(&rec_off, cal),
            "ns",
        ),
        ("sim.events", c.events as f64, "count"),
        ("sim.cycles", c.cycles as f64, "count"),
        ("sim.events_coalesced", c.events_coalesced as f64, "count"),
        ("sim.queue_ops", c.queue_ops as f64, "count"),
        ("sim.peak_queue_len", c.peak_queue_len as f64, "count"),
        ("sim.peak_live_jobs", c.peak_live_jobs as f64, "count"),
        ("sim.peak_wait_views", c.peak_wait_views as f64, "count"),
        ("sim.eccs_applied", c.eccs_applied as f64, "count"),
        ("sim.reconfig_grows", c.reconfig_grows as f64, "count"),
        ("sim.reconfig_shrinks", c.reconfig_shrinks as f64, "count"),
        ("sim.timeline_samples", c.timeline_samples as f64, "count"),
        ("sched.cycle_ns_p50", rec_on.cycle_quantile(0.5, cal), "ns"),
        ("sched.cycle_ns_p95", rec_on.cycle_quantile(0.95, cal), "ns"),
        (
            "sched.cycle_share",
            share(stat(Span::SchedCycle).incl_ns(cal)),
            "frac",
        ),
        (
            "sched.core_share",
            share(stat(Span::CoreCycle).incl_ns(cal)),
            "frac",
        ),
        (
            "sched.arrival_ns_per_job",
            per_call(Span::SchedArrival),
            "ns",
        ),
        ("sched.ecc_ns_per_call", per_call(Span::SchedEcc), "ns"),
        (
            "sched.completion_ns_per_job",
            per_call(Span::SchedCompletion),
            "ns",
        ),
        (
            "sched.layer_m_share",
            share(stat(Span::LayerM).self_ns(cal)),
            "frac",
        ),
        (
            "sched.layer_d_share",
            share(stat(Span::LayerD).self_ns(cal)),
            "frac",
        ),
        ("sched.dp_hits", c.dp_hits as f64, "count"),
        ("sched.dp_misses", c.dp_misses as f64, "count"),
        (
            "sched.dp_hit_ratio",
            ratio(c.dp_hits as f64, (c.dp_hits + c.dp_misses) as f64),
            "ratio",
        ),
        (
            "sched.dp_incremental_hits",
            c.dp_incremental_hits as f64,
            "count",
        ),
        (
            "sched.dp_incremental_rebuilds",
            c.dp_incremental_rebuilds as f64,
            "count",
        ),
        ("sched.head_skips", c.head_skips as f64, "count"),
        ("sched.dp_starts", c.dp_starts as f64, "count"),
        ("sched.promotions", c.promotions as f64, "count"),
        ("sched.dp_ns_est", c.dp_ns_est as f64, "ns"),
        (
            "metrics.from_result_us",
            per_call(Span::MetricsFromResult) / 1e3,
            "us",
        ),
        (
            "metrics.fold_ns_per_job",
            ratio(metrics_ns, on.jobs as f64),
            "ns",
        ),
        (
            "metrics.finish_ms",
            per_call(Span::MetricsFinish) / 1e6,
            "ms",
        ),
        (
            "core.overhead_share",
            ratio(public_ns as f64 - pieces_ns as f64, public_ns as f64),
            "frac",
        ),
        ("trace.clock_ns", cal.outer_ns, "ns"),
        ("trace.overhead_frac", ratio(traced_ns, wrapped_ns), "ratio"),
        ("trace.coverage", ratio(traced_self_ns, wrapped_ns), "ratio"),
    ];
    write_traced_output(kind, args, &rec_on, &capture, cal, groups, &metrics)?;

    let mut lines = vec![format!(
        "{} traced: seed {}, {groups} groups, {} instances x 5 runs (public, decomposed, \
         wrapped, traced, traced without planes) = {attempted} runs, {failed} failed; \
         {} sched.cycle samples; a span costs {:.1} ns ({:.1} ns inside it)",
        kind.name(),
        args.seed,
        records.0.len(),
        rec_on.cycle_sample_count(),
        cal.outer_ns,
        cal.inner_ns,
    )];
    lines.extend(errors);
    for (name, value, unit) in &metrics {
        lines.push(format!("  {name} {value:.6} {unit}"));
    }
    lines.push(format!(
        "  wrote {OUT_DIR}/{0}.layers.json and {OUT_DIR}/{0}.spans.jsonl",
        kind.name()
    ));
    Ok(Report {
        lines,
        metrics,
        attempted,
        failed,
    })
}

#[derive(Serialize)]
struct SpanDoc {
    name: &'static str,
    count: u64,
    incl_ns: f64,
    self_ns: f64,
    self_share: f64,
    /// Log-bucket estimates of the inclusive duration, ns.
    incl_p50_ns: f64,
    incl_p95_ns: f64,
    incl_max_ns: u64,
}

#[derive(Serialize)]
struct LayersDoc {
    workload: &'static str,
    seed: u64,
    groups: u64,
    clock_inner_ns: f64,
    clock_outer_ns: f64,
    spans: Vec<SpanDoc>,
    metrics: BTreeMap<String, f64>,
    spans_kept: usize,
    spans_dropped: u64,
}

fn write_traced_output(
    kind: Kind,
    args: &Args,
    rec: &Recorder,
    capture: &Recorder,
    cal: Calibration,
    groups: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> Result<(), String> {
    let total_self = rec.total_self_ns(cal);
    let (ring, dropped) = capture.ring();
    let doc = LayersDoc {
        workload: kind.name(),
        seed: args.seed,
        groups,
        clock_inner_ns: cal.inner_ns,
        clock_outer_ns: cal.outer_ns,
        spans: Span::REPORTED
            .iter()
            .map(|&s| {
                let st = rec.stats(s);
                SpanDoc {
                    name: s.name(),
                    count: st.count,
                    incl_ns: st.incl_ns(cal),
                    self_ns: st.self_ns(cal),
                    self_share: ratio(st.self_ns(cal), total_self),
                    incl_p50_ns: st.hist.quantile(0.5),
                    incl_p95_ns: st.hist.quantile(0.95),
                    incl_max_ns: st.hist.max,
                }
            })
            .collect(),
        metrics: metrics
            .iter()
            .map(|&(name, value, _)| (name.to_string(), value))
            .collect(),
        spans_kept: ring.len(),
        spans_dropped: dropped,
    };
    let mut jsonl = String::with_capacity(ring.len() * 120);
    for s in ring {
        let _ = writeln!(
            jsonl,
            r#"{{"run":{},"seq":{},"parent":{},"name":"{}","start_ns":{},"dur_ns":{:.1},"self_ns":{:.1}}}"#,
            s.run,
            s.seq,
            s.parent,
            s.span.name(),
            s.start_ns,
            s.dur_ns,
            s.self_ns
        );
    }
    let write = |ext: &str, text: String| {
        let path = format!("{OUT_DIR}/{}.{ext}", kind.name());
        std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    write(
        "layers.json",
        serde_json::to_string_pretty(&doc).expect("layers serialize") + "\n",
    )?;
    write("spans.jsonl", jsonl)
}

/// Run every workload in a child process of its own and combine their
/// result lines.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let modes: &[bool] = if args.smoke {
        &[false, true]
    } else {
        &[args.traced]
    };
    let mut all = ResultLine {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    for kind in Kind::ALL {
        for &traced in modes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", kind.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("running {}: {e}", kind.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            let line: Option<ResultLine> = stdout
                .lines()
                .last()
                .and_then(|l| serde_json::from_str(l).ok());
            match line {
                Some(r) if out.status.success() => {
                    all.correct &= r.correct;
                    all.attempted += r.attempted;
                    all.failed += r.failed;
                    for (name, v) in r.metrics {
                        all.metrics.insert(format!("{}.{name}", kind.name()), v);
                    }
                }
                _ => {
                    eprintln!(
                        "benchmark: {} exited with {} and no result",
                        kind.name(),
                        out.status
                    );
                    all.correct = false;
                    all.attempted += 1;
                    all.failed += 1;
                }
            }
        }
    }
    println!(
        "{}",
        serde_json::to_string(&all).expect("result serializes")
    );
    Ok(())
}

/// Re-pin the pinned groups' digests at the pinned seed. Each instance
/// runs through the public path and the traced path, which must agree.
fn bless() -> Result<(), String> {
    let mut pins = Pins::load();
    pins.digests.clear();
    for kind in Kind::ALL {
        let setup = Setup::new(kind, Sizes::FULL, pins.seed, &pins.archive_replay)
            .map_err(|e| format!("{} set-up failed: {e}", kind.name()))?;
        let mut pinned = BTreeMap::new();
        timed::install(Recorder::new(Calibration::default(), 0));
        for g in 0..setup.reference_groups() {
            for inst in setup.group(g).iter() {
                let public = inst
                    .run_public()
                    .map_err(|e| format!("{}: {e}", inst.label))?;
                let traced = inst
                    .run_decomposed(true, true)
                    .map_err(|e| format!("{} traced: {e}", inst.label))?;
                if digest(&traced.metrics) != digest(&public) {
                    return Err(format!(
                        "{}: traced and untraced metrics differ",
                        inst.label
                    ));
                }
                pinned.insert(inst.label.clone(), digest(&public));
            }
        }
        timed::uninstall();
        println!("{}: pinned {} digests", kind.name(), pinned.len());
        pins.digests.insert(kind.name().to_string(), pinned);
    }
    pins.save()
        .map_err(|e| format!("writing {}: {e}", Pins::PATH))?;
    println!("wrote {}", Pins::PATH);
    Ok(())
}
