//! The `repro bench-engine` target: a timing harness for the
//! discrete-event engine hot path, emitting `BENCH_engine.json` — the
//! second point of the perf trajectory started by `BENCH_dp_kernels.json`.
//!
//! The headline `end_to_end` entry reuses the exact methodology of the
//! `bench-dp` end-to-end case (500-job Delayed-LOS at 0.9 load, best of
//! thirty, events = arrivals + completions + ECC applications), so the
//! number is directly comparable across PRs. The per-algorithm cases add
//! the engine-loop counters introduced with the calendar queue: events
//! dispatched, cycles fired, events coalesced into shared cycles, queue
//! operations, and peak queue population.

use crate::dpbench::{self, EndToEnd, MachineInfo};
use elastisched::prelude::*;
use elastisched_trace::TraceSink;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One algorithm × workload timing, with engine-loop counters.
#[derive(Debug, Serialize)]
pub struct EngineCase {
    pub algorithm: String,
    pub workload: String,
    pub jobs: usize,
    /// Arrivals + completions + ECC applications per wall-clock second
    /// (best of ten runs) — the trajectory metric.
    pub events_per_sec: f64,
    /// Events the engine actually dispatched (includes wakeups).
    pub engine_events: u64,
    /// Scheduler cycles fired (one per distinct event timestamp).
    pub engine_cycles: u64,
    /// Events that shared a cycle with an earlier same-instant event.
    pub events_coalesced: u64,
    /// Event-queue pushes + pops.
    pub queue_ops: u64,
    /// Peak event-queue population.
    pub peak_queue_len: u64,
}

/// The whole `BENCH_engine.json` document.
#[derive(Debug, Serialize)]
pub struct EngineBenchReport {
    pub machine: MachineInfo,
    /// Headline, comparable to `BENCH_dp_kernels.json::end_to_end`.
    pub end_to_end: EndToEnd,
    pub cases: Vec<EngineCase>,
    /// Iterations/second of the fixed integer loop in
    /// [`calibration_score`], measured alongside the headline. `check`
    /// uses the ratio of this score then-vs-now to separate "the host
    /// is busy today" from "the code got slower".
    pub calibration_score: f64,
    /// Free-form context for the numbers above (e.g. the measured
    /// traced-vs-untraced delta of the structured-tracing subsystem).
    pub notes: Vec<String>,
}

/// The fields of a committed `BENCH_engine.json` that `check` compares
/// against (everything else in the file is ignored on load).
#[derive(Debug, Deserialize)]
struct CommittedHeadline {
    events_per_sec: f64,
}

/// One committed per-algorithm case, for the delta table `check` prints.
#[derive(Debug, Deserialize)]
struct CommittedCase {
    algorithm: String,
    workload: String,
    events_per_sec: f64,
}

#[derive(Debug, Deserialize)]
struct CommittedReport {
    end_to_end: CommittedHeadline,
    /// Absent in snapshots that predate calibration; `check` then falls
    /// back to an unadjusted comparison.
    #[serde(default)]
    calibration_score: Option<f64>,
    /// Per-algorithm cases; re-measured on `check` for the delta table.
    #[serde(default)]
    cases: Vec<CommittedCase>,
}

/// Iterations/second of a fixed integer workload (xorshift + add),
/// best of three after a warm-up — an estimate of the machine's current
/// effective single-thread speed. Shared-host contention and cgroup
/// throttling slow this loop and the simulation engine roughly alike,
/// so `check` can normalize the committed headline by the then-vs-now
/// ratio instead of failing on a slow afternoon. Shared with
/// `dpbench::check`, which normalizes kernel ns the same way.
pub(crate) fn calibration_score() -> f64 {
    // Short runs + best-of-many mirrors how the sub-millisecond engine
    // measurements dodge throttled windows; a single long calibration
    // run would average over stalls the engine numbers never see and
    // over-correct.
    const ITERS: u64 = 2_000_000;
    let run = || {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x >> 32);
        }
        std::hint::black_box(acc);
        ITERS as f64 / t0.elapsed().as_secs_f64()
    };
    run(); // warm-up
    (0..10).map(|_| run()).fold(0.0f64, f64::max)
}

const JOBS: usize = 500;

fn batch_workload(eccs: bool) -> Workload {
    let cfg = GeneratorConfig::paper_batch(0.5).with_jobs(JOBS).with_seed(1);
    let cfg = if eccs { cfg.with_paper_eccs() } else { cfg };
    let mut w = generate(&cfg);
    w.scale_to_load(320, 0.9);
    w
}

fn heterogeneous_workload() -> Workload {
    let mut w = generate(
        &GeneratorConfig::paper_heterogeneous(0.5, 0.5)
            .with_jobs(JOBS)
            .with_seed(1),
    );
    w.scale_to_load(320, 0.9);
    w
}

/// The workload a committed case name refers to, for re-measuring it
/// during `check`. Names not produced by [`run`] get `None` (skipped
/// with a note rather than failing the whole check).
fn workload_by_name(name: &str) -> Option<Workload> {
    match name {
        "batch" => Some(batch_workload(false)),
        "batch+ecc" => Some(batch_workload(true)),
        "heterogeneous" => Some(heterogeneous_workload()),
        _ => None,
    }
}

fn case(algo: Algorithm, workload_name: &str, w: &Workload) -> EngineCase {
    let exp = Experiment::new(algo);
    exp.run(w).expect("workload valid"); // warm-up
    let mut best_secs = f64::INFINITY;
    let mut m = None;
    // Best of ten: see `dpbench::end_to_end` on dodging steal bursts.
    for _ in 0..10 {
        let t0 = Instant::now();
        let r = exp.run(w).expect("workload valid");
        let secs = t0.elapsed().as_secs_f64();
        if secs < best_secs {
            best_secs = secs;
        }
        m = Some(r);
    }
    let m = m.expect("three runs happened");
    EngineCase {
        algorithm: algo.name().to_string(),
        workload: workload_name.to_string(),
        jobs: m.jobs,
        events_per_sec: (2 * m.jobs as u64 + m.eccs_applied) as f64 / best_secs,
        engine_events: m.engine_events,
        engine_cycles: m.engine_cycles,
        events_coalesced: m.events_coalesced,
        queue_ops: m.queue_ops,
        peak_queue_len: m.peak_queue_len,
    }
}

/// Events/s of the headline workload with tracing enabled (best of
/// ten; `timing` selects whether the sink reads the per-cycle clock).
fn traced_events_per_sec(w: &Workload, timing: bool) -> f64 {
    let exp = Experiment::new(Algorithm::DelayedLos);
    let make_sink = || {
        let mut sink = TraceSink::new();
        if !timing {
            sink.disable_timing();
        }
        sink
    };
    exp.run_traced(w, make_sink()).expect("workload valid"); // warm-up
    let mut best = 0.0f64;
    for _ in 0..10 {
        let t0 = Instant::now();
        let r = exp.run_traced(w, make_sink()).expect("workload valid");
        let secs = t0.elapsed().as_secs_f64();
        let events = (2 * r.outcomes.len() as u64 + r.ecc.applied()) as f64;
        best = best.max(events / secs);
    }
    best
}

/// Measure the cost of the tracing subsystem on the headline workload:
/// `(untraced, traced_no_timing, traced_full)` events/s.
pub fn tracing_delta() -> (f64, f64, f64) {
    let untraced = dpbench::end_to_end().events_per_sec;
    let w = {
        let mut w = generate(&GeneratorConfig::paper_batch(0.5).with_jobs(JOBS).with_seed(1));
        w.scale_to_load(320, 0.9);
        w
    };
    let no_timing = traced_events_per_sec(&w, false);
    let full = traced_events_per_sec(&w, true);
    (untraced, no_timing, full)
}

/// Measure the telemetry sampler's cost on the headline workload:
/// `(off, on)` events/s, best of ten each. "Off" is the default engine
/// — a disarmed sampler costs one `Option` branch per cycle — and "on"
/// records a default-budget [`RunTimeline`].
pub fn sampler_delta() -> (f64, f64) {
    let w = {
        let mut w = generate(&GeneratorConfig::paper_batch(0.5).with_jobs(JOBS).with_seed(1));
        w.scale_to_load(320, 0.9);
        w
    };
    let measure = |exp: &Experiment| {
        exp.run(&w).expect("workload valid"); // warm-up
        let mut best = 0.0f64;
        for _ in 0..10 {
            let t0 = Instant::now();
            let m = exp.run(&w).expect("workload valid");
            let events = (2 * m.jobs as u64 + m.eccs_applied) as f64;
            best = best.max(events / t0.elapsed().as_secs_f64());
        }
        best
    };
    let off = measure(&Experiment::new(Algorithm::DelayedLos));
    let on = measure(&Experiment::new(Algorithm::DelayedLos).with_timeline(TimelineConfig::default()));
    (off, on)
}

/// Measure the wait-attribution machinery's cost on the headline
/// workload: `(off, on)` events/s, best of ten each. "Off" is the
/// default engine — disarmed attribution is one `Option` branch per
/// cycle — and "on" classifies every job's wait by cause.
pub fn attribution_delta() -> (f64, f64) {
    let w = {
        let mut w = generate(&GeneratorConfig::paper_batch(0.5).with_jobs(JOBS).with_seed(1));
        w.scale_to_load(320, 0.9);
        w
    };
    let measure = |exp: &Experiment| {
        exp.run(&w).expect("workload valid"); // warm-up
        let mut best = 0.0f64;
        for _ in 0..10 {
            let t0 = Instant::now();
            let m = exp.run(&w).expect("workload valid");
            let events = (2 * m.jobs as u64 + m.eccs_applied) as f64;
            best = best.max(events / t0.elapsed().as_secs_f64());
        }
        best
    };
    let off = measure(&Experiment::new(Algorithm::DelayedLos));
    let on = measure(&Experiment::new(Algorithm::DelayedLos).with_attribution());
    (off, on)
}

/// Run every case and build the report.
pub fn run() -> EngineBenchReport {
    let batch = batch_workload(false);
    let elastic = batch_workload(true);
    let hetero = heterogeneous_workload();
    let (untraced, no_timing, full) = tracing_delta();
    let pct = |traced: f64| 100.0 * (1.0 - traced / untraced);
    let mut notes = vec![format!(
        "tracing cost on the headline workload: untraced {untraced:.0} ev/s; \
         traced without timing {no_timing:.0} ev/s ({:.1}% slower); \
         traced with per-cycle timing {full:.0} ev/s ({:.1}% slower). \
         The disabled path (no sink installed) is the headline number itself.",
        pct(no_timing),
        pct(full)
    )];
    let (sampler_off, sampler_on) = sampler_delta();
    notes.push(format!(
        "telemetry sampler on the headline workload: off {sampler_off:.0} ev/s (the \
         default — a disarmed sampler is one branch per cycle, so the headline and \
         every case above run at full speed), on with the default {}-point budget \
         {sampler_on:.0} ev/s ({:+.1}% on this sub-millisecond 500-job microbench; \
         the budget caps total sampling work, so soak-scale runs amortize the same \
         cost to noise)",
        elastisched_sim::DEFAULT_TIMELINE_BUDGET,
        100.0 * (sampler_on / sampler_off - 1.0)
    ));
    let (attr_off, attr_on) = attribution_delta();
    notes.push(format!(
        "wait attribution on the headline workload: off {attr_off:.0} ev/s (the \
         default — disarmed attribution is one branch per cycle, so the headline \
         and every case above run at full speed), on {attr_on:.0} ev/s ({:+.1}% \
         on this sub-millisecond 500-job microbench; the per-cycle work is one \
         pass over the running set, one cause per waiting width class, and a \
         charge per job whose cause changed)",
        100.0 * (attr_on / attr_off - 1.0)
    ));
    let cases = vec![
        case(Algorithm::Fcfs, "batch", &batch),
        case(Algorithm::Easy, "batch", &batch),
        case(Algorithm::DelayedLos, "batch", &batch),
        case(Algorithm::DelayedLosE, "batch+ecc", &elastic),
        case(Algorithm::HybridLos, "heterogeneous", &hetero),
    ];
    // Phase attribution for the headline case, from the profiler that
    // ships with RunMetrics (where the wall time of a run goes: DP
    // solves vs the engine loop vs metrics derivation).
    let headline = Experiment::new(Algorithm::DelayedLos)
        .run(&batch)
        .expect("workload valid");
    notes.push(format!(
        "phase breakdown of one headline Delayed-LOS batch run: {}",
        headline.phase_profile.to_line()
    ));
    // Same attribution for the heterogeneous case: the dedicated-path
    // overhaul is invisible in the batch headline, so its effect is
    // pinned here against the last pre-overhaul snapshot of this case.
    let hybrid = Experiment::new(Algorithm::HybridLos)
        .run(&hetero)
        .expect("workload valid");
    notes.push(format!(
        "phase breakdown of one Hybrid-LOS heterogeneous run (before the lean \
         dedicated path this case recorded 2.56M ev/s on the snapshot host; \
         the cases entry above is the current figure): {}",
        hybrid.phase_profile.to_line()
    ));
    // When a telemetry campaign is active (repro --serve-metrics /
    // --progress), fold its per-scheduler cost table in too — every
    // warm-up and measured run above was recorded there.
    for (name, row) in elastisched::telemetry::cost_rows() {
        notes.push(format!(
            "campaign cost {name}: {} runs · {} jobs · {} events · {}",
            row.runs,
            row.jobs,
            row.events,
            row.profile.to_line()
        ));
    }
    EngineBenchReport {
        machine: MachineInfo {
            total_procs: 320,
            unit: 32,
        },
        end_to_end: dpbench::end_to_end(),
        cases,
        calibration_score: calibration_score(),
        notes,
    }
}

/// `repro bench-engine --check`: measure a fresh headline and fail when
/// it regresses more than `budget` (fractional, e.g. 0.02) below the
/// committed `BENCH_engine.json`. Returns a human-readable verdict.
///
/// The fresh number is the best of ten independent `end_to_end`
/// measurements (each itself best-of-thirty): a genuine regression slows
/// every run, while scheduler noise on a shared machine only slows some,
/// so taking the max keeps the 2% budget meaningful without widening it.
/// When the snapshot carries a [`calibration_score`], the baseline is
/// additionally scaled by the machine-speed ratio then-vs-now.
pub fn check(path: &str, budget: f64) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let committed: CommittedReport =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e:?}"))?;
    let baseline = committed.end_to_end.events_per_sec;
    let fresh = (0..10)
        .map(|_| dpbench::end_to_end().events_per_sec)
        .fold(0.0f64, f64::max);
    let (scale, speed_note) = match committed.calibration_score {
        Some(cal_base) if cal_base > 0.0 => {
            let cal_fresh = calibration_score();
            // The clamp bounds how far a bogus calibration pair can
            // bend the budget; a real host is never 4x off.
            let scale = (cal_fresh / cal_base).clamp(0.25, 4.0);
            (scale, format!(", machine speed x{scale:.3} vs snapshot"))
        }
        _ => (1.0, String::new()),
    };
    let adjusted = baseline * scale;
    let floor = adjusted * (1.0 - budget);
    let delta_pct = 100.0 * (fresh / adjusted - 1.0);
    let headroom_pct = 100.0 * (fresh / floor - 1.0);
    let mut verdict = format!(
        "committed {baseline:.0} ev/s, fresh {fresh:.0} ev/s ({delta_pct:+.2}% vs \
         speed-adjusted baseline{speed_note}), budget -{:.0}%, floor {floor:.0} ev/s \
         ({headroom_pct:+.2}% headroom)",
        budget * 100.0
    );
    // Informational per-case delta table (the budget applies to the
    // headline only — per-case numbers are single best-of-three shots
    // and too noisy to gate on, but the table shows *where* a headline
    // shift came from).
    if !committed.cases.is_empty() {
        verdict.push_str("\nper-case ev/s, fresh vs speed-adjusted committed:");
        for cc in &committed.cases {
            let algo = Algorithm::ALL
                .into_iter()
                .find(|a| a.name() == cc.algorithm);
            let line = match (algo, workload_by_name(&cc.workload)) {
                (Some(algo), Some(w)) => {
                    let fresh_case = case(algo, &cc.workload, &w);
                    let adj = cc.events_per_sec * scale;
                    let d = 100.0 * (fresh_case.events_per_sec / adj - 1.0);
                    format!(
                        "\n  {:<14} {:<14} {:>12.0} vs {:>12.0}  ({d:+.1}%)",
                        cc.algorithm, cc.workload, fresh_case.events_per_sec, adj
                    )
                }
                _ => format!(
                    "\n  {:<14} {:<14} (not a case this binary knows; skipped)",
                    cc.algorithm, cc.workload
                ),
            };
            verdict.push_str(&line);
        }
    }
    if fresh < floor {
        Err(format!("engine throughput regressed beyond budget: {verdict}"))
    } else {
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_with_counters() {
        let report = EngineBenchReport {
            machine: MachineInfo {
                total_procs: 320,
                unit: 32,
            },
            end_to_end: EndToEnd {
                algorithm: "x".into(),
                jobs: 0,
                events_per_sec: 0.0,
            },
            cases: vec![],
            calibration_score: 0.0,
            notes: vec!["tracing delta: n/a".into()],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("end_to_end"));
        assert!(json.contains("cases"));
        assert!(json.contains("calibration_score"));
        assert!(json.contains("notes"));
    }

    #[test]
    fn committed_report_parses_ignoring_extra_fields() {
        // No calibration_score: snapshots predating it still load.
        let text = r#"{
            "machine": {"total_procs": 320, "unit": 32},
            "end_to_end": {"algorithm": "Delayed-LOS", "jobs": 500,
                           "events_per_sec": 4836595.617077052},
            "cases": [], "notes": []
        }"#;
        let r: CommittedReport = serde_json::from_str(text).unwrap();
        assert!((r.end_to_end.events_per_sec - 4_836_595.617_077_052).abs() < 1e-6);
        assert!(r.calibration_score.is_none());
    }

    #[test]
    fn committed_report_parses_calibration_score() {
        let text = r#"{
            "end_to_end": {"events_per_sec": 1000.0},
            "calibration_score": 2.5e8
        }"#;
        let r: CommittedReport = serde_json::from_str(text).unwrap();
        assert_eq!(r.calibration_score, Some(2.5e8));
    }

    #[test]
    fn calibration_score_is_positive_and_repeatable_in_order_of_magnitude() {
        let a = calibration_score();
        let b = calibration_score();
        assert!(a > 0.0 && b > 0.0);
        // Same process, back to back: within 4x of each other even on a
        // heavily shared box (the check clamps at that factor too).
        assert!(a / b < 4.0 && b / a < 4.0);
    }

    #[test]
    fn a_quick_case_reports_traffic() {
        let mut w = generate(&GeneratorConfig::paper_batch(0.5).with_jobs(40).with_seed(3));
        w.scale_to_load(320, 0.9);
        let c = case(Algorithm::Easy, "batch", &w);
        assert_eq!(c.jobs, 40);
        assert!(c.engine_events >= 80, "≥ one arrival + completion per job");
        assert!(c.engine_cycles <= c.engine_events);
        // Arrivals are admitted straight from the workload; every
        // completion is one queue push plus one pop.
        assert!(c.queue_ops >= 2 * c.jobs as u64);
        assert!(c.events_per_sec > 0.0);
    }
}

