//! `repro perf-gate`: the repository benchmark against a fixed baseline.
//!
//! `scripts/perf_baseline.jsonl` holds the verbatim last lines of N runs
//! of `BENCHMARK.json`'s `command` with `--seed 1 --seconds <run_seconds>`,
//! recorded by the loop in README.md ("Benchmarking"). The gate runs the
//! same command N times and fails when a round is incorrect, failed a
//! run or lacks a declared `<workload>.<metric>`, or when any end-to-end
//! metric's median is worse than the baseline median by more than that
//! metric's `bound`, in the direction its `better` gives. Names, bounds
//! and directions are read from `BENCHMARK.json`. A passing round never
//! replaces the baseline, so a slowdown cannot ratchet in one bound at a
//! time; the benchmark reports times at a reference host speed, so the
//! baseline carries no calibration of its own.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The benchmark declaration, relative to the repository root.
const SPEC_PATH: &str = "BENCHMARK.json";
/// The committed baseline, relative to the repository root.
const BASELINE_PATH: &str = "scripts/perf_baseline.jsonl";

/// The parts of `BENCHMARK.json` the gate reads.
#[derive(Debug, Deserialize)]
struct Spec {
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
}

#[derive(Debug, Deserialize)]
struct Workload {
    name: String,
}

#[derive(Debug, Deserialize)]
struct Metric {
    name: String,
    /// `"higher"` or `"lower"`.
    better: String,
    /// The fraction by which the metric may worsen.
    bound: f64,
}

/// The benchmark's last output line, less the fields the gate ignores.
#[derive(Debug, Deserialize)]
struct ResultLine {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[derive(Debug, Deserialize)]
struct MetricValue {
    value: f64,
}

/// One `<workload>.<metric>` compared.
#[derive(Debug)]
struct Row {
    key: String,
    bound: f64,
    baseline: f64,
    fresh: f64,
    /// `bound` less the fraction by which `fresh` is worse than
    /// `baseline`; below zero the gate fails.
    headroom: f64,
}

/// The median of a non-empty sample; the mean of the middle two for an
/// even count.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Every declared `<workload>.<metric>` key with its metric.
fn keys(spec: &Spec) -> impl Iterator<Item = (String, &Metric)> {
    let metrics = &spec.end_to_end;
    spec.workloads.iter().flat_map(move |w| {
        metrics
            .iter()
            .map(move |m| (format!("{}.{}", w.name, m.name), m))
    })
}

/// A line must be correct, have failed nothing and carry every key.
fn validate(spec: &Spec, what: &str, line: &ResultLine) -> Result<(), String> {
    if !line.correct {
        return Err(format!("{what} is not correct (\"correct\": false)"));
    }
    if line.failed > 0 {
        return Err(format!("{what} failed {} runs", line.failed));
    }
    match keys(spec).find(|(key, _)| !line.metrics.contains_key(key)) {
        Some((key, _)) => Err(format!("{what} lacks the metric {key}")),
        None => Ok(()),
    }
}

/// Compare the rounds against the baseline, one row per declared key.
/// Errs when either side is empty or a line fails [`validate`]; a
/// regression is a row with negative headroom, not an error.
fn compare(
    spec: &Spec,
    baseline: &[ResultLine],
    rounds: &[ResultLine],
) -> Result<Vec<Row>, String> {
    if baseline.is_empty() || rounds.is_empty() {
        return Err(format!(
            "nothing to compare: {} baseline lines in {BASELINE_PATH}, {} rounds",
            baseline.len(),
            rounds.len()
        ));
    }
    for (i, line) in baseline.iter().enumerate() {
        validate(spec, &format!("baseline line {}", i + 1), line)?;
    }
    for (i, line) in rounds.iter().enumerate() {
        validate(spec, &format!("round {}", i + 1), line)?;
    }
    let median_of = |lines: &[ResultLine], key: &str| {
        median(lines.iter().map(|l| l.metrics[key].value).collect())
    };
    keys(spec)
        .map(|(key, m)| {
            let (baseline, fresh) = (median_of(baseline, &key), median_of(rounds, &key));
            if !(baseline.is_finite() && baseline > 0.0) {
                return Err(format!("the baseline median of {key} is {baseline}"));
            }
            let worse = match m.better.as_str() {
                "higher" => 1.0 - fresh / baseline,
                "lower" => fresh / baseline - 1.0,
                other => return Err(format!("{}: unknown `better` {other:?}", m.name)),
            };
            let (bound, headroom) = (m.bound, m.bound - worse);
            Ok(Row {
                key,
                bound,
                baseline,
                fresh,
                headroom,
            })
        })
        .collect()
}

/// The rows as a table, then each metric's smallest headroom over the
/// workloads.
fn render(rows: &[Row]) -> String {
    fn metric(r: &Row) -> &str {
        r.key.split_once('.').map_or("", |(_, m)| m)
    }
    let mut out = format!(
        "{:<30} {:>12} {:>12} {:>6} {:>9}\n",
        "metric", "baseline", "fresh", "bound", "headroom"
    );
    let mut smallest: Vec<&Row> = Vec::new();
    for r in rows {
        out += &format!(
            "{:<30} {:>12.5e} {:>12.5e} {:>5.0}% {:>+8.1}%{}\n",
            r.key,
            r.baseline,
            r.fresh,
            100.0 * r.bound,
            100.0 * r.headroom,
            if r.headroom < 0.0 { "  FAIL" } else { "" }
        );
        match smallest.iter_mut().find(|s| metric(s) == metric(r)) {
            Some(s) if r.headroom < s.headroom => *s = r,
            Some(_) => {}
            None => smallest.push(r),
        }
    }
    let parts: Vec<String> = smallest
        .iter()
        .map(|r| format!("{} {:+.1}% ({})", metric(r), 100.0 * r.headroom, r.key))
        .collect();
    out + "smallest headroom: " + &parts.join(", ") + "\n"
}

fn parse_line(what: &str, text: &str) -> Result<ResultLine, String> {
    serde_json::from_str(text).map_err(|e| format!("parsing {what}: {e:?}"))
}

/// Run the benchmark command once and parse its last line.
fn run_round(spec: &Spec) -> Result<ResultLine, String> {
    let (program, args) = spec
        .command
        .split_first()
        .ok_or_else(|| format!("{SPEC_PATH} has an empty command"))?;
    let out = Command::new(program)
        .args(args)
        .args(["--seed", "1", "--seconds", &spec.run_seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {program}: {e}"))?;
    if !out.status.success() {
        return Err(format!("the benchmark exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_line(
        "the benchmark's result line",
        stdout.lines().last().unwrap_or_default(),
    )
}

/// `repro perf-gate`, from the repository root: as many rounds as the
/// baseline has lines, then the comparison, printed as a table. Errs on
/// a regression.
pub fn run() -> Result<String, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e} (run from the repository root)"))
    };
    let spec: Spec = serde_json::from_str(&read(SPEC_PATH)?)
        .map_err(|e| format!("parsing {SPEC_PATH}: {e:?}"))?;
    let baseline = read(BASELINE_PATH)?
        .lines()
        .enumerate()
        .map(|(i, l)| parse_line(&format!("{BASELINE_PATH} line {}", i + 1), l))
        .collect::<Result<Vec<_>, _>>()?;
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    for i in 1..=baseline.len() {
        let started = Instant::now();
        rounds.push(run_round(&spec)?);
        let took = started.elapsed().as_secs_f64();
        eprintln!("perf-gate: round {i}/{} took {took:.0} s", baseline.len());
    }
    let rows = compare(&spec, &baseline, &rounds)?;
    print!("{}", render(&rows));
    let (n, wall) = (rounds.len(), t0.elapsed().as_secs_f64());
    match rows.iter().filter(|r| r.headroom < 0.0).count() {
        0 => Ok(format!("perf-gate OK: {n} rounds, {wall:.0} s")),
        failing => Err(format!(
            "perf-gate FAILED: {failing} metrics worse than the baseline by more \
             than their bound ({n} rounds, {wall:.0} s)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        let json = r#"{"command": ["bench"], "run_seconds": 20,
            "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
            "end_to_end": [
                {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
                {"name": "run_ms_p99", "unit": "ms", "better": "lower", "bound": 0.25}]}"#;
        serde_json::from_str(json).unwrap()
    }

    /// A correct line where every metric of every workload reads `v`.
    fn line(v: f64) -> ResultLine {
        let metrics = keys(&spec())
            .map(|(key, _)| (key, MetricValue { value: v }))
            .collect();
        ResultLine {
            correct: true,
            failed: 0,
            metrics,
        }
    }

    /// The row of `key` when one round, where `key` reads `v` and every
    /// other metric 100, meets a baseline where everything reads 100.
    fn one(key: &str, v: f64) -> Row {
        let mut fresh = line(100.0);
        fresh.metrics.get_mut(key).unwrap().value = v;
        let rows = compare(&spec(), &[line(100.0)], &[fresh]).unwrap();
        rows.into_iter().find(|r| r.key == key).unwrap()
    }

    #[test]
    fn higher_better_metric_fails_just_past_its_bound_and_passes_just_inside() {
        assert!(one("a.events_per_s", 79.9).headroom < 0.0);
        assert!(one("a.events_per_s", 80.1).headroom > 0.0);
        assert!(one("a.events_per_s", 500.0).headroom > 0.2);
    }

    #[test]
    fn lower_better_metric_fails_past_its_bound() {
        let past = one("b.run_ms_p99", 125.1);
        assert!(past.headroom < 0.0 && past.headroom > -0.01, "{past:?}");
        assert!(one("b.run_ms_p99", 124.9).headroom > 0.0);
        assert!(one("b.run_ms_p99", 1.0).headroom > 0.25);
        assert!(render(&[past]).contains("FAIL"));
    }

    /// A missing workload or metric key, a failed run and an incorrect
    /// line are each an error naming the line, in a round or the baseline.
    #[test]
    fn invalid_lines_are_errors() {
        type Break = fn(&mut ResultLine);
        let breaks: [(Break, &str); 4] = [
            (
                |l| l.metrics.retain(|k, _| !k.starts_with("b.")),
                "lacks the metric b.events_per_s",
            ),
            (
                |l| _ = l.metrics.remove("a.run_ms_p99"),
                "lacks the metric a.run_ms_p99",
            ),
            (|l| l.failed = 2, "failed 2 runs"),
            (|l| l.correct = false, "is not correct (\"correct\": false)"),
        ];
        for (break_line, want) in breaks {
            let mut bad = line(1.0);
            break_line(&mut bad);
            let err = compare(&spec(), &[line(1.0)], &[line(1.0), bad]).unwrap_err();
            assert_eq!(err, format!("round 2 {want}"));
            let mut bad = line(1.0);
            break_line(&mut bad);
            let err = compare(&spec(), &[bad], &[line(1.0)]).unwrap_err();
            assert_eq!(err, format!("baseline line 1 {want}"));
        }
    }

    #[test]
    fn medians_over_odd_and_even_counts() {
        // Odd: the middle value, so one outlier round does not move it.
        let base = [line(100.0), line(90.0), line(110.0)];
        let rows = compare(&spec(), &base, &[line(100.0), line(1.0), line(100.0)]).unwrap();
        assert!(rows.iter().all(|r| r.baseline == 100.0 && r.fresh == 100.0));
        // Even: the mean of the middle two.
        let base = [line(100.0), line(60.0), line(80.0), line(200.0)];
        let rows = compare(&spec(), &base, &[line(90.0), line(90.0)]).unwrap();
        assert!(rows
            .iter()
            .all(|r| r.baseline == 90.0 && r.headroom == r.bound));
    }

    #[test]
    fn an_empty_baseline_is_an_error_not_a_pass() {
        let err = compare(&spec(), &[], &[line(1.0)]).unwrap_err();
        assert!(
            err.starts_with("nothing to compare: 0 baseline lines"),
            "{err}"
        );
    }

    #[test]
    fn render_names_each_metrics_smallest_headroom() {
        let mut fresh = line(100.0);
        fresh.metrics.get_mut("b.events_per_s").unwrap().value = 90.0;
        fresh.metrics.get_mut("a.run_ms_p99").unwrap().value = 105.0;
        let text = render(&compare(&spec(), &[line(100.0)], &[fresh]).unwrap());
        let want = "events_per_s +10.0% (b.events_per_s), run_ms_p99 +20.0% (a.run_ms_p99)";
        assert!(text.contains(want), "{text}");
    }

    /// The committed baseline must parse and pass against itself under
    /// the committed declaration.
    #[test]
    fn committed_baseline_matches_the_benchmark_declaration() {
        let read = |p| std::fs::read_to_string(format!("{}/../../{p}", env!("CARGO_MANIFEST_DIR")));
        let spec: Spec = serde_json::from_str(&read(SPEC_PATH).unwrap()).unwrap();
        let text = read(BASELINE_PATH).unwrap();
        let baseline: Vec<_> = text.lines().map(|l| parse_line("", l).unwrap()).collect();
        assert!(baseline.len() >= 3, "{} baseline lines", baseline.len());
        let rows = compare(&spec, &baseline, &baseline).unwrap();
        assert_eq!(rows.len(), spec.workloads.len() * spec.end_to_end.len());
        assert!(rows.iter().all(|r| r.headroom == r.bound));
    }
}
