//! Cross-run divergence explain: *why* did two schedulers (or two
//! configurations of one scheduler) produce different outcomes on the
//! same workload?
//!
//! Two complementary lenses, both surfaced by `escli diff`:
//!
//! * **Attribution delta** — each run is executed with wait-time
//!   attribution enabled (see `elastisched_sim::attribution`), and the
//!   per-cause fleet totals are compared side by side: a policy change
//!   shows up as seconds *moving between cause buckets* (e.g.
//!   Delayed-LOS trading head freeze time for DP pass-over skips).
//! * **First divergence** — both runs are executed with tracing
//!   enabled, the scheduler *decision* events are extracted in order
//!   (starts, force-starts, head skips, DP selections, promotions,
//!   backfills — the PR 3 trace taxonomy), and the two decision
//!   sequences are replayed in lockstep. The first index where they
//!   disagree names the concrete decision pair that set the runs on
//!   different paths; everything downstream is consequence, not cause.
//!
//! The lockstep comparison deliberately ignores `Cycle` spans (engine
//! bookkeeping, not decisions) and `DpSelect::cache_hit` (a solver
//! performance detail: a cached and an uncached solve that choose the
//! same jobs are the *same* decision).

use crate::experiment::Experiment;
use elastisched_metrics::RunMetrics;
use elastisched_sim::{
    AttributionProfile, JobOutcome, SimError, TraceEvent, TraceSink, WaitAttribution,
};
use elastisched_workload::Workload;
use std::fmt::Write as _;

/// One scheduler decision, extracted from a run's trace in decision
/// order. `label` is the canonical rendered form the lockstep replay
/// compares (and the report prints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Decision time, simulated seconds.
    pub at: u64,
    /// The job the decision names, when it names exactly one.
    pub job: Option<u64>,
    /// Canonical rendered form, e.g. `start job 7 (64p)`.
    pub label: String,
}

/// The first index at which two runs' decision sequences disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstDivergence {
    /// How many decisions the two runs made identically first.
    pub common_prefix: usize,
    /// Run A's decision at that index (`None`: A made no more
    /// decisions).
    pub a: Option<Decision>,
    /// Run B's decision at that index.
    pub b: Option<Decision>,
}

/// The full cross-run comparison: both runs' metrics (attribution
/// profiles included) plus the lockstep first divergence.
#[derive(Debug, Clone)]
pub struct RunDiff {
    /// Run A's metrics, attribution profile included.
    pub a: RunMetrics,
    /// Run B's metrics, attribution profile included.
    pub b: RunMetrics,
    /// Decisions run A made in total.
    pub a_decisions: usize,
    /// Decisions run B made in total.
    pub b_decisions: usize,
    /// The first divergent decision, `None` when the decision sequences
    /// are identical end to end.
    pub divergence: Option<FirstDivergence>,
}

/// Extract the decision sequence from a populated trace, oldest first.
pub fn decisions(sink: &TraceSink) -> Vec<Decision> {
    sink.events()
        .filter_map(|ev| {
            let label = match ev {
                TraceEvent::Start { job, num, .. } => format!("start job {job} ({num}p)"),
                TraceEvent::HeadForceStart { job, scount, .. } => {
                    format!("force-start head job {job} (scount {scount} hit C_s)")
                }
                TraceEvent::HeadSkip { job, scount, .. } => {
                    format!("skip head job {job} (scount -> {scount})")
                }
                TraceEvent::DpSelect { kernel, chosen, .. } => {
                    let ids: Vec<String> = chosen.iter().map(|id| id.to_string()).collect();
                    format!("{kernel:?}_DP selects [{}]", ids.join(", "))
                }
                TraceEvent::Promote { job, .. } => format!("promote dedicated job {job}"),
                TraceEvent::Backfill { job, .. } => format!("backfill job {job}"),
                _ => return None,
            };
            Some(Decision {
                at: ev.at().unwrap_or(0),
                job: ev.job(),
                label,
            })
        })
        .collect()
}

/// Lockstep replay: the first index where the two decision sequences
/// disagree (time or label), `None` when identical end to end.
pub fn first_divergence(a: &[Decision], b: &[Decision]) -> Option<FirstDivergence> {
    let common = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    if common == a.len() && common == b.len() {
        return None;
    }
    Some(FirstDivergence {
        common_prefix: common,
        a: a.get(common).cloned(),
        b: b.get(common).cloned(),
    })
}

/// Run both experiments over `workload` — attribution and tracing
/// forced on — and assemble the full comparison.
pub fn diff_runs(a: &Experiment, b: &Experiment, workload: &Workload) -> Result<RunDiff, SimError> {
    let run = |exp: &Experiment| -> Result<(RunMetrics, Vec<Decision>), SimError> {
        let exp = Experiment {
            attribution: true,
            trace: Some(TraceSink::new()),
            ..exp.clone()
        };
        let result = exp.run_raw(workload)?;
        let sink = result.trace.as_deref().expect("tracing was enabled");
        let decs = decisions(sink);
        Ok((RunMetrics::from_result(&result), decs))
    };
    let (ma, da) = run(a)?;
    let (mb, db) = run(b)?;
    Ok(RunDiff {
        a: ma,
        b: mb,
        a_decisions: da.len(),
        b_decisions: db.len(),
        divergence: first_divergence(&da, &db),
    })
}

fn signed(delta: i64) -> String {
    if delta >= 0 {
        format!("+{delta}")
    } else {
        delta.to_string()
    }
}

/// Render one attribution profile as an indented cause table (used by
/// `escli run --attribution` and the diff report).
pub fn render_attribution(p: &AttributionProfile) -> String {
    let mut out = String::new();
    if p.is_empty() {
        let _ = writeln!(out, "  (no attributed wait: every job started immediately)");
        return out;
    }
    let total = p.total_secs().max(1);
    let mut row = |name: &str, secs: u64| {
        let _ = writeln!(
            out,
            "  {name:<22} {secs:>12}s  {:>5.1}%",
            secs as f64 * 100.0 / total as f64
        );
    };
    row("insufficient capacity", p.capacity_secs);
    row("dedicated freeze", p.dedicated_secs);
    row("elastic reconfig", p.ecc_secs);
    row("policy skip", p.policy_skip_secs);
    row("reservation freeze", p.freeze_secs);
    let _ = writeln!(
        out,
        "  {:<22} {:>12}s  ({} jobs, {} zero-wait)",
        "total wait",
        p.total_secs(),
        p.jobs,
        p.zero_wait_jobs
    );
    if !p.top_blockers.is_empty() {
        let tops: Vec<String> = p
            .top_blockers
            .iter()
            .map(|s| format!("#{} ({}s)", s.job, s.secs))
            .collect();
        let _ = writeln!(out, "  top capacity blockers: {}", tops.join(", "));
    }
    out
}

/// Render one job's wait breakdown (`escli explain --why-wait`).
pub fn render_wait_breakdown(o: &JobOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "job {}: waited {}s ({}p, started t={}s)",
        o.id.0,
        o.wait.as_secs(),
        o.num,
        o.started.as_secs()
    );
    let Some(attr) = &o.attribution else {
        let _ = writeln!(out, "  (run had attribution disabled)");
        return out;
    };
    let _ = write!(out, "{}", render_wait_causes(attr));
    out
}

fn render_wait_causes(attr: &WaitAttribution) -> String {
    let mut out = String::new();
    if attr.total_secs() == 0 {
        let _ = writeln!(out, "  started immediately: nothing to attribute");
        return out;
    }
    let mut row = |name: &str, secs: u64| {
        if secs > 0 {
            let _ = writeln!(out, "  {name:<22} {secs:>12}s");
        }
    };
    row("insufficient capacity", attr.capacity_secs);
    row("dedicated freeze", attr.dedicated_secs);
    row("elastic reconfig", attr.ecc_secs);
    row("policy skip", attr.policy_skip_secs);
    row("reservation freeze", attr.freeze_secs);
    if let Some(job) = attr.lead_blocker {
        let _ = writeln!(
            out,
            "  lead blocker: job {} (held needed processors for {}s of the wait)",
            job, attr.lead_blocker_secs
        );
    }
    out
}

/// Render the full comparison for the terminal.
pub fn render_diff(d: &RunDiff) -> String {
    let mut out = String::new();
    let (an, bn) = (&d.a.scheduler, &d.b.scheduler);
    let _ = writeln!(out, "comparing {an} (A) vs {bn} (B)");
    let _ = writeln!(
        out,
        "  {:<22} {:>14} {:>14} {:>12}",
        "metric", "A", "B", "delta"
    );
    let mut frow = |name: &str, a: f64, b: f64| {
        let _ = writeln!(out, "  {name:<22} {a:>14.3} {b:>14.3} {:>12.3}", b - a);
    };
    frow("utilization", d.a.utilization, d.b.utilization);
    frow("mean wait (s)", d.a.mean_wait, d.b.mean_wait);
    frow("slowdown", d.a.slowdown, d.b.slowdown);
    frow("makespan (s)", d.a.makespan, d.b.makespan);
    let _ = writeln!(out, "\nwait attribution (fleet seconds by cause):");
    let _ = writeln!(
        out,
        "  {:<22} {:>14} {:>14} {:>12}",
        "cause", "A", "B", "delta"
    );
    let pa = &d.a.attribution;
    let pb = &d.b.attribution;
    let mut arow = |name: &str, a: u64, b: u64| {
        let _ = writeln!(
            out,
            "  {name:<22} {a:>13}s {b:>13}s {:>11}s",
            signed(b as i64 - a as i64)
        );
    };
    arow("insufficient capacity", pa.capacity_secs, pb.capacity_secs);
    arow("dedicated freeze", pa.dedicated_secs, pb.dedicated_secs);
    arow("elastic reconfig", pa.ecc_secs, pb.ecc_secs);
    arow("policy skip", pa.policy_skip_secs, pb.policy_skip_secs);
    arow("reservation freeze", pa.freeze_secs, pb.freeze_secs);
    arow("total", pa.total_secs(), pb.total_secs());
    let _ = writeln!(out, "\nfirst divergence:");
    match &d.divergence {
        None => {
            let _ = writeln!(
                out,
                "  none — both runs made the same {} decisions",
                d.a_decisions
            );
        }
        Some(div) => {
            let _ = writeln!(
                out,
                "  after {} identical decisions ({} total in A, {} in B):",
                div.common_prefix, d.a_decisions, d.b_decisions
            );
            let side = |tag: &str, dec: &Option<Decision>| match dec {
                Some(dec) => format!("  {tag}: t={:>6}s  {}", dec.at, dec.label),
                None => format!("  {tag}: (no further decisions)"),
            };
            let _ = writeln!(out, "{}", side("A", &div.a));
            let _ = writeln!(out, "{}", side("B", &div.b));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use elastisched_sched::{Algorithm, StackSpec};
    use elastisched_workload::{generate, GeneratorConfig};

    fn workload() -> Workload {
        generate(
            &GeneratorConfig::paper_batch(0.5)
                .with_jobs(120)
                .with_seed(7),
        )
    }

    #[test]
    fn identical_runs_have_no_divergence() {
        let w = workload();
        let easy = Experiment::new(Algorithm::Easy);
        let d = diff_runs(&easy, &easy, &w).unwrap();
        assert!(d.divergence.is_none());
        assert_eq!(d.a_decisions, d.b_decisions);
        assert_eq!(d.a.attribution, d.b.attribution);
        let text = render_diff(&d);
        assert!(text.contains("none — both runs made the same"));
    }

    #[test]
    fn different_policies_report_a_concrete_first_divergence() {
        let w = workload();
        let d = diff_runs(
            &Experiment::new(Algorithm::Easy),
            &Experiment::new(Algorithm::DelayedLos),
            &w,
        )
        .unwrap();
        let div = d
            .divergence
            .clone()
            .expect("EASY and Delayed-LOS must diverge");
        // The divergence names at least one concrete decision.
        assert!(div.a.is_some() || div.b.is_some());
        // And the attribution profiles shift between cause buckets.
        assert_ne!(d.a.attribution, d.b.attribution);
        let text = render_diff(&d);
        assert!(text.contains("first divergence"));
        assert!(text.contains("wait attribution"));
    }

    #[test]
    fn divergence_is_on_the_common_prefix_boundary() {
        let a = vec![
            Decision {
                at: 0,
                job: Some(1),
                label: "start job 1 (32p)".into(),
            },
            Decision {
                at: 5,
                job: Some(2),
                label: "start job 2 (32p)".into(),
            },
        ];
        let mut b = a.clone();
        assert!(first_divergence(&a, &b).is_none());
        b[1].label = "skip head job 2 (scount -> 1)".into();
        let div = first_divergence(&a, &b).unwrap();
        assert_eq!(div.common_prefix, 1);
        assert_eq!(div.a.unwrap().label, "start job 2 (32p)");
        // One run simply ending early is also a divergence.
        let div = first_divergence(&a, &a[..1]).unwrap();
        assert_eq!(div.common_prefix, 1);
        assert!(div.b.is_none());
    }

    #[test]
    fn stack_specs_outside_the_registry_diff_too() {
        let w = generate(
            &GeneratorConfig::paper_heterogeneous(0.5, 0.4)
                .with_jobs(80)
                .with_seed(3),
        );
        let a: StackSpec = "fcfs+d".parse().unwrap();
        let b: StackSpec = "easy+d".parse().unwrap();
        let d = diff_runs(&Experiment::new(a), &Experiment::new(b), &w).unwrap();
        assert_eq!(d.a.scheduler, "FCFS-D");
        assert_eq!(d.b.scheduler, "EASY-D");
        assert!(d.divergence.is_some());
    }
}
