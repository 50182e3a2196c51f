//! Per-job trace reconstruction (the `escli explain` backend).
//!
//! Given a populated [`TraceSink`], [`explain_job`] filters the ring for
//! every event that *mentions* one job — its lifecycle (submit → queued
//! → start → ECCs → finish) interleaved with the scheduler decisions
//! that touched it (head skips with the running `scount`, force-starts,
//! DP selections that chose or passed over it, dedicated promotions,
//! EASY backfills) — and renders a human-readable timeline.

use elastisched_sim::{DpKernel, EccTag, TraceEvent, TraceSink};
use std::fmt::Write as _;

fn ecc_tag_name(tag: EccTag) -> &'static str {
    match tag {
        EccTag::ExtendTime => "extend-time",
        EccTag::ReduceTime => "reduce-time",
        EccTag::ExtendProcs => "expand-procs",
        EccTag::ReduceProcs => "shrink-procs",
    }
}

fn kernel_name(kernel: DpKernel) -> &'static str {
    match kernel {
        DpKernel::Basic => "Basic_DP",
        DpKernel::Reservation => "Reservation_DP",
    }
}

/// One line of the reconstructed timeline. With a focus `job`, DP
/// selections say whether they chose that job; without one (the
/// postmortem replay) they just report the chosen set.
fn describe(ev: &TraceEvent, job: Option<u64>) -> Option<String> {
    let line = match ev {
        TraceEvent::Submit {
            num,
            dur,
            dedicated,
            ..
        } => format!(
            "submitted: {num} procs, {dur}s estimated{}",
            if *dedicated { ", dedicated" } else { "" }
        ),
        TraceEvent::Queued { .. } => "queued (arrival event fired)".to_string(),
        TraceEvent::Start { num, .. } => format!("started on {num} procs"),
        TraceEvent::Ecc {
            kind,
            amount,
            num,
            queued,
            ..
        } => format!(
            "ECC {} by {amount} while {} → {num} procs",
            ecc_tag_name(*kind),
            if *queued { "queued" } else { "running" }
        ),
        TraceEvent::Finish { wait, runtime, .. } => {
            format!("finished: waited {wait}s, ran {runtime}s")
        }
        TraceEvent::HeadForceStart { scount, .. } => {
            format!("force-started at the head (skip budget exhausted, scount {scount})")
        }
        TraceEvent::HeadSkip { scount, .. } => {
            format!("skipped at the head by a DP selection (scount now {scount})")
        }
        TraceEvent::DpSelect {
            kernel,
            candidates,
            chosen,
            cache_hit,
            ..
        } => {
            let verdict = match job {
                Some(j) if chosen.contains(&j) => "selected this job ",
                Some(_) => "passed over this job ",
                None => "",
            };
            format!(
                "{} over {candidates} candidates {verdict}(chose {:?}{})",
                kernel_name(*kernel),
                chosen,
                if *cache_hit { ", cached" } else { "" }
            )
        }
        TraceEvent::Promote { .. } => {
            "promoted from the dedicated queue to the batch head".to_string()
        }
        TraceEvent::Backfill { .. } => "backfilled ahead of the blocked head".to_string(),
        TraceEvent::Reconfig {
            grow,
            delta,
            num,
            cost,
            ..
        } => format!(
            "{} by {delta} procs → {num} procs ({cost}s reconfiguration cost)",
            if *grow { "grown" } else { "shrunk" }
        ),
        TraceEvent::RunMeta { .. } | TraceEvent::Cycle { .. } => return None,
    };
    Some(line)
}

/// Render a flight-recorder postmortem file (`escli explain
/// --postmortem`): the frozen engine snapshot, the sampler tail, and a
/// replay of the ring's recent events, newest last.
pub fn explain_postmortem(text: &str) -> Result<String, String> {
    let (snap, events) = elastisched_sim::read_postmortem(text)?;
    let mut out = String::new();
    let _ = writeln!(out, "postmortem: {}", snap.reason);
    let _ = writeln!(
        out,
        "  at t={}s under {} · machine {}/{} procs busy",
        snap.at_secs, snap.scheduler, snap.machine_used, snap.machine_total
    );
    let _ = writeln!(
        out,
        "  jobs: {} running · {} waiting · {} completed · {} events pending",
        snap.running_jobs, snap.waiting_jobs, snap.completed_jobs, snap.event_queue_len
    );
    if !snap.queue_heads.is_empty() {
        let _ = writeln!(out, "  queue head:");
        for h in &snap.queue_heads {
            let _ = writeln!(out, "    {h}");
        }
    }
    if !snap.sampler_tail.is_empty() {
        let _ = writeln!(out, "  sampler tail ({} samples):", snap.sampler_tail.len());
        for s in &snap.sampler_tail {
            let _ = writeln!(out, "    {s}");
        }
    }
    // Reuse the per-job describer; ring housekeeping events
    // (RunMeta/Cycle) have no line and are dropped here.
    let described: Vec<(&TraceEvent, String)> = events
        .iter()
        .filter_map(|ev| describe(ev, None).map(|line| (ev, line)))
        .collect();
    if described.is_empty() {
        let _ = writeln!(out, "  (flight ring empty: recorder armed without tracing)");
    } else {
        if snap.dropped_events > 0 {
            let _ = writeln!(
                out,
                "  flight ring: last {} events ({} older dropped):",
                described.len(),
                snap.dropped_events
            );
        } else {
            let _ = writeln!(out, "  flight ring: {} events:", described.len());
        }
        for (ev, line) in &described {
            let tag = match ev.job() {
                Some(j) => format!("job {j}: "),
                None => String::new(),
            };
            match ev.at() {
                Some(at) => {
                    let _ = writeln!(out, "    t={at:>8}s  {tag}{line}");
                }
                None => {
                    let _ = writeln!(out, "                {tag}{line}");
                }
            }
        }
    }
    Ok(out)
}

/// Render the timeline of every trace event mentioning `job`.
///
/// Returns `None` when the trace holds no event about the job (wrong id,
/// or the ring dropped its window — check [`TraceSink::dropped`]).
pub fn explain_job(sink: &TraceSink, job: u64) -> Option<String> {
    let mut out = String::new();
    let mut count = 0usize;
    for ev in sink.events() {
        if !ev.mentions(job) {
            continue;
        }
        let Some(line) = describe(ev, Some(job)) else {
            continue;
        };
        match ev.at() {
            Some(at) => writeln!(out, "t={at:>8}s  {line}").expect("write to String"),
            None => writeln!(out, "            {line}").expect("write to String"),
        }
        count += 1;
    }
    if count == 0 {
        return None;
    }
    let mut header = format!("job {job}: {count} trace events\n");
    if sink.dropped() > 0 {
        let _ = writeln!(
            header,
            "(ring dropped {} oldest events; early history may be missing)",
            sink.dropped()
        );
    }
    header.push_str(&out);
    Some(header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use elastisched_sched::Algorithm;
    use elastisched_sim::JobSpec;
    use elastisched_workload::Workload;

    /// The paper's Figure 2 anomaly under Delayed-LOS: head job 1 (224
    /// procs) is passed over for the perfectly packing {128, 192} pair,
    /// so the trace must contain a head-skip and a DP selection.
    fn figure2_trace() -> TraceSink {
        let jobs = vec![
            JobSpec::batch(1, 0, 224, 100),
            JobSpec::batch(2, 0, 128, 100),
            JobSpec::batch(3, 0, 192, 100),
        ];
        let workload = Workload::from_jobs(jobs);
        let exp = Experiment {
            trace: Some(TraceSink::new()),
            ..Experiment::new(Algorithm::DelayedLos)
        };
        let result = exp.run_raw(&workload).unwrap();
        *result.trace.expect("tracing was enabled")
    }

    #[test]
    fn reconstructs_head_skip_and_dp_selection() {
        let sink = figure2_trace();
        let text = explain_job(&sink, 1).expect("job 1 is in the trace");
        assert!(text.contains("skipped at the head"), "{text}");
        assert!(text.contains("submitted: 224 procs"), "{text}");
        assert!(text.contains("finished"), "{text}");
        let text2 = explain_job(&sink, 2).expect("job 2 is in the trace");
        assert!(text2.contains("Basic_DP"), "{text2}");
        assert!(text2.contains("selected this job"), "{text2}");
    }

    #[test]
    fn unknown_job_yields_none() {
        let sink = figure2_trace();
        assert!(explain_job(&sink, 999).is_none());
    }

    #[test]
    fn postmortem_renders_snapshot_and_ring_replay() {
        use elastisched_sim::{write_postmortem, PostmortemSnapshot};
        let sink = figure2_trace();
        let snap = PostmortemSnapshot {
            reason: "audit violation [capacity]: ledger ahead of running set".into(),
            at_secs: 100,
            scheduler: "Delayed-LOS".into(),
            machine_used: 320,
            machine_total: 320,
            event_queue_len: 2,
            running_jobs: 2,
            waiting_jobs: 1,
            completed_jobs: 0,
            dropped_events: 0,
            queue_heads: vec!["job 1: 224 procs, waited 100s".into()],
            sampler_tail: Vec::new(),
        };
        let path = std::env::temp_dir().join(format!(
            "elastisched-explain-postmortem-{}.jsonl",
            std::process::id()
        ));
        write_postmortem(&path, &snap, sink.events()).expect("write postmortem");
        let text = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        let rendered = explain_postmortem(&text).expect("renders");
        assert!(
            rendered.contains("postmortem: audit violation [capacity]"),
            "{rendered}"
        );
        assert!(
            rendered.contains("at t=100s under Delayed-LOS"),
            "{rendered}"
        );
        assert!(rendered.contains("queue head:"), "{rendered}");
        // Ring replay reuses the per-job describer without a focus job.
        assert!(rendered.contains("Basic_DP"), "{rendered}");
        assert!(!rendered.contains("this job"), "{rendered}");

        assert!(explain_postmortem("not a postmortem").is_err());
    }
}
