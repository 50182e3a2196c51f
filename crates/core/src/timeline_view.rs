//! Text rendering for sampled run timelines (the `escli timeline`
//! backend).
//!
//! A [`RunTimeline`] is a budget-bounded series of periodic engine
//! samples in virtual time. This module lays it out as aligned
//! sparkline tracks — utilization, queue depth, running jobs, ECC/DP
//! activity — plus a numeric head/tail table, so a whole run's load
//! shape fits in a terminal screenful regardless of whether the run had
//! 500 jobs or a million.

use elastisched_sim::RunTimeline;
use std::fmt::Write as _;

const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// One sparkline row over `values` normalized to `max` (block height 0
/// when the series is flat zero).
fn spark(values: impl Iterator<Item = f64>, max: f64) -> String {
    values
        .map(|v| {
            if max <= 0.0 {
                LEVELS[0]
            } else {
                LEVELS[((v / max * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Render a sampled timeline as aligned text tracks.
pub fn render_timeline(tl: &RunTimeline) -> String {
    let mut out = String::new();
    if tl.is_empty() {
        out.push_str("timeline: no samples (sampler disabled or empty run)\n");
        return out;
    }
    let first = tl.samples.first().expect("non-empty");
    let last = tl.samples.last().expect("non-empty");
    let _ = writeln!(
        out,
        "timeline: {} samples over t={}..{}s (stride {}s{}, budget {})",
        tl.samples.len(),
        first.at.as_secs(),
        last.at.as_secs(),
        tl.stride_secs,
        if tl.decimations > 0 {
            format!(
                ", {}× decimated from {}s",
                tl.decimations, tl.base_stride_secs
            )
        } else {
            String::new()
        },
        tl.budget,
    );

    let max_of = |f: &dyn Fn(&elastisched_sim::TimelineSample) -> f64| {
        tl.samples.iter().map(f).fold(0.0f64, f64::max)
    };
    let util_track = spark(tl.samples.iter().map(|s| s.util), 1.0);
    let queue_max = max_of(&|s| s.queue_depth as f64);
    let queue_track = spark(tl.samples.iter().map(|s| s.queue_depth as f64), queue_max);
    let running_max = max_of(&|s| s.running as f64);
    let running_track = spark(tl.samples.iter().map(|s| s.running as f64), running_max);
    let wait_max = max_of(&|s| s.oldest_wait_secs as f64);
    let wait_track = spark(
        tl.samples.iter().map(|s| s.oldest_wait_secs as f64),
        wait_max,
    );
    let _ = writeln!(out, "  util        |{util_track}| (0..1)");
    let _ = writeln!(out, "  queue depth |{queue_track}| (max {queue_max:.0})");
    let _ = writeln!(
        out,
        "  running     |{running_track}| (max {running_max:.0})"
    );
    let _ = writeln!(out, "  oldest wait |{wait_track}| (max {wait_max:.0}s)");

    let _ = writeln!(
        out,
        "  end of run: {} running, {} queued, {} free procs, {} ECCs applied",
        last.running, last.queue_depth, last.free, last.eccs_applied
    );
    if last.dp_cache_hits + last.dp_cache_misses > 0 {
        let _ = writeln!(
            out,
            "  dp: {} cached / {} solved ({} incremental, {} rebuilds)",
            last.dp_cache_hits,
            last.dp_cache_misses,
            last.dp_incremental_hits,
            last.dp_incremental_rebuilds
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use elastisched_sched::Algorithm;
    use elastisched_sim::{Duration, JobSpec, TimelineConfig};
    use elastisched_workload::Workload;

    #[test]
    fn renders_tracks_for_a_sampled_run() {
        let jobs: Vec<JobSpec> = (0..40)
            .map(|i| JobSpec::batch(i + 1, i * 50, 320, 400))
            .collect();
        let w = Workload::from_jobs(jobs);
        let exp = Experiment::new(Algorithm::Easy).with_timeline(TimelineConfig {
            stride: Duration::from_secs(100),
            budget: 24,
        });
        let r = exp.run_raw(&w).unwrap();
        assert!(!r.timeline.is_empty());
        let text = render_timeline(&r.timeline);
        assert!(text.contains("timeline:"), "{text}");
        assert!(text.contains("util        |"), "{text}");
        assert!(text.contains("queue depth |"), "{text}");
        assert!(text.contains("end of run:"), "{text}");
        // Track width equals the sample count.
        let track = text
            .lines()
            .find(|l| l.contains("util        |"))
            .unwrap()
            .split('|')
            .nth(1)
            .unwrap();
        assert_eq!(track.chars().count(), r.timeline.samples.len());
    }

    #[test]
    fn empty_timeline_renders_placeholder() {
        let text = render_timeline(&RunTimeline::default());
        assert!(text.contains("no samples"), "{text}");
    }
}
