//! Time-resolved views of a schedule: utilization profiles and a text
//! Gantt chart, reconstructed purely from job outcomes.

use elastisched_sim::{JobOutcome, SimTime};
use std::fmt::Write as _;

/// Utilization sampled over fixed-width buckets: returns
/// `(bucket_start_seconds, mean_utilization_in_bucket)` pairs covering
/// `[0, makespan]`.
pub fn utilization_profile(
    outcomes: &[JobOutcome],
    machine_total: u32,
    bucket_secs: u64,
) -> Vec<(u64, f64)> {
    assert!(bucket_secs > 0, "bucket width must be positive");
    let makespan = outcomes
        .iter()
        .map(|o| o.finished.as_secs())
        .max()
        .unwrap_or(0);
    if makespan == 0 {
        return Vec::new();
    }
    let n_buckets = makespan.div_ceil(bucket_secs) as usize;
    let mut area = vec![0.0f64; n_buckets];
    for o in outcomes {
        let (s, f) = (o.started.as_secs(), o.finished.as_secs());
        if f <= s {
            continue;
        }
        let first = (s / bucket_secs) as usize;
        let last = ((f - 1) / bucket_secs) as usize;
        for (b, slot) in area
            .iter_mut()
            .enumerate()
            .take(last.min(n_buckets - 1) + 1)
            .skip(first)
        {
            let b_start = b as u64 * bucket_secs;
            let b_end = b_start + bucket_secs;
            let overlap = f.min(b_end).saturating_sub(s.max(b_start));
            *slot += o.num as f64 * overlap as f64;
        }
    }
    area.iter()
        .enumerate()
        .map(|(b, &a)| {
            let b_start = b as u64 * bucket_secs;
            let width = bucket_secs.min(makespan - b_start) as f64;
            (
                b_start,
                (a / (machine_total as f64 * width)).clamp(0.0, 1.0),
            )
        })
        .collect()
}

/// A one-line text sparkline of a utilization profile.
pub fn sparkline(profile: &[(u64, f64)]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    profile
        .iter()
        .map(|&(_, u)| LEVELS[((u * 7.0).round() as usize).min(7)])
        .collect()
}

/// A text Gantt chart: one row per job, time on the x-axis scaled to
/// `width` columns. Rows are sorted by start time; at most `max_rows`
/// jobs are shown (earliest starts first).
pub fn gantt(outcomes: &[JobOutcome], width: usize, max_rows: usize) -> String {
    let mut rows: Vec<&JobOutcome> = outcomes.iter().collect();
    rows.sort_by_key(|o| (o.started, o.id));
    rows.truncate(max_rows);
    let makespan = outcomes
        .iter()
        .map(|o| o.finished)
        .max()
        .unwrap_or(SimTime::ZERO)
        .as_secs()
        .max(1);
    let col = |t: u64| ((t as f64 / makespan as f64) * (width.max(1) as f64 - 1.0)) as usize;
    let mut out = String::new();
    let _ = writeln!(out, "time 0 .. {makespan}s ({width} cols)");
    for o in rows {
        let s = col(o.started.as_secs());
        let f = col(o.finished.as_secs()).max(s);
        let mut line: Vec<char> = vec![' '; width];
        let submit = col(o.submit.as_secs());
        for c in line.iter_mut().take(s).skip(submit) {
            *c = '·'; // waiting
        }
        for c in line.iter_mut().take(f + 1).skip(s) {
            *c = if o.requested_start.is_some() {
                '#'
            } else {
                '='
            };
        }
        let _ = writeln!(
            out,
            "{:>6} {:>4}p |{}|",
            format!("#{}", o.id.0),
            o.num,
            line.into_iter().collect::<String>()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::{Duration, JobId};

    fn outcome(id: u64, started: u64, finished: u64, num: u32) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            submit: SimTime::ZERO,
            requested_start: None,
            started: SimTime::from_secs(started),
            finished: SimTime::from_secs(finished),
            num,
            runtime: Duration::from_secs(finished - started),
            wait: Duration::from_secs(started),
            attribution: None,
        }
    }

    #[test]
    fn profile_integrates_to_busy_area() {
        let os = vec![outcome(1, 0, 100, 160), outcome(2, 50, 150, 160)];
        let profile = utilization_profile(&os, 320, 10);
        assert_eq!(profile.len(), 15);
        // First 50 s: 160/320 = 0.5; 50–100 s: 1.0; 100–150 s: 0.5.
        assert!((profile[0].1 - 0.5).abs() < 1e-12);
        assert!((profile[7].1 - 1.0).abs() < 1e-12);
        assert!((profile[12].1 - 0.5).abs() < 1e-12);
        // Total integral equals busy area.
        let area: f64 = profile.iter().map(|&(_, u)| u * 10.0 * 320.0).sum();
        assert!((area - (160.0 * 100.0 * 2.0)).abs() < 1e-6);
    }

    #[test]
    fn partial_last_bucket_normalized() {
        let os = vec![outcome(1, 0, 95, 320)];
        let profile = utilization_profile(&os, 320, 10);
        assert_eq!(profile.len(), 10);
        assert!((profile[9].1 - 1.0).abs() < 1e-12, "{:?}", profile[9]);
    }

    #[test]
    fn non_multiple_makespan_integral_identity() {
        // Makespan 137 s with 10 s buckets: the tail bucket covers only
        // 7 s and must be weighted by that width, not the full 10 s —
        // otherwise the width-weighted integral under-counts and the
        // profile's mean under-reports utilization.
        let os = vec![
            outcome(1, 0, 137, 160),
            outcome(2, 30, 137, 96),
            outcome(3, 60, 110, 64),
        ];
        let busy: f64 = os
            .iter()
            .map(|o| o.num as f64 * o.runtime.as_secs_f64())
            .sum();
        let makespan = 137u64;
        let bucket = 10u64;
        let profile = utilization_profile(&os, 320, bucket);
        assert_eq!(profile.len(), 14);
        // Width-weighted integral over covered widths == busy area.
        let area: f64 = profile
            .iter()
            .map(|&(start, u)| {
                let width = bucket.min(makespan - start) as f64;
                u * width * 320.0
            })
            .sum();
        assert!((area - busy).abs() < 1e-6, "area {area} != busy {busy}");
        // The tail bucket is full-rate for job 1+2 (256/320), and would
        // read 0.56 if wrongly divided by the full 10 s width.
        assert!((profile[13].1 - 0.8).abs() < 1e-12, "{:?}", profile[13]);
    }

    #[test]
    fn empty_outcomes_empty_profile() {
        assert!(utilization_profile(&[], 320, 10).is_empty());
    }

    #[test]
    fn sparkline_length_matches() {
        let os = vec![outcome(1, 0, 100, 320)];
        let p = utilization_profile(&os, 320, 10);
        let s = sparkline(&p);
        assert_eq!(s.chars().count(), p.len());
        assert!(s.chars().all(|c| c == '█'));
    }

    #[test]
    fn gantt_renders_rows() {
        let mut o2 = outcome(2, 100, 200, 64);
        o2.requested_start = Some(SimTime::from_secs(100));
        let os = vec![outcome(1, 0, 100, 320), o2];
        let g = gantt(&os, 40, 10);
        assert!(g.contains("#1"));
        assert!(g.contains("#2"));
        assert!(g.contains('='), "batch bars use '='");
        assert!(g.contains('#'), "dedicated bars use '#'");
        assert_eq!(g.lines().count(), 3);
    }

    #[test]
    fn gantt_caps_rows() {
        let os: Vec<JobOutcome> = (0..20).map(|i| outcome(i, i, i + 10, 32)).collect();
        let g = gantt(&os, 40, 5);
        assert_eq!(g.lines().count(), 6); // header + 5 rows
    }
}
