//! Freeze-window ("shadow") computations.
//!
//! The LOS family avoids starving a blocked job by reserving capacity for
//! it in the future: the *freeze end time* `fret` (shadow time in \[7\]) and
//! the *freeze end capacity* `frec` (shadow free capacity). Jobs selected
//! to run now must either finish before `fret` or fit, together, in
//! `frec`. This module computes the two freezes the paper uses:
//!
//! * the **batch-head freeze** (Algorithm 1, lines 13–15) for a head job
//!   too large to start now;
//! * the **dedicated freeze** (Algorithm 2, lines 8–30) protecting the
//!   first dedicated job's requested start time.

use elastisched_sim::{Duration, RunningSet, SimTime};

/// A capacity reservation in the future.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Freeze {
    /// Freeze end time `fret` (paper: shadow time).
    pub fret: SimTime,
    /// Freeze end capacity `frec`: processors that selected jobs still
    /// running at `fret` may collectively occupy.
    pub frec: u32,
}

impl Freeze {
    /// Does a job of duration `dur` started at `now` extend past this
    /// freeze? This is the paper's `frenum` rule (Algorithm 1, line 16):
    /// `frenum = (t + dur < fret) ? 0 : num`.
    pub fn extends(&self, now: SimTime, dur: Duration) -> bool {
        now + dur >= self.fret
    }
}

/// Batch-head freeze: the earliest time at which `head_num` processors
/// will be free (given the running set and no further starts), and the
/// capacity left over at that time after the head's reservation
/// (Algorithm 1: `fret_b ← t + a_s.res`,
/// `frec_b ← m + Σ_{i=1..s} a_i.num − w_1^b.num`).
///
/// Returns `None` if `head_num` exceeds the machine.
pub fn batch_head_freeze(
    running: &RunningSet,
    now: SimTime,
    total: u32,
    head_num: u32,
) -> Option<Freeze> {
    let (fret, frec) = running.earliest_fit(now, total, head_num)?;
    Some(Freeze { fret, frec })
}

/// Dedicated freeze (Algorithm 2, lines 8–30): protects the first
/// dedicated job's requested `start`. `tot_start_num` is the combined
/// size of all dedicated jobs sharing that exact start time.
///
/// * If the capacity free at `start` (counting a job with residual ending
///   exactly at `start` as *still running*, per the paper's `≤`) covers
///   `tot_start_num`, the freeze is at `start` with the remaining
///   capacity.
/// * Otherwise the dedicated jobs will inevitably be delayed; the freeze
///   moves to the earliest time `tot_start_num` fits (lines 24–26).
///
/// Returns `None` if `tot_start_num` exceeds the machine.
pub fn dedicated_freeze(
    running: &RunningSet,
    now: SimTime,
    total: u32,
    start: SimTime,
    tot_start_num: u32,
) -> Option<Freeze> {
    if tot_start_num > total {
        return None;
    }
    // frec_d: capacity free at `start`. Lines 10–15: jobs with
    // t + a_i.res ≥ start (finish at or after start) still hold capacity.
    let still_running: u32 = running
        .iter()
        .filter(|j| j.finish >= start)
        .map(|j| j.num)
        .sum();
    let frec_at_start = total - still_running.min(total);
    if tot_start_num <= frec_at_start {
        Some(Freeze {
            fret: start,
            frec: frec_at_start - tot_start_num,
        })
    } else {
        // Insufficient capacity at the requested start: the dedicated
        // jobs are delayed to the earliest time they fit (lines 24–26).
        let (fret, frec) = running.earliest_fit(now, total, tot_start_num)?;
        Some(Freeze { fret, frec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::{JobId, RunningJob};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn running(jobs: &[(u64, u32, u64)]) -> RunningSet {
        let mut s = RunningSet::new();
        for &(id, num, finish) in jobs {
            s.insert(RunningJob {
                id: JobId(id),
                num,
                finish: t(finish),
            });
        }
        s
    }

    #[test]
    fn batch_head_freeze_walks_completions() {
        // 320-proc machine; 256 busy until t=100 (128) and t=200 (128).
        let r = running(&[(1, 128, 100), (2, 128, 200)]);
        // Head of 100 procs: fits when job 1 finishes; 64 free + 128 = 192.
        let f = batch_head_freeze(&r, t(0), 320, 100).unwrap();
        assert_eq!(f.fret, t(100));
        assert_eq!(f.frec, 92);
        // A 400-proc head is impossible.
        assert!(batch_head_freeze(&r, t(0), 320, 400).is_none());
    }

    #[test]
    fn extends_rule_matches_paper() {
        let f = Freeze {
            fret: t(100),
            frec: 64,
        };
        // t + dur < fret → does not extend.
        assert!(!f.extends(t(0), Duration::from_secs(99)));
        // t + dur == fret → extends (paper's `<` is strict).
        assert!(f.extends(t(0), Duration::from_secs(100)));
        assert!(f.extends(t(50), Duration::from_secs(60)));
    }

    #[test]
    fn dedicated_freeze_with_enough_capacity() {
        // One 128-proc job finishing at t=50; dedicated 64 procs at t=100.
        let r = running(&[(1, 128, 50)]);
        let f = dedicated_freeze(&r, t(0), 320, t(100), 64).unwrap();
        assert_eq!(f.fret, t(100));
        // At t=100 everything is free (job finished at 50): 320-64 = 256.
        assert_eq!(f.frec, 256);
    }

    #[test]
    fn dedicated_freeze_boundary_job_counts_as_running() {
        // Job finishes exactly at the dedicated start: the paper's `≤`
        // convention counts it as still holding capacity.
        let r = running(&[(1, 128, 100)]);
        let f = dedicated_freeze(&r, t(0), 320, t(100), 64).unwrap();
        assert_eq!(f.frec, 320 - 128 - 64);
    }

    #[test]
    fn dedicated_freeze_insufficient_capacity_delays() {
        // 256 busy until t=200; dedicated needs 320 at t=100 → impossible
        // at 100, earliest full-machine fit is t=200.
        let r = running(&[(1, 256, 200)]);
        let f = dedicated_freeze(&r, t(0), 320, t(100), 320).unwrap();
        assert_eq!(f.fret, t(200));
        assert_eq!(f.frec, 0);
    }

    #[test]
    fn dedicated_freeze_rejects_oversized() {
        let r = running(&[]);
        assert!(dedicated_freeze(&r, t(0), 320, t(10), 352).is_none());
    }

    #[test]
    fn dedicated_freeze_idle_machine() {
        let r = running(&[]);
        let f = dedicated_freeze(&r, t(0), 320, t(500), 96).unwrap();
        assert_eq!(f.fret, t(500));
        assert_eq!(f.frec, 224);
    }
}
