//! A free-capacity timeline ("resource profile").
//!
//! Conservative backfilling needs to know how much capacity will be free
//! at every future instant, assuming no further decisions.
//! [`ResourceProfile`] is that step function: built from the running set,
//! refined by subtracting reservations, and queried for the earliest
//! feasible start of a `(num, dur)` request. With `S` breakpoints, both
//! [`ResourceProfile::earliest_start`] and
//! [`ResourceProfile::try_reserve`] are O(S).
//!
//! A window that [`ResourceProfile::earliest_start`] returned already
//! fits, so [`ResourceProfile::reserve_fitted`] books it with the range
//! subtraction alone; `try_reserve` checks the window first and changes
//! nothing when it does not fit.

use elastisched_sim::{Duration, RunningSet, SimTime};

/// Error from [`ResourceProfile::try_reserve`]: the window lacks capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReserveError;

impl std::fmt::Display for ReserveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("insufficient capacity in the requested window")
    }
}

impl std::error::Error for ReserveError {}

/// A piecewise-constant map from time to free processors.
///
/// Segment `i` covers `[times[i], times[i+1])`; the last segment extends
/// to infinity.
///
/// ```
/// use elastisched_sched::ResourceProfile;
/// use elastisched_sim::{Duration, SimTime};
/// let mut p = ResourceProfile::idle(SimTime::ZERO, 320);
/// // Reserve the whole machine for [100, 200).
/// p.try_reserve(SimTime::from_secs(100), Duration::from_secs(100), 320).unwrap();
/// // A 100-second job can still run now; a 101-second one must wait.
/// assert_eq!(p.earliest_start(SimTime::ZERO, 32, Duration::from_secs(100)),
///            Some(SimTime::ZERO));
/// assert_eq!(p.earliest_start(SimTime::ZERO, 32, Duration::from_secs(101)),
///            Some(SimTime::from_secs(200)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceProfile {
    times: Vec<SimTime>,
    free: Vec<u32>,
    total: u32,
}

impl ResourceProfile {
    /// Profile of an idle machine from time `now`.
    pub fn idle(now: SimTime, total: u32) -> Self {
        ResourceProfile {
            times: vec![now],
            free: vec![total],
            total,
        }
    }

    /// Build from the running set: capacity is released at each job's
    /// finish time (a job finishing at `f` frees its processors at `f`).
    pub fn from_running(running: &RunningSet, now: SimTime, total: u32) -> Self {
        let mut profile = ResourceProfile::idle(now, total);
        profile.reset_from_running(running, now, total);
        profile
    }

    /// Reset in place to an idle machine at `now`, keeping the segment
    /// buffers allocated.
    pub fn reset_idle(&mut self, now: SimTime, total: u32) {
        self.times.clear();
        self.free.clear();
        self.times.push(now);
        self.free.push(total);
        self.total = total;
    }

    /// Rebuild in place from the running set (see
    /// [`ResourceProfile::from_running`]), reusing the segment buffers so
    /// per-cycle rebuilds stop allocating once they reach their
    /// steady-state size.
    pub fn reset_from_running(&mut self, running: &RunningSet, now: SimTime, total: u32) {
        self.reset_idle(now, total);
        for job in running.iter() {
            // The job occupies capacity from `now` until its finish.
            if job.finish > now {
                self.try_reserve(now, job.finish - now, job.num)
                    .expect("running set exceeds machine capacity");
            }
        }
    }

    /// Move the profile start forward to `now`, dropping the segments
    /// that end at or before it. Free capacity from `now` on is
    /// unchanged; a profile kept across cycles calls this so its past
    /// does not pile up.
    pub fn trim_before(&mut self, now: SimTime) {
        let i = self.times.partition_point(|&t| t <= now);
        if i == 0 {
            return; // `now` is before the profile start
        }
        self.times.drain(..i - 1);
        self.free.drain(..i - 1);
        self.times[0] = now;
    }

    /// Total machine capacity.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Free capacity at time `at` (clamped to the profile start).
    pub fn free_at(&self, at: SimTime) -> u32 {
        match self.times.partition_point(|&t| t <= at) {
            0 => self.free[0],
            i => self.free[i - 1],
        }
    }

    /// Minimum free capacity over `[start, start + dur)`.
    pub fn min_free(&self, start: SimTime, dur: Duration) -> u32 {
        if dur == Duration::ZERO {
            return self.free_at(start);
        }
        let end = start + dur;
        let mut min = self.free_at(start);
        let from = self.times.partition_point(|&t| t <= start);
        for i in from..self.times.len() {
            if self.times[i] >= end {
                break;
            }
            min = min.min(self.free[i]);
        }
        min
    }

    /// Split the segment containing `at` so that a breakpoint sits at
    /// `at`, and return its index (0 at or before the profile start).
    fn ensure_breakpoint(&mut self, at: SimTime) -> usize {
        if at <= self.times[0] {
            return 0;
        }
        let i = self.times.partition_point(|&t| t < at);
        if i < self.times.len() && self.times[i] == at {
            return i;
        }
        let inherited = self.free[i - 1];
        self.times.insert(i, at);
        self.free.insert(i, inherited);
        i
    }

    /// Subtract `num` processors over `[start, start + dur)`. Fails (and
    /// leaves the profile unchanged) if capacity would go negative.
    pub fn try_reserve(
        &mut self,
        start: SimTime,
        dur: Duration,
        num: u32,
    ) -> Result<(), ReserveError> {
        if dur == Duration::ZERO || num == 0 {
            return Ok(());
        }
        let start = start.max(self.times[0]);
        if self.min_free(start, dur) < num {
            return Err(ReserveError);
        }
        self.subtract(start, dur, num);
        Ok(())
    }

    /// Subtract `num` processors over `[start, start + dur)`, a window
    /// known to fit: one that [`ResourceProfile::earliest_start`] just
    /// returned for the same `(num, dur)`. Skips `try_reserve`'s second
    /// check of the window (debug builds still assert it).
    pub fn reserve_fitted(&mut self, start: SimTime, dur: Duration, num: u32) {
        if dur == Duration::ZERO || num == 0 {
            return;
        }
        let start = start.max(self.times[0]);
        debug_assert!(
            self.min_free(start, dur) >= num,
            "reserve_fitted on a window that does not fit"
        );
        self.subtract(start, dur, num);
    }

    /// The range subtraction behind both reserve methods; `dur > 0` and
    /// `start` at or after the profile start.
    fn subtract(&mut self, start: SimTime, dur: Duration, num: u32) {
        let end = start + dur;
        // `end > start`, so splitting at `end` leaves `lo` in place.
        let lo = self.ensure_breakpoint(start);
        let hi = self.ensure_breakpoint(end);
        for f in &mut self.free[lo..hi] {
            *f -= num;
        }
    }

    /// The earliest time `t ≥ from` at which `num` processors are free for
    /// the whole window `[t, t + dur)`. Always exists when `num ≤ total`
    /// (the profile eventually returns to fully free); `None` otherwise.
    pub fn earliest_start(&self, from: SimTime, num: u32, dur: Duration) -> Option<SimTime> {
        if num > self.total {
            return None;
        }
        // Candidate starts: `from` and every later breakpoint. If a
        // non-breakpoint instant fits, the breakpoint opening its segment
        // fits too, so this candidate set is complete. One forward sweep
        // visits them in order: a segment short of `num` rules out every
        // candidate at or before it whose window reaches it, so the next
        // candidate is the breakpoint that ends it.
        let mut cand = from.max(self.times[0]);
        let mut end = cand + dur;
        let mut i = self.times.partition_point(|&t| t <= cand) - 1;
        loop {
            if self.free[i] < num {
                i += 1;
                cand = *self.times.get(i)?;
                end = cand + dur;
                continue;
            }
            // Segment `i` fits; the window is covered once the next
            // segment starts at or after its end.
            match self.times.get(i + 1) {
                Some(&next) if next < end => i += 1,
                _ => return Some(cand),
            }
        }
    }

    /// Number of breakpoints (for diagnostics and tests).
    pub fn segments(&self) -> usize {
        self.times.len()
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        assert_eq!(self.times.len(), self.free.len());
        for w in self.times.windows(2) {
            assert!(w[0] < w[1], "profile breakpoints out of order");
        }
        for &f in &self.free {
            assert!(f <= self.total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::{JobId, RunningJob};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    fn sample_profile() -> ResourceProfile {
        // 320 total; 128 busy until t=100, another 64 until t=50.
        let mut r = RunningSet::new();
        r.insert(RunningJob {
            id: JobId(1),
            num: 128,
            finish: t(100),
        });
        r.insert(RunningJob {
            id: JobId(2),
            num: 64,
            finish: t(50),
        });
        ResourceProfile::from_running(&r, t(0), 320)
    }

    #[test]
    fn from_running_steps_up_at_finishes() {
        let p = sample_profile();
        p.check_invariants();
        assert_eq!(p.free_at(t(0)), 128);
        assert_eq!(p.free_at(t(49)), 128);
        assert_eq!(p.free_at(t(50)), 192);
        assert_eq!(p.free_at(t(100)), 320);
        assert_eq!(p.free_at(t(10_000)), 320);
    }

    #[test]
    fn min_free_spans_segments() {
        let p = sample_profile();
        assert_eq!(p.min_free(t(0), d(200)), 128);
        assert_eq!(p.min_free(t(50), d(50)), 192);
        assert_eq!(p.min_free(t(50), d(51)), 192);
        assert_eq!(p.min_free(t(100), d(1)), 320);
        assert_eq!(p.min_free(t(0), Duration::ZERO), 128);
    }

    #[test]
    fn reserve_subtracts_capacity() {
        let mut p = sample_profile();
        p.try_reserve(t(0), d(30), 128).unwrap();
        p.check_invariants();
        assert_eq!(p.free_at(t(0)), 0);
        assert_eq!(p.free_at(t(30)), 128);
        assert_eq!(p.free_at(t(50)), 192);
    }

    #[test]
    fn reserve_rejects_overcommit() {
        let mut p = sample_profile();
        let before = p.clone();
        assert!(p.try_reserve(t(0), d(10), 129).is_err());
        assert_eq!(p, before, "failed reserve must not mutate");
    }

    #[test]
    fn reserve_at_future_time() {
        let mut p = sample_profile();
        p.try_reserve(t(200), d(100), 320).unwrap();
        assert_eq!(p.free_at(t(199)), 320);
        assert_eq!(p.free_at(t(200)), 0);
        assert_eq!(p.free_at(t(299)), 0);
        assert_eq!(p.free_at(t(300)), 320);
    }

    #[test]
    fn earliest_start_now_when_free() {
        let p = sample_profile();
        assert_eq!(p.earliest_start(t(0), 128, d(1000)), Some(t(0)));
    }

    #[test]
    fn earliest_start_waits_for_capacity() {
        let p = sample_profile();
        assert_eq!(p.earliest_start(t(0), 192, d(10)), Some(t(50)));
        assert_eq!(p.earliest_start(t(0), 320, d(10)), Some(t(100)));
        assert_eq!(p.earliest_start(t(0), 321, d(10)), None);
    }

    #[test]
    fn earliest_start_threads_between_reservations() {
        // Free now, but a full-machine reservation at [100, 200): a long
        // job cannot start before t=200, a short one can run now.
        let mut p = ResourceProfile::idle(t(0), 320);
        p.try_reserve(t(100), d(100), 320).unwrap();
        assert_eq!(p.earliest_start(t(0), 32, d(100)), Some(t(0)));
        assert_eq!(p.earliest_start(t(0), 32, d(101)), Some(t(200)));
        assert_eq!(p.earliest_start(t(5), 32, d(95)), Some(t(5)));
        assert_eq!(p.earliest_start(t(5), 32, d(96)), Some(t(200)));
    }

    #[test]
    fn conservative_chain_of_reservations() {
        // Simulate conservative backfilling bookkeeping: reserve three
        // jobs back-to-back and verify the timeline.
        let mut p = ResourceProfile::idle(t(0), 320);
        let s1 = p.earliest_start(t(0), 320, d(100)).unwrap();
        p.try_reserve(s1, d(100), 320).unwrap();
        let s2 = p.earliest_start(t(0), 160, d(50)).unwrap();
        p.try_reserve(s2, d(50), 160).unwrap();
        let s3 = p.earliest_start(t(0), 320, d(10)).unwrap();
        p.try_reserve(s3, d(10), 320).unwrap();
        assert_eq!(s1, t(0));
        assert_eq!(s2, t(100));
        assert_eq!(s3, t(150));
        p.check_invariants();
    }

    #[test]
    fn zero_duration_and_zero_num_reservations_are_noops() {
        let mut p = sample_profile();
        let before = p.clone();
        p.try_reserve(t(0), Duration::ZERO, 320).unwrap();
        p.try_reserve(t(0), d(10), 0).unwrap();
        p.reserve_fitted(t(0), Duration::ZERO, 320);
        p.reserve_fitted(t(0), d(10), 0);
        assert_eq!(p, before);
    }

    #[test]
    fn trim_before_keeps_the_future() {
        let mut p = sample_profile();
        p.try_reserve(t(200), d(100), 320).unwrap();
        let before = p.clone();
        for now in [0, 30, 50, 120, 250, 300, 1_000] {
            p.trim_before(t(now));
            p.check_invariants();
            for s in now..now + 400 {
                assert_eq!(p.free_at(t(s)), before.free_at(t(s)), "free_at({s})");
            }
            assert_eq!(
                p.earliest_start(t(now), 320, d(10)),
                before.earliest_start(t(now), 320, d(10))
            );
        }
        assert_eq!(p.segments(), 1);
    }

    #[test]
    fn reserve_fitted_books_what_try_reserve_books() {
        let mut checked = sample_profile();
        let mut fitted = sample_profile();
        for (num, dur) in [(128, 30), (192, 10), (64, 200), (320, 5)] {
            let at = checked.earliest_start(t(0), num, d(dur)).unwrap();
            checked.try_reserve(at, d(dur), num).unwrap();
            fitted.reserve_fitted(at, d(dur), num);
            assert_eq!(fitted, checked);
        }
        fitted.check_invariants();
    }
}
