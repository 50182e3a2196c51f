//! The dynamic algorithm-selection policy sketched in the paper's §V-A:
//!
//! > "This observation can lead to design of a dynamic, algorithm
//! > selection policy that selects the best performing algorithm among
//! > Delayed-LOS and EASY, for different proportions of small and large
//! > sized jobs."
//!
//! [`Adaptive`] watches a sliding window of recent arrivals; when the
//! observed small-job fraction (`P_S` estimate) is high it behaves like
//! EASY, otherwise like Delayed-LOS — mirroring Figures 7–8 where
//! Delayed-LOS wins at low `P_S` and the two converge at high `P_S`.
//!
//! As a [`BatchPolicy`] core, Adaptive is itself a *core-switching stack*:
//! it owns an [`EasyCore`] and a [`DelayedLosCore`] and routes each cycle
//! (and each dedicated-claim cycle, when stacked as Adaptive-D) to the
//! sub-core selected by the current `P_S` estimate.

use crate::delayed_los::{DelayedLosCore, DEFAULT_MAX_SKIP};
use crate::easy::EasyCore;
use crate::freeze::Freeze;
use crate::los::DEFAULT_LOOKAHEAD;
use crate::queue::BatchQueue;
use crate::stack::{BatchOnly, BatchPolicy, DedicatedClaim, PolicyShared, PolicyStack};
use elastisched_sim::{JobView, SchedContext};
use std::collections::VecDeque;

/// The adaptive EASY / Delayed-LOS selection core.
#[derive(Debug)]
pub struct AdaptiveCore {
    easy: EasyCore,
    delayed: DelayedLosCore,
    pub(crate) recent_sizes: VecDeque<u32>,
    pub(crate) window: usize,
    /// Jobs with at most this many allocation units count as "small"
    /// (the paper's small jobs are 1–3 units).
    small_units: u32,
    /// Switch to EASY when the observed small fraction is at least this.
    threshold: f64,
}

impl AdaptiveCore {
    /// Defaults: 64-arrival window, small ≤ 3 units, EASY above 60 %.
    pub fn new() -> Self {
        AdaptiveCore {
            easy: EasyCore,
            delayed: DelayedLosCore::new(DEFAULT_MAX_SKIP, DEFAULT_LOOKAHEAD),
            recent_sizes: VecDeque::new(),
            window: 64,
            small_units: 3,
            threshold: 0.6,
        }
    }

    /// Observed small-job fraction over the window (0.5 when no history).
    pub fn observed_small_fraction(&self, unit: u32) -> f64 {
        if self.recent_sizes.is_empty() {
            return 0.5;
        }
        let small = self
            .recent_sizes
            .iter()
            .filter(|&&n| n <= self.small_units * unit)
            .count();
        small as f64 / self.recent_sizes.len() as f64
    }

    /// EASY when the small fraction clears the threshold.
    fn prefers_easy(&self, unit: u32) -> bool {
        self.observed_small_fraction(unit) >= self.threshold
    }
}

impl Default for AdaptiveCore {
    fn default() -> Self {
        AdaptiveCore::new()
    }
}

impl BatchPolicy for AdaptiveCore {
    fn name(&self) -> &'static str {
        "Adaptive"
    }

    fn dedicated_name(&self) -> &'static str {
        "Adaptive-D"
    }

    fn on_admit(&mut self, job: &JobView) {
        self.recent_sizes.push_back(job.num);
        if self.recent_sizes.len() > self.window {
            self.recent_sizes.pop_front();
        }
    }

    fn cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        ded: Option<Freeze>,
        shared: &mut PolicyShared,
    ) {
        if self.prefers_easy(ctx.unit()) {
            self.easy.cycle(queue, ctx, ded, shared);
        } else {
            self.delayed.cycle(queue, ctx, ded, shared);
        }
    }

    fn dedicated_cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        claim: DedicatedClaim,
        bump_scount: bool,
        shared: &mut PolicyShared,
    ) {
        if self.prefers_easy(ctx.unit()) {
            self.easy
                .dedicated_cycle(queue, ctx, claim, bump_scount, shared);
        } else {
            self.delayed
                .dedicated_cycle(queue, ctx, claim, bump_scount, shared);
        }
    }
}

/// Adaptive EASY / Delayed-LOS selection.
pub type Adaptive = PolicyStack<BatchOnly<AdaptiveCore>>;

impl Adaptive {
    /// Defaults: 64-arrival window, small ≤ 3 units, EASY above 60 %.
    pub fn new() -> Self {
        PolicyStack::batch_only(AdaptiveCore::new())
    }

    /// Observed small-job fraction over the window (0.5 when no history).
    pub fn observed_small_fraction(&self, unit: u32) -> f64 {
        self.layer.core.observed_small_fraction(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::{JobSpec, Scheduler};
    use elastisched_test_util::{run_on_bluegene, started};

    #[test]
    fn small_fraction_tracks_arrivals() {
        let mut a = Adaptive::new();
        assert_eq!(a.observed_small_fraction(32), 0.5);
        for i in 0..10u64 {
            a.on_arrival(JobSpec::batch(i + 1, 0, if i < 8 { 32 } else { 320 }, 10).to_view());
        }
        assert!((a.observed_small_fraction(32) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn window_is_bounded() {
        let mut a = Adaptive::new();
        for i in 0..1000u64 {
            a.on_arrival(JobSpec::batch(i + 1, 0, 32, 10).to_view());
        }
        assert_eq!(a.layer.core.recent_sizes.len(), a.layer.core.window);
    }

    #[test]
    fn schedules_mixed_stream_to_completion() {
        let jobs: Vec<JobSpec> = (0..150)
            .map(|i| JobSpec::batch(i + 1, i * 13, 32 * (1 + (i as u32 * 7) % 10), 30 + i % 220))
            .collect();
        let r = run_on_bluegene(Adaptive::new(), &jobs);
        assert_eq!(r.outcomes.len(), 150);
    }

    #[test]
    fn behaves_like_delayed_los_on_large_job_stream() {
        // All-large stream (small fraction 0): the Figure 2 packing must
        // be taken, as Delayed-LOS would.
        let jobs = vec![
            JobSpec::batch(1, 0, 224, 100),
            JobSpec::batch(2, 0, 128, 100),
            JobSpec::batch(3, 0, 192, 100),
        ];
        let r = run_on_bluegene(Adaptive::new(), &jobs);
        assert_eq!(started(&r, 2), 0);
        assert_eq!(started(&r, 3), 0);
        assert_eq!(started(&r, 1), 100);
    }
}
