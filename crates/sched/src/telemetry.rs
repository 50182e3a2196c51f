//! Decision telemetry for the LOS scheduler family.
//!
//! Counters updated by the LOS family (LOS, Delayed-LOS, Hybrid-LOS and
//! the -D stacks) as they run, making their internal behaviour
//! observable: how often the head was forced through by the skip budget
//! (Delayed-LOS and Hybrid-LOS only), how often each DP kernel ran and
//! started jobs, how many dedicated promotions happened. Used by tests
//! to pin behavioural contracts and by analyses of the `C_s` trade-off.

use serde::{Deserialize, Serialize};

/// Counters for one scheduler instance's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Jobs started by the "head fits and `scount ≥ C_s`" rule
    /// (Algorithm 1 lines 3–5 / Algorithm 2 lines 35–37).
    pub head_force_starts: u64,
    /// Basic_DP invocations (Algorithm 1 line 7).
    pub basic_dp_calls: u64,
    /// Reservation_DP invocations (Algorithm 1 line 17 / Algorithm 2
    /// lines 20, 28).
    pub reservation_dp_calls: u64,
    /// Times the head job was skipped by a DP selection (`scount++`).
    pub head_skips: u64,
    /// Jobs started out of DP selections.
    pub dp_starts: u64,
    /// Dedicated jobs promoted to the batch head (Algorithm 3).
    pub dedicated_promotions: u64,
    /// Scheduling cycles observed.
    pub cycles: u64,
}

impl Telemetry {
    /// Total jobs started through any path.
    pub fn total_starts(&self) -> u64 {
        self.head_force_starts + self.dp_starts
    }

    /// Project the decision counters onto the engine-facing
    /// [`elastisched_sim::SchedStats`], so they ride `SimResult` out of
    /// a run and land in the metrics registry. Overwrites (these are
    /// lifetime-cumulative). The DP cache and incremental counters come
    /// from the solver itself ([`crate::DpSolver::stats`]).
    pub fn fill_sched_stats(&self, stats: &mut elastisched_sim::SchedStats) {
        stats.head_force_starts = self.head_force_starts;
        stats.head_skips = self.head_skips;
        stats.dp_starts = self.dp_starts;
        stats.dedicated_promotions = self.dedicated_promotions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let t = Telemetry::default();
        assert_eq!(t.total_starts(), 0);
        assert_eq!(t.cycles, 0);
    }

    #[test]
    fn totals_add_up() {
        let t = Telemetry {
            head_force_starts: 3,
            dp_starts: 7,
            ..Telemetry::default()
        };
        assert_eq!(t.total_starts(), 10);
    }

    #[test]
    fn serde_round_trips() {
        let t = Telemetry {
            head_force_starts: 1,
            basic_dp_calls: 2,
            reservation_dp_calls: 3,
            head_skips: 4,
            dp_starts: 5,
            dedicated_promotions: 6,
            cycles: 7,
        };
        let text = serde_json::to_string(&t).unwrap();
        let back: Telemetry = serde_json::from_str(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn serde_tolerates_missing_and_unknown_fields() {
        // An object from when the telemetry mirrored the solver's DP
        // counters (the `dp_cache_*`, `dp_nanos` and `dp_incremental_*`
        // keys, now read from the solver alone), plus a field from some
        // future version: the keys this struct no longer has are ignored.
        let text = r#"{
            "head_force_starts": 2, "basic_dp_calls": 0,
            "reservation_dp_calls": 0, "head_skips": 1, "dp_starts": 3,
            "dedicated_promotions": 0, "cycles": 9,
            "dp_cache_hits": 8, "dp_cache_misses": 9, "dp_nanos": 10,
            "dp_incremental_hits": 11, "dp_incremental_rebuilds": 12,
            "some_future_counter": 123
        }"#;
        let t: Telemetry = serde_json::from_str(text).unwrap();
        assert_eq!(t.head_force_starts, 2);
        assert_eq!(t.dp_starts, 3);
        assert_eq!(t.cycles, 9);
    }
}
