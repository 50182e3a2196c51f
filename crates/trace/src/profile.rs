//! Phase profiler: where does a run's wall time actually go?
//!
//! A simulation run decomposes into a handful of coarse phases —
//! generating the workload, solving DP selections, turning the event
//! crank, and deriving `RunMetrics` at the end. This module gives each
//! a slot in a tiny fixed-size [`PhaseProfile`], filled with
//! [`PhaseProfile::record`] from durations measured where the work
//! happens (the engine's `engine_nanos`, the scheduler's sampled
//! `dp_nanos`, the metrics derivation's own clock, workload
//! generation's).
//!
//! Profiles are plain `Copy` data: they merge with saturating adds, so
//! a sweep can fold thousands of per-run profiles into one per-scheduler
//! cost row without overflow anxiety.

use serde::{Deserialize, Serialize};

/// Coarse cost phases of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Synthesizing the workload (calibrated load search included).
    WorkloadGen,
    /// DP selection solves inside the scheduler.
    DpSolve,
    /// The engine event loop end to end.
    EngineLoop,
    /// Deriving `RunMetrics` from the raw simulation result.
    MetricsDerivation,
}

impl Phase {
    /// Number of phases (array dimension of [`PhaseProfile`]).
    pub const COUNT: usize = 4;

    /// All phases, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::WorkloadGen,
        Phase::DpSolve,
        Phase::EngineLoop,
        Phase::MetricsDerivation,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::WorkloadGen => "workload-gen",
            Phase::DpSolve => "dp-solve",
            Phase::EngineLoop => "engine-loop",
            Phase::MetricsDerivation => "metrics-derivation",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Phase::WorkloadGen => 0,
            Phase::DpSolve => 1,
            Phase::EngineLoop => 2,
            Phase::MetricsDerivation => 3,
        }
    }
}

/// Per-phase wall-nanosecond totals and timer counts for one run (or,
/// merged, for a whole sweep). All arithmetic saturates.
///
/// Note `DpSolve` time is *sampled* (the scheduler times one DP miss in
/// 16 and extrapolates — see `DP_NANOS_SAMPLE_EVERY`), and DP time is
/// spent *inside* the engine loop, so phases deliberately overlap:
/// this is an attribution aid, not a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct PhaseProfile {
    /// Wall nanoseconds per phase, indexed in [`Phase::ALL`] order.
    #[serde(default)]
    pub nanos: [u64; Phase::COUNT],
    /// Number of recordings per phase (runs merged, timers dropped).
    #[serde(default)]
    pub calls: [u64; Phase::COUNT],
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `nanos` wall nanoseconds against `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        let i = phase.index();
        self.nanos[i] = self.nanos[i].saturating_add(nanos);
        self.calls[i] = self.calls[i].saturating_add(1);
    }

    /// Nanoseconds attributed to one phase.
    pub fn nanos_of(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Recordings attributed to one phase.
    pub fn calls_of(&self, phase: Phase) -> u64 {
        self.calls[phase.index()]
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.calls.iter().all(|&c| c == 0)
    }

    /// Sum of all phase nanos (phases overlap — see type docs — so this
    /// is an upper bound on attributed time, not wall time).
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Fold another profile in (saturating, associative, commutative).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for i in 0..Phase::COUNT {
            self.nanos[i] = self.nanos[i].saturating_add(other.nanos[i]);
            self.calls[i] = self.calls[i].saturating_add(other.calls[i]);
        }
    }

    /// One-line human summary, e.g.
    /// `workload-gen 12.0ms · dp-solve 3.1ms · engine-loop 40.2ms`.
    /// Empty phases are omitted; returns `"(no phases recorded)"` when
    /// nothing was recorded.
    pub fn to_line(&self) -> String {
        let mut parts = Vec::new();
        for phase in Phase::ALL {
            let ns = self.nanos_of(phase);
            if self.calls_of(phase) > 0 {
                parts.push(format!("{} {:.1}ms", phase.name(), ns as f64 / 1e6));
            }
        }
        if parts.is_empty() {
            "(no phases recorded)".to_string()
        } else {
            parts.join(" · ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_saturates_and_is_associative() {
        let mut a = PhaseProfile::new();
        a.record(Phase::DpSolve, u64::MAX - 5);
        let mut b = PhaseProfile::new();
        b.record(Phase::DpSolve, 100);
        let mut c = PhaseProfile::new();
        c.record(Phase::EngineLoop, 7);

        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.nanos_of(Phase::DpSolve), u64::MAX);
        assert_eq!(left.calls_of(Phase::DpSolve), 2);
    }

    #[test]
    fn to_line_skips_empty_phases() {
        let mut p = PhaseProfile::new();
        assert_eq!(p.to_line(), "(no phases recorded)");
        p.record(Phase::EngineLoop, 2_000_000);
        let line = p.to_line();
        assert!(line.contains("engine-loop 2.0ms"), "{line}");
        assert!(!line.contains("workload-gen"), "{line}");
    }

    #[test]
    fn profile_serde_round_trip() {
        let mut p = PhaseProfile::new();
        p.record(Phase::WorkloadGen, 123);
        p.record(Phase::MetricsDerivation, 456);
        let json = serde_json::to_string(&p).unwrap();
        let back: PhaseProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
