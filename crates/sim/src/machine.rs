//! The parallel machine model.
//!
//! Models a BlueGene/P-style system (paper §IV-A): `total` processors,
//! allocatable only in integer multiples of an allocation `unit`
//! (32 processors per node group on BlueGene/P). The machine also
//! integrates busy processor-seconds over time, which is the basis of the
//! paper's *mean utilization* metric.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised by machine allocation operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum MachineError {
    /// Requested more processors than currently free.
    InsufficientCapacity { requested: u32, free: u32 },
    /// Request is not a multiple of the allocation unit or is zero.
    BadGranularity { requested: u32, unit: u32 },
    /// Released more than was allocated (internal invariant violation).
    ReleaseUnderflow { released: u32, used: u32 },
    /// Request exceeds the whole machine.
    TooLarge { requested: u32, total: u32 },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MachineError::InsufficientCapacity { requested, free } => {
                write!(f, "requested {requested} processors but only {free} free")
            }
            MachineError::BadGranularity { requested, unit } => {
                write!(
                    f,
                    "request of {requested} processors violates allocation unit {unit}"
                )
            }
            MachineError::ReleaseUnderflow { released, used } => {
                write!(f, "released {released} processors but only {used} in use")
            }
            MachineError::TooLarge { requested, total } => {
                write!(
                    f,
                    "requested {requested} processors on a {total}-processor machine"
                )
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// A homogeneous parallel machine with unit-granular space sharing.
///
/// ```
/// use elastisched_sim::{Machine, SimTime};
/// let mut m = Machine::bluegene_p();
/// m.allocate(96, SimTime::ZERO).unwrap();
/// assert_eq!(m.free(), 224);
/// assert!(m.allocate(33, SimTime::ZERO).is_err()); // not a 32-multiple
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Machine {
    total: u32,
    unit: u32,
    used: u32,
    /// Σ used(t) dt accumulated so far, in processor-seconds.
    busy_area: f64,
    /// Last instant at which `busy_area` was brought up to date.
    last_update: SimTime,
}

impl Machine {
    /// A machine with `total` processors allocatable in multiples of `unit`.
    ///
    /// # Panics
    /// If `unit` is zero or does not divide `total`.
    pub fn new(total: u32, unit: u32) -> Self {
        assert!(unit > 0, "allocation unit must be positive");
        assert!(
            total % unit == 0 && total > 0,
            "machine size must be a positive multiple of the allocation unit"
        );
        Machine {
            total,
            unit,
            used: 0,
            busy_area: 0.0,
            last_update: SimTime::ZERO,
        }
    }

    /// The paper's evaluation machine: a BlueGene/P with M = 320
    /// processors in 32-processor node groups.
    pub fn bluegene_p() -> Self {
        Machine::new(320, 32)
    }

    /// Total processors `M`.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Allocation unit (node-group size).
    #[inline]
    pub fn unit(&self) -> u32 {
        self.unit
    }

    /// Processors currently allocated.
    #[inline]
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Free processors `m = M - Σ a_i.num`.
    #[inline]
    pub fn free(&self) -> u32 {
        self.total - self.used
    }

    /// Whether an allocation of `n` processors is valid for this machine
    /// at *some* time (granularity and size), regardless of current load.
    pub fn is_valid_request(&self, n: u32) -> Result<(), MachineError> {
        if n == 0 || n % self.unit != 0 {
            return Err(MachineError::BadGranularity {
                requested: n,
                unit: self.unit,
            });
        }
        if n > self.total {
            return Err(MachineError::TooLarge {
                requested: n,
                total: self.total,
            });
        }
        Ok(())
    }

    /// Whether `n` processors could be allocated right now.
    #[inline]
    pub fn can_fit(&self, n: u32) -> bool {
        self.is_valid_request(n).is_ok() && n <= self.free()
    }

    /// Bring the busy-area integral up to `now`. Must be called with
    /// monotonically non-decreasing times.
    pub fn advance_to(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "machine clock moved backwards");
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        self.busy_area += self.used as f64 * dt;
        self.last_update = now;
    }

    /// Allocate `n` processors at `now`.
    pub fn allocate(&mut self, n: u32, now: SimTime) -> Result<(), MachineError> {
        self.is_valid_request(n)?;
        if n > self.free() {
            return Err(MachineError::InsufficientCapacity {
                requested: n,
                free: self.free(),
            });
        }
        self.advance_to(now);
        self.used += n;
        Ok(())
    }

    /// Release `n` processors at `now`.
    pub fn release(&mut self, n: u32, now: SimTime) -> Result<(), MachineError> {
        if n > self.used {
            return Err(MachineError::ReleaseUnderflow {
                released: n,
                used: self.used,
            });
        }
        self.advance_to(now);
        self.used -= n;
        Ok(())
    }

    /// Busy processor-seconds accumulated up to the last `advance_to`.
    #[inline]
    pub fn busy_area(&self) -> f64 {
        self.busy_area
    }

    /// Mean utilization over `[0, horizon]`:
    /// busy processor-seconds divided by `M * horizon`.
    pub fn mean_utilization(&self, horizon: SimTime) -> f64 {
        let h = horizon.as_secs() as f64;
        if h <= 0.0 {
            return 0.0;
        }
        self.busy_area / (self.total as f64 * h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn bluegene_p_dimensions() {
        let m = Machine::bluegene_p();
        assert_eq!(m.total(), 320);
        assert_eq!(m.unit(), 32);
        assert_eq!(m.free(), 320);
    }

    #[test]
    fn allocate_release_roundtrip() {
        let mut m = Machine::new(320, 32);
        m.allocate(96, t(0)).unwrap();
        assert_eq!(m.used(), 96);
        assert_eq!(m.free(), 224);
        m.release(96, t(10)).unwrap();
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn rejects_bad_granularity() {
        let mut m = Machine::new(320, 32);
        assert!(matches!(
            m.allocate(33, t(0)),
            Err(MachineError::BadGranularity { .. })
        ));
        assert!(matches!(
            m.allocate(0, t(0)),
            Err(MachineError::BadGranularity { .. })
        ));
    }

    #[test]
    fn rejects_oversubscription() {
        let mut m = Machine::new(320, 32);
        m.allocate(320, t(0)).unwrap();
        assert!(matches!(
            m.allocate(32, t(1)),
            Err(MachineError::InsufficientCapacity { .. })
        ));
        assert!(matches!(
            m.allocate(352, t(1)),
            Err(MachineError::TooLarge { .. })
        ));
    }

    #[test]
    fn release_underflow_detected() {
        let mut m = Machine::new(320, 32);
        m.allocate(32, t(0)).unwrap();
        assert!(matches!(
            m.release(64, t(1)),
            Err(MachineError::ReleaseUnderflow { .. })
        ));
    }

    #[test]
    fn busy_area_integrates_usage() {
        let mut m = Machine::new(100, 10);
        // NB: unit 10 machine for round numbers.
        m.allocate(50, t(0)).unwrap();
        m.advance_to(t(10)); // 50 procs * 10 s = 500
        m.allocate(30, t(10)).unwrap();
        m.advance_to(t(20)); // + 80 * 10 = 800
        m.release(80, t(20)).unwrap();
        m.advance_to(t(30)); // + 0
        assert_eq!(m.busy_area(), 1300.0);
        assert!((m.mean_utilization(t(30)) - 1300.0 / 3000.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_zero_horizon_is_zero() {
        let m = Machine::new(100, 10);
        assert_eq!(m.mean_utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic]
    fn machine_requires_unit_dividing_total() {
        let _ = Machine::new(100, 32);
    }

    #[test]
    fn can_fit_respects_granularity_and_load() {
        let mut m = Machine::new(320, 32);
        assert!(m.can_fit(320));
        assert!(!m.can_fit(321));
        assert!(!m.can_fit(16));
        m.allocate(288, t(0)).unwrap();
        assert!(m.can_fit(32));
        assert!(!m.can_fit(64));
    }
}
