//! Contiguous (BlueGene-style) space allocation and migration.
//!
//! The paper's related work (§II, Krevat et al. \[8\]) discusses the
//! BlueGene/L constraint that partitions must be *contiguous*, which
//! introduces fragmentation, and shows migration (on-the-fly
//! de-fragmentation) recovers much of the lost utilization. The paper's
//! own evaluation abstracts this away (any 32-multiple fits), but its
//! future work (§VI) calls out "space continuity — a common requirement
//! in supercomputers like BlueGene/P" as the obstacle to resource
//! elasticity.
//!
//! This module provides that substrate: a [`ContiguousMachine`] that
//! allocates *intervals* of node groups (first-fit), reports external
//! fragmentation, and supports compacting migration. The `repro
//! ablation-contiguity` target replays schedules produced by the
//! count-based engine through this allocator to measure the contiguity
//! tax and how much of it migration recovers.

use crate::job::JobId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A contiguous run of allocation units (node groups) held by one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Extent {
    /// First unit index (inclusive).
    pub start: u32,
    /// Number of units.
    pub len: u32,
}

impl Extent {
    /// One past the last unit.
    pub fn end(&self) -> u32 {
        self.start + self.len
    }
}

/// Why a contiguous allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContigError {
    /// Not enough total free units anywhere.
    InsufficientCapacity,
    /// Enough free units exist, but no single hole is large enough —
    /// *external fragmentation*.
    Fragmented,
    /// Request is zero or exceeds the machine.
    BadRequest,
}

/// A 1-D machine of `units` node groups requiring contiguous partitions.
#[derive(Debug, Clone, Default)]
pub struct ContiguousMachine {
    units: u32,
    /// Allocations keyed by start unit (sorted by construction).
    allocs: BTreeMap<u32, (JobId, u32)>,
}

impl ContiguousMachine {
    /// A machine with `units` allocation units (BlueGene/P: 320/32 = 10).
    pub fn new(units: u32) -> Self {
        assert!(units > 0, "machine must have at least one unit");
        ContiguousMachine {
            units,
            allocs: BTreeMap::new(),
        }
    }

    /// Total units.
    pub fn units(&self) -> u32 {
        self.units
    }

    /// Units currently allocated.
    pub fn used(&self) -> u32 {
        self.allocs.values().map(|&(_, len)| len).sum()
    }

    /// Units currently free (anywhere).
    pub fn free(&self) -> u32 {
        self.units - self.used()
    }

    /// The free holes, in address order.
    pub fn holes(&self) -> Vec<Extent> {
        let mut holes = Vec::new();
        let mut cursor = 0u32;
        for (&start, &(_, len)) in &self.allocs {
            if start > cursor {
                holes.push(Extent {
                    start: cursor,
                    len: start - cursor,
                });
            }
            cursor = start + len;
        }
        if cursor < self.units {
            holes.push(Extent {
                start: cursor,
                len: self.units - cursor,
            });
        }
        holes
    }

    /// Largest single hole, in units.
    pub fn largest_hole(&self) -> u32 {
        self.holes().iter().map(|h| h.len).max().unwrap_or(0)
    }

    /// External fragmentation in `[0, 1]`: `1 − largest_hole / free`
    /// (0 when free space is one hole or there is no free space).
    pub fn fragmentation(&self) -> f64 {
        let free = self.free();
        if free == 0 {
            return 0.0;
        }
        1.0 - f64::from(self.largest_hole()) / f64::from(free)
    }

    /// First-fit contiguous allocation of `len` units for `job`.
    pub fn allocate(&mut self, job: JobId, len: u32) -> Result<Extent, ContigError> {
        if len == 0 || len > self.units {
            return Err(ContigError::BadRequest);
        }
        if len > self.free() {
            return Err(ContigError::InsufficientCapacity);
        }
        match self.holes().into_iter().find(|h| h.len >= len) {
            Some(hole) => {
                let extent = Extent {
                    start: hole.start,
                    len,
                };
                self.allocs.insert(extent.start, (job, len));
                Ok(extent)
            }
            None => Err(ContigError::Fragmented),
        }
    }

    /// Release `job`'s extent. Returns it if the job was present.
    pub fn release(&mut self, job: JobId) -> Option<Extent> {
        let start = self
            .allocs
            .iter()
            .find(|(_, &(j, _))| j == job)
            .map(|(&s, _)| s)?;
        let (_, len) = self.allocs.remove(&start)?;
        Some(Extent { start, len })
    }

    /// The extent held by `job`, if any.
    pub fn extent_of(&self, job: JobId) -> Option<Extent> {
        self.allocs
            .iter()
            .find(|(_, &(j, _))| j == job)
            .map(|(&start, &(_, len))| Extent { start, len })
    }

    /// Compacting migration (Krevat et al.'s de-fragmentation): slide
    /// every allocation toward address 0, preserving order. Returns the
    /// number of jobs that moved. After compaction the free space is one
    /// contiguous hole.
    pub fn compact(&mut self) -> usize {
        let mut cursor = 0u32;
        let mut moved = 0usize;
        let entries: Vec<(u32, JobId, u32)> =
            self.allocs.iter().map(|(&s, &(j, l))| (s, j, l)).collect();
        let mut new_allocs = BTreeMap::new();
        for (start, job, len) in entries {
            if start != cursor {
                moved += 1;
            }
            new_allocs.insert(cursor, (job, len));
            cursor += len;
        }
        self.allocs = new_allocs;
        moved
    }

    /// Consistency check: extents in-bounds, non-overlapping, sorted.
    pub fn check_invariants(&self) {
        let mut cursor = 0u32;
        for (&start, &(_, len)) in &self.allocs {
            assert!(start >= cursor, "overlapping extents");
            assert!(start + len <= self.units, "extent out of bounds");
            cursor = start + len;
        }
    }
}

/// Outcome of replaying a start/release sequence through the contiguous
/// allocator (see [`replay`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplayStats {
    /// Start events that found a contiguous hole directly.
    pub direct: u64,
    /// Start events that needed a compaction (migration) first.
    pub after_migration: u64,
    /// Start events impossible even after compaction (would require
    /// delaying the job — the contiguity tax).
    pub blocked: u64,
    /// Total jobs migrated across all compactions.
    pub jobs_migrated: u64,
    /// Peak external fragmentation observed before any compaction.
    pub peak_fragmentation: f64,
}

/// One event of a replay sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEvent {
    /// A job starts, needing `units` contiguous units.
    Start {
        /// Which job.
        job: JobId,
        /// Size in units.
        units: u32,
    },
    /// A job finishes and releases its extent.
    Finish {
        /// Which job.
        job: JobId,
    },
}

/// Replay a chronological start/finish sequence (as produced by the
/// count-based engine) through a contiguous allocator, with or without
/// migration. Measures how often the count-feasible schedule is
/// contiguity-feasible.
pub fn replay(units: u32, events: &[ReplayEvent], allow_migration: bool) -> ReplayStats {
    let mut machine = ContiguousMachine::new(units);
    let mut stats = ReplayStats::default();
    for ev in events {
        match *ev {
            ReplayEvent::Finish { job } => {
                machine.release(job);
            }
            ReplayEvent::Start { job, units: len } => {
                stats.peak_fragmentation = stats.peak_fragmentation.max(machine.fragmentation());
                match machine.allocate(job, len) {
                    Ok(_) => stats.direct += 1,
                    Err(ContigError::Fragmented) if allow_migration => {
                        stats.jobs_migrated += machine.compact() as u64;
                        match machine.allocate(job, len) {
                            Ok(_) => stats.after_migration += 1,
                            Err(_) => stats.blocked += 1,
                        }
                    }
                    Err(_) => stats.blocked += 1,
                }
            }
        }
        machine.check_invariants();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jid(i: u64) -> JobId {
        JobId(i)
    }

    #[test]
    fn first_fit_allocates_lowest_hole() {
        let mut m = ContiguousMachine::new(10);
        let a = m.allocate(jid(1), 3).unwrap();
        let b = m.allocate(jid(2), 4).unwrap();
        assert_eq!(a, Extent { start: 0, len: 3 });
        assert_eq!(b, Extent { start: 3, len: 4 });
        assert_eq!(m.free(), 3);
        m.check_invariants();
    }

    #[test]
    fn release_creates_holes() {
        let mut m = ContiguousMachine::new(10);
        m.allocate(jid(1), 3).unwrap();
        m.allocate(jid(2), 4).unwrap();
        m.allocate(jid(3), 3).unwrap();
        m.release(jid(2));
        let holes = m.holes();
        assert_eq!(holes, vec![Extent { start: 3, len: 4 }]);
        // A 4-unit job fits exactly in the hole.
        let e = m.allocate(jid(4), 4).unwrap();
        assert_eq!(e.start, 3);
    }

    #[test]
    fn fragmentation_blocks_despite_capacity() {
        let mut m = ContiguousMachine::new(10);
        m.allocate(jid(1), 3).unwrap(); // [0,3)
        m.allocate(jid(2), 4).unwrap(); // [3,7)
        m.allocate(jid(3), 3).unwrap(); // [7,10)
        m.release(jid(1));
        m.release(jid(3));
        // 6 units free but the largest hole is 3.
        assert_eq!(m.free(), 6);
        assert_eq!(m.largest_hole(), 3);
        assert!(m.fragmentation() > 0.0);
        assert_eq!(m.allocate(jid(4), 5), Err(ContigError::Fragmented));
        assert_eq!(
            m.allocate(jid(4), 7),
            Err(ContigError::InsufficientCapacity)
        );
    }

    #[test]
    fn compaction_merges_holes() {
        let mut m = ContiguousMachine::new(10);
        m.allocate(jid(1), 3).unwrap();
        m.allocate(jid(2), 4).unwrap();
        m.allocate(jid(3), 3).unwrap();
        m.release(jid(1));
        m.release(jid(3));
        let moved = m.compact();
        assert_eq!(moved, 1, "job 2 slides to address 0");
        assert_eq!(m.largest_hole(), 6);
        assert_eq!(m.fragmentation(), 0.0);
        assert!(m.allocate(jid(4), 5).is_ok());
        m.check_invariants();
    }

    #[test]
    fn extent_lookup_and_double_release() {
        let mut m = ContiguousMachine::new(10);
        m.allocate(jid(1), 2).unwrap();
        assert_eq!(m.extent_of(jid(1)), Some(Extent { start: 0, len: 2 }));
        assert!(m.release(jid(1)).is_some());
        assert!(m.release(jid(1)).is_none());
        assert_eq!(m.extent_of(jid(1)), None);
    }

    #[test]
    fn bad_requests_rejected() {
        let mut m = ContiguousMachine::new(10);
        assert_eq!(m.allocate(jid(1), 0), Err(ContigError::BadRequest));
        assert_eq!(m.allocate(jid(1), 11), Err(ContigError::BadRequest));
    }

    #[test]
    fn replay_counts_migration_rescues() {
        // Build fragmentation: 1(3) 2(4) 3(3); free 1 and 3; then a
        // 5-unit job arrives.
        let events = vec![
            ReplayEvent::Start {
                job: jid(1),
                units: 3,
            },
            ReplayEvent::Start {
                job: jid(2),
                units: 4,
            },
            ReplayEvent::Start {
                job: jid(3),
                units: 3,
            },
            ReplayEvent::Finish { job: jid(1) },
            ReplayEvent::Finish { job: jid(3) },
            ReplayEvent::Start {
                job: jid(4),
                units: 5,
            },
        ];
        let without = replay(10, &events, false);
        assert_eq!(without.blocked, 1);
        assert_eq!(without.direct, 3);
        let with = replay(10, &events, true);
        assert_eq!(with.blocked, 0);
        assert_eq!(with.after_migration, 1);
        assert!(with.jobs_migrated >= 1);
        assert!(with.peak_fragmentation > 0.0);
    }

    #[test]
    fn replay_of_sequential_schedule_never_blocks() {
        let events: Vec<ReplayEvent> = (1..=20)
            .flat_map(|i| {
                [
                    ReplayEvent::Start {
                        job: jid(i),
                        units: 10,
                    },
                    ReplayEvent::Finish { job: jid(i) },
                ]
            })
            .collect();
        let stats = replay(10, &events, false);
        assert_eq!(stats.blocked, 0);
        assert_eq!(stats.direct, 20);
        assert_eq!(stats.peak_fragmentation, 0.0);
    }
}
