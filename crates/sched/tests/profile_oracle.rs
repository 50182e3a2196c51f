//! Exact oracle for [`ResourceProfile`].
//!
//! `legacy_differential` pins Conservative's schedules only on fixed
//! cases. This suite checks the profile against a brute force that
//! keeps one free-capacity value per second: every `try_reserve` must succeed or
//! fail exactly when the per-second array says so (and change nothing
//! when it fails), every `earliest_start` must return the first
//! feasible second, and `reserve_fitted` at that second must book what
//! the per-second array books.

use elastisched_sched::ResourceProfile;
use elastisched_sim::{Duration, SimTime};
use proptest::prelude::*;

/// Seconds the brute force tracks. Every generated reservation ends
/// before this, so the profile is fully free from here on.
const HORIZON: u64 = 1_000;

/// Free capacity per second, the reference for [`ResourceProfile`].
struct PerSecond {
    origin: u64,
    total: u32,
    free: Vec<u32>,
}

impl PerSecond {
    fn idle(origin: u64, total: u32) -> Self {
        PerSecond {
            origin,
            total,
            free: vec![total; HORIZON as usize],
        }
    }

    /// Free capacity at second `t`, clamped to the profile start like
    /// `ResourceProfile::free_at`.
    fn at(&self, t: u64) -> u32 {
        let t = t.max(self.origin);
        self.free.get(t as usize).copied().unwrap_or(self.total)
    }

    /// Minimum free over `[start, start + dur)`; `at(start)` when `dur`
    /// is zero.
    fn min_free(&self, start: u64, dur: u64) -> u32 {
        (start..start + dur.max(1))
            .map(|t| self.at(t))
            .min()
            .expect("non-empty window")
    }

    /// Same contract as `ResourceProfile::try_reserve`.
    fn try_reserve(&mut self, start: u64, dur: u64, num: u32) -> bool {
        if dur == 0 || num == 0 {
            return true;
        }
        let start = start.max(self.origin);
        if self.min_free(start, dur) < num {
            return false;
        }
        for t in start..start + dur {
            self.free[t as usize] -= num;
        }
        true
    }

    /// The first second `t ≥ from` (and ≥ the origin) whose window fits.
    fn earliest_start(&self, from: u64, num: u32, dur: u64) -> Option<u64> {
        if num > self.total {
            return None;
        }
        (from.max(self.origin)..).find(|&t| self.min_free(t, dur) >= num)
    }
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn d(s: u64) -> Duration {
    Duration::from_secs(s)
}

/// `(origin, total, reservations)`: reservation requests may start
/// before the origin, overcommit (`num` up to `total + 1`), or be empty.
fn arb_profile() -> impl Strategy<Value = (u64, u32, Vec<(u64, u64, u32)>)> {
    (
        0u64..100,
        1u32..=12,
        prop::collection::vec((0u64..500, 0u64..300, 0u32..=13), 0..24),
    )
        .prop_map(|(origin, total, reservations)| {
            let reservations = reservations
                .into_iter()
                .map(|(start, dur, num)| (start, dur, num % (total + 2)))
                .collect();
            (origin, total, reservations)
        })
}

/// Apply `reservations` to both models, checking each result.
fn build(
    origin: u64,
    total: u32,
    reservations: &[(u64, u64, u32)],
) -> (ResourceProfile, PerSecond) {
    let mut profile = ResourceProfile::idle(t(origin), total);
    let mut brute = PerSecond::idle(origin, total);
    for &(start, dur, num) in reservations {
        let before = profile.clone();
        let ok = profile.try_reserve(t(start), d(dur), num).is_ok();
        assert_eq!(
            ok,
            brute.try_reserve(start, dur, num),
            "try_reserve({start}, {dur}, {num}) disagrees with the per-second array"
        );
        if !ok {
            assert_eq!(profile, before, "a failed reserve changed the profile");
        }
    }
    (profile, brute)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After any sequence of reservations, successful or not, the
    /// profile's free capacity matches the per-second array everywhere,
    /// before the origin included.
    #[test]
    fn reserve_matches_per_second_array(case in arb_profile()) {
        let (origin, total, reservations) = case;
        let (profile, brute) = build(origin, total, &reservations);
        for s in 0..HORIZON {
            prop_assert_eq!(profile.free_at(t(s)), brute.at(s), "free_at({})", s);
        }
    }

    /// `min_free` matches the brute-force minimum over its window.
    #[test]
    fn min_free_matches_per_second_array(
        case in arb_profile(),
        windows in prop::collection::vec((0u64..700, 0u64..300), 1..16),
    ) {
        let (origin, total, reservations) = case;
        let (profile, brute) = build(origin, total, &reservations);
        for (start, dur) in windows {
            prop_assert_eq!(
                profile.min_free(t(start), d(dur)),
                brute.min_free(start, dur),
                "min_free({}, {})",
                start,
                dur
            );
        }
    }

    /// `earliest_start` returns exactly the first feasible second, for
    /// `from` before, inside and past the profile, `dur = 0` and
    /// `num > total` (→ `None`) included.
    #[test]
    fn earliest_start_is_the_first_feasible_second(
        case in arb_profile(),
        queries in prop::collection::vec((0u64..700, 1u32..=14, 0u64..300), 1..16),
    ) {
        let (origin, total, reservations) = case;
        let (profile, brute) = build(origin, total, &reservations);
        for (from, num, dur) in queries {
            prop_assert_eq!(
                profile.earliest_start(t(from), num, d(dur)),
                brute.earliest_start(from, num, dur).map(t),
                "earliest_start({}, {}, {}) on total {}",
                from,
                num,
                dur,
                total
            );
        }
    }

    /// Conservative's booking: `reserve_fitted` at the window
    /// `earliest_start` returned leaves the profile equal to the
    /// per-second array booking the same first feasible second.
    #[test]
    fn reserve_fitted_books_the_earliest_window(
        case in arb_profile(),
        requests in prop::collection::vec((0u64..700, 1u32..=14, 0u64..300), 1..16),
    ) {
        let (origin, total, reservations) = case;
        let (mut profile, mut brute) = build(origin, total, &reservations);
        for (from, num, dur) in requests {
            let Some(at) = profile.earliest_start(t(from), num, d(dur)) else {
                continue;
            };
            if at.as_secs() + dur > HORIZON {
                continue; // past the per-second array
            }
            profile.reserve_fitted(at, d(dur), num);
            prop_assert!(brute.try_reserve(at.as_secs(), dur, num));
        }
        for s in 0..HORIZON {
            prop_assert_eq!(profile.free_at(t(s)), brute.at(s), "free_at({})", s);
        }
    }
}

#[test]
fn edge_cases_match_the_brute_force() {
    // A full-machine hole at [100, 200) behind a profile that starts at 50.
    let mut profile = ResourceProfile::idle(t(50), 4);
    let mut brute = PerSecond::idle(50, 4);
    assert!(profile.try_reserve(t(100), d(100), 4).is_ok());
    assert!(brute.try_reserve(100, 100, 4));
    let cases = [
        (0, 1, 0),    // from before the origin, zero duration
        (0, 1, 50),   // fits exactly up to the hole
        (0, 1, 51),   // one second too long: after the hole
        (150, 1, 0),  // zero duration inside the hole
        (199, 4, 1),  // last second of the hole
        (200, 4, 1),  // first free second
        (900, 4, 10), // past every breakpoint
        (0, 5, 1),    // wider than the machine
    ];
    for (from, num, dur) in cases {
        assert_eq!(
            profile.earliest_start(t(from), num, d(dur)),
            brute.earliest_start(from, num, dur).map(t),
            "earliest_start({from}, {num}, {dur})"
        );
    }
    // A reserve overlapping the hole fails and leaves both unchanged.
    let before = profile.clone();
    assert!(profile.try_reserve(t(40), d(61), 1).is_err());
    assert!(!brute.try_reserve(40, 61, 1));
    assert_eq!(profile, before);
}
