//! Property-based tests of the DP kernels and the resource profile.
//!
//! The differential block at the bottom pits the packed-bitset kernels
//! (and the caching [`DpSolver`] front-end) against the scalar reference
//! implementations, which this integration test sees through the
//! `reference-kernels` feature enabled by the crate's self
//! dev-dependency.

use elastisched_sched::dp::{basic_dp_reference, reservation_dp_reference};
use elastisched_sched::{basic_dp, reservation_dp, DpItem, DpSolver, ResourceProfile};
use elastisched_sim::{Duration, SimTime};
use proptest::prelude::*;

fn brute_force_best(items: &[DpItem], cap_now: u32, cap_freeze: u32) -> u32 {
    let n = items.len();
    let mut best = 0u32;
    for mask in 0u32..(1 << n) {
        let mut now = 0u32;
        let mut fr = 0u32;
        for (i, it) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                now += it.num;
                if it.extends {
                    fr += it.num;
                }
            }
        }
        if now <= cap_now && fr <= cap_freeze {
            best = best.max(now);
        }
    }
    best
}

fn arb_items() -> impl Strategy<Value = Vec<DpItem>> {
    prop::collection::vec((1u32..=10, prop::bool::ANY), 0..12).prop_map(|raw| {
        raw.into_iter()
            .map(|(units, extends)| DpItem {
                num: units * 32,
                extends,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Basic_DP finds the true optimum (vs 2^n brute force) and its
    /// reported selection is consistent and within capacity.
    #[test]
    fn basic_dp_is_optimal(items in arb_items(), cap_units in 0u32..=12) {
        let cap = cap_units * 32;
        let sizes: Vec<u32> = items.iter().map(|i| i.num).collect();
        let sel = basic_dp(&sizes, cap, 32);
        let expect = brute_force_best(&items, cap, u32::MAX);
        prop_assert_eq!(sel.used_now, expect);
        let total: u32 = sel.chosen.iter().map(|&i| sizes[i]).sum();
        prop_assert_eq!(total, sel.used_now);
        prop_assert!(total <= cap);
        // Indices strictly increasing and unique.
        for w in sel.chosen.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Reservation_DP finds the true optimum under both constraints.
    #[test]
    fn reservation_dp_is_optimal(
        items in arb_items(),
        cap_units in 0u32..=12,
        freeze_units in 0u32..=12,
    ) {
        let cap = cap_units * 32;
        let freeze = freeze_units * 32;
        let sel = reservation_dp(&items, cap, freeze, 32);
        let expect = brute_force_best(&items, cap, freeze);
        prop_assert_eq!(sel.used_now, expect);
        let now: u32 = sel.chosen.iter().map(|&i| items[i].num).sum();
        let fr: u32 = sel
            .chosen
            .iter()
            .filter(|&&i| items[i].extends)
            .map(|&i| items[i].num)
            .sum();
        prop_assert_eq!(now, sel.used_now);
        prop_assert!(now <= cap);
        prop_assert!(fr <= freeze);
    }

    /// Reservation_DP with infinite freeze degenerates to Basic_DP.
    #[test]
    fn reservation_dp_degenerates_to_basic(items in arb_items(), cap_units in 0u32..=12) {
        let cap = cap_units * 32;
        let sizes: Vec<u32> = items.iter().map(|i| i.num).collect();
        let basic = basic_dp(&sizes, cap, 32);
        let res = reservation_dp(&items, cap, 320 * 100, 32);
        prop_assert_eq!(basic.used_now, res.used_now);
    }

    /// Unit-1 machines (SDSC-like) give the same optima as unit-32 when
    /// sizes are unit multiples.
    #[test]
    fn unit_invariance(items in arb_items(), cap_units in 0u32..=12) {
        let cap = cap_units * 32;
        let sizes: Vec<u32> = items.iter().map(|i| i.num).collect();
        let a = basic_dp(&sizes, cap, 32);
        let b = basic_dp(&sizes, cap, 1);
        prop_assert_eq!(a.used_now, b.used_now);
    }
}

/// Items with *arbitrary* processor counts — deliberately not multiples
/// of the allocation unit, so unit rounding is exercised too — including
/// zero-processor items, which no kernel ever chooses.
fn arb_ragged_items() -> impl Strategy<Value = Vec<DpItem>> {
    prop::collection::vec((0u32..=330, prop::bool::ANY), 0..14).prop_map(|raw| {
        raw.into_iter()
            .map(|(num, extends)| DpItem { num, extends })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The bitset Basic_DP agrees with the scalar reference byte for
    /// byte — same `used_now` *and* the same `chosen` vector (the
    /// tie-breaking contract), on ragged (non-unit-multiple) sizes.
    #[test]
    fn bitset_basic_matches_reference(
        items in arb_ragged_items(),
        cap in 0u32..=340,
        unit in (0usize..3).prop_map(|i| [1u32, 8, 32][i]),
    ) {
        let sizes: Vec<u32> = items.iter().map(|i| i.num).collect();
        let fast = basic_dp(&sizes, cap, unit);
        let slow = basic_dp_reference(&sizes, cap, unit);
        prop_assert_eq!(fast, slow);
    }

    /// The bitset Reservation_DP agrees with the scalar reference on
    /// `used_now`, on the freeze capacity actually consumed, and on the
    /// full `chosen` vector.
    #[test]
    fn bitset_reservation_matches_reference(
        items in arb_ragged_items(),
        cap in 0u32..=340,
        freeze in 0u32..=340,
        unit in (0usize..3).prop_map(|i| [1u32, 8, 32][i]),
    ) {
        let fast = reservation_dp(&items, cap, freeze, unit);
        let slow = reservation_dp_reference(&items, cap, freeze, unit);
        let freeze_used = |sel: &elastisched_sched::Selection| -> u32 {
            sel.chosen
                .iter()
                .filter(|&&i| items[i].extends)
                .map(|&i| items[i].num)
                .sum()
        };
        prop_assert_eq!(fast.used_now, slow.used_now);
        prop_assert_eq!(freeze_used(&fast), freeze_used(&slow));
        prop_assert_eq!(fast, slow);
    }

    /// A long-lived `DpSolver` — scratch arena reused, cache active,
    /// including the cache-*hit* path (every instance solved twice) —
    /// returns exactly what the references return.
    #[test]
    fn solver_with_cache_matches_reference(
        instances in prop::collection::vec(
            (arb_ragged_items(), 0u32..=340, 0u32..=340),
            1..8,
        ),
    ) {
        let mut solver = DpSolver::new();
        for (items, cap, freeze) in &instances {
            let sizes: Vec<u32> = items.iter().map(|i| i.num).collect();
            let first = solver.basic(&sizes, *cap, 32).clone();
            prop_assert_eq!(&first, &basic_dp_reference(&sizes, *cap, 32));
            // An immediate re-solve must be a cache hit (nothing has
            // intervened to evict the slot) and must return the same
            // answer the reference does.
            let hits = solver.stats().cache_hits;
            let again = solver.basic(&sizes, *cap, 32).clone();
            prop_assert_eq!(solver.stats().cache_hits, hits + 1);
            prop_assert_eq!(again, first);

            let first = solver.reservation(items, *cap, *freeze, 32).clone();
            prop_assert_eq!(
                &first,
                &reservation_dp_reference(items, *cap, *freeze, 32)
            );
            let hits = solver.stats().cache_hits;
            let again = solver.reservation(items, *cap, *freeze, 32).clone();
            prop_assert_eq!(solver.stats().cache_hits, hits + 1);
            prop_assert_eq!(again, first);
        }
    }

    /// The cross-cycle incremental path is invisible: a solver that
    /// replays/extends its retained reachability table across a random
    /// walk of single-job queue edits (arrival append, completion
    /// removal, head dispatch, in-place resize — the deltas real
    /// scheduler cycles produce) returns exactly what a
    /// from-scratch-on-every-miss solver and the scalar references
    /// return, for both kernels at every step. The capacities drift
    /// along the walk: a growth relays out the retained table (across
    /// the packed one-word layer and the word-row layout, on unit-1 and
    /// unit-8 machines), a shrink queries below its stored capacities.
    #[test]
    fn incremental_replay_matches_from_scratch_across_queue_deltas(
        initial in arb_ragged_items(),
        edits in prop::collection::vec(
            (
                (0usize..4, 1u32..=330, prop::bool::ANY, 0usize..32),
                (prop::bool::ANY, 0u32..=340),
                (prop::bool::ANY, 0u32..=340),
            ),
            1..20,
        ),
        cap in 0u32..=340,
        freeze in 0u32..=340,
        unit in (0usize..3).prop_map(|i| [1u32, 8, 32][i]),
    ) {
        let mut inc = DpSolver::new(); // incremental_enabled by default
        let mut plain = DpSolver::new();
        plain.incremental_enabled = false;
        let mut items = initial;
        let (mut cap, mut freeze) = (cap, freeze);
        for ((op, num, extends, pos), (move_cap, new_cap), (move_freeze, new_freeze)) in edits {
            match op {
                0 => items.push(DpItem { num, extends }),
                1 if !items.is_empty() => {
                    items.remove(pos % items.len());
                }
                2 if !items.is_empty() => {
                    items.remove(0);
                }
                3 if !items.is_empty() => {
                    let p = pos % items.len();
                    items[p] = DpItem { num, extends };
                }
                _ => {}
            }
            if move_cap {
                cap = new_cap;
            }
            if move_freeze {
                freeze = new_freeze;
            }
            let sizes: Vec<u32> = items.iter().map(|i| i.num).collect();
            let a = inc.basic(&sizes, cap, unit).clone();
            prop_assert_eq!(&a, &basic_dp_reference(&sizes, cap, unit));
            prop_assert_eq!(&a, plain.basic(&sizes, cap, unit));
            let a = inc.reservation(&items, cap, freeze, unit).clone();
            prop_assert_eq!(&a, &reservation_dp_reference(&items, cap, freeze, unit));
            prop_assert_eq!(&a, plain.reservation(&items, cap, freeze, unit));
        }
        // Counter sanity on the walk: every miss either replayed the
        // retained table or rebuilt it (take-all answers and trivially
        // empty instances never reach a kernel, hence ≤).
        let s = inc.stats();
        prop_assert!(s.incremental_hits + s.incremental_rebuilds <= s.cache_misses);
        let p = plain.stats();
        prop_assert_eq!(p.incremental_hits + p.incremental_rebuilds, 0);
    }
}

fn arb_reservations() -> impl Strategy<Value = Vec<(u64, u64, u32)>> {
    prop::collection::vec((0u64..500, 1u64..300, 1u32..=10), 0..12)
        .prop_map(|v| v.into_iter().map(|(s, d, u)| (s, d, u * 32)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The resource profile never reports negative capacity, reservations
    /// placed at `earliest_start` always succeed, and `free_at` is
    /// consistent with `min_free`.
    #[test]
    fn profile_reservation_soundness(reservations in arb_reservations()) {
        let mut profile = ResourceProfile::idle(SimTime::ZERO, 320);
        for (start, dur, num) in reservations {
            let dur = Duration::from_secs(dur);
            let at = profile
                .earliest_start(SimTime::from_secs(start), num, dur)
                .expect("num <= total always placeable");
            prop_assert!(at >= SimTime::from_secs(start));
            prop_assert!(profile.min_free(at, dur) >= num);
            profile.try_reserve(at, dur, num).expect("placement fits");
        }
        // Post-conditions: capacity bounded everywhere we can observe.
        for t in (0..1_000).step_by(37) {
            let f = profile.free_at(SimTime::from_secs(t));
            prop_assert!(f <= 320);
            prop_assert_eq!(
                profile.min_free(SimTime::from_secs(t), Duration::ZERO),
                f
            );
        }
    }

    /// earliest_start returns the *earliest* feasible instant: no second
    /// in `[from, at)` fits, for `from` anywhere in or past the profile.
    /// (`profile_oracle` checks `min_free` itself against a brute force.)
    #[test]
    fn earliest_start_is_tight(
        reservations in arb_reservations(),
        num_units in 1u32..=10,
        dur in 1u64..200,
        from in 0u64..900,
    ) {
        let mut profile = ResourceProfile::idle(SimTime::ZERO, 320);
        for (start, d, num) in reservations {
            // Best-effort packing; skip infeasible draws.
            let _ = profile.try_reserve(
                SimTime::from_secs(start),
                Duration::from_secs(d),
                num,
            );
        }
        let num = num_units * 32;
        let dur = Duration::from_secs(dur);
        let at = profile
            .earliest_start(SimTime::from_secs(from), num, dur)
            .expect("placeable");
        prop_assert!(at >= SimTime::from_secs(from));
        prop_assert!(profile.min_free(at, dur) >= num);
        for s in from..at.as_secs() {
            prop_assert!(
                profile.min_free(SimTime::from_secs(s), dur) < num,
                "start {} not tight: {} also fits",
                at.as_secs(),
                s
            );
        }
    }
}
