//! Oracle for [`DpWork`]'s staging sweep: the staged path must behave
//! exactly like the slice API fed with the same candidates.
//!
//! Each case builds a few random [`BatchQueue`]s (one base queue and
//! variants with one job removed, so consecutive instances share item
//! prefixes) and runs one random sequence of Basic_DP and
//! Reservation_DP calls, drawn from a small set of call templates so
//! instances repeat and collide in the selection cache. Every call goes
//! through a [`DpWork`] (staged from the queue) and through a separate
//! [`DpSolver`] (the candidates built here, as slices). After every call
//! the staged candidates must be the ones a plain filter over the queue
//! gives, both selections must equal the scalar reference kernels', and
//! the two solvers' [`DpStats`] (cache hits and misses, incremental hits
//! and rebuilds) must be equal.
//!
//! Machines: unit 32 on 320 processors (packed layers) and unit 1 on
//! 340 (word rows, with jobs wider than 255 units).

use elastisched_sched::dp::{basic_dp_reference, reservation_dp_reference};
use elastisched_sched::{BatchQueue, DpItem, DpSolver, DpStats, DpWork, Freeze};
use elastisched_sim::{Duration, JobClass, JobId, JobView, SimTime};
use proptest::prelude::*;

/// One call: which queue, which kernel, and its parameters.
#[derive(Debug, Clone)]
struct Call {
    queue: usize,
    reservation: bool,
    skip: usize,
    lookahead: usize,
    free: u32,
    frec: u32,
    fret: u64,
}

const NOW: u64 = 100;

fn view(id: u64, num: u32, dur: u64) -> JobView {
    JobView {
        id: JobId(id),
        num,
        dur: Duration::from_secs(dur),
        submit: SimTime::ZERO,
        class: JobClass::Batch,
    }
}

/// The base queue's jobs as `(id, num, dur)`, and the variants: the base
/// itself plus the base with job `r % len` removed, for each `r`.
fn variants(base: &[(u32, u64)], removals: &[usize]) -> Vec<Vec<(u64, u32, u64)>> {
    let jobs: Vec<(u64, u32, u64)> = base
        .iter()
        .enumerate()
        .map(|(i, &(num, dur))| (i as u64 + 1, num, dur))
        .collect();
    let mut out = vec![jobs.clone()];
    for &r in removals {
        let mut v = jobs.clone();
        if !v.is_empty() {
            v.remove(r % v.len());
        }
        out.push(v);
    }
    out
}

/// A call template on a machine of at most 340 processors (the caller
/// scales capacities down to its own machine).
fn arb_call() -> impl Strategy<Value = Call> {
    (
        0usize..3,
        prop::bool::ANY,
        0usize..2,
        1usize..61,
        (0u32..=340, 0u32..=340),
        0u64..=500,
    )
        .prop_map(
            |(queue, reservation, skip, lookahead, (free, frec), fret)| Call {
                queue,
                reservation,
                skip,
                lookahead,
                free,
                frec,
                fret,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn staged_path_matches_slice_path(
        unit1 in prop::bool::ANY,
        base in prop::collection::vec((1u32..=340, 1u64..=400), 0..40),
        removals in prop::collection::vec(0usize..64, 2..3),
        templates in prop::collection::vec(arb_call(), 1..12),
        sequence in prop::collection::vec(0usize..64, 1..40),
    ) {
        // Unit 1 on 340 processors, or unit 32 on 320: fold sizes and
        // capacities into the machine.
        let (unit, total) = if unit1 { (1, 340) } else { (32, 320) };
        let fold = |p: u32| p % (total + 1);
        let base: Vec<(u32, u64)> = base.iter().map(|&(n, d)| (fold(n).max(1), d)).collect();
        let jobs = variants(&base, &removals);
        let queues: Vec<BatchQueue> = jobs
            .iter()
            .map(|v| {
                let mut q = BatchQueue::new();
                for &(id, num, dur) in v {
                    q.push_back(view(id, num, dur));
                }
                q
            })
            .collect();
        let mut work = DpWork::default();
        work.solver.timed = false;
        let mut slice = DpSolver::new();
        slice.timed = false;
        let now = SimTime::from_secs(NOW);
        for k in sequence {
            let mut c = templates[k % templates.len()].clone();
            (c.free, c.frec) = (fold(c.free), fold(c.frec));
            let freeze = Freeze { fret: SimTime::from_secs(c.fret), frec: c.frec };
            // The reference staging: jobs from `skip` that fit, at most
            // `lookahead` of them.
            let expect: Vec<(JobId, u32, DpItem)> = jobs[c.queue]
                .iter()
                .enumerate()
                .skip(c.skip)
                .filter(|(_, j)| j.1 <= c.free)
                .take(c.lookahead)
                .map(|(pos, &(id, num, dur))| {
                    let extends =
                        c.reservation && freeze.extends(now, Duration::from_secs(dur));
                    (JobId(id), pos as u32, DpItem { num, extends })
                })
                .collect();
            let items: Vec<DpItem> = expect.iter().map(|e| e.2).collect();
            let sizes: Vec<u32> = items.iter().map(|it| it.num).collect();
            let q = &queues[c.queue];
            let (staged_sel, cands) = if c.reservation {
                work.select(q, c.skip, c.lookahead, c.free, Some(freeze), now, unit)
            } else {
                work.select(q, c.skip, c.lookahead, c.free, None, now, unit)
            };
            let staged: Vec<(JobId, u32, DpItem)> =
                cands.iter().map(|c| (c.id, c.pos, c.item)).collect();
            prop_assert_eq!(&staged, &expect);
            let staged_sel = staged_sel.clone();
            let (slice_sel, reference) = if c.reservation {
                (
                    slice.reservation(&items, c.free, c.frec, unit).clone(),
                    reservation_dp_reference(&items, c.free, c.frec, unit),
                )
            } else {
                (
                    slice.basic(&sizes, c.free, unit).clone(),
                    basic_dp_reference(&sizes, c.free, unit),
                )
            };
            prop_assert_eq!(&staged_sel, &reference);
            prop_assert_eq!(&slice_sel, &reference);
            let (a, b): (DpStats, DpStats) = (work.solver.stats(), slice.stats());
            prop_assert_eq!(a, b);
        }
    }
}

#[test]
fn dp_work_restages_candidates_but_keeps_solver_state() {
    let mut queue = BatchQueue::new();
    for (id, num) in [(1u64, 256u32), (2, 64), (3, 256), (4, 400), (5, 64)] {
        queue.push_back(view(id, num, 10 * id));
    }
    let mut work = DpWork::default();
    // 256 + 64 + 256 + 64 processors is over 320, so the solve is a real
    // miss rather than a take-all answer (which counts as a hit); the
    // 400-processor job never fits and is not staged.
    let (sel, cands) = work.select(&queue, 0, 50, 320, None, SimTime::ZERO, 32);
    let staged: Vec<_> = cands.iter().map(|c| (c.id.0, c.pos)).collect();
    assert_eq!(staged, [(1, 0), (2, 1), (3, 2), (5, 4)]);
    assert_eq!((sel.chosen.clone(), sel.used_now), (vec![0, 1], 320));
    // From position 1 with a lookahead of 2, against a freeze at t = 30
    // leaving no capacity: job 3 (runs 30 s) extends past it.
    let freeze = Freeze {
        fret: SimTime::from_secs(30),
        frec: 0,
    };
    let (sel, cands) = work.select(&queue, 1, 2, 320, Some(freeze), SimTime::ZERO, 32);
    let staged: Vec<_> = cands
        .iter()
        .map(|c| (c.id.0, c.pos, c.item.extends))
        .collect();
    assert_eq!(staged, [(2, 1, false), (3, 2, true)]);
    assert_eq!(sel.chosen, vec![0]);
    assert_eq!(work.solver.stats().cache_misses, 2);
}
