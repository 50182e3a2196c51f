//! Differential test: the calendar [`EventQueue`] against the
//! pre-overhaul `BinaryHeap` oracle ([`reference::HeapEventQueue`]),
//! which this integration test sees through the `reference-kernels`
//! feature enabled by the crate's self dev-dependency.
//!
//! Both queues promise the same contract — pop in non-decreasing time
//! order, FIFO within an instant — so any random interleaving of pushes,
//! pops, and instant-drains must produce identical `(time, event)`
//! sequences. The operation generator deliberately mixes same-instant
//! bursts (many events at one time) with far-future outliers (times up
//! to ~10^9 s) so the calendar is forced through grow/shrink rebuilds
//! and sparse-year scans.

use elastisched_sim::event::{reference::HeapEventQueue, Event, EventQueue};
use elastisched_sim::SimTime;
use proptest::prelude::*;

/// One step of the interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    /// Push a single event at the given time (seconds).
    Push(u64),
    /// Push a burst of events all at the given time.
    Burst(u64, u8),
    /// Pop one event from both queues and compare.
    Pop,
    /// Drain the whole earliest instant from both queues and compare.
    Drain,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..6, 0u64..1_000, 2u8..20).prop_map(|(kind, t, n)| match kind {
        0 => Op::Push(t),
        // A far-future outlier that blows up the calendar span on the
        // next rebuild.
        1 => Op::Push(999_000_000 + t),
        2 => Op::Burst(t % 200, n),
        3 | 4 => Op::Pop,
        _ => Op::Drain,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleaved push/pop/drain: the calendar queue and the
    /// reference heap emit identical (time, event) sequences.
    #[test]
    fn calendar_matches_reference_heap(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut next_id = 0u64;
        let mut push_both = |cal: &mut EventQueue, heap: &mut HeapEventQueue, secs: u64| {
            let at = SimTime::from_secs(secs);
            let ev = Event::Completion { slot: 0, key: next_id };
            next_id += 1;
            cal.push(at, ev.clone());
            heap.push(at, ev);
        };
        for op in &ops {
            match *op {
                Op::Push(secs) => push_both(&mut cal, &mut heap, secs),
                Op::Burst(secs, n) => {
                    for _ in 0..n {
                        push_both(&mut cal, &mut heap, secs);
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
                Op::Drain => {
                    let mut got = Vec::new();
                    let mut expect = Vec::new();
                    let at = cal.drain_next_instant(&mut got);
                    prop_assert_eq!(at, heap.drain_next_instant(&mut expect));
                    prop_assert_eq!(&got, &expect);
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        // Full drain-down: every remaining event agrees.
        while let Some(expect) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(expect));
        }
        prop_assert!(cal.is_empty());
    }
}
