//! Model-based test: [`EventQueue`] against an obviously correct
//! oracle, a `Vec` of `(at, seq, event)` whose earliest entry is found
//! by a linear scan.
//!
//! The contract is: pop in non-decreasing time order, FIFO within an
//! instant, and count every push and pop. So any random interleaving of
//! pushes, pops and instant-drains must give the same `(time, event)`
//! sequence, length, op count and peak length from both. The generator
//! mixes same-instant bursts (many events at one time) with far-future
//! outliers (times ~10^9 s) and pop/drain interleavings; a second case
//! fills the queue with thousands of events before interleaving and
//! draining it down.

use elastisched_sim::event::{Event, EventQueue};
use elastisched_sim::SimTime;
use proptest::prelude::*;

/// The oracle: pending events in push order, the earliest found by a
/// full scan of `(at, seq)`.
#[derive(Default)]
struct Oracle {
    pending: Vec<(SimTime, u64, Event)>,
    pushes: u64,
    pops: u64,
    peak_len: usize,
}

impl Oracle {
    fn push(&mut self, at: SimTime, event: Event) {
        self.pending.push((at, self.pushes, event));
        self.pushes += 1;
        self.peak_len = self.peak_len.max(self.pending.len());
    }

    fn earliest(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|i| self.pending[i].0)
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        let i = self.earliest()?;
        let (at, _, event) = self.pending.remove(i);
        self.pops += 1;
        Some((at, event))
    }

    fn drain_next_instant(&mut self, out: &mut Vec<Event>) -> Option<SimTime> {
        let (at, event) = self.pop()?;
        out.push(event);
        while self.peek_time() == Some(at) {
            out.push(self.pop().expect("peeked").1);
        }
        Some(at)
    }
}

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

/// Kinds 0–2 push (near-term, a far-future outlier, a same-instant
/// burst); 3–4 pop; 5 drains an instant.
fn op_of(kind: u8, t: u64, n: u8) -> Op {
    match kind {
        0 => Op::Push(t),
        1 => Op::Push(999_000_000 + t),
        2 => Op::Burst(t % 200, n),
        3 | 4 => Op::Pop,
        _ => Op::Drain,
    }
}

fn arb_push() -> impl Strategy<Value = Op> {
    (0u8..3, 0u64..1_000, 2u8..20).prop_map(|(kind, t, n)| op_of(kind, t, n))
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..6, 0u64..1_000, 2u8..20).prop_map(|(kind, t, n)| op_of(kind, t, n))
}

/// Apply `ops` to the queue and the oracle, then drain both down,
/// comparing every observable after each step.
fn check(ops: &[Op]) {
    let mut q = EventQueue::new();
    let mut oracle = Oracle::default();
    let mut next_key = 0u64;
    let mut push_both = |q: &mut EventQueue, oracle: &mut Oracle, secs: u64| {
        let at = SimTime::from_secs(secs);
        let ev = Event::Completion {
            slot: 0,
            key: next_key,
        };
        next_key += 1;
        q.push(at, ev.clone());
        oracle.push(at, ev);
    };
    for op in ops {
        match *op {
            Op::Push(secs) => push_both(&mut q, &mut oracle, secs),
            Op::Burst(secs, n) => {
                for _ in 0..n {
                    push_both(&mut q, &mut oracle, secs);
                }
            }
            Op::Pop => {
                prop_assert_eq!(q.peek_time(), oracle.peek_time());
                prop_assert_eq!(q.pop(), oracle.pop());
            }
            Op::Drain => {
                let mut got = Vec::new();
                let mut expect = Vec::new();
                let at = q.drain_next_instant(&mut got);
                prop_assert_eq!(at, oracle.drain_next_instant(&mut expect));
                prop_assert_eq!(&got, &expect);
            }
        }
        prop_assert_eq!(q.len(), oracle.pending.len());
    }
    while let Some(expect) = oracle.pop() {
        prop_assert_eq!(q.pop(), Some(expect));
    }
    prop_assert!(q.is_empty());
    prop_assert_eq!(q.pop(), None);
    prop_assert_eq!(q.ops(), oracle.pushes + oracle.pops);
    prop_assert_eq!(q.peak_len(), oracle.peak_len);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleaved push/pop/drain: the queue and the oracle emit
    /// identical (time, event) sequences and counters.
    #[test]
    fn queue_matches_linear_scan_oracle(ops in prop::collection::vec(arb_op(), 1..200)) {
        check(&ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Thousands of pending events: a fill of 500–1000 pushes and bursts
    /// (about 2000–4000 events), an interleaving, then the drain-down
    /// from that population.
    #[test]
    fn queue_matches_oracle_with_thousands_pending(
        fill in prop::collection::vec(arb_push(), 500..1000),
        ops in prop::collection::vec(arb_op(), 0..1000),
    ) {
        let all: Vec<Op> = fill.into_iter().chain(ops).collect();
        check(&all);
    }
}
