//! The discrete-event queue.
//!
//! Events are processed in non-decreasing time order; events at the same
//! instant are processed in insertion order (FIFO), which makes
//! simulations fully deterministic.
//!
//! # Implementation
//!
//! [`EventQueue`] is a [`BinaryHeap`] ordered by `(at, seq)`, earliest
//! first, where `seq` is the queue's push counter: same-instant FIFO
//! holds by construction. Arrivals and Elastic Control Commands bypass
//! the queue, so it holds only completions and wakeups: about one per
//! running job, plus dedicated-start wakeups and completions an ECC or
//! a resize made stale (a benchmark pass peaks at 8–19 pending events).
//! Push and pop are O(log n) in that count.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Something the run itself scheduled. Arrivals and Elastic Control
/// Commands never enter the queue: the engine admits them straight from
/// its workload source.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum Event {
    /// A running job reached its kill-by time. `slot` is the job's record
    /// slot, never its reusable id, and the event is current only while
    /// that record still holds `key`. Keys come from one run-wide counter,
    /// so an ECC retime, a resize or the slot's reuse leaves it stale.
    Completion { slot: u32, key: u64 },
    /// A scheduler wakeup with no state change of its own (used to force a
    /// scheduling cycle at a dedicated job's requested start time).
    Wakeup,
}

/// One pending event and its place in the order.
#[derive(Debug)]
struct Entry {
    at: SimTime,
    /// The push that scheduled it: breaks same-instant ties FIFO.
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap and the earliest must win.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered, insertion-stable event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    pushes: u64,
    pops: u64,
    peak_len: usize,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.pushes;
        self.pushes += 1;
        self.heap.push(Entry { at, seq, event });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let e = self.heap.pop()?;
        self.pops += 1;
        Some((e.at, e.event))
    }

    /// Remove every event at the earliest pending instant, appending them
    /// to `out` in insertion order, and return that instant. This is the
    /// engine's cycle-coalescing primitive.
    pub fn drain_next_instant(&mut self, out: &mut Vec<Event>) -> Option<SimTime> {
        let at = self.peek_time()?;
        while self.heap.peek().is_some_and(|e| e.at == at) {
            let (_, event) = self.pop().expect("peeked");
            out.push(event);
        }
        Some(at)
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total pushes + pops over this queue's lifetime.
    pub fn ops(&self) -> u64 {
        self.pushes + self.pops
    }

    /// Largest number of simultaneously pending events observed.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn done(key: u64) -> Event {
        Event::Completion { slot: 0, key }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), Event::Wakeup);
        q.push(t(10), done(1));
        q.push(t(20), done(2));
        assert_eq!(q.pop().unwrap().0, t(10));
        assert_eq!(q.pop().unwrap().0, t(20));
        assert_eq!(q.pop().unwrap().0, t(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for key in 0..100u64 {
            q.push(t(5), done(key));
        }
        for want in 0..100u64 {
            match q.pop().unwrap().1 {
                Event::Completion { key, .. } => assert_eq!(key, want),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(42), Event::Wakeup);
        assert_eq!(q.peek_time(), Some(t(42)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(10), Event::Wakeup);
        q.push(t(5), Event::Wakeup);
        assert_eq!(q.pop().unwrap().0, t(5));
        q.push(t(7), Event::Wakeup);
        q.push(t(3), Event::Wakeup);
        assert_eq!(q.pop().unwrap().0, t(3));
        assert_eq!(q.pop().unwrap().0, t(7));
        assert_eq!(q.pop().unwrap().0, t(10));
    }

    #[test]
    fn push_into_the_past_still_pops_first() {
        let mut q = EventQueue::new();
        q.push(t(100), Event::Wakeup);
        assert_eq!(q.pop().unwrap().0, t(100));
        // A push earlier than the last pop still comes out first.
        q.push(t(4), done(1));
        q.push(t(50), Event::Wakeup);
        assert_eq!(q.pop().unwrap().0, t(4));
        assert_eq!(q.pop().unwrap().0, t(50));
    }

    #[test]
    fn max_time_sentinel_is_popped_last() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, Event::Wakeup);
        q.push(t(1), done(1));
        assert_eq!(q.pop().unwrap().0, t(1));
        assert_eq!(q.pop().unwrap().0, SimTime::MAX);
    }

    #[test]
    fn drain_next_instant_takes_whole_burst_in_order() {
        let mut q = EventQueue::new();
        q.push(t(9), Event::Wakeup);
        for id in 0..10u64 {
            q.push(t(5), done(id));
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_next_instant(&mut out), Some(t(5)));
        assert_eq!(out.len(), 10);
        for (i, ev) in out.iter().enumerate() {
            assert_eq!(*ev, done(i as u64));
        }
        out.clear();
        assert_eq!(q.drain_next_instant(&mut out), Some(t(9)));
        assert_eq!(out, vec![Event::Wakeup]);
        assert_eq!(q.drain_next_instant(&mut out), None);
    }

    #[test]
    fn op_counters_track_traffic() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(t(i), Event::Wakeup);
        }
        assert_eq!(q.peak_len(), 10);
        while q.pop().is_some() {}
        assert_eq!(q.ops(), 20);
        assert_eq!(q.peak_len(), 10);
    }
}
