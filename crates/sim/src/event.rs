//! The discrete-event queue.
//!
//! Events are processed in non-decreasing time order; events at the same
//! instant are processed in insertion order (FIFO), which makes
//! simulations fully deterministic.
//!
//! # Implementation
//!
//! [`EventQueue`] is a **calendar queue** (Brown 1988): an array of
//! `2^k` buckets, each a short time-sorted run, where an event at time
//! `t` lives in bucket `(t / width) mod 2^k`. The queue tracks the
//! current *day* (`t / width` of the earliest pending event) and pops by
//! scanning forward from it; one bucket holds at most a handful of
//! events when the width matches the event density, so both `push` and
//! `pop` are O(1) amortized — versus the `O(log n)` sift of the previous
//! `BinaryHeap`. Buckets are **lazily resized**: when the population
//! outgrows (or undershoots) the bucket count, or a pop finds no event
//! within one calendar revolution (the width no longer fits), the
//! calendar is rebuilt with a bucket count of about twice the
//! population and a width equal to the mean gap between pending events.
//!
//! Same-instant FIFO order is preserved *by construction*: an event is
//! inserted after every event with an equal-or-earlier time in its
//! bucket, so no insertion sequence number (or comparison on one) is
//! needed. All events at one instant land in one bucket, contiguously,
//! which is what makes [`EventQueue::drain_next_instant`] — the engine's
//! cycle-coalescing primitive — a straight front-drain.
//!
//! The previous heap-based queue survives as [`reference::HeapEventQueue`]
//! behind the `reference-kernels` feature, as a differential-testing
//! oracle (see `tests/event_queue_differential.rs`).

use crate::time::SimTime;

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

#[derive(Debug, Clone)]
struct Entry {
    at: SimTime,
    event: Event,
}

/// A slab slot: one pending event plus the intra-bucket link.
#[derive(Debug, Clone)]
struct Slot {
    at: SimTime,
    event: Event,
    /// Next slot in the same bucket (time-sorted), or [`NIL`]. Doubles
    /// as the free-list link when the slot is vacant.
    next: u32,
}

/// Null slot index for the intrusive lists.
const NIL: u32 = u32::MAX;

/// An empty bucket: no head, no tail.
const EMPTY: (u32, u32) = (NIL, NIL);

/// Smallest calendar size; also the initial size.
const MIN_BUCKETS: usize = 16;

/// A time-ordered, insertion-stable event queue (calendar queue).
#[derive(Debug)]
pub struct EventQueue {
    /// `(head, tail)` slot indices per bucket ([`EMPTY`] when vacant);
    /// `buckets.len()` is always a power of two. Buckets are 8-byte
    /// index pairs into the shared `slots` slab rather than owning
    /// containers: the day scan walks a dense array, and a run costs two
    /// slab allocations instead of one per touched bucket.
    buckets: Vec<(u32, u32)>,
    /// The slab. Vacant slots are chained on `free_head`.
    slots: Vec<Slot>,
    /// Head of the vacant-slot free list, or [`NIL`].
    free_head: u32,
    /// log₂ of the bucket width in seconds. A power-of-two width turns
    /// the day computation `at / width` — on every push, pop, and day
    /// scanned — into a shift; the u64 division it replaces was the
    /// single hottest instruction in the queue.
    shift: u32,
    /// Current absolute day number: `at >> shift` of the earliest pending
    /// event is never below this.
    day: u64,
    len: usize,
    pushes: u64,
    pops: u64,
    peak_len: usize,
    /// Rebuild scratch, reused across rebuilds so draining the calendar
    /// into time order costs no allocation after the first rebuild.
    scratch: Vec<Entry>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            buckets: vec![EMPTY; MIN_BUCKETS],
            slots: Vec::new(),
            free_head: NIL,
            shift: 0,
            day: 0,
            len: 0,
            pushes: 0,
            pops: 0,
            peak_len: 0,
            scratch: Vec::new(),
        }
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn mask(&self) -> u64 {
        (self.buckets.len() - 1) as u64
    }

    #[inline]
    fn bucket_of(&self, at: SimTime) -> usize {
        ((at.0 >> self.shift) & self.mask()) as usize
    }

    /// Take a slot from the free list, or grow the slab.
    #[inline]
    fn alloc_slot(&mut self, at: SimTime, event: Event, next: u32) -> u32 {
        if self.free_head != NIL {
            let i = self.free_head;
            let slot = &mut self.slots[i as usize];
            self.free_head = slot.next;
            slot.at = at;
            slot.event = event;
            slot.next = next;
            i
        } else {
            let i = self.slots.len() as u32;
            self.slots.push(Slot { at, event, next });
            i
        }
    }

    /// Return a slot to the free list. The stale payload stays in place;
    /// [`Event`] owns no heap, so nothing leaks.
    #[inline]
    fn free_slot(&mut self, i: u32) {
        self.slots[i as usize].next = self.free_head;
        self.free_head = i;
    }

    /// Schedule `event` at time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        self.pushes += 1;
        let at_day = at.0 >> self.shift;
        if self.len == 0 || at_day < self.day {
            // Keep the invariant day ≤ earliest-pending-day so the pop
            // scan never walks past an event (pushes "into the past" are
            // legal for the API even though the engine never does them).
            self.day = at_day;
        }
        let idx = self.bucket_of(at);
        // Insert after every equal-or-earlier event: time order within
        // the bucket, FIFO within an instant. In-order pushes (the
        // common case) hit the tail, so this is an O(1) append.
        let (head, tail) = self.buckets[idx];
        if head == NIL {
            let s = self.alloc_slot(at, event, NIL);
            self.buckets[idx] = (s, s);
        } else if self.slots[tail as usize].at <= at {
            let s = self.alloc_slot(at, event, NIL);
            self.slots[tail as usize].next = s;
            self.buckets[idx].1 = s;
        } else if self.slots[head as usize].at > at {
            let s = self.alloc_slot(at, event, head);
            self.buckets[idx].0 = s;
        } else {
            // Interior insert: walk to the last equal-or-earlier slot.
            // Buckets hold ~2 events at the calendar's design density,
            // so the walk is short.
            let mut prev = head;
            loop {
                let nxt = self.slots[prev as usize].next;
                if nxt == NIL || self.slots[nxt as usize].at > at {
                    break;
                }
                prev = nxt;
            }
            let s = self.alloc_slot(at, event, self.slots[prev as usize].next);
            self.slots[prev as usize].next = s;
        }
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        if self.len > 2 * self.buckets.len() {
            self.rebuild();
        }
    }

    /// Advance `day` to the day of the earliest pending event and return
    /// that event's time. O(1) amortized: a full-calendar scan only
    /// happens when a whole "year" is empty, and the rebuild that
    /// follows makes the next year span every pending event.
    fn locate_next(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len();
        let mask = self.mask();
        let mut d = self.day;
        for _ in 0..nb {
            let (head, _) = self.buckets[(d & mask) as usize];
            if head != NIL {
                let at = self.slots[head as usize].at;
                if at.0 >> self.shift == d {
                    self.day = d;
                    return Some(at);
                }
            }
            d = d.saturating_add(1);
        }
        // Sparse year: no event within one calendar revolution, so the
        // width no longer fits the pending events — typically a small
        // queue that never crossed a resize threshold and still has its
        // initial one-second width. Retune: a rebuild spans every
        // pending event within one year and leaves the earliest at the
        // head of the cursor's bucket.
        self.rebuild();
        let (head, _) = self.buckets[(self.day & self.mask()) as usize];
        Some(self.slots[head as usize].at)
    }

    /// Unlink and free the head slot of bucket `idx`, returning its event.
    #[inline]
    fn pop_head(&mut self, idx: usize) -> Event {
        let (head, tail) = self.buckets[idx];
        debug_assert_ne!(head, NIL, "located bucket empty");
        let next = self.slots[head as usize].next;
        let event = std::mem::replace(&mut self.slots[head as usize].event, Event::Wakeup);
        self.buckets[idx] = if next == NIL { EMPTY } else { (next, tail) };
        self.free_slot(head);
        self.len -= 1;
        self.pops += 1;
        event
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let at = self.locate_next()?;
        let idx = self.bucket_of(at);
        debug_assert_eq!(self.slots[self.buckets[idx].0 as usize].at, at);
        let event = self.pop_head(idx);
        self.maybe_shrink();
        Some((at, event))
    }

    /// Remove every event at the earliest pending instant, appending them
    /// to `out` in insertion order, and return that instant. This is the
    /// engine's cycle-coalescing primitive: all same-instant events share
    /// a bucket and sit contiguously at its front, so the drain is a
    /// straight run of head pops with no re-peeking.
    pub fn drain_next_instant(&mut self, out: &mut Vec<Event>) -> Option<SimTime> {
        let at = self.locate_next()?;
        let idx = self.bucket_of(at);
        loop {
            let (head, _) = self.buckets[idx];
            if head == NIL || self.slots[head as usize].at != at {
                break;
            }
            out.push(self.pop_head(idx));
        }
        self.maybe_shrink();
        Some(at)
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.locate_next()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total pushes + pops over this queue's lifetime.
    pub fn ops(&self) -> u64 {
        self.pushes + self.pops
    }

    /// Largest number of simultaneously pending events observed.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    fn maybe_shrink(&mut self) {
        if self.buckets.len() > MIN_BUCKETS && self.len * 8 < self.buckets.len() {
            self.rebuild();
        }
    }

    /// Resize the calendar to match the current population: bucket count
    /// ≈ len (next power of two), width = mean gap between pending
    /// events. Far-future outliers widen the width, keeping one calendar
    /// revolution spanning all pending events.
    fn rebuild(&mut self) {
        let mut entries = std::mem::take(&mut self.scratch);
        entries.clear();
        entries.reserve(self.len);
        for bi in 0..self.buckets.len() {
            let (mut cur, _) = self.buckets[bi];
            while cur != NIL {
                let slot = &mut self.slots[cur as usize];
                entries.push(Entry {
                    at: slot.at,
                    event: std::mem::replace(&mut slot.event, Event::Wakeup),
                });
                cur = slot.next;
            }
            self.buckets[bi] = EMPTY;
        }
        // The whole slab is vacant now; drop the free list and refill
        // from the bottom so redistribution is a straight append.
        self.slots.clear();
        self.free_head = NIL;
        // Stable: equal instants always share a bucket in FIFO order, so
        // the sort preserves per-instant insertion order globally.
        entries.sort_by_key(|e| e.at);
        // Size for 2× the current population: overshooting halves the
        // number of grow rebuilds on a filling queue (each rebuild is a
        // full drain + sort), and the 8× shrink trigger gives a draining
        // queue the same hysteresis on the way down. Buckets are bare
        // index pairs, so a resize moves no per-bucket buffers.
        let nb = (self.len * 2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, 1 << 22);
        self.buckets.clear();
        self.buckets.resize(nb, EMPTY);
        if let (Some(first), Some(last)) = (entries.first(), entries.last()) {
            let span = last.at.0 - first.at.0;
            // Mean gap, rounded up to a power of two so the day math is a
            // shift. At most 2× the ideal width: ~2 events per bucket.
            let width = (span / self.len as u64).max(1).next_power_of_two();
            self.shift = width.trailing_zeros();
            self.day = first.at.0 >> self.shift;
        } else {
            self.shift = 0;
            self.day = 0;
        }
        for entry in entries.drain(..) {
            let idx = self.bucket_of(entry.at);
            // Entries arrive in global time order, so appending at each
            // bucket's tail keeps every bucket sorted.
            let s = self.slots.len() as u32;
            self.slots.push(Slot {
                at: entry.at,
                event: entry.event,
                next: NIL,
            });
            let (head, tail) = self.buckets[idx];
            if head == NIL {
                self.buckets[idx] = (s, s);
            } else {
                self.slots[tail as usize].next = s;
                self.buckets[idx].1 = s;
            }
        }
        self.scratch = entries;
    }
}

/// The pre-calendar heap-based queue, kept as a differential-testing
/// oracle for the calendar queue (enabled in unit tests and behind the
/// `reference-kernels` feature for integration tests and benches).
#[cfg(any(test, feature = "reference-kernels"))]
pub mod reference {
    use super::Event;
    use crate::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Debug)]
    struct Entry {
        at: SimTime,
        seq: u64,
        event: Event,
    }

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for Entry {}

    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want the earliest
            // first; `seq` restores same-instant insertion order.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// A time-ordered, insertion-stable event queue over a binary heap.
    #[derive(Debug, Default)]
    pub struct HeapEventQueue {
        heap: BinaryHeap<Entry>,
        next_seq: u64,
    }

    impl HeapEventQueue {
        /// An empty queue.
        pub fn new() -> Self {
            Self::default()
        }

        /// Schedule `event` at time `at`.
        pub fn push(&mut self, at: SimTime, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, event });
        }

        /// Remove and return the earliest event.
        pub fn pop(&mut self) -> Option<(SimTime, Event)> {
            self.heap.pop().map(|e| (e.at, e.event))
        }

        /// Remove every event at the earliest instant into `out`,
        /// returning that instant (mirrors
        /// [`super::EventQueue::drain_next_instant`]).
        pub fn drain_next_instant(&mut self, out: &mut Vec<Event>) -> Option<SimTime> {
            let at = self.peek_time()?;
            while self.heap.peek().is_some_and(|e| e.at == at) {
                out.push(self.heap.pop().expect("peeked").event);
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
        // The cursor sits at day 100; an earlier push must rewind it.
        q.push(t(4), done(1));
        q.push(t(50), Event::Wakeup);
        assert_eq!(q.pop().unwrap().0, t(4));
        assert_eq!(q.pop().unwrap().0, t(50));
    }

    #[test]
    fn growth_past_bucket_count_keeps_order() {
        let mut q = EventQueue::new();
        // 4 × MIN_BUCKETS events force at least one grow rebuild.
        let times: Vec<u64> = (0..64).map(|i| (i * 37) % 97).collect();
        for (i, &s) in times.iter().enumerate() {
            q.push(t(s), done(i as u64));
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        for &s in &sorted {
            assert_eq!(q.pop().unwrap().0, t(s));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_outlier_widens_calendar() {
        let mut q = EventQueue::new();
        for i in 0..40u64 {
            q.push(t(i), done(i));
        }
        // An outlier ~10^9 seconds out forces a wide calendar on the next
        // rebuild; everything must still drain in order.
        q.push(t(1_000_000_000), Event::Wakeup);
        for i in 40..80u64 {
            q.push(t(i), done(i));
        }
        let mut last = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at.as_secs() >= last);
            last = at.as_secs();
        }
        assert_eq!(last, 1_000_000_000);
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
    fn shrink_after_heavy_drain_keeps_order() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(t(i * 3), done(i));
        }
        // Drain most of the population to force shrink rebuilds.
        for i in 0..995u64 {
            assert_eq!(q.pop().unwrap().0, t(i * 3));
        }
        assert_eq!(q.len(), 5);
        for i in 995..1000u64 {
            assert_eq!(q.pop().unwrap().0, t(i * 3));
        }
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

    #[test]
    fn matches_reference_heap_on_mixed_traffic() {
        let mut cal = EventQueue::new();
        let mut heap = reference::HeapEventQueue::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pending = 0u64;
        for i in 0..4000u64 {
            if pending == 0 || step() % 3 != 0 {
                let at = t(step() % 500);
                cal.push(at, done(i));
                heap.push(at, done(i));
                pending += 1;
            } else {
                assert_eq!(cal.pop(), heap.pop());
                pending -= 1;
            }
        }
        while let Some(expect) = heap.pop() {
            assert_eq!(cal.pop(), Some(expect));
        }
        assert!(cal.is_empty());
    }
}
