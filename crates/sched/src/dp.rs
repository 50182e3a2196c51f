//! The dynamic-programming kernels of the LOS scheduler family.
//!
//! The paper (§III-A) names the two programs inherited from Shmueli &
//! Feitelson's Lookahead Optimizing Scheduler:
//!
//! * **Basic_DP** — given the waiting queue and `m` free processors,
//!   select the subset of jobs that maximizes the number of processors
//!   put to use *right now* (a subset-sum maximization).
//! * **Reservation_DP** — the same maximization under an additional
//!   *freeze* constraint: a reservation at the freeze end time `fret`
//!   leaves only `frec` processors ("freeze end capacity") for selected
//!   jobs that would still be running at `fret`. A job's freeze demand is
//!   `frenum = (t + dur < fret) ? 0 : num` (Algorithm 1, line 16).
//!
//! Both kernels work in allocation units (processors / machine unit), so
//! the tables stay tiny on BlueGene/P-style machines. Ties on utilization
//! are broken toward **earlier-queued jobs** (the paper leaves
//! tie-breaking unspecified; FIFO preference is the fairness-preserving
//! choice), and Reservation_DP additionally prefers solutions that
//! consume the least freeze capacity.
//!
//! # Kernel internals
//!
//! One builder and one extractor serve both programs: Basic_DP is the
//! Reservation_DP case with no freeze capacity (`c2max = 0`) and no
//! extending items (`f = 0`). Each item prefix's reachability layer is a
//! bitset — bit `c1` of row `c2` says "exactly `c1` units now, `c2` of
//! them past the freeze end time" — with rows of `S = c1max + 1` bits.
//! When the whole layer fits in 128 bits (the paper's BlueGene/P, 11 × 11
//! = 121) the rows are packed back to back in one `u128`, and an item of
//! `w` units and freeze demand `f` is one masked shift-OR:
//! `cur = prev | ((prev & M_w) << (f·S + w)) & FULL`, where `M_w` keeps
//! each row's low `S − w` bits; a layer of at most 64 bits (Basic_DP's
//! 11-bit row there) runs that loop in a `u64` register. Wider layers
//! (unit-1 machines) keep one run of `u64` words per row and shift-OR
//! row `c2 − f` into row `c2`. Tables live in a [`DpScratch`] arena that callers (the
//! schedulers) keep across cycles, so a steady-state scheduling cycle
//! performs no heap allocation in the DP path. [`DpSolver`] adds a small
//! direct-mapped [`SelectionCache`] keyed by the full problem instance
//! `(kernel, unit, capacities, sizes, extends)`: queue churn between
//! events is low, so consecutive cycles frequently re-solve the exact
//! same instance and hit the cache. The pre-bitset scalar kernels are
//! retained as differential-testing oracles behind
//! `#[cfg(any(test, feature = "reference-kernels"))]`.
//!
//! Capacities are rounded **down** to whole units (a partial unit cannot
//! be allocated) while job sizes round **up** (a job needs its full
//! request even when it straddles a unit boundary); `used_now` therefore
//! reports *allocated* processors, i.e. chosen units × unit size.

use elastisched_sim::{JobId, DP_NANOS_SAMPLE_EVERY};
use std::ops::{BitAnd, BitOrAssign, Shl, Sub};
use std::time::Instant;

// The sampling factor must be a power of two: the due-for-a-clock-read
// check is a mask, not a modulo.
const _: () = assert!(DP_NANOS_SAMPLE_EVERY.is_power_of_two());

/// One candidate job for Reservation_DP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpItem {
    /// Processors requested (`num`).
    pub num: u32,
    /// Whether the job would still be running at the freeze end time
    /// (`frenum == num` in the paper's notation).
    pub extends: bool,
}

/// Result of a DP selection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Selection {
    /// Indices of the chosen items in the caller's candidate slice,
    /// in increasing order.
    pub chosen: Vec<usize>,
    /// Total processors the chosen jobs use now (in whole allocation
    /// units, i.e. chosen units × unit size).
    pub used_now: u32,
}

/// Units a job of `procs` processors occupies: partial units round up,
/// since the job needs its full request.
fn units_ceil(procs: u32, unit: u32) -> usize {
    debug_assert!(unit > 0);
    // Machine units are powers of two in practice (32 on BlueGene/P, 1
    // on SDSC): a shift there keeps a hardware divide off every item of
    // every solve.
    if unit.is_power_of_two() {
        let s = unit.trailing_zeros();
        ((procs >> s) + u32::from(procs & (unit - 1) != 0)) as usize
    } else {
        procs.div_ceil(unit) as usize
    }
}

/// Units available in a capacity of `procs` processors: partial units
/// round down, since a fraction of a unit cannot be allocated.
fn units_floor(procs: u32, unit: u32) -> usize {
    debug_assert!(unit > 0);
    (procs / unit) as usize
}

impl DpItem {
    /// `(w, f)`: units the item occupies now, and of those the units it
    /// still holds at the freeze end time.
    fn units(self, unit: u32) -> (usize, usize) {
        let w = units_ceil(self.num, unit);
        (w, if self.extends { w } else { 0 })
    }

    /// The item as packed into cache keys and the incremental table.
    fn packed(self) -> u64 {
        u64::from(self.num) << 1 | u64::from(self.extends)
    }
}

/// A kernel input. Basic_DP's bare processor counts are items that never
/// extend past the freeze end time, which makes Basic_DP the
/// `c2max = 0` case of the Reservation_DP kernel.
trait Candidate: Copy {
    fn item(self) -> DpItem;
}

impl Candidate for u32 {
    fn item(self) -> DpItem {
        DpItem {
            num: self,
            extends: false,
        }
    }
}

impl Candidate for DpItem {
    fn item(self) -> DpItem {
        self
    }
}

// ---------------------------------------------------------------------
// Bitset primitives. A "row" is a little-endian bitset over capacity
// units: bit `c` of word `c / 64` says "exactly c units are reachable".
// ---------------------------------------------------------------------

const WORD_BITS: usize = u64::BITS as usize;

fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Mask clearing the unused high bits of a row's last word.
fn last_word_mask(bits: usize) -> u64 {
    let rem = bits % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

fn bit_get(row: &[u64], bit: usize) -> bool {
    (row[bit / WORD_BITS] >> (bit % WORD_BITS)) & 1 != 0
}

/// Lane width of the widened bitset loops: four `u64`s processed per
/// chunk, matching a 256-bit vector register, with a scalar tail. Plain
/// array chunks — no nightly SIMD features — so the compiler vectorizes
/// where the target allows and unrolls elsewhere.
const LANES: usize = 4;

/// `cur |= prev << shift`, where `cur` and `prev` are equal-length rows.
/// A shift of `row width` or more is a no-op (nothing survives).
fn or_shifted(cur: &mut [u64], prev: &[u64], shift: usize) {
    let word_off = shift / WORD_BITS;
    let bit_off = shift % WORD_BITS;
    let len = cur.len();
    if bit_off == 0 {
        let n = len.saturating_sub(word_off);
        let mut j = 0;
        while j + LANES <= n {
            let p: [u64; LANES] = prev[j..j + LANES].try_into().expect("lane chunk");
            let c = &mut cur[word_off + j..word_off + j + LANES];
            for k in 0..LANES {
                c[k] |= p[k];
            }
            j += LANES;
        }
        while j < n {
            cur[word_off + j] |= prev[j];
            j += 1;
        }
    } else {
        // The first destination word has no lower neighbour to borrow
        // carry bits from; every later word reads two adjacent `prev`
        // words, so the lane chunks load overlapping windows.
        if word_off < len {
            cur[word_off] |= prev[0] << bit_off;
        }
        let carry = WORD_BITS - bit_off;
        let n = len.saturating_sub(word_off + 1);
        let mut j = 0;
        while j + LANES <= n {
            let lo: [u64; LANES] = prev[j + 1..j + 1 + LANES].try_into().expect("lane chunk");
            let hi: [u64; LANES] = prev[j..j + LANES].try_into().expect("lane chunk");
            let c = &mut cur[word_off + 1 + j..word_off + 1 + j + LANES];
            for k in 0..LANES {
                c[k] |= (lo[k] << bit_off) | (hi[k] >> carry);
            }
            j += LANES;
        }
        while j < n {
            cur[word_off + 1 + j] |= (prev[j + 1] << bit_off) | (prev[j] >> carry);
            j += 1;
        }
    }
}

/// Index of the highest set bit in `row`, if any. Scans lane chunks from
/// the top with an OR-reduced occupancy test per chunk.
fn highest_bit(row: &[u64]) -> Option<usize> {
    let mut j = row.len();
    while j >= LANES {
        let c: [u64; LANES] = row[j - LANES..j].try_into().expect("lane chunk");
        if c[0] | c[1] | c[2] | c[3] != 0 {
            for k in (0..LANES).rev() {
                if c[k] != 0 {
                    return Some(
                        (j - LANES + k) * WORD_BITS + (WORD_BITS - 1)
                            - c[k].leading_zeros() as usize,
                    );
                }
            }
        }
        j -= LANES;
    }
    while j > 0 {
        j -= 1;
        if row[j] != 0 {
            return Some(j * WORD_BITS + (WORD_BITS - 1) - row[j].leading_zeros() as usize);
        }
    }
    None
}

/// Index of the highest set bit at position ≤ `cap`, if any.
///
/// This is what lets a query read a reachability row stored at a
/// *larger* capacity than its own (the incremental table's contract):
/// bits above the query capacity are simply ignored.
fn highest_bit_at_most(row: &[u64], cap: usize) -> Option<usize> {
    let last = cap / WORD_BITS;
    if last >= row.len() {
        return highest_bit(row);
    }
    let masked = row[last] & (u64::MAX >> (WORD_BITS - 1 - cap % WORD_BITS));
    if masked != 0 {
        return Some(last * WORD_BITS + (WORD_BITS - 1) - masked.leading_zeros() as usize);
    }
    highest_bit(&row[..last])
}

/// Reusable backing storage for the DP reachability tables.
///
/// The buffer only ever grows (to the largest instance seen), so a
/// scheduler that owns one across cycles performs zero heap allocations
/// in steady state. No clearing between solves is needed: every solve
/// fully writes each layer it reads.
#[derive(Debug, Default)]
pub struct DpScratch {
    bits: Vec<u64>,
}

impl DpScratch {
    /// A view of at least `words` words, growing the buffer if needed.
    fn ensure(&mut self, words: usize) -> &mut [u64] {
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
        &mut self.bits[..words]
    }
}

/// How each item prefix's reachability layer — rows `c2 = 0..=c2max`,
/// each a bitset over `c1 = 0..=c1max` — sits in the table's words.
#[derive(Debug, Clone, Copy)]
struct Layout {
    c1max: usize,
    c2max: usize,
    /// `u64` words per layer.
    layer: usize,
    /// Bits from one row's start to the next's in the layer's words, so
    /// `(c1, c2)` is bit `c2·stride + c1` of the layer.
    stride: usize,
    rows: Rows,
}

#[derive(Debug, Clone, Copy)]
enum Rows {
    /// The whole layer in at most 128 bits (two words, low word first),
    /// rows packed back to back at `S = c1max + 1` bits. `base` has bit
    /// 0 of every row set; `full` keeps the layer's `S·(c2max + 1)` bits.
    Packed { base: u128, full: u128 },
    /// Each row is `words` words; `mask` clears the unused high bits of a
    /// row's last word.
    Words { words: usize, mask: u64 },
}

/// The register a packed layer's item loop runs in: `u64` when the layer
/// fits one word (Basic_DP's single row, short freeze windows), since a
/// `u128` shift by a variable amount takes several instructions, else
/// `u128`. Both store the layer as its two words, low word first, and
/// store no bit past the layer's width (`full` masks the shifted rows,
/// the `u64` register writes a zero high word), so a stored layer is
/// exactly its reachability set. Reads never look past the width either.
trait LayerReg:
    Copy + BitOrAssign + BitAnd<Output = Self> + Shl<usize, Output = Self> + Sub<Output = Self>
{
    fn load(bits: &[u64], i: usize) -> Self;
    fn store(self, bits: &mut [u64], i: usize);
}

impl LayerReg for u64 {
    fn load(bits: &[u64], i: usize) -> u64 {
        bits[2 * i]
    }
    fn store(self, bits: &mut [u64], i: usize) {
        bits[2 * i] = self;
        bits[2 * i + 1] = 0;
    }
}

impl LayerReg for u128 {
    fn load(bits: &[u64], i: usize) -> u128 {
        u128::from(bits[2 * i]) | u128::from(bits[2 * i + 1]) << 64
    }
    fn store(self, bits: &mut [u64], i: usize) {
        bits[2 * i] = self as u64;
        bits[2 * i + 1] = (self >> 64) as u64;
    }
}

impl Layout {
    fn new(c1max: usize, c2max: usize) -> Layout {
        let s = c1max + 1;
        let bits = s.saturating_mul(c2max + 1);
        let (layer, stride, rows) = if bits <= 128 {
            let base = (0..=c2max).fold(0u128, |b, c2| b | 1 << (c2 * s));
            let full = u128::MAX >> (128 - bits);
            (2, s, Rows::Packed { base, full })
        } else {
            let (words, mask) = (words_for(s), last_word_mask(s));
            let rows = Rows::Words { words, mask };
            ((c2max + 1) * words, words * WORD_BITS, rows)
        };
        Layout {
            c1max,
            c2max,
            layer,
            stride,
            rows,
        }
    }

    /// Layer 0: only `(c1, c2) = (0, 0)` is reachable.
    fn init(&self, bits: &mut [u64]) {
        bits[0] = 1;
        bits[1..self.layer].fill(0);
    }

    /// Highest reachable `c1 ≤ c1q` in row `c2` of layer `i`, if any.
    fn highest(&self, bits: &[u64], i: usize, c2: usize, c1q: usize) -> Option<usize> {
        match self.rows {
            Rows::Packed { .. } => {
                let row = u128::load(bits, i) >> (c2 * self.stride) & u128::MAX >> (127 - c1q);
                (row != 0).then(|| 127 - row.leading_zeros() as usize)
            }
            Rows::Words { words, .. } => {
                highest_bit_at_most(&bits[i * self.layer + c2 * words..][..words], c1q)
            }
        }
    }

    /// Build layers `from + 1 ..= items.len()` in place (layers
    /// `0 ..= from` must already hold the table for that item prefix at
    /// this layout). Shared by the from-scratch solve (`from = 0`) and
    /// the incremental replay.
    fn build<T: Candidate>(&self, bits: &mut [u64], items: &[T], unit: u32, from: usize) {
        match self.rows {
            Rows::Packed { base, full } if full >> 64 == 0 => {
                self.build_packed(bits, base as u64, full as u64, items, unit, from)
            }
            Rows::Packed { base, full } => self.build_packed(bits, base, full, items, unit, from),
            Rows::Words { words, mask } => {
                let layer = self.layer;
                for (i, it) in items.iter().enumerate().skip(from) {
                    let (w, f) = it.item().units(unit);
                    let (head, tail) = bits.split_at_mut((i + 1) * layer);
                    let prev = &head[i * layer..];
                    let cur = &mut tail[..layer];
                    cur.copy_from_slice(prev);
                    if w > 0 && w <= self.c1max && f <= self.c2max {
                        for c2 in f..=self.c2max {
                            let row = &mut cur[c2 * words..][..words];
                            or_shifted(row, &prev[(c2 - f) * words..][..words], w);
                            row[words - 1] &= mask;
                        }
                    }
                }
            }
        }
    }

    /// [`Layout::build`] on a packed layer, in an `R` register.
    fn build_packed<R: LayerReg, T: Candidate>(
        &self,
        bits: &mut [u64],
        base: R,
        full: R,
        items: &[T],
        unit: u32,
        from: usize,
    ) {
        let s = self.c1max + 1;
        let mut cur = R::load(bits, from);
        for (i, it) in items.iter().enumerate().skip(from) {
            let (w, f) = it.item().units(unit);
            if w > 0 && w <= self.c1max && f <= self.c2max {
                // `M_w` keeps each row's low `S − w` bits, so the `w`
                // shift stays inside its row; the `f·S` part moves row
                // `c2 − f` onto row `c2`, and `full` drops rows pushed
                // past `c2max`. Shifting the mask rather than `cur & M_w`
                // gives the same bits with one operation fewer on the
                // `cur` chain.
                let shift = f * s + w;
                let keep = ((base << (s - w)) - base) << shift & full;
                cur |= cur << shift & keep;
            }
            cur.store(bits, i + 1);
        }
    }

    /// Extract the answer from a finished table, querying at `(c1q, c2q)`
    /// — which may be smaller than the capacities the table was built at
    /// (the incremental case). Any subset reaching `c1 ≤ c1q` units now
    /// and `c2 ≤ c2q` at the freeze end consists only of items that fit
    /// both, so the bits at positions within the query coincide with a
    /// table built at exactly the query — and the reconstruction below
    /// only ever visits such positions, keeping the selections
    /// byte-identical.
    fn extract<T: Candidate>(
        &self,
        bits: &[u64],
        c1q: usize,
        c2q: usize,
        items: &[T],
        unit: u32,
        out: &mut Selection,
    ) {
        let n = items.len();
        // Maximize c1; among those minimize c2 (ascending scan + strict
        // improvement keeps the lowest freeze usage achieving the maximum).
        let (mut best_c1, mut best_c2) = (0usize, 0usize);
        for c2 in 0..=c2q {
            if let Some(c1) = self.highest(bits, n, c2, c1q) {
                if c1 > best_c1 {
                    best_c1 = c1;
                    best_c2 = c2;
                }
            }
        }
        out.used_now = (best_c1 * unit as usize) as u32;
        // Reconstruct, excluding later items when possible so that ties
        // favour earlier-queued jobs. `at` is `(c1, c2)` as a layer bit.
        let mut at = best_c2 * self.stride + best_c1;
        for i in (0..n).rev() {
            if bit_get(&bits[i * self.layer..], at) {
                continue; // exclude item i
            }
            let (w, f) = items[i].item().units(unit);
            debug_assert!(w > 0 && at >= f * self.stride + w);
            out.chosen.push(i);
            at -= f * self.stride + w;
        }
        out.chosen.reverse();
    }
}

/// Reservation_DP (Basic_DP when `cap_freeze` is 0 and no item extends)
/// from scratch, writing the answer into `out`.
fn solve<T: Candidate>(
    scratch: &mut DpScratch,
    items: &[T],
    cap_now: u32,
    cap_freeze: u32,
    unit: u32,
    out: &mut Selection,
) {
    out.chosen.clear();
    out.used_now = 0;
    let c1max = units_floor(cap_now, unit);
    let c2max = units_floor(cap_freeze, unit);
    if items.is_empty() || c1max == 0 {
        return;
    }
    let lay = Layout::new(c1max, c2max);
    let bits = scratch.ensure((items.len() + 1) * lay.layer);
    lay.init(bits);
    lay.build(bits, items, unit, 0);
    lay.extract(bits, c1max, c2max, items, unit, out);
}

// ---------------------------------------------------------------------
// The memoizing solver.
// ---------------------------------------------------------------------

/// Cumulative counters for one [`DpSolver`]'s lifetime.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DpStats {
    /// Solves answered from the [`SelectionCache`].
    pub cache_hits: u64,
    /// Solves that ran a kernel (and repopulated a cache slot).
    pub cache_misses: u64,
    /// Wall-clock nanoseconds spent running DP kernels — cache misses
    /// only, and only when [`DpSolver::timed`] is set. Hits are not
    /// clocked: reading the clock twice costs more than the hit itself.
    /// On the cached path the figure is *sampled*: every
    /// [`DP_NANOS_SAMPLE_EVERY`]-th miss is clocked and scaled back up
    /// by the same factor, so the two clock reads stay off the per-solve
    /// hot path (with ~hundreds of misses per run the estimate is well
    /// within the run-to-run jitter of the real figure). The
    /// cache-disabled path still clocks every solve exactly.
    pub nanos: u64,
    /// Cache misses answered by *extending or replaying* the retained
    /// cross-cycle reachability table from the first changed item (at
    /// least one stored row reused). `incremental_hits +
    /// incremental_rebuilds ≤ cache_misses`: trivially empty instances
    /// bypass the table entirely.
    pub incremental_hits: u64,
    /// Cache misses where the retained table had to be rebuilt from row
    /// zero: first solve, a capacity or unit change re-widening the
    /// rows, or a change in the very first queued item.
    pub incremental_rebuilds: u64,
}

impl From<DpStats> for elastisched_sim::SchedStats {
    fn from(s: DpStats) -> Self {
        elastisched_sim::SchedStats {
            dp_cache_hits: s.cache_hits,
            dp_cache_misses: s.cache_misses,
            dp_nanos: s.nanos,
            dp_incremental_hits: s.incremental_hits,
            dp_incremental_rebuilds: s.incremental_rebuilds,
            // Decision counters live in the schedulers' `Telemetry`,
            // not the DP solver; `stats()` impls fill them on top.
            ..elastisched_sim::SchedStats::default()
        }
    }
}

/// The previous solve's full reachability table for one kernel, retained
/// across cycles so the next solve can **extend or replay** it from the
/// first changed item instead of re-solving from scratch. Between engine
/// events the batch queue typically changes by a single job (one arrival
/// appends, one finish removes), so consecutive instances share a long
/// item prefix and the replay starts deep into the table.
///
/// The table is stored at **monotone capacities**: the layout's
/// `c1max`/`c2max` only ever grow to the largest capacities seen, and
/// each query extracts its answer at its own (possibly smaller)
/// capacities — see [`Layout::extract`] for why the shared bits coincide
/// with a table built at exactly the query capacities. A capacity
/// *growth* relays out every layer, so it rebuilds from layer zero.
#[derive(Debug)]
struct IncrementalTable {
    unit: u32,
    /// The stored layout; `None` until the first commit.
    layout: Option<Layout>,
    /// The stored table's items, packed `num << 1 | extends` — the same
    /// packing the cache key uses, so the changed-prefix comparison
    /// reads the key buffer directly.
    items: Vec<u64>,
    /// `items.len() + 1` reachability layers at the stored layout.
    scratch: DpScratch,
}

impl Default for IncrementalTable {
    fn default() -> Self {
        IncrementalTable {
            unit: 0,
            layout: None,
            // Pre-size for the paper-scale queue so the first commits
            // don't walk a doubling chain (16 → 512 bytes was ~5
            // allocations per table on the headline run).
            items: Vec::with_capacity(64),
            scratch: DpScratch {
                bits: Vec::with_capacity(512),
            },
        }
    }
}

impl IncrementalTable {
    /// Length of the longest common prefix of the stored items and
    /// `packed` — the number of reusable table layers beyond layer zero.
    fn common_prefix(&self, packed: &[u64]) -> usize {
        let max = self.items.len().min(packed.len());
        let mut l = 0;
        while l < max && self.items[l] == packed[l] {
            l += 1;
        }
        l
    }
}

/// Reservation_DP (or Basic_DP, see [`solve`]) against the retained
/// cross-cycle table: replay from the first changed item, then extract
/// at the query capacities. Selections are byte-identical to [`solve`].
#[allow(clippy::too_many_arguments)]
fn solve_incremental<T: Candidate>(
    table: &mut IncrementalTable,
    packed: &[u64],
    items: &[T],
    cap_now: u32,
    cap_freeze: u32,
    unit: u32,
    stats: &mut DpStats,
    out: &mut Selection,
) {
    out.chosen.clear();
    out.used_now = 0;
    let c1q = units_floor(cap_now, unit);
    let c2q = units_floor(cap_freeze, unit);
    let n = items.len();
    debug_assert_eq!(packed.len(), n);
    if n == 0 || c1q == 0 {
        return; // trivially empty: no table to build or consult
    }
    let (lay, relayout) = match table.layout {
        Some(l) if table.unit == unit && c1q <= l.c1max && c2q <= l.c2max => (l, false),
        Some(l) if table.unit == unit => (Layout::new(l.c1max.max(c1q), l.c2max.max(c2q)), true),
        _ => (Layout::new(c1q, c2q), true),
    };
    let from = if relayout {
        0
    } else {
        table.common_prefix(packed)
    };
    let bits = table.scratch.ensure((n + 1) * lay.layer);
    if from == 0 {
        lay.init(bits);
        stats.incremental_rebuilds += 1;
    } else {
        stats.incremental_hits += 1;
    }
    lay.build(bits, items, unit, from);
    lay.extract(bits, c1q, c2q, items, unit, out);
    table.unit = unit;
    table.layout = Some(lay);
    table.items.clear();
    table.items.extend_from_slice(packed);
}

const CACHE_SLOTS: usize = 64;

#[derive(Debug, Default, Clone)]
struct CacheSlot {
    /// This slot's key region in the shared [`SelectionCache::keys`]
    /// arena: `keys[key_off..key_off + key_len]`, with `key_cap` words
    /// reserved so shorter keys rewrite the region in place.
    key_off: u32,
    key_len: u32,
    key_cap: u32,
    /// The memoized answer, as a `(off, len, cap)` range over the
    /// shared [`SelectionCache::sels`] arena plus the scalar
    /// `used_now` — same scheme as the key region, so 64 slots cost a
    /// couple of arena doublings instead of 64 lazily-grown `Vec`s.
    sel_off: u32,
    sel_len: u32,
    sel_cap: u32,
    used_now: u32,
    valid: bool,
}

/// A direct-mapped memo of recent DP answers.
///
/// Keyed by the full problem instance — kernel tag, unit, both
/// capacities and every item's `(num, extends)` — hashed (FNV-1a) to
/// pick one of 64 slots; an exact key comparison decides the hit, so a
/// colliding instance can only evict, never corrupt. Keys live in one
/// shared arena (`keys`) addressed by per-slot `(off, len, cap)` ranges
/// rather than 64 individual `Vec`s: filling the whole cache costs a
/// handful of arena doublings instead of an allocation per slot, and a
/// refill whose key fits the slot's reserved range allocates nothing.
/// A slot that outgrows its range retires it and takes a fresh one off
/// the arena's end — the dead words are bounded by 64 × the largest key
/// ever seen, a few KiB, and vanish with the solver.
///
/// Direct mapping is deliberate: on the 500-job headline run the ~51%
/// miss rate is almost entirely *compulsory* (fresh instances). A 2-way
/// set-associative variant with per-set LRU recovered 1 of 670 solves
/// (48.81% → 48.96% hit rate), and growing the cache 128× to 8192 slots
/// — a bound on any replacement policy at this size — only reached
/// 49.70%, so associativity has at most ~0.9 points to win here and the
/// extra probe work buys none of it back.
#[derive(Debug)]
pub struct SelectionCache {
    slots: Vec<CacheSlot>,
    /// Shared key arena; see the type docs.
    keys: Vec<u64>,
    /// Shared answer arena (chosen-index lists); see [`CacheSlot`].
    sels: Vec<u32>,
}

impl Default for SelectionCache {
    fn default() -> Self {
        SelectionCache {
            slots: vec![CacheSlot::default(); CACHE_SLOTS],
            // Pre-size both arenas: filling the cache walks them up by
            // whole key/answer ranges, so seeding the capacity replaces
            // the doubling chains with one allocation each.
            keys: Vec::with_capacity(4096),
            sels: Vec::with_capacity(128),
        }
    }
}

impl SelectionCache {
    /// Does slot `idx` hold exactly `key`?
    #[inline]
    fn key_matches(&self, idx: usize, key: &[u64]) -> bool {
        let slot = &self.slots[idx];
        slot.valid && self.keys[slot.key_off as usize..][..slot.key_len as usize] == *key
    }

    /// Record `key` as slot `idx`'s instance, reusing the slot's arena
    /// range when it fits and appending a fresh range when it doesn't.
    fn store_key(&mut self, idx: usize, key: &[u64]) {
        let slot = &mut self.slots[idx];
        let len = key.len() as u32;
        if len > slot.key_cap {
            slot.key_off = self.keys.len() as u32;
            slot.key_cap = len;
            self.keys.resize(self.keys.len() + key.len(), 0);
        }
        slot.key_len = len;
        self.keys[slot.key_off as usize..][..key.len()].copy_from_slice(key);
        slot.valid = true;
    }

    /// Record `sel` as slot `idx`'s answer, reusing the slot's arena
    /// range when it fits and appending a fresh range when it doesn't.
    fn store_sel(&mut self, idx: usize, sel: &Selection) {
        let slot = &mut self.slots[idx];
        let len = sel.chosen.len() as u32;
        if len > slot.sel_cap {
            slot.sel_off = self.sels.len() as u32;
            slot.sel_cap = len;
            self.sels.resize(self.sels.len() + sel.chosen.len(), 0);
        }
        slot.sel_len = len;
        for (dst, &src) in self.sels[slot.sel_off as usize..]
            .iter_mut()
            .zip(&sel.chosen)
        {
            *dst = src as u32;
        }
        slot.used_now = sel.used_now;
    }

    /// Copy slot `idx`'s memoized answer into `out` (a hit's only
    /// per-solve cost: a handful-of-words memcpy, no allocation once
    /// `out.chosen` has warmed to the largest selection seen).
    fn load_sel(&self, idx: usize, out: &mut Selection) {
        let slot = &self.slots[idx];
        out.chosen.clear();
        out.chosen.extend(
            self.sels[slot.sel_off as usize..][..slot.sel_len as usize]
                .iter()
                .map(|&i| i as usize),
        );
        out.used_now = slot.used_now;
    }
}

fn fingerprint(key: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in key {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const TAG_BASIC: u64 = 1;
const TAG_RESERVATION: u64 = 2;

/// A reusable DP solver: bitset kernels + scratch arena + selection
/// cache + counters, owned by a scheduler across cycles.
///
/// After warm-up (buffers grown to the largest instance seen) a solve
/// performs zero heap allocations, hit or miss.
#[derive(Debug)]
pub struct DpSolver {
    scratch: DpScratch,
    cache: SelectionCache,
    keybuf: Vec<u64>,
    /// The single result buffer every path answers through: misses
    /// solve into it (then memoize a compact copy in the cache's
    /// answer arena), hits copy back out of the arena, and the
    /// cache-disabled path writes it directly.
    result: Selection,
    /// Retained cross-cycle Basic_DP table (see [`IncrementalTable`]).
    inc_basic: IncrementalTable,
    /// Retained cross-cycle Reservation_DP table.
    inc_reservation: IncrementalTable,
    stats: DpStats,
    /// Memoize answers in the [`SelectionCache`] (on by default).
    pub cache_enabled: bool,
    /// On cache misses, extend/replay the retained cross-cycle
    /// reachability table instead of re-solving from scratch (on by
    /// default). The cache-disabled path ignores this so kernel
    /// benchmarks keep measuring the from-scratch solve.
    pub incremental_enabled: bool,
    /// Accumulate [`DpStats::nanos`] via `Instant` (on by default; turn
    /// off for benchmarks that measure the kernels themselves).
    pub timed: bool,
}

impl Default for DpSolver {
    fn default() -> Self {
        DpSolver::new()
    }
}

impl DpSolver {
    /// A fresh solver with caching and timing enabled.
    pub fn new() -> Self {
        DpSolver {
            scratch: DpScratch::default(),
            cache: SelectionCache::default(),
            keybuf: Vec::with_capacity(64),
            result: Selection {
                chosen: Vec::with_capacity(32),
                used_now: 0,
            },
            inc_basic: IncrementalTable::default(),
            inc_reservation: IncrementalTable::default(),
            stats: DpStats::default(),
            cache_enabled: true,
            incremental_enabled: true,
            timed: true,
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> DpStats {
        self.stats
    }

    /// **Basic_DP** through the cache: see [`basic_dp`] for semantics.
    pub fn basic(&mut self, sizes: &[u32], capacity: u32, unit: u32) -> &Selection {
        self.solve(TAG_BASIC, sizes, capacity, 0, unit)
    }

    /// **Reservation_DP** through the cache: see [`reservation_dp`] for
    /// semantics.
    pub fn reservation(
        &mut self,
        items: &[DpItem],
        cap_now: u32,
        cap_freeze: u32,
        unit: u32,
    ) -> &Selection {
        self.solve(TAG_RESERVATION, items, cap_now, cap_freeze, unit)
    }

    fn solve<T: Candidate>(
        &mut self,
        tag: u64,
        items: &[T],
        cap_now: u32,
        cap_freeze: u32,
        unit: u32,
    ) -> &Selection {
        if !self.cache_enabled {
            let t0 = self.timed.then(Instant::now);
            solve(
                &mut self.scratch,
                items,
                cap_now,
                cap_freeze,
                unit,
                &mut self.result,
            );
            self.stats.cache_misses += 1;
            if let Some(t0) = t0 {
                self.stats.nanos += t0.elapsed().as_nanos() as u64;
            }
            return &self.result;
        }
        // Take-all fast path: when every candidate a kernel could choose
        // (every non-empty one) fits under both capacities, the unique
        // utilization maximum is all of them, so the answer needs no
        // kernel, no cache slot, and no key build. Counted as a cache
        // hit ("answered without running a kernel").
        let (mut tot_w, mut tot_f) = (0usize, 0usize);
        for it in items {
            let (w, f) = it.item().units(unit);
            tot_w += w;
            tot_f += f;
        }
        if tot_w <= units_floor(cap_now, unit) && tot_f <= units_floor(cap_freeze, unit) {
            let out = &mut self.result;
            out.chosen.clear();
            out.chosen
                .extend((0..items.len()).filter(|&i| items[i].item().num > 0));
            out.used_now = (tot_w * unit as usize) as u32;
            self.stats.cache_hits += 1;
            return &self.result;
        }
        self.keybuf.clear();
        self.keybuf.extend_from_slice(&[
            tag,
            u64::from(unit),
            u64::from(cap_now),
            u64::from(cap_freeze),
        ]);
        self.keybuf
            .extend(items.iter().map(|it| it.item().packed()));
        let idx = (fingerprint(&self.keybuf) % CACHE_SLOTS as u64) as usize;
        let timed = self.timed;
        let incremental = self.incremental_enabled;
        let DpSolver {
            scratch,
            cache,
            keybuf,
            inc_basic,
            inc_reservation,
            stats,
            result,
            ..
        } = self;
        if cache.key_matches(idx, keybuf) {
            stats.cache_hits += 1;
            cache.load_sel(idx, result);
        } else {
            // Only a kernel run is clocked, and only one miss in
            // DP_NANOS_SAMPLE_EVERY (see [`DpStats::nanos`]): a hit
            // costs less than reading the clock twice would, and on
            // misses the kernel itself is now cheap enough that
            // unsampled clocking would dominate it.
            let t0 =
                (timed && stats.cache_misses & (DP_NANOS_SAMPLE_EVERY - 1) == 0).then(Instant::now);
            if incremental {
                let table = if tag == TAG_BASIC {
                    inc_basic
                } else {
                    inc_reservation
                };
                // The packed item list is exactly the key past the
                // 4-word header.
                solve_incremental(
                    table,
                    &keybuf[4..],
                    items,
                    cap_now,
                    cap_freeze,
                    unit,
                    stats,
                    result,
                );
            } else {
                solve(scratch, items, cap_now, cap_freeze, unit, result);
            }
            cache.store_sel(idx, result);
            cache.store_key(idx, keybuf);
            stats.cache_misses += 1;
            if let Some(t0) = t0 {
                stats.nanos += t0.elapsed().as_nanos() as u64 * DP_NANOS_SAMPLE_EVERY;
            }
        }
        &self.result
    }
}

/// Per-scheduler working set for the DP path: the solver plus the
/// candidate staging buffers every cycle refills.
///
/// Owning these across cycles (instead of collecting fresh `Vec`s) is
/// what makes a steady-state scheduling cycle allocation-free.
#[derive(Debug)]
pub struct DpWork {
    /// The memoizing bitset solver.
    pub solver: DpSolver,
    /// Candidate job ids, parallel to `sizes` / `items`.
    pub ids: Vec<JobId>,
    /// Candidate processor requests (Basic_DP input).
    pub sizes: Vec<u32>,
    /// Candidate items (Reservation_DP input).
    pub items: Vec<DpItem>,
    /// Candidate queue positions (indices into the wait-queue snapshot
    /// the candidates were staged from), letting a scheduler remove the
    /// chosen jobs by position — in descending order, so earlier
    /// positions stay valid — instead of re-scanning the queue by id.
    pub positions: Vec<u32>,
}

impl Default for DpWork {
    fn default() -> Self {
        // Pre-size the staging buffers for a paper-scale candidate set
        // (the headline run peaks well under 64): the first cycles then
        // fill existing capacity instead of replaying four separate
        // doubling chains.
        DpWork {
            solver: DpSolver::new(),
            ids: Vec::with_capacity(64),
            sizes: Vec::with_capacity(64),
            items: Vec::with_capacity(64),
            positions: Vec::with_capacity(64),
        }
    }
}

impl DpWork {
    /// Empty the candidate staging buffers, retaining their capacity.
    pub fn clear_candidates(&mut self) {
        self.ids.clear();
        self.sizes.clear();
        self.items.clear();
        self.positions.clear();
    }

    /// Counters accumulated by the solver so far.
    pub fn stats(&self) -> DpStats {
        self.solver.stats()
    }
}

/// **Basic_DP**: choose a subset of `sizes` (processor counts) with total
/// at most `capacity`, maximizing the total. All sizes and the capacity
/// are in processors; `unit` is the machine allocation unit. Sizes round
/// up to whole units, the capacity rounds down, and `used_now` reports
/// allocated processors (chosen units × unit).
///
/// Sizes that are zero or exceed `capacity` are never chosen.
///
/// This is the one-shot convenience wrapper; schedulers keep a
/// [`DpSolver`] (via [`DpWork`]) to reuse scratch memory and memoize
/// repeated instances.
///
/// ```
/// use elastisched_sched::basic_dp;
/// // The paper's Figure 2: jobs of 7, 4 and 6 node groups on a
/// // 10-group machine — the optimal set is {4, 6}, not the head.
/// let sel = basic_dp(&[224, 128, 192], 320, 32);
/// assert_eq!(sel.used_now, 320);
/// assert_eq!(sel.chosen, vec![1, 2]);
/// ```
pub fn basic_dp(sizes: &[u32], capacity: u32, unit: u32) -> Selection {
    let mut out = Selection::default();
    FREE_FN_SCRATCH.with(|s| solve(&mut s.borrow_mut(), sizes, capacity, 0, unit, &mut out));
    out
}

thread_local! {
    /// Arena shared by the one-shot wrappers, so even they only pay for
    /// the reachability table on their thread's first (or largest) call.
    static FREE_FN_SCRATCH: std::cell::RefCell<DpScratch> =
        std::cell::RefCell::new(DpScratch::default());
}

/// **Reservation_DP**: choose a subset of `items` maximizing processors
/// used now, subject to
///
/// * `Σ num ≤ cap_now` (free processors at the current time), and
/// * `Σ (extends ? num : 0) ≤ cap_freeze` (freeze end capacity `frec`).
///
/// Among maximum-utilization solutions the one using the least freeze
/// capacity is returned, with ties broken toward earlier-queued jobs.
///
/// This is the one-shot convenience wrapper; schedulers keep a
/// [`DpSolver`] (via [`DpWork`]) to reuse scratch memory and memoize
/// repeated instances.
///
/// ```
/// use elastisched_sched::{reservation_dp, DpItem};
/// // Two 64-proc jobs fit now, but only 64 procs remain at the freeze
/// // end time: only one extending job may start.
/// let items = [
///     DpItem { num: 64, extends: true },
///     DpItem { num: 64, extends: true },
/// ];
/// let sel = reservation_dp(&items, 128, 64, 32);
/// assert_eq!(sel.used_now, 64);
/// ```
pub fn reservation_dp(items: &[DpItem], cap_now: u32, cap_freeze: u32, unit: u32) -> Selection {
    let mut out = Selection::default();
    FREE_FN_SCRATCH.with(|s| {
        solve(
            &mut s.borrow_mut(),
            items,
            cap_now,
            cap_freeze,
            unit,
            &mut out,
        )
    });
    out
}

// ---------------------------------------------------------------------
// Reference kernels: the original scalar implementations, kept as
// differential-testing oracles (and for `cargo bench` comparison runs).
// ---------------------------------------------------------------------

/// The scalar (pre-bitset) Basic_DP, retained as a testing oracle.
/// Byte-for-byte the same selections as [`basic_dp`], only slower.
#[cfg(any(test, feature = "reference-kernels"))]
pub fn basic_dp_reference(sizes: &[u32], capacity: u32, unit: u32) -> Selection {
    let cap = units_floor(capacity, unit);
    let n = sizes.len();
    if n == 0 || cap == 0 {
        return Selection::default();
    }
    // reach[i][c] = can the first i items use exactly c units?
    let width = cap + 1;
    let mut reach = vec![false; (n + 1) * width];
    reach[0] = true;
    for (i, &size) in sizes.iter().enumerate() {
        let w = units_ceil(size, unit);
        let (prev, cur) = reach.split_at_mut((i + 1) * width);
        let prev = &prev[i * width..];
        let cur = &mut cur[..width];
        for c in 0..width {
            cur[c] = prev[c] || (w > 0 && c >= w && prev[c - w]);
        }
    }
    let best = (0..width)
        .rev()
        .find(|&c| reach[n * width + c])
        .unwrap_or(0);
    let mut chosen = Vec::new();
    let mut c = best;
    for i in (0..n).rev() {
        let w = units_ceil(sizes[i], unit);
        if reach[i * width + c] {
            continue; // exclude item i
        }
        debug_assert!(w > 0 && c >= w && reach[i * width + (c - w)]);
        chosen.push(i);
        c -= w;
    }
    chosen.reverse();
    Selection {
        used_now: (best * unit as usize) as u32,
        chosen,
    }
}

/// The scalar (pre-bitset) Reservation_DP, retained as a testing oracle.
/// Byte-for-byte the same selections as [`reservation_dp`], only slower.
#[cfg(any(test, feature = "reference-kernels"))]
pub fn reservation_dp_reference(
    items: &[DpItem],
    cap_now: u32,
    cap_freeze: u32,
    unit: u32,
) -> Selection {
    let c1max = units_floor(cap_now, unit);
    let c2max = units_floor(cap_freeze, unit);
    let n = items.len();
    if n == 0 || c1max == 0 {
        return Selection::default();
    }
    let w1 = c1max + 1;
    let w2 = c2max + 1;
    let layer = w1 * w2;
    // reach[i][c1][c2]: first i items can use exactly c1 units now of
    // which exactly c2 units extend past the freeze end time.
    let mut reach = vec![false; (n + 1) * layer];
    reach[0] = true;
    for (i, item) in items.iter().enumerate() {
        let w = units_ceil(item.num, unit);
        let f = if item.extends { w } else { 0 };
        let (prev_all, cur_all) = reach.split_at_mut((i + 1) * layer);
        let prev = &prev_all[i * layer..];
        let cur = &mut cur_all[..layer];
        for c1 in 0..w1 {
            for c2 in 0..w2 {
                let idx = c1 * w2 + c2;
                let mut ok = prev[idx];
                if !ok && w > 0 && c1 >= w && c2 >= f {
                    ok = prev[(c1 - w) * w2 + (c2 - f)];
                }
                cur[idx] = ok;
            }
        }
    }
    // Maximize c1; among those minimize c2.
    let last = &reach[n * layer..];
    let mut best: Option<(usize, usize)> = None;
    'outer: for c1 in (0..w1).rev() {
        for c2 in 0..w2 {
            if last[c1 * w2 + c2] {
                best = Some((c1, c2));
                break 'outer;
            }
        }
    }
    let Some((mut c1, mut c2)) = best else {
        return Selection::default();
    };
    if c1 == 0 {
        return Selection::default();
    }
    let used_now = (c1 * unit as usize) as u32;
    let mut chosen = Vec::new();
    for i in (0..n).rev() {
        let idx = c1 * w2 + c2;
        if reach[i * layer + idx] {
            continue; // exclude item i
        }
        let w = units_ceil(items[i].num, unit);
        let f = if items[i].extends { w } else { 0 };
        debug_assert!(w > 0 && c1 >= w && c2 >= f);
        chosen.push(i);
        c1 -= w;
        c2 -= f;
    }
    chosen.reverse();
    Selection { chosen, used_now }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_dp_prefers_combination_over_head() {
        // The paper's Figure 2 example: machine of 10, jobs of 7, 4, 6.
        // Starting the head (7) wastes 3; the DP must pick {4, 6} = 10.
        let sel = basic_dp(&[7, 4, 6], 10, 1);
        assert_eq!(sel.used_now, 10);
        assert_eq!(sel.chosen, vec![1, 2]);
    }

    #[test]
    fn basic_dp_in_bluegene_units() {
        // Same example scaled by the 32-processor node group.
        let sel = basic_dp(&[224, 128, 192], 320, 32);
        assert_eq!(sel.used_now, 320);
        assert_eq!(sel.chosen, vec![1, 2]);
    }

    #[test]
    fn basic_dp_takes_everything_when_it_fits() {
        let sel = basic_dp(&[32, 64, 96], 320, 32);
        assert_eq!(sel.used_now, 192);
        assert_eq!(sel.chosen, vec![0, 1, 2]);
    }

    #[test]
    fn basic_dp_ignores_oversized_jobs() {
        let sel = basic_dp(&[400, 64], 320, 32);
        assert_eq!(sel.used_now, 64);
        assert_eq!(sel.chosen, vec![1]);
    }

    #[test]
    fn basic_dp_empty_inputs() {
        assert_eq!(basic_dp(&[], 320, 32), Selection::default());
        assert_eq!(basic_dp(&[32], 0, 32), Selection::default());
    }

    #[test]
    fn basic_dp_tie_prefers_earlier_jobs() {
        // {0} and {1} both give 32; the FIFO-preferring reconstruction
        // must pick job 0.
        let sel = basic_dp(&[32, 32], 32, 32);
        assert_eq!(sel.chosen, vec![0]);
        // {0,1} and {2} both give 64.
        let sel = basic_dp(&[32, 32, 64], 64, 32);
        assert_eq!(sel.chosen, vec![0, 1]);
    }

    #[test]
    fn basic_dp_rounds_job_sizes_up_to_units() {
        // A 33-proc job needs 2 units (64 procs allocated), so only one
        // fits in 64 procs. Flooring would wrongly pack both ("1 unit"
        // each) and oversubscribe the machine by 2 processors.
        let sel = basic_dp(&[33, 33], 64, 32);
        assert_eq!(sel.chosen, vec![0]);
        assert_eq!(sel.used_now, 64);
        // And a job bigger than the floored capacity is never chosen.
        let sel = basic_dp(&[300], 319, 32); // capacity floors to 9 units
        assert!(sel.chosen.is_empty());
    }

    #[test]
    fn reservation_dp_rounds_freeze_demand_up_to_units() {
        // The extender's 33 procs need 2 freeze units; only 1 is free.
        let items = [DpItem {
            num: 33,
            extends: true,
        }];
        let sel = reservation_dp(&items, 128, 32, 32);
        assert!(sel.chosen.is_empty());
        // With 2 freeze units it fits and occupies 2 now-units.
        let sel = reservation_dp(&items, 128, 64, 32);
        assert_eq!(sel.chosen, vec![0]);
        assert_eq!(sel.used_now, 64);
    }

    #[test]
    fn reservation_dp_respects_freeze_capacity() {
        // Two jobs fit now, but only one may extend past the freeze.
        let items = [
            DpItem {
                num: 64,
                extends: true,
            },
            DpItem {
                num: 64,
                extends: true,
            },
        ];
        let sel = reservation_dp(&items, 128, 64, 32);
        assert_eq!(sel.used_now, 64);
        assert_eq!(sel.chosen, vec![0]);
    }

    #[test]
    fn reservation_dp_short_jobs_bypass_freeze() {
        // Jobs that finish before the freeze end time don't consume frec.
        let items = [
            DpItem {
                num: 64,
                extends: false,
            },
            DpItem {
                num: 64,
                extends: false,
            },
        ];
        let sel = reservation_dp(&items, 128, 0, 32);
        assert_eq!(sel.used_now, 128);
        assert_eq!(sel.chosen, vec![0, 1]);
    }

    #[test]
    fn reservation_dp_mixes_short_and_long() {
        let items = [
            DpItem {
                num: 96,
                extends: true,
            }, // long, would eat all frec
            DpItem {
                num: 64,
                extends: false,
            }, // short
            DpItem {
                num: 64,
                extends: true,
            }, // long, fits frec
        ];
        let sel = reservation_dp(&items, 160, 64, 32);
        // Best: short 64 + long 64 = 128 now, freeze usage 64.
        assert_eq!(sel.used_now, 128);
        assert_eq!(sel.chosen, vec![1, 2]);
    }

    #[test]
    fn reservation_dp_prefers_lower_freeze_usage_on_ties() {
        let items = [
            DpItem {
                num: 64,
                extends: true,
            },
            DpItem {
                num: 64,
                extends: false,
            },
        ];
        // Both alone give 64 now; the non-extending one must win even
        // though it is later in the queue, because it burns no frec.
        let sel = reservation_dp(&items, 64, 64, 32);
        assert_eq!(sel.used_now, 64);
        assert_eq!(sel.chosen, vec![1]);
    }

    #[test]
    fn reservation_dp_empty_and_zero_capacity() {
        assert_eq!(reservation_dp(&[], 320, 320, 32), Selection::default());
        let items = [DpItem {
            num: 32,
            extends: false,
        }];
        assert_eq!(reservation_dp(&items, 0, 320, 32), Selection::default());
    }

    #[test]
    fn reservation_dp_zero_freeze_blocks_extenders() {
        let items = [DpItem {
            num: 32,
            extends: true,
        }];
        let sel = reservation_dp(&items, 320, 0, 32);
        assert_eq!(sel.used_now, 0);
        assert!(sel.chosen.is_empty());
    }

    #[test]
    fn wide_instances_cross_word_boundaries() {
        // 200 capacity units span four u64 words; exercise carries
        // through every word boundary with unit-1 sizes.
        let sizes: Vec<u32> = (1..=20).map(|k| k * 7 % 13 + 1).collect();
        let sel = basic_dp(&sizes, 200, 1);
        assert_eq!(sel, basic_dp_reference(&sizes, 200, 1));
        let items: Vec<DpItem> = sizes
            .iter()
            .enumerate()
            .map(|(i, &num)| DpItem {
                num,
                extends: i % 3 == 0,
            })
            .collect();
        let sel = reservation_dp(&items, 200, 70, 1);
        assert_eq!(sel, reservation_dp_reference(&items, 200, 70, 1));
    }

    #[test]
    fn lane_kernels_handle_word_aligned_shifts() {
        // Shifts of exactly 64 and 128 units (≡ 0 mod 64) hit the
        // `bit_shift == 0` branch of `or_shifted`, where a masked
        // sub-word carry would be a bug: the whole word moves.
        let sizes = [64u32, 128, 64, 3, 128, 64];
        for cap in [63u32, 64, 127, 128, 200, 300] {
            let sel = basic_dp(&sizes, cap, 1);
            assert_eq!(sel, basic_dp_reference(&sizes, cap, 1), "cap {cap}");
        }
        let items: Vec<DpItem> = sizes
            .iter()
            .map(|&num| DpItem {
                num,
                extends: num == 64,
            })
            .collect();
        let sel = reservation_dp(&items, 300, 128, 1);
        assert_eq!(sel, reservation_dp_reference(&items, 300, 128, 1));
    }

    #[test]
    fn lane_kernels_ignore_shifts_beyond_row_width() {
        // An item wider than the whole capacity row shifts past every
        // word; the row must pass through unchanged rather than wrap.
        let sizes = [500u32, 9, 700, 5];
        for cap in [10u32, 64, 100] {
            let sel = basic_dp(&sizes, cap, 1);
            assert_eq!(sel, basic_dp_reference(&sizes, cap, 1), "cap {cap}");
            assert_eq!(sel.used_now, if cap >= 14 { 14 } else { 9 });
        }
        let items = [
            DpItem {
                num: 500,
                extends: true,
            },
            DpItem {
                num: 9,
                extends: false,
            },
        ];
        let sel = reservation_dp(&items, 100, 100, 1);
        assert_eq!(sel, reservation_dp_reference(&items, 100, 100, 1));
        assert_eq!(sel.used_now, 9);
    }

    #[test]
    fn lane_kernels_mask_the_last_word() {
        // Widths straddling a word boundary by one bit either way: any
        // carry past `cap` that survives the last-word mask would make
        // a phantom "reachable" count above capacity win the argmax.
        for cap in [63u32, 64, 65, 127, 128, 129, 191, 192, 193] {
            let sizes: Vec<u32> = (0..8).map(|k| cap / 2 + k).collect();
            let sel = basic_dp(&sizes, cap, 1);
            assert_eq!(sel, basic_dp_reference(&sizes, cap, 1), "cap {cap}");
            assert!(sel.used_now <= cap);
            let items: Vec<DpItem> = sizes
                .iter()
                .map(|&num| DpItem {
                    num,
                    extends: num % 2 == 0,
                })
                .collect();
            let sel = reservation_dp(&items, cap, cap, 1);
            assert_eq!(
                sel,
                reservation_dp_reference(&items, cap, cap, 1),
                "cap {cap}"
            );
            assert!(sel.used_now <= cap);
        }
    }

    #[test]
    fn units_round_like_division() {
        // Power-of-two units take a shift, the rest a divide; both must
        // round a job up to whole units.
        for unit in [1u32, 2, 8, 10, 24, 32, 1 << 31] {
            for procs in [0u32, 1, 7, 31, 32, 33, 319, 320, 321, u32::MAX] {
                assert_eq!(units_ceil(procs, unit), procs.div_ceil(unit) as usize);
            }
        }
    }

    /// Unit-1 items of 1..=15 processors, two in three extending, summing
    /// far above every capacity below so no answer is take-all.
    fn boundary_items() -> Vec<DpItem> {
        (0..24u32)
            .map(|k| DpItem {
                num: k * 7 % 15 + 1,
                extends: k % 3 != 1,
            })
            .collect()
    }

    #[test]
    fn packed_layer_boundaries_match_reference() {
        // (cap_now, cap_freeze) on a unit-1 machine: an 11 × 11 = 121-bit
        // layer (the paper's machine in 32-processor units), exactly 128
        // bits (16 × 8, where `full` is every bit), one row past 128 bits,
        // and Basic_DP's single row at 128 and 129 bits.
        let cases = [
            (10u32, 10u32, true),
            (15, 7, true),
            (15, 8, false),
            (127, 0, true),
            (128, 0, false),
        ];
        let items = boundary_items();
        let sizes: Vec<u32> = items.iter().map(|it| it.num).collect();
        for (cap, freeze, packed) in cases {
            let rows = Layout::new(cap as usize, freeze as usize).rows;
            assert_eq!(matches!(rows, Rows::Packed { .. }), packed, "cap {cap}");
            let full_word = matches!(rows, Rows::Packed { full, .. } if full == u128::MAX);
            assert_eq!(full_word, (cap + 1) * (freeze + 1) == 128);
            let expect = reservation_dp_reference(&items, cap, freeze, 1);
            assert!(expect.used_now > 0);
            assert_eq!(reservation_dp(&items, cap, freeze, 1), expect, "cap {cap}");
            let expect = basic_dp_reference(&sizes, cap, 1);
            assert_eq!(basic_dp(&sizes, cap, 1), expect, "cap {cap}");
        }
    }

    #[test]
    fn incremental_solver_grows_across_the_packed_boundary() {
        // The retained table grows from a 112-bit packed layer to exactly
        // 128 bits, then to word rows, each growth a rebuild; queries
        // below the stored capacities then replay the word-row table.
        let mut solver = DpSolver::new();
        let mut items = boundary_items();
        let steps = [
            (15u32, 6u32, (0, 1)),
            (15, 7, (0, 2)),
            (15, 8, (0, 3)),
            (10, 3, (1, 3)),
            (15, 8, (2, 3)),
        ];
        for (k, (cap, freeze, counters)) in steps.into_iter().enumerate() {
            // A tail edit each step, so the cache never answers.
            items.push(DpItem {
                num: k as u32 + 2,
                extends: k % 2 == 0,
            });
            let sel = solver.reservation(&items, cap, freeze, 1);
            assert_eq!(*sel, reservation_dp_reference(&items, cap, freeze, 1));
            let s = solver.stats();
            let got = (s.incremental_hits, s.incremental_rebuilds);
            assert_eq!(got, counters, "step {k}");
        }
    }

    #[test]
    fn incremental_counters_classify_replays_and_rebuilds() {
        // Sums stay above capacity throughout so the take-all fast path
        // never intercepts and every fresh instance is a genuine miss.
        let mut solver = DpSolver::new();
        let a = [160u32, 160, 160, 160];
        solver.basic(&a, 320, 32);
        let s = solver.stats();
        assert_eq!((s.incremental_hits, s.incremental_rebuilds), (0, 1));

        // Tail edit: the retained table replays the 3-item prefix.
        let b = [160u32, 160, 160, 320];
        solver.basic(&b, 320, 32);
        let s = solver.stats();
        assert_eq!((s.incremental_hits, s.incremental_rebuilds), (1, 1));

        // Head edit: no shared prefix left, full rebuild.
        let c = [320u32, 160, 160, 320];
        solver.basic(&c, 320, 32);
        let s = solver.stats();
        assert_eq!((s.incremental_hits, s.incremental_rebuilds), (1, 2));

        // Cache hit: repeating an instance touches neither counter.
        solver.basic(&c, 320, 32);
        let s = solver.stats();
        assert_eq!((s.incremental_hits, s.incremental_rebuilds), (1, 2));

        // Capacity change re-widens the rows: rebuild even though the
        // item list is unchanged. (416 = 13 units keeps the 20-unit
        // total over capacity, out of take-all's reach.)
        solver.basic(&c, 416, 32);
        let s = solver.stats();
        assert_eq!((s.incremental_hits, s.incremental_rebuilds), (1, 3));

        assert!(s.incremental_hits + s.incremental_rebuilds <= s.cache_misses);
    }

    /// Exhaustive check against brute force on every subset.
    fn brute_force(items: &[DpItem], cap_now: u32, cap_freeze: u32) -> u32 {
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

    #[test]
    fn reservation_dp_matches_brute_force_exhaustively() {
        // Small deterministic sweep over many instances.
        let sizes = [32u32, 64, 96, 128, 160];
        let mut instance = 0u64;
        for a in 0..sizes.len() {
            for b in 0..sizes.len() {
                for c in 0..sizes.len() {
                    instance += 1;
                    let items = [
                        DpItem {
                            num: sizes[a],
                            extends: instance % 2 == 0,
                        },
                        DpItem {
                            num: sizes[b],
                            extends: instance % 3 == 0,
                        },
                        DpItem {
                            num: sizes[c],
                            extends: instance % 5 == 0,
                        },
                    ];
                    for cap_now in [64u32, 160, 320] {
                        for cap_freeze in [0u32, 96, 320] {
                            let sel = reservation_dp(&items, cap_now, cap_freeze, 32);
                            let expect = brute_force(&items, cap_now, cap_freeze);
                            assert_eq!(
                                sel.used_now, expect,
                                "items {items:?} cap_now {cap_now} cap_freeze {cap_freeze}"
                            );
                            // And the reported selection is consistent.
                            let now: u32 = sel.chosen.iter().map(|&i| items[i].num).sum();
                            let fr: u32 = sel
                                .chosen
                                .iter()
                                .filter(|&&i| items[i].extends)
                                .map(|&i| items[i].num)
                                .sum();
                            assert_eq!(now, sel.used_now);
                            assert!(now <= cap_now && fr <= cap_freeze);
                            // The scalar oracle agrees byte for byte.
                            assert_eq!(
                                sel,
                                reservation_dp_reference(&items, cap_now, cap_freeze, 32)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn basic_dp_matches_brute_force_exhaustively() {
        let sizes_pool = [32u32, 64, 96, 128, 224, 320];
        for a in 0..sizes_pool.len() {
            for b in 0..sizes_pool.len() {
                for c in 0..sizes_pool.len() {
                    for d in 0..sizes_pool.len() {
                        let sizes = [sizes_pool[a], sizes_pool[b], sizes_pool[c], sizes_pool[d]];
                        for cap in [96u32, 192, 320] {
                            let sel = basic_dp(&sizes, cap, 32);
                            let items: Vec<DpItem> = sizes
                                .iter()
                                .map(|&num| DpItem {
                                    num,
                                    extends: false,
                                })
                                .collect();
                            let expect = brute_force(&items, cap, u32::MAX);
                            assert_eq!(sel.used_now, expect, "sizes {sizes:?} cap {cap}");
                            // The scalar oracle agrees byte for byte.
                            assert_eq!(sel, basic_dp_reference(&sizes, cap, 32));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn solver_reuses_scratch_and_agrees_with_free_functions() {
        let mut solver = DpSolver::new();
        // Interleave basic and reservation solves of varying size so the
        // arena is grown, shrunk (logically) and regrown.
        for round in 0u32..20 {
            let n = (round % 7 + 1) as usize;
            let sizes: Vec<u32> = (0..n as u32).map(|i| 32 * (1 + (i + round) % 9)).collect();
            let cap = 320 - 32 * (round % 5);
            assert_eq!(*solver.basic(&sizes, cap, 32), basic_dp(&sizes, cap, 32));
            let items: Vec<DpItem> = sizes
                .iter()
                .enumerate()
                .map(|(i, &num)| DpItem {
                    num,
                    extends: (i as u32 + round) % 2 == 0,
                })
                .collect();
            let frec = 32 * (round % 9);
            assert_eq!(
                *solver.reservation(&items, cap, frec, 32),
                reservation_dp(&items, cap, frec, 32)
            );
        }
    }

    #[test]
    fn cache_hits_repeat_instances_and_misses_fresh_ones() {
        let mut solver = DpSolver::new();
        let sizes = [224u32, 128, 192];
        let first = solver.basic(&sizes, 320, 32).clone();
        assert_eq!(solver.stats().cache_misses, 1);
        assert_eq!(solver.stats().cache_hits, 0);
        // Same instance again: a hit, byte-identical answer.
        let again = solver.basic(&sizes, 320, 32).clone();
        assert_eq!(first, again);
        assert_eq!(solver.stats().cache_hits, 1);
        // A different capacity is a different instance.
        let _ = solver.basic(&sizes, 288, 32);
        assert_eq!(solver.stats().cache_misses, 2);
        // Reservation instances never collide with basic ones, even with
        // identical numbers.
        let items: Vec<DpItem> = sizes
            .iter()
            .map(|&num| DpItem {
                num,
                extends: false,
            })
            .collect();
        let res = solver.reservation(&items, 320, 0, 32).clone();
        assert_eq!(solver.stats().cache_misses, 3);
        assert_eq!(res.used_now, first.used_now);
        // Flipping one extends bit changes the key.
        let mut items2 = items.clone();
        items2[0].extends = true;
        let _ = solver.reservation(&items2, 320, 0, 32);
        assert_eq!(solver.stats().cache_misses, 4);
    }

    #[test]
    fn cache_disabled_solver_still_agrees() {
        let mut solver = DpSolver::new();
        solver.cache_enabled = false;
        solver.timed = false;
        let sizes = [96u32, 64, 33, 160];
        for _ in 0..3 {
            assert_eq!(*solver.basic(&sizes, 320, 32), basic_dp(&sizes, 320, 32));
        }
        assert_eq!(solver.stats().cache_hits, 0);
        assert_eq!(solver.stats().nanos, 0);
    }

    #[test]
    fn dp_work_clears_candidates_but_keeps_solver_state() {
        let mut work = DpWork::default();
        work.ids.push(JobId(1));
        work.sizes.push(64);
        work.items.push(DpItem {
            num: 64,
            extends: false,
        });
        work.positions.push(0);
        // Over capacity, so the solve is a real miss rather than a
        // take-all answer (which counts as a hit).
        let _ = work.solver.basic(&[256, 256], 320, 32);
        work.clear_candidates();
        assert!(work.ids.is_empty() && work.sizes.is_empty());
        assert!(work.items.is_empty() && work.positions.is_empty());
        assert_eq!(work.stats().cache_misses, 1);
    }
}
