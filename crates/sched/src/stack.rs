//! The composable policy stack: one generic driver for every scheduler.
//!
//! The paper's Table III is a *composition matrix* — base policy ×
//! dedicated queue (-D) × ECC processor (-E) — and this module realizes
//! it as orthogonal layers instead of one hand-rolled `Scheduler` impl
//! per cell:
//!
//! * [`BatchPolicy`] — a policy *core*: one scheduling cycle over a
//!   [`BatchQueue`] under an optional [`Freeze`] constraint. The cores
//!   live next to their algorithms ([`crate::easy::EasyCore`],
//!   [`crate::los::LosCore`], [`crate::delayed_los::DelayedLosCore`],
//!   [`crate::fcfs::FcfsCore`], [`crate::conservative::ConservativeCore`],
//!   [`crate::ordered::OrderedCore`], [`crate::adaptive::AdaptiveCore`]).
//! * [`StackLayer`] — how a core is driven each engine cycle.
//!   [`BatchOnly`] feeds every arrival to the batch queue and runs the
//!   core once. [`WithDedicated`] adds the paper's dedicated queue: due
//!   jobs are promoted to the batch head (Algorithm 3) with a
//!   configurable promotion `scount` (0 for EASY-D/LOS-D, `C_s` for
//!   Hybrid-LOS), and the first *future* dedicated job projects a
//!   [`DedicatedClaim`] that constrains the core's cycle.
//! * [`PolicyStack`] — the single `Scheduler` impl: it owns the shared
//!   state ([`BatchQueue`], [`DedicatedQueue`], [`Telemetry`],
//!   [`DpWork`]), routes arrivals and ECCs, counts cycles, and assembles
//!   [`SchedStats`] in exactly one place.
//!
//! ## The two dedicated drive protocols
//!
//! `WithDedicated` drives its core through one of two provably distinct
//! protocols, selected by [`BatchPolicy::skip_budget`]:
//!
//! * **Bulk** (no skip budget — EASY, LOS, FCFS, Conservative, Ordered,
//!   Adaptive): promote *all* due dedicated jobs, then run exactly one
//!   core cycle under the dedicated claim — even when the machine is
//!   momentarily full, because the LOS-family cores issue their (empty)
//!   Reservation_DP call regardless and the DP cache counters are part
//!   of the pinned run metrics.
//! * **Interleaved** (a skip budget `C_s` — Delayed-LOS, making the
//!   stack Hybrid-LOS): the paper's Algorithm 2 loop, where a batch head
//!   with exhausted skip budget is force-started *before* due dedicated
//!   jobs are promoted, promotions happen one at a time, and at most one
//!   DP pass runs per cycle.
//!
//! `tests/legacy_differential.rs` pins what the pre-stack schedulers did
//! on fixed cases: every registry algorithm's metrics and per-job
//! schedule.

use crate::dp::DpWork;
use crate::freeze::{dedicated_freeze, Freeze};
use crate::queue::{BatchQueue, DedicatedQueue};
use crate::telemetry::Telemetry;
use elastisched_sim::{
    trace_event, Duration, JobId, JobView, SchedContext, SchedStats, Scheduler, SimTime, TraceEvent,
};

/// Mutable resources shared by every layer of a stack: the decision
/// telemetry and the reusable DP solver + candidate buffers.
#[derive(Debug, Default)]
pub struct PolicyShared {
    /// Decision counters (head force-starts, skips, DP calls, …).
    pub telemetry: Telemetry,
    /// Reusable DP solver, selection cache and candidate arenas.
    pub work: DpWork,
}

/// The queues and shared resources a [`PolicyStack`] owns.
#[derive(Debug, Default)]
pub struct StackState {
    /// Waiting batch jobs, FIFO with skip counts.
    pub batch: BatchQueue,
    /// Waiting dedicated jobs, ordered by requested start.
    pub dedicated: DedicatedQueue,
    /// Telemetry and DP work areas.
    pub shared: PolicyShared,
}

/// The first *future* dedicated job's reservation, projected from the
/// dedicated queue: its requested start and the combined size of every
/// dedicated job sharing that exact start.
///
/// The freeze window itself is derived lazily ([`DedicatedClaim::freeze`])
/// from the *current* running set, because force-starts earlier in the
/// same cycle change the capacity picture (Hybrid-LOS recomputes it after
/// every start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedicatedClaim {
    /// The requested start time of the first dedicated job.
    pub start: SimTime,
    /// Combined processors of all dedicated jobs starting exactly then.
    pub tot_start_num: u32,
}

impl DedicatedClaim {
    /// The claim of the dedicated queue's head job, if any.
    pub fn of(dedicated: &DedicatedQueue) -> Option<Self> {
        let d = dedicated.head()?;
        let start = d.class.requested_start()?;
        Some(DedicatedClaim {
            start,
            tot_start_num: dedicated.total_num_at_start(start),
        })
    }

    /// The freeze window protecting this claim, against the current
    /// running set. `None` when the dedicated bundle exceeds the machine.
    pub fn freeze(&self, ctx: &dyn SchedContext) -> Option<Freeze> {
        dedicated_freeze(
            ctx.running(),
            ctx.now(),
            ctx.total(),
            self.start,
            self.tot_start_num,
        )
    }
}

/// A policy core: one scheduling cycle over the batch queue.
///
/// Cores are pure decision logic — they own only their tunables. Queues,
/// telemetry and DP scratch come in through the [`PolicyStack`] driver,
/// so one core instance composes with any [`StackLayer`].
pub trait BatchPolicy {
    /// Display name of the batch-only stack (e.g. `"EASY"`).
    fn name(&self) -> &'static str;

    /// Display name of the dedicated-queue stack (e.g. `"EASY-D"`).
    /// Delayed-LOS returns `"Hybrid-LOS"` — the paper's name for that
    /// cell of Table III.
    fn dedicated_name(&self) -> &'static str;

    /// Observe a job admitted to the batch queue (before it is pushed).
    /// Used by [`crate::adaptive::AdaptiveCore`] to maintain its arrival
    /// window; a no-op for every other core.
    fn on_admit(&mut self, job: &JobView) {
        let _ = job;
    }

    /// The skip budget `C_s` when this core can force its head through
    /// ahead of a DP selection (Delayed-LOS's `scount ≥ C_s` rule).
    /// `Some` selects [`WithDedicated`]'s interleaved drive protocol;
    /// `None` (the default) selects the bulk protocol.
    fn skip_budget(&self) -> Option<u32> {
        None
    }

    /// One scheduling cycle over `queue`, under an optional freeze
    /// constraint (`None` for batch-only stacks).
    fn cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        ded: Option<Freeze>,
        shared: &mut PolicyShared,
    );

    /// One scheduling cycle under a dedicated claim. The default derives
    /// the claim's freeze window and delegates to [`BatchPolicy::cycle`]
    /// — exactly the EASY-D/LOS-D construction. Delayed-LOS overrides
    /// this with Hybrid-LOS's Reservation_DP-around-dedicated pass, which
    /// additionally bumps the head's `scount` when `bump_scount` is set.
    fn dedicated_cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        claim: DedicatedClaim,
        bump_scount: bool,
        shared: &mut PolicyShared,
    ) {
        let _ = bump_scount;
        let ded = claim.freeze(ctx);
        if ded.is_some() {
            if let Some(notes) = ctx.attribution() {
                notes.note_freeze();
            }
        }
        self.cycle(queue, ctx, ded, shared);
    }
}

/// How a core is admitted to and driven over the stack's state each
/// engine cycle. Implemented by [`BatchOnly`] and [`WithDedicated`].
pub trait StackLayer {
    /// Route one arriving job into the stack's queues.
    fn admit(&mut self, job: JobView, state: &mut StackState);

    /// Run one scheduling cycle.
    fn drive(&mut self, ctx: &mut dyn SchedContext, state: &mut StackState);

    /// Display name of the assembled stack.
    fn name(&self) -> &'static str;
}

/// The batch-only layer: every arrival goes to the batch queue (the
/// paper never feeds heterogeneous workloads to batch-only algorithms,
/// so a dedicated job here is treated as a batch job), and the core runs
/// unconstrained.
#[derive(Debug, Default)]
pub struct BatchOnly<P> {
    pub(crate) core: P,
}

impl<P: BatchPolicy> BatchOnly<P> {
    /// Wrap a core.
    pub fn new(core: P) -> Self {
        BatchOnly { core }
    }
}

impl<P: BatchPolicy> StackLayer for BatchOnly<P> {
    fn admit(&mut self, job: JobView, state: &mut StackState) {
        self.core.on_admit(&job);
        state.batch.push_back(job);
    }

    fn drive(&mut self, ctx: &mut dyn SchedContext, state: &mut StackState) {
        self.core
            .cycle(&mut state.batch, ctx, None, &mut state.shared);
    }

    fn name(&self) -> &'static str {
        self.core.name()
    }
}

/// Promote the dedicated head to the batch queue with `scount`
/// (Algorithm 3): `insert_priority` keeps dedicated jobs promoted across
/// different cycles in requested-start order.
fn promote_head(state: &mut StackState, ctx: &mut dyn SchedContext, scount: u32) {
    if let Some(view) = state.dedicated.pop_head() {
        let at = ctx.now().as_secs();
        trace_event!(ctx.trace(), TraceEvent::Promote { job: view.id.0, at });
        state.batch.insert_priority(view, scount);
        state.shared.telemetry.dedicated_promotions += 1;
    }
}

/// Promote every due dedicated job (requested start ≤ now), earliest
/// start first.
fn promote_due(state: &mut StackState, ctx: &mut dyn SchedContext, scount: u32) {
    let now = ctx.now();
    loop {
        let due = match state.dedicated.head() {
            Some(d) => matches!(d.class.requested_start(), Some(start) if start <= now),
            None => false,
        };
        if !due {
            return;
        }
        promote_head(state, ctx, scount);
    }
}

/// The dedicated-queue layer (the paper's `-D` column): arrivals are
/// routed by job class, due dedicated jobs are promoted to the batch
/// head with `promote_scount`, and the first future dedicated job's
/// [`DedicatedClaim`] constrains the core's cycle. See the module docs
/// for the two drive protocols.
#[derive(Debug)]
pub struct WithDedicated<P> {
    pub(crate) core: P,
    /// The `scount` a promoted dedicated job enters the batch queue
    /// with: 0 for EASY-D/LOS-D, `C_s` for Hybrid-LOS (so the head-start
    /// rule fires it as soon as capacity allows).
    pub(crate) promote_scount: u32,
}

impl<P: BatchPolicy + Default> Default for WithDedicated<P> {
    fn default() -> Self {
        let core = P::default();
        // The natural promotion scount: the core's own skip budget when it
        // has one (Hybrid-LOS promotes with `C_s`), else 0 (EASY-D/LOS-D).
        let promote_scount = core.skip_budget().unwrap_or(0);
        WithDedicated {
            core,
            promote_scount,
        }
    }
}

impl<P: BatchPolicy> WithDedicated<P> {
    /// Wrap a core. For cores with a skip budget the promotion `scount`
    /// should equal that budget (Hybrid-LOS promotes with `C_s`).
    pub fn new(core: P, promote_scount: u32) -> Self {
        WithDedicated {
            core,
            promote_scount,
        }
    }

    /// Bulk protocol: promote all due dedicated jobs, then exactly one
    /// core cycle under the claim — mirroring the EASY-D/LOS-D wrappers.
    /// The core runs even when the machine is full: LOS's (empty)
    /// Reservation_DP call still touches the DP cache counters, which
    /// are part of the pinned run metrics.
    fn drive_bulk(&mut self, ctx: &mut dyn SchedContext, state: &mut StackState) {
        promote_due(state, ctx, self.promote_scount);
        if state.batch.is_empty() {
            return;
        }
        match DedicatedClaim::of(&state.dedicated) {
            None => self
                .core
                .cycle(&mut state.batch, ctx, None, &mut state.shared),
            Some(claim) => {
                self.core
                    .dedicated_cycle(&mut state.batch, ctx, claim, false, &mut state.shared)
            }
        }
    }

    /// Interleaved protocol: the paper's Algorithm 2 loop. Each
    /// iteration either starts a job, promotes one dedicated job, or
    /// returns — so it terminates; the iteration bound is a backstop.
    fn drive_interleaved(&mut self, ctx: &mut dyn SchedContext, state: &mut StackState, cs: u32) {
        let now = ctx.now();
        let mut dp_done = false;
        for _ in 0..100_000 {
            let m = ctx.free();
            if m > 0 && !state.batch.is_empty() {
                if state.dedicated.is_empty() {
                    // Line 4: pure batch → one unconstrained core cycle.
                    self.core
                        .cycle(&mut state.batch, ctx, None, &mut state.shared);
                    return;
                }
                let head = state.batch.head().expect("batch non-empty");
                let (head_id, head_num, head_scount) = (head.view.id, head.view.num, head.scount);
                let dstart = state
                    .dedicated
                    .head()
                    .and_then(|d| d.class.requested_start())
                    .expect("dedicated job has a start");
                if head_scount >= cs {
                    // Lines 35–37 (guarded: a job larger than the free
                    // capacity would oversubscribe the machine).
                    if head_num <= m {
                        trace_event!(
                            ctx.trace(),
                            TraceEvent::HeadForceStart {
                                job: head_id.0,
                                at: now.as_secs(),
                                scount: head_scount,
                            }
                        );
                        ctx.start(head_id).expect("head fit was checked");
                        state.batch.pop_head();
                        state.shared.telemetry.head_force_starts += 1;
                        continue;
                    }
                    // Head cannot start: schedule around the dedicated
                    // reservation (no further scount bumping).
                    if dstart <= now {
                        promote_head(state, ctx, self.promote_scount);
                        continue;
                    }
                    if dp_done {
                        return;
                    }
                    let claim = DedicatedClaim::of(&state.dedicated).expect("dedicated non-empty");
                    self.core.dedicated_cycle(
                        &mut state.batch,
                        ctx,
                        claim,
                        false,
                        &mut state.shared,
                    );
                    dp_done = true;
                    continue;
                }
                // Lines 6–7: dedicated head due → promote it.
                if dstart <= now {
                    promote_head(state, ctx, self.promote_scount);
                    continue;
                }
                // Lines 8–33: schedule around the future dedicated start.
                if dp_done {
                    return;
                }
                let claim = DedicatedClaim::of(&state.dedicated).expect("dedicated non-empty");
                self.core
                    .dedicated_cycle(&mut state.batch, ctx, claim, true, &mut state.shared);
                dp_done = true;
                continue;
            }
            // Lines 39–42: batch empty (or machine full) — promote a due
            // dedicated head so the next capacity release can start it.
            if let Some(d) = state.dedicated.head() {
                let dstart = d.class.requested_start().expect("dedicated start");
                if dstart <= now {
                    promote_head(state, ctx, self.promote_scount);
                    if ctx.free() == 0 {
                        return;
                    }
                    continue;
                }
            }
            return;
        }
        unreachable!("dedicated drive failed to converge");
    }
}

impl<P: BatchPolicy> StackLayer for WithDedicated<P> {
    fn admit(&mut self, job: JobView, state: &mut StackState) {
        if job.class.is_dedicated() {
            state.dedicated.insert(job);
        } else {
            self.core.on_admit(&job);
            state.batch.push_back(job);
        }
    }

    fn drive(&mut self, ctx: &mut dyn SchedContext, state: &mut StackState) {
        match self.core.skip_budget() {
            None => self.drive_bulk(ctx, state),
            Some(cs) => self.drive_interleaved(ctx, state, cs),
        }
    }

    fn name(&self) -> &'static str {
        self.core.dedicated_name()
    }
}

/// The malleable layer (the registry's `+m` flag): after the wrapped
/// layer's cycle it spends the proc-range slack of *running* jobs
/// ([`SchedContext::malleable_bounds`]) in two passes:
///
/// * **Shrink to admit** — while the batch head needs more processors
///   than are free, reclaim width from running malleable jobs (latest
///   finish first: they hold their processors longest) until the head
///   fits, then re-drive the wrapped layer over the widened machine.
///   Shrinks only happen when the reclaimable slack covers the head's
///   whole deficit — partial reclaims would pay reconfiguration cost
///   without admitting anyone.
/// * **Grow into free** — when the batch queue is empty, offer leftover
///   processors to running malleable jobs below their ceiling (latest
///   finish first: the most remaining work benefits most). A grow is
///   taken only when the work-conserving time saved exceeds the
///   engine's [`SchedContext::reconfig_charge`] and, under a dedicated
///   claim, only when holding `Δ` extra processors until the job's new
///   finish would not break the freeze window (`ded_allows`).
///
/// On a workload with no malleable jobs both passes see no candidates
/// and the layer is byte-for-byte the wrapped layer (the `+m`
/// degeneracy property, pinned by `tests/malleable_degeneracy.rs`).
#[derive(Debug, Default)]
pub struct WithMalleable<L> {
    pub(crate) inner: L,
    /// Reusable resize-candidate buffer `(job, slack)` — cleared and
    /// refilled each pass so steady-state cycles allocate nothing.
    scratch: Vec<(JobId, u32)>,
}

impl<L: StackLayer> WithMalleable<L> {
    /// Wrap a layer.
    pub fn new(inner: L) -> Self {
        WithMalleable {
            inner,
            scratch: Vec::new(),
        }
    }

    /// Shrink running malleable jobs until the blocked batch head fits,
    /// then re-drive the wrapped layer. Loops because the re-drive can
    /// start the head and expose a new blocked head; every iteration
    /// either starts a job or returns, so it terminates.
    fn shrink_to_admit(&mut self, ctx: &mut dyn SchedContext, state: &mut StackState) {
        let unit = ctx.unit().max(1);
        loop {
            let Some(head) = state.batch.head() else {
                return;
            };
            let need = head.view.num;
            let free = ctx.free();
            if need <= free {
                // Capacity is not the blocker (policy choice / freeze);
                // reclaiming width would be pure cost.
                return;
            }
            let deficit = need - free;
            self.scratch.clear();
            let mut reclaimable = 0u32;
            for rj in ctx.running().as_slice().iter().rev() {
                if let Some((floor, _)) = ctx.malleable_bounds(rj.id) {
                    let slack = rj.num.saturating_sub(floor);
                    if slack > 0 {
                        self.scratch.push((rj.id, slack));
                        reclaimable += slack;
                    }
                }
            }
            if reclaimable < deficit {
                return;
            }
            let mut still_needed = deficit;
            for &(id, slack) in &self.scratch {
                if still_needed == 0 {
                    break;
                }
                // Round the request up to the unit — the engine rounds
                // *down*, so asking for a sub-unit tail would reclaim 0.
                let want = still_needed.div_ceil(unit).saturating_mul(unit).min(slack);
                still_needed = still_needed.saturating_sub(ctx.shrink_running(id, want));
            }
            if still_needed > 0 {
                // Unit rounding left a gap; give up rather than spin.
                return;
            }
            self.inner.drive(ctx, state);
        }
    }

    /// Offer free processors to running malleable jobs below their
    /// ceiling. Only runs when the batch queue is empty — free capacity
    /// otherwise belongs to waiting work — and takes a grow only when it
    /// is profitable and freeze-safe (see the type docs).
    fn grow_into_free(&mut self, ctx: &mut dyn SchedContext, state: &mut StackState) {
        if !state.batch.is_empty() {
            return;
        }
        let unit = ctx.unit().max(1);
        if ctx.free() < unit {
            return;
        }
        let now = ctx.now();
        self.scratch.clear();
        for rj in ctx.running().as_slice().iter().rev() {
            if let Some((_, ceiling)) = ctx.malleable_bounds(rj.id) {
                if rj.num < ceiling {
                    self.scratch.push((rj.id, 0));
                }
            }
        }
        let claim = DedicatedClaim::of(&state.dedicated);
        for &(id, _) in &self.scratch {
            let free = ctx.free();
            if free < unit {
                return;
            }
            let Some(rj) = ctx.running().get(id) else {
                continue;
            };
            let Some((_, ceiling)) = ctx.malleable_bounds(id) else {
                continue;
            };
            let delta = (free - free % unit).min(ceiling - rj.num);
            if delta == 0 {
                continue;
            }
            let (old, new) = (u64::from(rj.num), u64::from(rj.num + delta));
            let remaining = rj.finish.saturating_since(now).as_secs();
            // Mirror the engine's work-conserving rescale (ceil against
            // the job): the grow must save more time than it charges.
            let scaled = (remaining * old).div_ceil(new);
            let charge = ctx.reconfig_charge(delta).as_secs();
            if remaining.saturating_sub(scaled) <= charge {
                continue;
            }
            if let Some(c) = &claim {
                // The grow holds `delta` extra processors until the
                // job's new finish — treat it like starting a job that
                // wide for that long against the freeze window
                // (recomputed per grow: each grow reshapes the set).
                let f = c.freeze(ctx);
                let new_dur = Duration::from_secs(scaled + charge);
                if !ded_allows(&f, now, delta, new_dur) {
                    continue;
                }
            }
            ctx.grow_running(id, delta);
        }
    }
}

/// The `+m` display name of a stack layer: every registry-reachable
/// inner name with a `-M` suffix. A `&'static str`-returning trait
/// forces a closed table; extend it alongside new cores.
fn malleable_name(inner: &'static str) -> &'static str {
    match inner {
        "FCFS" => "FCFS-M",
        "FCFS-D" => "FCFS-D-M",
        "Conservative" => "Conservative-M",
        "Conservative-D" => "Conservative-D-M",
        "EASY" => "EASY-M",
        "EASY-D" => "EASY-D-M",
        "LOS" => "LOS-M",
        "LOS-D" => "LOS-D-M",
        "Delayed-LOS" => "Delayed-LOS-M",
        "Hybrid-LOS" => "Hybrid-LOS-M",
        "Adaptive" => "Adaptive-M",
        "Adaptive-D" => "Adaptive-D-M",
        "SJF" => "SJF-M",
        "SJF-D" => "SJF-D-M",
        "SJF-BF" => "SJF-BF-M",
        "SJF-BF-D" => "SJF-BF-D-M",
        "Smallest-First" => "Smallest-First-M",
        "Smallest-First-D" => "Smallest-First-D-M",
        "Smallest-First-BF" => "Smallest-First-BF-M",
        "Smallest-First-BF-D" => "Smallest-First-BF-D-M",
        "Largest-First" => "Largest-First-M",
        "Largest-First-D" => "Largest-First-D-M",
        "Largest-First-BF" => "Largest-First-BF-M",
        "Largest-First-BF-D" => "Largest-First-BF-D-M",
        _ => "Malleable",
    }
}

impl<L: StackLayer> StackLayer for WithMalleable<L> {
    fn admit(&mut self, job: JobView, state: &mut StackState) {
        self.inner.admit(job, state);
    }

    fn drive(&mut self, ctx: &mut dyn SchedContext, state: &mut StackState) {
        self.inner.drive(ctx, state);
        self.shrink_to_admit(ctx, state);
        self.grow_into_free(ctx, state);
    }

    fn name(&self) -> &'static str {
        malleable_name(self.inner.name())
    }
}

/// The one `Scheduler` implementation driving every policy stack: it
/// owns the queues and shared resources, routes arrivals and ECCs,
/// counts cycles, and assembles [`SchedStats`].
#[derive(Debug, Default)]
pub struct PolicyStack<L> {
    pub(crate) layer: L,
    pub(crate) state: StackState,
}

impl<L: StackLayer> PolicyStack<L> {
    /// Assemble a stack from a layer.
    pub fn from_layer(layer: L) -> Self {
        PolicyStack {
            layer,
            state: StackState::default(),
        }
    }

    /// Decision counters accumulated so far.
    pub fn telemetry(&self) -> &Telemetry {
        &self.state.shared.telemetry
    }
}

impl<P: BatchPolicy> PolicyStack<BatchOnly<P>> {
    /// A batch-only stack over `core`.
    pub fn batch_only(core: P) -> Self {
        PolicyStack::from_layer(BatchOnly::new(core))
    }
}

impl<P: BatchPolicy> PolicyStack<WithDedicated<P>> {
    /// A dedicated-queue stack over `core` with the given promotion
    /// `scount` (see [`WithDedicated`]).
    pub fn with_dedicated(core: P, promote_scount: u32) -> Self {
        PolicyStack::from_layer(WithDedicated::new(core, promote_scount))
    }
}

impl<L: StackLayer> PolicyStack<WithMalleable<L>> {
    /// A malleable stack over an already-assembled `layer` (the
    /// registry's `+m` flag wraps the outermost layer).
    pub fn with_malleable(layer: L) -> Self {
        PolicyStack::from_layer(WithMalleable::new(layer))
    }
}

impl<L: StackLayer> Scheduler for PolicyStack<L> {
    fn on_arrival(&mut self, job: JobView) {
        self.layer.admit(job, &mut self.state);
    }

    fn on_queued_ecc(&mut self, id: JobId, num: u32, dur: Duration) {
        if !self.state.batch.apply_ecc(id, num, dur) {
            self.state.dedicated.apply_ecc(id, num, dur);
        }
    }

    fn cycle(&mut self, ctx: &mut dyn SchedContext) {
        self.state.shared.telemetry.cycles += 1;
        self.layer.drive(ctx, &mut self.state);
        let dp = self.state.shared.work.stats();
        self.state.shared.telemetry.record_dp(dp);
    }

    fn waiting_len(&self) -> usize {
        self.state.batch.len() + self.state.dedicated.len()
    }

    fn name(&self) -> &'static str {
        self.layer.name()
    }

    fn stats(&self) -> SchedStats {
        let mut stats: SchedStats = self.state.shared.work.stats().into();
        self.state.shared.telemetry.fill_sched_stats(&mut stats);
        stats
    }
}

/// Start jobs under a freeze budget: does the (optional) dedicated
/// freeze allow starting a `(num, dur)` job now? Allowed iff the job
/// finishes before the freeze end time or fits in the remaining freeze
/// capacity.
pub(crate) fn ded_allows(ded: &Option<Freeze>, now: SimTime, num: u32, dur: Duration) -> bool {
    match ded {
        None => true,
        Some(f) => !f.extends(now, dur) || num <= f.frec,
    }
}

/// Commit a started job against the dedicated freeze budget.
pub(crate) fn ded_commit(ded: &mut Option<Freeze>, now: SimTime, num: u32, dur: Duration) {
    if let Some(f) = ded {
        if f.extends(now, dur) {
            debug_assert!(f.frec >= num);
            f.frec -= num;
        }
    }
}

/// A no-op guard used by cores that ignore the freeze argument by
/// construction (Delayed-LOS is only ever driven unconstrained or via
/// its own `dedicated_cycle` override).
pub(crate) fn debug_assert_unconstrained(ded: &Option<Freeze>) {
    debug_assert!(
        ded.is_none(),
        "core does not support an external freeze constraint"
    );
    let _ = ded;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delayed_los::DelayedLosCore;
    use crate::easy::EasyCore;
    use crate::queue::WaitingJob;

    #[test]
    fn claim_of_empty_queue_is_none() {
        assert_eq!(DedicatedClaim::of(&DedicatedQueue::new()), None);
    }

    #[test]
    fn skip_budget_selects_protocol() {
        assert_eq!(EasyCore.skip_budget(), None, "EASY uses the bulk drive");
        assert_eq!(
            DelayedLosCore::new(5, 50).skip_budget(),
            Some(5),
            "Delayed-LOS uses the interleaved drive"
        );
    }

    #[test]
    fn names_compose() {
        assert_eq!(PolicyStack::batch_only(EasyCore).name(), "EASY");
        assert_eq!(PolicyStack::with_dedicated(EasyCore, 0).name(), "EASY-D");
        assert_eq!(
            PolicyStack::with_dedicated(DelayedLosCore::new(7, 50), 7).name(),
            "Hybrid-LOS"
        );
        assert_eq!(
            PolicyStack::with_malleable(BatchOnly::new(EasyCore)).name(),
            "EASY-M"
        );
        assert_eq!(
            PolicyStack::with_malleable(WithDedicated::new(DelayedLosCore::new(7, 50), 7)).name(),
            "Hybrid-LOS-M"
        );
    }

    #[test]
    fn malleable_name_table_covers_every_registry_stack() {
        use crate::registry::{CorePolicy, SchedParams, StackSpec};
        let p = SchedParams::default();
        for core in CorePolicy::ALL {
            for dedicated in [false, true] {
                let mut spec = StackSpec::plain(core);
                if dedicated {
                    spec = spec.with_dedicated();
                }
                let base = spec.build(p).name();
                let m = malleable_name(base);
                assert_eq!(m, format!("{base}-M"), "unmapped stack name {base:?}");
            }
        }
    }

    #[test]
    fn waiting_job_scount_defaults_to_zero() {
        let mut q = BatchQueue::new();
        q.push_back(elastisched_sim::JobView {
            id: JobId(1),
            num: 32,
            dur: Duration::from_secs(10),
            submit: SimTime::ZERO,
            class: elastisched_sim::JobClass::Batch,
        });
        let w: &WaitingJob = q.head().unwrap();
        assert_eq!(w.scount, 0);
    }
}
