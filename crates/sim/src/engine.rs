//! The discrete-event simulation engine.
//!
//! Plays a workload (job submissions plus Elastic Control Commands)
//! against a [`Scheduler`] on a [`Machine`], producing per-job outcomes
//! and the machine utilization integral. This is the Rust substitute for
//! the paper's GridSim + ALEA stack (§IV-A, §IV-B): an event-ordered
//! virtual clock, job arrival/completion events, an ECC processor, and a
//! scheduling cycle fired once per distinct event timestamp.

use crate::attribution::{AttrNotes, AttrState, AttributionProfile, Headroom};
use crate::ecc::{EccKind, EccPolicy, EccSpec};
use crate::event::{Event, EventQueue};
use crate::job::{JobId, JobOutcome, JobRecord, JobSpec, JobState, NO_SLOT};
use crate::machine::Machine;
use crate::reconfig::{ReconfigCost, ReconfigStats};
use crate::running::{RunningJob, RunningSet};
use crate::sampler::{RunTimeline, TimelineConfig, TimelineSample, TimelineSampler};
use crate::sched_api::{JobView, SchedContext, SchedStats, Scheduler, StartError};
use crate::source::{JobSource, SliceSource, SourceItem};
use crate::time::{Duration, SimTime};
use elastisched_trace::{trace_event, EccTag, PostmortemSnapshot, TraceEvent, TraceSink};
use std::collections::{hash_map, HashMap};

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The trace-facing tag for an engine-level ECC kind.
fn ecc_tag(kind: EccKind) -> EccTag {
    match kind {
        EccKind::ExtendTime => EccTag::ExtendTime,
        EccKind::ReduceTime => EccTag::ReduceTime,
        EccKind::ExtendProcs => EccTag::ExtendProcs,
        EccKind::ReduceProcs => EccTag::ReduceProcs,
    }
}

/// Deterministic multiplicative hasher for [`JobId`] keys.
///
/// The id → record map sits on the per-event hot path (arrivals, starts,
/// completions all go through it); SipHash costs more than the rest of
/// the lookup for a u64 key. A Fibonacci multiply spreads sequential ids
/// across the table and is seed-free, so runs are reproducible.
#[derive(Default)]
struct JobIdHasher(u64);

impl Hasher for JobIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 key fragments (none in practice).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // Fold the strong high bits into the low bits the table indexes by.
        self.0 = h ^ (h >> 32);
    }
}

type JobIdMap = HashMap<JobId, usize, BuildHasherDefault<JobIdHasher>>;

/// Simulation-level failures.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field names are self-describing
pub enum SimError {
    /// Two jobs share an id.
    DuplicateJobId(JobId),
    /// [`Engine::load`] was given an ECC issued before its job's submit:
    /// the command names a job that has not yet arrived.
    EccBeforeSubmit {
        job: JobId,
        issue_at: SimTime,
        submit: SimTime,
    },
    /// A job requests more processors than the machine has, or violates
    /// the allocation granularity — it could never be scheduled.
    ImpossibleJob { id: JobId, num: u32 },
    /// The event queue drained but jobs are still waiting: the scheduler
    /// starved them.
    Starvation { waiting: usize },
    /// A scheduler start request failed in a way that indicates an engine
    /// or scheduler bug (oversubscription attempts are bugs, not events).
    Start(String),
    /// A streamed [`JobSource`] yielded an item whose time precedes the
    /// virtual clock — the stream violated its non-decreasing-time
    /// contract (see [`crate::source`]).
    UnorderedSource { at: SimTime, clock: SimTime },
    /// An always-on audit check (the `audit` cargo feature) caught an
    /// engine-state inconsistency: capacity conservation, clock
    /// monotonicity, ECC/running-set accounting, reclamation-slab
    /// consistency, waiting-job FIFO order, or wait-attribution
    /// conservation. Never produced without the feature; when a flight
    /// recorder is armed the violation also dumps a postmortem (see
    /// [`Engine::enable_flight_recorder`]).
    AuditViolation {
        /// Which check family tripped: `capacity`, `clock`, `ecc`,
        /// `slab`, `fifo`, or `attribution`.
        check: &'static str,
        /// Human-readable specifics.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DuplicateJobId(id) => write!(f, "duplicate job id {id}"),
            SimError::EccBeforeSubmit {
                job,
                issue_at,
                submit,
            } => {
                write!(
                    f,
                    "ECC for {job} issued at {issue_at}, before its submit at {submit}"
                )
            }
            SimError::ImpossibleJob { id, num } => {
                write!(f, "{id} requests {num} processors and can never run")
            }
            SimError::Starvation { waiting } => {
                write!(f, "simulation ended with {waiting} jobs starved in queue")
            }
            SimError::Start(msg) => write!(f, "start failure: {msg}"),
            SimError::UnorderedSource { at, clock } => write!(
                f,
                "job source yielded an item at {}s behind the clock at {}s",
                at.as_secs(),
                clock.as_secs()
            ),
            SimError::AuditViolation { check, detail } => {
                write!(f, "audit violation [{check}]: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Counters describing what the ECC processor did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EccStats {
    /// Commands applied to running jobs.
    pub applied_running: u64,
    /// Commands applied to queued jobs.
    pub applied_queued: u64,
    /// Commands dropped by policy (elasticity disabled or per-job cap).
    pub dropped_policy: u64,
    /// Commands that arrived after their job completed, or that could not
    /// be honoured (e.g. EP with no spare capacity).
    pub dropped_stale: u64,
}

impl EccStats {
    /// Total commands applied.
    pub fn applied(&self) -> u64 {
        self.applied_running + self.applied_queued
    }
}

/// Event-loop performance counters: how much traffic the engine moved
/// and how much work same-instant cycle coalescing saved. Purely
/// diagnostic — none of these affect simulation semantics, and
/// `RunMetrics` equality ignores them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EngineStats {
    /// Events dispatched over the whole run.
    pub events: u64,
    /// Scheduler cycles fired (one per distinct event timestamp).
    pub cycles: u64,
    /// Events that shared a cycle with an earlier event at the same
    /// instant — i.e. scheduler invocations saved versus a naive
    /// one-cycle-per-event loop.
    pub events_coalesced: u64,
    /// Total event-queue operations (pushes + pops). Only events the run
    /// itself schedules (completions, wakeups) pass through the queue;
    /// arrivals and ECCs are admitted straight from the workload, so
    /// this is two per completed job plus rescheduled completions and
    /// wakeups.
    pub queue_ops: u64,
    /// Largest number of simultaneously pending events observed — the
    /// live completions and wakeups, not the trace length.
    pub peak_queue_len: u64,
    /// Wall-clock nanoseconds spent inside [`Engine::run`].
    pub engine_nanos: u64,
    /// High-water mark of the job-record slab. Completed jobs' slots are
    /// recycled, so this is the peak number of simultaneously *live*
    /// (admitted, not yet completed) jobs — the quantity a soak run's
    /// memory is proportional to.
    #[serde(default)]
    pub peak_live_jobs: u64,
    /// Peak number of simultaneously waiting jobs: the high-water mark
    /// of the engine's waiting list. (The name predates the list; it
    /// once counted a buffer of waiting-job views.)
    #[serde(default)]
    pub peak_wait_views: u64,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Scheduler name the run used.
    pub scheduler: &'static str,
    /// One outcome per completed job, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Machine size the run used.
    pub machine_total: u32,
    /// Busy processor-seconds integrated over the whole run.
    pub busy_area: f64,
    /// First job arrival.
    pub first_arrival: SimTime,
    /// Last job arrival.
    pub last_arrival: SimTime,
    /// Last job completion (the makespan horizon).
    pub makespan: SimTime,
    /// ECC processor counters.
    pub ecc: EccStats,
    /// Scheduler-initiated malleable-reconfiguration counters.
    pub reconfig: ReconfigStats,
    /// Decision-kernel counters reported by the scheduler.
    pub sched_stats: SchedStats,
    /// Event-loop counters (traffic, coalescing, wall-clock).
    pub engine: EngineStats,
    /// The trace recorded during the run (`None` unless tracing was
    /// enabled via [`Engine::enable_tracing`]).
    pub trace: Option<Box<TraceSink>>,
    /// The sampled virtual-time timeline (empty unless sampling was
    /// enabled via [`Engine::enable_timeline`]).
    pub timeline: RunTimeline,
    /// Per-run wait-attribution roll-up (empty unless attribution was
    /// enabled via [`Engine::enable_attribution`]).
    pub attribution: AttributionProfile,
}

impl SimResult {
    /// Mean machine utilization over `[0, makespan]` — the paper's
    /// utilization metric.
    pub fn mean_utilization(&self) -> f64 {
        let h = self.makespan.as_secs() as f64;
        if h <= 0.0 {
            return 0.0;
        }
        self.busy_area / (self.machine_total as f64 * h)
    }
}

fn round_up_to_unit(n: u32, unit: u32) -> u32 {
    n.div_ceil(unit) * unit
}

fn round_down_to_unit(n: u32, unit: u32) -> u32 {
    (n / unit) * unit
}

/// Work-conserving finish time after resizing a running job from
/// `old_alloc` to `new_alloc` processors at `now`: the remaining work
/// `remaining × old` is redistributed over the new width (rounding
/// against the job, i.e. up), so shrinking stretches the tail and
/// growing compresses it. The reconfiguration cost is charged on top by
/// the caller.
fn rescaled_finish(now: SimTime, finish: SimTime, old_alloc: u32, new_alloc: u32) -> SimTime {
    let remaining = (finish - now).as_secs();
    let scaled = (remaining * u64::from(old_alloc)).div_ceil(u64::from(new_alloc.max(1)));
    now + Duration::from_secs(scaled)
}

/// Running-set aggregates the timeline sampler and wait attribution
/// read every sample or cycle. Each site that starts, finishes or
/// resizes a running job, or applies an ECC to one, subtracts the job's
/// old [`Held::of`] share and adds its new one, so the planes read
/// counters instead of walking the running set with an id lookup per
/// job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Held {
    /// Processors held by running dedicated jobs.
    dedicated: u32,
    /// Processors held by running jobs that absorbed at least one ECC.
    ecc_jobs: u32,
    /// Expand-ECC headroom of those jobs: width above the preferred
    /// request not explained by malleable grows.
    ecc_gain: u32,
    /// Width held through malleable grows, `Σ min(mal_gain, num)`.
    malleable: u32,
}

impl Held {
    /// The share of one running job, whose width is `rec.alloc`.
    fn of(rec: &JobRecord) -> Held {
        let num = rec.alloc;
        let ecc = rec.ecc_count > 0;
        Held {
            dedicated: if rec.spec.class.is_dedicated() {
                num
            } else {
                0
            },
            ecc_jobs: if ecc { num } else { 0 },
            ecc_gain: if ecc {
                num.saturating_sub(rec.spec.num)
                    .saturating_sub(rec.mal_gain)
            } else {
                0
            },
            malleable: rec.mal_gain.min(num),
        }
    }

    fn add(&mut self, s: Held) {
        self.dedicated += s.dedicated;
        self.ecc_jobs += s.ecc_jobs;
        self.ecc_gain += s.ecc_gain;
        self.malleable += s.malleable;
    }

    fn sub(&mut self, s: Held) {
        self.dedicated -= s.dedicated;
        self.ecc_jobs -= s.ecc_jobs;
        self.ecc_gain -= s.ecc_gain;
        self.malleable -= s.malleable;
    }

    /// A running job's share changed from `old` to `new`.
    fn replace(&mut self, old: Held, new: Held) {
        self.sub(old);
        self.add(new);
    }
}

struct EngineState {
    now: SimTime,
    machine: Machine,
    running: RunningSet,
    /// Aggregates of `running`, kept in step with it (see [`Held`]).
    held: Held,
    records: Vec<JobRecord>,
    id_map: JobIdMap,
    queue: EventQueue,
    ecc_policy: EccPolicy,
    ecc_stats: EccStats,
    /// Cost model applied to scheduler-initiated grows/shrinks (see
    /// [`crate::reconfig`]); the counters track what was applied.
    reconfig_cost: ReconfigCost,
    reconfig: ReconfigStats,
    makespan: SimTime,
    /// The last completion key drawn (see [`EngineState::schedule_completion`]).
    last_completion_key: u64,
    /// Slots of the oldest and newest waiting records (`NO_SLOT` when
    /// none waits). The waiting records form one arrival-ordered list
    /// through the links in their [`JobState::Waiting`] state, read by
    /// the timeline sampler, the audit and the postmortem: an arrival
    /// appends and a start unlinks, each O(1).
    wait_first: u32,
    wait_last: u32,
    /// Length of that list, and its high-water mark (see
    /// [`EngineStats::peak_wait_views`]).
    waiting: usize,
    peak_waiting: usize,
    /// Free record-slab slots. A completed job's slot is recycled for a
    /// later arrival, so the slab tracks peak *live* jobs, not trace
    /// length.
    free_slots: Vec<usize>,
    /// Trace sink, present only when tracing was enabled for this run.
    /// Boxed so the disabled path carries one pointer, not the sink's
    /// inline histogram. `None` means every `trace_event!` call site in
    /// the engine and the schedulers is a single always-false branch.
    trace: Option<Box<TraceSink>>,
    /// Wait-attribution state, present only when enabled (see
    /// [`Engine::enable_attribution`]); same one-branch discipline as
    /// the trace sink.
    attr: Option<Box<AttrState>>,
}

impl EngineState {
    fn record(&self, id: JobId) -> Option<&JobRecord> {
        self.id_map.get(&id).map(|&i| &self.records[i])
    }

    /// [`Held`] recomputed from a walk over the running set, from each
    /// entry's width: what the kept counters must equal (checked by the
    /// audit and by debug builds).
    #[cfg(any(feature = "audit", debug_assertions))]
    fn walk_held(&self) -> Held {
        let mut held = Held::default();
        for rj in self.running.iter() {
            let Some(rec) = self.record(rj.id) else {
                continue;
            };
            if rec.spec.class.is_dedicated() {
                held.dedicated += rj.num;
            }
            if rec.ecc_count > 0 {
                held.ecc_jobs += rj.num;
                held.ecc_gain += rj
                    .num
                    .saturating_sub(rec.spec.num)
                    .saturating_sub(rec.mal_gain);
            }
            held.malleable += rec.mal_gain.min(rj.num);
        }
        held
    }

    /// Schedule the completion of the running job in `slot` at `at`
    /// under a fresh key, which makes every earlier completion event for
    /// the slot stale.
    fn schedule_completion(&mut self, slot: usize, at: SimTime) {
        self.last_completion_key += 1;
        let key = self.last_completion_key;
        self.records[slot].completion_key = key;
        let slot = slot as u32;
        self.queue.push(at, Event::Completion { slot, key });
    }

    /// The `(prev, next)` links of the waiting record in `slot`. Those
    /// of `NO_SLOT` are the list's ends, `(wait_last, wait_first)`, as if
    /// the list closed into a ring through one empty slot.
    fn links(&mut self, slot: u32) -> (&mut u32, &mut u32) {
        if slot == NO_SLOT {
            return (&mut self.wait_last, &mut self.wait_first);
        }
        match &mut self.records[slot as usize].state {
            JobState::Waiting { prev, next } => (prev, next),
            JobState::Running { .. } => unreachable!("a waiting job's neighbour waits"),
        }
    }

    /// The waiting records with their slots, oldest arrival first.
    fn waiting_list(&self) -> impl Iterator<Item = (u32, &JobRecord)> {
        let first = (self.wait_first != NO_SLOT).then_some(self.wait_first);
        std::iter::successors(first, |&slot| match self.records[slot as usize].state {
            JobState::Waiting { next, .. } => (next != NO_SLOT).then_some(next),
            JobState::Running { .. } => None,
        })
        .map(|slot| (slot, &self.records[slot as usize]))
    }
}

impl SchedContext for EngineState {
    fn now(&self) -> SimTime {
        self.now
    }

    fn total(&self) -> u32 {
        self.machine.total()
    }

    fn free(&self) -> u32 {
        self.machine.free()
    }

    fn unit(&self) -> u32 {
        self.machine.unit()
    }

    fn running(&self) -> &RunningSet {
        &self.running
    }

    fn start(&mut self, id: JobId) -> Result<(), StartError> {
        let now = self.now;
        let &idx = self.id_map.get(&id).ok_or(StartError::UnknownJob(id))?;
        let rec = &self.records[idx];
        let JobState::Waiting { prev, next } = rec.state else {
            return Err(StartError::NotWaiting(id));
        };
        // Final attribution charge: the job stops waiting this instant,
        // so the interval since its last charge goes to its pending
        // cause and the buckets telescope to exactly the job's wait.
        if let Some(attr) = self.attr.as_deref_mut() {
            attr.start(idx, now);
        }
        let alloc = rec.alloc;
        let kill_by = now + rec.est_dur;
        let completes = now + rec.actual_dur.min(rec.est_dur);
        // Allocate before mutating state so a machine refusal leaves the
        // job safely in the queue.
        self.machine.allocate(alloc, now)?;
        let rec = &mut self.records[idx];
        rec.state = JobState::Running {
            started: now,
            finish: kill_by,
        };
        self.held.add(Held::of(rec));
        self.running.insert(RunningJob {
            id,
            num: alloc,
            finish: kill_by,
        });
        self.schedule_completion(idx, completes);
        *self.links(prev).1 = next;
        *self.links(next).0 = prev;
        self.waiting -= 1;
        trace_event!(
            self.trace.as_deref_mut(),
            TraceEvent::Start {
                job: id.0,
                at: now.as_secs(),
                num: alloc,
            }
        );
        Ok(())
    }

    fn waiting_dur(&self, id: JobId) -> Option<Duration> {
        let rec = self.record(id)?;
        rec.is_waiting().then_some(rec.est_dur)
    }

    fn request_wakeup(&mut self, at: SimTime) {
        self.queue.push(at.max(self.now), Event::Wakeup);
    }

    fn trace(&mut self) -> Option<&mut TraceSink> {
        self.trace.as_deref_mut()
    }

    fn attribution(&mut self) -> Option<&mut AttrNotes> {
        self.attr.as_deref_mut().map(|a| &mut a.notes)
    }

    fn malleable_bounds(&self, id: JobId) -> Option<(u32, u32)> {
        let rec = self.record(id)?;
        if !rec.is_running() || !rec.spec.is_malleable() {
            return None;
        }
        let unit = self.machine.unit().max(1);
        let (min, max) = rec.spec.proc_range();
        let floor = round_up_to_unit(min.max(1), unit);
        let ceiling = round_down_to_unit(max, unit)
            .min(self.machine.total())
            .max(floor);
        Some((floor, ceiling))
    }

    fn shrink_running(&mut self, id: JobId, delta: u32) -> u32 {
        let Some((floor, _)) = self.malleable_bounds(id) else {
            return 0;
        };
        let now = self.now;
        let unit = self.machine.unit().max(1);
        let idx = self.id_map[&id];
        let rec = &mut self.records[idx];
        let JobState::Running { started, finish } = rec.state else {
            unreachable!("bounds imply a running job");
        };
        let shrink = round_down_to_unit(delta, unit).min(rec.alloc.saturating_sub(floor));
        if shrink == 0 {
            return 0;
        }
        let cost = self.reconfig_cost.charge(shrink, unit);
        let new_finish = rescaled_finish(now, finish, rec.alloc, rec.alloc - shrink) + cost;
        let old = Held::of(rec);
        rec.alloc -= shrink;
        rec.mal_gain = rec.mal_gain.saturating_sub(shrink);
        rec.est_dur = new_finish - started;
        rec.actual_dur = rec.est_dur;
        let alloc = rec.alloc;
        rec.state = JobState::Running {
            started,
            finish: new_finish,
        };
        let new = Held::of(rec);
        self.held.replace(old, new);
        self.running.update_num(id, alloc);
        self.running.update_finish(id, new_finish);
        self.schedule_completion(idx, new_finish);
        self.machine
            .release(shrink, now)
            .expect("shrink releases processors the job holds");
        self.reconfig.shrinks += 1;
        self.reconfig.procs_reclaimed += u64::from(shrink);
        self.reconfig.cost_secs += cost.as_secs();
        trace_event!(
            self.trace.as_deref_mut(),
            TraceEvent::Reconfig {
                job: id.0,
                at: now.as_secs(),
                grow: false,
                delta: shrink,
                num: alloc,
                cost: cost.as_secs(),
            }
        );
        shrink
    }

    fn grow_running(&mut self, id: JobId, delta: u32) -> u32 {
        let Some((_, ceiling)) = self.malleable_bounds(id) else {
            return 0;
        };
        let now = self.now;
        let unit = self.machine.unit().max(1);
        let idx = self.id_map[&id];
        let rec = &self.records[idx];
        let JobState::Running { started, finish } = rec.state else {
            unreachable!("bounds imply a running job");
        };
        let grow = round_down_to_unit(delta, unit)
            .min(ceiling.saturating_sub(rec.alloc))
            .min(round_down_to_unit(self.machine.free(), unit));
        if grow == 0 || !self.machine.can_fit(grow) {
            return 0;
        }
        let cost = self.reconfig_cost.charge(grow, unit);
        let new_finish = rescaled_finish(now, finish, rec.alloc, rec.alloc + grow) + cost;
        self.machine
            .allocate(grow, now)
            .expect("fit was checked above");
        let rec = &mut self.records[idx];
        let old = Held::of(rec);
        rec.alloc += grow;
        rec.mal_gain += grow;
        rec.est_dur = new_finish - started;
        rec.actual_dur = rec.est_dur;
        let alloc = rec.alloc;
        rec.state = JobState::Running {
            started,
            finish: new_finish,
        };
        let new = Held::of(rec);
        self.held.replace(old, new);
        self.running.update_num(id, alloc);
        self.running.update_finish(id, new_finish);
        self.schedule_completion(idx, new_finish);
        self.reconfig.grows += 1;
        self.reconfig.procs_granted += u64::from(grow);
        self.reconfig.cost_secs += cost.as_secs();
        trace_event!(
            self.trace.as_deref_mut(),
            TraceEvent::Reconfig {
                job: id.0,
                at: now.as_secs(),
                grow: true,
                delta: grow,
                num: alloc,
                cost: cost.as_secs(),
            }
        );
        grow
    }

    fn reconfig_charge(&self, delta: u32) -> Duration {
        self.reconfig_cost.charge(delta, self.machine.unit())
    }
}

/// Ring capacity of the flight recorder's implicit trace sink: enough
/// recent transitions to reconstruct the window around a failure
/// without the full-trace memory cost.
const FLIGHT_RING_CAPACITY: usize = 512;

/// The armed black-box recorder: where to dump, and whether it already
/// fired (one postmortem per run, first failure wins).
struct FlightRecorder {
    path: std::path::PathBuf,
    dumped: bool,
}

/// The simulation driver, generic over the scheduling policy.
pub struct Engine<S: Scheduler> {
    scheduler: S,
    state: EngineState,
    first_arrival: SimTime,
    last_arrival: SimTime,
    /// Jobs completed so far.
    completed: u64,
    /// Jobs and ECCs [`Engine::load`] validated, each stably sorted by
    /// time; [`Engine::run`] streams them through a [`SliceSource`].
    loaded_jobs: Vec<JobSpec>,
    loaded_eccs: Vec<EccSpec>,
    /// Virtual-time telemetry sampler, `None` (one branch per cycle)
    /// unless enabled. Boxed so the disabled engine carries a pointer,
    /// not the sample buffer.
    timeline: Option<Box<TimelineSampler>>,
    /// Armed flight recorder, `None` unless enabled.
    postmortem: Option<FlightRecorder>,
    /// Previous cycle's timestamp, for the audit layer's clock check.
    #[cfg(feature = "audit")]
    last_cycle_at: SimTime,
}

impl<S: Scheduler> Engine<S> {
    /// Build an engine over `machine` with the given ECC policy.
    pub fn new(machine: Machine, scheduler: S, ecc_policy: EccPolicy) -> Self {
        Engine {
            scheduler,
            state: EngineState {
                now: SimTime::ZERO,
                machine,
                running: RunningSet::new(),
                held: Held::default(),
                records: Vec::new(),
                id_map: JobIdMap::default(),
                queue: EventQueue::new(),
                ecc_policy,
                ecc_stats: EccStats::default(),
                reconfig_cost: ReconfigCost::default(),
                reconfig: ReconfigStats::default(),
                makespan: SimTime::ZERO,
                last_completion_key: 0,
                wait_first: NO_SLOT,
                wait_last: NO_SLOT,
                waiting: 0,
                peak_waiting: 0,
                free_slots: Vec::new(),
                trace: None,
                attr: None,
            },
            first_arrival: SimTime::MAX,
            last_arrival: SimTime::ZERO,
            completed: 0,
            loaded_jobs: Vec::new(),
            loaded_eccs: Vec::new(),
            timeline: None,
            postmortem: None,
            #[cfg(feature = "audit")]
            last_cycle_at: SimTime::ZERO,
        }
    }

    /// Attach a trace sink: the run records lifecycle, decision, and
    /// cycle events into it and hands it back in [`SimResult::trace`].
    /// Without this call tracing costs one branch per call site.
    pub fn enable_tracing(&mut self, sink: TraceSink) {
        self.state.trace = Some(Box::new(sink));
    }

    /// Record a [`RunTimeline`]: one [`TimelineSample`] per virtual-time
    /// stride at cycle boundaries, decimating (drop every other point,
    /// double the stride) whenever the point budget fills — so any run,
    /// 500 jobs or 10⁶, ends with at most `cfg.budget` samples. Without
    /// this call the sampler costs one branch per scheduling cycle.
    pub fn enable_timeline(&mut self, cfg: TimelineConfig) {
        self.timeline = Some(Box::new(TimelineSampler::new(cfg)));
    }

    /// Classify every second of every job's queue wait into blocking
    /// causes (see [`crate::attribution`] for the taxonomy): each cycle
    /// charges the elapsed interval to the cause decided at the
    /// previous cycle, so the per-job buckets telescope to exactly the
    /// job's wait. The per-job [`crate::WaitAttribution`] rides on its
    /// [`JobOutcome`] and the per-run [`AttributionProfile`] on
    /// [`SimResult::attribution`]. Per-job state is recycled with the
    /// record slot and the profile folds O(1) at completion, so soaks
    /// carry it in bounded memory. Without this call attribution costs
    /// one branch per scheduling cycle.
    pub fn enable_attribution(&mut self) {
        self.state.attr = Some(Box::default());
    }

    /// Set the cost model charged to scheduler-initiated grows and
    /// shrinks of running malleable jobs (see [`crate::reconfig`]).
    /// Defaults to [`ReconfigCost::default`]; [`ReconfigCost::FREE`]
    /// makes resizes free for upper-bound studies.
    pub fn set_reconfig_cost(&mut self, cost: ReconfigCost) {
        self.state.reconfig_cost = cost;
    }

    /// Arm the black-box flight recorder: if the run panics or aborts
    /// with an error (audit violations included), the recent-transition
    /// ring plus an engine-state snapshot is dumped as postmortem JSONL
    /// to `path` before the failure propagates (`escli explain
    /// --postmortem` replays it). When tracing is not otherwise enabled
    /// this installs a small fixed ring (`FLIGHT_RING_CAPACITY`
    /// events, timing off) that retains only the most recent
    /// transitions — always-cheap, per the ring-sink discipline — and
    /// hands it back in [`SimResult::trace`] like any other sink.
    pub fn enable_flight_recorder(&mut self, path: impl Into<std::path::PathBuf>) {
        if self.state.trace.is_none() {
            let mut sink = TraceSink::with_capacity(FLIGHT_RING_CAPACITY);
            sink.disable_timing();
            self.state.trace = Some(Box::new(sink));
        }
        self.postmortem = Some(FlightRecorder {
            path: path.into(),
            dumped: false,
        });
    }

    /// Load jobs and ECCs for [`Engine::run`]. The whole workload is
    /// validated here: an impossible job, a duplicate id (even one whose
    /// first holder completes before the second arrives) or an ECC issued
    /// before its job's submit fails the load. An ECC naming no loaded job
    /// is not an error; the run counts it `dropped_stale`. Jobs and ECCs
    /// are then each stably sorted by time: at one instant jobs are
    /// admitted before ECCs, each in slice order.
    pub fn load(&mut self, jobs: &[JobSpec], eccs: &[EccSpec]) -> Result<(), SimError> {
        // Worst case every job is live and waiting at once.
        self.state.records.reserve(jobs.len());
        self.state.free_slots.reserve(jobs.len());
        self.state.id_map.reserve(jobs.len());
        self.loaded_jobs.extend_from_slice(jobs);
        self.loaded_eccs.extend_from_slice(eccs);
        self.validate_loaded()?;
        self.loaded_jobs.sort_by_key(|j| j.submit);
        self.loaded_eccs.sort_by_key(|e| e.issue_at);
        Ok(())
    }

    /// [`Engine::load`]'s checks on everything loaded so far: one sorted
    /// `(id, submit)` table serves the duplicate scan and each ECC's
    /// lookup, so no per-run id set is built.
    fn validate_loaded(&self) -> Result<(), SimError> {
        let mut submits = Vec::with_capacity(self.loaded_jobs.len());
        for &spec in &self.loaded_jobs {
            self.check_fits(spec)?;
            submits.push((spec.id, spec.submit));
        }
        submits.sort_unstable();
        if let Some(w) = submits.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(SimError::DuplicateJobId(w[0].0));
        }
        for e in &self.loaded_eccs {
            if let Ok(i) = submits.binary_search_by_key(&e.job, |&(id, _)| id) {
                if e.issue_at < submits[i].1 {
                    return Err(SimError::EccBeforeSubmit {
                        job: e.job,
                        issue_at: e.issue_at,
                        submit: submits[i].1,
                    });
                }
            }
        }
        Ok(())
    }

    /// Run the loaded workload to completion: the event loop over a
    /// [`SliceSource`] of what [`Engine::load`] sorted, with every
    /// outcome collected into [`SimResult::outcomes`].
    pub fn run(mut self) -> Result<SimResult, SimError> {
        let jobs = std::mem::take(&mut self.loaded_jobs);
        let eccs = std::mem::take(&mut self.loaded_eccs);
        let mut outcomes = Vec::with_capacity(jobs.len());
        let mut collect = |o: &JobOutcome| outcomes.push(o.clone());
        let mut result = self.run_source(SliceSource::new(&jobs, &eccs), &mut collect)?;
        result.outcomes = outcomes;
        Ok(result)
    }

    /// Run `body` under the flight recorder's failure guard when one is
    /// armed: a panic or an error inside the loop dumps the postmortem
    /// before propagating. Unarmed (the default), this is a plain call —
    /// no `catch_unwind` frame and no branch inside the loop.
    fn guarded(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        if self.postmortem.is_none() {
            return body(self);
        }
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(self))) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => {
                self.dump_postmortem(&format!("run aborted: {e}"));
                Err(e)
            }
            Err(payload) => {
                self.dump_postmortem("panic in run loop");
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Run to completion while pulling the workload lazily from a
    /// [`JobSource`], handing each [`JobOutcome`] to `fold` at completion
    /// instead of retaining it.
    ///
    /// [`Engine::run`] drives the same loop: each job is enrolled when the
    /// clock reaches its arrival, and its record and id-map entry are
    /// reclaimed at completion, so peak memory tracks
    /// *live* jobs, not trace length. [`SimResult::outcomes`] comes back
    /// empty; the aggregate fields are unaffected.
    ///
    /// A stream is not validated ahead as [`Engine::load`] validates a
    /// slice (see [`crate::source`]): a duplicate job id is detected only
    /// while its first holder is live, and an ECC whose job has not
    /// arrived yet counts as `dropped_stale`.
    pub fn run_streaming_folded<Src: JobSource>(
        self,
        source: Src,
        fold: &mut dyn FnMut(&JobOutcome),
    ) -> Result<SimResult, SimError> {
        self.run_source(source, fold)
    }

    /// The one run path behind [`Engine::run`] and
    /// [`Engine::run_streaming_folded`]: trace preamble, guarded event
    /// loop, epilogue.
    fn run_source<Src: JobSource>(
        mut self,
        mut source: Src,
        fold: &mut dyn FnMut(&JobOutcome),
    ) -> Result<SimResult, SimError> {
        let wall = std::time::Instant::now();
        let mut engine_stats = EngineStats::default();
        // Trace preamble: just the run shape. Submit events are emitted
        // per job at admission.
        if let Some(tr) = self.state.trace.as_deref_mut() {
            tr.record(TraceEvent::RunMeta {
                total: self.state.machine.total(),
                unit: self.state.machine.unit(),
                scheduler: self.scheduler.name().to_string(),
            });
        }
        self.guarded(|eng| eng.event_loop(&mut source, fold, &mut engine_stats))?;
        self.finish(engine_stats, wall)
    }

    /// The event loop, separated from [`Engine::run_source`] so the
    /// flight recorder can wrap it in a panic guard without consuming
    /// the engine (the dump needs the post-unwind state).
    fn event_loop<Src: JobSource>(
        &mut self,
        source: &mut Src,
        fold: &mut dyn FnMut(&JobOutcome),
        engine_stats: &mut EngineStats,
    ) -> Result<(), SimError> {
        // Reused across instants: one batch drain per cycle, no
        // allocation once it reaches the burst high-water mark.
        let mut batch: Vec<Event> = Vec::new();
        // Exactly one item is held ahead of the clock so the next
        // instant is always known without draining the source.
        let mut pending = source.next_item();
        loop {
            let queue_t = self.state.queue.peek_time();
            let source_t = pending.as_ref().map(|i| i.time());
            let t = match (queue_t, source_t) {
                (None, None) => break,
                (Some(q), None) => q,
                (None, Some(s)) => s,
                (Some(q), Some(s)) => q.min(s),
            };
            if t < self.state.now {
                // Only a source item can sit behind the clock (queue
                // pushes are clamped to the present), so this is the
                // stream violating its ordering contract.
                return Err(SimError::UnorderedSource {
                    at: t,
                    clock: self.state.now,
                });
            }
            self.state.now = t;
            self.state.machine.advance_to(t);
            let mut dispatched = 0u64;
            // Admit every source item at this instant before draining
            // the queue, so arrivals and ECCs precede any event the run
            // itself scheduled for the same instant.
            while pending.as_ref().is_some_and(|i| i.time() == t) {
                let item = pending.take().expect("checked above");
                dispatched += 1;
                self.admit(item)?;
                pending = source.next_item();
            }
            // Dispatching may push *more* events at this same instant
            // (e.g. a reduce-time ECC completing a job right now);
            // re-draining until the instant is empty runs them after
            // everything already pending, in push order.
            while self.state.queue.peek_time() == Some(t) {
                self.state.queue.drain_next_instant(&mut batch);
                for ev in batch.drain(..) {
                    dispatched += 1;
                    // A wakeup only forces this cycle.
                    if let Event::Completion { slot, key } = ev {
                        self.handle_completion(slot as usize, key, fold)?;
                    }
                }
            }
            engine_stats.events += dispatched;
            engine_stats.events_coalesced += dispatched - 1;
            engine_stats.cycles += 1;
            self.end_cycle(t, dispatched)?;
        }
        Ok(())
    }

    /// [`SimError::ImpossibleJob`] unless the machine can ever run `spec`.
    fn check_fits(&self, spec: JobSpec) -> Result<(), SimError> {
        let (id, num) = (spec.id, spec.num);
        let fits = self.state.machine.is_valid_request(num);
        fits.map_err(|_| SimError::ImpossibleJob { id, num })
    }

    /// Validate an arriving job and give it a record slot, born
    /// [`JobState::Waiting`], and an id-map entry; returns the slot.
    fn enrol(&mut self, spec: JobSpec) -> Result<usize, SimError> {
        self.check_fits(spec)?;
        let state = &mut self.state;
        // A duplicate of a live id is rejected before it takes a slot, so
        // the live job keeps its id-map entry.
        let hash_map::Entry::Vacant(entry) = state.id_map.entry(spec.id) else {
            return Err(SimError::DuplicateJobId(spec.id));
        };
        // Recycle a completed job's slot when one is free, so the slab's
        // high-water mark is the peak live-job count.
        let idx = match state.free_slots.pop() {
            Some(idx) => {
                state.records[idx] = JobRecord::new(spec);
                idx
            }
            None => {
                state.records.push(JobRecord::new(spec));
                state.records.len() - 1
            }
        };
        entry.insert(idx);
        self.first_arrival = self.first_arrival.min(spec.submit);
        self.last_arrival = self.last_arrival.max(spec.submit);
        Ok(idx)
    }

    /// Admit one item at its own instant: a job's arrival, enrolled
    /// here, or an ECC.
    fn admit(&mut self, item: SourceItem) -> Result<(), SimError> {
        match item {
            SourceItem::Job(spec) => {
                let idx = self.enrol(spec)?;
                trace_event!(
                    self.state.trace.as_deref_mut(),
                    TraceEvent::Submit {
                        job: spec.id.0,
                        at: spec.submit.as_secs(),
                        num: spec.num,
                        dur: spec.dur.as_secs(),
                        dedicated: spec.class.requested_start().is_some(),
                    }
                );
                self.handle_arrival(idx);
                Ok(())
            }
            SourceItem::Ecc(ecc) => self.handle_ecc(ecc),
        }
    }

    /// Everything that happens once per distinct event timestamp after
    /// dispatch: the scheduling cycle, cycle tracing, timeline sampling,
    /// wait attribution, and invariants (debug asserts, or hard audit
    /// checks under the `audit` feature).
    fn end_cycle(&mut self, t: SimTime, dispatched: u64) -> Result<(), SimError> {
        // Cycle span timing happens only when a sink is attached
        // *and* its timing knob is on — the untraced hot path never
        // reads the wall clock here.
        let cycle_t0 = match &self.state.trace {
            Some(tr) if tr.timing() => Some(std::time::Instant::now()),
            _ => None,
        };
        self.scheduler.cycle(&mut self.state);
        if self.state.trace.is_some() {
            let nanos = cycle_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
            let queue_depth = self.state.queue.len() as u32;
            let free = self.state.machine.free();
            let tr = self.state.trace.as_deref_mut().expect("checked above");
            if tr.timing() {
                tr.cycle_hist.record(nanos);
            }
            if tr.cycle_due() {
                tr.record(TraceEvent::Cycle {
                    at: t.as_secs(),
                    events: dispatched.min(u64::from(u32::MAX)) as u32,
                    queue_depth,
                    free,
                    nanos,
                });
            }
        }
        // Timeline sampling: one branch per cycle when disabled, one
        // time comparison when enabled but not yet due.
        if let Some(sampler) = self.timeline.as_deref_mut() {
            if sampler.due(t) {
                sampler.push(Self::take_sample(&self.state, &self.scheduler, t));
            }
        }
        // Wait attribution: same one-branch-per-cycle discipline.
        if self.state.attr.is_some() {
            self.attribute_cycle(t);
        }
        // Audit checks run *before* the debug asserts so an injected or
        // genuine inconsistency surfaces as a recoverable
        // [`SimError::AuditViolation`] (with postmortem) rather than an
        // assert panic in debug builds.
        #[cfg(feature = "audit")]
        self.audit_cycle(t)?;
        #[cfg(debug_assertions)]
        {
            self.state.running.check_invariants();
            debug_assert_eq!(
                self.state.running.used(),
                self.state.machine.used(),
                "running set and machine disagree on allocation"
            );
            debug_assert_eq!(
                self.state.held,
                self.state.walk_held(),
                "held aggregates disagree with the running set"
            );
        }
        Ok(())
    }

    /// Capture one timeline point from post-cycle engine state. An
    /// associated function over disjoint borrows so the sampler itself
    /// can be held mutably by the caller.
    fn take_sample(state: &EngineState, scheduler: &S, at: SimTime) -> TimelineSample {
        let total = state.machine.total();
        let used = state.machine.used();
        // The waiting list is arrival-ordered: its first record is the
        // oldest waiting job.
        let oldest_wait_secs = state
            .waiting_list()
            .next()
            .map_or(0, |(_, rec)| at.saturating_since(rec.spec.submit).as_secs());
        let st = scheduler.stats();
        TimelineSample {
            at,
            util: if total == 0 {
                0.0
            } else {
                f64::from(used) / f64::from(total)
            },
            free: state.machine.free(),
            dedicated_procs: state.held.dedicated,
            ecc_procs: state.held.ecc_jobs,
            queue_depth: scheduler.waiting_len() as u32,
            oldest_wait_secs,
            running: state.running.len() as u32,
            event_queue_len: state.queue.len() as u32,
            eccs_applied: state.ecc_stats.applied(),
            reconfigs: state.reconfig.total(),
            dp_cache_hits: st.dp_cache_hits,
            dp_cache_misses: st.dp_cache_misses,
            dp_incremental_hits: st.dp_incremental_hits,
            dp_incremental_rebuilds: st.dp_incremental_rebuilds,
        }
    }

    /// Post-cycle attribution pass: the headroom each blocking cause
    /// holds — processors held by dedicated jobs, gained through
    /// expand-procs ECCs, or held above preferred width by malleable
    /// grows — comes from the engine's [`Held`] counters, and one
    /// hash-free pass over the running set names the capacity lead
    /// blocker. [`AttrState::cycle`] then derives one cause per waiting
    /// width class and charges only the jobs whose cause changed. Costs
    /// O(running + width classes + cause changes) per cycle, entered
    /// only when attribution is enabled.
    fn attribute_cycle(&mut self, t: SimTime) {
        let state = &mut self.state;
        let Some(attr) = state.attr.as_deref_mut() else {
            return;
        };
        // The capacity lead blocker is the largest single allocation;
        // ties break toward the lower id so both run paths agree
        // regardless of running-set iteration order.
        let mut blocker = JobId(u64::MAX);
        let mut blocker_num = 0u32;
        for rj in state.running.as_slice() {
            if rj.num > blocker_num || (rj.num == blocker_num && rj.id < blocker) {
                blocker = rj.id;
                blocker_num = rj.num;
            }
        }
        let room = Headroom {
            free: state.machine.free(),
            dedicated: state.held.dedicated,
            ecc: state.held.ecc_gain,
            malleable: state.held.malleable,
            blocker,
        };
        let id_map = &state.id_map;
        attr.cycle(t, &room, |id| id_map.get(&id).copied());
    }

    /// Dump the flight recorder's ring plus an engine-state snapshot to
    /// the armed postmortem path. No-op when unarmed or already dumped
    /// (first failure wins); write errors are swallowed — the original
    /// failure must stay the one that propagates.
    fn dump_postmortem(&mut self, reason: &str) {
        let Some(rec) = self.postmortem.as_mut() else {
            return;
        };
        if rec.dumped {
            return;
        }
        rec.dumped = true;
        let path = rec.path.clone();
        let queue_heads: Vec<String> = self
            .state
            .waiting_list()
            .take(8)
            .map(|(_, rec)| {
                format!(
                    "job {} ({} procs, {}s est, submitted t={}s)",
                    rec.spec.id.0,
                    rec.alloc,
                    rec.est_dur.as_secs(),
                    rec.spec.submit.as_secs()
                )
            })
            .collect();
        let sampler_tail: Vec<String> = self
            .timeline
            .as_deref()
            .map(|s| {
                let tail = s.samples();
                tail[tail.len().saturating_sub(8)..]
                    .iter()
                    .map(|p| serde_json::to_string(p).unwrap_or_default())
                    .collect()
            })
            .unwrap_or_default();
        let snapshot = PostmortemSnapshot {
            reason: reason.to_string(),
            at_secs: self.state.now.as_secs(),
            scheduler: self.scheduler.name().to_string(),
            machine_used: self.state.machine.used(),
            machine_total: self.state.machine.total(),
            event_queue_len: self.state.queue.len() as u64,
            running_jobs: self.state.running.len() as u64,
            waiting_jobs: self.scheduler.waiting_len() as u64,
            completed_jobs: self.completed,
            dropped_events: self.state.trace.as_deref().map_or(0, |t| t.dropped()),
            queue_heads,
            sampler_tail,
        };
        let events = self
            .state
            .trace
            .as_deref()
            .map(|t| t.events().cloned().collect::<Vec<_>>())
            .unwrap_or_default();
        let _ = elastisched_trace::write_postmortem(&path, &snapshot, &events);
        elastisched_trace::metric!(|reg| {
            reg.counter_add(elastisched_trace::metrics::keys::POSTMORTEM_DUMPS_TOTAL, 1);
        });
    }

    /// Count a named audit violation and build its error. The metric
    /// fires even when no flight recorder is armed, so a long campaign
    /// surfaces violations on `/metrics` without any other plumbing.
    #[cfg(feature = "audit")]
    fn audit_fail(check: &'static str, detail: String) -> SimError {
        elastisched_trace::metric!(|reg| {
            use elastisched_trace::metrics::keys;
            let key = match check {
                "capacity" => keys::AUDIT_CAPACITY_VIOLATIONS_TOTAL,
                "clock" => keys::AUDIT_CLOCK_VIOLATIONS_TOTAL,
                "ecc" => keys::AUDIT_ECC_VIOLATIONS_TOTAL,
                "slab" => keys::AUDIT_SLAB_VIOLATIONS_TOTAL,
                "attribution" => keys::AUDIT_ATTRIBUTION_VIOLATIONS_TOTAL,
                _ => keys::AUDIT_FIFO_VIOLATIONS_TOTAL,
            };
            reg.counter_add(key, 1);
        });
        SimError::AuditViolation { check, detail }
    }

    /// The always-on schedule audit: the invariants release builds used
    /// to compile out as `debug_assert!`s, promoted to hard per-cycle
    /// checks. Each failure is a named metric plus a recoverable
    /// [`SimError::AuditViolation`] (which the armed flight recorder
    /// turns into a postmortem dump). Cost is O(running + waiting) per
    /// cycle — the feature exists to be left on in soaks and services,
    /// not on the benchmark hot path.
    #[cfg(feature = "audit")]
    fn audit_cycle(&mut self, t: SimTime) -> Result<(), SimError> {
        // Virtual-clock monotonicity across cycles.
        if t < self.last_cycle_at {
            return Err(Self::audit_fail(
                "clock",
                format!(
                    "cycle at {}s after cycle at {}s",
                    t.as_secs(),
                    self.last_cycle_at.as_secs()
                ),
            ));
        }
        self.last_cycle_at = t;
        // Capacity conservation per node group: the machine's ledger,
        // the running set's ledger, and unit granularity must agree.
        let used = self.state.machine.used();
        let total = self.state.machine.total();
        let unit = self.state.machine.unit();
        if used > total || (unit > 0 && used % unit != 0) {
            return Err(Self::audit_fail(
                "capacity",
                format!("machine reports {used}/{total} used at unit {unit}"),
            ));
        }
        if self.state.running.used() != used {
            return Err(Self::audit_fail(
                "capacity",
                format!(
                    "running set holds {} procs but machine reports {used}",
                    self.state.running.used()
                ),
            ));
        }
        // ECC accounting: every running job's record must exist, be in
        // the Running state, and agree with the set on its (possibly
        // ECC-adjusted) allocation.
        for rj in self.state.running.iter() {
            let ok = self
                .state
                .record(rj.id)
                .is_some_and(|rec| rec.is_running() && rec.alloc == rj.num);
            if !ok {
                return Err(Self::audit_fail(
                    "ecc",
                    format!(
                        "running job {} ({} procs) disagrees with its record",
                        rj.id.0, rj.num
                    ),
                ));
            }
        }
        // Running-set aggregates: the counters every start, completion,
        // resize and running ECC updates must equal a fresh walk.
        let walked = self.state.walk_held();
        if self.state.held != walked {
            return Err(Self::audit_fail(
                "capacity",
                format!(
                    "held aggregates {:?} but the running set gives {walked:?}",
                    self.state.held
                ),
            ));
        }
        // Reclamation slab: every record slot is either live
        // (id-mapped) or free, never both, never neither.
        if self.state.id_map.len() + self.state.free_slots.len() != self.state.records.len() {
            return Err(Self::audit_fail(
                "slab",
                format!(
                    "{} live + {} free != {} slots",
                    self.state.id_map.len(),
                    self.state.free_slots.len(),
                    self.state.records.len()
                ),
            ));
        }
        // The waiting list: the walk from its first slot visits each
        // waiting record once, every back-link names the record before
        // it, and submit times never decrease (arrivals append in clock
        // order). Its length is the engine's count of it and the
        // scheduler's queue length.
        let fail = |detail: String| Self::audit_fail("fifo", detail);
        let waiting_recs = self.state.records.iter().filter(|r| r.is_waiting()).count();
        let (mut len, mut before, mut submitted) = (0, NO_SLOT, SimTime::ZERO);
        for (slot, rec) in self.state.waiting_list().take(waiting_recs + 1) {
            let JobState::Waiting { prev, .. } = rec.state else {
                return Err(fail(format!("running slot {slot} is on the waiting list")));
            };
            if prev != before || rec.spec.submit < submitted {
                return Err(fail(format!(
                    "waiting job {} in slot {slot} (submitted at {}s, back-link {prev}) \
                     follows slot {before} (submitted at {}s)",
                    rec.spec.id.0,
                    rec.spec.submit.as_secs(),
                    submitted.as_secs()
                )));
            }
            (len, before, submitted) = (len + 1, slot, rec.spec.submit);
        }
        let (queued, last) = (self.scheduler.waiting_len(), self.state.wait_last);
        let counted = self.state.waiting;
        if len != waiting_recs || len != queued || len != counted || before != last {
            return Err(fail(format!(
                "waiting list walks {len} records to slot {before} (last {last}, {counted} \
                 counted), but {waiting_recs} records wait and the scheduler queues {queued}"
            )));
        }
        Ok(())
    }

    /// Test-only: skew the machine's allocation ledger away from the
    /// running set so the next cycle's capacity audit trips. Exists so
    /// the audit→postmortem path can be proven end to end without
    /// planting a real engine bug.
    #[cfg(feature = "audit")]
    #[doc(hidden)]
    pub fn inject_capacity_skew_for_test(&mut self) {
        let unit = self.state.machine.unit().max(1);
        let now = self.state.now;
        let _ = self.state.machine.allocate(unit, now);
    }

    /// Post-loop epilogue shared by both run paths: starvation check,
    /// queue counters, the timeline's forced final sample, metrics
    /// flush, and the [`SimResult`] itself.
    fn finish(
        mut self,
        mut engine_stats: EngineStats,
        wall: std::time::Instant,
    ) -> Result<SimResult, SimError> {
        if self.scheduler.waiting_len() > 0 {
            return Err(SimError::Starvation {
                waiting: self.scheduler.waiting_len(),
            });
        }
        engine_stats.queue_ops = self.state.queue.ops();
        engine_stats.peak_queue_len = self.state.queue.peak_len() as u64;
        engine_stats.peak_live_jobs = self.state.records.len() as u64;
        engine_stats.peak_wait_views = self.state.peak_waiting as u64;
        engine_stats.engine_nanos = wall.elapsed().as_nanos() as u64;
        // Close the timeline with a forced end-of-run sample (replacing
        // the last one if the final cycle already sampled this instant),
        // so the makespan point is always present whatever the stride.
        let timeline = match self.timeline.take() {
            Some(mut sampler) => {
                let at = self.state.makespan.max(self.state.now);
                sampler.push(Self::take_sample(&self.state, &self.scheduler, at));
                sampler.into_timeline()
            }
            None => RunTimeline::default(),
        };
        let sched_stats = self.scheduler.stats();
        let attribution = self
            .state
            .attr
            .take()
            .map(|a| a.profile)
            .unwrap_or_default();
        // Flush run totals into the live metrics registry, once per run
        // — never per event, so the hot loop above stays registry-free.
        // `metric!` is a single branch on `None` when no registry is
        // installed (the default outside `--serve-metrics` campaigns).
        elastisched_trace::metric!(|reg| {
            use elastisched_trace::metrics::keys;
            reg.counter_add(keys::RUNS_TOTAL, 1);
            reg.counter_add(keys::JOBS_TOTAL, self.completed);
            reg.counter_add(keys::ENGINE_EVENTS_TOTAL, engine_stats.events);
            reg.counter_add(keys::ENGINE_CYCLES_TOTAL, engine_stats.cycles);
            reg.counter_add(keys::EVENTS_COALESCED_TOTAL, engine_stats.events_coalesced);
            reg.counter_add(keys::QUEUE_OPS_TOTAL, engine_stats.queue_ops);
            reg.counter_add(keys::ENGINE_NANOS_TOTAL, engine_stats.engine_nanos);
            reg.counter_add(keys::ECCS_APPLIED_TOTAL, self.state.ecc_stats.applied());
            reg.counter_add(keys::DP_CACHE_HITS_TOTAL, sched_stats.dp_cache_hits);
            reg.counter_add(keys::DP_CACHE_MISSES_TOTAL, sched_stats.dp_cache_misses);
            reg.counter_add(keys::DP_NANOS_TOTAL, sched_stats.dp_nanos);
            reg.counter_add(
                keys::DP_INCREMENTAL_HITS_TOTAL,
                sched_stats.dp_incremental_hits,
            );
            reg.counter_add(
                keys::DP_INCREMENTAL_REBUILDS_TOTAL,
                sched_stats.dp_incremental_rebuilds,
            );
            reg.counter_add(keys::HEAD_FORCE_STARTS_TOTAL, sched_stats.head_force_starts);
            reg.counter_add(keys::HEAD_SKIPS_TOTAL, sched_stats.head_skips);
            reg.counter_add(keys::DP_STARTS_TOTAL, sched_stats.dp_starts);
            reg.counter_add(
                keys::DEDICATED_PROMOTIONS_TOTAL,
                sched_stats.dedicated_promotions,
            );
            reg.gauge_set(
                keys::ENGINE_PEAK_WAIT_VIEWS,
                engine_stats.peak_wait_views as f64,
            );
            reg.gauge_set(
                keys::ENGINE_PEAK_LIVE_JOBS,
                engine_stats.peak_live_jobs as f64,
            );
            reg.gauge_set(keys::TIMELINE_SAMPLES, timeline.samples.len() as f64);
            if !attribution.is_empty() {
                reg.counter_add(keys::ATTR_JOBS_TOTAL, attribution.jobs);
                reg.counter_add(
                    keys::ATTR_CAPACITY_WAIT_SECONDS_TOTAL,
                    attribution.capacity_secs,
                );
                reg.counter_add(
                    keys::ATTR_DEDICATED_WAIT_SECONDS_TOTAL,
                    attribution.dedicated_secs,
                );
                reg.counter_add(keys::ATTR_ECC_WAIT_SECONDS_TOTAL, attribution.ecc_secs);
                reg.counter_add(
                    keys::ATTR_POLICY_SKIP_WAIT_SECONDS_TOTAL,
                    attribution.policy_skip_secs,
                );
                reg.counter_add(
                    keys::ATTR_FREEZE_WAIT_SECONDS_TOTAL,
                    attribution.freeze_secs,
                );
                reg.counter_add(
                    keys::ATTR_MALLEABLE_WAIT_SECONDS_TOTAL,
                    attribution.malleable_secs,
                );
            }
            if self.state.reconfig.total() > 0 {
                reg.counter_add(keys::RECONFIG_GROWS_TOTAL, self.state.reconfig.grows);
                reg.counter_add(keys::RECONFIG_SHRINKS_TOTAL, self.state.reconfig.shrinks);
                reg.counter_add(
                    keys::RECONFIG_PROCS_GRANTED_TOTAL,
                    self.state.reconfig.procs_granted,
                );
                reg.counter_add(
                    keys::RECONFIG_PROCS_RECLAIMED_TOTAL,
                    self.state.reconfig.procs_reclaimed,
                );
                reg.counter_add(
                    keys::RECONFIG_COST_SECONDS_TOTAL,
                    self.state.reconfig.cost_secs,
                );
            }
        });
        let state = self.state;
        Ok(SimResult {
            scheduler: self.scheduler.name(),
            sched_stats,
            outcomes: Vec::new(),
            machine_total: state.machine.total(),
            busy_area: state.machine.busy_area(),
            first_arrival: if self.first_arrival == SimTime::MAX {
                SimTime::ZERO
            } else {
                self.first_arrival
            },
            last_arrival: self.last_arrival,
            makespan: state.makespan,
            ecc: state.ecc_stats,
            reconfig: state.reconfig,
            engine: engine_stats,
            trace: state.trace,
            timeline,
            attribution,
        })
    }

    /// Queue the job just enrolled in slot `idx`.
    fn handle_arrival(&mut self, idx: usize) {
        let now = self.state.now;
        // Append the job to the waiting list.
        let last = self.state.wait_last;
        *self.state.links(last).1 = idx as u32;
        self.state.wait_last = idx as u32;
        self.state.waiting += 1;
        self.state.peak_waiting = self.state.peak_waiting.max(self.state.waiting);
        let rec = &mut self.state.records[idx];
        rec.state = JobState::Waiting {
            prev: last,
            next: NO_SLOT,
        };
        let id = rec.spec.id;
        let view = JobView {
            id,
            num: rec.alloc,
            dur: rec.est_dur,
            submit: rec.spec.submit,
            class: rec.spec.class,
        };
        let eligible = rec.spec.eligible_at();
        // Ensure a cycle fires exactly at a dedicated job's requested
        // start time, even if no other event lands there.
        if let Some(start) = rec.spec.class.requested_start() {
            if start > now {
                self.state.queue.push(start, Event::Wakeup);
            }
        }
        // Per-job attribution accumulator, slab-parallel to the record
        // (and recycled with its slot).
        if let Some(attr) = self.state.attr.as_deref_mut() {
            attr.arrive(idx, now, eligible, view.num);
        }
        trace_event!(
            self.state.trace.as_deref_mut(),
            TraceEvent::Queued {
                job: id.0,
                at: now.as_secs(),
            }
        );
        self.scheduler.on_arrival(view);
    }

    fn handle_completion(
        &mut self,
        idx: usize,
        key: u64,
        fold: &mut dyn FnMut(&JobOutcome),
    ) -> Result<(), SimError> {
        let now = self.state.now;
        let rec = &self.state.records[idx];
        if rec.completion_key != key {
            return Ok(()); // stale: re-keyed by a retime or resize, or its job is done
        }
        let JobState::Running { started, .. } = rec.state else {
            unreachable!("a current completion key implies a running job");
        };
        let (id, alloc) = (rec.spec.id, rec.alloc);
        self.state.held.sub(Held::of(rec));
        self.state
            .machine
            .release(alloc, now)
            .map_err(|e| SimError::Start(e.to_string()))?;
        self.state.running.remove(id);
        self.push_outcome(idx, id, started, now, alloc, fold)?;
        self.scheduler.on_completion(id);
        // The job is fully accounted for; free its id and slot so the
        // run's footprint tracks live jobs only. A late ECC naming the id
        // is dropped as stale, and any queued completion event for the
        // slot carries an older key.
        self.state.id_map.remove(&id);
        self.state.free_slots.push(idx);
        Ok(())
    }

    fn push_outcome(
        &mut self,
        idx: usize,
        id: JobId,
        started: SimTime,
        finished: SimTime,
        num: u32,
        fold: &mut dyn FnMut(&JobOutcome),
    ) -> Result<(), SimError> {
        let rec = &self.state.records[idx];
        let spec = &rec.spec;
        let eligible = spec.eligible_at();
        let wait = started.saturating_since(eligible);
        // Fold the job's wait attribution into the run profile (O(1),
        // so reclamation loses nothing) and hold the engine to
        // the conservation invariant: every charge lands at a cycle
        // instant, so the cause buckets must telescope to exactly the
        // wait. Under the audit feature a mismatch is a recoverable
        // violation; otherwise a debug assert.
        let mut attribution = None;
        if let Some(attr) = self.state.attr.as_deref_mut() {
            let ja = attr.jobs[idx];
            let total = ja.attr.total_secs();
            if total != wait.as_secs() {
                #[cfg(feature = "audit")]
                return Err(Self::audit_fail(
                    "attribution",
                    format!(
                        "job {} cause buckets sum to {total}s but it waited {}s",
                        id.0,
                        wait.as_secs()
                    ),
                ));
                #[cfg(not(feature = "audit"))]
                debug_assert_eq!(
                    total,
                    wait.as_secs(),
                    "attribution buckets must sum to job {}'s wait",
                    id.0
                );
            }
            attr.profile.fold(&ja.attr);
            attribution = Some(ja.attr);
        }
        let outcome = JobOutcome {
            id,
            submit: spec.submit,
            requested_start: spec.class.requested_start(),
            started,
            finished,
            num,
            runtime: finished.saturating_since(started),
            wait,
            attribution,
        };
        trace_event!(
            self.state.trace.as_deref_mut(),
            TraceEvent::Finish {
                job: id.0,
                at: finished.as_secs(),
                num,
                wait: outcome.wait.as_secs(),
                runtime: outcome.runtime.as_secs(),
            }
        );
        self.state.makespan = self.state.makespan.max(finished);
        self.completed += 1;
        fold(&outcome);
        Ok(())
    }

    fn handle_ecc(&mut self, ecc: EccSpec) -> Result<(), SimError> {
        let policy = self.state.ecc_policy;
        let allowed = if ecc.kind.is_time() {
            policy.time_elasticity
        } else {
            policy.resource_elasticity
        };
        if !allowed {
            self.state.ecc_stats.dropped_policy += 1;
            return Ok(());
        }
        let now = self.state.now;
        let unit = self.state.machine.unit();
        let total = self.state.machine.total();

        let Some(&idx) = self.state.id_map.get(&ecc.job) else {
            self.state.ecc_stats.dropped_stale += 1;
            return Ok(());
        };
        let rec = &mut self.state.records[idx];
        if rec.ecc_count >= policy.max_per_job {
            self.state.ecc_stats.dropped_policy += 1;
            return Ok(());
        }

        match rec.state {
            JobState::Running { started, finish } => {
                self.apply_running_ecc(ecc, idx, started, finish, now, unit)
            }
            JobState::Waiting { .. } => {
                let amount = Duration::from_secs(ecc.amount);
                match ecc.kind {
                    EccKind::ExtendTime => {
                        rec.est_dur = rec.est_dur.saturating_add(amount);
                        rec.actual_dur = rec.actual_dur.saturating_add(amount);
                    }
                    EccKind::ReduceTime => {
                        // A queued job keeps at least one second of work.
                        rec.est_dur = rec
                            .est_dur
                            .saturating_sub(amount)
                            .max(Duration::from_secs(1));
                        rec.actual_dur = rec
                            .actual_dur
                            .saturating_sub(amount)
                            .max(Duration::from_secs(1));
                    }
                    EccKind::ExtendProcs => {
                        let grown = rec.alloc.saturating_add(round_up_to_unit(
                            ecc.amount.min(u64::from(u32::MAX)) as u32,
                            unit,
                        ));
                        rec.alloc = grown.min(total);
                    }
                    EccKind::ReduceProcs => {
                        let shrink =
                            round_down_to_unit(ecc.amount.min(u64::from(u32::MAX)) as u32, unit);
                        rec.alloc = rec.alloc.saturating_sub(shrink).max(unit);
                    }
                }
                rec.ecc_count += 1;
                let (id, num, dur) = (ecc.job, rec.alloc, rec.est_dur);
                self.state.ecc_stats.applied_queued += 1;
                trace_event!(
                    self.state.trace.as_deref_mut(),
                    TraceEvent::Ecc {
                        job: id.0,
                        at: now.as_secs(),
                        kind: ecc_tag(ecc.kind),
                        amount: ecc.amount,
                        num,
                        queued: true,
                    }
                );
                // A width change moves the job to another attribution
                // class.
                if let Some(attr) = self.state.attr.as_deref_mut() {
                    attr.resize(idx, num);
                }
                self.scheduler.on_queued_ecc(id, num, dur);
                Ok(())
            }
        }
    }

    fn apply_running_ecc(
        &mut self,
        ecc: EccSpec,
        idx: usize,
        started: SimTime,
        finish: SimTime,
        now: SimTime,
        unit: u32,
    ) -> Result<(), SimError> {
        let id = ecc.job;
        match ecc.kind {
            EccKind::ExtendTime | EccKind::ReduceTime => {
                let amount = Duration::from_secs(ecc.amount);
                let new_finish = if ecc.kind == EccKind::ExtendTime {
                    finish + amount
                } else {
                    // Cannot cut below "complete right now".
                    SimTime::from_secs(finish.as_secs().saturating_sub(amount.as_secs())).max(now)
                };
                let rec = &mut self.state.records[idx];
                let old = Held::of(rec);
                rec.est_dur = new_finish - started;
                rec.actual_dur = rec.est_dur;
                rec.ecc_count += 1;
                let alloc = rec.alloc;
                rec.state = JobState::Running {
                    started,
                    finish: new_finish,
                };
                let new = Held::of(rec);
                self.state.held.replace(old, new);
                self.state.running.update_finish(id, new_finish);
                self.state.schedule_completion(idx, new_finish);
                self.state.ecc_stats.applied_running += 1;
                trace_event!(
                    self.state.trace.as_deref_mut(),
                    TraceEvent::Ecc {
                        job: id.0,
                        at: now.as_secs(),
                        kind: ecc_tag(ecc.kind),
                        amount: ecc.amount,
                        num: alloc,
                        queued: false,
                    }
                );
                Ok(())
            }
            EccKind::ExtendProcs => {
                let grow = round_up_to_unit(ecc.amount.min(u64::from(u32::MAX)) as u32, unit);
                if grow == 0 || !self.state.machine.can_fit(grow) {
                    self.state.ecc_stats.dropped_stale += 1;
                    return Ok(());
                }
                self.state
                    .machine
                    .allocate(grow, now)
                    .map_err(|e| SimError::Start(e.to_string()))?;
                let rec = &mut self.state.records[idx];
                let old = Held::of(rec);
                rec.alloc += grow;
                rec.ecc_count += 1;
                let alloc = rec.alloc;
                let new = Held::of(rec);
                self.state.held.replace(old, new);
                self.state.running.update_num(id, alloc);
                self.state.ecc_stats.applied_running += 1;
                trace_event!(
                    self.state.trace.as_deref_mut(),
                    TraceEvent::Ecc {
                        job: id.0,
                        at: now.as_secs(),
                        kind: ecc_tag(ecc.kind),
                        amount: ecc.amount,
                        num: alloc,
                        queued: false,
                    }
                );
                Ok(())
            }
            EccKind::ReduceProcs => {
                let rec = &mut self.state.records[idx];
                let shrink = round_down_to_unit(ecc.amount.min(u64::from(u32::MAX)) as u32, unit)
                    .min(rec.alloc.saturating_sub(unit));
                if shrink == 0 {
                    self.state.ecc_stats.dropped_stale += 1;
                    return Ok(());
                }
                let old = Held::of(rec);
                rec.alloc -= shrink;
                rec.ecc_count += 1;
                let alloc = rec.alloc;
                let new = Held::of(rec);
                self.state.held.replace(old, new);
                self.state.running.update_num(id, alloc);
                self.state
                    .machine
                    .release(shrink, now)
                    .map_err(|e| SimError::Start(e.to_string()))?;
                self.state.ecc_stats.applied_running += 1;
                trace_event!(
                    self.state.trace.as_deref_mut(),
                    TraceEvent::Ecc {
                        job: id.0,
                        at: now.as_secs(),
                        kind: ecc_tag(ecc.kind),
                        amount: ecc.amount,
                        num: alloc,
                        queued: false,
                    }
                );
                Ok(())
            }
        }
    }
}

/// Convenience: build, load, and run in one call.
pub fn simulate<S: Scheduler>(
    machine: Machine,
    scheduler: S,
    ecc_policy: EccPolicy,
    jobs: &[JobSpec],
    eccs: &[EccSpec],
) -> Result<SimResult, SimError> {
    let mut engine = Engine::new(machine, scheduler, ecc_policy);
    engine.load(jobs, eccs)?;
    engine.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    /// A trivial FIFO scheduler used only to exercise the engine: starts
    /// the head job whenever it fits, never reorders.
    struct TestFifo {
        queue: std::collections::VecDeque<JobView>,
    }

    impl TestFifo {
        fn new() -> Self {
            TestFifo {
                queue: std::collections::VecDeque::new(),
            }
        }
    }

    impl Scheduler for TestFifo {
        fn on_arrival(&mut self, job: JobView) {
            self.queue.push_back(job);
        }

        fn on_queued_ecc(&mut self, id: JobId, num: u32, dur: Duration) {
            if let Some(j) = self.queue.iter_mut().find(|j| j.id == id) {
                j.num = num;
                j.dur = dur;
            }
        }

        fn cycle(&mut self, ctx: &mut dyn SchedContext) {
            while let Some(head) = self.queue.front() {
                if head.num <= ctx.free() {
                    let id = head.id;
                    ctx.start(id).expect("fit was checked");
                    self.queue.pop_front();
                } else {
                    break;
                }
            }
        }

        fn waiting_len(&self) -> usize {
            self.queue.len()
        }

        fn name(&self) -> &'static str {
            "TestFifo"
        }
    }

    fn run_jobs(jobs: &[JobSpec], eccs: &[EccSpec], policy: EccPolicy) -> SimResult {
        simulate(Machine::bluegene_p(), TestFifo::new(), policy, jobs, eccs).unwrap()
    }

    /// A streamed run with its folded outcomes collected back into
    /// `SimResult::outcomes`, for comparison with a materialized run.
    fn run_streamed<S: Scheduler>(
        engine: Engine<S>,
        source: impl crate::source::JobSource,
    ) -> Result<SimResult, SimError> {
        let mut outcomes = Vec::new();
        let mut result = engine.run_streaming_folded(source, &mut |o| outcomes.push(o.clone()))?;
        result.outcomes = outcomes;
        Ok(result)
    }

    #[test]
    fn two_sequential_jobs_complete() {
        let jobs = vec![
            JobSpec::batch(1, 0, 320, 100),
            JobSpec::batch(2, 0, 320, 100),
        ];
        let r = run_jobs(&jobs, &[], EccPolicy::disabled());
        assert_eq!(r.outcomes.len(), 2);
        let o1 = &r.outcomes[0];
        let o2 = &r.outcomes[1];
        assert_eq!(o1.started, SimTime::from_secs(0));
        assert_eq!(o1.finished, SimTime::from_secs(100));
        assert_eq!(o2.started, SimTime::from_secs(100));
        assert_eq!(o2.finished, SimTime::from_secs(200));
        assert_eq!(r.makespan, SimTime::from_secs(200));
        // Both jobs kept the whole machine busy: utilization == 1.
        assert!((r.mean_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_jobs_share_machine() {
        let jobs = vec![
            JobSpec::batch(1, 0, 160, 100),
            JobSpec::batch(2, 0, 160, 100),
        ];
        let r = run_jobs(&jobs, &[], EccPolicy::disabled());
        assert_eq!(r.makespan, SimTime::from_secs(100));
        assert!((r.mean_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn busy_area_equals_work_done() {
        let jobs = vec![
            JobSpec::batch(1, 0, 96, 50),
            JobSpec::batch(2, 10, 64, 200),
            JobSpec::batch(3, 400, 32, 10),
        ];
        let r = run_jobs(&jobs, &[], EccPolicy::disabled());
        let work: f64 = r
            .outcomes
            .iter()
            .map(|o| o.num as f64 * o.runtime.as_secs_f64())
            .sum();
        assert!((r.busy_area - work).abs() < 1e-9);
    }

    #[test]
    fn extend_time_delays_completion() {
        let jobs = vec![JobSpec::batch(1, 0, 320, 100)];
        let eccs = vec![EccSpec::extend_time(JobId(1), SimTime::from_secs(50), 40)];
        let r = run_jobs(&jobs, &eccs, EccPolicy::time_only());
        assert_eq!(r.outcomes[0].finished, SimTime::from_secs(140));
        assert_eq!(r.ecc.applied_running, 1);
    }

    #[test]
    fn reduce_time_hastens_completion() {
        let jobs = vec![JobSpec::batch(1, 0, 320, 100)];
        let eccs = vec![EccSpec::reduce_time(JobId(1), SimTime::from_secs(50), 30)];
        let r = run_jobs(&jobs, &eccs, EccPolicy::time_only());
        assert_eq!(r.outcomes[0].finished, SimTime::from_secs(70));
    }

    #[test]
    fn reduce_time_clamps_at_now() {
        let jobs = vec![JobSpec::batch(1, 0, 320, 100)];
        let eccs = vec![EccSpec::reduce_time(JobId(1), SimTime::from_secs(90), 500)];
        let r = run_jobs(&jobs, &eccs, EccPolicy::time_only());
        assert_eq!(r.outcomes[0].finished, SimTime::from_secs(90));
    }

    #[test]
    fn ecc_on_queued_job_changes_runtime() {
        let jobs = vec![
            JobSpec::batch(1, 0, 320, 100),
            JobSpec::batch(2, 0, 320, 100), // waits behind job 1
        ];
        let eccs = vec![EccSpec::extend_time(JobId(2), SimTime::from_secs(10), 50)];
        let r = run_jobs(&jobs, &eccs, EccPolicy::time_only());
        let o2 = r.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(o2.runtime, Duration::from_secs(150));
        assert_eq!(r.ecc.applied_queued, 1);
    }

    #[test]
    fn disabled_policy_drops_all_eccs() {
        let jobs = vec![JobSpec::batch(1, 0, 320, 100)];
        let eccs = vec![EccSpec::extend_time(JobId(1), SimTime::from_secs(50), 40)];
        let r = run_jobs(&jobs, &eccs, EccPolicy::disabled());
        assert_eq!(r.outcomes[0].finished, SimTime::from_secs(100));
        assert_eq!(r.ecc.dropped_policy, 1);
    }

    #[test]
    fn per_job_ecc_cap_enforced() {
        let jobs = vec![JobSpec::batch(1, 0, 320, 100)];
        let eccs = vec![
            EccSpec::extend_time(JobId(1), SimTime::from_secs(10), 10),
            EccSpec::extend_time(JobId(1), SimTime::from_secs(20), 10),
            EccSpec::extend_time(JobId(1), SimTime::from_secs(30), 10),
        ];
        let r = run_jobs(&jobs, &eccs, EccPolicy::time_only().max_per_job(2));
        assert_eq!(r.outcomes[0].finished, SimTime::from_secs(120));
        assert_eq!(r.ecc.dropped_policy, 1);
    }

    #[test]
    fn ecc_after_completion_is_stale() {
        let jobs = vec![JobSpec::batch(1, 0, 320, 10)];
        let eccs = vec![EccSpec::extend_time(JobId(1), SimTime::from_secs(50), 40)];
        let r = run_jobs(&jobs, &eccs, EccPolicy::time_only());
        assert_eq!(r.outcomes[0].finished, SimTime::from_secs(10));
        assert_eq!(r.ecc.dropped_stale, 1);
    }

    #[test]
    fn processor_extension_grows_running_job() {
        let jobs = vec![JobSpec::batch(1, 0, 64, 100)];
        let eccs = vec![EccSpec {
            job: JobId(1),
            issue_at: SimTime::from_secs(50),
            kind: EccKind::ExtendProcs,
            amount: 64,
        }];
        let r = run_jobs(&jobs, &eccs, EccPolicy::with_resource_elasticity());
        assert_eq!(r.outcomes[0].num, 128);
        // 64 procs * 50 s + 128 procs * 50 s
        assert!((r.busy_area - (64.0 * 50.0 + 128.0 * 50.0)).abs() < 1e-9);
    }

    #[test]
    fn processor_reduction_shrinks_but_keeps_a_unit() {
        let jobs = vec![JobSpec::batch(1, 0, 64, 100)];
        let eccs = vec![EccSpec {
            job: JobId(1),
            issue_at: SimTime::from_secs(50),
            kind: EccKind::ReduceProcs,
            amount: 1000,
        }];
        let r = run_jobs(&jobs, &eccs, EccPolicy::with_resource_elasticity());
        assert_eq!(r.outcomes[0].num, 32, "cannot shrink below one unit");
    }

    #[test]
    fn impossible_job_rejected_at_load() {
        let jobs = vec![JobSpec::batch(1, 0, 352, 100)];
        let err = simulate(
            Machine::bluegene_p(),
            TestFifo::new(),
            EccPolicy::disabled(),
            &jobs,
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, SimError::ImpossibleJob { .. }));
    }

    #[test]
    fn duplicate_id_rejected() {
        let jobs = vec![JobSpec::batch(1, 0, 32, 100), JobSpec::batch(1, 5, 32, 10)];
        let err = simulate(
            Machine::bluegene_p(),
            TestFifo::new(),
            EccPolicy::disabled(),
            &jobs,
            &[],
        )
        .unwrap_err();
        assert_eq!(err, SimError::DuplicateJobId(JobId(1)));
    }

    #[test]
    fn dedicated_wakeup_triggers_cycle_at_requested_start() {
        // FIFO ignores requested starts, but the engine must still fire a
        // wakeup event at t=500 — observable as the job starting then,
        // because nothing else happens at t=500.
        let jobs = vec![
            JobSpec::batch(1, 0, 320, 100),
            JobSpec::dedicated(2, 0, 32, 10, 500),
        ];
        let r = run_jobs(&jobs, &[], EccPolicy::disabled());
        assert_eq!(r.outcomes.len(), 2);
    }

    #[test]
    fn wait_times_recorded_from_eligibility() {
        let jobs = vec![
            JobSpec::batch(1, 0, 320, 100),
            JobSpec::batch(2, 30, 320, 50),
        ];
        let r = run_jobs(&jobs, &[], EccPolicy::disabled());
        let o2 = r.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(o2.wait, Duration::from_secs(70)); // started at 100, arrived 30
    }

    #[test]
    fn zero_duration_job_completes_immediately() {
        let jobs = vec![JobSpec::batch(1, 0, 32, 0)];
        let r = run_jobs(&jobs, &[], EccPolicy::disabled());
        assert_eq!(r.outcomes[0].runtime, Duration::ZERO);
        assert_eq!(r.outcomes[0].finished, SimTime::ZERO);
    }

    #[test]
    fn overestimated_job_releases_early() {
        // est 100s but actually runs 40s: the next job starts at t=40.
        let mut j1 = JobSpec::batch(1, 0, 320, 100);
        j1.actual = Duration::from_secs(40);
        let jobs = vec![j1, JobSpec::batch(2, 0, 320, 10)];
        let r = run_jobs(&jobs, &[], EccPolicy::disabled());
        let o2 = r.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(o2.started, SimTime::from_secs(40));
    }

    #[test]
    fn untraced_run_carries_no_sink() {
        let r = run_jobs(&[JobSpec::batch(1, 0, 32, 10)], &[], EccPolicy::disabled());
        assert!(r.trace.is_none());
    }

    #[test]
    fn traced_run_records_full_lifecycle() {
        let jobs = vec![
            JobSpec::batch(1, 0, 320, 100),
            JobSpec::batch(2, 30, 320, 50),
        ];
        let mut engine = Engine::new(
            Machine::bluegene_p(),
            TestFifo::new(),
            EccPolicy::disabled(),
        );
        let mut sink = TraceSink::new();
        sink.disable_timing();
        engine.enable_tracing(sink);
        engine.load(&jobs, &[]).unwrap();
        let r = engine.run().unwrap();
        let tr = r.trace.as_deref().expect("tracing was enabled");
        let count = |f: fn(&TraceEvent) -> bool| tr.events().filter(|e| f(e)).count();
        assert_eq!(count(|e| matches!(e, TraceEvent::RunMeta { .. })), 1);
        assert_eq!(count(|e| matches!(e, TraceEvent::Submit { .. })), 2);
        assert_eq!(count(|e| matches!(e, TraceEvent::Queued { .. })), 2);
        assert_eq!(count(|e| matches!(e, TraceEvent::Start { .. })), 2);
        assert_eq!(count(|e| matches!(e, TraceEvent::Finish { .. })), 2);
        assert!(count(|e| matches!(e, TraceEvent::Cycle { .. })) > 0);
        // Timing disabled: every cycle span is zeroed and the histogram
        // stays empty, so the trace is byte-deterministic.
        assert!(tr
            .events()
            .all(|e| !matches!(e, TraceEvent::Cycle { nanos, .. } if *nanos != 0)));
        assert!(tr.cycle_hist.is_empty());
        // Job 2 waits 70 s; the Finish event carries the same accounting
        // as the outcome record.
        assert!(tr.events().any(|e| matches!(
            e,
            TraceEvent::Finish {
                job: 2,
                wait: 70,
                runtime: 50,
                ..
            }
        )));
    }

    #[test]
    fn timeline_disabled_leaves_result_empty() {
        let r = run_jobs(&[JobSpec::batch(1, 0, 32, 10)], &[], EccPolicy::disabled());
        assert!(r.timeline.is_empty());
    }

    #[test]
    fn timeline_sampling_is_budget_bounded_and_covers_the_run() {
        // 200 sequential full-machine jobs: plenty of distinct cycle
        // timestamps, so a 32-point budget must decimate repeatedly.
        let jobs: Vec<JobSpec> = (0..200)
            .map(|i| JobSpec::batch(i + 1, i * 10, 320, 50))
            .collect();
        let mut engine = Engine::new(
            Machine::bluegene_p(),
            TestFifo::new(),
            EccPolicy::disabled(),
        );
        engine.enable_timeline(crate::sampler::TimelineConfig {
            stride: Duration::from_secs(1),
            budget: 32,
        });
        engine.load(&jobs, &[]).unwrap();
        let r = engine.run().unwrap();
        let tl = &r.timeline;
        assert!(!tl.is_empty());
        assert!(
            tl.samples.len() <= 32,
            "budget exceeded: {}",
            tl.samples.len()
        );
        assert!(tl.decimations > 0, "a dense run must have decimated");
        assert_eq!(tl.samples[0].at, SimTime::ZERO, "first cycle retained");
        assert_eq!(
            tl.samples.last().unwrap().at,
            r.makespan,
            "forced end-of-run sample sits at the makespan"
        );
        // The final sample sees a drained system.
        let last = tl.samples.last().unwrap();
        assert_eq!(last.running, 0);
        assert_eq!(last.queue_depth, 0);
        assert_eq!(last.free, 320);
        // Mid-run samples saw the machine fully busy.
        assert!(tl.samples.iter().any(|s| s.util == 1.0));
    }

    #[test]
    fn traced_run_with_timing_populates_cycle_hist() {
        let jobs = vec![JobSpec::batch(1, 0, 32, 10)];
        let mut engine = Engine::new(
            Machine::bluegene_p(),
            TestFifo::new(),
            EccPolicy::disabled(),
        );
        engine.enable_tracing(TraceSink::new());
        engine.load(&jobs, &[]).unwrap();
        let r = engine.run().unwrap();
        let tr = r.trace.as_deref().unwrap();
        assert!(!tr.cycle_hist.is_empty());
    }

    mod streaming {
        use super::*;
        use crate::source::{JobSource, SliceSource, SourceItem};

        fn mixed_workload() -> (Vec<JobSpec>, Vec<EccSpec>) {
            // Overlapping jobs, a dedicated job, and ECCs that land while
            // their targets are queued, running, and completed — every
            // admission path the streaming loop has to reproduce.
            let mut j3 = JobSpec::batch(3, 40, 320, 200);
            j3.actual = Duration::from_secs(120);
            let jobs = vec![
                JobSpec::batch(1, 0, 160, 100),
                JobSpec::batch(2, 0, 160, 80),
                j3,
                JobSpec::dedicated(4, 50, 32, 30, 400),
                JobSpec::batch(5, 50, 64, 60),
                JobSpec::batch(6, 300, 320, 10),
            ];
            let eccs = vec![
                EccSpec::extend_time(JobId(2), SimTime::from_secs(40), 20),
                EccSpec::reduce_time(JobId(3), SimTime::from_secs(50), 30),
                EccSpec::extend_time(JobId(5), SimTime::from_secs(60), 25),
                EccSpec::extend_time(JobId(1), SimTime::from_secs(150), 10), // stale
            ];
            (jobs, eccs)
        }

        fn materialized(jobs: &[JobSpec], eccs: &[EccSpec]) -> SimResult {
            simulate(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::time_only(),
                jobs,
                eccs,
            )
            .unwrap()
        }

        #[test]
        fn streaming_reproduces_the_materialized_run() {
            let (jobs, eccs) = mixed_workload();
            let mat = materialized(&jobs, &eccs);
            let engine = Engine::new(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::time_only(),
            );
            let st = run_streamed(engine, SliceSource::new(&jobs, &eccs)).unwrap();
            assert_eq!(st.outcomes, mat.outcomes);
            assert_eq!(st.makespan, mat.makespan);
            assert_eq!(st.busy_area, mat.busy_area);
            assert_eq!(st.ecc, mat.ecc);
            assert_eq!(st.first_arrival, mat.first_arrival);
            assert_eq!(st.last_arrival, mat.last_arrival);
            assert_eq!(st.engine.events, mat.engine.events);
            assert_eq!(st.engine.cycles, mat.engine.cycles);
        }

        #[test]
        fn folded_run_yields_the_same_outcomes_without_retaining_them() {
            let (jobs, eccs) = mixed_workload();
            let mat = materialized(&jobs, &eccs);
            let engine = Engine::new(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::time_only(),
            );
            let mut folded = Vec::new();
            let st = engine
                .run_streaming_folded(SliceSource::new(&jobs, &eccs), &mut |o| {
                    folded.push(o.clone())
                })
                .unwrap();
            assert!(
                st.outcomes.is_empty(),
                "folded run must not retain outcomes"
            );
            assert_eq!(folded, mat.outcomes);
            assert_eq!(st.makespan, mat.makespan);
            assert_eq!(st.busy_area, mat.busy_area);
        }

        #[test]
        fn streaming_reclaims_job_state() {
            // 1000 strictly sequential full-machine jobs: only one is
            // ever live, so the record slab must stay tiny, whether the
            // jobs were loaded up front or streamed.
            let jobs: Vec<JobSpec> = (0..1000)
                .map(|i| JobSpec::batch(i + 1, i * 100, 320, 50))
                .collect();
            let mat = materialized(&jobs, &[]);
            let engine = Engine::new(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::disabled(),
            );
            let st = run_streamed(engine, SliceSource::new(&jobs, &[])).unwrap();
            assert_eq!(st.outcomes, mat.outcomes);
            for r in [&mat, &st] {
                assert!(
                    r.engine.peak_live_jobs <= 2,
                    "record slab grew to {} for sequential jobs",
                    r.engine.peak_live_jobs
                );
            }
        }

        #[test]
        fn lifo_peak_wait_count_is_the_live_backlog() {
            // A LIFO policy starts almost every job from the tail of the
            // waiting list, never its head; the peak count must still be
            // the live backlog, not a count of past arrivals.
            struct TestLifo {
                queue: Vec<JobView>,
            }
            impl Scheduler for TestLifo {
                fn on_arrival(&mut self, job: JobView) {
                    self.queue.push(job);
                }
                fn cycle(&mut self, ctx: &mut dyn SchedContext) {
                    while let Some(last) = self.queue.last() {
                        if last.num <= ctx.free() {
                            ctx.start(last.id).expect("fit was checked");
                            self.queue.pop();
                        } else {
                            break;
                        }
                    }
                }
                fn waiting_len(&self) -> usize {
                    self.queue.len()
                }
                fn name(&self) -> &'static str {
                    "TestLifo"
                }
            }
            // 1667 bursts of three full-machine jobs, each burst started
            // before the next arrives: three jobs wait at once, never
            // more.
            let jobs: Vec<JobSpec> = (0..5001)
                .map(|i| JobSpec::batch(i + 1, (i / 3) * 6, 320, 2))
                .collect();
            let r = simulate(
                Machine::bluegene_p(),
                TestLifo { queue: Vec::new() },
                EccPolicy::disabled(),
                &jobs,
                &[],
            )
            .unwrap();
            assert_eq!(r.outcomes.len(), 5001);
            assert_eq!(r.engine.peak_wait_views, 3);
        }

        #[test]
        fn streaming_timeline_matches_materialized_exactly() {
            let (jobs, eccs) = mixed_workload();
            let cfg = crate::sampler::TimelineConfig {
                stride: Duration::from_secs(1),
                budget: 16,
            };
            let mut m = Engine::new(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::time_only(),
            );
            m.enable_timeline(cfg);
            m.load(&jobs, &eccs).unwrap();
            let mat = m.run().unwrap();
            let mut s = Engine::new(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::time_only(),
            );
            s.enable_timeline(cfg);
            let st = run_streamed(s, SliceSource::new(&jobs, &eccs)).unwrap();
            assert!(!mat.timeline.is_empty());
            // Field-for-field identity, `event_queue_len` included.
            assert_eq!(mat.timeline, st.timeline);
        }

        #[test]
        fn flight_recorder_dumps_a_parseable_postmortem_on_loop_error() {
            // A backwards source fails inside the guarded loop with
            // UnorderedSource; the armed recorder must leave a readable
            // dump behind before the error propagates.
            struct Backwards(u32);
            impl JobSource for Backwards {
                fn next_item(&mut self) -> Option<SourceItem> {
                    self.0 += 1;
                    match self.0 {
                        1 => Some(SourceItem::Job(JobSpec::batch(1, 100, 32, 10))),
                        2 => Some(SourceItem::Job(JobSpec::batch(2, 50, 32, 10))),
                        _ => None,
                    }
                }
            }
            let path = std::env::temp_dir().join(format!(
                "elastisched-postmortem-unordered-{}.jsonl",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let mut engine = Engine::new(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::disabled(),
            );
            engine.enable_flight_recorder(&path);
            let err = run_streamed(engine, Backwards(0)).unwrap_err();
            assert!(matches!(err, SimError::UnorderedSource { .. }), "{err}");
            let text = std::fs::read_to_string(&path).expect("postmortem file written");
            let (snap, events) = elastisched_trace::read_postmortem(&text).unwrap();
            assert!(snap.reason.contains("behind the clock"), "{}", snap.reason);
            assert_eq!(snap.scheduler, "TestFifo");
            assert_eq!(snap.machine_total, 320);
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::Submit { job: 1, .. })),
                "ring retained the admission preceding the failure"
            );
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn unordered_source_is_rejected() {
            struct Backwards(u32);
            impl JobSource for Backwards {
                fn next_item(&mut self) -> Option<SourceItem> {
                    self.0 += 1;
                    match self.0 {
                        1 => Some(SourceItem::Job(JobSpec::batch(1, 100, 32, 10))),
                        2 => Some(SourceItem::Job(JobSpec::batch(2, 50, 32, 10))),
                        _ => None,
                    }
                }
            }
            let engine = Engine::new(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::disabled(),
            );
            let err = run_streamed(engine, Backwards(0)).unwrap_err();
            assert!(matches!(err, SimError::UnorderedSource { .. }), "{err}");
        }

        #[test]
        fn duplicate_live_id_is_rejected_mid_stream() {
            let jobs = vec![
                JobSpec::batch(1, 0, 32, 1000),
                JobSpec::batch(1, 10, 32, 10),
            ];
            let engine = Engine::new(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::disabled(),
            );
            let err = run_streamed(engine, SliceSource::new(&jobs, &[])).unwrap_err();
            assert_eq!(err, SimError::DuplicateJobId(JobId(1)));
        }

        #[test]
        fn duplicate_live_id_leaves_the_live_record_mapped() {
            let mut engine = Engine::new(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::disabled(),
            );
            engine
                .admit(SourceItem::Job(JobSpec::batch(1, 0, 32, 1000)))
                .unwrap();
            let err = engine
                .admit(SourceItem::Job(JobSpec::batch(1, 10, 64, 10)))
                .unwrap_err();
            assert_eq!(err, SimError::DuplicateJobId(JobId(1)));
            assert_eq!(
                engine.state.id_map[&JobId(1)],
                0,
                "id still names the live slot"
            );
            assert_eq!(engine.state.records.len(), 1, "no orphan record");
            assert_eq!(engine.state.records[0].spec.num, 32);
            assert!(engine.state.free_slots.is_empty());
        }

        #[test]
        fn reused_id_after_completion_is_admitted() {
            // Part of the documented streaming contract: uniqueness is
            // only enforced among live jobs, so an id recycled after its
            // first holder completed is a fresh job.
            let jobs = vec![
                JobSpec::batch(1, 0, 320, 10),
                JobSpec::batch(1, 100, 320, 10),
            ];
            let engine = Engine::new(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::disabled(),
            );
            let st = run_streamed(engine, SliceSource::new(&jobs, &[])).unwrap();
            assert_eq!(st.outcomes.len(), 2);
            assert_eq!(st.makespan, SimTime::from_secs(110));
        }

        #[test]
        fn impossible_job_rejected_at_admission() {
            let jobs = vec![JobSpec::batch(1, 0, 352, 100)];
            let engine = Engine::new(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::disabled(),
            );
            let err = run_streamed(engine, SliceSource::new(&jobs, &[])).unwrap_err();
            assert!(matches!(err, SimError::ImpossibleJob { .. }));
        }

        #[test]
        fn empty_source_finishes_clean() {
            let engine = Engine::new(
                Machine::bluegene_p(),
                TestFifo::new(),
                EccPolicy::disabled(),
            );
            let st = run_streamed(engine, SliceSource::new(&[], &[])).unwrap();
            assert!(st.outcomes.is_empty());
            assert_eq!(st.engine.events, 0);
        }
    }

    mod malleable {
        use super::*;
        use crate::reconfig::ReconfigCost;
        use crate::SliceSource;

        /// FIFO that reclaims width from running malleable jobs when the
        /// head does not fit, and (optionally) grows running malleable
        /// jobs into leftover free processors — a miniature of the `+m`
        /// stack layer, used to exercise the engine API directly.
        struct MalleableFifo {
            queue: std::collections::VecDeque<JobView>,
            grow_after: bool,
        }

        impl MalleableFifo {
            fn new(grow_after: bool) -> Self {
                MalleableFifo {
                    queue: std::collections::VecDeque::new(),
                    grow_after,
                }
            }
        }

        impl Scheduler for MalleableFifo {
            fn on_arrival(&mut self, job: JobView) {
                self.queue.push_back(job);
            }

            fn cycle(&mut self, ctx: &mut dyn SchedContext) {
                while let Some(head) = self.queue.front().copied() {
                    if head.num > ctx.free() {
                        let need = head.num - ctx.free();
                        let ids: Vec<JobId> = ctx.running().iter().map(|r| r.id).collect();
                        let mut got = 0u32;
                        for id in ids {
                            if got >= need {
                                break;
                            }
                            got += ctx.shrink_running(id, need - got);
                        }
                    }
                    if head.num <= ctx.free() {
                        ctx.start(head.id).expect("fit was ensured");
                        self.queue.pop_front();
                    } else {
                        break;
                    }
                }
                if self.grow_after {
                    let ids: Vec<JobId> = ctx.running().iter().map(|r| r.id).collect();
                    for id in ids {
                        let free = ctx.free();
                        if free == 0 {
                            break;
                        }
                        ctx.grow_running(id, free);
                    }
                }
            }

            fn waiting_len(&self) -> usize {
                self.queue.len()
            }

            fn name(&self) -> &'static str {
                "MalleableFifo"
            }
        }

        #[test]
        fn shrink_admits_blocked_head_and_charges_cost() {
            // Job 1 holds 256 of 320 but tolerates 128; job 2 needs 128.
            let jobs = vec![
                JobSpec::batch(1, 0, 256, 100).with_proc_range(128, 320),
                JobSpec::batch(2, 10, 128, 100),
            ];
            let r = simulate(
                Machine::bluegene_p(),
                MalleableFifo::new(false),
                EccPolicy::disabled(),
                &jobs,
                &[],
            )
            .unwrap();
            let o2 = r.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
            assert_eq!(
                o2.started,
                SimTime::from_secs(10),
                "head admitted via shrink"
            );
            let o1 = r.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
            // Work-conserving stretch: 90 s remaining at t=10 over
            // 256→192 procs is ceil(90·256/192) = 120 s, plus the
            // reconfiguration cost for 2 units (30 + 2·5 = 40 s).
            assert_eq!(o1.finished, SimTime::from_secs(170));
            assert_eq!(o1.num, 192);
            assert_eq!(r.reconfig.shrinks, 1);
            assert_eq!(r.reconfig.procs_reclaimed, 64);
            assert_eq!(r.reconfig.cost_secs, 40);
            assert_eq!(r.reconfig.grows, 0);
        }

        #[test]
        fn grow_takes_free_procs_and_shortens_runtime() {
            let jobs = vec![JobSpec::batch(1, 0, 64, 100).with_proc_range(64, 128)];
            let r = simulate(
                Machine::bluegene_p(),
                MalleableFifo::new(true),
                EccPolicy::disabled(),
                &jobs,
                &[],
            )
            .unwrap();
            let o = &r.outcomes[0];
            // Grew 64→128 (ceiling-clamped despite 256 free): the 100 s
            // of remaining work halves to 50 s, plus the cost for 2
            // units (30 + 2·5 = 40 s) — a net 10 s win.
            assert_eq!(o.num, 128);
            assert_eq!(o.finished, SimTime::from_secs(90));
            assert_eq!(r.reconfig.grows, 1);
            assert_eq!(r.reconfig.procs_granted, 64);
        }

        #[test]
        fn free_cost_model_resizes_without_penalty() {
            let jobs = vec![JobSpec::batch(1, 0, 64, 100).with_proc_range(64, 128)];
            let mut engine = Engine::new(
                Machine::bluegene_p(),
                MalleableFifo::new(true),
                EccPolicy::disabled(),
            );
            engine.set_reconfig_cost(ReconfigCost::FREE);
            engine.load(&jobs, &[]).unwrap();
            let r = engine.run().unwrap();
            assert_eq!(r.outcomes[0].num, 128);
            // Free resize: the work-conserving halving is all there is.
            assert_eq!(r.outcomes[0].finished, SimTime::from_secs(50));
            assert_eq!(r.reconfig.cost_secs, 0);
        }

        #[test]
        fn rigid_jobs_expose_no_bounds_and_refuse_resizes() {
            // The grow-capable scheduler on an all-rigid workload must
            // reproduce the plain-FIFO run exactly.
            let jobs = vec![
                JobSpec::batch(1, 0, 256, 100),
                JobSpec::batch(2, 10, 128, 100),
            ];
            let mal = simulate(
                Machine::bluegene_p(),
                MalleableFifo::new(true),
                EccPolicy::disabled(),
                &jobs,
                &[],
            )
            .unwrap();
            assert_eq!(mal.reconfig.total(), 0);
            let base = run_jobs(&jobs, &[], EccPolicy::disabled());
            for (a, b) in mal.outcomes.iter().zip(&base.outcomes) {
                assert_eq!(
                    (a.id, a.started, a.finished, a.num),
                    (b.id, b.started, b.finished, b.num)
                );
            }
        }

        #[test]
        fn shrink_respects_floor_and_unit() {
            // Floor 96 rounds up to 96 (unit 32); alloc 128 → at most 32
            // reclaimable however much is asked for.
            let jobs = vec![
                JobSpec::batch(1, 0, 128, 100).with_proc_range(96, 128),
                JobSpec::batch(2, 10, 320, 50),
            ];
            let r = simulate(
                Machine::bluegene_p(),
                MalleableFifo::new(false),
                EccPolicy::disabled(),
                &jobs,
                &[],
            )
            .unwrap();
            assert_eq!(r.reconfig.procs_reclaimed, 32);
            let o1 = r.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
            assert_eq!(o1.num, 96, "never shrunk below the range floor");
            let o2 = r.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
            assert_eq!(
                o2.started, o1.finished,
                "head still had to wait for the full machine"
            );
        }

        #[test]
        fn streamed_malleable_run_matches_materialized() {
            let jobs = vec![
                JobSpec::batch(1, 0, 256, 100).with_proc_range(128, 320),
                JobSpec::batch(2, 10, 128, 100),
                JobSpec::batch(3, 20, 64, 30).with_proc_range(32, 96),
            ];
            let mat = simulate(
                Machine::bluegene_p(),
                MalleableFifo::new(true),
                EccPolicy::disabled(),
                &jobs,
                &[],
            )
            .unwrap();
            let engine = Engine::new(
                Machine::bluegene_p(),
                MalleableFifo::new(true),
                EccPolicy::disabled(),
            );
            let st = run_streamed(engine, SliceSource::new(&jobs, &[])).unwrap();
            assert_eq!(mat.reconfig, st.reconfig);
            assert_eq!(mat.outcomes.len(), st.outcomes.len());
            for (a, b) in mat.outcomes.iter().zip(&st.outcomes) {
                assert_eq!(
                    (a.id, a.started, a.finished, a.num),
                    (b.id, b.started, b.finished, b.num)
                );
            }
        }
    }

    #[test]
    fn engine_stats_serde_round_trips() {
        let s = EngineStats {
            events: 1,
            cycles: 2,
            events_coalesced: 3,
            queue_ops: 4,
            peak_queue_len: 5,
            engine_nanos: 6,
            peak_live_jobs: 7,
            peak_wait_views: 8,
        };
        let text = serde_json::to_string(&s).unwrap();
        let back: EngineStats = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn engine_stats_serde_ignores_unknown_fields() {
        let text = r#"{
            "events": 10, "cycles": 5, "events_coalesced": 0,
            "queue_ops": 20, "peak_queue_len": 3, "engine_nanos": 0,
            "future_field": "ignored"
        }"#;
        let s: EngineStats = serde_json::from_str(text).unwrap();
        assert_eq!(s.events, 10);
        assert_eq!(s.peak_queue_len, 3);
    }
}
