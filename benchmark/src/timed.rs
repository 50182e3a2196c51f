//! Outside-in per-layer timing.
//!
//! Each layer of a run is timed from outside the program. Wrappers around
//! the public traits the engine calls into ([`Scheduler`], [`StackLayer`],
//! [`BatchPolicy`], [`JobSource`]) open a span around every forwarded
//! call, and the harness opens the root `run` span and the `sim.load` /
//! `metrics.*` spans around its own calls. The program crates carry no
//! code for this.
//!
//! Spans nest on a thread-local stack; the harness is single-threaded.
//! A span's self time is its duration minus its children's. The engine's
//! own time is the residual self time of the root `run` span. Every span
//! costs a timestamp pair plus bookkeeping; [`Calibration::measure`]
//! measures that cost, and [`SpanStats`] takes it out when the sums are
//! read, so the self times of a traced run estimate the untraced run.
//!
//! The wrappers forward *every* trait method explicitly, defaulted ones
//! included. Falling through to a default would change behaviour: a
//! `TimedCore` that did not forward `skip_budget` would drive Hybrid-LOS
//! through the bulk protocol, i.e. as LOS-D.

use elastisched_sched::stack::WithMalleable;
use elastisched_sched::{
    AdaptiveCore, BatchOnly, BatchPolicy, BatchQueue, ConservativeCore, CorePolicy, DedicatedClaim,
    DelayedLosCore, EasyCore, FcfsCore, Freeze, LosCore, OrderPolicy, OrderedCore, PolicyShared,
    PolicyStack, SchedParams, StackLayer, StackSpec, StackState, WithDedicated,
};
use elastisched_sim::{
    Duration, JobId, JobSource, JobView, LogHistogram, SchedContext, SchedStats, Scheduler,
    SourceItem,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Instant;

/// A timed boundary. `Run` is the root of every traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    Run,
    SimLoad,
    SourcePull,
    SchedArrival,
    SchedEcc,
    SchedCompletion,
    SchedCycle,
    LayerM,
    LayerD,
    CoreCycle,
    MetricsFromResult,
    MetricsFold,
    MetricsFinish,
    /// Empty spans timed by [`Calibration::measure`]; never reported.
    Calibrate,
}

const N_SPANS: usize = 14;

impl Span {
    /// Every reported span, root first.
    pub const REPORTED: [Span; 13] = [
        Span::Run,
        Span::SimLoad,
        Span::SourcePull,
        Span::SchedArrival,
        Span::SchedEcc,
        Span::SchedCompletion,
        Span::SchedCycle,
        Span::LayerM,
        Span::LayerD,
        Span::CoreCycle,
        Span::MetricsFromResult,
        Span::MetricsFold,
        Span::MetricsFinish,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::Run => "run",
            Span::SimLoad => "sim.load",
            Span::SourcePull => "source.pull",
            Span::SchedArrival => "sched.arrival",
            Span::SchedEcc => "sched.ecc",
            Span::SchedCompletion => "sched.completion",
            Span::SchedCycle => "sched.cycle",
            Span::LayerM => "layer.m",
            Span::LayerD => "layer.d",
            Span::CoreCycle => "core.cycle",
            Span::MetricsFromResult => "metrics.from_result",
            Span::MetricsFold => "metrics.fold",
            Span::MetricsFinish => "metrics.finish",
            Span::Calibrate => "calibrate",
        }
    }
}

/// Aggregate of every closed span of one name: raw sums, plus the counts
/// that let the instrumentation cost be taken out afterwards with any
/// [`Calibration`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub count: u64,
    /// Sum of measured durations, ns.
    raw_ns: u64,
    /// Sum of the measured durations of direct children, ns.
    child_raw_ns: u64,
    /// Number of direct children, summed.
    children: u64,
    /// Number of spans nested anywhere below, summed.
    descendants: u64,
    /// Inclusive durations, corrected with the recorder's calibration when
    /// each span closed; a log-bucketed estimate.
    pub hist: LogHistogram,
}

impl SpanStats {
    /// Sum of inclusive durations without instrumentation: each span's own
    /// timestamp cost and the whole cost of every span nested in it are
    /// taken out, ns.
    pub fn incl_ns(&self, cal: Calibration) -> f64 {
        self.raw_ns as f64
            - self.count as f64 * cal.inner_ns
            - self.descendants as f64 * cal.outer_ns
    }

    /// Sum of self durations: inclusive minus the direct children's
    /// inclusive durations, ns.
    pub fn self_ns(&self, cal: Calibration) -> f64 {
        SelfSums {
            own_raw_ns: self.raw_ns - self.child_raw_ns,
            count: self.count,
            children: self.children,
        }
        .self_ns(cal)
    }

    /// Mean inclusive duration per span, ns.
    pub fn per_call_ns(&self, cal: Calibration) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.incl_ns(cal) / self.count as f64
        }
    }
}

/// What [`SpanStats::self_ns`] reads, summed over spans. The difference of
/// two readings of [`Recorder::self_sums`] gives the self time of the spans
/// closed in between under any calibration, since the correction is linear.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfSums {
    /// Measured durations minus the measured durations of direct children.
    own_raw_ns: u64,
    count: u64,
    children: u64,
}

impl SelfSums {
    pub fn self_ns(&self, cal: Calibration) -> f64 {
        self.own_raw_ns as f64
            - self.count as f64 * cal.inner_ns
            - self.children as f64 * (cal.outer_ns - cal.inner_ns)
    }

    /// The sums added since `earlier`, a reading of the same recorder.
    pub fn since(&self, earlier: SelfSums) -> SelfSums {
        SelfSums {
            own_raw_ns: self.own_raw_ns - earlier.own_raw_ns,
            count: self.count - earlier.count,
            children: self.children - earlier.children,
        }
    }
}

/// One closed span, as kept in the recorder's ring and written to
/// `spans.jsonl`. Durations are corrected with the recorder's calibration.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    /// The traced run the span belongs to (its root `run` span's run id).
    pub run: u64,
    pub seq: u64,
    /// `seq` of the enclosing span; 0 for a root.
    pub parent: u64,
    pub span: Span,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    pub dur_ns: f64,
    pub self_ns: f64,
}

/// The cost of one span, measured on empty spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calibration {
    /// What an empty span measures between its own timestamps, ns.
    pub inner_ns: f64,
    /// What an empty span adds to its parent's duration, ns: the whole
    /// cost of opening and closing a span, the timestamp pair included.
    pub outer_ns: f64,
}

impl Calibration {
    /// Time batches of empty spans nested in a parent and take the median
    /// per-span cost over the batches. The recorders measured use no ring,
    /// like the recorders this calibrates.
    pub fn measure() -> Calibration {
        const BATCHES: usize = 31;
        const PER_BATCH: u64 = 2_000;
        let mut cals = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            install(Recorder::new(Calibration::default(), 0));
            span(Span::Run, || {
                for _ in 0..PER_BATCH {
                    span(Span::Calibrate, || ());
                }
            });
            let rec = uninstall();
            let per = |s: Span| rec.stats(s).raw_ns as f64 / PER_BATCH as f64;
            cals.push(Calibration {
                inner_ns: per(Span::Calibrate),
                outer_ns: per(Span::Run),
            });
        }
        Calibration::median(&cals)
    }

    /// Field-wise median.
    pub fn median(cals: &[Calibration]) -> Calibration {
        let med = |f: fn(&Calibration) -> f64| {
            let mut xs: Vec<f64> = cals.iter().map(f).collect();
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        Calibration {
            inner_ns: med(|c| c.inner_ns),
            outer_ns: med(|c| c.outer_ns),
        }
    }
}

struct Frame {
    span: Span,
    seq: u64,
    parent: u64,
    start: Instant,
    child_raw_ns: u64,
    children: u64,
    descendants: u64,
}

/// Span aggregates, an evenly spaced sample of `sched.cycle` durations,
/// and optionally a capped ring of the latest raw spans.
pub struct Recorder {
    epoch: Instant,
    cal: Calibration,
    stack: Vec<Frame>,
    next_seq: u64,
    run: u64,
    stats: [SpanStats; N_SPANS],
    /// Every `cycle_stride`-th `sched.cycle` span as (measured ns, spans
    /// nested in it); the stride doubles whenever the buffer fills.
    cycle_samples: Vec<(u64, u64)>,
    cycles_seen: u64,
    cycle_stride: u64,
    ring: VecDeque<RawSpan>,
    ring_cap: usize,
    dropped: u64,
}

const CYCLE_SAMPLE_CAP: usize = 1 << 16;

impl Recorder {
    /// `cal` corrects the histograms and ring entries as spans close; the
    /// sums are corrected when read. `ring_cap` 0 keeps no raw spans, which
    /// keeps the per-span cost equal to what [`Calibration::measure`] sees.
    pub fn new(cal: Calibration, ring_cap: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            cal,
            stack: Vec::with_capacity(16),
            next_seq: 1,
            run: 0,
            stats: [SpanStats::default(); N_SPANS],
            cycle_samples: Vec::new(),
            cycles_seen: 0,
            cycle_stride: 1,
            ring: VecDeque::with_capacity(ring_cap),
            ring_cap,
            dropped: 0,
        }
    }

    pub fn stats(&self, span: Span) -> SpanStats {
        self.stats[span as usize]
    }

    /// Sum of every span's self time: the instrumentation-free estimate of
    /// the traced runs' wall time, ns.
    pub fn total_self_ns(&self, cal: Calibration) -> f64 {
        self.self_sums().self_ns(cal)
    }

    /// The sums behind [`Recorder::total_self_ns`] so far.
    pub fn self_sums(&self) -> SelfSums {
        let mut sums = SelfSums::default();
        for s in Span::REPORTED {
            let st = self.stats(s);
            sums.own_raw_ns += st.raw_ns - st.child_raw_ns;
            sums.count += st.count;
            sums.children += st.children;
        }
        sums
    }

    /// Quantile of the sampled `sched.cycle` inclusive durations, ns.
    pub fn cycle_quantile(&self, q: f64, cal: Calibration) -> f64 {
        let mut xs: Vec<f64> = self
            .cycle_samples
            .iter()
            .map(|&(raw, nested)| raw as f64 - cal.inner_ns - nested as f64 * cal.outer_ns)
            .collect();
        if xs.is_empty() {
            return 0.0;
        }
        xs.sort_by(f64::total_cmp);
        xs[(q * (xs.len() - 1) as f64).round() as usize]
    }

    pub fn cycle_sample_count(&self) -> usize {
        self.cycle_samples.len()
    }

    /// The ring of raw spans, oldest first, and how many older spans it
    /// dropped.
    pub fn ring(&self) -> (&VecDeque<RawSpan>, u64) {
        (&self.ring, self.dropped)
    }

    fn open(&mut self, span: Span) {
        if span == Span::Run {
            self.run += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let parent = self.stack.last().map_or(0, |f| f.seq);
        self.stack.push(Frame {
            span,
            seq,
            parent,
            start: Instant::now(),
            child_raw_ns: 0,
            children: 0,
            descendants: 0,
        });
    }

    fn close(&mut self, end: Instant) {
        let f = self.stack.pop().expect("span closed without being opened");
        let raw = end.duration_since(f.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_raw_ns += raw;
            parent.children += 1;
            parent.descendants += f.descendants + 1;
        }
        let cal = self.cal;
        let incl = raw as f64 - cal.inner_ns - f.descendants as f64 * cal.outer_ns;
        let s = &mut self.stats[f.span as usize];
        s.count += 1;
        s.raw_ns += raw;
        s.child_raw_ns += f.child_raw_ns;
        s.children += f.children;
        s.descendants += f.descendants;
        s.hist.record(incl.max(0.0) as u64);
        if f.span == Span::SchedCycle {
            if self.cycles_seen % self.cycle_stride == 0 {
                if self.cycle_samples.len() == CYCLE_SAMPLE_CAP {
                    let mut keep = false;
                    self.cycle_samples.retain(|_| {
                        keep = !keep;
                        keep
                    });
                    self.cycle_stride *= 2;
                }
                if self.cycles_seen % self.cycle_stride == 0 {
                    self.cycle_samples.push((raw, f.descendants));
                }
            }
            self.cycles_seen += 1;
        }
        if self.ring_cap > 0 {
            if self.ring.len() == self.ring_cap {
                self.ring.pop_front();
                self.dropped += 1;
            }
            let self_ns = (raw - f.child_raw_ns) as f64
                - cal.inner_ns
                - f.children as f64 * (cal.outer_ns - cal.inner_ns);
            self.ring.push_back(RawSpan {
                run: self.run,
                seq: f.seq,
                parent: f.parent,
                span: f.span,
                start_ns: f.start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: incl,
                self_ns,
            });
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arm span recording on this thread.
pub fn install(rec: Recorder) {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        assert!(slot.is_none(), "a recorder is already installed");
        *slot = Some(rec);
    });
}

/// Disarm span recording and hand back what was recorded.
pub fn uninstall() -> Recorder {
    RECORDER.with(|r| r.borrow_mut().take().expect("no recorder installed"))
}

/// Forget the spans a panicking run left open, so later spans do not
/// nest under them.
pub fn drop_open_spans() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.stack.clear();
        }
    });
}

/// Run `f` inside a span. Without an installed recorder this is `f()`
/// plus one thread-local check.
#[inline]
pub fn span<R>(s: Span, f: impl FnOnce() -> R) -> R {
    let armed = RECORDER.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) => {
            rec.open(s);
            true
        }
        None => false,
    });
    let out = f();
    if armed {
        let end = Instant::now();
        RECORDER.with(|r| {
            r.borrow_mut()
                .as_mut()
                .expect("recorder removed inside a span")
                .close(end)
        });
    }
    out
}

/// Times the engine's calls into a scheduler: `sched.arrival`,
/// `sched.ecc`, `sched.completion` and `sched.cycle`.
pub struct TimedScheduler<S> {
    inner: S,
}

impl<S: Scheduler> TimedScheduler<S> {
    pub fn new(inner: S) -> Self {
        TimedScheduler { inner }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn on_arrival(&mut self, job: JobView) {
        span(Span::SchedArrival, || self.inner.on_arrival(job))
    }

    fn on_queued_ecc(&mut self, id: JobId, num: u32, dur: Duration) {
        span(Span::SchedEcc, || self.inner.on_queued_ecc(id, num, dur))
    }

    fn on_completion(&mut self, id: JobId) {
        span(Span::SchedCompletion, || self.inner.on_completion(id))
    }

    fn cycle(&mut self, ctx: &mut dyn SchedContext) {
        span(Span::SchedCycle, || self.inner.cycle(ctx))
    }

    fn waiting_len(&self) -> usize {
        self.inner.waiting_len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> SchedStats {
        self.inner.stats()
    }
}

/// Times one stack layer's `drive` (`layer.d` or `layer.m`). `admit` is
/// forwarded untimed: it runs inside `sched.arrival`.
pub struct TimedLayer<L> {
    span: Span,
    inner: L,
}

impl<L: StackLayer> TimedLayer<L> {
    pub fn new(span: Span, inner: L) -> Self {
        TimedLayer { span, inner }
    }
}

impl<L: StackLayer> StackLayer for TimedLayer<L> {
    fn admit(&mut self, job: JobView, state: &mut StackState) {
        self.inner.admit(job, state)
    }

    fn drive(&mut self, ctx: &mut dyn SchedContext, state: &mut StackState) {
        span(self.span, || self.inner.drive(ctx, state))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times a policy core's cycles, plain and under a dedicated claim
/// (`core.cycle`).
pub struct TimedCore<P> {
    inner: P,
}

impl<P: BatchPolicy> TimedCore<P> {
    pub fn new(inner: P) -> Self {
        TimedCore { inner }
    }
}

impl<P: BatchPolicy> BatchPolicy for TimedCore<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dedicated_name(&self) -> &'static str {
        self.inner.dedicated_name()
    }

    fn on_admit(&mut self, job: &JobView) {
        self.inner.on_admit(job)
    }

    fn skip_budget(&self) -> Option<u32> {
        self.inner.skip_budget()
    }

    fn cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        ded: Option<Freeze>,
        shared: &mut PolicyShared,
    ) {
        span(Span::CoreCycle, || {
            self.inner.cycle(queue, ctx, ded, shared)
        })
    }

    fn dedicated_cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        claim: DedicatedClaim,
        bump_scount: bool,
        shared: &mut PolicyShared,
    ) {
        span(Span::CoreCycle, || {
            self.inner
                .dedicated_cycle(queue, ctx, claim, bump_scount, shared)
        })
    }
}

/// Times each pull from a job source (`source.pull`).
pub struct TimedSource<S> {
    pub inner: S,
}

impl<S: JobSource> JobSource for TimedSource<S> {
    fn next_item(&mut self) -> Option<SourceItem> {
        span(Span::SourcePull, || self.inner.next_item())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// [`StackSpec::build`] with every layer and the core wrapped in its
/// timed counterpart. Mirrors the registry's composition exactly; the
/// `wrapped_equals_unwrapped` test pins that.
pub fn timed_stack(spec: StackSpec, params: SchedParams) -> TimedScheduler<Box<dyn Scheduler>> {
    macro_rules! stack {
        ($core:expr, $scount:expr) => {{
            let core = TimedCore::new($core);
            match (spec.dedicated, spec.malleable) {
                (false, false) => {
                    Box::new(PolicyStack::from_layer(BatchOnly::new(core))) as Box<dyn Scheduler>
                }
                (true, false) => Box::new(PolicyStack::from_layer(TimedLayer::new(
                    Span::LayerD,
                    WithDedicated::new(core, $scount),
                ))),
                (false, true) => Box::new(PolicyStack::from_layer(TimedLayer::new(
                    Span::LayerM,
                    WithMalleable::new(BatchOnly::new(core)),
                ))),
                (true, true) => Box::new(PolicyStack::from_layer(TimedLayer::new(
                    Span::LayerM,
                    WithMalleable::new(TimedLayer::new(
                        Span::LayerD,
                        WithDedicated::new(core, $scount),
                    )),
                ))),
            }
        }};
    }
    let p = params;
    let sched = match spec.core {
        CorePolicy::Fcfs => stack!(FcfsCore, 0),
        CorePolicy::Conservative => stack!(ConservativeCore::new(), 0),
        CorePolicy::Easy => stack!(EasyCore, 0),
        CorePolicy::Los => stack!(LosCore::new(p.lookahead), 0),
        CorePolicy::DelayedLos => stack!(DelayedLosCore::new(p.cs, p.lookahead), p.cs),
        CorePolicy::Adaptive => stack!(AdaptiveCore::new(), p.cs),
        CorePolicy::Sjf => stack!(OrderedCore::new(OrderPolicy::ShortestJobFirst), 0),
        CorePolicy::SjfBf => stack!(OrderedCore::with_backfill(OrderPolicy::ShortestJobFirst), 0),
        CorePolicy::SmallestFirst => stack!(OrderedCore::new(OrderPolicy::SmallestJobFirst), 0),
        CorePolicy::SmallestFirstBf => {
            stack!(OrderedCore::with_backfill(OrderPolicy::SmallestJobFirst), 0)
        }
        CorePolicy::LargestFirst => stack!(OrderedCore::new(OrderPolicy::LargestJobFirst), 0),
        CorePolicy::LargestFirstBf => {
            stack!(OrderedCore::with_backfill(OrderPolicy::LargestJobFirst), 0)
        }
    };
    TimedScheduler::new(sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_metrics::RunMetrics;
    use elastisched_sched::Algorithm;
    use elastisched_sim::{Engine, Machine};
    use elastisched_workload::{generate, GeneratorConfig, Workload};

    #[test]
    fn self_times_partition_the_root() {
        let cal = Calibration {
            inner_ns: 5.0,
            outer_ns: 20.0,
        };
        install(Recorder::new(cal, 64));
        span(Span::Run, || {
            span(Span::SchedCycle, || {
                span(Span::CoreCycle, || {
                    std::hint::black_box(0u64..10_000).sum::<u64>()
                })
            });
            span(Span::SchedArrival, || ());
        });
        let rec = uninstall();
        let root = rec.stats(Span::Run);
        assert_eq!(root.count, 1);
        for c in [cal, Calibration::default()] {
            assert!((rec.total_self_ns(c) - root.incl_ns(c)).abs() < 1e-6);
        }
        // The root's inclusive time excludes its three nested spans' cost.
        let raw = Calibration::default();
        assert_eq!(root.incl_ns(raw) - root.incl_ns(cal), 5.0 + 3.0 * 20.0);
        let (ring, dropped) = rec.ring();
        assert_eq!((ring.len(), dropped), (4, 0));
        let core = ring.iter().find(|s| s.span == Span::CoreCycle).unwrap();
        let cycle = ring.iter().find(|s| s.span == Span::SchedCycle).unwrap();
        assert_eq!(core.parent, cycle.seq);
        assert!(ring.iter().all(|s| s.run == 1));
        assert_eq!(rec.cycle_sample_count(), 1);
    }

    #[test]
    fn self_sums_since_a_reading_cover_the_later_runs_only() {
        let cal = Calibration {
            inner_ns: 5.0,
            outer_ns: 20.0,
        };
        install(Recorder::new(cal, 0));
        span(Span::Run, || span(Span::SchedArrival, || ()));
        let first = uninstall();
        let before = first.self_sums();
        install(first);
        span(Span::Run, || {
            span(Span::SchedCycle, || span(Span::CoreCycle, || ()));
        });
        let both = uninstall();
        let later = both.self_sums().since(before);
        assert_eq!((later.count, later.children), (3, 2));
        let total = both.total_self_ns(cal);
        assert!((before.self_ns(cal) + later.self_ns(cal) - total).abs() < 1e-6);
    }

    #[test]
    fn cycle_samples_stay_evenly_spaced_and_bounded() {
        install(Recorder::new(Calibration::default(), 0));
        let n = 3 * CYCLE_SAMPLE_CAP as u64 + 7;
        for _ in 0..n {
            span(Span::SchedCycle, || ());
        }
        let rec = uninstall();
        assert!(rec.cycle_sample_count() <= CYCLE_SAMPLE_CAP);
        assert_eq!(rec.cycle_stride, 4);
        assert_eq!(rec.cycle_sample_count() as u64, n.div_ceil(4));
    }

    fn run<S: Scheduler>(sched: S, spec: StackSpec, w: &Workload) -> RunMetrics {
        let mut engine = Engine::new(Machine::new(320, 32), sched, spec.ecc_policy());
        engine.load(&w.jobs, &w.eccs).unwrap();
        RunMetrics::from_result(&engine.run().unwrap())
    }

    #[test]
    fn wrapped_equals_unwrapped() {
        let workload = |cfg: GeneratorConfig| {
            let mut w = generate(&cfg.with_paper_eccs().with_jobs(300).with_seed(11));
            w.scale_to_load(320, 0.9);
            w
        };
        let batch = workload(GeneratorConfig::paper_batch(0.5));
        let mixed = workload(GeneratorConfig::paper_heterogeneous(0.5, 0.3).with_malleable(0.5));
        let malleable: StackSpec = "hybrid-los+m+e".parse().unwrap();
        let specs = Algorithm::ALL
            .map(|a| a.stack_spec())
            .into_iter()
            .chain([malleable]);
        let p = SchedParams::default();
        install(Recorder::new(Calibration::default(), 0));
        for spec in specs {
            for w in [&batch, &mixed] {
                let plain = run(spec.build(p), spec, w);
                let timed = run(timed_stack(spec, p), spec, w);
                assert_eq!(plain, timed, "{spec}");
            }
        }
        let rec = uninstall();
        // Every wrapper was on the path, and the malleable stack resized.
        for s in [
            Span::SchedArrival,
            Span::SchedCycle,
            Span::LayerD,
            Span::LayerM,
            Span::CoreCycle,
        ] {
            assert!(rec.stats(s).count > 0, "{} never ran", s.name());
        }
        let m = run(malleable.build(p), malleable, &mixed);
        assert!(m.reconfig_grows + m.reconfig_shrinks > 0);
    }

    #[test]
    fn spans_without_a_recorder_just_run() {
        assert_eq!(span(Span::Run, || 7), 7);
    }

    #[test]
    fn calibration_is_positive() {
        let cal = Calibration::measure();
        assert!(
            cal.outer_ns > 0.0 && cal.outer_ns >= cal.inner_ns,
            "{cal:?}"
        );
    }
}
