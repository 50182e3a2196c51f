//! Streaming workload sources: feed the engine without materializing
//! the trace.
//!
//! Everything here implements [`JobSource`] (defined in
//! `elastisched-sim`, consumed by `Engine::run_streaming_folded`),
//! which pulls one time-ordered item at a time so a million-job
//! archive replays in memory proportional to the number of *live*
//! jobs:
//!
//! * [`SwfSource`] — lazy line-at-a-time reader over Standard Workload
//!   Format text (any [`BufRead`]), yielding exactly the jobs
//!   [`SwfFile::to_job_specs`](crate::swf::SwfFile::to_job_specs) would;
//! * [`CwfSource`] — the same for the Cloud Workload Format, yielding
//!   jobs and ECCs in file order (the file must be time-sorted, see
//!   [`CwfFile::sort_by_time`](crate::cwf::CwfFile::sort_by_time));
//! * [`LublinSource`] — the §IV-D generator as an unbounded (or
//!   job-capped) stream, draw-for-draw identical to
//!   [`generate`](crate::gen::generate) for the same seed;
//! * [`ScaleArrivals`] — the paper's §III load-variation knob as a
//!   composable adapter (multiply every timestamp by a constant);
//! * [`TakeJobs`] — cap an unbounded stream at a job count.
//!
//! The file-backed sources read through the same line tokenizer as the
//! file parsers ([`crate::swf`]), so every format error comes from one
//! place. A parse failure ends the stream early; the caller checks
//! [`SwfSource::error`] / [`CwfSource::error`] after the run (the
//! `JobSource` contract has no error channel because the hot path must
//! stay a plain `Option`).
//!
//! ## Parsing ahead on a worker thread
//!
//! Parsing a row costs a few hundred nanoseconds that nothing in the
//! engine has to wait for, so both file sources parse on a thread of
//! their own and the engine thread only pops parsed items:
//!
//! * **Start.** The first `next_item` spawns one worker per source, so
//!   settings made before it (`SwfSource::with_malleable_growth`) are
//!   the worker's. The worker runs the whole parse: read a line, split
//!   it, build the record, convert it to a job or ECC, and scan the SWF
//!   header. A failed spawn panics with the OS error.
//! * **Handoff.** The worker fills batches of 512 items and sends each
//!   over a bounded channel that queues at most two. Items keep file
//!   order, so a run, its schedule and every digest are what a parse on
//!   the engine thread gives.
//! * **Memory.** The engine thread makes the source's three batch
//!   buffers (one it drains, one the worker fills, one in either hand
//!   or queued) and hands each drained buffer back over a return
//!   channel. The line buffer is sized before the spawn, so the worker
//!   allocates nothing per row. A running source holds these buffers
//!   (≈0.1 MiB), the worker's stack and the reader; with the thread's
//!   own cost (the libc pages it faults in, its allocator arena) it
//!   added ≈0.4 MiB of peak RSS to the benchmark's archive replay.
//! * **End and errors.** The worker stops at the end of the text or at
//!   the first malformed line and returns that line's error, which the
//!   engine thread takes when it joins the worker. `next_item` yields
//!   every item before the bad line, then `None` from then on, and
//!   `error()` names the line from the first `None` on.
//! * **Panics.** A panic on the worker (in the reader, say) is resumed
//!   on the engine thread at the next refill, never seen as a stream
//!   that ended early.
//! * **Drop.** Dropping a source hangs up both channels and joins the
//!   worker, which stops at its next send or receive: after the batch
//!   it is filling, at most.
//!
//! The reader therefore moves to the worker: `JobSource` is implemented
//! for `R: BufRead + Send + 'static`, while `new` and `error` ask only
//! `R: BufRead`. `from_text` copies its text into an owned reader.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{BufRead, Cursor};
use std::panic::resume_unwind;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::cwf::CwfRecord;
use crate::gen::{GeneratorConfig, JobStream};
use crate::swf::{grow_to, Fields, Line, Lines, ParseError, SwfHeader};
use elastisched_sim::{EccSpec, JobClass, JobId, JobSource, JobSpec, SimTime, SourceItem};

// ---------------------------------------------------------------------
// SWF
// ---------------------------------------------------------------------

/// Streams batch jobs from SWF text, parsed ahead on a worker thread.
///
/// Filtering matches `SwfFile::to_job_specs`: comment and blank lines
/// are skipped, records missing a mandatory field (processors or any
/// runtime) are silently dropped, and a malformed line stops the stream
/// with the error retrievable from [`SwfSource::error`].
///
/// The first [`next_item`](JobSource::next_item) starts one worker
/// thread that reads and parses the text and hands the jobs over in
/// batches (see the [module docs](self) for the handoff, its memory,
/// and what a panic or a drop does). The engine thread sees the same
/// items in the same order as a parse on its own thread would give.
pub struct SwfSource<R> {
    feed: ParseAhead<R, SwfRows>,
}

impl<R: BufRead> SwfSource<R> {
    /// Stream SWF records from a buffered reader.
    pub fn new(reader: R) -> Self {
        SwfSource {
            feed: ParseAhead::new(reader, SwfRows::default()),
        }
    }

    /// Mark every streamed job as malleable with a grow-only proc-range
    /// `[num, MaxProcs]`, the ceiling taken from the log's `; MaxProcs:`
    /// header (`MaxNodes` fallback) as it streams past — header lines
    /// precede records in SWF, so the ceiling is in hand before the first
    /// job. Yields exactly what
    /// [`SwfFile::to_job_specs_malleable`](crate::swf::SwfFile::to_job_specs_malleable)
    /// materializes.
    ///
    /// # Panics
    ///
    /// If the stream has started: the worker parses with the settings it
    /// was started with.
    pub fn with_malleable_growth(mut self) -> Self {
        let Stage::Ready(_, rows) = &mut self.feed.stage else {
            panic!("with_malleable_growth after the stream started");
        };
        rows.malleable = true;
        self
    }

    /// The parse error that terminated the stream, if any. Set once
    /// `next_item` has returned `None`.
    pub fn error(&self) -> Option<&ParseError> {
        self.feed.err.as_ref()
    }
}

impl SwfSource<Cursor<Vec<u8>>> {
    /// Stream SWF records from a copy of in-memory text.
    pub fn from_text(text: &str) -> Self {
        SwfSource::new(Cursor::new(text.as_bytes().to_vec()))
    }
}

impl<R: BufRead + Send + 'static> JobSource for SwfSource<R> {
    fn next_item(&mut self) -> Option<SourceItem> {
        self.feed.next_item()
    }
}

/// SWF rows to jobs, with the header ceiling for malleable growth.
#[derive(Default)]
struct SwfRows {
    malleable: bool,
    header: SwfHeader,
}

impl Rows for SwfRows {
    fn item(&mut self, line: Line<'_>) -> Result<Option<SourceItem>, ParseError> {
        match line {
            Line::Comment(c) => {
                if self.malleable {
                    self.header.scan(c);
                }
                Ok(None)
            }
            // Unusable records are skipped, exactly like to_job_specs.
            Line::Data(line, n) => Ok(Fields::split(line, n)
                .swf_record()?
                .to_job_spec()
                .map(|spec| SourceItem::Job(grow_to(spec, self.header.machine_procs())))),
        }
    }
}

// ---------------------------------------------------------------------
// CWF
// ---------------------------------------------------------------------

/// Streams jobs *and* ECCs from CWF text in file order, parsed ahead on
/// a worker thread.
///
/// The file must already be sorted by event time with submissions before
/// ECCs at one instant (what [`CwfFile::sort_by_time`] produces;
/// archive-style logs are recorded that way) — the engine rejects an
/// out-of-order stream. Incomplete submissions and ECC rows with a
/// missing amount are dropped, matching `CwfFile::to_workload`.
///
/// Parsing runs on one worker thread from the first
/// [`next_item`](JobSource::next_item) on, exactly as for [`SwfSource`]:
/// see the [module docs](self).
///
/// [`CwfFile::sort_by_time`]: crate::cwf::CwfFile::sort_by_time
pub struct CwfSource<R> {
    feed: ParseAhead<R, CwfRows>,
}

impl<R: BufRead> CwfSource<R> {
    /// Stream CWF rows from a buffered reader.
    pub fn new(reader: R) -> Self {
        CwfSource {
            feed: ParseAhead::new(reader, CwfRows),
        }
    }

    /// The parse error that terminated the stream, if any. Set once
    /// `next_item` has returned `None`.
    pub fn error(&self) -> Option<&ParseError> {
        self.feed.err.as_ref()
    }
}

impl CwfSource<Cursor<Vec<u8>>> {
    /// Stream CWF rows from a copy of in-memory text.
    pub fn from_text(text: &str) -> Self {
        CwfSource::new(Cursor::new(text.as_bytes().to_vec()))
    }
}

impl<R: BufRead + Send + 'static> JobSource for CwfSource<R> {
    fn next_item(&mut self) -> Option<SourceItem> {
        self.feed.next_item()
    }
}

/// CWF rows to jobs and ECCs.
struct CwfRows;

impl Rows for CwfRows {
    fn item(&mut self, line: Line<'_>) -> Result<Option<SourceItem>, ParseError> {
        match line {
            Line::Comment(_) => Ok(None),
            Line::Data(line, n) => {
                let rec = CwfRecord::from_fields(&Fields::split(line, n))?;
                // Incomplete rows are skipped, exactly like to_workload.
                let job = rec.to_job_spec().map(SourceItem::Job);
                Ok(job.or_else(|| rec.to_ecc_spec().map(SourceItem::Ecc)))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Parse-ahead worker
// ---------------------------------------------------------------------

/// Items per handoff from the parse worker to the engine thread.
const BATCH: usize = 512;
/// Batch buffers per source: one the engine thread drains, one the
/// worker fills, and one in either hand or queued between them.
const BUFFERS: usize = 3;
/// Filled batches the worker may queue ahead of the engine thread.
const DEPTH: usize = 2;

/// How one file format turns a line into a stream item.
trait Rows: Send + 'static {
    /// The item `line` makes; `None` skips the line.
    fn item(&mut self, line: Line<'_>) -> Result<Option<SourceItem>, ParseError>;
}

/// A file source's engine-thread side: the batch being handed out, and
/// the worker that parses the rest.
struct ParseAhead<R, P> {
    stage: Stage<R, P>,
    /// The batch being handed out; `batch[at]` is the next item.
    batch: Vec<SourceItem>,
    at: usize,
    /// The error that ended the stream.
    err: Option<ParseError>,
}

enum Stage<R, P> {
    /// Not pulled yet: the reader and the format's row parser.
    Ready(Lines<R>, P),
    Running(Worker),
    /// The worker has been joined.
    Ended,
}

struct Worker {
    /// Filled batches, in stream order.
    batches: Receiver<Vec<SourceItem>>,
    /// Drained batches, back to the worker for refilling.
    spare: SyncSender<Vec<SourceItem>>,
    /// Returns the error that ended the parse.
    handle: JoinHandle<Option<ParseError>>,
}

impl Worker {
    /// Hang up both channels and wait for the worker, which exits at its
    /// next send or receive.
    fn join(self) -> std::thread::Result<Option<ParseError>> {
        drop((self.batches, self.spare));
        self.handle.join()
    }
}

impl<R: BufRead, P> ParseAhead<R, P> {
    fn new(reader: R, rows: P) -> Self {
        ParseAhead {
            stage: Stage::Ready(Lines::new(reader), rows),
            batch: Vec::new(),
            at: 0,
            err: None,
        }
    }
}

impl<R: BufRead + Send + 'static, P: Rows> ParseAhead<R, P> {
    #[inline]
    fn next_item(&mut self) -> Option<SourceItem> {
        match self.batch.get(self.at) {
            Some(&item) => {
                self.at += 1;
                Some(item)
            }
            None => self.refill(),
        }
    }

    /// Hand the drained batch back and wait for the next one; at the end
    /// of the stream, join the worker and keep its error.
    #[cold]
    fn refill(&mut self) -> Option<SourceItem> {
        self.stage = match std::mem::replace(&mut self.stage, Stage::Ended) {
            Stage::Ready(lines, rows) => Stage::Running(self.spawn(lines, rows)),
            stage => stage,
        };
        let Stage::Running(worker) = &self.stage else {
            return None;
        };
        let mut drained = std::mem::take(&mut self.batch);
        drained.clear();
        // Fails only once the worker has finished, which the receive
        // below then reports.
        let _ = worker.spare.send(drained);
        if let Ok(batch) = worker.batches.recv() {
            self.batch = batch;
            self.at = 1;
            return Some(self.batch[0]);
        }
        if let Stage::Running(worker) = std::mem::replace(&mut self.stage, Stage::Ended) {
            self.err = worker.join().unwrap_or_else(|panic| resume_unwind(panic));
        }
        None
    }

    /// Start the worker on `lines`, with the batch buffers: all but the
    /// one the engine thread holds start out as spares.
    fn spawn(&mut self, lines: Lines<R>, rows: P) -> Worker {
        let (batch_tx, batches) = sync_channel(DEPTH);
        let (spare, spare_rx) = sync_channel(BUFFERS);
        for _ in 1..BUFFERS {
            spare
                .send(Vec::with_capacity(BATCH))
                .expect("the spare channel has room for every buffer");
        }
        self.batch = Vec::with_capacity(BATCH);
        let handle = std::thread::Builder::new()
            .name("trace-parse".into())
            .spawn(move || parse_ahead(lines, rows, batch_tx, spare_rx))
            .unwrap_or_else(|e| panic!("spawning the trace parse worker: {e}"));
        Worker {
            batches,
            spare,
            handle,
        }
    }
}

impl<R, P> Drop for ParseAhead<R, P> {
    fn drop(&mut self) {
        if let Stage::Running(worker) = std::mem::replace(&mut self.stage, Stage::Ended) {
            // A panic must not escape a drop; the panic hook has already
            // reported it on the worker.
            let _ = worker.join();
        }
    }
}

/// The worker's loop: fill each spare buffer with up to `BATCH` items
/// and send it on, until the text ends, a line fails to parse, or the
/// engine thread hangs up. Returns the error that ended the parse.
fn parse_ahead<R: BufRead>(
    mut lines: Lines<R>,
    mut rows: impl Rows,
    batches: SyncSender<Vec<SourceItem>>,
    spare: Receiver<Vec<SourceItem>>,
) -> Option<ParseError> {
    while let Ok(mut batch) = spare.recv() {
        // Spares arrive empty with room for `BATCH` items: no allocation.
        batch.extend(std::iter::from_fn(|| lines.pull(|line| rows.item(line))).take(BATCH));
        let full = batch.len() == BATCH;
        if batch.is_empty() || batches.send(batch).is_err() || !full {
            break;
        }
    }
    lines.err
}

// ---------------------------------------------------------------------
// Lublin generator
// ---------------------------------------------------------------------

/// A generated ECC waiting for the stream to reach its issue time.
/// Min-heap order is `(issue_at, job, seq)` — identical to the stable
/// `sort_by_key(|e| (e.issue_at, e.job))` the materialized generator
/// applies, because equal `(issue_at, job)` pairs can only come from one
/// job's ET-then-RT pair and `seq` preserves that push order.
struct PendingEcc {
    spec: EccSpec,
    seq: u64,
}

impl PendingEcc {
    fn key(&self) -> (SimTime, JobId, u64) {
        (self.spec.issue_at, self.spec.job, self.seq)
    }
}

impl PartialEq for PendingEcc {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for PendingEcc {}
impl PartialOrd for PendingEcc {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingEcc {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The §IV-D workload generator as a stream: same models, same RNG, same
/// per-job draw order as [`generate`](crate::gen::generate) — a capped
/// `LublinSource` yields exactly the workload `generate` materializes,
/// in the merged time order `Workload::source` would establish.
///
/// ECCs are drawn together with their job but issue later; they wait in
/// a min-heap and are flushed before the first job whose submission
/// passes their issue time (jobs win ties, matching the engine's
/// arrivals-before-commands convention). The heap holds only commands
/// whose issue time is still ahead of the arrival front, so memory stays
/// bounded by ECC density × estimate horizon, not trace length.
pub struct LublinSource {
    stream: JobStream,
    /// Jobs left to draw; `None` streams forever.
    remaining: Option<usize>,
    pending_job: Option<JobSpec>,
    pending_eccs: BinaryHeap<Reverse<PendingEcc>>,
    seq: u64,
}

impl LublinSource {
    /// Stream `config.n_jobs` jobs (plus their ECCs).
    pub fn new(config: &GeneratorConfig) -> Self {
        LublinSource {
            stream: JobStream::new(config),
            remaining: Some(config.n_jobs),
            pending_job: None,
            pending_eccs: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Stream jobs forever, ignoring `config.n_jobs`. Cap with
    /// [`TakeJobs`] or stop the consuming loop.
    pub fn unbounded(config: &GeneratorConfig) -> Self {
        LublinSource {
            remaining: None,
            ..LublinSource::new(config)
        }
    }

    /// Draw the next job (if any are left) so `pending_job` and the ECC
    /// heap reflect the arrival front.
    fn refill(&mut self) {
        if self.pending_job.is_some() {
            return;
        }
        match &mut self.remaining {
            Some(0) => return,
            Some(n) => *n -= 1,
            None => {}
        }
        let drawn = self.stream.draw();
        for ecc in [drawn.extend, drawn.reduce].into_iter().flatten() {
            self.pending_eccs.push(Reverse(PendingEcc {
                spec: ecc,
                seq: self.seq,
            }));
            self.seq += 1;
        }
        self.pending_job = Some(drawn.spec);
    }
}

impl JobSource for LublinSource {
    fn next_item(&mut self) -> Option<SourceItem> {
        self.refill();
        let ecc_first = match (&self.pending_job, self.pending_eccs.peek()) {
            (Some(job), Some(Reverse(ecc))) => ecc.spec.issue_at < job.submit,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if ecc_first {
            let Reverse(ecc) = self.pending_eccs.pop().expect("peeked");
            return Some(SourceItem::Ecc(ecc.spec));
        }
        self.pending_job.take().map(SourceItem::Job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered = usize::from(self.pending_job.is_some()) + self.pending_eccs.len();
        match self.remaining {
            // Each drawn job yields 1–3 items.
            Some(n) => (buffered + n, Some(buffered + 3 * n)),
            None => (usize::MAX, None),
        }
    }
}

// ---------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------

/// The paper's §III load-variation technique as a stream adapter:
/// multiply every timestamp (submission, dedicated requested start, ECC
/// issue time) by a constant factor, rounding to whole seconds exactly
/// like [`Workload::scale_arrivals`](crate::set::Workload::scale_arrivals).
/// `factor > 1` stretches the trace (lower load), `factor < 1`
/// compresses it (higher load).
///
/// Rounding is monotone, so an ordered stream stays ordered. A
/// compressing factor can merge two distinct instants, though — and if
/// an ECC thereby lands on the same (rounded) instant as its target
/// job's submission *while preceding it in the stream*, the streamed run
/// drops the command as stale where a materialized scale-then-load run
/// would apply it. Stretching factors (`>= 1`) cannot create new ties
/// and are exactly equivalent.
pub struct ScaleArrivals<S> {
    inner: S,
    factor: f64,
}

impl<S: JobSource> ScaleArrivals<S> {
    /// Scale every timestamp of `inner` by `factor`.
    pub fn new(inner: S, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite(), "bad scale factor");
        ScaleArrivals { inner, factor }
    }

    fn scale(&self, t: SimTime) -> SimTime {
        SimTime::from_secs((t.as_secs() as f64 * self.factor).round() as u64)
    }
}

impl<S: JobSource> JobSource for ScaleArrivals<S> {
    fn next_item(&mut self) -> Option<SourceItem> {
        let item = self.inner.next_item()?;
        Some(match item {
            SourceItem::Job(mut job) => {
                job.submit = self.scale(job.submit);
                if let JobClass::Dedicated { requested_start } = &mut job.class {
                    *requested_start = self.scale(*requested_start);
                }
                SourceItem::Job(job)
            }
            SourceItem::Ecc(mut ecc) => {
                ecc.issue_at = self.scale(ecc.issue_at);
                SourceItem::Ecc(ecc)
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Ends a stream after `n` jobs have been yielded (ECCs pass through
/// untouched until then) — the way to bound [`LublinSource::unbounded`]
/// or replay a prefix of a large archive.
pub struct TakeJobs<S> {
    inner: S,
    left: usize,
    done: bool,
}

impl<S: JobSource> TakeJobs<S> {
    /// Yield at most `n` jobs from `inner`.
    pub fn new(inner: S, n: usize) -> Self {
        TakeJobs {
            inner,
            left: n,
            done: false,
        }
    }
}

impl<S: JobSource> JobSource for TakeJobs<S> {
    fn next_item(&mut self) -> Option<SourceItem> {
        if self.done {
            return None;
        }
        match self.inner.next_item() {
            Some(SourceItem::Job(job)) => {
                if self.left == 0 {
                    self.done = true;
                    return None;
                }
                self.left -= 1;
                Some(SourceItem::Job(job))
            }
            other => other,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.inner.size_hint();
        // Every retained item is either one of the `left` jobs or an ECC
        // already in flight; we cannot bound ECC count from here, so only
        // tighten the upper bound when the inner stream's is smaller.
        (lo.min(self.left), hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cwf::CwfFile;
    use crate::gen::generate;
    use crate::set::Workload;
    use crate::swf::{SwfFile, SwfRecord};

    fn drain(mut src: impl JobSource) -> Vec<SourceItem> {
        std::iter::from_fn(move || src.next_item()).collect()
    }

    fn heavy_config() -> GeneratorConfig {
        GeneratorConfig::paper_heterogeneous(0.5, 0.3)
            .with_paper_eccs()
            .with_jobs(400)
            .with_seed(9)
    }

    #[test]
    fn lublin_source_replays_generate_exactly() {
        let cfg = heavy_config();
        let w = generate(&cfg);
        let streamed = drain(LublinSource::new(&cfg));
        let materialized = drain(w.source());
        assert_eq!(streamed.len(), materialized.len());
        for (i, (s, m)) in streamed.iter().zip(&materialized).enumerate() {
            assert_eq!(s, m, "diverged at item {i}");
        }
    }

    #[test]
    fn unbounded_lublin_with_cap_matches_bounded() {
        let cfg = heavy_config();
        let capped = drain(TakeJobs::new(LublinSource::unbounded(&cfg), cfg.n_jobs));
        let bounded = drain(LublinSource::new(&cfg));
        // The capped stream cuts off at the (n+1)th job, so trailing ECCs
        // of the bounded stream may be missing — it must be a prefix.
        assert!(capped.len() <= bounded.len());
        assert_eq!(capped[..], bounded[..capped.len()]);
        let jobs = capped
            .iter()
            .filter(|i| matches!(i, SourceItem::Job(_)))
            .count();
        assert_eq!(jobs, cfg.n_jobs);
    }

    #[test]
    fn swf_source_yields_what_to_job_specs_does() {
        let mut f = SwfFile::default();
        f.comments.push("Computer: test".to_string());
        f.records.push(SwfRecord::synthetic(1, 0, 64, 120, 150));
        // An unusable record (no processor count): skipped by both paths.
        let mut bad = SwfRecord::synthetic(2, 5, 0, 60, 60);
        bad.requested_procs = -1;
        bad.allocated_procs = -1;
        f.records.push(bad);
        f.records.push(SwfRecord::synthetic(3, 30, 96, 600, 600));
        let text = f.to_text();

        let mut src = SwfSource::from_text(&text);
        let pulled: Vec<SourceItem> = std::iter::from_fn(|| src.next_item()).collect();
        assert!(src.error().is_none());
        let expected: Vec<SourceItem> = f.to_job_specs().into_iter().map(SourceItem::Job).collect();
        assert_eq!(pulled, expected);
    }

    #[test]
    fn swf_malleable_growth_matches_materialized() {
        let text = "\
; Computer: IBM SP2
; MaxNodes: 130
; MaxProcs: 128
1 0 -1 120 64 -1 -1 64 150 -1 1 -1 -1 -1 -1 -1 -1 -1
2 30 -1 600 128 -1 -1 128 600 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let f = SwfFile::parse(text).unwrap();
        let expected = f.to_job_specs_malleable();
        assert_eq!(expected[0].proc_range(), (64, 128));
        assert!(expected[0].is_malleable());
        // Already at the ceiling: stays rigid.
        assert!(!expected[1].is_malleable());

        let mut src = SwfSource::from_text(text).with_malleable_growth();
        let pulled: Vec<SourceItem> = std::iter::from_fn(|| src.next_item()).collect();
        assert!(src.error().is_none());
        let expected: Vec<SourceItem> = expected.into_iter().map(SourceItem::Job).collect();
        assert_eq!(pulled, expected);

        // Without the opt-in, the same text streams rigid jobs.
        let rigid = drain(SwfSource::from_text(text));
        assert!(rigid.iter().all(|i| match i {
            SourceItem::Job(j) => !j.is_malleable(),
            _ => true,
        }));
    }

    #[test]
    fn swf_parse_error_ends_stream_and_is_reported() {
        let text = "1 0 -1 120 64 -1 -1 64 150 -1 1 -1 -1 -1 -1 -1 -1 -1\nnot numbers\n";
        let mut src = SwfSource::from_text(text);
        assert!(src.next_item().is_some());
        assert!(src.next_item().is_none());
        let err = src.error().expect("stored error");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("invalid integer"));
        // The stream stays ended.
        assert!(src.next_item().is_none());
    }

    #[test]
    fn swf_wrong_arity_is_reported() {
        let mut src = SwfSource::from_text("1 2 3\n");
        assert!(src.next_item().is_none());
        assert!(src.error().expect("error").message.contains("18"));
    }

    #[test]
    fn cwf_source_streams_sorted_file_in_workload_order() {
        let cfg = heavy_config();
        let w = generate(&cfg);
        let mut file = CwfFile::from_workload(&w);
        file.sort_by_time();
        let text = file.to_text();

        let mut src = CwfSource::from_text(&text);
        let pulled: Vec<SourceItem> = std::iter::from_fn(|| src.next_item()).collect();
        assert!(src.error().is_none());
        let expected = drain(w.source());
        assert_eq!(pulled, expected);
    }

    #[test]
    fn cwf_source_reports_bad_request_type() {
        let text = "1 0 -1 1 1 -1 -1 1 1 -1 1 -1 -1 -1 -1 -1 -1 -1 -1 XX 5\n";
        let mut src = CwfSource::from_text(text);
        assert!(src.next_item().is_none());
        let err = src.error().expect("stored error");
        assert!(err.message.contains("unknown request type"));
    }

    #[test]
    fn sort_by_time_orders_rows_jobs_first() {
        let w = Workload {
            jobs: vec![
                elastisched_sim::JobSpec::batch(1, 0, 32, 100),
                elastisched_sim::JobSpec::batch(2, 50, 32, 100),
            ],
            eccs: vec![
                EccSpec::extend_time(JobId(1), SimTime::from_secs(50), 60),
                EccSpec::extend_time(JobId(2), SimTime::from_secs(70), 60),
            ],
        };
        let mut file = CwfFile::from_workload(&w);
        file.sort_by_time();
        let times: Vec<(i64, bool)> = file
            .records
            .iter()
            .map(|r| (r.swf.submit, r.is_submit()))
            .collect();
        // t=50 has both a submission and an ECC: the submission first.
        assert_eq!(times, vec![(0, true), (50, true), (50, false), (70, false)]);
    }

    #[test]
    fn scale_arrivals_matches_materialized_scaling() {
        let cfg = heavy_config();
        for factor in [2.5, 1.0, 0.4] {
            let mut scaled = generate(&cfg);
            scaled.scale_arrivals(factor);
            let streamed = drain(ScaleArrivals::new(LublinSource::new(&cfg), factor));
            // Same multiset of items; the merge order may differ around
            // ties a compressing factor introduces (jobs win ties in the
            // materialized merge, the adapter preserves stream order).
            let streamed_jobs: Vec<JobSpec> = streamed
                .iter()
                .filter_map(|i| match i {
                    SourceItem::Job(j) => Some(*j),
                    _ => None,
                })
                .collect();
            assert_eq!(streamed_jobs, scaled.jobs, "factor {factor}");
            // A compressing factor can merge ECC instants, so normalize
            // both sides with the same stable sort before comparing.
            let mut streamed_eccs: Vec<EccSpec> = streamed
                .iter()
                .filter_map(|i| match i {
                    SourceItem::Ecc(e) => Some(*e),
                    _ => None,
                })
                .collect();
            streamed_eccs.sort_by_key(|e| (e.issue_at, e.job));
            let mut expected_eccs = scaled.eccs.clone();
            expected_eccs.sort_by_key(|e| (e.issue_at, e.job));
            assert_eq!(streamed_eccs, expected_eccs, "factor {factor}");
            // And the stream stays time-ordered.
            for pair in streamed.windows(2) {
                assert!(pair[0].time() <= pair[1].time());
            }
        }
    }

    #[test]
    fn take_jobs_zero_yields_nothing() {
        let cfg = heavy_config();
        let items = drain(TakeJobs::new(LublinSource::new(&cfg), 0));
        assert!(items.is_empty());
    }
}
