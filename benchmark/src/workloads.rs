//! The four benchmark workloads: how their inputs are made from the
//! benchmark seed, and the two ways every instance runs.
//!
//! * [`Instance::run_public`] goes through the `elastisched` crate's
//!   entry points (`Experiment` / `StackExperiment`), untraced. The
//!   end-to-end metrics time this path: it is what a user runs.
//! * [`Instance::run_decomposed`] performs the same steps by hand (build
//!   the scheduler, `Engine::new`, load, run, derive metrics) so each
//!   step can be timed, and with `wrapped` swaps in the timed wrappers of
//!   [`crate::timed`]. Its metrics must equal the public path's.

use crate::check::ArchivePins;
use crate::timed::{span, timed_stack, Span, TimedSource};
use elastisched::{Experiment, MachineSpec, StackExperiment};
use elastisched_metrics::{validate_schedule, RunAccumulator, RunMetrics};
use elastisched_sched::{Algorithm, SchedParams, StackSpec};
use elastisched_sim::{Engine, Scheduler, SimResult, TimelineConfig};
use elastisched_workload::{generate, CwfFile, CwfSource, GeneratorConfig, Workload};
use std::borrow::Cow;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Every workload runs on the paper's BlueGene/P.
pub const MACHINE: MachineSpec = MachineSpec::BLUEGENE_P;

/// Where traced output and the archive trace go, relative to the
/// directory the benchmark runs in.
pub const OUT_DIR: &str = "target/benchmark";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperGrid,
    ArchiveReplay,
    MalleableMix,
    WhyWait,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PaperGrid,
        Kind::ArchiveReplay,
        Kind::MalleableMix,
        Kind::WhyWait,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper_grid",
            Kind::ArchiveReplay => "archive_replay",
            Kind::MalleableMix => "malleable_mix",
            Kind::WhyWait => "why_wait",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes: the benchmark's, or tiny ones for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    grid_jobs: usize,
    grid_loads: &'static [f64],
    archive_jobs: usize,
    malleable_jobs: usize,
    why_wait_jobs: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        grid_jobs: 500,
        grid_loads: &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        archive_jobs: 250_000,
        malleable_jobs: 5_000,
        why_wait_jobs: 2_000,
    };

    pub const SMOKE: Sizes = Sizes {
        grid_jobs: 60,
        grid_loads: &[0.7, 1.0],
        archive_jobs: 3_000,
        malleable_jobs: 300,
        why_wait_jobs: 200,
    };
}

/// Which public entry point runs an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    Algorithm(Algorithm),
    Stack(StackSpec),
}

impl Entry {
    pub fn spec(self) -> StackSpec {
        match self {
            Entry::Algorithm(a) => a.stack_spec(),
            Entry::Stack(s) => s,
        }
    }
}

#[derive(Clone)]
pub enum Input {
    Jobs(Rc<Workload>),
    /// A CWF trace on disk, streamed; `jobs` is how many it holds.
    Archive {
        path: PathBuf,
        jobs: usize,
        peak_live_ceiling: u64,
    },
}

/// One (scheduler, input) pair.
#[derive(Clone)]
pub struct Instance {
    pub label: String,
    pub entry: Entry,
    pub input: Input,
    /// Run with the default telemetry timeline.
    pub timeline: bool,
    /// Run with wait-time attribution.
    pub attribution: bool,
}

/// The CWF trace `archive_replay` streams; removed when dropped.
pub struct ArchiveFile(PathBuf);

impl Drop for ArchiveFile {
    fn drop(&mut self) {
        // Best effort: a leftover file only costs disk inside OUT_DIR.
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A workload's inputs. A run works through groups of instances, each
/// instance once per group. A streamed workload draws every group from a
/// new generator seed: a run's cost varies between seeds (tenfold for
/// Conservative backfilling on `paper_grid`), so only many seeds per run
/// give a stable median and tail. `archive_replay` repeats its one trace.
pub struct Setup {
    kind: Kind,
    sizes: Sizes,
    seed: u64,
    first: Vec<Instance>,
    /// Time to make the first group's inputs, and to write the archive.
    pub generate: Duration,
    pub write: Duration,
    _archive: Option<ArchiveFile>,
}

/// Generator seed `r` of a workload under benchmark seed `seed`.
fn generator_seed(seed: u64, r: u64) -> u64 {
    seed.wrapping_shl(20).wrapping_add(r)
}

/// Generate `base` with `jobs` jobs and `seed`, scaled to `load`.
fn scaled(base: GeneratorConfig, jobs: usize, seed: u64, load: f64) -> Workload {
    let mut w = generate(&base.with_jobs(jobs).with_seed(seed));
    w.scale_to_load(MACHINE.total, load);
    w
}

fn batch_config() -> GeneratorConfig {
    GeneratorConfig::paper_batch(0.5).with_paper_eccs()
}

fn hetero_config() -> GeneratorConfig {
    GeneratorConfig::paper_heterogeneous(0.5, 0.3).with_paper_eccs()
}

/// The instances of group `g` of a streamed workload under benchmark
/// seed `seed`: for `paper_grid` every registry algorithm at every load
/// (batch algorithms on the batch workload, `-D` ones on the heterogeneous
/// one), each load on a generator seed of its own so that one seed's
/// backlog slows one load, not six; one stack on one generator seed for
/// the others.
fn streamed_group(kind: Kind, sizes: Sizes, seed: u64, g: u64) -> Vec<Instance> {
    let instance = |entry, w: &Rc<Workload>, load, seed, planes| Instance {
        label: match entry {
            Entry::Algorithm(a) => format!("{} load={load} seed={seed}", a.name()),
            Entry::Stack(s) => format!("{s} load={load} seed={seed}"),
        },
        entry,
        input: Input::Jobs(Rc::clone(w)),
        timeline: planes,
        attribution: planes,
    };
    match kind {
        Kind::PaperGrid => {
            let loads = sizes.grid_loads;
            let mut group = Vec::with_capacity(loads.len() * Algorithm::ALL.len());
            for (l, &load) in (0u64..).zip(loads) {
                let s = generator_seed(seed, g * loads.len() as u64 + l);
                let b = Rc::new(scaled(batch_config(), sizes.grid_jobs, s, load));
                let h = Rc::new(scaled(hetero_config(), sizes.grid_jobs, s, load));
                for algo in Algorithm::ALL {
                    let w = if algo.heterogeneous() { &h } else { &b };
                    group.push(instance(Entry::Algorithm(algo), w, load, s, false));
                }
            }
            group
        }
        Kind::MalleableMix => {
            let s = generator_seed(seed, g);
            let base = hetero_config().with_malleable(0.5);
            let w = Rc::new(scaled(base, sizes.malleable_jobs, s, 0.75));
            let spec = "hybrid-los+m+e".parse().expect("valid stack spec");
            vec![instance(Entry::Stack(spec), &w, 0.75, s, false)]
        }
        Kind::WhyWait => {
            let s = generator_seed(seed, g);
            let w = Rc::new(scaled(hetero_config(), sizes.why_wait_jobs, s, 1.0));
            let spec = "hybrid-los+e".parse().expect("valid stack spec");
            vec![instance(Entry::Stack(spec), &w, 1.0, s, true)]
        }
        Kind::ArchiveReplay => unreachable!("the archive is not streamed"),
    }
}

impl Setup {
    /// Make a workload's first group of inputs from the benchmark seed.
    pub fn new(
        kind: Kind,
        sizes: Sizes,
        seed: u64,
        archive: &ArchivePins,
    ) -> std::io::Result<Setup> {
        let t0 = Instant::now();
        let mut write = Duration::ZERO;
        let mut archive_file = None;
        let first = if kind == Kind::ArchiveReplay {
            let s = generator_seed(seed, 0);
            let jobs = sizes.archive_jobs;
            let mut w = generate(&batch_config().with_jobs(jobs).with_seed(s));
            // The pinned factor, not a re-fit: a fit drifts with trace
            // length, and a higher load grows the queue without bound.
            w.scale_arrivals(archive.scale_factor);
            let generated = Instant::now();
            let mut cwf = CwfFile::from_workload(&w);
            drop(w);
            cwf.sort_by_time();
            std::fs::create_dir_all(OUT_DIR)?;
            let name = format!("archive_replay.{}.cwf", std::process::id());
            let path = Path::new(OUT_DIR).join(name);
            std::fs::write(&path, cwf.to_text())?;
            archive_file = Some(ArchiveFile(path.clone()));
            write = generated.elapsed();
            let algo = Algorithm::DelayedLosE;
            vec![Instance {
                label: format!("{} jobs={jobs} seed={s}", algo.name()),
                entry: Entry::Algorithm(algo),
                input: Input::Archive {
                    path,
                    jobs,
                    peak_live_ceiling: archive.peak_live_ceiling,
                },
                timeline: true,
                attribution: false,
            }]
        } else {
            streamed_group(kind, sizes, seed, 0)
        };
        Ok(Setup {
            kind,
            sizes,
            seed,
            first,
            generate: t0.elapsed() - write,
            write,
            _archive: archive_file,
        })
    }

    /// Whether every group draws new inputs.
    pub fn streamed(&self) -> bool {
        self.kind != Kind::ArchiveReplay
    }

    /// The instances of group `g`: a new generator seed's for a streamed
    /// workload, the first group's again for the archive.
    pub fn group(&self, g: u64) -> Cow<'_, [Instance]> {
        if g == 0 || !self.streamed() {
            Cow::Borrowed(&self.first)
        } else {
            Cow::Owned(streamed_group(self.kind, self.sizes, self.seed, g))
        }
    }

    /// Passes over each group; an instance's time is the lower median of
    /// its runs, the faster of two. `malleable_mix`'s 5 ms runs vary little
    /// between seeds, so its tail is set by the host's hiccups, which rarely
    /// slow both runs. The others spend their time on more seeds:
    /// `paper_grid`'s tail is set by seeds (Conservative's run time has a
    /// heavy tail across them), and `why_wait`'s p99 needs about a thousand
    /// instances to have ten beyond it.
    pub fn passes(&self) -> u64 {
        match self.kind {
            Kind::MalleableMix => 2,
            Kind::PaperGrid | Kind::ArchiveReplay | Kind::WhyWait => 1,
        }
    }

    /// The leading groups whose digests are pinned and whose counts the
    /// traced pass reports.
    pub fn reference_groups(&self) -> u64 {
        match self.kind {
            Kind::PaperGrid => 2,
            Kind::ArchiveReplay => 1,
            Kind::MalleableMix | Kind::WhyWait => 32,
        }
    }

    /// The leading groups the peak RSS is read after: about two seconds
    /// of runs, so every run measures the same work. Read at the end of a
    /// run the peak would grow with the number of groups the host's speed
    /// allowed, as the allocator keeps the largest footprint it has seen.
    pub fn rss_groups(&self) -> u64 {
        match self.kind {
            Kind::PaperGrid => 16,
            Kind::ArchiveReplay => 2,
            Kind::MalleableMix => 256,
            Kind::WhyWait => 128,
        }
    }
}

/// The measured steps of one decomposed run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pieces {
    /// Scheduler build + `Engine::new` + plane set-up.
    pub new_ns: u64,
    pub load_ns: u64,
    pub run_ns: u64,
    /// `RunMetrics::from_result`, or the streamed fold's `finish`.
    pub metrics_ns: u64,
}

impl Pieces {
    pub fn total_ns(&self) -> u64 {
        self.new_ns + self.load_ns + self.run_ns + self.metrics_ns
    }
}

pub struct Decomposed {
    pub metrics: RunMetrics,
    pub result: SimResult,
    pub pieces: Pieces,
    /// Wall time of the whole run, measured outside any span.
    pub wall_ns: u64,
}

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn open_cwf(path: &Path) -> Result<CwfSource<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    Ok(CwfSource::new(BufReader::new(file)))
}

/// A streamed replay must read the whole trace: a parse error ends a
/// `CwfSource` early, which would otherwise look like a short run.
fn check_replay<R: BufRead>(
    src: &CwfSource<R>,
    metrics: &RunMetrics,
    jobs: usize,
) -> Result<(), String> {
    if let Some(e) = src.error() {
        return Err(format!("archive parse error at {e}"));
    }
    if metrics.jobs != jobs {
        return Err(format!("replay completed {} of {jobs} jobs", metrics.jobs));
    }
    Ok(())
}

/// Build the public experiment for an instance and evaluate `$body` on it.
macro_rules! with_experiment {
    ($inst:expr, $exp:ident => $body:expr) => {{
        let timeline = $inst.timeline.then(TimelineConfig::default);
        let attribution = $inst.attribution;
        match $inst.entry {
            Entry::Algorithm(a) => {
                let $exp = Experiment {
                    timeline,
                    attribution,
                    ..Experiment::new(a)
                };
                $body
            }
            Entry::Stack(s) => {
                let $exp = StackExperiment {
                    timeline,
                    attribution,
                    ..StackExperiment::new(s)
                };
                $body
            }
        }
    }};
}

impl Instance {
    /// Run through `Experiment::run` / `StackExperiment::run`, or for the
    /// archive `run_streamed_with` over a `CwfSource` with the bounded
    /// accumulator.
    pub fn run_public(&self) -> Result<RunMetrics, String> {
        match &self.input {
            Input::Jobs(w) => with_experiment!(self, exp => exp.run(w)).map_err(|e| e.to_string()),
            Input::Archive { path, jobs, .. } => {
                let mut src = open_cwf(path)?;
                let metrics = with_experiment!(self, exp => {
                    exp.run_streamed_with(&mut src, RunAccumulator::bounded())
                })
                .map_err(|e| e.to_string())?;
                check_replay(&src, &metrics, *jobs)?;
                Ok(metrics)
            }
        }
    }

    /// Run step by step; with `wrapped`, inside a `run` span and through
    /// the timed wrappers, which record spans when a recorder is installed.
    /// `planes` off disables the instance's timeline and attribution.
    /// Checks the schedule with `validate_schedule` where it applies, and
    /// the archive's peak-live ceiling.
    pub fn run_decomposed(&self, wrapped: bool, planes: bool) -> Result<Decomposed, String> {
        let spec = self.entry.spec();
        let params = SchedParams::default();
        let t0 = Instant::now();
        let out = if wrapped {
            span(Span::Run, || {
                self.drive(|| timed_stack(spec, params), planes)
            })
        } else {
            self.drive(|| spec.build(params), planes)
        }?;
        let wall_ns = nanos_since(t0);
        let (metrics, result, pieces) = out;
        // The validator assumes each job holds one width from start to
        // finish, so it cannot judge runs that resized a malleable job.
        // Streamed runs keep no outcomes to check.
        if result.reconfig.grows + result.reconfig.shrinks == 0 {
            let violations = validate_schedule(&result.outcomes, MACHINE.total);
            if let Some(v) = violations.first() {
                return Err(format!("infeasible schedule: {v:?}"));
            }
        }
        if let Input::Archive {
            peak_live_ceiling, ..
        } = self.input
        {
            if result.engine.peak_live_jobs > peak_live_ceiling {
                return Err(format!(
                    "peak live jobs {} above the pinned ceiling {peak_live_ceiling}: \
                     the replay is measuring queue growth",
                    result.engine.peak_live_jobs
                ));
            }
        }
        Ok(Decomposed {
            metrics,
            result,
            pieces,
            wall_ns,
        })
    }

    fn drive<S: Scheduler>(
        &self,
        build: impl FnOnce() -> S,
        planes: bool,
    ) -> Result<(RunMetrics, SimResult, Pieces), String> {
        let mut pieces = Pieces::default();
        let t = Instant::now();
        let mut engine = Engine::new(MACHINE.build(), build(), self.entry.spec().ecc_policy());
        if planes && self.timeline {
            engine.enable_timeline(TimelineConfig::default());
        }
        if planes && self.attribution {
            engine.enable_attribution();
        }
        pieces.new_ns = nanos_since(t);
        let err = |e: elastisched_sim::SimError| e.to_string();
        match &self.input {
            Input::Jobs(w) => {
                let t = Instant::now();
                span(Span::SimLoad, || engine.load(&w.jobs, &w.eccs)).map_err(err)?;
                pieces.load_ns = nanos_since(t);
                let t = Instant::now();
                let result = engine.run().map_err(err)?;
                pieces.run_ns = nanos_since(t);
                let t = Instant::now();
                let metrics = span(Span::MetricsFromResult, || RunMetrics::from_result(&result));
                pieces.metrics_ns = nanos_since(t);
                Ok((metrics, result, pieces))
            }
            Input::Archive { path, jobs, .. } => {
                let mut src = TimedSource {
                    inner: open_cwf(path)?,
                };
                let mut acc = RunAccumulator::bounded();
                let t = Instant::now();
                let result = engine
                    .run_streaming_folded(&mut src, &mut |o| {
                        span(Span::MetricsFold, || acc.record(o))
                    })
                    .map_err(err)?;
                pieces.run_ns = nanos_since(t);
                let t = Instant::now();
                let metrics = span(Span::MetricsFinish, || acc.finish(&result));
                pieces.metrics_ns = nanos_since(t);
                check_replay(&src.inner, &metrics, *jobs)?;
                Ok((metrics, result, pieces))
            }
        }
    }
}
