//! Running one scheduling experiment end to end.

use elastisched_metrics::{RunAccumulator, RunMetrics};
use elastisched_sched::{SchedParams, StackSpec};
use elastisched_sim::{
    Engine, JobSource, Machine, ReconfigCost, Scheduler, SimError, SimResult, TimelineConfig,
    TraceSink,
};
use elastisched_workload::Workload;
use serde::{Deserialize, Serialize};

/// The simulated machine, by dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Total processors `M`.
    pub total: u32,
    /// Allocation unit (node-group size).
    pub unit: u32,
}

impl MachineSpec {
    /// The paper's BlueGene/P: 320 processors, 32-processor node groups.
    pub const BLUEGENE_P: MachineSpec = MachineSpec {
        total: 320,
        unit: 32,
    };

    /// An SDSC-SP2-like machine: 128 processors, unit allocation.
    pub const SDSC_SP2: MachineSpec = MachineSpec {
        total: 128,
        unit: 1,
    };

    /// Materialize the machine model.
    pub fn build(&self) -> Machine {
        Machine::new(self.total, self.unit)
    }
}

/// One experiment: a scheduler stack (with tunables) against a workload
/// on a machine. Name the stack by a registry
/// [`Algorithm`](elastisched_sched::Algorithm) or by any
/// [`StackSpec`] composition (e.g. `"fcfs+d"`, `"hybrid-los+m"`),
/// including stacks outside the paper's Table III.
///
/// The pub fields are the run options: every entry point ([`run`],
/// [`run_raw`], [`run_streamed_with`]) arms the same planes from them
/// and reports the run to the active telemetry campaign.
///
/// [`run`]: Experiment::run
/// [`run_raw`]: Experiment::run_raw
/// [`run_streamed_with`]: Experiment::run_streamed_with
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Which scheduler stack.
    pub spec: StackSpec,
    /// `C_s` and lookahead for the LOS family.
    pub params: SchedParams,
    /// Machine dimensions.
    pub machine: MachineSpec,
    /// When set, every run records a budget-bounded virtual-time
    /// telemetry timeline (`RunMetrics::timeline`).
    pub timeline: Option<TimelineConfig>,
    /// When set, every run classifies each job's queue wait by cause
    /// (`RunMetrics::attribution`, `JobOutcome::attribution`).
    pub attribution: bool,
    /// When set, overrides the engine's malleable reconfiguration-cost
    /// model (relevant to `+m` stacks; `None` keeps the engine default).
    pub reconfig_cost: Option<ReconfigCost>,
    /// When set, every run records its structured trace into a clone of
    /// this sink, returned in `SimResult::trace`; export or query it
    /// with the `elastisched-trace` helpers.
    pub trace: Option<TraceSink>,
}

/// What one run produced: the raw result, and the paper's metrics when
/// they were derived.
type Outcome = (SimResult, Option<RunMetrics>);

/// The former name of [`Experiment`] over a [`StackSpec`], kept so the
/// repository benchmark (`benchmark/`) builds unchanged.
pub type StackExperiment = Experiment;

impl Experiment {
    /// An experiment on the paper's BlueGene/P with default tunables.
    pub fn new(spec: impl Into<StackSpec>) -> Self {
        Experiment {
            spec: spec.into(),
            params: SchedParams::default(),
            machine: MachineSpec::BLUEGENE_P,
            timeline: None,
            attribution: false,
            reconfig_cost: None,
            trace: None,
        }
    }

    /// Override the maximum skip count `C_s`.
    pub fn with_cs(mut self, cs: u32) -> Self {
        self.params.cs = cs;
        self
    }

    /// Override the machine.
    pub fn on_machine(mut self, machine: MachineSpec) -> Self {
        self.machine = machine;
        self
    }

    /// Enable the virtual-time telemetry sampler for every run.
    pub fn with_timeline(mut self, cfg: TimelineConfig) -> Self {
        self.timeline = Some(cfg);
        self
    }

    /// Enable per-job wait-time attribution for every run.
    pub fn with_attribution(mut self) -> Self {
        self.attribution = true;
        self
    }

    /// Override the malleable reconfiguration-cost model.
    pub fn with_reconfig_cost(mut self, cost: ReconfigCost) -> Self {
        self.reconfig_cost = Some(cost);
        self
    }

    /// The one build-arm-run path behind every entry point: build the
    /// stack, arm the planes the fields ask for, let `drive` run the
    /// engine and derive what its entry needs, then report the derived
    /// metrics, if any, to the campaign
    /// ([`crate::telemetry::record_run`]; a single branch without one).
    fn execute(
        &self,
        drive: impl FnOnce(Engine<Box<dyn Scheduler + Send>>) -> Result<Outcome, SimError>,
    ) -> Result<Outcome, SimError> {
        let scheduler = self.spec.build(self.params);
        let mut engine = Engine::new(self.machine.build(), scheduler, self.spec.ecc_policy());
        if let Some(cfg) = self.timeline {
            engine.enable_timeline(cfg);
        }
        if self.attribution {
            engine.enable_attribution();
        }
        if let Some(cost) = self.reconfig_cost {
            engine.set_reconfig_cost(cost);
        }
        if let Some(sink) = &self.trace {
            engine.enable_tracing(sink.clone());
        }
        let (result, metrics) = drive(engine)?;
        if let Some(m) = &metrics {
            crate::telemetry::record_run(m);
        }
        Ok((result, metrics))
    }

    /// Load `workload` up front and run it, deriving the metrics when
    /// `derive` is set or a campaign is active.
    fn materialized(&self, workload: &Workload, derive: bool) -> Result<Outcome, SimError> {
        self.execute(|mut engine| {
            engine.load(&workload.jobs, &workload.eccs)?;
            let result = engine.run()?;
            let derive = derive || crate::telemetry::active().is_some();
            let metrics = derive.then(|| RunMetrics::from_result(&result));
            Ok((result, metrics))
        })
    }

    /// Run against a workload and summarize with the paper's metrics.
    /// The ECC policy is chosen by the spec's `+e` flag (`-E` registry
    /// variants process ECCs; others drop them).
    pub fn run(&self, workload: &Workload) -> Result<RunMetrics, SimError> {
        let (_, metrics) = self.materialized(workload, true)?;
        Ok(metrics.expect("derivation was requested"))
    }

    /// Run against a workload, returning the raw simulation result:
    /// every outcome, plus the trace, timeline and attribution the
    /// fields armed. The metrics are derived only to report the run to
    /// an active campaign.
    pub fn run_raw(&self, workload: &Workload) -> Result<SimResult, SimError> {
        self.materialized(workload, false).map(|(result, _)| result)
    }

    /// Run over a streaming [`JobSource`] end to end in memory bounded
    /// by *live* jobs: outcomes are folded into `acc` as they complete
    /// and never retained. With [`RunAccumulator::exact`] the metrics
    /// are bit-identical to the materialized [`Experiment::run`]; with
    /// [`RunAccumulator::bounded`] even the per-job wait series is
    /// grouped (`wait_summary.std_dev` exact only to ulp level).
    pub fn run_streamed_with(
        &self,
        source: impl JobSource,
        mut acc: RunAccumulator,
    ) -> Result<RunMetrics, SimError> {
        let (_, metrics) = self.execute(|engine| {
            let result = engine.run_streaming_folded(source, &mut |o| acc.record(o))?;
            let metrics = acc.finish(&result);
            Ok((result, Some(metrics)))
        })?;
        Ok(metrics.expect("a folded run always derives"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sched::Algorithm;
    use elastisched_sim::Phase;
    use elastisched_workload::{generate, GeneratorConfig, LublinSource};

    #[test]
    fn runs_paper_batch_workload_under_every_algorithm() {
        let w = generate(&GeneratorConfig::paper_batch(0.5).with_jobs(60).with_seed(1));
        for algo in [
            Algorithm::Fcfs,
            Algorithm::Conservative,
            Algorithm::Easy,
            Algorithm::Los,
            Algorithm::DelayedLos,
            Algorithm::Adaptive,
        ] {
            let m = Experiment::new(algo).run(&w).unwrap();
            assert_eq!(m.jobs, 60, "{algo}");
            assert!(m.utilization > 0.0 && m.utilization <= 1.0, "{algo}");
        }
    }

    #[test]
    fn runs_heterogeneous_workload_under_d_algorithms() {
        let w = generate(
            &GeneratorConfig::paper_heterogeneous(0.5, 0.5)
                .with_jobs(60)
                .with_seed(2),
        );
        for algo in [Algorithm::EasyD, Algorithm::LosD, Algorithm::HybridLos] {
            let m = Experiment::new(algo).run(&w).unwrap();
            assert_eq!(m.jobs, 60, "{algo}");
            assert!(m.dedicated_jobs > 0, "{algo}");
        }
    }

    #[test]
    fn elastic_variants_apply_eccs_and_plain_ones_do_not() {
        let w = generate(
            &GeneratorConfig::paper_batch(0.5)
                .with_paper_eccs()
                .with_jobs(80)
                .with_seed(3),
        );
        assert!(!w.eccs.is_empty());
        let plain = Experiment::new(Algorithm::DelayedLos).run(&w).unwrap();
        let elastic = Experiment::new(Algorithm::DelayedLosE).run(&w).unwrap();
        assert_eq!(plain.eccs_applied, 0);
        assert!(elastic.eccs_applied > 0);
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let w = generate(
            &GeneratorConfig::paper_batch(0.2)
                .with_jobs(100)
                .with_seed(9),
        );
        let a = Experiment::new(Algorithm::DelayedLos).run(&w).unwrap();
        let b = Experiment::new(Algorithm::DelayedLos).run(&w).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stack_experiment_runs_compositions_outside_the_registry() {
        let w = generate(
            &GeneratorConfig::paper_heterogeneous(0.5, 0.5)
                .with_jobs(60)
                .with_seed(4),
        );
        // FCFS-D exists only through the stack syntax, not as a named
        // registry algorithm.
        let spec: StackSpec = "fcfs+d".parse().unwrap();
        let m = Experiment::new(spec).run(&w).unwrap();
        assert_eq!(m.scheduler, "FCFS-D");
        assert_eq!(m.jobs, 60);
        assert!(m.dedicated_jobs > 0);
    }

    #[test]
    fn malleable_stack_runs_and_resizes_malleable_workloads() {
        let w = generate(
            &GeneratorConfig::paper_batch(0.9)
                .with_malleable(0.5)
                .with_jobs(120)
                .with_seed(6),
        );
        assert!(w.jobs.iter().any(|j| j.is_malleable()));
        let base = Experiment::new("delayed-los".parse::<StackSpec>().unwrap())
            .run(&w)
            .unwrap();
        let mal = Experiment::new("delayed-los+m".parse::<StackSpec>().unwrap())
            .run(&w)
            .unwrap();
        assert_eq!(mal.scheduler, "Delayed-LOS-M");
        assert_eq!(mal.jobs, base.jobs);
        assert!(
            mal.reconfig_grows + mal.reconfig_shrinks > 0,
            "malleable layer never resized anything"
        );
        assert_eq!(base.reconfig_grows + base.reconfig_shrinks, 0);

        // The cost-model override plumbs through: free reconfigurations
        // charge nothing.
        let free = Experiment::new("delayed-los+m".parse::<StackSpec>().unwrap())
            .with_reconfig_cost(ReconfigCost::FREE)
            .run(&w)
            .unwrap();
        assert_eq!(free.reconfig_cost_secs, 0);
        assert!(free.reconfig_grows + free.reconfig_shrinks > 0);
    }

    #[test]
    fn streamed_derivation_phase_times_only_the_finish() {
        // The accumulator folds inside the engine loop, so the derivation
        // phase of a folded run is `finish` alone: far below the loop.
        let cfg = GeneratorConfig::paper_batch(0.5)
            .with_jobs(3000)
            .with_seed(8);
        let m = Experiment::new(Algorithm::Easy)
            .run_streamed_with(LublinSource::new(&cfg), RunAccumulator::bounded())
            .unwrap();
        assert_eq!(m.jobs, 3000);
        let derivation = m.phase_profile.nanos_of(Phase::MetricsDerivation);
        assert!(
            derivation < m.engine_nanos,
            "derivation {derivation} ns vs engine loop {} ns",
            m.engine_nanos
        );
    }

    #[test]
    fn machine_spec_builds() {
        assert_eq!(MachineSpec::BLUEGENE_P.build().total(), 320);
        assert_eq!(MachineSpec::SDSC_SP2.build().unit(), 1);
    }
}
