//! Running one scheduling experiment end to end.

use elastisched_metrics::{RunAccumulator, RunMetrics};
use elastisched_sched::{SchedParams, StackSpec};
use elastisched_sim::{
    Engine, JobSource, Machine, ReconfigCost, SimError, SimResult, TimelineConfig, TraceSink,
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
}

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

    fn build_engine(&self) -> Engine<Box<dyn elastisched_sim::Scheduler + Send>> {
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
        engine
    }

    /// Run against a workload, returning the raw simulation result.
    /// The ECC policy is chosen by the spec's `+e` flag (`-E` registry
    /// variants process ECCs; others drop them).
    pub fn run_raw(&self, workload: &Workload) -> Result<SimResult, SimError> {
        let mut engine = self.build_engine();
        engine.load(&workload.jobs, &workload.eccs)?;
        engine.run()
    }

    /// Run against a workload with structured tracing enabled. The
    /// returned result carries the populated [`TraceSink`] in
    /// `SimResult::trace`; export or query it with the `elastisched-trace`
    /// helpers.
    pub fn run_traced(&self, workload: &Workload, sink: TraceSink) -> Result<SimResult, SimError> {
        let mut engine = self.build_engine();
        engine.enable_tracing(sink);
        engine.load(&workload.jobs, &workload.eccs)?;
        engine.run()
    }

    /// Run against a workload and summarize with the paper's metrics.
    ///
    /// When a telemetry campaign is active (`--serve-metrics` /
    /// `--progress`), the derived metrics are also folded into the
    /// campaign's per-scheduler cost table and live gauges
    /// ([`crate::telemetry::record_run`]); otherwise that hook is a
    /// single branch.
    pub fn run(&self, workload: &Workload) -> Result<RunMetrics, SimError> {
        let metrics = RunMetrics::from_result(&self.run_raw(workload)?);
        crate::telemetry::record_run(&metrics);
        Ok(metrics)
    }

    /// Run over a streaming [`JobSource`], returning the raw result with
    /// outcomes retained. Arrivals are admitted lazily and per-job engine
    /// state is reclaimed at completion, so peak engine memory tracks
    /// live jobs; the outcome vector still grows with the trace — use
    /// [`Experiment::run_streamed`] to bound that too.
    pub fn run_streamed_raw(&self, source: impl JobSource) -> Result<SimResult, SimError> {
        self.build_engine().run_streaming(source)
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
        let engine = self.build_engine();
        let result = engine.run_streaming_folded(source, &mut |o| acc.record(o))?;
        let metrics = acc.finish(&result);
        crate::telemetry::record_run(&metrics);
        Ok(metrics)
    }

    /// [`Experiment::run_streamed_with`] on the exact accumulator: the
    /// streamed, fold-as-you-go equivalent of [`Experiment::run`].
    pub fn run_streamed(&self, source: impl JobSource) -> Result<RunMetrics, SimError> {
        self.run_streamed_with(source, RunAccumulator::exact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sched::Algorithm;
    use elastisched_workload::{generate, GeneratorConfig};

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
        let w = generate(&GeneratorConfig::paper_batch(0.2).with_jobs(100).with_seed(9));
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
    fn machine_spec_builds() {
        assert_eq!(MachineSpec::BLUEGENE_P.build().total(), 320);
        assert_eq!(MachineSpec::SDSC_SP2.build().unit(), 1);
    }
}
