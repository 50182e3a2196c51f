//! The algorithm registry: the paper's Table III plus extra baselines.
//!
//! Each [`Algorithm`] names one of the twelve paper configurations —
//! EASY and LOS each in {plain, -D, -E, -DE}, plus Delayed-LOS and
//! Hybrid-LOS each in {plain, -E} (Hybrid-LOS *is* the dedicated-queue
//! form of Delayed-LOS, so it has no separate -D row) — or one of the
//! additional baselines (FCFS, Conservative, Adaptive, and the ordered
//! policies). The `-E` suffix is realized by the engine's ECC policy,
//! not by a different scheduler struct — exactly as in the paper, where
//! the ECC processor is appended to an existing algorithm.
//!
//! Every algorithm is described by a [`StackSpec`]: a [`CorePolicy`]
//! plus the dedicated-queue and ECC-processor flags. The spec is the
//! single source of truth — [`Algorithm::heterogeneous`],
//! [`Algorithm::elastic`], [`Algorithm::ecc_policy`] and
//! [`Algorithm::build`] all read it — and it is [`FromStr`]-able with a
//! compact `"<core>[+d][+m][+e]"` syntax (`"easy+d"`,
//! `"delayed-los+d+e"`, `"hybrid-los+m"`), which also names stacks
//! outside Table III (e.g. `"fcfs+d"`, `"delayed-los+m"`). The base
//! may also be a registry display name (`"EASY-D"`, `"Hybrid-LOS-E"`),
//! so one parse names every scheduler. The `+m`
//! flag wraps the assembled layer in
//! [`crate::stack::WithMalleable`], the scheduler-initiated resize
//! pass over proc-range (malleable) jobs.

use crate::adaptive::AdaptiveCore;
use crate::conservative::ConservativeCore;
use crate::delayed_los::{DelayedLosCore, DEFAULT_MAX_SKIP};
use crate::easy::EasyCore;
use crate::fcfs::FcfsCore;
use crate::los::{LosCore, DEFAULT_LOOKAHEAD};
use crate::ordered::{OrderPolicy, OrderedCore};
use crate::stack::{BatchOnly, PolicyStack, WithDedicated};
use elastisched_sim::{EccPolicy, Scheduler};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Tunables shared by the LOS family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedParams {
    /// Maximum skip count `C_s` (Delayed-LOS / Hybrid-LOS).
    pub cs: u32,
    /// DP lookahead window (LOS family).
    pub lookahead: usize,
}

impl Default for SchedParams {
    fn default() -> Self {
        SchedParams {
            cs: DEFAULT_MAX_SKIP,
            lookahead: DEFAULT_LOOKAHEAD,
        }
    }
}

impl SchedParams {
    /// Params with an explicit `C_s`.
    pub fn with_cs(cs: u32) -> Self {
        SchedParams {
            cs,
            ..SchedParams::default()
        }
    }
}

/// The base batch policy of a stack: which [`crate::stack::BatchPolicy`]
/// core drives the cycle, before any dedicated-queue or ECC layering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorePolicy {
    /// First-come first-served (no backfilling).
    Fcfs,
    /// Conservative backfilling.
    Conservative,
    /// EASY aggressive backfilling.
    Easy,
    /// Lookahead Optimizing Scheduler.
    Los,
    /// The paper's Delayed-LOS (Algorithm 1; its dedicated form is
    /// Hybrid-LOS).
    DelayedLos,
    /// Dynamic EASY/Delayed-LOS selection (paper §V-A sketch).
    Adaptive,
    /// Shortest-job-first, no backfill.
    Sjf,
    /// Shortest-job-first with EASY-style backfilling.
    SjfBf,
    /// Smallest-job-first, no backfill.
    SmallestFirst,
    /// Smallest-job-first with backfilling.
    SmallestFirstBf,
    /// Largest-job-first, no backfill.
    LargestFirst,
    /// Largest-job-first with backfilling.
    LargestFirstBf,
}

impl CorePolicy {
    /// Every core, in registry order.
    pub const ALL: [CorePolicy; 12] = [
        CorePolicy::Fcfs,
        CorePolicy::Conservative,
        CorePolicy::Easy,
        CorePolicy::Los,
        CorePolicy::DelayedLos,
        CorePolicy::Adaptive,
        CorePolicy::Sjf,
        CorePolicy::SjfBf,
        CorePolicy::SmallestFirst,
        CorePolicy::SmallestFirstBf,
        CorePolicy::LargestFirst,
        CorePolicy::LargestFirstBf,
    ];

    /// The kebab-case token used in stack-spec strings.
    pub fn token(&self) -> &'static str {
        match self {
            CorePolicy::Fcfs => "fcfs",
            CorePolicy::Conservative => "conservative",
            CorePolicy::Easy => "easy",
            CorePolicy::Los => "los",
            CorePolicy::DelayedLos => "delayed-los",
            CorePolicy::Adaptive => "adaptive",
            CorePolicy::Sjf => "sjf",
            CorePolicy::SjfBf => "sjf-bf",
            CorePolicy::SmallestFirst => "smallest-first",
            CorePolicy::SmallestFirstBf => "smallest-first-bf",
            CorePolicy::LargestFirst => "largest-first",
            CorePolicy::LargestFirstBf => "largest-first-bf",
        }
    }
}

/// A fully-specified scheduler stack: a policy core, optionally layered
/// with the dedicated queue (`+d`), optionally layered with the
/// malleable resize pass (`+m`), optionally run under the engine's ECC
/// processor (`+e`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StackSpec {
    /// The base batch policy.
    pub core: CorePolicy,
    /// Layer the dedicated-job queue on top of the core.
    pub dedicated: bool,
    /// Layer the malleable shrink-to-admit / grow-into-free pass on top
    /// ([`crate::stack::WithMalleable`]). `#[serde(default)]` so specs
    /// serialized before the field existed deserialize rigid.
    #[serde(default)]
    pub malleable: bool,
    /// Run the engine's ECC processor (time elasticity) alongside.
    pub elastic: bool,
}

impl StackSpec {
    /// A plain batch-only, non-elastic stack over `core`.
    pub fn plain(core: CorePolicy) -> Self {
        StackSpec {
            core,
            dedicated: false,
            malleable: false,
            elastic: false,
        }
    }

    /// The same spec with the dedicated-queue layer enabled.
    pub fn with_dedicated(self) -> Self {
        StackSpec {
            dedicated: true,
            ..self
        }
    }

    /// The same spec with the malleable layer enabled.
    pub fn with_malleable(self) -> Self {
        StackSpec {
            malleable: true,
            ..self
        }
    }

    /// The same spec with the ECC processor enabled.
    pub fn with_elastic(self) -> Self {
        StackSpec {
            elastic: true,
            ..self
        }
    }

    /// The ECC policy the engine should run with.
    pub fn ecc_policy(&self) -> EccPolicy {
        if self.elastic {
            EccPolicy::time_only()
        } else {
            EccPolicy::disabled()
        }
    }

    /// Instantiate the scheduler stack.
    ///
    /// The promotion skip-count of the dedicated layer is `C_s` for the
    /// skip-budgeted cores (Delayed-LOS — giving Hybrid-LOS — and
    /// Adaptive) and `0` for everything else, matching the paper's
    /// Algorithm 3 and the EASY-D/LOS-D constructions respectively.
    pub fn build(&self, params: SchedParams) -> Box<dyn Scheduler + Send> {
        macro_rules! stack {
            ($core:expr, $scount:expr) => {
                match (self.dedicated, self.malleable) {
                    (false, false) => {
                        Box::new(PolicyStack::batch_only($core)) as Box<dyn Scheduler + Send>
                    }
                    (true, false) => Box::new(PolicyStack::with_dedicated($core, $scount)),
                    (false, true) => Box::new(PolicyStack::with_malleable(BatchOnly::new($core))),
                    (true, true) => Box::new(PolicyStack::with_malleable(WithDedicated::new(
                        $core, $scount,
                    ))),
                }
            };
        }
        match self.core {
            CorePolicy::Fcfs => stack!(FcfsCore, 0),
            CorePolicy::Conservative => stack!(ConservativeCore::new(), 0),
            CorePolicy::Easy => stack!(EasyCore, 0),
            CorePolicy::Los => stack!(LosCore::new(params.lookahead), 0),
            CorePolicy::DelayedLos => {
                stack!(DelayedLosCore::new(params.cs, params.lookahead), params.cs)
            }
            CorePolicy::Adaptive => stack!(AdaptiveCore::new(), params.cs),
            CorePolicy::Sjf => stack!(OrderedCore::new(OrderPolicy::ShortestJobFirst), 0),
            CorePolicy::SjfBf => {
                stack!(OrderedCore::with_backfill(OrderPolicy::ShortestJobFirst), 0)
            }
            CorePolicy::SmallestFirst => {
                stack!(OrderedCore::new(OrderPolicy::SmallestJobFirst), 0)
            }
            CorePolicy::SmallestFirstBf => {
                stack!(OrderedCore::with_backfill(OrderPolicy::SmallestJobFirst), 0)
            }
            CorePolicy::LargestFirst => {
                stack!(OrderedCore::new(OrderPolicy::LargestJobFirst), 0)
            }
            CorePolicy::LargestFirstBf => {
                stack!(OrderedCore::with_backfill(OrderPolicy::LargestJobFirst), 0)
            }
        }
    }
}

impl fmt::Display for StackSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.core.token())?;
        if self.dedicated {
            f.write_str("+d")?;
        }
        if self.malleable {
            f.write_str("+m")?;
        }
        if self.elastic {
            f.write_str("+e")?;
        }
        Ok(())
    }
}

impl FromStr for StackSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let canon = s.to_ascii_lowercase().replace(['_', ' '], "-");
        let mut parts = canon.split('+');
        let core_tok = parts.next().unwrap_or_default();
        // The base is a core token or a registry display name, so
        // "Hybrid-LOS" (the paper's name for delayed-los+d) and
        // "hybrid-los+m" both name stacks.
        let mut spec = match CorePolicy::ALL.into_iter().find(|c| c.token() == core_tok) {
            Some(core) => StackSpec::plain(core),
            None => Algorithm::ALL
                .into_iter()
                .find(|a| a.name().to_ascii_lowercase() == core_tok)
                .map(StackSpec::from)
                .ok_or_else(|| {
                    format!("unknown policy core or algorithm {core_tok:?} in stack spec {s:?}")
                })?,
        };
        for flag in parts {
            match flag {
                "d" | "ded" | "dedicated" => spec.dedicated = true,
                "m" | "mal" | "malleable" => spec.malleable = true,
                "e" | "ecc" | "elastic" => spec.elastic = true,
                other => return Err(format!("unknown stack flag {other:?} in stack spec {s:?}")),
            }
        }
        Ok(spec)
    }
}

/// Every algorithm this library can run (paper Table III + baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// First-come first-served (baseline, §II-B).
    Fcfs,
    /// Conservative backfilling (baseline, §II-B).
    Conservative,
    /// EASY backfilling, batch only.
    Easy,
    /// EASY with a dedicated queue.
    EasyD,
    /// EASY with the ECC processor.
    EasyE,
    /// EASY with dedicated queue and ECC processor.
    EasyDE,
    /// Lookahead Optimizing Scheduler, batch only.
    Los,
    /// LOS with a dedicated queue.
    LosD,
    /// LOS with the ECC processor.
    LosE,
    /// LOS with dedicated queue and ECC processor.
    LosDE,
    /// The paper's Delayed-LOS (Algorithm 1).
    DelayedLos,
    /// The paper's Hybrid-LOS (Algorithm 2).
    HybridLos,
    /// Delayed-LOS with the ECC processor.
    DelayedLosE,
    /// Hybrid-LOS with the ECC processor.
    HybridLosE,
    /// Dynamic EASY/Delayed-LOS selection (paper §V-A sketch).
    Adaptive,
    /// Shortest-job-first (related work \[3\]).
    Sjf,
    /// Shortest-job-first with EASY-style backfilling.
    SjfBf,
    /// Smallest-job-first with backfilling (related work \[10\]).
    SmallestFirstBf,
    /// Largest-job-first with backfilling (related work \[11\]).
    LargestFirstBf,
}

impl Algorithm {
    /// Every registered algorithm, in declaration order.
    pub const ALL: [Algorithm; 19] = [
        Algorithm::Fcfs,
        Algorithm::Conservative,
        Algorithm::Easy,
        Algorithm::EasyD,
        Algorithm::EasyE,
        Algorithm::EasyDE,
        Algorithm::Los,
        Algorithm::LosD,
        Algorithm::LosE,
        Algorithm::LosDE,
        Algorithm::DelayedLos,
        Algorithm::HybridLos,
        Algorithm::DelayedLosE,
        Algorithm::HybridLosE,
        Algorithm::Adaptive,
        Algorithm::Sjf,
        Algorithm::SjfBf,
        Algorithm::SmallestFirstBf,
        Algorithm::LargestFirstBf,
    ];

    /// The twelve configurations of the paper's Table III, in table order.
    pub const PAPER_TABLE_III: [Algorithm; 12] = [
        Algorithm::Easy,
        Algorithm::EasyD,
        Algorithm::EasyE,
        Algorithm::EasyDE,
        Algorithm::Los,
        Algorithm::LosD,
        Algorithm::LosE,
        Algorithm::LosDE,
        Algorithm::DelayedLos,
        Algorithm::HybridLos,
        Algorithm::DelayedLosE,
        Algorithm::HybridLosE,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Fcfs => "FCFS",
            Algorithm::Conservative => "Conservative",
            Algorithm::Easy => "EASY",
            Algorithm::EasyD => "EASY-D",
            Algorithm::EasyE => "EASY-E",
            Algorithm::EasyDE => "EASY-DE",
            Algorithm::Los => "LOS",
            Algorithm::LosD => "LOS-D",
            Algorithm::LosE => "LOS-E",
            Algorithm::LosDE => "LOS-DE",
            Algorithm::DelayedLos => "Delayed-LOS",
            Algorithm::HybridLos => "Hybrid-LOS",
            Algorithm::DelayedLosE => "Delayed-LOS-E",
            Algorithm::HybridLosE => "Hybrid-LOS-E",
            Algorithm::Adaptive => "Adaptive",
            Algorithm::Sjf => "SJF",
            Algorithm::SjfBf => "SJF-BF",
            Algorithm::SmallestFirstBf => "Smallest-First-BF",
            Algorithm::LargestFirstBf => "Largest-First-BF",
        }
    }

    /// The stack this algorithm composes to — the single source of truth
    /// for [`Self::heterogeneous`], [`Self::elastic`],
    /// [`Self::ecc_policy`] and [`Self::build`].
    pub fn stack_spec(&self) -> StackSpec {
        use CorePolicy as C;
        let plain = StackSpec::plain;
        match self {
            Algorithm::Fcfs => plain(C::Fcfs),
            Algorithm::Conservative => plain(C::Conservative),
            Algorithm::Easy => plain(C::Easy),
            Algorithm::EasyD => plain(C::Easy).with_dedicated(),
            Algorithm::EasyE => plain(C::Easy).with_elastic(),
            Algorithm::EasyDE => plain(C::Easy).with_dedicated().with_elastic(),
            Algorithm::Los => plain(C::Los),
            Algorithm::LosD => plain(C::Los).with_dedicated(),
            Algorithm::LosE => plain(C::Los).with_elastic(),
            Algorithm::LosDE => plain(C::Los).with_dedicated().with_elastic(),
            Algorithm::DelayedLos => plain(C::DelayedLos),
            Algorithm::HybridLos => plain(C::DelayedLos).with_dedicated(),
            Algorithm::DelayedLosE => plain(C::DelayedLos).with_elastic(),
            Algorithm::HybridLosE => plain(C::DelayedLos).with_dedicated().with_elastic(),
            Algorithm::Adaptive => plain(C::Adaptive),
            Algorithm::Sjf => plain(C::Sjf),
            Algorithm::SjfBf => plain(C::SjfBf),
            Algorithm::SmallestFirstBf => plain(C::SmallestFirstBf),
            Algorithm::LargestFirstBf => plain(C::LargestFirstBf),
        }
    }

    /// Whether the algorithm schedules heterogeneous workloads (has a
    /// dedicated queue) — the "Workload Scheduling" column of Table III.
    pub fn heterogeneous(&self) -> bool {
        self.stack_spec().dedicated
    }

    /// Whether the ECC processor is attached — the "ECC Processor"
    /// column of Table III.
    pub fn elastic(&self) -> bool {
        self.stack_spec().elastic
    }

    /// The ECC policy the engine should run with.
    pub fn ecc_policy(&self) -> EccPolicy {
        self.stack_spec().ecc_policy()
    }

    /// Instantiate the scheduler (compositionally, via
    /// [`Self::stack_spec`]).
    pub fn build(&self, params: SchedParams) -> Box<dyn Scheduler + Send> {
        self.stack_spec().build(params)
    }
}

impl From<Algorithm> for StackSpec {
    fn from(a: Algorithm) -> Self {
        a.stack_spec()
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let canon = s.to_ascii_lowercase().replace(['_', ' '], "-");
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name().to_ascii_lowercase() == canon)
            .ok_or_else(|| format!("unknown algorithm {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_capability_matrix() {
        use Algorithm::*;
        // (algorithm, heterogeneous, elastic) exactly as in Table III.
        let expected = [
            (Easy, false, false),
            (EasyD, true, false),
            (EasyE, false, true),
            (EasyDE, true, true),
            (Los, false, false),
            (LosD, true, false),
            (LosE, false, true),
            (LosDE, true, true),
            (DelayedLos, false, false),
            (HybridLos, true, false),
            (DelayedLosE, false, true),
            (HybridLosE, true, true),
        ];
        for (a, het, el) in expected {
            assert_eq!(a.heterogeneous(), het, "{a}");
            assert_eq!(a.elastic(), el, "{a}");
        }
        assert_eq!(Algorithm::PAPER_TABLE_III.len(), 12);
    }

    #[test]
    fn all_is_exhaustive_and_unique() {
        let mut names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len(), "duplicate names in ALL");
        for a in Algorithm::PAPER_TABLE_III {
            assert!(Algorithm::ALL.contains(&a), "{a} missing from ALL");
        }
    }

    #[test]
    fn ecc_policy_matches_elasticity() {
        assert!(!Algorithm::Easy.ecc_policy().time_elasticity);
        assert!(Algorithm::EasyE.ecc_policy().time_elasticity);
        assert!(Algorithm::HybridLosE.ecc_policy().time_elasticity);
        assert!(!Algorithm::HybridLos.ecc_policy().time_elasticity);
    }

    #[test]
    fn build_produces_named_schedulers() {
        let p = SchedParams::default();
        for a in Algorithm::ALL {
            let s = a.build(p);
            // The -E variants reuse the base scheduler struct.
            let base = a.name().trim_end_matches("-E").trim_end_matches("-DE");
            assert!(
                s.name().starts_with(base) || a.name().starts_with(s.name()),
                "{a} built {}",
                s.name()
            );
        }
        assert_eq!(Algorithm::Fcfs.build(p).name(), "FCFS");
        assert_eq!(Algorithm::Adaptive.build(p).name(), "Adaptive");
        assert_eq!(Algorithm::HybridLos.build(p).name(), "Hybrid-LOS");
        assert_eq!(Algorithm::EasyD.build(p).name(), "EASY-D");
    }

    #[test]
    fn from_str_roundtrips() {
        for a in Algorithm::ALL {
            assert_eq!(a.name().parse::<Algorithm>().unwrap(), a);
        }
        assert_eq!("easy".parse::<Algorithm>().unwrap(), Algorithm::Easy);
        assert_eq!(
            "delayed_los".parse::<Algorithm>().unwrap(),
            Algorithm::DelayedLos
        );
        assert!("bogus".parse::<Algorithm>().is_err());
    }

    #[test]
    fn stack_spec_parses_and_displays() {
        let spec: StackSpec = "delayed-los+d".parse().unwrap();
        assert_eq!(spec, Algorithm::HybridLos.stack_spec());
        assert_eq!(spec.to_string(), "delayed-los+d");

        let spec: StackSpec = "easy+d+e".parse().unwrap();
        assert_eq!(spec, Algorithm::EasyDE.stack_spec());
        assert_eq!(spec.to_string(), "easy+d+e");

        // Flag aliases and order-independence.
        let a: StackSpec = "los+ecc+dedicated".parse().unwrap();
        let b: StackSpec = "los+d+e".parse().unwrap();
        assert_eq!(a, b);

        // Stacks outside Table III are expressible too.
        let spec: StackSpec = "fcfs+d".parse().unwrap();
        assert!(spec.dedicated && !spec.elastic);
        assert_eq!(spec.build(SchedParams::default()).name(), "FCFS-D");

        assert!("bogus+d".parse::<StackSpec>().is_err());
        assert!("easy+x".parse::<StackSpec>().is_err());
    }

    #[test]
    fn malleable_specs_parse_display_and_build() {
        let p = SchedParams::default();

        let spec: StackSpec = "delayed-los+m".parse().unwrap();
        assert_eq!(spec, Algorithm::DelayedLos.stack_spec().with_malleable());
        assert_eq!(spec.to_string(), "delayed-los+m");
        assert_eq!(spec.build(p).name(), "Delayed-LOS-M");

        // "hybrid-los" aliases delayed-los+d; a redundant +d is harmless.
        let a: StackSpec = "hybrid-los+d+m".parse().unwrap();
        let b: StackSpec = "delayed-los+d+m".parse().unwrap();
        let c: StackSpec = "hybrid-los+m".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.to_string(), "delayed-los+d+m");
        assert_eq!(a.build(p).name(), "Hybrid-LOS-M");

        // Flag aliases, order-independence, and +m+e composition.
        let d: StackSpec = "easy+malleable+ecc".parse().unwrap();
        assert!(d.malleable && d.elastic && !d.dedicated);
        assert_eq!(d.to_string(), "easy+m+e");
        assert_eq!(d.build(p).name(), "EASY-M");

        // Specs serialized before the field existed deserialize rigid.
        let legacy: StackSpec =
            serde_json::from_str(r#"{"core":"Easy","dedicated":true,"elastic":false}"#).unwrap();
        assert!(!legacy.malleable);
        assert_eq!(legacy, Algorithm::EasyD.stack_spec());
    }

    #[test]
    fn stack_spec_is_single_source_of_truth() {
        let p = SchedParams::default();
        for a in Algorithm::ALL {
            let spec = a.stack_spec();
            assert_eq!(spec.dedicated, a.heterogeneous(), "{a}");
            assert_eq!(spec.elastic, a.elastic(), "{a}");
            assert_eq!(spec.build(p).name(), a.build(p).name(), "{a}");
            // Spec strings roundtrip through FromStr.
            assert_eq!(spec.to_string().parse::<StackSpec>().unwrap(), spec, "{a}");
            // So do registry display names, in any case, with `_` for `-`.
            let name = a.name();
            for form in [
                name.to_string(),
                name.to_ascii_lowercase(),
                name.replace('-', "_"),
            ] {
                assert_eq!(form.parse::<StackSpec>(), Ok(spec), "{form}");
            }
            assert_eq!(StackSpec::from(a), spec, "{a}");
        }
    }

    #[test]
    fn params_builder() {
        let p = SchedParams::with_cs(12);
        assert_eq!(p.cs, 12);
        assert_eq!(p.lookahead, DEFAULT_LOOKAHEAD);
    }
}
