//! Empirical tuning of the maximum skip count `C_s`.
//!
//! The paper (§III-A): "Formulating a systematic or analytical
//! methodology to compute the optimal value of C_s … is a non-trivial
//! problem", so §V-A tunes it empirically per workload mix and uses that
//! value for the load sweeps. This module automates the procedure: sweep
//! `C_s`, average a few seeds, and pick the value minimizing mean job
//! waiting time.

use crate::calibrate::calibrated_workload;
use crate::experiment::{Experiment, MachineSpec};
use crate::sweep::parallel_map;
use elastisched_sched::{Algorithm, SchedParams};
use elastisched_workload::GeneratorConfig;
use serde::{Deserialize, Serialize};

/// One `C_s` candidate's averaged outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CsCandidate {
    /// The skip-count threshold evaluated.
    pub cs: u32,
    /// Mean job waiting time across seeds, seconds.
    pub mean_wait: f64,
    /// Mean utilization across seeds.
    pub utilization: f64,
}

/// Result of a tuning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsTuning {
    /// The winning `C_s` (minimum mean wait; ties go to the smaller
    /// value, which bounds head delay more tightly).
    pub best: u32,
    /// Every candidate, in ascending `C_s` order.
    pub candidates: Vec<CsCandidate>,
}

/// Sweep `C_s` over `candidates` for Delayed-LOS on workloads generated
/// from `base` at `load`, averaging `replications` seeds per candidate.
pub fn tune_cs(
    base: &GeneratorConfig,
    machine: MachineSpec,
    load: f64,
    candidates: &[u32],
    replications: usize,
    base_seed: u64,
) -> CsTuning {
    assert!(!candidates.is_empty(), "need at least one C_s candidate");
    let workloads: Vec<_> = (0..replications.max(1))
        .map(|r| calibrated_workload(base, machine, load, base_seed + r as u64))
        .collect();
    let mut tasks = Vec::new();
    for (ci, &cs) in candidates.iter().enumerate() {
        for wi in 0..workloads.len() {
            tasks.push((ci, cs, wi));
        }
    }
    crate::telemetry::begin_stage("tune-cs", tasks.len());
    let results: Vec<(usize, f64, f64)> = parallel_map(tasks, |(ci, cs, wi)| {
        let exp = Experiment {
            params: SchedParams::with_cs(cs),
            machine,
            ..Experiment::new(Algorithm::DelayedLos)
        };
        let m = exp.run(&workloads[wi]).expect("simulation must complete");
        (ci, m.mean_wait, m.utilization)
    });
    crate::telemetry::end_stage();
    let mut out = Vec::with_capacity(candidates.len());
    for (ci, &cs) in candidates.iter().enumerate() {
        let bucket: Vec<&(usize, f64, f64)> = results.iter().filter(|(c, _, _)| *c == ci).collect();
        let n = bucket.len().max(1) as f64;
        out.push(CsCandidate {
            cs,
            mean_wait: bucket.iter().map(|(_, w, _)| w).sum::<f64>() / n,
            utilization: bucket.iter().map(|(_, _, u)| u).sum::<f64>() / n,
        });
    }
    let best = out
        .iter()
        .min_by(|a, b| {
            a.mean_wait
                .partial_cmp(&b.mean_wait)
                .expect("finite waits")
                .then(a.cs.cmp(&b.cs))
        })
        .expect("non-empty")
        .cs;
    CsTuning {
        best,
        candidates: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_returns_a_candidate() {
        let base = GeneratorConfig::paper_batch(0.5).with_jobs(80);
        let t = tune_cs(&base, MachineSpec::BLUEGENE_P, 0.9, &[1, 4, 8], 1, 3);
        assert_eq!(t.candidates.len(), 3);
        assert!([1, 4, 8].contains(&t.best));
        for c in &t.candidates {
            assert!(c.mean_wait >= 0.0);
            assert!(c.utilization > 0.0);
        }
    }

    #[test]
    fn best_has_minimum_wait() {
        let base = GeneratorConfig::paper_batch(0.2).with_jobs(80);
        let t = tune_cs(&base, MachineSpec::BLUEGENE_P, 0.9, &[0, 2, 6, 12], 2, 9);
        let best = t.candidates.iter().find(|c| c.cs == t.best).unwrap();
        for c in &t.candidates {
            assert!(best.mean_wait <= c.mean_wait + 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn empty_candidates_panic() {
        let base = GeneratorConfig::paper_batch(0.5).with_jobs(10);
        let _ = tune_cs(&base, MachineSpec::BLUEGENE_P, 0.9, &[], 1, 0);
    }
}
