//! Hybrid-LOS (the paper's Algorithms 2 and 3) for heterogeneous
//! workloads: batch jobs scheduled around rigid dedicated jobs.
//!
//! Hybrid-LOS is not a hand-rolled scheduler here — it is the Delayed-LOS
//! core stacked under the dedicated-queue layer:
//!
//! * the core's skip budget `C_s` selects [`WithDedicated`]'s
//!   *interleaved* drive (the Algorithm 2 loop: force-start an
//!   exhausted-budget batch head, promote due dedicated jobs one at a
//!   time with `scount = C_s` — Algorithm 3 — and run at most one DP pass
//!   per cycle);
//! * around a *future* dedicated start the core's
//!   [`BatchPolicy::dedicated_cycle`](crate::stack::BatchPolicy::dedicated_cycle)
//!   override runs the Reservation_DP pass (Algorithm 2 lines 8–30),
//!   incrementing the batch head's `scount` when it is skipped.
//!
//! **Deviation:** the paper does not re-check `w_1^b.num ≤ m` before a
//! forced head start; we do, since activating a job larger than the free
//! capacity would oversubscribe the machine (see DESIGN.md).

use crate::delayed_los::{DelayedLosCore, DEFAULT_MAX_SKIP};
use crate::los::DEFAULT_LOOKAHEAD;
use crate::stack::{PolicyStack, WithDedicated};

/// The Hybrid-LOS scheduler (heterogeneous workloads).
pub type HybridLos = PolicyStack<WithDedicated<DelayedLosCore>>;

impl HybridLos {
    /// Hybrid-LOS with the default `C_s` and lookahead.
    pub fn new() -> Self {
        HybridLos::with_params(DEFAULT_MAX_SKIP, DEFAULT_LOOKAHEAD)
    }

    /// Hybrid-LOS with explicit `C_s` and lookahead. Promoted dedicated
    /// jobs enter the batch queue with `scount = C_s` so the head-start
    /// rule fires them as soon as capacity allows.
    pub fn with_params(cs: u32, lookahead: usize) -> Self {
        PolicyStack::with_dedicated(DelayedLosCore::new(cs, lookahead), cs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::JobSpec;
    use elastisched_test_util::{run_on_bluegene, started};

    fn run(jobs: &[JobSpec]) -> elastisched_sim::SimResult {
        run_on_bluegene(HybridLos::new(), jobs)
    }

    #[test]
    fn dedicated_job_starts_exactly_on_time_when_capacity_allows() {
        let jobs = vec![
            JobSpec::batch(1, 0, 128, 1_000),
            JobSpec::dedicated(2, 10, 96, 100, 500),
            JobSpec::batch(3, 20, 64, 100),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 2), 500, "dedicated start time honoured");
        assert_eq!(started(&r, 1), 0);
        assert_eq!(started(&r, 3), 20);
    }

    #[test]
    fn batch_jobs_do_not_steal_dedicated_capacity() {
        // Dedicated job needs the whole machine at t=100. A long batch
        // job arriving at t=10 must NOT start (it would still hold
        // processors at t=100); a short one may.
        let jobs = vec![
            JobSpec::dedicated(1, 0, 320, 50, 100),
            JobSpec::batch(2, 10, 160, 500), // long — would collide
            JobSpec::batch(3, 20, 160, 60),  // short — finishes at 80
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 1), 100, "dedicated on time");
        assert_eq!(started(&r, 3), 20, "short batch fills the gap");
        assert!(
            started(&r, 2) >= 150,
            "long batch waits for the dedicated job"
        );
    }

    #[test]
    fn dedicated_delayed_when_capacity_insufficient() {
        // The machine is fully busy until t=200; a dedicated job asking
        // for t=100 is unavoidably delayed (paper: "this delay is
        // unavoidable due to insufficient capacity").
        let jobs = vec![
            JobSpec::batch(1, 0, 320, 200),
            JobSpec::dedicated(2, 10, 320, 50, 100),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 2), 200);
        // Wait is measured from the requested start for dedicated jobs.
        let o = r.outcomes.iter().find(|o| o.id.0 == 2).unwrap();
        assert_eq!(o.wait.as_secs(), 100);
    }

    #[test]
    fn equal_start_dedicated_jobs_all_reserved_together() {
        // Two dedicated jobs share start t=100 (tot_start_num = 256).
        // A batch job that would leave less than 256 at t=100 must wait.
        let jobs = vec![
            JobSpec::dedicated(1, 0, 128, 100, 100),
            JobSpec::dedicated(2, 0, 128, 100, 100),
            JobSpec::batch(3, 10, 128, 500), // long, collides with both
            JobSpec::batch(4, 20, 64, 500),  // long but fits beside 256
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 1), 100);
        assert_eq!(started(&r, 2), 100);
        assert!(started(&r, 3) >= 200, "would violate tot_start_num");
        assert_eq!(started(&r, 4), 20, "64 procs fit alongside 256 dedicated");
    }

    #[test]
    fn falls_back_to_delayed_los_without_dedicated_jobs() {
        // The Figure 2 example must behave exactly like Delayed-LOS.
        let jobs = vec![
            JobSpec::batch(1, 0, 224, 100),
            JobSpec::batch(2, 0, 128, 100),
            JobSpec::batch(3, 0, 192, 100),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 2), 0);
        assert_eq!(started(&r, 3), 0);
        assert_eq!(started(&r, 1), 100);
    }

    #[test]
    fn due_dedicated_jobs_preserve_start_order() {
        // Two dedicated jobs with starts 100 and 150, both requiring the
        // full machine, become due while it is busy until t=300. They
        // must run in requested-start order afterwards.
        let jobs = vec![
            JobSpec::batch(1, 0, 320, 300),
            JobSpec::dedicated(2, 10, 320, 50, 100),
            JobSpec::dedicated(3, 10, 320, 50, 150),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 2), 300);
        assert_eq!(started(&r, 3), 350);
    }

    #[test]
    fn batch_head_skip_budget_still_bounds_waiting() {
        // A stream of perfectly packing pairs plus a dedicated job far in
        // the future: the 7-unit batch head must still be forced through
        // after C_s skips.
        let mut jobs = vec![
            JobSpec::batch(1, 0, 224, 50),
            JobSpec::dedicated(999, 0, 32, 10, 1_000_000),
        ];
        let mut id = 2;
        for k in 0..20 {
            jobs.push(JobSpec::batch(id, k * 50, 128, 50));
            id += 1;
            jobs.push(JobSpec::batch(id, k * 50, 160, 50));
            id += 1;
        }
        let r = run(&jobs);
        assert!(
            started(&r, 1) <= 500,
            "head start {} — starved despite C_s",
            started(&r, 1)
        );
    }

    #[test]
    fn drains_mixed_workload() {
        let mut jobs = Vec::new();
        for i in 0..100u64 {
            if i % 3 == 0 {
                jobs.push(JobSpec::dedicated(
                    i + 1,
                    i * 13,
                    32 * (1 + (i as u32) % 5),
                    40 + i % 100,
                    i * 13 + 200,
                ));
            } else {
                jobs.push(JobSpec::batch(
                    i + 1,
                    i * 13,
                    32 * (1 + (i as u32 * 7) % 10),
                    40 + i % 200,
                ));
            }
        }
        let r = run(&jobs);
        assert_eq!(r.outcomes.len(), 100);
    }
}
