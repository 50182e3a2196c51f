//! Always-on audit layer, end to end (`--features audit`).
//!
//! An injected capacity-ledger skew must surface as a recoverable
//! [`SimError::AuditViolation`] — not a panic — and, with the flight
//! recorder armed, leave behind a postmortem JSONL file that parses
//! back into the engine snapshot plus the recent-transition ring.

#![cfg(feature = "audit")]

use elastisched_sim::{
    read_postmortem, Duration, EccKind, EccPolicy, EccSpec, Engine, JobId, JobSpec, JobView,
    Machine, SchedContext, Scheduler, SimError, SimTime, SliceSource,
};
use std::collections::VecDeque;

/// Minimal FIFO policy: starts the head whenever it fits.
#[derive(Default)]
struct Fifo {
    queue: VecDeque<JobView>,
}

impl Scheduler for Fifo {
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
        while let Some(h) = self.queue.front() {
            if h.num <= ctx.free() {
                ctx.start(h.id).expect("fit checked");
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
        "AuditFifo"
    }
}

fn jobs() -> Vec<JobSpec> {
    (0..8)
        .map(|i| JobSpec::batch(i + 1, i * 10, 256, 300))
        .collect()
}

#[test]
fn clean_run_passes_every_audit_check() {
    // Attribution on: the wait-conservation check (`sum(cause buckets)
    // == total wait`, enforced as a hard audit error under this
    // feature) runs for every completing job.
    let mut engine = Engine::new(
        Machine::bluegene_p(),
        Fifo::default(),
        EccPolicy::disabled(),
    );
    engine.enable_attribution();
    engine.load(&jobs(), &[]).unwrap();
    let r = engine.run().expect("a clean run must not trip the audit");
    assert_eq!(r.outcomes.len(), 8);
    assert_eq!(r.attribution.jobs, 8);
    let waited: u64 = r.outcomes.iter().map(|o| o.wait.as_secs()).sum();
    assert_eq!(r.attribution.total_secs(), waited);
}

/// FIFO that holds a dedicated job until its requested start, grows
/// the running malleable job 1 into free processors from t=100, and
/// shrinks it back from t=300: every path that changes what a running
/// job holds.
#[derive(Default)]
struct ResizingFifo {
    queue: VecDeque<JobView>,
    grown: bool,
    shrunk: bool,
}

impl Scheduler for ResizingFifo {
    fn on_arrival(&mut self, job: JobView) {
        self.queue.push_back(job);
    }

    fn cycle(&mut self, ctx: &mut dyn SchedContext) {
        let now = ctx.now();
        while let Some(h) = self.queue.front() {
            let due = h.class.requested_start().map_or(true, |at| at <= now);
            if !due || h.num > ctx.free() {
                break;
            }
            ctx.start(h.id).expect("fit checked");
            self.queue.pop_front();
        }
        if !self.grown && now >= SimTime::from_secs(100) {
            self.grown = ctx.grow_running(JobId(1), 64) > 0;
        }
        if !self.shrunk && now >= SimTime::from_secs(300) {
            self.shrunk = ctx.shrink_running(JobId(1), 96) > 0;
        }
    }

    fn waiting_len(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> &'static str {
        "ResizingFifo"
    }
}

#[test]
fn held_aggregates_survive_resizes_running_eccs_and_dedicated_jobs() {
    // The audit recomputes the engine's running-set aggregates (the
    // processors held by dedicated jobs, by ECC'd jobs, their
    // expand-ECC headroom and the malleable grows) from a walk every
    // cycle; any missed update in a start, completion, resize or
    // running ECC is a violation here.
    let jobs = vec![
        JobSpec::batch(1, 0, 64, 1000).with_proc_range(32, 256),
        JobSpec::batch(2, 0, 64, 1000),
        JobSpec::dedicated(3, 0, 64, 200, 500),
        JobSpec::batch(4, 50, 32, 600),
    ];
    let ecc = |job, at, kind, amount| EccSpec {
        job: JobId(job),
        issue_at: SimTime::from_secs(at),
        kind,
        amount,
    };
    let eccs = vec![
        ecc(2, 100, EccKind::ExtendProcs, 32),
        ecc(1, 150, EccKind::ExtendProcs, 32),
        ecc(2, 200, EccKind::ReduceProcs, 32),
        ecc(2, 250, EccKind::ExtendTime, 50),
        ecc(1, 350, EccKind::ReduceProcs, 32),
        ecc(2, 400, EccKind::ReduceTime, 20),
        ecc(3, 600, EccKind::ExtendProcs, 32),
    ];
    let mut engine = Engine::new(
        Machine::bluegene_p(),
        ResizingFifo::default(),
        EccPolicy::with_resource_elasticity(),
    );
    engine.enable_attribution();
    engine.enable_timeline(Default::default());
    engine.load(&jobs, &eccs).unwrap();
    let r = engine.run().expect("no audit violation");
    assert_eq!(r.outcomes.len(), 4);
    assert_eq!(r.reconfig.grows, 1);
    assert_eq!(r.reconfig.shrinks, 1);
    assert_eq!(r.ecc.applied_running, 7, "{:?}", r.ecc);
    let ded = r.outcomes.iter().find(|o| o.id == JobId(3)).unwrap();
    assert_eq!(ded.started, SimTime::from_secs(500));
    assert!(r
        .timeline
        .samples
        .iter()
        .any(|s| s.dedicated_procs > 0 && s.ecc_procs > 0));
}

#[test]
fn injected_capacity_skew_trips_the_audit_and_dumps_a_postmortem() {
    let path = std::env::temp_dir().join(format!(
        "elastisched-audit-postmortem-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let mut engine = Engine::new(
        Machine::bluegene_p(),
        Fifo::default(),
        EccPolicy::disabled(),
    );
    engine.load(&jobs(), &[]).unwrap();
    engine.enable_flight_recorder(&path);
    engine.inject_capacity_skew_for_test();
    let err = engine.run().expect_err("skewed ledger must trip the audit");
    let SimError::AuditViolation { check, detail } = &err else {
        panic!("expected AuditViolation, got {err}");
    };
    assert_eq!(*check, "capacity");
    assert!(detail.contains("procs"), "detail names the skew: {detail}");

    // The armed flight recorder dumped a parseable postmortem.
    let text = std::fs::read_to_string(&path).expect("postmortem file written");
    let (snap, events) = read_postmortem(&text).expect("postmortem parses");
    assert!(snap.reason.contains("capacity"), "{}", snap.reason);
    assert_eq!(snap.scheduler, "AuditFifo");
    assert_eq!(snap.machine_total, Machine::bluegene_p().total());
    assert!(
        !events.is_empty(),
        "the flight ring held the transitions leading up to the violation"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn streaming_folded_run_dumps_a_postmortem_on_audit_violation() {
    // The materialized test above covers `Engine::run`; a folded
    // streamed run reclaims per-job state as it goes and must still
    // leave the same dump behind when the audit trips mid-loop.
    let path = std::env::temp_dir().join(format!(
        "elastisched-audit-postmortem-streamed-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let jobs = jobs();
    let mut engine = Engine::new(
        Machine::bluegene_p(),
        Fifo::default(),
        EccPolicy::disabled(),
    );
    engine.enable_flight_recorder(&path);
    engine.inject_capacity_skew_for_test();
    let err = engine
        .run_streaming_folded(SliceSource::new(&jobs, &[]), &mut |_| {})
        .expect_err("skewed ledger must trip the audit on the streaming path");
    let SimError::AuditViolation { check, .. } = &err else {
        panic!("expected AuditViolation, got {err}");
    };
    assert_eq!(*check, "capacity");

    let text = std::fs::read_to_string(&path).expect("postmortem file written");
    let (snap, events) = read_postmortem(&text).expect("postmortem parses");
    assert!(snap.reason.contains("capacity"), "{}", snap.reason);
    assert_eq!(snap.scheduler, "AuditFifo");
    assert!(
        !events.is_empty(),
        "the flight ring held the transitions leading up to the violation"
    );
    let _ = std::fs::remove_file(&path);
}
