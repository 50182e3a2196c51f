//! Wait-time attribution: *why* did each job wait?
//!
//! The metrics plane reports *that* jobs waited; this module decomposes
//! each job's queue wait into causes so two scheduler stacks can be
//! compared causally ("Delayed-LOS traded 400s of head skips for 9000s
//! less capacity blocking") instead of numerically.
//!
//! # Cause taxonomy
//!
//! Every second of every job's wait (from [`JobSpec::eligible_at`] to
//! its start) lands in exactly one bucket:
//!
//! - **capacity** — the job did not fit in the free processors, and the
//!   shortfall is held by ordinary running batch jobs. The largest
//!   current allocation (ties to the lower id) is recorded as the *lead
//!   blocker*.
//! - **dedicated** — the job would fit if the processors held by
//!   running dedicated jobs were free: dedicated-node contention.
//! - **ecc** — the job would fit were it not for processors gained by
//!   running jobs through expand-procs ECCs: elastic reconfiguration
//!   stole the headroom.
//! - **malleable** — the job would fit were it not for processors held
//!   by running jobs *above their preferred width* through
//!   scheduler-initiated malleable grows: the malleable layer's
//!   opportunistic expansion is holding the headroom.
//! - **policy_skip** — the job fit but the policy passed it over: a DP
//!   selection skipped the head (Delayed-LOS `scount` budget), or the
//!   policy simply did not reach it this cycle.
//! - **freeze** — the job fit but a freeze window (EASY/LOS shadow
//!   reservation, or a dedicated claim's freeze) blocked starts at or
//!   below the frozen width.
//!
//! Classification happens once per scheduler cycle (after the policy
//! ran), and the interval that follows is charged to that cause when
//! the job's cause next changes or it starts. Since every charge
//! happens at a cycle instant and intervals telescope, the invariant
//! `sum(causes) == total wait` holds exactly; the `audit` feature
//! promotes it to a per-completion hard check.
//!
//! # Cost model
//!
//! A waiting job's cause depends only on its width, the cycle's
//! thresholds (`free`, `+dedicated`, `+ecc`, `+malleable`), the lead
//! blocker, the freeze flag, and whether the policy skipped it. So the
//! engine-side state keeps waiting jobs in per-width classes and
//! decides one cause per class per cycle; only members of classes whose
//! cause changed are charged, plus a short dirty list (arrivals, jobs a
//! queued processor ECC moved between classes, the last cycle's skip
//! overrides). A class's cause is a pure function of the headroom and
//! the freeze flag, so when both equal the last cycle's (about half of
//! all cycles in a load-1.0 backlog) only the classes that went from
//! empty to occupied since are decided. The engine keeps the thresholds
//! as running counters, updated at every start, completion, resize and
//! running ECC, and finds the lead blocker in one hash-free pass over
//! the running set. A cycle therefore costs O(running + width classes +
//! cause changes). Charging lazily is exact: two back-to-back spans of
//! one cause charge the same as their union, under the eligibility
//! clamp and for the k=1 blocker vote alike.
//!
//! What remains is mostly the per-member switches themselves: about 22
//! per cycle at load 1.0, each a charge plus, for capacity, the blocker
//! vote. On 40 seeded 2,000-job hybrid-los+e runs at load 1.0 (one
//! process, off and on runs interleaved, 8 rounds, a 2-vCPU x86-64
//! host), attribution costs +62–65% over both planes off, down from
//! +75–79% when the engine walked the running set with an id lookup
//! per job every cycle and decided every class.
//!
//! [`JobSpec::eligible_at`]: crate::JobSpec::eligible_at

use crate::job::JobId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Bound on the per-run "top blockers" summary (Misra–Gries heavy
/// hitters over lead-blocker seconds).
pub const TOP_BLOCKERS: usize = 8;

/// Per-job decomposition of queue wait into causes, in whole seconds.
///
/// Produced by the engine when attribution is enabled (see
/// `Engine::enable_attribution`) and attached to the job's
/// [`JobOutcome`]. The six `*_secs` buckets always sum to the job's
/// total wait.
///
/// [`JobOutcome`]: crate::JobOutcome
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitAttribution {
    /// Seconds blocked on insufficient free capacity held by ordinary
    /// running jobs.
    pub capacity_secs: u64,
    /// Seconds blocked specifically by running dedicated jobs.
    pub dedicated_secs: u64,
    /// Seconds blocked by processors gained through expand-procs ECCs.
    pub ecc_secs: u64,
    /// Seconds blocked by processors held above preferred width through
    /// scheduler-initiated malleable grows.
    #[serde(default)]
    pub malleable_secs: u64,
    /// Seconds the job fit but was passed over by the policy (head
    /// skips, DP selections, queue order).
    pub policy_skip_secs: u64,
    /// Seconds the job fit but a freeze window (shadow reservation or
    /// dedicated claim) blocked starts.
    pub freeze_secs: u64,
    /// The running job that most often led the capacity blockade, by
    /// majority vote over capacity-blocked seconds (k=1 Misra–Gries:
    /// exact when one blocker dominates).
    pub lead_blocker: Option<u64>,
    /// Surviving vote weight behind `lead_blocker`, in seconds.
    pub lead_blocker_secs: u64,
}

impl WaitAttribution {
    /// Total attributed seconds — equals the job's wait exactly.
    pub fn total_secs(&self) -> u64 {
        self.capacity_secs
            + self.dedicated_secs
            + self.ecc_secs
            + self.malleable_secs
            + self.policy_skip_secs
            + self.freeze_secs
    }
}

/// One heavy-hitter entry in [`AttributionProfile::top_blockers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockerShare {
    /// The running job charged with blocking.
    pub job: u64,
    /// Surviving Misra–Gries weight, in lead-blocker seconds. A lower
    /// bound on the true count; ordering is reliable for dominant
    /// blockers.
    pub secs: u64,
}

/// Per-run roll-up of every completed job's [`WaitAttribution`],
/// folded O(1) at completion so streamed runs carry it in bounded
/// memory.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttributionProfile {
    /// Jobs folded into this profile.
    pub jobs: u64,
    /// Jobs that started the instant they became eligible.
    pub zero_wait_jobs: u64,
    /// Sum of per-job capacity-blocked seconds.
    pub capacity_secs: u64,
    /// Sum of per-job dedicated-contention seconds.
    pub dedicated_secs: u64,
    /// Sum of per-job ECC-reconfiguration seconds.
    pub ecc_secs: u64,
    /// Sum of per-job malleable-grow contention seconds.
    #[serde(default)]
    pub malleable_secs: u64,
    /// Sum of per-job policy-skip seconds.
    pub policy_skip_secs: u64,
    /// Sum of per-job freeze-window seconds.
    pub freeze_secs: u64,
    /// Heavy hitters among lead blockers ([`TOP_BLOCKERS`]-bounded
    /// Misra–Gries summary; weights are lower bounds).
    pub top_blockers: Vec<BlockerShare>,
}

impl AttributionProfile {
    /// True when no job has been folded in (attribution disabled, or
    /// an empty run).
    pub fn is_empty(&self) -> bool {
        self.jobs == 0
    }

    /// Total attributed seconds across every folded job — equals the
    /// run's total wait exactly.
    pub fn total_secs(&self) -> u64 {
        self.capacity_secs
            + self.dedicated_secs
            + self.ecc_secs
            + self.malleable_secs
            + self.policy_skip_secs
            + self.freeze_secs
    }

    /// Fold one completed job's attribution into the run profile.
    pub fn fold(&mut self, a: &WaitAttribution) {
        self.jobs += 1;
        if a.total_secs() == 0 {
            self.zero_wait_jobs += 1;
        }
        self.capacity_secs += a.capacity_secs;
        self.dedicated_secs += a.dedicated_secs;
        self.ecc_secs += a.ecc_secs;
        self.malleable_secs += a.malleable_secs;
        self.policy_skip_secs += a.policy_skip_secs;
        self.freeze_secs += a.freeze_secs;
        if let Some(job) = a.lead_blocker {
            if a.lead_blocker_secs > 0 {
                self.credit_blocker(job, a.lead_blocker_secs);
            }
        }
    }

    /// Weighted Misra–Gries update: exact for blockers that dominate,
    /// bounded at [`TOP_BLOCKERS`] entries regardless of run length.
    /// A newcomer to a full table and every entry each lose
    /// `min(secs, smallest weight)`; entries worn to zero drop out, and
    /// a newcomer with weight left takes a freed seat.
    fn credit_blocker(&mut self, job: u64, secs: u64) {
        if let Some(e) = self.top_blockers.iter_mut().find(|e| e.job == job) {
            e.secs += secs;
            return;
        }
        if self.top_blockers.len() < TOP_BLOCKERS {
            self.top_blockers.push(BlockerShare { job, secs });
            return;
        }
        let smallest = self.top_blockers.iter().map(|e| e.secs).min().unwrap_or(0);
        let m = secs.min(smallest);
        for e in &mut self.top_blockers {
            e.secs -= m;
        }
        self.top_blockers.retain(|e| e.secs > 0);
        if secs > m {
            self.top_blockers.push(BlockerShare {
                job,
                secs: secs - m,
            });
        }
    }
}

/// Per-cycle notes a policy leaves for the attribution pass (via
/// `SchedContext::attribution`). Cleared by the engine after each
/// cycle's classification.
#[derive(Debug, Default)]
pub struct AttrNotes {
    /// Jobs the policy *saw and deliberately passed over* this cycle
    /// (Delayed-LOS head skips under the `scount` budget).
    pub skipped: Vec<JobId>,
    /// A freeze window (EASY/LOS shadow reservation or a dedicated
    /// claim's freeze) constrained starts this cycle.
    pub freeze: bool,
}

impl AttrNotes {
    /// Note that the policy deliberately skipped `id` this cycle.
    #[inline]
    pub fn note_skip(&mut self, id: JobId) {
        if !self.skipped.contains(&id) {
            self.skipped.push(id);
        }
    }

    /// Note that a freeze window constrained starts this cycle.
    #[inline]
    pub fn note_freeze(&mut self) {
        self.freeze = true;
    }

    pub(crate) fn clear(&mut self) {
        self.skipped.clear();
        self.freeze = false;
    }
}

/// The cause the *next* wait interval will be charged to, decided at
/// the end of the previous cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum PendingCause {
    Capacity(JobId),
    Dedicated,
    Ecc,
    Malleable,
    #[default]
    PolicySkip,
    Freeze,
}

/// Class index of a job that is not waiting (never arrived, or
/// already started).
const NO_CLASS: u32 = u32::MAX;

/// Per-job attribution accumulator, slab-parallel to the engine's job
/// records (recycled with the slot on streamed runs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobAttr {
    /// Instant from which this job's wait is still uncharged: the
    /// later of its last charge and its [`JobSpec::eligible_at`], so
    /// charges never reach before eligibility.
    ///
    /// [`JobSpec::eligible_at`]: crate::JobSpec::eligible_at
    from: SimTime,
    /// Cause for the interval since `from`.
    pending: PendingCause,
    /// Buckets charged so far.
    pub attr: WaitAttribution,
    /// Width class the job waits in ([`NO_CLASS`] when not waiting),
    /// and its position in that class's member list.
    class: u32,
    pos: u32,
}

impl Default for JobAttr {
    fn default() -> Self {
        JobAttr {
            from: SimTime::ZERO,
            pending: PendingCause::default(),
            attr: WaitAttribution::default(),
            class: NO_CLASS,
            pos: 0,
        }
    }
}

impl JobAttr {
    /// Fresh accumulator for a job arriving at `at`. The initial
    /// pending cause is irrelevant: a cycle fires at every arrival
    /// instant, so the first charge always spans zero seconds.
    fn new(at: SimTime, eligible: SimTime) -> Self {
        JobAttr {
            from: at.max(eligible),
            ..JobAttr::default()
        }
    }

    /// Charge the interval `[from, now)` to the pending cause and
    /// advance `from` to `now`; an instant before `from` charges
    /// nothing. Since `from` starts at eligibility, seconds before a
    /// dedicated job's requested start are never charged, so the
    /// buckets telescope to exactly `started - eligible`.
    fn charge_until(&mut self, now: SimTime) {
        if now > self.from {
            let span = (now - self.from).as_secs();
            match self.pending {
                PendingCause::Capacity(b) => {
                    self.attr.capacity_secs += span;
                    self.vote_blocker(b.0, span);
                }
                PendingCause::Dedicated => self.attr.dedicated_secs += span,
                PendingCause::Ecc => self.attr.ecc_secs += span,
                PendingCause::Malleable => self.attr.malleable_secs += span,
                PendingCause::PolicySkip => self.attr.policy_skip_secs += span,
                PendingCause::Freeze => self.attr.freeze_secs += span,
            }
            self.from = now;
        }
    }

    /// Charge up to `now` and switch to `cause` for the next interval.
    fn switch(&mut self, now: SimTime, cause: PendingCause) {
        self.charge_until(now);
        self.pending = cause;
    }

    /// k=1 Misra–Gries majority vote over capacity-blocked seconds.
    fn vote_blocker(&mut self, job: u64, secs: u64) {
        match self.attr.lead_blocker {
            Some(cur) if cur == job => self.attr.lead_blocker_secs += secs,
            Some(_) => {
                if self.attr.lead_blocker_secs > secs {
                    self.attr.lead_blocker_secs -= secs;
                } else {
                    self.attr.lead_blocker = Some(job);
                    self.attr.lead_blocker_secs = secs - self.attr.lead_blocker_secs;
                }
            }
            None => {
                self.attr.lead_blocker = Some(job);
                self.attr.lead_blocker_secs = secs;
            }
        }
    }
}

/// What the running set holds at the end of a cycle, from which every
/// waiting job's cause follows by its width alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Headroom {
    /// Free processors.
    pub free: u32,
    /// Processors held by running dedicated jobs.
    pub dedicated: u32,
    /// Processors gained by running jobs through expand-procs ECCs.
    pub ecc: u32,
    /// Processors held above preferred width through malleable grows.
    pub malleable: u32,
    /// The largest current allocation, ties to the lower id.
    pub blocker: JobId,
}

impl Headroom {
    /// The cause for a waiting job of `width` processors that the
    /// policy did not single out. Capacity-style causes outrank policy
    /// causes: a job that does not fit was not schedulable no matter
    /// what the policy decided this cycle.
    fn cause(&self, width: u32, freeze: bool) -> PendingCause {
        let mut room = self.free;
        if width <= room {
            return if freeze {
                PendingCause::Freeze
            } else {
                PendingCause::PolicySkip
            };
        }
        room += self.dedicated;
        if width <= room {
            return PendingCause::Dedicated;
        }
        room += self.ecc;
        if width <= room {
            return PendingCause::Ecc;
        }
        room += self.malleable;
        if width <= room {
            return PendingCause::Malleable;
        }
        PendingCause::Capacity(self.blocker)
    }
}

/// The waiting jobs of one width, which all share a cause each cycle.
#[derive(Debug)]
struct WidthClass {
    width: u32,
    /// Cause decided for this width at the last cycle the class was
    /// occupied. Every member not on [`AttrState::dirty`] has it as its
    /// pending cause.
    cause: PendingCause,
    /// Record-slab slots of the members.
    members: Vec<u32>,
}

/// Engine-side attribution state: the per-job slab, the run profile,
/// and the policy's per-cycle notes. Boxed behind an `Option` on the
/// engine so the disabled path costs one branch per cycle.
///
/// Waiting jobs are kept in width classes, and charging is lazy: a job
/// is charged only when its cause changes or it starts. That is exact
/// because charging two back-to-back spans of one cause equals charging
/// their union — under the eligibility clamp, and for the k=1
/// Misra–Gries blocker vote with an unchanged blocker alike.
#[derive(Debug, Default)]
pub(crate) struct AttrState {
    pub jobs: Vec<JobAttr>,
    pub profile: AttributionProfile,
    pub notes: AttrNotes,
    classes: Vec<WidthClass>,
    /// Slots whose pending cause may differ from their class's: jobs
    /// that arrived or changed class since the last cycle, and the last
    /// cycle's skip overrides.
    dirty: Vec<u32>,
    /// Classes that went from empty to occupied since the last cycle:
    /// their cause may be stale.
    fresh: Vec<u32>,
    /// The last cycle's headroom and freeze flag. Every class occupied
    /// then has its cause decided from them.
    last: Option<(Headroom, bool)>,
}

impl AttrState {
    /// Start accounting for the job in `slot`, waiting from `now` at
    /// `width` processors.
    pub fn arrive(&mut self, slot: usize, now: SimTime, eligible: SimTime, width: u32) {
        let ja = JobAttr::new(now, eligible);
        match self.jobs.get_mut(slot) {
            Some(old) => *old = ja,
            None => {
                // Slots come in enrolment order, so this is nearly always
                // a push onto the end.
                self.jobs.resize(slot, JobAttr::default());
                self.jobs.push(ja);
            }
        }
        self.join(slot, width);
    }

    /// A queued processor ECC changed a waiting job's width: move it to
    /// its new class. Its pending cause stands until the next cycle.
    pub fn resize(&mut self, slot: usize, width: u32) {
        let class = self.jobs[slot].class;
        if class == NO_CLASS || self.classes[class as usize].width == width {
            return;
        }
        self.leave(slot);
        self.join(slot, width);
    }

    /// The job in `slot` starts at `now`: the final charge, then it
    /// leaves its class.
    pub fn start(&mut self, slot: usize, now: SimTime) {
        self.jobs[slot].charge_until(now);
        self.leave(slot);
    }

    fn join(&mut self, slot: usize, width: u32) {
        let class = match self.classes.iter().position(|c| c.width == width) {
            Some(c) => c,
            None => {
                self.classes.push(WidthClass {
                    width,
                    cause: PendingCause::default(),
                    members: Vec::new(),
                });
                self.classes.len() - 1
            }
        };
        let members = &mut self.classes[class].members;
        if members.is_empty() {
            self.fresh.push(class as u32);
        }
        let ja = &mut self.jobs[slot];
        ja.class = class as u32;
        ja.pos = members.len() as u32;
        members.push(slot as u32);
        self.dirty.push(slot as u32);
    }

    fn leave(&mut self, slot: usize) {
        let ja = &mut self.jobs[slot];
        let (class, pos) = (ja.class as usize, ja.pos as usize);
        ja.class = NO_CLASS;
        let members = &mut self.classes[class].members;
        members.swap_remove(pos);
        if let Some(&moved) = members.get(pos) {
            self.jobs[moved as usize].pos = pos as u32;
        }
    }

    /// End-of-cycle pass at `t`: decide one cause per occupied width
    /// class and switch the members of the classes whose cause changed,
    /// settle the dirty jobs, then apply this cycle's skip overrides
    /// (`slot_of` maps a skipped id to its slot). The notes are cleared
    /// for the next cycle.
    ///
    /// A class's cause is a pure function of the headroom and the
    /// freeze flag, so when both equal the last cycle's, every class
    /// occupied then keeps its cause: only the classes that went from
    /// empty to occupied since are decided.
    pub fn cycle(&mut self, t: SimTime, room: &Headroom, slot_of: impl Fn(JobId) -> Option<usize>) {
        let freeze = self.notes.freeze;
        if self.last == Some((*room, freeze)) {
            for &c in &self.fresh {
                let class = &mut self.classes[c as usize];
                Self::decide(&mut self.jobs, class, t, room, freeze);
            }
        } else {
            for class in &mut self.classes {
                Self::decide(&mut self.jobs, class, t, room, freeze);
            }
            self.last = Some((*room, freeze));
        }
        self.fresh.clear();
        for slot in self.dirty.drain(..) {
            let ja = &mut self.jobs[slot as usize];
            if ja.class != NO_CLASS {
                ja.switch(t, self.classes[ja.class as usize].cause);
            }
        }
        // A deliberate skip outranks an ambient freeze window; it
        // changes nothing for a job that does not fit, or when no
        // freeze is on (a fitting job's cause is a skip already).
        for &id in &self.notes.skipped {
            let Some(slot) = slot_of(id) else { continue };
            let ja = &mut self.jobs[slot];
            let frozen = ja.class != NO_CLASS
                && self.classes[ja.class as usize].cause == PendingCause::Freeze;
            if frozen {
                ja.switch(t, PendingCause::PolicySkip);
                self.dirty.push(slot as u32);
            }
        }
        self.notes.clear();
    }

    /// Decide an occupied class's cause; on a change, switch its members.
    fn decide(
        jobs: &mut [JobAttr],
        class: &mut WidthClass,
        t: SimTime,
        room: &Headroom,
        freeze: bool,
    ) {
        if class.members.is_empty() {
            return;
        }
        let cause = room.cause(class.width, freeze);
        if cause != class.cause {
            class.cause = cause;
            for &slot in &class.members {
                jobs[slot as usize].switch(t, cause);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_telescope_to_the_full_wait() {
        let mut ja = JobAttr::new(SimTime::from_secs(10), SimTime::from_secs(10));
        ja.pending = PendingCause::Capacity(JobId(7));
        ja.charge_until(SimTime::from_secs(40));
        ja.pending = PendingCause::PolicySkip;
        ja.charge_until(SimTime::from_secs(55));
        ja.pending = PendingCause::Freeze;
        ja.charge_until(SimTime::from_secs(60));
        assert_eq!(ja.attr.capacity_secs, 30);
        assert_eq!(ja.attr.policy_skip_secs, 15);
        assert_eq!(ja.attr.freeze_secs, 5);
        assert_eq!(ja.attr.total_secs(), 50);
        assert_eq!(ja.attr.lead_blocker, Some(7));
    }

    #[test]
    fn eligibility_clamp_skips_pre_eligible_spans() {
        // Dedicated job: submitted at 0, requested start 100. Waiting
        // before t=100 is not "wait" in the paper's sense.
        let mut ja = JobAttr::new(SimTime::ZERO, SimTime::from_secs(100));
        ja.pending = PendingCause::Dedicated;
        ja.charge_until(SimTime::from_secs(50));
        assert_eq!(ja.attr.total_secs(), 0, "pre-eligible span never charged");
        ja.charge_until(SimTime::from_secs(130));
        assert_eq!(ja.attr.dedicated_secs, 30);
    }

    #[test]
    fn lead_blocker_majority_vote() {
        let mut ja = JobAttr::new(SimTime::ZERO, SimTime::ZERO);
        ja.pending = PendingCause::Capacity(JobId(1));
        ja.charge_until(SimTime::from_secs(100));
        ja.pending = PendingCause::Capacity(JobId(2));
        ja.charge_until(SimTime::from_secs(130));
        ja.pending = PendingCause::Capacity(JobId(1));
        ja.charge_until(SimTime::from_secs(180));
        // 150s for job 1 vs 30s for job 2: job 1 survives the vote.
        assert_eq!(ja.attr.lead_blocker, Some(1));
        assert_eq!(ja.attr.capacity_secs, 180);
    }

    #[test]
    fn a_class_filled_under_unchanged_headroom_gets_a_fresh_cause() {
        let at = SimTime::from_secs;
        let room = |free| Headroom {
            free,
            dedicated: 0,
            ecc: 0,
            malleable: 0,
            blocker: JobId(5),
        };
        let mut s = AttrState::default();
        // Job A (width 64) is capacity-blocked, then starts, leaving its
        // class empty with the cause `Capacity(5)`.
        s.arrive(0, at(0), at(0), 64);
        s.cycle(at(0), &room(0), |_| None);
        s.start(0, at(5));
        assert_eq!(s.jobs[0].attr.capacity_secs, 5);
        // A cycle with room to spare; the empty class is not decided.
        s.cycle(at(10), &room(128), |_| None);
        // Job B joins the empty class at a cycle with the same headroom:
        // the class's cause is decided afresh, so B fits and its wait is
        // a policy skip, not the stale capacity block.
        s.arrive(1, at(12), at(12), 64);
        s.cycle(at(12), &room(128), |_| None);
        s.start(1, at(20));
        let b = s.jobs[1].attr;
        assert_eq!(b.policy_skip_secs, 8, "{b:?}");
        assert_eq!(b.capacity_secs, 0, "{b:?}");
    }

    #[test]
    fn profile_fold_sums_and_counts_zero_waits() {
        let mut p = AttributionProfile::default();
        assert!(p.is_empty());
        let a = WaitAttribution {
            capacity_secs: 40,
            freeze_secs: 2,
            lead_blocker: Some(9),
            lead_blocker_secs: 40,
            ..Default::default()
        };
        p.fold(&a);
        p.fold(&WaitAttribution::default());
        assert_eq!(p.jobs, 2);
        assert_eq!(p.zero_wait_jobs, 1);
        assert_eq!(p.total_secs(), 42);
        assert_eq!(p.top_blockers, vec![BlockerShare { job: 9, secs: 40 }]);
        assert!(!p.is_empty());
    }

    #[test]
    fn top_blockers_stay_bounded() {
        let mut p = AttributionProfile::default();
        for i in 0..100u64 {
            let a = WaitAttribution {
                capacity_secs: 1,
                lead_blocker: Some(i % 20),
                lead_blocker_secs: 1,
                ..WaitAttribution::default()
            };
            p.fold(&a);
        }
        assert!(p.top_blockers.len() <= TOP_BLOCKERS);
        assert_eq!(p.jobs, 100);
    }

    fn credit(p: &mut AttributionProfile, job: u64, secs: u64) {
        p.fold(&WaitAttribution {
            capacity_secs: secs,
            lead_blocker: Some(job),
            lead_blocker_secs: secs,
            ..WaitAttribution::default()
        });
    }

    #[test]
    fn a_dominant_late_blocker_survives_a_full_table() {
        let mut p = AttributionProfile::default();
        for job in 1..=TOP_BLOCKERS as u64 {
            credit(&mut p, job, 10);
        }
        assert_eq!(p.top_blockers.len(), TOP_BLOCKERS);
        credit(&mut p, 99, 1000);
        // Every small entry wears to zero; the newcomer keeps the rest.
        assert_eq!(p.top_blockers, vec![BlockerShare { job: 99, secs: 990 }]);
    }

    #[test]
    fn a_light_newcomer_to_a_full_table_is_absorbed() {
        let mut p = AttributionProfile::default();
        for job in 1..=TOP_BLOCKERS as u64 {
            credit(&mut p, job, 10 * job);
        }
        credit(&mut p, 99, 4);
        assert_eq!(p.top_blockers.len(), TOP_BLOCKERS);
        assert!(p.top_blockers.iter().all(|e| e.job != 99));
        assert_eq!(p.top_blockers[0], BlockerShare { job: 1, secs: 6 });
        // A newcomer as heavy as the lightest entry evicts it exactly.
        credit(&mut p, 98, 6);
        assert_eq!(p.top_blockers.len(), TOP_BLOCKERS - 1);
        assert!(p.top_blockers.iter().all(|e| e.job != 1 && e.job != 98));
    }

    #[test]
    fn profile_serde_round_trip() {
        let mut p = AttributionProfile::default();
        let a = WaitAttribution {
            capacity_secs: 10,
            policy_skip_secs: 5,
            lead_blocker: Some(3),
            lead_blocker_secs: 10,
            ..WaitAttribution::default()
        };
        p.fold(&a);
        let json = serde_json::to_string(&p).unwrap();
        let back: AttributionProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn notes_dedup_and_clear() {
        let mut n = AttrNotes::default();
        n.note_skip(JobId(4));
        n.note_skip(JobId(4));
        n.note_freeze();
        assert_eq!(n.skipped, vec![JobId(4)]);
        assert!(n.freeze);
        n.clear();
        assert!(n.skipped.is_empty());
        assert!(!n.freeze);
    }
}
