//! Shared test helpers.
//!
//! * [`EnvGuard`] — a RAII guard serializing tests that mutate process
//!   environment variables (such as `ELASTISCHED_THREADS`). Rust runs
//!   tests in threads within one process, and `std::env::set_var` is
//!   process-global, so two tests touching the same variable race
//!   unless they share a lock. Every test that sets an env var must go
//!   through this guard instead of calling `set_var` directly.
//! * [`run_on_bluegene`] / [`started`] — the scheduler-test shorthand
//!   previously copy-pasted across `elastisched-sched`'s test modules:
//!   simulate a job stream on the paper's BlueGene/P with ECCs disabled,
//!   and read one job's start second out of the result.
//! * [`add_procs_eccs`] — processor ECCs derived from a workload's time
//!   ECCs (the generator emits only the latter), so tests can drive
//!   queued width changes.
//! * [`bless_or_read`] / [`assert_golden`] — the one golden-fixture
//!   flow: `ELASTISCHED_BLESS=1` rewrites a fixture, else it is compared;
//!   [`Fnv`] is the digest fixtures pin in place of per-job data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use elastisched_sim::{
    simulate, Duration, EccKind, EccPolicy, EccSpec, JobSpec, Machine, Scheduler, SimResult,
};
use std::env;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Simulate `jobs` (no ECCs, ECC processing disabled) under `sched` on
/// the paper's BlueGene/P (320 processors, 32-processor node groups).
/// Panics on simulation errors — these are test inputs.
pub fn run_on_bluegene<S: Scheduler>(sched: S, jobs: &[JobSpec]) -> SimResult {
    simulate(
        Machine::bluegene_p(),
        sched,
        EccPolicy::disabled(),
        jobs,
        &[],
    )
    .expect("test workload simulates cleanly")
}

/// The start time (in whole seconds) of job `id` in a simulation result.
/// Panics when the job is absent — tests address jobs they submitted.
pub fn started(r: &SimResult, id: u64) -> u64 {
    r.outcomes
        .iter()
        .find(|o| o.id.0 == id)
        .expect("job is in the result")
        .started
        .as_secs()
}

/// Derive one processor ECC per time ECC in `eccs`: `ET` yields an
/// `EP` and `RT` an `RP` of `amount` processors for the same job,
/// issued `delay` after its submit — while the job still queues unless
/// it started at once. `eccs` is then re-sorted by issue time (ties by
/// job id). Panics if an ECC names a job not in `jobs`.
pub fn add_procs_eccs(jobs: &[JobSpec], eccs: &mut Vec<EccSpec>, amount: u32, delay: Duration) {
    let submit: std::collections::HashMap<_, _> = jobs.iter().map(|j| (j.id, j.submit)).collect();
    let derived: Vec<EccSpec> = eccs
        .iter()
        .filter(|e| e.kind.is_time())
        .map(|e| EccSpec {
            job: e.job,
            issue_at: submit[&e.job] + delay,
            kind: if e.kind == EccKind::ExtendTime {
                EccKind::ExtendProcs
            } else {
                EccKind::ReduceProcs
            },
            amount: u64::from(amount),
        })
        .collect();
    eccs.extend(derived);
    eccs.sort_by_key(|e| (e.issue_at, e.job));
}

/// The one environment variable that re-blesses golden fixtures.
const BLESS: &str = "ELASTISCHED_BLESS";

/// The committed golden fixture at `path`. Panics when it is missing.
pub fn read_fixture(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e}; regenerate with {BLESS}=1"))
}

/// With `ELASTISCHED_BLESS` set, write `text` to the fixture at `path`
/// and return `None`, so the caller skips its comparison; otherwise
/// return the committed fixture.
pub fn bless_or_read(path: &str, text: &str) -> Option<String> {
    if env::var_os(BLESS).is_some() {
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("blessed {path}");
        return None;
    }
    Some(read_fixture(path))
}

/// Assert that `text` equals the fixture at `path` byte for byte, or
/// bless it (see [`bless_or_read`]).
pub fn assert_golden(path: &str, text: &str) {
    if let Some(golden) = bless_or_read(path, text) {
        assert_eq!(
            text, golden,
            "{path} drifted; if the change is intentional, re-bless with {BLESS}=1"
        );
    }
}

/// 64-bit FNV-1a, fed little-endian words or raw bytes.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `b` into the digest.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold `v`'s little-endian bytes into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The process-wide lock all [`EnvGuard`]s share.
fn env_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Holds the process-wide env lock, sets a variable, and restores its
/// previous state (set or unset) on drop.
///
/// ```
/// use elastisched_test_util::EnvGuard;
///
/// let guard = EnvGuard::set("ELASTISCHED_TEST_DOC", "4");
/// assert_eq!(std::env::var("ELASTISCHED_TEST_DOC").as_deref(), Ok("4"));
/// drop(guard);
/// assert!(std::env::var("ELASTISCHED_TEST_DOC").is_err());
/// ```
pub struct EnvGuard {
    key: String,
    prev: Option<String>,
    _lock: MutexGuard<'static, ()>,
}

impl EnvGuard {
    /// Acquire the env lock and set `key=value` until drop.
    pub fn set(key: &str, value: &str) -> EnvGuard {
        // A test that panicked while holding the lock has already
        // failed; the env state it left is restored by its own guard's
        // drop, so the poison flag carries no extra information.
        let lock = env_lock().lock().unwrap_or_else(|e| e.into_inner());
        let prev = env::var(key).ok();
        env::set_var(key, value);
        EnvGuard {
            key: key.to_string(),
            prev,
            _lock: lock,
        }
    }

    /// Acquire the env lock and *unset* `key` until drop.
    pub fn unset(key: &str) -> EnvGuard {
        let lock = env_lock().lock().unwrap_or_else(|e| e.into_inner());
        let prev = env::var(key).ok();
        env::remove_var(key);
        EnvGuard {
            key: key.to_string(),
            prev,
            _lock: lock,
        }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match &self.prev {
            Some(v) => env::set_var(&self.key, v),
            None => env::remove_var(&self.key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own key: assertions made after a guard drops
    // run outside the lock, so a shared key would race across tests.

    #[test]
    fn set_then_restore_unset() {
        const KEY: &str = "ELASTISCHED_TEST_UTIL_PROBE_A";
        {
            let _g = EnvGuard::set(KEY, "hello");
            assert_eq!(env::var(KEY).as_deref(), Ok("hello"));
        }
        assert!(env::var(KEY).is_err(), "restored to unset");
    }

    #[test]
    fn previous_value_restored_over_direct_mutation() {
        const KEY: &str = "ELASTISCHED_TEST_UTIL_PROBE_B";
        let outer = EnvGuard::set(KEY, "outer");
        // Can't nest a second guard (it would deadlock on the shared
        // lock by design); mutate directly and restore via the guard.
        env::set_var(KEY, "inner");
        drop(outer);
        assert!(env::var(KEY).is_err());
    }

    #[test]
    fn unset_hides_the_variable() {
        const KEY: &str = "ELASTISCHED_TEST_UTIL_PROBE_C";
        let _g = EnvGuard::unset(KEY);
        assert!(env::var(KEY).is_err());
    }
}
