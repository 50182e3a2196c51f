//! Parallel parameter sweeps.
//!
//! Each figure in the paper is a sweep (over load, over `C_s`, …) whose
//! points are independent simulations — embarrassingly parallel. This
//! module fans sweep points out over a scoped thread pool fed by a
//! crossbeam channel and returns results in input order.

use crossbeam::channel;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::Instant;

/// Number of worker threads to use: the available parallelism, capped by
/// the number of tasks.
///
/// The `ELASTISCHED_THREADS` environment variable overrides the detected
/// parallelism (clamped to ≥ 1, still capped by the task count), so CI
/// and benchmark runs are reproducible on shared machines. Unparseable
/// values are ignored.
pub fn worker_count(tasks: usize) -> usize {
    worker_count_with(tasks, std::env::var("ELASTISCHED_THREADS").ok().as_deref())
}

/// The pure policy behind [`worker_count`]: `override_threads` is the
/// raw `ELASTISCHED_THREADS` value, if set. Split out so tests can
/// exercise the clamping/capping rules without mutating process-global
/// environment (which races against the parallel test harness).
pub fn worker_count_with(tasks: usize, override_threads: Option<&str>) -> usize {
    let hw = override_threads
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
    hw.min(tasks).max(1)
}

/// One sweep point that panicked instead of producing a result.
#[derive(Debug, Clone)]
pub struct PointFailure {
    /// Input-order index of the failed point.
    pub index: usize,
    /// Human-readable point name (from `name_of`).
    pub name: String,
    /// The panic payload, stringified when possible.
    pub message: String,
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "point #{} {}: {}", self.index, self.name, self.message)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one point under `catch_unwind` and report it to the campaign
/// telemetry (no-op when no campaign is active).
fn run_point<I, O>(
    idx: usize,
    input: I,
    name_of: &(impl Fn(usize, &I) -> String + Sync),
    f: &(impl Fn(I) -> O + Sync),
) -> Result<O, PointFailure> {
    let name = name_of(idx, &input);
    let started = Instant::now();
    // AssertUnwindSafe: the worker's possibly-broken invariants die with
    // the point — we only ever read the panic message out of it, and
    // `f` is shared immutably across workers.
    let outcome = catch_unwind(AssertUnwindSafe(move || f(input)));
    crate::telemetry::point_finished(&name, started.elapsed(), outcome.is_ok());
    outcome.map_err(|payload| PointFailure {
        index: idx,
        name,
        message: panic_message(payload),
    })
}

/// Map `f` over `inputs` in parallel, preserving order, catching
/// per-point panics.
///
/// A panicking point does not poison the thread scope: its slot comes
/// back as `None`, every other point still runs, and the failures are
/// returned alongside — named via `name_of(index, &input)` so a sweep
/// can say *which* point (load, replication, algorithm) blew up.
/// Finished points are reported to the campaign telemetry
/// ([`crate::telemetry::point_finished`]) for progress lines and ETA.
pub fn try_parallel_map<I, O, F, N>(
    inputs: Vec<I>,
    name_of: N,
    f: F,
) -> (Vec<Option<O>>, Vec<PointFailure>)
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
    N: Fn(usize, &I) -> String + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let workers = worker_count(n);
    if workers == 1 {
        let mut results = Vec::with_capacity(n);
        let mut failures = Vec::new();
        for (idx, input) in inputs.into_iter().enumerate() {
            match run_point(idx, input, &name_of, &f) {
                Ok(out) => results.push(Some(out)),
                Err(fail) => {
                    results.push(None);
                    failures.push(fail);
                }
            }
        }
        return (results, failures);
    }
    let (task_tx, task_rx) = channel::unbounded::<(usize, I)>();
    let (result_tx, result_rx) = channel::unbounded::<(usize, Result<O, PointFailure>)>();
    for pair in inputs.into_iter().enumerate() {
        task_tx.send(pair).expect("channel open");
    }
    drop(task_tx);

    let mut results: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let mut failures = Vec::new();
    thread::scope(|scope| {
        for _ in 0..workers {
            let task_rx = task_rx.clone();
            let result_tx = result_tx.clone();
            let f = &f;
            let name_of = &name_of;
            scope.spawn(move || {
                while let Ok((idx, input)) = task_rx.recv() {
                    let out = run_point(idx, input, name_of, f);
                    if result_tx.send((idx, out)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(result_tx);
        while let Ok((idx, out)) = result_rx.recv() {
            match out {
                Ok(v) => results[idx] = Some(v),
                Err(fail) => failures.push(fail),
            }
        }
    });
    failures.sort_by_key(|f| f.index);
    (results, failures)
}

/// Map `f` over `inputs` in parallel, preserving order.
///
/// `f` must be `Sync` (it is shared across workers); inputs are consumed
/// by value. Panics in workers propagate — but only after every other
/// point has finished (the map is [`try_parallel_map`] underneath), so
/// one bad point no longer discards a whole sweep's completed work in
/// sibling workers.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let (results, failures) = try_parallel_map(inputs, |idx, _| format!("task {idx}"), f);
    if let Some(first) = failures.first() {
        panic!(
            "{} of {} parallel task(s) panicked; first: {first}",
            failures.len(),
            results.len(),
        );
    }
    results
        .into_iter()
        .map(|r| r.expect("no failures means every slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), |x: i32| x * x);
        let expect: Vec<i32> = (0..100).map(|x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn env_override_clamps_and_caps() {
        // The pure function is tested directly — no process-global env
        // mutation, which would race against parallel test threads.
        assert_eq!(worker_count_with(100, Some("3")), 3);
        assert_eq!(
            worker_count_with(2, Some("3")),
            2,
            "still capped by the task count"
        );
        assert_eq!(
            worker_count_with(100, Some("0")),
            1,
            "clamped to at least one worker"
        );
        assert_eq!(worker_count_with(100, Some(" 5 ")), 5, "whitespace trimmed");
        assert!(
            worker_count_with(100, Some("not-a-number")) >= 1,
            "junk values fall back to detection"
        );
        assert!(worker_count_with(100, None) >= 1);
    }

    #[test]
    fn env_override_applies_through_the_process_env() {
        // The one test that goes through the real environment: EnvGuard
        // serializes it against any other env-mutating test and restores
        // the prior state on drop.
        let _guard = elastisched_test_util::EnvGuard::set("ELASTISCHED_THREADS", "2");
        assert_eq!(worker_count(100), 2);
    }

    #[test]
    fn actually_runs_every_task() {
        let counter = AtomicUsize::new(0);
        let _ = parallel_map((0..512).collect(), |_: i32| {
            counter.fetch_add(1, Ordering::Relaxed)
        });
        assert_eq!(counter.load(Ordering::Relaxed), 512);
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000) >= 1);
    }

    #[test]
    fn heavy_closure_with_captured_state() {
        let base = [10, 20, 30];
        let out = parallel_map(vec![0usize, 1, 2], |i| base[i]);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn try_map_catches_panics_and_finishes_the_rest() {
        let completed = AtomicUsize::new(0);
        let (results, failures) = try_parallel_map(
            (0..64).collect(),
            |_, x: &i32| format!("point x={x}"),
            |x: i32| {
                if x % 10 == 3 {
                    panic!("boom at {x}");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                x * 2
            },
        );
        // 3, 13, 23, 33, 43, 53, 63 panic → 7 failures, 57 successes.
        assert_eq!(failures.len(), 7);
        assert_eq!(completed.load(Ordering::Relaxed), 57);
        assert_eq!(results.len(), 64);
        assert_eq!(results[0], Some(0));
        assert_eq!(results[3], None);
        assert_eq!(results[63], None);
        // Failures are named, indexed in input order, and carry the
        // panic message.
        assert_eq!(failures[0].index, 3);
        assert_eq!(failures[0].name, "point x=3");
        assert!(
            failures[0].message.contains("boom at 3"),
            "{}",
            failures[0].message
        );
        assert_eq!(failures[6].index, 63);
    }

    #[test]
    fn try_map_serial_path_also_catches() {
        let _guard = elastisched_test_util::EnvGuard::set("ELASTISCHED_THREADS", "1");
        let (results, failures) = try_parallel_map(
            vec![1, 2, 3],
            |i, _| format!("serial {i}"),
            |x: i32| {
                if x == 2 {
                    panic!("serial boom");
                }
                x
            },
        );
        assert_eq!(results, vec![Some(1), None, Some(3)]);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "serial 1");
    }

    #[test]
    fn parallel_map_still_propagates_with_point_names() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(vec![0, 1, 2], |x: i32| {
                if x == 1 {
                    panic!("inner failure");
                }
                x
            })
        });
        let payload = caught.expect_err("must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("aggregated panic is a String");
        assert!(msg.contains("task 1"), "{msg}");
        assert!(msg.contains("inner failure"), "{msg}");
    }
}
