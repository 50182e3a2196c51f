//! Offered-load computation (paper §IV-D).
//!
//! `Load = λ/M · Σ_{i=1..N_J} num_i / μ_i`, where `1/μ_i` is job `i`'s
//! runtime, `M` the machine size, and `λ` the inverse of the trace
//! duration. Equivalently: total work (processor-seconds) divided by the
//! machine's capacity over the span from first to last arrival.

/// Offered load for an iterator of `(num, runtime_secs, submit_secs)`.
///
/// Returns 0.0 for empty traces. A single-job trace has zero duration and
/// yields `f64::INFINITY` — callers should treat such traces as degenerate.
pub fn offered_load(jobs: impl IntoIterator<Item = (f64, f64, u64)>, machine_procs: u32) -> f64 {
    let mut work = 0.0;
    let mut first: Option<u64> = None;
    let mut last: Option<u64> = None;
    let mut n = 0usize;
    for (num, runtime, submit) in jobs {
        work += num * runtime;
        first = Some(first.map_or(submit, |f| f.min(submit)));
        last = Some(last.map_or(submit, |l| l.max(submit)));
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    let duration = (last.unwrap() - first.unwrap()) as f64;
    if duration <= 0.0 {
        return f64::INFINITY;
    }
    work / (duration * machine_procs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(offered_load(Vec::<(f64, f64, u64)>::new(), 320), 0.0);
    }

    #[test]
    fn single_job_is_infinite() {
        assert!(offered_load([(64.0, 100.0, 5)], 320).is_infinite());
    }

    #[test]
    fn uniform_stream_matches_hand_computation() {
        // 10 jobs of 32 procs × 100 s arriving every 100 s on a 320-proc
        // machine: work = 32000, duration = 900, load = 32000/(900·320).
        let jobs: Vec<_> = (0..10).map(|i| (32.0, 100.0, i * 100)).collect();
        let l = offered_load(jobs, 320);
        assert!((l - 32_000.0 / (900.0 * 320.0)).abs() < 1e-12);
    }

    #[test]
    fn load_scales_inversely_with_duration() {
        let base: Vec<_> = (0..10).map(|i| (32.0, 100.0, i * 100)).collect();
        let stretched: Vec<_> = (0..10).map(|i| (32.0, 100.0, i * 200)).collect();
        let l1 = offered_load(base, 320);
        let l2 = offered_load(stretched, 320);
        assert!((l1 / l2 - 1900.0 / 900.0 * 900.0 / 900.0 - 0.0).abs() > 0.0 || l1 > l2);
        assert!((l1 - 2.0 * l2).abs() / l1 < 0.06, "l1={l1} l2={l2}");
    }

    #[test]
    fn order_independent() {
        let a = offered_load([(32.0, 10.0, 0), (64.0, 5.0, 100)], 320);
        let b = offered_load([(64.0, 5.0, 100), (32.0, 10.0, 0)], 320);
        assert_eq!(a, b);
    }
}
