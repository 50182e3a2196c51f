//! The host under the benchmark: its speed, measured with a fixed
//! kernel, and the process's peak memory.
//!
//! On a shared machine the host's speed changes by tens of percent from
//! one 100 ms to the next and drifts over tens of seconds, and a
//! 20-second run cannot average that away. It slows the program and a
//! fixed kernel alike, so the benchmark times the kernel between runs
//! ([`HostClock`]) and reports each measured time at the speed of a host
//! where the kernel takes [`REFERENCE_KERNEL_MS`]: `reported = measured ×
//! REFERENCE_KERNEL_MS / kernel time`. The kernel is the benchmark's own
//! code, so a change to the program cannot move it.

use std::time::{Duration, Instant};

/// About the kernel's time on the 2-vCPU host the benchmark was defined
/// on, when that host was quiet; reported times are at this host speed.
pub const REFERENCE_KERNEL_MS: f64 = 0.05;

const KERNEL_LEN: usize = 1 << 12;

/// The reference kernel with its buffer, allocated once so that timing it
/// leaves the heap as it was.
struct Kernel {
    buf: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            buf: vec![0; KERNEL_LEN],
        }
    }

    /// The kernel's current time: the median of three timings of filling
    /// the buffer with a fixed xorshift sequence and sorting it (branchy,
    /// cache-resident work like the simulator's), ms.
    fn time_ms(&mut self) -> f64 {
        let mut t = [0.0; 3];
        for slot in &mut t {
            let start = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for v in self.buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = x;
            }
            self.buf.sort_unstable();
            std::hint::black_box(&self.buf);
            *slot = start.elapsed().as_secs_f64() * 1e3;
        }
        t.sort_by(f64::total_cmp);
        t[1]
    }
}

/// Kernel timings whose median gives a segment's host speed.
const SMOOTHING: usize = 9;

/// Puts measured times at the reference host speed. The kernel is timed
/// at the first [`HostClock::tick`] after every `every`; the times
/// measured between two timings form a segment.
pub struct HostClock {
    kernel: Kernel,
    every: Duration,
    timings: Vec<f64>,
    at: Instant,
}

impl HostClock {
    /// Starts the first segment with a kernel timing.
    pub fn new(every: Duration) -> HostClock {
        let mut kernel = Kernel::new();
        let timings = vec![kernel.time_ms()];
        HostClock {
            kernel,
            every,
            timings,
            at: Instant::now(),
        }
    }

    /// The segment a time measured now falls in.
    pub fn segment(&self) -> usize {
        self.timings.len() - 1
    }

    /// Time the kernel, ending the current segment, if it is due.
    pub fn tick(&mut self) {
        if self.at.elapsed() >= self.every {
            self.close();
        }
    }

    /// Time the kernel, ending the current segment.
    pub fn close(&mut self) {
        self.timings.push(self.kernel.time_ms());
        self.at = Instant::now();
    }

    /// The factor that puts a time measured in a closed `segment` at the
    /// reference host speed. A single timing is noisy, so the kernel time
    /// is the median of the [`SMOOTHING`] timings nearest the segment.
    pub fn scale(&self, segment: usize) -> f64 {
        let n = self.timings.len();
        let width = SMOOTHING.min(n);
        let start = (segment + 1).saturating_sub(width / 2).min(n - width);
        let mut near = self.timings[start..start + width].to_vec();
        near.sort_by(f64::total_cmp);
        REFERENCE_KERNEL_MS / near[width / 2]
    }

    /// Every kernel timing so far, ms.
    pub fn timings(&self) -> &[f64] {
        &self.timings
    }
}

/// `/proc/self/status` field in KiB.
fn proc_status_kb(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// The process's peak resident set since start or the last
/// [`reset_peak_rss`], MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(proc_status_kb("VmHWM:")? as f64 / 1024.0)
}

/// Restart the peak-RSS high-water mark.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_segment_takes_the_median_of_the_nearest_timings() {
        let mut clock = HostClock::new(Duration::ZERO);
        clock.timings = vec![0.1, 0.1, 0.1, 1.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2];
        // One slow timing among nine does not move the segment it ends.
        assert_eq!(clock.scale(2), REFERENCE_KERNEL_MS / 0.1);
        // Near the ends the window shifts inward rather than shrinking.
        assert_eq!(clock.scale(0), clock.scale(3));
        clock.timings.truncate(2);
        assert_eq!(clock.scale(0), REFERENCE_KERNEL_MS / 0.1);
    }

    #[test]
    fn kernel_takes_time_and_memory_reads() {
        assert!(Kernel::new().time_ms() > 0.0);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
