//! What the numbers were measured on: the host's shape, a fixed
//! calibration loop timed in the same process, and process-level
//! resource readings from `/proc`.

use std::hint::black_box;
use std::time::Instant;

/// The host a result was measured on. Two results are comparable only
/// when these agree; `calibration_ms` shows how fast this host ran a fixed
/// loop during this very run.
#[derive(Debug, Clone)]
pub struct Host {
    /// Threads the process may run in parallel.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Median wall time of [`calibration_loop`], milliseconds.
    pub calibration_ms: f64,
}

impl Host {
    /// Probes the host and times the calibration loop (median of 5).
    #[must_use]
    pub fn probe() -> Self {
        let mut times: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(calibration_loop(black_box(CALIBRATION_ROUNDS)));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(f64::total_cmp);
        Self {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC"),
            calibration_ms: times[times.len() / 2],
        }
    }
}

/// Rounds of [`calibration_loop`]: tens of milliseconds on a current
/// server core.
pub const CALIBRATION_ROUNDS: u64 = 20_000_000;

/// A fixed, dependency-chained integer loop (xorshift64 folded into
/// FNV-1a): no memory traffic and no allocation, so its time tracks the
/// core's clock and nothing else.
#[must_use]
pub fn calibration_loop(rounds: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h = (h ^ (x & 0xff)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Threads the process may run in parallel.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time this process has used so far, all threads (user + system),
/// seconds. Read from `/proc/self/stat`, in clock ticks of 1/100 s (the
/// `USER_HZ` Linux reports to user space on its common architectures).
#[must_use]
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after the name.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_loop_is_deterministic() {
        assert_eq!(calibration_loop(1000), calibration_loop(1000));
        assert_ne!(calibration_loop(1000), calibration_loop(1001));
    }

    #[test]
    fn proc_readings_are_available_on_linux() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(process_cpu_s().expect("utime + stime") >= 0.0);
        assert!(nproc() >= 1);
    }
}
