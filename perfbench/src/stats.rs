//! The benchmark's own statistics: medians, the tail-percentile rule, and
//! failure accounting. Quantiles interpolate linearly between order
//! statistics, exactly as `mapa::sim::stats::percentile` does.

use mapa::sim::stats::percentile;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer would make it an estimate of a handful of outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// A measured value together with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampled {
    /// The statistic.
    pub value: f64,
    /// Samples it was computed from.
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0–100) of `values`; `None` when empty.
#[must_use]
pub fn quantile(values: &[f64], p: f64) -> Option<Sampled> {
    if values.is_empty() {
        return None;
    }
    Some(Sampled {
        value: percentile(&sorted(values), p),
        n: values.len(),
    })
}

/// The median of `values`; `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<Sampled> {
    quantile(values, 50.0)
}

/// How many of `n` samples lie beyond the `p`-th percentile (whole
/// percent, so the count is exact integer arithmetic).
#[must_use]
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n * (100 - p.min(100)) as usize / 100
}

/// The `p`-th percentile of `values`, reported only when at least
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it — a p99 needs 1000
/// samples.
#[must_use]
pub fn tail(values: &[f64], p: u32) -> Option<Sampled> {
    if samples_beyond(values.len(), p) < MIN_SAMPLES_BEYOND {
        return None;
    }
    quantile(values, f64::from(p))
}

/// Jobs attempted and failed across a benchmark run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs that did not complete, plus every job of a simulation that
    /// panicked or failed its digest check.
    pub failed: u64,
}

impl Tally {
    /// Folds one simulation in: `submitted` jobs went in, `completed`
    /// came out, and `ok` is false when the simulation panicked or its
    /// schedule digest did not match — then every submitted job failed,
    /// whatever the simulation claims to have completed.
    pub fn record(&mut self, submitted: u64, completed: u64, ok: bool) {
        self.attempted += submitted;
        self.failed += if ok {
            submitted.saturating_sub(completed)
        } else {
            submitted
        };
    }

    /// Share of attempted jobs that failed (0 when nothing was attempted).
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Share of attempted jobs that completed correctly: `1 - failed_frac`.
    #[must_use]
    pub fn completed_frac(&self) -> f64 {
        1.0 - self.failed_frac()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&ramp(999), 99), None);
        let p99 = tail(&ramp(1000), 99).expect("1000 samples leave 10 beyond p99");
        assert_eq!(p99.n, 1000);
        assert!((p99.value - 990.01).abs() < 1e-9, "{}", p99.value);
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(999, 99), 9);
    }

    #[test]
    fn lower_tails_need_fewer_samples() {
        assert_eq!(tail(&ramp(99), 90), None);
        assert_eq!(tail(&ramp(100), 90).map(|s| s.n), Some(100));
        assert_eq!(tail(&ramp(19), 50), None);
        assert_eq!(tail(&ramp(20), 50).map(|s| s.n), Some(20));
    }

    #[test]
    fn every_statistic_states_its_sample_count() {
        let m = median(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!(m, Sampled { value: 2.0, n: 3 });
        assert_eq!(quantile(&[5.0], 75.0), Some(Sampled { value: 5.0, n: 1 }));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn incomplete_jobs_count_as_failed() {
        let mut t = Tally::default();
        t.record(300, 300, true);
        t.record(300, 290, true);
        assert_eq!(
            t,
            Tally {
                attempted: 600,
                failed: 10
            }
        );
        assert!((t.failed_frac() - 10.0 / 600.0).abs() < 1e-15);
        assert!((t.completed_frac() - 590.0 / 600.0).abs() < 1e-15);
    }

    #[test]
    fn a_digest_mismatch_fails_every_job_of_the_run() {
        let mut t = Tally::default();
        t.record(300, 300, true);
        // Completed every job, but the schedule was wrong.
        t.record(300, 300, false);
        // Panicked part-way: nothing it reports counts.
        t.record(100, 40, false);
        assert_eq!(
            t,
            Tally {
                attempted: 700,
                failed: 400
            }
        );
        assert!((t.failed_frac() - 4.0 / 7.0).abs() < 1e-15);
    }

    #[test]
    fn nothing_attempted_is_not_a_failure() {
        assert_eq!(Tally::default().failed_frac(), 0.0);
        assert_eq!(Tally::default().completed_frac(), 1.0);
    }
}
