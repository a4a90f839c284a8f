//! The benchmark's own arithmetic: percentiles under the
//! ten-samples-beyond rule, open-loop timing, geometric means.

use std::time::Duration;

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Consecutive windows a closed loop's p99 is taken over.
pub const WINDOWS: usize = 16;

/// Nearest-rank percentile `q` (0 < q < 1) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `sorted` (ascending); the mean of the middle pair when `n` is
/// even.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Latency samples of one operation class, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn push_secs(&mut self, secs: f64) {
        self.0.push(secs);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// `(median, p99)` in seconds, each taken over `windows` windows
    /// ([`windowed`]); `Err` names the class when a window has fewer than
    /// [`MIN_BEYOND`] samples beyond its p99.
    pub fn p50_p99(&self, class: &str, windows: usize) -> Result<(f64, f64), String> {
        match (
            windowed(&self.0, windows, |w| median(&sorted(w))),
            windowed(&self.0, windows, |w| percentile(&sorted(w), 0.99)),
        ) {
            (Some(p50), Some(p99)) => Ok((p50, p99)),
            _ => Err(format!(
                "{class}: {} samples, a p99 over {windows} windows needs at least {}",
                self.0.len(),
                windows * 100 * MIN_BEYOND
            )),
        }
    }

    /// Work done per second, taken over `windows` windows: each sample is
    /// the time of one operation that did `work` units.
    pub fn rate(&self, work: f64, windows: usize) -> Option<f64> {
        windowed(&self.0, windows, |w| {
            Some(work * w.len() as f64 / w.iter().sum::<f64>())
        })
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median over `windows` consecutive, equal slices of `in_order` of each
/// slice's `stat`: a slow stretch of the run moves the windows it covers,
/// and the result only when it covers half of them. `None` when `stat`
/// has no value for a slice.
pub fn windowed(
    in_order: &[f64],
    windows: usize,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let len = in_order.len() / windows.max(1);
    let per_window = in_order
        .chunks(len.max(1))
        .take(windows)
        .map(stat)
        .collect::<Option<Vec<f64>>>()?;
    median(&sorted(&per_window))
}

/// Open-loop latency: from the time a request was *due*, so a stalled
/// generator charges its stall to every request it delayed.
pub fn due_latency(due: Duration, reply: Duration) -> Duration {
    reply.saturating_sub(due)
}

/// How late the generator issued a request (zero when on time).
pub fn generator_lateness(due: Duration, submitted: Duration) -> Duration {
    submitted.saturating_sub(due)
}

/// Seeded arrival schedule: `count` due times (offsets from the start of
/// the open loop) at `rate` requests per second, request `i` due at a
/// uniformly jittered point of the first half of its slot `[i, i+1)/rate`.
pub fn jittered_schedule(
    rng: &mut dspcc::arch::SplitMix64,
    rate: f64,
    count: usize,
) -> Vec<Duration> {
    (0..count)
        .map(|i| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            Duration::from_secs_f64((i as f64 + u / 2.0) / rate)
        })
        .collect()
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990, nine beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn samples_report_or_refuse_p99() {
        let mut s = Samples::default();
        for _ in 0..WINDOWS {
            for i in 1..=1000u64 {
                s.push(Duration::from_millis(i));
            }
        }
        let (p50, p99) = s.p50_p99("x", WINDOWS).unwrap();
        assert!((p50 - 0.5005).abs() < 1e-9);
        assert!((p99 - 0.990).abs() < 1e-9);
        let mut few = Samples::default();
        few.push(Duration::from_millis(1));
        assert!(few.p50_p99("few", WINDOWS).unwrap_err().contains("few"));
    }

    #[test]
    fn windowed_statistics_ignore_one_bad_window() {
        // Four windows of 1000 samples; the third has a stall.
        let mut xs = Vec::new();
        for w in 0..4 {
            for i in 1..=1000 {
                xs.push(if w == 2 { 1e6 } else { i as f64 });
            }
        }
        let p99 = |w: &[f64]| percentile(&sorted(w), 0.99);
        // Window p99s: 990, 990, 1e6, 990 -> median 990.
        assert_eq!(windowed(&xs, 4, p99), Some(990.0));
        // Window medians: 500.5 three times and 1e6 -> median 500.5.
        assert_eq!(windowed(&xs, 4, |w| median(&sorted(w))), Some(500.5));
        // Windows too short for a p99 with ten samples beyond.
        assert_eq!(windowed(&xs[..3000], 4, p99), None);
    }

    #[test]
    fn rate_is_the_median_window_rate() {
        // Four windows of ten 1-s operations of 2 units; one window at 4 s.
        let mut s = Samples::default();
        for w in 0..4 {
            for _ in 0..10 {
                s.push_secs(if w == 1 { 4.0 } else { 1.0 });
            }
        }
        // Window rates 2, 0.5, 2, 2 -> 2 units/s; over the whole run 8/7.
        assert_eq!(s.rate(2.0, 4), Some(2.0));
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let ms = Duration::from_millis;
        // Due at 10, submitted late at 13, replied at 20: the request saw
        // 10 ms, of which the generator caused 3.
        assert_eq!(due_latency(ms(10), ms(20)), ms(10));
        assert_eq!(generator_lateness(ms(10), ms(13)), ms(3));
        // An early submit is not negative lateness.
        assert_eq!(generator_lateness(ms(10), ms(9)), Duration::ZERO);
    }

    #[test]
    fn jittered_schedule_is_seeded_increasing_and_at_rate() {
        let a = jittered_schedule(&mut dspcc::arch::SplitMix64::new(7), 1000.0, 5000);
        let b = jittered_schedule(&mut dspcc::arch::SplitMix64::new(7), 1000.0, 5000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        for (i, due) in a.iter().enumerate() {
            let slot = due.as_secs_f64() * 1000.0 - i as f64;
            assert!(
                (0.0..0.5).contains(&slot),
                "request {i} due {slot} into its slot"
            );
        }
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
