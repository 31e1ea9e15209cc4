//! The benchmark's own statistics: medians and quartiles, tail
//! percentiles with their sample counts, open-loop due-time accounting and
//! the error-ratio denominator.

/// Sorts `values` ascending (NaN-free input assumed) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of `values`; `None` for an empty slice. Even counts average
/// the two middle values.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values.to_vec());
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method):
/// with `m = len + 1`, cut point `i` interpolates between the sorted
/// values at 1-based ranks `floor(i·m/4)` and the next one. Needs at least
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// The nearest-rank `p`-th percentile of ascending `sorted` values: the
/// smallest value with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// small slack keeps float error in `p · n` (e.g. 99.9 % of 10 000) from
/// rounding an exact rank up.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// A percentile together with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.9`.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// The percentiles the tail search climbs through.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it, with that count; `None` when even
/// the median lacks them (fewer than 20 samples).
pub fn highest_tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, n - rank(n.max(1), p).min(n)))
        .find(|&(_, beyond)| beyond >= MIN_BEYOND)
        .map(|(p, beyond)| Tail {
            percentile: p,
            value: sorted[n - beyond - 1],
            beyond,
        })
}

/// Which of `windows` equal slices of `[start, end)` time `t` falls in;
/// `None` outside the range.
pub fn window_index(t: u64, start: u64, end: u64, windows: usize) -> Option<usize> {
    let windows = windows.max(1);
    let width = (end.saturating_sub(start) / windows as u64).max(1);
    (start..end)
        .contains(&t)
        .then(|| (((t - start) / width) as usize).min(windows - 1))
}

/// The nearest-rank `p`-th percentile of each of `windows` equal slices
/// of `[start, end)`, in time order. `samples` are `(time, value)` pairs;
/// slices without samples are skipped.
pub fn slice_percentiles(
    samples: &[(u64, f64)],
    start: u64,
    end: u64,
    windows: usize,
    p: f64,
) -> Vec<f64> {
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); windows.max(1)];
    for &(t, v) in samples {
        if let Some(w) = window_index(t, start, end, windows) {
            slices[w].push(v);
        }
    }
    slices
        .into_iter()
        .filter(|s| !s.is_empty())
        .filter_map(|s| percentile(&sorted(s), p))
        .collect()
}

/// The median of [`slice_percentiles`]. Host interference that lasts a
/// few seconds moves one slice's percentile, not the median of them all.
pub fn windowed_percentile(
    samples: &[(u64, f64)],
    start: u64,
    end: u64,
    windows: usize,
    p: f64,
) -> Option<f64> {
    median(&slice_percentiles(samples, start, end, windows, p))
}

/// Open-loop schedule: request `i` of a generator running at `rate`
/// requests per second is due `i / rate` seconds after the start.
pub fn due_offset_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

/// One request's open-loop timing, all in nanoseconds since the start of
/// the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopTiming {
    /// When the schedule said to send it.
    pub due: u64,
    /// When the generator actually sent it.
    pub sent: u64,
    /// When its response arrived.
    pub done: u64,
}

impl OpenLoopTiming {
    /// Latency as the user sees it: from when the request was due, so a
    /// stall also charges the wait it imposes on requests behind it.
    pub fn latency_ns(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator itself ran.
    pub fn lag_ns(&self) -> u64 {
        self.sent.saturating_sub(self.due)
    }
}

/// Operation outcome tallies behind `error_ratio`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Answered successfully.
    pub ok: u64,
    /// Answered with an error other than a refusal.
    pub failed: u64,
    /// Refused by overload protection (`overloaded`).
    pub refused: u64,
    /// Never answered before the drain deadline.
    pub timed_out: u64,
    /// Answered with a partial result.
    pub partial: u64,
}

impl Outcomes {
    /// Every operation attempted, refused ones included.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed + self.refused + self.timed_out + self.partial
    }

    /// Operations that did not fully succeed.
    pub fn errors(&self) -> u64 {
        self.attempted() - self.ok
    }

    /// Failed, refused, timed-out or partial operations over all
    /// operations attempted (0 when nothing was attempted).
    pub fn error_ratio(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            a => self.errors() as f64 / a as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of short samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = highest_tail(&v).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 990.0);
        // 10 000 samples reach p99.9.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = highest_tail(&v).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (99.9, 10, 9990.0));
        // 999 samples: p99 leaves only 9 beyond, so p90 is reported.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = highest_tail(&v).unwrap();
        assert_eq!((t.percentile, t.beyond), (90.0, 99));
        // Too few samples for any tail.
        assert_eq!(highest_tail(&[1.0; 19]), None);
        assert_eq!(highest_tail(&[]), None);
    }

    #[test]
    fn windowed_percentile_ignores_one_disturbed_window() {
        // Ten windows of ten samples each, values 1..=10 per window; one
        // window is disturbed by a factor of 100.
        let mut samples = Vec::new();
        for w in 0..10u64 {
            for i in 1..=10u64 {
                let scale = if w == 3 { 100.0 } else { 1.0 };
                samples.push((w * 100 + i, i as f64 * scale));
            }
        }
        assert_eq!(windowed_percentile(&samples, 0, 1000, 10, 95.0), Some(10.0));
        // Pooled, the disturbed window owns the tail.
        let pooled = sorted(samples.iter().map(|&(_, v)| v).collect());
        assert_eq!(percentile(&pooled, 95.0), Some(500.0));
        // Samples outside the range are ignored; empty input has no value.
        assert_eq!(windowed_percentile(&[(5000, 1.0)], 0, 1000, 10, 50.0), None);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        assert_eq!(due_offset_ns(0, 500.0), 0);
        assert_eq!(due_offset_ns(3, 500.0), 6_000_000);
        // Sent 2 ms late, answered 1 ms after sending: the user waited 3 ms.
        let t = OpenLoopTiming {
            due: 10_000_000,
            sent: 12_000_000,
            done: 13_000_000,
        };
        assert_eq!(t.latency_ns(), 3_000_000);
        assert_eq!(t.lag_ns(), 2_000_000);
        // A generator that ran early has no lag, not a negative one.
        let early = OpenLoopTiming {
            due: 5,
            sent: 4,
            done: 9,
        };
        assert_eq!(early.lag_ns(), 0);
        assert_eq!(early.latency_ns(), 4);
    }

    #[test]
    fn error_ratio_counts_refusals_in_the_denominator() {
        let o = Outcomes {
            ok: 90,
            failed: 2,
            refused: 5,
            timed_out: 2,
            partial: 1,
        };
        assert_eq!(o.attempted(), 100);
        assert_eq!(o.errors(), 10);
        assert!((o.error_ratio() - 0.10).abs() < 1e-12);
        // Refusals alone still count as attempted and as errors.
        let refused_only = Outcomes {
            refused: 4,
            ..Default::default()
        };
        assert_eq!(refused_only.error_ratio(), 1.0);
        assert_eq!(Outcomes::default().error_ratio(), 0.0);
    }
}
