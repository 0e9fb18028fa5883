//! The statistics behind the reported figures: medians, the tail
//! percentile rule, throughput as Σ work ÷ Σ time, and failure counting.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of `values` (the mean of the two middle values for an even
/// count). Returns 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A tail latency with the percentile it was read at and its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: u64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest percentile, at most `ceiling`, that leaves at least
/// [`MIN_BEYOND`] samples beyond it. A workload fixes its ceiling at the
/// percentile that repeated within a tenth across sizing runs; with fewer
/// samples than that percentile needs, the rule steps down the ladder.
/// `None` when even the median leaves too few samples beyond it.
pub fn tail(sorted: &[u64], ceiling: f64) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER.iter().copied().filter(|&p| p <= ceiling).find_map(|p| {
        let beyond = n.saturating_sub(rank(p, n.max(1)));
        (beyond >= MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: percentile(sorted, p),
            beyond,
            samples: n,
        })
    })
}

/// Throughput as Σ work ÷ Σ time: `tokens` per second over `nanos` of
/// operation time. Not one over a median, because a run's operations
/// differ in size and the host's speed drifts within a run.
pub fn per_second(tokens: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        return 0.0;
    }
    tokens as f64 * 1e9 / nanos as f64
}

/// Operations attempted and failed. An operation that returned an error
/// counts as failed; a wrong answer is not a failure but fails the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
}

impl Tally {
    /// Counts one attempted operation; returns the value when it succeeded.
    pub fn record<T, E>(&mut self, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 99.9), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.5 only 5.
        let s = ramp(1000);
        let t = tail(&s, 99.9).expect("p99 qualifies");
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (99.0, 990, 10, 1000));
        // 999 samples: p99 is rank 990 with 9 beyond, so the rule steps
        // down to p98.
        let s = ramp(999);
        let t = tail(&s, 99.9).expect("p98 qualifies");
        assert_eq!((t.percentile, t.beyond), (98.0, 19));
    }

    #[test]
    fn tail_respects_the_ceiling() {
        let s = ramp(100_000);
        assert_eq!(tail(&s, 99.9).map(|t| t.percentile), Some(99.9));
        assert_eq!(tail(&s, 99.0).map(|t| t.percentile), Some(99.0));
        assert_eq!(tail(&s, 97.0).map(|t| t.percentile), Some(95.0));
    }

    #[test]
    fn tail_gives_up_on_too_few_samples() {
        assert_eq!(tail(&ramp(19), 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
        let t = tail(&ramp(20), 99.0).expect("the median leaves 10 beyond");
        assert_eq!((t.percentile, t.beyond), (50.0, 10));
    }

    #[test]
    fn median_of_cold_starts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow outlier among cold starts does not move the median.
        assert_eq!(median(&[1.5, 1.4, 90.0, 1.6, 1.5]), 1.5);
    }

    #[test]
    fn throughput_is_total_work_over_total_time() {
        // 1000 tokens in 1 ms and 3000 tokens in 1 ms: 2M tokens/s, not
        // the mean of the two rates or one over the median time.
        assert_eq!(per_second(1000 + 3000, 2_000_000), 2_000_000.0);
        assert_eq!(per_second(5, 0), 0.0);
    }

    #[test]
    fn tally_counts_errors_as_failures() {
        let mut t = Tally::default();
        assert_eq!(t.record::<_, ()>(Ok(3)), Some(3));
        assert_eq!(t.record::<u8, _>(Err("refused")), None);
        assert_eq!(t.record::<_, ()>(Ok(4)), Some(4));
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert!((t.fail_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(Tally::default().fail_ratio(), 0.0);
        let mut sum = Tally { attempted: 2, failed: 0 };
        sum.absorb(t);
        assert_eq!(sum, Tally { attempted: 5, failed: 1 });
    }
}
