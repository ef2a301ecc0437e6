//! Summary statistics for timing samples: the median and the `.tail` rule.

/// Percentiles the `.tail` rule may pick, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `.tail` of a sample set: the highest percentile on the ladder
/// with at least [`TAIL_MIN_BEYOND`] samples strictly above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen (e.g. `99.0`).
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

/// Median (midpoint of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The `.tail` rule; `None` when too few samples leave ten beyond even the
/// lowest ladder percentile.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&percentile| {
        let rank = nearest_rank(percentile, n)?;
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile,
            value: sorted[rank - 1],
            beyond,
        })
    })
}

/// 1-based nearest rank of `percentile` among `n` samples.
fn nearest_rank(percentile: f64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // In tenths of a percent, exactly: 99.9% of 10 000 is rank 9 990.
    let tenths = (percentile * 10.0).round() as usize;
    Some((tenths * n).div_ceil(1000).clamp(1, n))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled-looking order: the rule must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 50 samples: p90 leaves 5 beyond, p75 (rank 38) leaves 12.
        let t = tail(&ramp(50)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 38.0, 12));
        // 10 000 samples: p99.9 leaves exactly 10 beyond.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.9, 10));
    }

    #[test]
    fn tail_is_undefined_with_too_few_samples() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(5)), None);
        // 39 samples: p75 is rank 30, only 9 beyond.
        assert_eq!(tail(&ramp(39)), None);
        assert!(tail(&ramp(40)).is_some());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
