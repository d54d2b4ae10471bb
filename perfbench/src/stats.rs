//! Order statistics for latency samples.

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Tail percentiles tried from the highest down, in basis points
/// (9999 = p99.99).
pub const TAIL_LADDER_BP: [u64; 4] = [9999, 9990, 9900, 9000];

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Samples strictly ranked above it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER_BP`] that still leaves at
/// least [`TAIL_MIN_BEYOND`] samples ranked beyond it (nearest-rank
/// definition), or `None` when even p90 would not.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_LADDER_BP.iter().find_map(|&bp| {
        // Nearest rank, 1-based: ceil(bp / 10000 * n), in integers so
        // 0.9 * 100 cannot round up to rank 91.
        let rank = (bp as usize * n).div_ceil(10_000).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: bp as f64 / 100.0,
            value: v[rank - 1],
            beyond,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn no_tail_below_one_hundred_samples() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(6)), None);
        assert_eq!(tail(&ramp(99)), None);
    }

    #[test]
    fn p90_from_one_hundred_samples() {
        let t = tail(&ramp(100)).expect("p90 leaves 10 beyond");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn p90_until_a_thousand_then_p99() {
        assert_eq!(tail(&ramp(999)).map(|t| t.percentile), Some(90.0));
        let t = tail(&ramp(1000)).expect("p99 leaves 10 beyond");
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
    }

    #[test]
    fn higher_percentiles_need_more_samples() {
        assert_eq!(tail(&ramp(9_999)).map(|t| t.percentile), Some(99.0));
        assert_eq!(tail(&ramp(10_000)).map(|t| t.percentile), Some(99.9));
        assert_eq!(tail(&ramp(100_000)).map(|t| t.percentile), Some(99.99));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        let t = tail(&v).expect("p90");
        assert_eq!((t.value, t.beyond), (180.0, 20));
    }
}
