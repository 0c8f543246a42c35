//! Summary statistics the benchmark reports: medians, the tail
//! percentile rule, and the ladder's backlog test.

/// Percentiles the benchmark may report as a timing's tail, lowest
/// first.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a tail must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` sorted
/// samples: `ceil(p/100 · n)`, clamped to `1..=n`.
pub fn rank(n: usize, p: f64) -> usize {
    // The epsilon absorbs binary rounding of p (99.9 · 10 000 / 100
    // lands a hair above 9 990).
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile in [`PERCENTILES`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` when even the median
/// leaves fewer (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The `p`-th percentile (nearest rank) of the samples.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Whether an open-loop step left a growing backlog: the median latency
/// of the last quarter of its requests (in send order) exceeds the first
/// quarter's by more than `slack`. A queue that keeps up holds latency
/// flat across the step; one that falls behind adds the arrival
/// surplus to every later request.
pub fn backlog_growing(latencies_in_send_order: &[f64], slack: f64) -> bool {
    let n = latencies_in_send_order.len();
    if n < 8 {
        return false;
    }
    let quarter = n / 4;
    let first = median(&latencies_in_send_order[..quarter]);
    let last = median(&latencies_in_send_order[n - quarter..]);
    last - first > slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(1), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(1_000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(beyond(990, 99.0), 9);
        assert_eq!(beyond(1, 50.0), 0);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn failed_requests_dominate_the_tail() {
        let mut v = vec![100.0; 990];
        v.extend([f64::INFINITY; 10]);
        assert_eq!(percentile(&v, 99.0), 100.0);
        v.push(f64::INFINITY);
        assert!(percentile(&v, 99.0).is_infinite());
    }

    #[test]
    fn flat_latency_is_not_a_backlog() {
        let flat: Vec<f64> = (0..1_000).map(|i| 300.0 + (i % 7) as f64).collect();
        assert!(!backlog_growing(&flat, 100.0));
        // One slow burst in the middle is not a trend.
        let mut burst = flat.clone();
        for v in &mut burst[400..450] {
            *v = 5_000.0;
        }
        assert!(!backlog_growing(&burst, 100.0));
    }

    #[test]
    fn rising_latency_is_a_backlog() {
        // Arrivals 10% faster than service: each request waits a little
        // longer than the one before.
        let rising: Vec<f64> = (0..1_000).map(|i| 300.0 + 0.5 * i as f64).collect();
        assert!(backlog_growing(&rising, 100.0));
        assert!(!backlog_growing(&rising, 1_000.0));
        // Too few samples to call a trend.
        assert!(!backlog_growing(&[1.0, 1e9, 1e9, 1e9], 0.0));
    }
}
