//! Order statistics used by the report: quantiles, medians and the quartile spread.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, linearly interpolated between the
/// two closest ranks (the "type 7" definition: the minimum at `q = 0`, the maximum
/// at `q = 1`).  `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values` (`None` for an empty slice).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// How many samples lie strictly above the `q`-quantile position: a reported
/// percentile should have at least ten samples beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let pos = q * (n - 1) as f64;
    n - 1 - pos.ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        // Position 0.9 · 3 = 2.7: 3 + 0.7 · (4 − 3).
        assert!((quantile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_single_samples() {
        assert_eq!(median(&[5.0, 1.0, 9.0]), Some(5.0));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
    }

    #[test]
    fn p90_of_a_hundred_samples_has_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Position 0.9 · 99 = 89.1: between the 90th and 91st smallest values.
        assert!((quantile(&v, 0.9).unwrap() - 90.1).abs() < 1e-9);
        assert_eq!(samples_beyond(100, 0.9), 9);
        assert_eq!(samples_beyond(111, 0.9), 11);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }
}
