//! Order statistics over timing samples. Everything is nearest-rank, so
//! every reported value is a value that was actually measured.

/// Nearest-rank percentile of an ascending-sorted slice (NaN when empty).
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (sorted.len() * pct as usize).div_ceil(100).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Median with quartiles and the sample count behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        n: v.len(),
        p25: percentile(&v, 25),
        p50: percentile(&v, 50),
        p75: percentile(&v, 75),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// Geometric mean (NaN when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 100.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 25), 7.0);
        assert!(percentile(&[], 50).is_nan());
    }

    #[test]
    fn summary_sorts_and_reports_measured_values() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.p25, s.p50, s.p75), (5, 2.0, 3.0, 4.0));
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.p25, even.p50, even.p75), (1.0, 2.0, 3.0));
        assert_eq!(median(&[9.0, 7.0, 8.0]), 8.0);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }
}
