//! Order statistics for the benchmark's timings.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, always next to
//! the sample count, so a tail figure is never read off a handful of
//! points. Medians and quartiles *across* runs are `spread.py`'s job
//! (Python's `statistics`, as the run-to-run check uses them).

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentile ladder tried by [`Sample::highest_supported`].
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A sorted sample of finite values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sort `values` into a sample. Non-finite values are a caller bug.
    pub fn new(values: impl IntoIterator<Item = f64>) -> Sample {
        let mut sorted: Vec<f64> = values.into_iter().collect();
        assert!(
            sorted.iter().all(|v| v.is_finite()),
            "non-finite value in sample"
        );
        sorted.sort_by(f64::total_cmp);
        Sample { sorted }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Median (mean of the two middle values for an even count); 0 for
    /// an empty sample.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// 1-based nearest rank of percentile `p` in `(0, 100]`.
    fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len();
        // The tolerance keeps float error in p/100·n from bumping an
        // exact rank (99.9% of 10 000) to the next one.
        ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
    }

    /// Nearest-rank percentile `p` in `(0, 100]`; 0 for an empty sample.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(p) - 1]
    }

    /// Samples strictly beyond the nearest rank of percentile `p`.
    pub fn beyond(&self, p: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - self.rank(p)
    }

    /// The highest percentile of the ladder (p50 … p99.9) that keeps at
    /// least [`MIN_BEYOND`] samples beyond it; `None` below 20 samples.
    pub fn highest_supported(&self) -> Option<f64> {
        LADDER
            .iter()
            .copied()
            .filter(|&p| self.beyond(p) >= MIN_BEYOND)
            .last()
    }

    /// One-line summary: median, the tail percentile the sample
    /// supports, and the sample count.
    pub fn describe(&self, unit: &str) -> String {
        let n = self.len();
        match self.highest_supported() {
            Some(50.0) => format!(
                "p50 {:.3} {unit} (n={n}, {} beyond)",
                self.median(),
                self.beyond(50.0)
            ),
            Some(p) => format!(
                "p50 {:.3} {unit}, p{p} {:.3} {unit} (n={n}, {} beyond)",
                self.median(),
                self.percentile(p),
                self.beyond(p)
            ),
            None => format!(
                "p50 {:.3} {unit}, max {:.3} {unit} (n={n}: no percentile above p50 has {MIN_BEYOND} beyond)",
                self.median(),
                self.percentile(100.0)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Sample {
        Sample::new((1..=n).map(|i| i as f64))
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Sample::new([3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(Sample::new([4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!(Sample::default().median(), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles_and_beyond_counts() {
        let s = seq(100);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.beyond(90.0), 10);
        assert_eq!(s.beyond(95.0), 5);
        assert_eq!(seq(7).percentile(90.0), 7.0);
    }

    #[test]
    fn highest_supported_keeps_ten_samples_beyond() {
        assert_eq!(seq(15).highest_supported(), None);
        assert_eq!(seq(20).highest_supported(), Some(50.0));
        assert_eq!(seq(100).highest_supported(), Some(90.0));
        assert_eq!(seq(200).highest_supported(), Some(95.0));
        assert_eq!(seq(1000).highest_supported(), Some(99.0));
        assert_eq!(seq(10_000).highest_supported(), Some(99.9));
    }

    #[test]
    fn describe_prints_count_and_supported_tail() {
        assert!(seq(100).describe("ms").contains("p90 90.000 ms (n=100, 10 beyond)"));
        assert!(seq(5).describe("ms").contains("max 5.000 ms (n=5"));
    }
}
