//! A time-bucketed event series.

/// Counts events into fixed-width time buckets (nanosecond timestamps) and
/// reports per-bucket rates: the simulated clients' throughput series and
/// livectl's live rate slices (the series Figure 10 plots).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket_ns: u64,
    buckets: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width in nanoseconds.
    pub fn new(bucket_ns: u64) -> Self {
        assert!(bucket_ns > 0, "bucket width must be non-zero");
        TimeSeries {
            bucket_ns,
            buckets: Vec::new(),
        }
    }

    /// Records `n` events at time `at_ns`.
    #[inline]
    pub fn record_n(&mut self, at_ns: u64, n: u64) {
        let idx = (at_ns / self.bucket_ns) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
    }

    /// Records one event at time `at_ns`.
    #[inline]
    pub fn record(&mut self, at_ns: u64) {
        self.record_n(at_ns, 1);
    }

    /// Raw per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.buckets
    }

    /// The series as `(bucket start in seconds, events per second)`.
    pub fn rate_series(&self) -> Vec<(f64, f64)> {
        let width_s = self.bucket_ns as f64 / 1e9;
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 * width_s, c as f64 / width_s))
            .collect()
    }

    /// Merges another series (same bucket width) into this one.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.bucket_ns, other.bucket_ns,
            "cannot merge series with different bucket widths"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_buckets_and_rates() {
        let mut s = TimeSeries::new(1_000_000_000);
        s.record(0);
        s.record(400_000_000);
        s.record(1_700_000_000);
        s.record_n(2_100_000_000, 10);
        assert_eq!(s.counts().iter().sum::<u64>(), 13);
        let series = s.rate_series();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0], (0.0, 2.0));
        assert_eq!(series[1], (1.0, 1.0));
        assert_eq!(series[2], (2.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bucket_width_rejected() {
        TimeSeries::new(0);
    }

    #[test]
    fn time_series_merge() {
        let mut a = TimeSeries::new(100);
        a.record(50);
        let mut b = TimeSeries::new(100);
        b.record(250);
        b.record(50);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn time_series_merge_width_mismatch() {
        let mut a = TimeSeries::new(100);
        a.merge(&TimeSeries::new(200));
    }
}
