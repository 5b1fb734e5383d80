//! Measurement helpers used by nodes and experiment harnesses:
//! time-bucketed throughput series (for the failure-handling time series of
//! Figure 10). Latencies are recorded with
//! `netchain_telemetry::LatencyHistogram`.

use crate::time::{SimDuration, SimTime};

/// Counts events into fixed-width time buckets and reports a rate series.
///
/// This is how the failure-handling experiment reproduces the "throughput
/// time series of one client server" plots (Figure 10). The bucketing engine
/// lives in `netchain-telemetry`; this type adapts it to simulator time.
#[derive(Debug, Clone)]
pub struct ThroughputSeries {
    series: netchain_telemetry::TimeSeries,
}

impl ThroughputSeries {
    /// Creates a series with the given bucket width.
    pub fn new(bucket_width: SimDuration) -> Self {
        assert!(bucket_width.as_nanos() > 0, "bucket width must be non-zero");
        ThroughputSeries {
            series: netchain_telemetry::TimeSeries::new(bucket_width.as_nanos()),
        }
    }

    /// Records one event at simulated time `at`.
    pub fn record(&mut self, at: SimTime) {
        self.series.record(at.as_nanos());
    }

    /// Records `n` events at simulated time `at`.
    pub fn record_n(&mut self, at: SimTime, n: u64) {
        self.series.record_n(at.as_nanos(), n);
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.series.total()
    }

    /// The series as `(bucket start time in seconds, events per second)`.
    pub fn rate_series(&self) -> Vec<(f64, f64)> {
        self.series.rate_series()
    }

    /// Average rate (events per second) over `[0, end]`.
    pub fn average_rate(&self, end: SimTime) -> f64 {
        self.series.average_rate(end.as_nanos())
    }

    /// The underlying telemetry series, for exporters.
    pub fn inner(&self) -> &netchain_telemetry::TimeSeries {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_series_buckets_events() {
        let mut s = ThroughputSeries::new(SimDuration::from_secs(1));
        s.record(SimTime::ZERO);
        s.record(SimTime::ZERO + SimDuration::from_millis(400));
        s.record(SimTime::ZERO + SimDuration::from_millis(1700));
        s.record_n(SimTime::ZERO + SimDuration::from_millis(2100), 10);
        assert_eq!(s.total(), 13);
        let series = s.rate_series();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0], (0.0, 2.0));
        assert_eq!(series[1], (1.0, 1.0));
        assert_eq!(series[2], (2.0, 10.0));
        let avg = s.average_rate(SimTime::ZERO + SimDuration::from_secs(13));
        assert!((avg - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bucket_width_rejected() {
        ThroughputSeries::new(SimDuration::ZERO);
    }
}
