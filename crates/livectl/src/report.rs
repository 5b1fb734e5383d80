//! Reports for live-controlled runs: the time-sliced throughput series, the
//! controller's phase timeline, and what the run was flagged for: gray
//! failures by the monitor while it ran, consistency violations by the one
//! audit when it ended.

use crate::detector::Anomaly;
use netchain_core::{ClientReport, FailoverTimeline};
use netchain_fabric::ShardStats;
use netchain_telemetry::{HistSnapshot, Journal, PacketTrace, TraceSummary, Violation};
use netchain_wire::Ipv4Addr;
use std::time::Duration;

/// Anything a live run was flagged for: a statistical gray failure (one
/// shard quietly degrading), which the monitor finds while the run goes, or
/// a consistency violation, which [`netchain_telemetry::audit`] finds in the
/// run's sampled traces once it has ended. Both also produce flight dumps
/// (`FLIGHT_*.jsonl`) in the artifact dir.
#[derive(Debug, Clone)]
pub enum LiveAnomaly {
    /// A gray-failure verdict from the [`crate::GrayFailureDetector`].
    Gray(Anomaly),
    /// A chain-invariant violation from the end-of-run
    /// [`netchain_telemetry::audit`] over the report's traces and journal.
    Audit(Violation),
}

impl LiveAnomaly {
    /// One-line human description.
    pub fn describe(&self) -> String {
        match self {
            LiveAnomaly::Gray(a) => a.describe(),
            LiveAnomaly::Audit(v) => v.describe(),
        }
    }
}

/// The result of a live-controlled run.
#[derive(Debug, Clone, Default)]
pub struct LiveReport {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Width of one throughput slice.
    pub slice: Duration,
    /// Completed operations per slice, summed over clients (index 0 starts
    /// at run start).
    pub slices: Vec<u64>,
    /// Total operations completed (replies matched).
    pub completed_ops: u64,
    /// Aggregate completed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Per-client counters.
    pub clients: Vec<ClientReport>,
    /// Per-shard dataplane counters.
    pub shards: Vec<ShardStats>,
    /// Issue→reply latency distribution, merged over clients (real
    /// wall-clock nanoseconds; the live runner feeds the timed client API).
    pub latency: HistSnapshot,
    /// Merged in-band per-hop traces (client + shard fragments), when
    /// tracing was enabled in the fabric config.
    pub traces: Vec<PacketTrace>,
    /// The phase timeline of the schedule's first killed ring switch
    /// (`None` if it held none): `timelines[0]`.
    pub timeline: Option<FailoverTimeline>,
    /// One phase timeline per killed ring switch, in kill order.
    pub timelines: Vec<(Ipv4Addr, FailoverTimeline)>,
    /// Everything the run was flagged for — the monitor's gray failures,
    /// then the audit's violations, exactly
    /// `audit(&traces, &ops_journal, &()).violations`
    /// (empty in a healthy run; each kind also produced a flight dump in the
    /// artifact dir).
    pub anomalies: Vec<LiveAnomaly>,
    /// One instant per anomaly the run was flagged for, and the controller's
    /// record of every fault op delivered and every phase of its reactions
    /// (`kill <ip>`, `fast-failover:<ip>`, `repair:<ip>`,
    /// `activate-group:<ip>:<i>`, `repair-aborted:<ip>`).
    pub ops_journal: Journal,
}

impl LiveReport {
    /// The throughput series as `(slice midpoint in seconds, ops/sec)`
    /// points, ready for `netchain_experiments::Series`.
    pub fn rate_series(&self) -> Vec<(f64, f64)> {
        let w = self.slice.as_secs_f64();
        self.slices
            .iter()
            .enumerate()
            .map(|(i, &n)| (w * (i as f64 + 0.5), n as f64 / w))
            .collect()
    }

    /// Mean throughput (ops/sec) over `[from, to)` offsets from run start,
    /// counting only slices that lie entirely inside the window.
    pub fn mean_rate(&self, from: Duration, to: Duration) -> f64 {
        let w = self.slice.as_nanos().max(1);
        let lo = (from.as_nanos().div_ceil(w)) as usize;
        let hi = ((to.as_nanos() / w) as usize).min(self.slices.len());
        if lo >= hi {
            return 0.0;
        }
        let total: u64 = self.slices[lo..hi].iter().sum();
        total as f64 / ((hi - lo) as f64 * self.slice.as_secs_f64())
    }

    /// The longest stretch inside `[from, to)` without a single completion,
    /// in whole slices. Slices the series never reached count as empty, so a
    /// series that stops early reads as a stall up to `to`, not as a shorter
    /// window.
    pub fn longest_stall(&self, from: Duration, to: Duration) -> Duration {
        let w = self.slice.as_nanos().max(1);
        let lo = from.as_nanos().div_ceil(w) as usize;
        let hi = (to.as_nanos() / w) as usize;
        let (mut run, mut longest) = (0u32, 0u32);
        for i in lo..hi {
            let empty = self.slices.get(i).is_none_or(|&n| n == 0);
            run = if empty { run + 1 } else { 0 };
            longest = longest.max(run);
        }
        self.slice * longest
    }

    /// Total retransmissions across clients (the visible cost of the dip).
    pub fn total_retries(&self) -> u64 {
        self.clients.iter().map(|c| c.retries).sum()
    }

    /// Total abandoned queries across clients (must be zero in a healthy
    /// run — every op eventually completes through failover and repair).
    pub fn total_abandoned(&self) -> u64 {
        self.clients.iter().map(|c| c.abandoned).sum()
    }

    /// Total version regressions observed by clients (must be zero: replies
    /// never travel backwards in chain version).
    pub fn total_version_regressions(&self) -> u64 {
        self.clients.iter().map(|c| c.version_regressions).sum()
    }

    /// Queries dropped for lack of a route, summed over shards (nonzero
    /// during the window between a kill and the failover rules landing).
    pub fn total_unroutable(&self) -> u64 {
        self.shards.iter().map(|s| s.unroutable).sum()
    }

    /// Writes bounced off blocked groups during repair, summed over shards.
    pub fn total_blocked(&self) -> u64 {
        self.shards.iter().map(|s| s.blocked).sum()
    }

    /// Aggregates the recorded traces into per-path counts and per-hop
    /// latency transitions.
    pub fn trace_summary(&self) -> TraceSummary {
        TraceSummary::from_traces(&self.traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_series_and_window_means() {
        let report = LiveReport {
            slice: Duration::from_millis(100),
            slices: vec![10, 20, 30, 40],
            ..Default::default()
        };
        let series = report.rate_series();
        assert_eq!(series.len(), 4);
        assert!((series[0].0 - 0.05).abs() < 1e-9);
        assert!((series[0].1 - 100.0).abs() < 1e-9);
        // Slices 1 and 2 average (20 + 30) / 0.2s.
        let mean = report.mean_rate(Duration::from_millis(100), Duration::from_millis(300));
        assert!((mean - 250.0).abs() < 1e-9, "{mean}");
        assert_eq!(
            report.mean_rate(Duration::from_millis(150), Duration::from_millis(180)),
            0.0
        );
    }

    #[test]
    fn longest_stall_counts_empty_and_missing_slices() {
        let ms = Duration::from_millis;
        let report = LiveReport {
            slice: ms(20),
            slices: vec![5, 0, 0, 7, 0, 3],
            ..Default::default()
        };
        assert_eq!(report.longest_stall(ms(0), ms(120)), ms(40));
        // Only whole slices inside the window: [30, 120) starts at slice 2.
        assert_eq!(report.longest_stall(ms(30), ms(120)), ms(20));
        assert_eq!(report.longest_stall(ms(60), ms(80)), ms(0));
        // The series ends at 120 ms: a window to 200 ms sees four slices
        // nothing was recorded in, not a window that stops where the data do.
        assert_eq!(report.longest_stall(ms(100), ms(200)), ms(80));
        assert_eq!(report.longest_stall(ms(120), ms(120)), ms(0));
    }
}
