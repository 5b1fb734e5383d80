//! Counters and reports for fabric runs.
//!
//! The counter structs are plain `u64` fields — single-writer, hot-path
//! friendly — that reports and exporters read directly. A reader on another
//! thread sees a running shard's counters through its [`ShardStatsCell`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use netchain_core::ClientReport;
use netchain_telemetry::{HistSnapshot, PacketTrace, TraceSummary};

/// Per-shard dataplane counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Frames pulled from ingress rings.
    pub frames_in: u64,
    /// Frames that failed wire parsing.
    pub parse_errors: u64,
    /// Bursts processed (ring pulls that yielded at least one frame).
    pub bursts: u64,
    /// Chain waves executed across all bursts.
    pub waves: u64,
    /// Replies generated and encoded.
    pub replies: u64,
    /// Packets dropped by the switch program.
    pub drops: u64,
    /// Subset of `drops` caused by a recovery *block* rule (Algorithm 3
    /// phase 1) — the per-group write blocking Figure 10 (`fig10`)
    /// measures.
    pub blocked: u64,
    /// Packets addressed to a switch this shard does not host (or a failed
    /// switch with no failover rule installed yet).
    pub unroutable: u64,
}

impl ShardStats {
    // Both conversions name every field, so a new counter cannot be left
    // out of `ShardStatsCell` or `since` silently.
    fn to_array(self) -> [u64; 8] {
        let ShardStats {
            frames_in,
            parse_errors,
            bursts,
            waves,
            replies,
            drops,
            blocked,
            unroutable,
        } = self;
        [
            frames_in,
            parse_errors,
            bursts,
            waves,
            replies,
            drops,
            blocked,
            unroutable,
        ]
    }

    fn from_array(counters: [u64; 8]) -> Self {
        let [frames_in, parse_errors, bursts, waves, replies, drops, blocked, unroutable] =
            counters;
        ShardStats {
            frames_in,
            parse_errors,
            bursts,
            waves,
            replies,
            drops,
            blocked,
            unroutable,
        }
    }

    /// What the shard did between two samples of its counters: `earlier`
    /// and `self`.
    pub fn since(&self, earlier: &ShardStats) -> ShardStats {
        let (now, then) = (self.to_array(), earlier.to_array());
        ShardStats::from_array(std::array::from_fn(|i| now[i].saturating_sub(then[i])))
    }
}

/// A running shard's [`ShardStats`], for readers on other threads: the
/// shard's thread [`store`](Self::store)s its cumulative counters, a reader
/// [`load`](Self::load)s them and diffs two samples with
/// [`ShardStats::since`] ([`since_last`](Self::since_last) does both). One
/// writer; the stores are relaxed because the counters publish no other
/// data, so a sample may mix two consecutive stores but never loses a
/// count.
#[derive(Debug, Default)]
pub struct ShardStatsCell([AtomicU64; 8]);

impl ShardStatsCell {
    /// Publishes `stats` (the shard's own thread only).
    pub fn store(&self, stats: &ShardStats) {
        for (cell, v) in self.0.iter().zip(stats.to_array()) {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// The counters last published.
    pub fn load(&self) -> ShardStats {
        ShardStats::from_array(self.0.each_ref().map(|c| c.load(Ordering::Relaxed)))
    }

    /// Samples the counters and returns what the shard did since `last`,
    /// the reader's previous sample, which the new one replaces.
    pub fn since_last(&self, last: &mut ShardStats) -> ShardStats {
        let now = self.load();
        now.since(&std::mem::replace(last, now))
    }
}

/// The result of a threaded (live) fabric run.
#[derive(Debug, Clone, Default)]
pub struct FabricReport {
    /// Wall-clock duration of the run (clients started → last client done).
    pub elapsed: Duration,
    /// Total operations completed across all clients.
    pub completed_ops: u64,
    /// Aggregate completed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Per-shard dataplane counters.
    pub shards: Vec<ShardStats>,
    /// Per-client counters.
    pub clients: Vec<ClientReport>,
    /// Issue→reply latency across all clients (wall-clock nanoseconds).
    pub latency: HistSnapshot,
    /// Merged in-band traces (empty when tracing is off).
    pub traces: Vec<PacketTrace>,
}

impl FabricReport {
    /// Per-hop latency breakdown of the sampled traces.
    pub fn trace_summary(&self) -> TraceSummary {
        TraceSummary::from_traces(&self.traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cell_returns_what_was_stored_and_samples_diff_per_counter() {
        let earlier = ShardStats {
            frames_in: 10,
            bursts: 2,
            replies: 9,
            blocked: 1,
            ..Default::default()
        };
        let now = ShardStats {
            frames_in: 74,
            parse_errors: 1,
            bursts: 4,
            waves: 5,
            replies: 70,
            drops: 3,
            blocked: 3,
            unroutable: 2,
        };
        let cell = ShardStatsCell::default();
        assert_eq!(cell.load(), ShardStats::default());
        cell.store(&now);
        assert_eq!(cell.load(), now);
        let mut last = earlier;
        let delta = cell.since_last(&mut last);
        assert_eq!((last, delta), (now, now.since(&earlier)));
        assert_eq!((delta.frames_in, delta.bursts, delta.replies), (64, 2, 61));
        assert_eq!((delta.blocked, delta.unroutable), (2, 2));
        // Samples taken out of order clamp at zero instead of wrapping.
        assert_eq!(earlier.since(&now), ShardStats::default());
    }
}
