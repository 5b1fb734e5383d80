//! Counters and reports for fabric runs.
//!
//! The counter structs are plain `u64` fields — single-writer, hot-path
//! friendly — that reports and exporters read directly.

use std::time::Duration;

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
    /// phase 1) — the per-group write blocking the Figure 10 analogue
    /// measures.
    pub blocked: u64,
    /// Packets addressed to a switch this shard does not host (or a failed
    /// switch with no failover rule installed yet).
    pub unroutable: u64,
}

/// Per-client load-generator counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientReport {
    /// Queries issued.
    pub issued: u64,
    /// Replies matched to an outstanding query.
    pub completed: u64,
    /// Replies with `Ok` status.
    pub ok: u64,
    /// Replies with `CasFailed` status (expected under CAS contention).
    pub cas_failed: u64,
    /// Retransmissions sent (live-controlled runs only; the failure-free
    /// fabric never drops, so this stays zero there).
    pub retries: u64,
    /// Queries abandoned after exhausting the retry budget (must stay zero
    /// in any healthy run, including across failover and repair).
    pub abandoned: u64,
    /// Replies whose version regressed (must stay zero — the fabric is
    /// strongly consistent per key).
    pub version_regressions: u64,
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
