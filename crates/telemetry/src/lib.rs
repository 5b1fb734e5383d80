//! netchain-telemetry: the observability layer for the NetChain repro.
//!
//! NetChain's headline claims are distributional — orders-of-magnitude tail
//! latency wins, sub-millisecond failover — so measurement is a first-class
//! subsystem here, not per-experiment glue. The crate is dependency-free and
//! allocation-free on hot paths, and is wired through every execution mode
//! (discrete-event simulator, multi-core fabric, live control plane):
//!
//! * [`hist`] — log-bucketed latency histograms ([`LatencyHistogram`]) with
//!   mergeable snapshots ([`HistSnapshot`]) and p50/p99/p999 queries at
//!   ≤ 3.2% relative error.
//! * [`metrics`] — a time-bucketed [`TimeSeries`] of event rates.
//! * [`trace`] — in-band per-hop tracing in the P4 INT spirit: the trace ID
//!   is derived from fields every packet already carries (client IP +
//!   request ID), so sim switches and fabric shards stamp sampled packets
//!   without any wire-format change, and [`TraceSummary`] reports chain-hop
//!   latency breakdowns.
//! * [`journal`] — a general control-plane phase/span recorder
//!   ([`Journal`]) generalising livectl's `FailoverTimeline`.
//! * [`export`] — a dependency-free JSON tree ([`Json`]) and JSON-lines
//!   [`ArtifactWriter`] producing `BENCH_<name>.jsonl` run artifacts, and
//!   `FLIGHT_<name>.jsonl` dumps of the same records when something went
//!   wrong.
//! * [`audit`] — the chain auditor: reconstructs per-key version histories
//!   from [`trace::Evidence`]-carrying traces plus the [`Journal`] and checks
//!   chain-replication invariants (monotone replicas, head→tail order, read
//!   freshness, durability across repair) in one function,
//!   [`audit::audit`], which a live run calls once when it ends and
//!   `chain_audit` calls over an artifact.

pub mod audit;
pub mod export;
pub mod hist;
pub mod journal;
pub mod metrics;
pub mod trace;

pub use audit::{audit, AuditConfig, AuditReport, Violation, ViolationKind};
pub use export::{
    artifact_dir, journal_from_json, trace_from_json, trace_record_fields, ArtifactWriter, Json,
    TRACE_SCHEMA,
};
pub use hist::{HistBucket, HistSnapshot, LatencyHistogram, Quantiles};
pub use journal::{Journal, Span, SpanHandle};
pub use metrics::TimeSeries;
pub use trace::{
    ip_to_string, key_fingerprint, merge_thinned, merge_traces, path_to_string, trace_id, Evidence,
    EvidenceOp, HopRole, HopStamp, PacketTrace, TraceConfig, TraceSink, TraceSummary,
};
