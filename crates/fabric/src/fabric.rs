//! The fabric runtime: shard workers and client threads.
//!
//! [`run_live`] spawns one OS thread per shard and per client, connected by
//! the lock-free SPSC rings. This is the deployment shape: with
//! [`FabricConfig::pin_shards`] each shard thread pins itself to a core
//! (`sched_setaffinity` via the vendored `affinity` shim; no-op off Linux or
//! without the `pinning` feature), and shards share nothing.

use crate::pump::connect;
use crate::shard::Shard;
use crate::stats::{FabricReport, ShardStats};
use netchain_core::{ClientReport, ClientState, HashRing, WorkloadSpec};
use netchain_sim::SimTime;
use netchain_switch::PipelineConfig;
use netchain_telemetry::{merge_thinned, HistSnapshot, PacketTrace, TraceConfig};
use netchain_wire::{Ipv4Addr, Key, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How long a live-run client may go without any progress (no push, no
/// reply) before the run is declared wedged. Generous: a healthy fabric
/// makes progress every few microseconds even on one core.
const STALL_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Static configuration of a fabric.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Worker shards (the scaling axis).
    pub num_shards: usize,
    /// Load-generating clients.
    pub num_clients: usize,
    /// Switches on the consistent-hash ring.
    pub num_switches: usize,
    /// Spare switches hosted by every shard but held *out* of the ring, as
    /// replacements for failure recovery (the testbed experiment's S3).
    pub num_spares: usize,
    /// Virtual nodes per switch.
    pub vnodes_per_switch: usize,
    /// Chain length (`f + 1`).
    pub replication: usize,
    /// Ring placement seed.
    pub ring_seed: u64,
    /// Capacity of each SPSC ring, in frames.
    pub ring_capacity: usize,
    /// Frames pulled/processed per burst.
    pub burst: usize,
    /// In-band trace sampling. [`TraceConfig::OFF`] (the default) keeps the
    /// data plane byte-for-byte on its old path.
    pub trace: TraceConfig,
    /// Pin shard thread `s` to CPU `s % available_cpus` in [`run_live`]
    /// (measured core pinning; needs the `pinning` feature, a no-op
    /// elsewhere). Off by default: unit tests and oversubscribed runs are
    /// better served by the scheduler.
    pub pin_shards: bool,
}

impl FabricConfig {
    /// A fabric with `num_shards` workers and paper-style defaults
    /// elsewhere: 8 switches, chains of 3, one client.
    pub fn new(num_shards: usize) -> Self {
        FabricConfig {
            num_shards,
            num_clients: 1,
            num_switches: 8,
            num_spares: 0,
            vnodes_per_switch: 16,
            replication: 3,
            ring_seed: 7,
            ring_capacity: 256,
            burst: 32,
            trace: TraceConfig::OFF,
            pin_shards: false,
        }
    }

    /// Returns a copy with the given trace sampling config.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Returns a copy with shard-thread core pinning switched on or off.
    pub fn with_pinning(mut self, pin_shards: bool) -> Self {
        self.pin_shards = pin_shards;
        self
    }

    /// Returns a copy with the given number of spare (out-of-ring) switches.
    pub fn with_spares(mut self, num_spares: usize) -> Self {
        self.num_spares = num_spares;
        self
    }

    /// The spare switch IPs (numbered after the ring switches).
    pub fn spare_ips(&self) -> Vec<Ipv4Addr> {
        (self.num_switches..self.num_switches + self.num_spares)
            .map(|i| Ipv4Addr::for_switch(i as u32))
            .collect()
    }

    /// The consistent-hash ring this fabric serves.
    pub fn build_ring(&self) -> HashRing {
        HashRing::new(
            (0..self.num_switches as u32)
                .map(Ipv4Addr::for_switch)
                .collect(),
            self.vnodes_per_switch,
            self.replication,
            self.ring_seed,
        )
    }

    /// A pipeline geometry sized for `num_keys` distinct keys (paper stage
    /// shape, store scaled to the workload instead of 8 MB per switch).
    pub fn pipeline_for(num_keys: u64) -> PipelineConfig {
        PipelineConfig {
            value_stages: 8,
            bytes_per_stage: 16,
            slots_per_stage: (num_keys as usize * 2).next_power_of_two().max(64),
            sram_budget_bytes: usize::MAX / 2,
        }
    }
}

/// Pins the calling thread to `cpu` when the `pinning` feature is compiled
/// in and the platform supports it. Returns whether the pin took effect —
/// callers treat a failed pin as advisory (the thread still runs, merely
/// unpinned), so a restricted cpuset or a non-Linux host degrades gracefully.
pub fn pin_thread(cpu: usize) -> bool {
    #[cfg(feature = "pinning")]
    {
        affinity::pin_current_thread(cpu % affinity::available_cpus()).is_ok()
    }
    #[cfg(not(feature = "pinning"))]
    {
        let _ = cpu;
        false
    }
}

/// Builds the shards and pre-populates every workload key on its owner, in
/// one batch a shard ([`Shard::populate_owned`]).
pub fn build_shards(config: &FabricConfig, workload: &WorkloadSpec) -> Vec<Shard> {
    let ring = config.build_ring();
    let pipeline = FabricConfig::pipeline_for(workload.num_keys);
    let spares = config.spare_ips();
    let mut shards: Vec<Shard> = (0..config.num_shards)
        .map(|i| Shard::with_spares(i, config.num_shards, ring.clone(), pipeline, &spares))
        .collect();
    let zero = Value::from_u64(0);
    for shard in &mut shards {
        shard.populate_owned((0..workload.num_keys).map(|k| (Key::from_u64(k), &zero)));
    }
    shards
}

/// Runs the fabric live: one thread per shard, one per client, SPSC rings in
/// between. Returns after every client completed its share.
pub fn run_live(config: FabricConfig, workload: WorkloadSpec) -> FabricReport {
    assert!(config.num_shards > 0 && config.num_clients > 0);
    assert!(
        config.ring_capacity >= workload.window,
        "rings must hold a full client window to rule out deadlock"
    );
    let ring_def = config.build_ring();
    let shards = build_shards(&config, &workload);
    let (client_ports, shard_ports) = connect(&config);

    let done_clients = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();

    // Shard workers.
    let mut shard_handles = Vec::new();
    for ((s, mut shard), mut port) in shards.into_iter().enumerate().zip(shard_ports) {
        let done = Arc::clone(&done_clients);
        let num_clients = config.num_clients;
        let pin = config.pin_shards;
        if config.trace.enabled {
            shard.enable_tracing(config.trace, start);
        }
        let handle = std::thread::Builder::new()
            .name(format!("fabric-shard-{s}"))
            .spawn(move || {
                if pin {
                    let _ = pin_thread(s);
                }
                loop {
                    // No client ever leaves with replies pending here, so a
                    // full reply ring is always worth waiting for.
                    if port.pump(&mut shard, |_| false) > 0 {
                        continue;
                    }
                    if done.load(Ordering::Acquire) == num_clients && port.is_drained() {
                        break;
                    }
                    // Single-core friendliness: let clients run instead of
                    // spinning the shard.
                    std::thread::yield_now();
                }
                (shard.id(), *shard.stats(), shard.take_traces())
            })
            .expect("spawn shard thread");
        shard_handles.push(handle);
    }

    // Client threads.
    let mut client_handles = Vec::new();
    for (c, mut port) in client_ports.into_iter().enumerate() {
        let ring_clone = ring_def.clone();
        let done = Arc::clone(&done_clients);
        let cfg = config;
        let handle = std::thread::Builder::new()
            .name(format!("fabric-client-{c}"))
            .spawn(move || {
                let mut client = ClientState::new(c as u32, &ring_clone, workload);
                if cfg.trace.enabled {
                    client.enable_tracing(cfg.trace);
                }
                // Stall watchdog: clients have no retransmission, so a query
                // the dataplane drops (parse error, unroutable, a future
                // failover rule) would otherwise hang the run silently with
                // the window never draining. Trade the silent hang for a
                // loud panic with the client's state attached.
                let mut last_progress = Instant::now();
                while !client.is_done() {
                    // The agent clock is wall-clock nanoseconds since the
                    // run started, so the per-query issue→reply latencies in
                    // the report are real.
                    let clock = || SimTime(start.elapsed().as_nanos() as u64);
                    if port.pump(&mut client, true, clock).progressed {
                        last_progress = Instant::now();
                    } else {
                        assert!(
                            last_progress.elapsed() < STALL_TIMEOUT,
                            "fabric client {c} stalled for {STALL_TIMEOUT:?}: \
                             {} outstanding, report {:?} — a query was \
                             dropped by the dataplane and clients do not \
                             retransmit",
                            client.outstanding(),
                            client.report(),
                        );
                        std::thread::yield_now();
                    }
                }
                done.fetch_add(1, Ordering::Release);
                (
                    client.report(),
                    client.latency_snapshot(),
                    client.take_traces(),
                )
            })
            .expect("spawn client thread");
        client_handles.push(handle);
    }

    let mut clients: Vec<ClientReport> = Vec::with_capacity(config.num_clients);
    let mut latency = HistSnapshot::empty();
    let mut trace_fragments: Vec<(u32, Vec<PacketTrace>)> = Vec::new();
    for handle in client_handles {
        let (report, lat, traces) = handle.join().expect("client thread panicked");
        clients.push(report);
        latency.merge(&lat);
        trace_fragments.push(traces);
    }
    let elapsed = start.elapsed();
    let mut shard_stats = vec![ShardStats::default(); config.num_shards];
    for handle in shard_handles {
        let (id, stats, traces) = handle.join().expect("shard thread panicked");
        shard_stats[id] = stats;
        trace_fragments.push(traces);
    }
    let completed_ops: u64 = clients.iter().map(|c| c.completed).sum();
    FabricReport {
        elapsed,
        completed_ops,
        ops_per_sec: completed_ops as f64 / elapsed.as_secs_f64().max(1e-12),
        shards: shard_stats,
        clients,
        latency,
        traces: merge_thinned(trace_fragments).1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_run_completes_and_is_consistent() {
        let config = FabricConfig {
            num_shards: 2,
            num_clients: 2,
            ring_capacity: 128,
            ..FabricConfig::new(2)
        };
        let workload = WorkloadSpec::mixed(64, 2_000, 60, 30);
        let report = run_live(config, workload);
        assert_eq!(report.completed_ops, 4_000);
        assert!(report.ops_per_sec > 0.0);
        for client in &report.clients {
            assert_eq!(client.completed, 2_000);
            assert_eq!(client.version_regressions, 0);
        }
        let replies: u64 = report.shards.iter().map(|s| s.replies).sum();
        assert_eq!(replies, 4_000);
        let drops: u64 = report.shards.iter().map(|s| s.drops).sum();
        assert_eq!(drops, 0);
        let unroutable: u64 = report.shards.iter().map(|s| s.unroutable).sum();
        assert_eq!(unroutable, 0);
    }

    #[test]
    fn live_run_records_latency_and_traces() {
        let config = FabricConfig {
            num_shards: 2,
            ring_capacity: 128,
            ..FabricConfig::new(2)
        }
        .with_trace(TraceConfig::sampled(2, 4096));
        let workload = WorkloadSpec::uniform_read(64, 1_000);
        let report = run_live(config, workload);
        assert_eq!(report.completed_ops, 1_000);
        // Every completed op records a latency sample.
        assert_eq!(report.latency.count(), 1_000);
        assert!(report.latency.quantile(0.99).unwrap() >= report.latency.quantile(0.5).unwrap());
        // ~1/4 sampling: plenty of traces survive.
        assert!(
            report.traces.len() > 100,
            "expected sampled traces, got {}",
            report.traces.len()
        );
        let summary = report.trace_summary();
        // Reads traverse the chain from the tail: client, then at least one
        // switch hop, then back at the client.
        let path = summary.dominant_path().expect("traces were recorded");
        assert!(path.len() >= 3, "path too short: {path:?}");
        let client_ip = u32::from_be_bytes(Ipv4Addr::for_host(0).0);
        assert_eq!(path.first(), Some(&client_ip));
        assert_eq!(path.last(), Some(&client_ip));
        assert!(!summary.transitions.is_empty());
    }
}
