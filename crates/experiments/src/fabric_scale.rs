//! The fabric scale run: *measured* ops/sec of the multi-core software
//! fabric, versus worker shard count and versus chain length.
//!
//! Unlike the figure reproductions, which simulate or model the paper's
//! Tofino testbed, this experiment measures the repo's own software
//! incarnation of Algorithm 1 on the machine it runs on — the honest
//! baseline every future scaling PR is compared against. Measurements use
//! [`netchain_fabric::run_capacity`]: each shard's partition is timed
//! run-to-completion and aggregated under the one-core-per-shard deployment
//! model, the same style of extrapolation the paper's §8.3 scalability study
//! uses, and the only honest way to produce a scaling curve on a machine
//! with fewer cores than shards.

use crate::series::{print_series, Series};
use netchain_baseline::message::{ZkOp, ZkStore};
use netchain_core::KvOp;
use netchain_fabric::{
    build_shards, run_capacity, run_live, ClientState, FabricConfig, FabricReport, WorkloadSpec,
};
use netchain_telemetry::{ArtifactWriter, Json, TraceConfig};
use netchain_wire::{BatchEncoder, ChainList, Ipv4Addr, Key, NetChainPacket, OpCode, Value};
use std::time::{Duration, Instant};

/// Workload shape shared by both scale sweeps.
#[derive(Debug, Clone, Copy)]
pub struct FabricScaleParams {
    /// Distinct keys, sampled uniformly.
    pub num_keys: u64,
    /// Operations measured per data point.
    pub ops: u64,
}

impl Default for FabricScaleParams {
    fn default() -> Self {
        FabricScaleParams {
            num_keys: 1024,
            ops: 200_000,
        }
    }
}

/// Aggregate throughput vs worker shard count, for a read-only and a mixed
/// (50% read / 40% write / 10% CAS) workload — the NetChain-vs-baseline
/// presentation style: two series over the same x axis.
pub fn throughput_vs_shards(params: FabricScaleParams, shard_counts: &[usize]) -> Vec<Series> {
    let mut read_points = Vec::new();
    let mut mixed_points = Vec::new();
    for &shards in shard_counts {
        let config = FabricConfig::new(shards);
        let read = run_capacity(
            config,
            WorkloadSpec::uniform_read(params.num_keys, params.ops),
        );
        read_points.push((shards as f64, read.aggregate_ops_per_sec));
        let mixed = run_capacity(
            config,
            WorkloadSpec::mixed(params.num_keys, params.ops, 50, 40),
        );
        mixed_points.push((shards as f64, mixed.aggregate_ops_per_sec));
    }
    vec![
        Series::new("fabric (100% read)", read_points),
        Series::new("fabric (50% read, 40% write, 10% CAS)", mixed_points),
    ]
}

/// Aggregate throughput vs chain length (`f + 1`) at a fixed shard count.
/// Longer chains cost proportionally more switch work per write, so the
/// write-heavy series falls off while the read series stays flat (reads are
/// served by the tail alone, whatever the chain length).
pub fn throughput_vs_chain_length(
    params: FabricScaleParams,
    shards: usize,
    chain_lengths: &[usize],
) -> Vec<Series> {
    let mut read_points = Vec::new();
    let mut write_points = Vec::new();
    for &replication in chain_lengths {
        let config = FabricConfig::new(shards).with_replication(replication);
        let read = run_capacity(
            config,
            WorkloadSpec::uniform_read(params.num_keys, params.ops),
        );
        read_points.push((replication as f64, read.aggregate_ops_per_sec));
        let mixed = run_capacity(
            config,
            WorkloadSpec::mixed(params.num_keys, params.ops, 50, 50),
        );
        write_points.push((replication as f64, mixed.aggregate_ops_per_sec));
    }
    vec![
        Series::new("fabric (100% read)", read_points),
        Series::new("fabric (50% write)", write_points),
    ]
}

/// One *live* (threaded, wall-clock) run of the fabric with in-band trace
/// sampling on: the latency-distribution and per-hop profile the capacity
/// sweeps above cannot see (they time shards run-to-completion). Returns
/// the full report; callers export `report.latency.quantiles()` and
/// `report.trace_summary()`.
pub fn live_profile(params: FabricScaleParams, shards: usize) -> FabricReport {
    // Pin each shard thread to its own core (vendored affinity shim; a
    // graceful no-op on unsupported platforms) so the live numbers measure
    // placement rather than scheduler luck; the report's `pinned_shards`
    // says how many pins actually took.
    let config = FabricConfig::new(shards)
        .with_trace(TraceConfig::sampled(6, 4096))
        .with_pinning(true);
    run_live(
        config,
        WorkloadSpec::mixed(params.num_keys, params.ops, 50, 40),
    )
}

/// The staged-vs-scalar burst comparison at experiment granularity: the same
/// 32-read burst (each read addressed to its key's chain tail, like the load
/// generator produces) through the staged [`netchain_fabric::Shard::process_burst`]
/// and the retained scalar reference path. Returns
/// `(scalar_ns_per_burst, staged_ns_per_burst)`, each the minimum over
/// `repeats` timed runs of `iters` bursts — the numbers `BENCH_fabric.json`
/// records so the perf trajectory is machine-diffable across PRs.
pub fn staged_vs_scalar_burst(iters: u32, repeats: u32) -> (f64, f64) {
    let config = FabricConfig::new(1);
    let workload = WorkloadSpec::uniform_read(1024, 0);
    let mut shards = build_shards(&config, &workload);
    let ring = config.build_ring();
    let frames: Vec<Vec<u8>> = (0..config.burst as u64)
        .map(|i| {
            let key = Key::from_u64(i % workload.num_keys);
            NetChainPacket::query(
                Ipv4Addr::for_host(0),
                40_000,
                ring.chain_for_key(&key).tail(),
                OpCode::Read,
                key,
                Value::empty(),
                ChainList::empty(),
                i,
            )
            .to_bytes()
        })
        .collect();
    let mut replies = BatchEncoder::with_capacity(frames.len(), 128);
    for _ in 0..100 {
        replies.clear();
        shards[0].process_burst(frames.iter().map(|f| f.as_slice()), &mut replies);
        replies.clear();
        shards[0].process_burst_scalar(frames.iter().map(|f| f.as_slice()), &mut replies);
    }
    let mut staged_ns = f64::INFINITY;
    let mut scalar_ns = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        for _ in 0..iters {
            replies.clear();
            shards[0].process_burst(frames.iter().map(|f| f.as_slice()), &mut replies);
            std::hint::black_box(replies.len());
        }
        staged_ns = staged_ns.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
        let t0 = Instant::now();
        for _ in 0..iters {
            replies.clear();
            shards[0].process_burst_scalar(frames.iter().map(|f| f.as_slice()), &mut replies);
            std::hint::black_box(replies.len());
        }
        scalar_ns = scalar_ns.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    (scalar_ns, staged_ns)
}

/// Measured capacity of a ZooKeeper-style server ensemble (the
/// `netchain-baseline` replication structure: reads served by the contacted
/// server, writes serialized through the leader and applied by every
/// replica) driven by the **same** load generator and op stream as the
/// fabric runs, under the same one-core-per-worker capacity methodology as
/// [`run_capacity`].
///
/// What is and is not measured: the real data-structure work of every
/// replica (the `ZkStore` the baseline servers execute) is timed; the
/// kernel/network-stack and fsync costs that dominate a production
/// ZooKeeper are *not* — the simulator (`zk` module) models those from the
/// paper's calibration. The honest measured claim is therefore structural:
/// the baseline's writes funnel through one leader and do not scale with
/// servers, while the fabric's chains are keyspace-sharded and do.
pub fn baseline_capacity(
    params: FabricScaleParams,
    num_servers: usize,
    read_pct: u8,
    write_pct: u8,
) -> f64 {
    assert!(num_servers > 0);
    // The same sampler (same seed, same mix) the fabric's clients draw from.
    let config = FabricConfig::new(1);
    let ring = config.build_ring();
    let spec = WorkloadSpec::mixed(params.num_keys, params.ops, read_pct, write_pct);
    let mut client = ClientState::new(0, &ring, spec);

    let mut stores: Vec<ZkStore> = (0..num_servers).map(|_| ZkStore::new()).collect();
    for store in &mut stores {
        for k in 0..params.num_keys {
            store.apply(&ZkOp::Write {
                key: k,
                value: 0u64.to_be_bytes().to_vec(),
            });
        }
    }

    // Partition the op stream (untimed, like run_capacity's generation):
    // reads round-robin over the servers clients are attached to; every
    // mutation becomes a leader-sequenced proposal applied by all replicas.
    let mut reads: Vec<Vec<ZkOp>> = (0..num_servers).map(|_| Vec::new()).collect();
    let mut proposals: Vec<ZkOp> = Vec::new();
    for i in 0..params.ops {
        match client.sample_op() {
            KvOp::Read(k) => reads[i as usize % num_servers].push(ZkOp::Read { key: k.low_u64() }),
            KvOp::Write(k, v) => proposals.push(ZkOp::Write {
                key: k.low_u64(),
                value: v.as_bytes().to_vec(),
            }),
            // The ZooKeeper lock idiom: CAS-acquire ≈ ephemeral-node create.
            KvOp::Cas { key, new, .. } => proposals.push(ZkOp::Create {
                key: key.low_u64(),
                owner: new,
            }),
            KvOp::Delete(k) => proposals.push(ZkOp::Delete { key: k.low_u64() }),
        }
    }

    // Timed work, chunked per server like the fabric's bursts: local reads
    // on each server, then the write stream — once through the leader
    // (sequencing + apply) and once through every follower (proposal
    // application).
    let mut busy = vec![Duration::ZERO; num_servers];
    for (s, server_reads) in reads.iter().enumerate() {
        let t0 = Instant::now();
        for op in server_reads {
            std::hint::black_box(stores[s].apply(op));
        }
        busy[s] += t0.elapsed();
    }
    let mut zxid = 0u64;
    let t0 = Instant::now();
    for op in &proposals {
        zxid += 1;
        std::hint::black_box(stores[0].apply(op));
    }
    busy[0] += t0.elapsed();
    std::hint::black_box(zxid);
    for (s, store) in stores.iter_mut().enumerate().skip(1) {
        let t0 = Instant::now();
        for op in &proposals {
            std::hint::black_box(store.apply(op));
        }
        busy[s] += t0.elapsed();
    }

    let makespan = busy
        .iter()
        .max()
        .copied()
        .unwrap_or_default()
        .as_secs_f64()
        .max(1e-12);
    params.ops as f64 / makespan
}

/// The measured NetChain-vs-baseline comparison the ROADMAP asks for: both
/// systems' software incarnations, the same load generator, the same mixed
/// workload (50% read / 40% write / 10% CAS), the same one-core-per-worker
/// aggregation — aggregate ops/sec versus worker count (fabric shards vs
/// baseline servers, with a matching replica count).
pub fn fabric_vs_baseline(params: FabricScaleParams, worker_counts: &[usize]) -> Vec<Series> {
    let mut fabric_points = Vec::new();
    let mut baseline_points = Vec::new();
    for &workers in worker_counts {
        let fabric = run_capacity(
            FabricConfig::new(workers),
            WorkloadSpec::mixed(params.num_keys, params.ops, 50, 40),
        );
        fabric_points.push((workers as f64, fabric.aggregate_ops_per_sec));
        baseline_points.push((workers as f64, baseline_capacity(params, workers, 50, 40)));
    }
    vec![
        Series::new("netchain fabric (chain f+1=3)", fabric_points),
        Series::new("server baseline (leader + replicas)", baseline_points),
    ]
}

/// A series' points as `[[x,y],…]`.
fn points_json(s: &Series) -> Json {
    let point = |&(x, y): &(f64, f64)| Json::Arr(vec![Json::F64(x), Json::F64(y)]);
    Json::Arr(s.points.iter().map(point).collect())
}

/// CLI entry: runs the three sweeps, one traced live run and the
/// staged-vs-scalar burst comparison. Results are printed, exported as
/// `BENCH_fabric_scale.jsonl` (one record per series plus the live run's
/// latency quantiles and per-hop summary), and summarised — ops/sec per
/// shard count, live p50/p99, the burst comparison — in the repo-top-level
/// `BENCH_fabric.json`, so the perf trajectory is diffable across PRs.
pub fn run_cli(_args: &[String]) -> i32 {
    let params = FabricScaleParams::default();
    let mut artifact = ArtifactWriter::new("fabric_scale");
    let mut sweep = |name: &str, [title, x_label, y_label]: [&str; 3], series: Vec<Series>| {
        print_series(title, x_label, y_label, &series);
        for s in &series {
            let fields = vec![
                ("sweep", Json::str(name)),
                ("name", Json::str(&s.name)),
                ("points", points_json(s)),
            ];
            artifact.record("series", fields);
        }
        series
    };
    let shards = sweep(
        "throughput_vs_shards",
        [
            "Fabric scale: throughput vs worker shards",
            "worker shards",
            "ops/sec",
        ],
        throughput_vs_shards(params, &[1, 2, 4, 8, 16]),
    );
    let chain = sweep(
        "throughput_vs_chain_length",
        [
            "Fabric scale: throughput vs chain length (4 shards)",
            "chain length (f+1)",
            "ops/sec",
        ],
        throughput_vs_chain_length(params, 4, &[1, 2, 3, 4, 5]),
    );
    sweep(
        "fabric_vs_baseline",
        [
            "Fabric vs server baseline (measured, same load generator)",
            "workers (shards / servers)",
            "ops/sec",
        ],
        fabric_vs_baseline(params, &[1, 2, 4, 8]),
    );

    // One live (threaded, wall-clock) run with trace sampling on: the
    // latency and per-hop profile the capacity sweeps cannot see.
    let profile_params = FabricScaleParams {
        ops: 50_000,
        ..params
    };
    let report = live_profile(profile_params, 4);
    let quantiles = report.latency.quantiles();
    println!(
        "Live profile (4 shards, 50/40/10 mix, {}/4 shard threads pinned): {}",
        report.pinned_shards,
        quantiles.to_line()
    );
    let hops = report.trace_summary();
    if let Some(path) = hops.dominant_path() {
        println!(
            "traces: {} sampled; dominant path {}",
            hops.traces,
            netchain_telemetry::path_to_string(path),
        );
    }
    artifact.record(
        "latency",
        vec![
            ("shards", Json::U64(4)),
            ("quantiles", Json::from(quantiles)),
        ],
    );
    artifact.record("hops", vec![("summary", Json::from(&hops))]);

    // The staged-vs-scalar burst comparison (ISSUE 7 acceptance numbers).
    let (scalar_ns, staged_ns) = staged_vs_scalar_burst(10_000, 5);
    let speedup = scalar_ns / staged_ns;
    println!(
        "Staged vs scalar (32-read burst): scalar {scalar_ns:.0} ns, staged {staged_ns:.0} ns, {speedup:.2}x"
    );

    let series_json = |s: &Series| {
        Json::obj(vec![
            ("name", Json::str(&s.name)),
            ("points", points_json(s)),
        ])
    };
    let summary = Json::obj(vec![
        ("experiment", Json::str("fabric_scale")),
        (
            "ops_per_sec_vs_shards",
            Json::Arr(shards.iter().map(series_json).collect()),
        ),
        (
            "ops_per_sec_vs_chain_length",
            Json::Arr(chain.iter().map(series_json).collect()),
        ),
        (
            "live_profile",
            Json::obj(vec![
                ("shards", Json::U64(4)),
                ("pinned_shards", Json::U64(report.pinned_shards as u64)),
                ("quantiles", Json::from(quantiles)),
            ]),
        ),
        (
            "staged_vs_scalar_burst",
            Json::obj(vec![
                ("burst", Json::str("32 reads, chain tail")),
                ("scalar_ns_per_burst", Json::F64(scalar_ns)),
                ("staged_ns_per_burst", Json::F64(staged_ns)),
                ("speedup", Json::F64(speedup)),
            ]),
        ),
    ]);
    let bench_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fabric.json");
    match std::fs::write(bench_path, summary.render() + "\n") {
        Ok(()) => println!("bench summary: {bench_path}"),
        Err(e) => eprintln!("bench summary not written ({bench_path}): {e}"),
    }

    if let Some(path) = artifact.write() {
        println!("artifact: {}", path.display());
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FabricScaleParams {
        FabricScaleParams {
            num_keys: 128,
            ops: 4_000,
        }
    }

    #[test]
    fn shard_sweep_produces_positive_throughput_per_point() {
        let series = throughput_vs_shards(small(), &[1, 2]);
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), 2);
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{s:?}");
        }
    }

    #[test]
    fn chain_sweep_covers_every_length() {
        let series = throughput_vs_chain_length(small(), 2, &[1, 3]);
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), 2);
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{s:?}");
        }
    }

    #[test]
    fn live_profile_records_latency_and_traces() {
        let report = live_profile(small(), 2);
        assert!(report.completed_ops > 0);
        assert_eq!(report.latency.count(), report.completed_ops);
        assert!(!report.traces.is_empty());
        let quantiles = report.latency.quantiles();
        assert!(quantiles.p999_ns >= quantiles.p50_ns);
    }

    #[test]
    fn staged_vs_scalar_comparison_times_both_paths() {
        let (scalar_ns, staged_ns) = staged_vs_scalar_burst(50, 2);
        assert!(scalar_ns > 0.0);
        assert!(staged_ns > 0.0);
    }

    #[test]
    fn baseline_comparison_produces_positive_measured_points() {
        let series = fabric_vs_baseline(small(), &[1, 2]);
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), 2);
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{s:?}");
        }
    }
}
