//! Throughput benchmarks for the multi-core software switch fabric.
//!
//! Two layers are measured:
//!
//! * Criterion micro-benchmarks of the fabric's fast paths: zero-copy
//!   ([`PacketView`]) vs owned parsing, and whole-burst processing through a
//!   shard (parse → chain waves → batch-encoded replies).
//! * A scaling report (printed after the micro-benchmarks): aggregate ops/sec
//!   from [`run_capacity`] — each shard's partition timed run-to-completion,
//!   aggregated under the one-core-per-shard deployment model — versus worker
//!   shard count and versus chain length. This is the acceptance measurement:
//!   4 shards must deliver ≥2× the 1-shard aggregate on the uniform-read
//!   workload.

use criterion::{black_box, criterion_group, Criterion};
use netchain_fabric::{build_shards, run_capacity, FabricConfig, Shard, WorkloadSpec};
use netchain_switch::{stable_hash_batch, PipelineConfig, SwitchKvStore};
use netchain_telemetry::TraceConfig;
use netchain_wire::{
    BatchEncoder, BatchView, ChainList, Ipv4Addr, Key, NetChainPacket, OpCode, PacketView, Value,
    BATCH_WIDTH,
};

fn read_query_bytes(key: u64) -> Vec<u8> {
    NetChainPacket::query(
        Ipv4Addr::for_host(0),
        40_000,
        Ipv4Addr::for_switch(0),
        OpCode::Read,
        Key::from_u64(key),
        Value::empty(),
        ChainList::empty(),
        key,
    )
    .to_bytes()
}

fn write_query_bytes(key: u64, ring: &netchain_core::HashRing) -> Vec<u8> {
    let k = Key::from_u64(key);
    let chain = ring.chain_for_key(&k);
    NetChainPacket::query(
        Ipv4Addr::for_host(0),
        40_000,
        chain.head(),
        OpCode::Write,
        k,
        Value::from_u64(key),
        ChainList::new(chain.switches[1..].to_vec()).unwrap(),
        key,
    )
    .to_bytes()
}

/// A CAS on `key` through its chain head, expecting what the key was
/// populated with.
fn cas_query_bytes(key: u64, ring: &netchain_core::HashRing) -> Vec<u8> {
    let mut pkt = NetChainPacket::from_bytes(&write_query_bytes(key, ring)).unwrap();
    pkt.netchain.op = OpCode::Cas;
    pkt.netchain.value = netchain_switch::cas_value(0, 0);
    pkt.fix_lengths();
    pkt.to_bytes()
}

fn bench_parse(c: &mut Criterion) {
    let bytes = read_query_bytes(42);
    c.bench_function("fabric/parse_owned", |b| {
        b.iter(|| NetChainPacket::from_bytes(black_box(&bytes)).unwrap())
    });
    c.bench_function("fabric/parse_view", |b| {
        b.iter(|| PacketView::parse(black_box(&bytes)).unwrap())
    });
    // The write-path arena: converting a parsed view into an owned packet,
    // fresh allocation vs refilling a pooled packet in place. The pooled
    // variant is what `Shard::process_burst` does — zero allocations in
    // steady state even for writes.
    let ring = FabricConfig::new(1).build_ring();
    let write_bytes = write_query_bytes(7, &ring);
    c.bench_function("fabric/write_to_owned_fresh", |b| {
        b.iter(|| {
            let view = PacketView::parse(black_box(&write_bytes)).unwrap();
            black_box(view.to_owned())
        })
    });
    c.bench_function("fabric/write_to_owned_pooled", |b| {
        let mut pooled = PacketView::parse(&write_bytes).unwrap().to_owned();
        b.iter(|| {
            let view = PacketView::parse(black_box(&write_bytes)).unwrap();
            view.to_owned_into(&mut pooled);
            black_box(&pooled);
        })
    });
}

/// One single-shard fabric plus a 32-read burst addressed to each key's
/// chain tail, like the loadgen produces — the shared fixture for the burst
/// and staged-vs-scalar benches.
fn burst_fixture() -> (Vec<Shard>, Vec<Vec<u8>>) {
    let config = FabricConfig::new(1);
    let workload = WorkloadSpec::uniform_read(1024, 0);
    let shards = build_shards(&config, &workload);
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
    (shards, frames)
}

fn bench_burst(c: &mut Criterion) {
    let config = FabricConfig::new(1);
    let workload = WorkloadSpec::uniform_read(1024, 0);
    let ring = config.build_ring();
    let (mut shards, frames) = burst_fixture();
    let mut replies = BatchEncoder::with_capacity(config.burst, 128);
    c.bench_function("fabric/shard_burst_32_reads", |b| {
        b.iter(|| {
            replies.clear();
            shards[0].process_burst(frames.iter().map(|f| f.as_slice()), &mut replies);
            black_box(replies.len())
        })
    });
    // The write path end to end (parse → chain waves across 3 switches →
    // batch-encoded replies), exercising the packet pool: after the first
    // burst, the parse path recycles packet buffers instead of allocating.
    let write_frames: Vec<Vec<u8>> = (0..config.burst as u64)
        .map(|i| write_query_bytes(i % workload.num_keys, &ring))
        .collect();
    c.bench_function("fabric/shard_burst_32_writes", |b| {
        b.iter(|| {
            replies.clear();
            shards[0].process_burst(write_frames.iter().map(|f| f.as_slice()), &mut replies);
            black_box(replies.len())
        })
    });
}

/// The telemetry guard at micro-benchmark granularity: the same 32-read
/// burst with the tracer absent (the default fast path — must match
/// `shard_burst_32_reads`) and with 1-in-256 trace sampling enabled.
fn bench_burst_tracing(c: &mut Criterion) {
    let config = FabricConfig::new(1);
    let workload = WorkloadSpec::uniform_read(1024, 0);
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
    let mut replies = BatchEncoder::with_capacity(config.burst, 128);
    let mut untraced = build_shards(&config, &workload);
    c.bench_function("fabric/shard_burst_32_reads_trace_off", |b| {
        b.iter(|| {
            replies.clear();
            untraced[0].process_burst(frames.iter().map(|f| f.as_slice()), &mut replies);
            black_box(replies.len())
        })
    });
    let mut traced = build_shards(&config, &workload);
    traced[0].enable_tracing(TraceConfig::sampled(8, 1024), std::time::Instant::now());
    c.bench_function("fabric/shard_burst_32_reads_trace_on", |b| {
        b.iter(|| {
            replies.clear();
            traced[0].process_burst(frames.iter().map(|f| f.as_slice()), &mut replies);
            black_box(replies.len());
            // Keep the sink bounded across criterion's many iterations.
            black_box(traced[0].take_traces());
        })
    });
}

/// Per-stage micro-benchmarks of the staged hot path, each against its
/// scalar counterpart: batch validate+parse versus per-frame [`PacketView`],
/// lane-major batch key hashing versus the scalar FNV loop, and the hashed
/// open-addressed index probe.
fn bench_staged_stages(c: &mut Criterion) {
    let frames: Vec<Vec<u8>> = (0..BATCH_WIDTH as u64).map(read_query_bytes).collect();
    let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();

    c.bench_function("fabric/parse_batch_32", |b| {
        b.iter(|| {
            let bv = BatchView::parse(black_box(&refs));
            black_box(bv.batch().invalid_count())
        })
    });
    c.bench_function("fabric/parse_scalar_32", |b| {
        b.iter(|| {
            let mut bad = 0usize;
            for f in black_box(&refs) {
                if PacketView::parse(f).is_err() {
                    bad += 1;
                }
            }
            black_box(bad)
        })
    });

    let batch = BatchView::parse(&refs);
    let keys: Vec<Key> = (0..BATCH_WIDTH).map(|i| batch.batch().key(i)).collect();
    let mut hashes = [0u64; BATCH_WIDTH];
    c.bench_function("fabric/hash_batch_32", |b| {
        b.iter(|| {
            stable_hash_batch(black_box(batch.batch().keys()), &mut hashes);
            black_box(hashes[0])
        })
    });
    c.bench_function("fabric/hash_scalar_32", |b| {
        b.iter(|| {
            for (i, k) in black_box(&keys).iter().enumerate() {
                hashes[i] = k.stable_hash();
            }
            black_box(hashes[0])
        })
    });

    // The hashed probe prepass over a store holding every benched key.
    let mut kv = SwitchKvStore::new(PipelineConfig::default());
    for k in &keys {
        kv.insert(*k, &Value::from_u64(7)).unwrap();
    }
    stable_hash_batch(batch.batch().keys(), &mut hashes);
    let mut slots = Vec::with_capacity(BATCH_WIDTH);
    c.bench_function("fabric/probe_batch_32", |b| {
        b.iter(|| {
            slots.clear();
            kv.probe_slots(black_box(&keys), &hashes, &mut slots);
            black_box(slots.len())
        })
    });
}

/// The headline comparison the staged refactor is accepted on: the same
/// 32-read burst through the staged `process_burst` and through the retained
/// scalar reference path.
fn bench_staged_vs_scalar(c: &mut Criterion) {
    let (mut shards, frames) = burst_fixture();
    let mut replies = BatchEncoder::with_capacity(frames.len(), 128);
    c.bench_function("fabric/staged_vs_scalar_burst/staged_32_reads", |b| {
        b.iter(|| {
            replies.clear();
            shards[0].process_burst(frames.iter().map(|f| f.as_slice()), &mut replies);
            black_box(replies.len())
        })
    });
    c.bench_function("fabric/staged_vs_scalar_burst/scalar_32_reads", |b| {
        b.iter(|| {
            replies.clear();
            shards[0].process_burst_scalar(frames.iter().map(|f| f.as_slice()), &mut replies);
            black_box(replies.len())
        })
    });
}

criterion_group!(
    benches,
    bench_parse,
    bench_burst,
    bench_burst_tracing,
    bench_staged_stages,
    bench_staged_vs_scalar
);

/// The acceptance measurement: aggregate ops/sec vs worker shard count on the
/// uniform-read workload, and vs chain length at 4 shards.
fn scaling_report() {
    const OPS: u64 = 200_000;
    const KEYS: u64 = 1024;

    println!("\nfabric scaling: aggregate throughput vs worker shards");
    println!("(uniform-read, {KEYS} keys, {OPS} ops, one-core-per-shard capacity model)");
    let mut one_shard = 0.0f64;
    let mut four_shards = 0.0f64;
    for shards in [1usize, 2, 4, 8] {
        let report = run_capacity(
            FabricConfig::new(shards),
            WorkloadSpec::uniform_read(KEYS, OPS),
        );
        assert_eq!(report.total_ops, OPS);
        assert_eq!(report.replies, OPS);
        println!(
            "  shards={shards}  {:>12.0} ops/sec  (slowest shard {:>10.0} ops/sec busy)",
            report.aggregate_ops_per_sec,
            report
                .per_shard_ops_per_sec
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min),
        );
        match shards {
            1 => one_shard = report.aggregate_ops_per_sec,
            4 => four_shards = report.aggregate_ops_per_sec,
            _ => {}
        }
    }
    let speedup = four_shards / one_shard;
    println!("  4-shard vs 1-shard speedup: {speedup:.2}x (acceptance: >= 2x)");
    assert!(
        speedup >= 2.0,
        "fabric does not scale: 4 shards gave only {speedup:.2}x over 1"
    );

    println!("\nfabric throughput vs chain length (4 shards, 50% writes)");
    for replication in [1usize, 2, 3, 4, 5] {
        let config = FabricConfig::new(4).with_replication(replication);
        let report = run_capacity(config, WorkloadSpec::mixed(KEYS, OPS, 50, 50));
        println!(
            "  chain={replication}  {:>12.0} ops/sec",
            report.aggregate_ops_per_sec
        );
    }
    println!();
}

/// Nanoseconds per burst of `frames` through the staged or the scalar path:
/// a plain monotonic clock, minimum over several repeats, so scheduler noise
/// only ever slows a sample down, never speeds it up.
fn time_burst(shard: &mut Shard, frames: &[Vec<u8>], staged: bool, smoke: bool) -> f64 {
    let mut replies = BatchEncoder::with_capacity(frames.len(), 128);
    let iters: u32 = if smoke { 3_000 } else { 20_000 };
    let repeats = if smoke { 3 } else { 5 };
    let mut best = f64::INFINITY;
    // The first repeat is the warm-up (fills the packet pool, faults the
    // code in) and is not kept.
    for repeat in 0..=repeats {
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            replies.clear();
            let burst = frames.iter().map(|f| f.as_slice());
            if staged {
                shard.process_burst(burst, &mut replies);
            } else {
                shard.process_burst_scalar(burst, &mut replies);
            }
            black_box(replies.len());
        }
        if repeat > 0 {
            best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
        }
    }
    best
}

/// Measured hot-path acceptance, run by CI in smoke mode
/// (`NETCHAIN_BENCH_SMOKE=1`). Two bursts of 32 through the staged and the
/// scalar path: reads, where the staged pipeline must keep its speedup
/// (≥1.3x, ≥1.0x in smoke mode), and the 50/40/10 read/write/CAS mix, where
/// half the operations walk a three-switch chain — a mixed operation is two
/// hops on average and must not cost more than 1.6 owned-path reads (it
/// measures 1.3; it was 1.95 while a write hop re-hashed the key and wrote
/// every value stage), so a regression of the mutation hop fails here
/// whatever the machine's speed.
fn staged_report(smoke: bool) {
    let (mut shards, reads) = burst_fixture();
    let ring = FabricConfig::new(1).build_ring();
    let mixed: Vec<Vec<u8>> = (0..reads.len() as u64)
        .map(|i| match i % 10 {
            0..=4 => reads[i as usize].clone(),
            9 => cas_query_bytes(i, &ring),
            _ => write_query_bytes(i, &ring),
        })
        .collect();
    let shard = &mut shards[0];
    let per_op = reads.len() as f64;
    let mut report = |name: &str, frames: &[Vec<u8>]| {
        let scalar_ns = time_burst(shard, frames, false, smoke);
        let staged_ns = time_burst(shard, frames, true, smoke);
        println!("\nstaged vs scalar, 32-{name} burst");
        println!(
            "  scalar: {scalar_ns:>8.0} ns/burst  ({:.1} ns/op)",
            scalar_ns / per_op
        );
        println!(
            "  staged: {staged_ns:>8.0} ns/burst  ({:.1} ns/op)",
            staged_ns / per_op
        );
        println!("  speedup: {:.2}x", scalar_ns / staged_ns);
        (scalar_ns, staged_ns)
    };
    let (read_scalar, read_staged) = report("read", &reads);
    let (mixed_scalar, mixed_staged) = report("50/40/10", &mixed);

    let floor = if smoke { 1.0 } else { 1.3 };
    let speedup = read_scalar / read_staged;
    assert!(
        speedup >= floor,
        "staged read path regressed: {speedup:.2}x (floor {floor}x)"
    );
    assert!(
        mixed_staged <= mixed_scalar * 1.05,
        "staged path slower than scalar on the write mix: {mixed_staged:.0} vs {mixed_scalar:.0} ns"
    );
    let hops = mixed_staged / read_scalar;
    println!("  a mixed operation costs {hops:.2} scalar reads");
    assert!(
        hops <= 1.6,
        "mutation path regressed: a mixed operation costs {hops:.2} scalar reads (ceiling 1.6)"
    );
}

fn main() {
    if std::env::var("NETCHAIN_BENCH_SMOKE").as_deref() == Ok("1") {
        // CI smoke: skip criterion and the scaling sweep, just guard the
        // staged hot path against regressing below the scalar reference.
        staged_report(true);
        return;
    }
    benches();
    scaling_report();
    staged_report(false);
}
