//! The in-process fabric: timed `run_live` repetitions, and the traced pass
//! that steps one burst at a time through each layer's public function.

use crate::spans::{SpanRef, Spans};
use crate::stats;
use crate::workload::{Rep, Workload};
use netchain_fabric::{
    build_shards, run_live, spsc_ring, ClientState, FabricConfig, FabricReport, Frame, Shard,
    ShardStats, WorkloadSpec,
};
use netchain_sim::SimTime;
use netchain_switch::stable_hash_batch;
use netchain_telemetry::{
    audit, key_fingerprint, Journal, LatencyHistogram, PacketTrace, TraceConfig, Violation,
};
use netchain_wire::{BatchEncoder, BatchView, Ipv4Addr, Key, OpCode, BATCH_WIDTH};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Keys every fabric workload draws from.
pub const NUM_KEYS: u64 = 4096;

/// One shard and one client: with the main thread asleep in `join`, that is
/// the two cores of the reference host.
pub fn config() -> FabricConfig {
    FabricConfig::new(1)
}

/// Operations per repetition (a tenth of it under `--quick`): about 50 ms of
/// work, some eight hundred windows. Short on purpose: the calm-host figures
/// need repetitions that fit between two disturbances of the host, and
/// hundreds of them.
pub fn ops_per_rep(workload: Workload, quick: bool) -> u64 {
    let full = match workload {
        Workload::FabricRead => 100_000,
        _ => 50_000,
    };
    if quick {
        full / 10
    } else {
        full
    }
}

/// The op mix of `workload` over the fabric's key space.
pub fn spec(workload: Workload, seed: u64, ops: u64) -> WorkloadSpec {
    let mix = match workload {
        Workload::FabricRead => WorkloadSpec::uniform_read(NUM_KEYS, ops),
        Workload::FabricWrite => WorkloadSpec::mixed(NUM_KEYS, ops, 50, 40),
        // The failover workload's mix, for its stepped pass.
        _ => WorkloadSpec::mixed(NUM_KEYS, ops, 50, 50),
    };
    WorkloadSpec { seed, ..mix }
}

/// In-band trace sampling of the traced live repetitions: 1 op in 64.
pub const TRACE: TraceConfig = TraceConfig {
    enabled: true,
    sample_shift: 6,
    max_traces: 4096,
};

/// Waves and frames per burst, off the shards' counters.
pub fn burst_shape(shards: &[ShardStats]) -> [(&'static str, f64); 2] {
    let sum = |f: fn(&ShardStats) -> u64| shards.iter().map(f).sum::<u64>() as f64;
    let bursts = sum(|s| s.bursts).max(1.0);
    [
        ("shard.waves_per_burst", sum(|s| s.waves) / bursts),
        ("shard.frames_per_burst", sum(|s| s.frames_in) / bursts),
    ]
}

/// One live run, timed from outside, and its report.
pub fn live(config: FabricConfig, spec: WorkloadSpec) -> (Rep, FabricReport) {
    let call = Instant::now();
    let report = run_live(config, spec);
    let wall = call.elapsed();
    let issued: u64 = report.clients.iter().map(|c| c.issued).sum();
    // `elapsed` starts once shards are built and populated and the rings
    // exist; the rest of the call is set-up (and joining the threads).
    let setup = wall.saturating_sub(report.elapsed);
    let mut rep = Rep::new(
        spec.seed,
        issued,
        report.completed_ops,
        report.elapsed,
        setup,
        report.latency.clone(),
    );
    rep.layer.extend(burst_shape(&report.shards));
    let regressions: u64 = report.clients.iter().map(|c| c.version_regressions).sum();
    rep.check(regressions == 0, || {
        format!("{regressions} version regressions")
    });
    rep.check(
        report.completed_ops == issued && issued == spec.ops_per_client,
        || {
            format!(
                "completed {} of {issued} issued, {} asked",
                report.completed_ops, spec.ops_per_client
            )
        },
    );
    for (i, s) in report.shards.iter().enumerate() {
        rep.check(
            s.drops == 0 && s.unroutable == 0 && s.parse_errors == 0,
            || {
                format!(
                    "shard {i}: {} drops, {} unroutable, {} parse errors",
                    s.drops, s.unroutable, s.parse_errors
                )
            },
        );
    }
    (rep, report)
}

/// One timed repetition of a fabric workload.
pub fn timed_rep(workload: Workload, seed: u64, quick: bool) -> Rep {
    live(config(), spec(workload, seed, ops_per_rep(workload, quick))).0
}

/// Median latency of the same path with one operation in flight: what a
/// hand-off between the two threads costs when nothing queues.
pub fn handoff_p50_ns(workload: Workload, seed: u64, quick: bool) -> (f64, Vec<String>) {
    let ops = if quick { 20_000 } else { 200_000 };
    let probe = WorkloadSpec {
        window: 1,
        ..spec(workload, seed, ops)
    };
    let (rep, _) = live(config(), probe);
    (
        stats::hist_quantile_ns(&rep.latency, 0.5).unwrap_or(0.0),
        rep.failures,
    )
}

/// The offline auditor's verdict on a run's traces, for a key space of
/// `num_keys` sequential keys.
pub struct Audit {
    /// Operations judged.
    pub checked: u64,
    /// Violations on keys the auditor can tell apart (must be 0).
    pub violations: u64,
    /// Violations on a fingerprint two keys share, which the auditor sees as
    /// one key with two version histories: not evidence of anything.
    pub ignored: u64,
    /// Keys of the key space that share their fingerprint with another.
    pub collided_keys: u64,
    /// Failed checks, worded for the output.
    pub failures: Vec<String>,
}

/// Fingerprints that more than one of the keys `0..num_keys` maps to. The
/// auditor identifies a key by the 32-bit xor-fold of its FNV hash, which
/// collides on a few of the sequential keys the workloads use (6 of 4096).
pub fn shared_fingerprints(num_keys: u64) -> (HashSet<u32>, u64) {
    let mut seen: HashMap<u32, u64> = HashMap::new();
    for k in 0..num_keys {
        *seen
            .entry(key_fingerprint(Key::from_u64(k).stable_hash()))
            .or_default() += 1;
    }
    let shared: HashSet<u32> = seen
        .iter()
        .filter(|(_, &n)| n > 1)
        .map(|(&fp, _)| fp)
        .collect();
    let keys = seen.values().filter(|&&n| n > 1).sum();
    (shared, keys)
}

/// Runs the offline auditor over `traces`; a violation on a shared
/// fingerprint is counted and set aside, any other fails the run.
pub fn audit_traces(traces: &[PacketTrace], num_keys: u64) -> Audit {
    let (shared, collided_keys) = shared_fingerprints(num_keys);
    let verdict = audit(traces, &Journal::default(), &Default::default());
    let (ignored, real): (Vec<&Violation>, Vec<&Violation>) = verdict
        .violations
        .iter()
        .partition(|v| shared.contains(&v.key_fp));
    let mut failures: Vec<String> = real
        .iter()
        .map(|v| format!("audit: {}", v.describe()))
        .collect();
    if verdict.checked == 0 {
        failures.push(format!(
            "audit judged nothing out of {} traces",
            verdict.traces
        ));
    }
    Audit {
        checked: verdict.checked as u64,
        violations: real.len() as u64,
        ignored: ignored.len() as u64,
        collided_keys,
        failures,
    }
}

impl Audit {
    /// The auditor's per-layer metrics.
    pub fn layer(&self) -> [(&'static str, f64); 4] {
        [
            ("telemetry.audited_ops", self.checked as f64),
            ("telemetry.audit_violations", self.violations as f64),
            ("telemetry.audit_ignored", self.ignored as f64),
            ("telemetry.audit_collided_keys", self.collided_keys as f64),
        ]
    }
}

/// The same live run with in-band tracing on: its throughput against the
/// untraced figure is what watching costs, and its traces go through the
/// offline auditor. Returns the run's ops/s and the verdict.
pub fn traced_live(workload: Workload, seed: u64, quick: bool) -> (f64, Audit) {
    let config = config().with_trace(TRACE);
    let (rep, report) = live(config, spec(workload, seed, ops_per_rep(workload, quick)));
    let mut verdict = audit_traces(&report.traces, NUM_KEYS);
    verdict.failures.extend(rep.failures.iter().cloned());
    (rep.ops_s(), verdict)
}

/// Re-measures the three stages `Shard::process_burst` runs before it
/// executes, on the frames of the burst it just processed, as children of
/// the burst's span: what is left of the burst is the execute stage.
pub fn remeasure_stages(
    shard: &Shard,
    frames: &[&[u8]],
    spans: &mut Spans,
    parent: SpanRef,
    burst: u64,
) {
    for chunk in frames.chunks(BATCH_WIDTH) {
        let n = chunk.len();
        let t = Instant::now();
        let view = BatchView::parse(chunk);
        spans.add("wire.parse", Some(parent), burst, n, t);
        let batch = view.batch();

        let mut hashes = [0u64; BATCH_WIDTH];
        let t = Instant::now();
        stable_hash_batch(batch.keys(), &mut hashes);
        std::hint::black_box(&hashes);
        spans.add("switch.hash", Some(parent), burst, n, t);

        // The shard probes its read lanes once per destination switch.
        let mut groups: Vec<(u32, Vec<Key>, Vec<u64>)> = Vec::new();
        for (i, &hash) in hashes.iter().enumerate().take(n) {
            let read = batch.is_netchain(i)
                && batch.op(i) == OpCode::Read.to_u8()
                && batch.value_len(i) == 0;
            if !read {
                continue;
            }
            let dst = batch.dst(i);
            let idx = match groups.iter().position(|g| g.0 == dst) {
                Some(idx) => idx,
                None => {
                    groups.push((dst, Vec::new(), Vec::new()));
                    groups.len() - 1
                }
            };
            groups[idx].1.push(batch.key(i));
            groups[idx].2.push(hash);
        }
        let mut out = Vec::with_capacity(n);
        let t = Instant::now();
        for (dst, keys, key_hashes) in &groups {
            if let Some(switch) = shard.switch(Ipv4Addr(dst.to_be_bytes())) {
                out.clear();
                switch.kv().probe_slots(keys, key_hashes, &mut out);
            }
        }
        std::hint::black_box(&out);
        spans.add("switch.probe", Some(parent), burst, n, t);
    }
}

/// Replays `spec`'s op stream on one thread, one window at a time, through
/// the calls the live client and shard loops make, in their order, with a
/// span around each phase. Stops at `deadline` or after the spec's ops.
/// Returns the ops completed and any failed check.
pub fn stepped_pass(
    spec: WorkloadSpec,
    deadline: Instant,
    spans: &mut Spans,
) -> (u64, Vec<String>) {
    let config = config();
    let ring = config.build_ring();
    let mut shard = build_shards(&config, &spec)
        .pop()
        .expect("one shard configured");
    let mut client = ClientState::new(0, &ring, spec);
    let (mut query_tx, mut query_rx) = spsc_ring::<Frame>(config.ring_capacity);
    let (mut reply_tx, mut reply_rx) = spsc_ring::<Frame>(config.ring_capacity);
    let origin = Instant::now();
    let now = || SimTime(origin.elapsed().as_nanos() as u64);

    let mut packets = Vec::with_capacity(spec.window);
    let mut frames: Vec<Frame> = Vec::with_capacity(spec.window);
    let mut popped: Vec<Frame> = Vec::with_capacity(config.burst);
    let mut replies = BatchEncoder::with_capacity(config.burst, 128);
    let mut burst = 0u64;
    while !client.is_done() && Instant::now() < deadline {
        burst += 1;
        // Client: fill the window, reading the clock per op as the live loop
        // does.
        let t = Instant::now();
        while client.can_issue() {
            packets.push(client.issue_at(now()));
        }
        spans.add("loadgen.issue", None, burst, packets.len(), t);

        let t = Instant::now();
        for pkt in &packets {
            frames.push(Frame::from_packet(pkt).expect("queries fit in a frame"));
        }
        spans.add("wire.encode", None, burst, frames.len(), t);
        packets.clear();

        let t = Instant::now();
        let pushed = frames.len();
        for frame in frames.drain(..) {
            query_tx.push(frame).expect("the ring holds a full window");
        }
        spans.add("ring.query_push", None, burst, pushed, t);

        // Shard: pull bursts until the ring is dry.
        loop {
            popped.clear();
            let t = Instant::now();
            let got = query_rx.pop_batch(&mut popped, config.burst);
            if got == 0 {
                break;
            }
            spans.add("ring.query_pop", None, burst, got, t);

            replies.clear();
            let t = Instant::now();
            shard.process_burst(popped.iter().map(|f| f.as_bytes()), &mut replies);
            let parent = spans.add("shard.burst", None, burst, got, t);
            let raw: Vec<&[u8]> = popped.iter().map(|f| f.as_bytes()).collect();
            remeasure_stages(&shard, &raw, spans, parent, burst);

            let t = Instant::now();
            for bytes in replies.frames() {
                frames.push(Frame::from_bytes(bytes).expect("replies fit in a frame"));
            }
            spans.add("wire.reply_copy", None, burst, frames.len(), t);

            let t = Instant::now();
            let pushed = frames.len();
            for frame in frames.drain(..) {
                reply_tx.push(frame).expect("the ring holds a full window");
            }
            spans.add("ring.reply_push", None, burst, pushed, t);
        }

        // Client: drain replies, one clock read per batch as the live loop.
        loop {
            popped.clear();
            let t = Instant::now();
            let got = reply_rx.pop_batch(&mut popped, config.burst);
            if got == 0 {
                break;
            }
            spans.add("ring.reply_pop", None, burst, got, t);
            let t = Instant::now();
            let at = now();
            for frame in &popped {
                client.absorb_reply_at(at, frame.as_bytes());
            }
            spans.add("loadgen.absorb", None, burst, got, t);
        }
    }
    let report = client.report();
    let stats = *shard.stats();
    let mut failures = Vec::new();
    if report.version_regressions != 0 || report.completed != report.issued {
        failures.push(format!(
            "stepped pass: {} of {} completed, {} version regressions",
            report.completed, report.issued, report.version_regressions
        ));
    }
    if stats.drops != 0 || stats.unroutable != 0 || stats.parse_errors != 0 {
        failures.push(format!("stepped pass: shard counters {stats:?}"));
    }
    (report.completed, failures)
}

/// Cost of recording one latency sample, in nanoseconds.
pub fn hist_record_ns() -> f64 {
    const N: u64 = 2_000_000;
    let mut hist = LatencyHistogram::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let start = Instant::now();
    for _ in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        hist.record(x >> 40);
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(hist.count());
    ns / N as f64
}

/// The fabric's layer ledger out of a stepped pass and the live figures of
/// the same invocation: per-thread sums, the bottleneck, what no layer
/// accounts for, and the latency the throughput implies.
pub fn ledger(
    spans: &Spans,
    live_ops_s: f64,
    live_p50_us: f64,
    window: usize,
) -> Vec<(&'static str, f64)> {
    let ns = |name: &str| spans.ns_per_op(name);
    let burst = spans.total("shard.burst");
    let ring =
        ns("ring.query_push") + ns("ring.query_pop") + ns("ring.reply_push") + ns("ring.reply_pop");
    let client = ns("loadgen.issue")
        + ns("wire.encode")
        + ns("ring.query_push")
        + ns("ring.reply_pop")
        + ns("loadgen.absorb");
    let shard =
        ns("ring.query_pop") + ns("shard.burst") + ns("wire.reply_copy") + ns("ring.reply_push");
    let live_ns = 1e9 / live_ops_s.max(1e-9);
    vec![
        ("loadgen.issue_ns", ns("loadgen.issue")),
        ("loadgen.absorb_ns", ns("loadgen.absorb")),
        ("wire.encode_ns", ns("wire.encode")),
        ("wire.reply_copy_ns", ns("wire.reply_copy")),
        ("wire.parse_ns", ns("wire.parse")),
        ("ring.push_pop_ns", ring),
        ("switch.hash_ns", ns("switch.hash")),
        ("switch.probe_ns", ns("switch.probe")),
        ("shard.burst_ns", ns("shard.burst")),
        ("shard.execute_ns", burst.self_ns_per_op()),
        ("ledger.client_ns", client),
        ("ledger.shard_ns", shard),
        ("ledger.live_ns", live_ns),
        (
            "ledger.shard_is_bottleneck",
            f64::from(u8::from(shard > client)),
        ),
        (
            "ledger.unattributed_share",
            1.0 - client.max(shard) / live_ns,
        ),
        (
            "ledger.little_p50_us",
            window as f64 / live_ops_s.max(1e-9) * 1e6,
        ),
        ("ledger.live_p50_us", live_p50_us),
    ]
}
