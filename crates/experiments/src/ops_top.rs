//! `ops_top`: a live text dashboard over the running dataplane.
//!
//! Two backends, matching the two real execution modes:
//!
//! * **net** — starts the socket dataplane plus a background open-loop
//!   generator, then polls every hosted switch replica with in-band
//!   [`netchain_wire::OpCode::Stat`] probes: ordinary UDP packets through
//!   the same worker sockets as data traffic. Each row diffs consecutive
//!   [`StatSnapshot`]s into rates and renders the coarse latency buckets as
//!   a sparkline.
//! * **fabric** — runs the live-controlled fabric via
//!   [`netchain_livectl::run_live_observed`], samples each shard's
//!   [`ShardStats`] through its [`ShardStatsCell`] every tick and diffs
//!   consecutive samples exactly as the net backend does: ops/s, frames per
//!   burst and blocked queries over the interval, and a sparkline of the
//!   shard's recent ops — the counters the gray-failure detector judges.
//!
//! The rendering helpers are plain functions over snapshots and deltas so
//! they are unit-testable without sockets or threads; `--once`/`--ticks N`
//! bound the dashboard for CI smoke use.

use netchain_core::{HashRing, WorkloadSpec};
use netchain_fabric::{FabricConfig, ShardStats, ShardStatsCell};
use netchain_livectl::{run_live_observed, LiveConfig};
use netchain_net::{run_open_loop, NetConfig, NetDataplane, OpenLoopConfig};
use netchain_switch::PipelineConfig;
use netchain_telemetry::Json;
use netchain_wire::{
    ChainList, Ipv4Addr, Key, NetChainPacket, OpCode, StatSnapshot, Value, MAX_FRAME_LEN,
    STAT_LAT_BUCKETS,
};
use std::collections::VecDeque;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Eight-level block sparkline of `values`, scaled to their maximum. All-zero
/// input renders as a flat baseline.
pub fn sparkline(values: &[u64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 {
                BLOCKS[0]
            } else {
                BLOCKS[(v as u128 * 7 / max as u128) as usize]
            }
        })
        .collect()
}

/// The change between two consecutive probe snapshots of the same switch:
/// counters and latency buckets are saturating differences, gauges
/// (occupancy, queue) are taken from the newer snapshot.
pub fn stat_delta(prev: &StatSnapshot, cur: &StatSnapshot) -> StatSnapshot {
    let mut lat_buckets = [0u32; STAT_LAT_BUCKETS];
    for (d, (&c, &p)) in lat_buckets
        .iter_mut()
        .zip(cur.lat_buckets.iter().zip(&prev.lat_buckets))
    {
        *d = c.saturating_sub(p);
    }
    StatSnapshot {
        reads: cur.reads.saturating_sub(prev.reads),
        writes: cur.writes.saturating_sub(prev.writes),
        cas_ops: cur.cas_ops.saturating_sub(prev.cas_ops),
        deletes: cur.deletes.saturating_sub(prev.deletes),
        replies: cur.replies.saturating_sub(prev.replies),
        chain_forwards: cur.chain_forwards.saturating_sub(prev.chain_forwards),
        stale_drops: cur.stale_drops.saturating_sub(prev.stale_drops),
        misses: cur.misses.saturating_sub(prev.misses),
        blocked: cur.blocked.saturating_sub(prev.blocked),
        packets_seen: cur.packets_seen.saturating_sub(prev.packets_seen),
        store_size: cur.store_size,
        free_slots: cur.free_slots,
        queue_depth: cur.queue_depth,
        queue_cap: cur.queue_cap,
        lat_buckets,
    }
}

/// One dashboard row for a probed switch replica: rates from the snapshot
/// delta over `interval`, live queue gauge, and the latency-bucket
/// sparkline.
pub fn net_row(label: &str, delta: &StatSnapshot, interval: Duration) -> String {
    let secs = interval.as_secs_f64().max(1e-9);
    let lat: Vec<u64> = delta.lat_buckets.iter().map(|&b| u64::from(b)).collect();
    format!(
        "{label:<14} {:>9.0} ops/s {:>9.0} fwd/s {:>7.0} rep/s  q {:>4}/{:<4}  keys {:>6}  lat {}",
        delta.ops() as f64 / secs,
        delta.chain_forwards as f64 / secs,
        delta.replies as f64 / secs,
        delta.queue_depth,
        delta.queue_cap,
        delta.store_size,
        sparkline(&lat),
    )
}

/// The same probed-switch row as [`net_row`], as a machine-readable JSON
/// object (`--json` mode): rates, gauges, and the raw latency-bucket deltas.
pub fn net_row_json(label: &str, delta: &StatSnapshot, interval: Duration) -> Json {
    let secs = interval.as_secs_f64().max(1e-9);
    Json::obj(vec![
        ("target", Json::str(label)),
        ("ops_per_sec", Json::F64(delta.ops() as f64 / secs)),
        (
            "forwards_per_sec",
            Json::F64(delta.chain_forwards as f64 / secs),
        ),
        ("replies_per_sec", Json::F64(delta.replies as f64 / secs)),
        ("queue_depth", Json::U64(u64::from(delta.queue_depth))),
        ("queue_cap", Json::U64(u64::from(delta.queue_cap))),
        ("store_size", Json::U64(u64::from(delta.store_size))),
        (
            "lat_buckets",
            Json::Arr(
                delta
                    .lat_buckets
                    .iter()
                    .map(|&b| Json::U64(u64::from(b)))
                    .collect(),
            ),
        ),
    ])
}

/// Frames a shard took per burst over a sample delta (0 when it ran none):
/// how full its ingress rings were when it pulled.
fn frames_per_burst(delta: &ShardStats) -> f64 {
    delta.frames_in as f64 / delta.bursts.max(1) as f64
}

/// One dashboard row for a fabric shard: rates from the sample delta over
/// `interval`, and a sparkline of its ops in the recent intervals (oldest
/// first, last in the row as in [`net_row`]).
pub fn fabric_row(shard: usize, delta: &ShardStats, recent: &[u64], interval: Duration) -> String {
    let secs = interval.as_secs_f64().max(1e-9);
    format!(
        "shard {shard:<3} {:>9.0} ops/s  frames/burst {:>5.1}  blocked {:>5}  ops {}",
        delta.replies as f64 / secs,
        frames_per_burst(delta),
        delta.blocked,
        sparkline(recent),
    )
}

/// The same shard row as [`fabric_row`] in JSON.
pub fn fabric_row_json(
    shard: usize,
    delta: &ShardStats,
    recent: &[u64],
    interval: Duration,
) -> Json {
    let secs = interval.as_secs_f64().max(1e-9);
    Json::obj(vec![
        ("shard", Json::U64(shard as u64)),
        (
            "recent_ops",
            Json::Arr(recent.iter().map(|&n| Json::U64(n)).collect()),
        ),
        ("ops_per_sec", Json::F64(delta.replies as f64 / secs)),
        ("frames_per_burst", Json::F64(frames_per_burst(delta))),
        ("blocked", Json::U64(delta.blocked)),
    ])
}

/// Sends one in-band stat probe for `target` through the worker socket at
/// `addr` and decodes the reply, retrying inside a small budget.
fn probe(
    socket: &UdpSocket,
    addr: std::net::SocketAddr,
    prober_ip: Ipv4Addr,
    target: Ipv4Addr,
    request_id: &mut u64,
) -> Option<StatSnapshot> {
    let mut buf = [0u8; MAX_FRAME_LEN + 1];
    for _ in 0..5 {
        *request_id += 1;
        let pkt = NetChainPacket::query(
            prober_ip,
            40_000,
            target,
            OpCode::Stat,
            Key::from_u64(0),
            Value::empty(),
            ChainList::new(vec![]).ok()?,
            *request_id,
        );
        if socket.send_to(&pkt.to_bytes(), addr).is_err() {
            continue;
        }
        while let Ok((len, _)) = socket.recv_from(&mut buf) {
            let Ok(reply) = NetChainPacket::from_bytes(&buf[..len]) else {
                continue;
            };
            if reply.netchain.op == OpCode::StatReply && reply.netchain.request_id == *request_id {
                return StatSnapshot::decode(reply.netchain.value.as_bytes()).ok();
            }
        }
    }
    None
}

fn clear_screen(enabled: bool) {
    if enabled {
        print!("\x1b[2J\x1b[H");
    }
}

/// The net-mode dashboard: a 2-shard socket dataplane under open-loop load,
/// probed in band every `interval` for `ticks` refreshes. With `json`, each
/// tick prints one machine-readable JSON object instead of the text rows.
pub fn run_net(ticks: usize, interval: Duration, clear: bool, json: bool) {
    const SWITCHES: u32 = 4;
    const NUM_KEYS: u64 = 512;
    let ring = HashRing::new((0..SWITCHES).map(Ipv4Addr::for_switch).collect(), 8, 3, 7);
    let populate: Vec<(Key, Value)> = (0..NUM_KEYS)
        .map(|k| (Key::from_u64(k), Value::from_u64(0)))
        .collect();
    let config = NetConfig::new(ring, 2, PipelineConfig::tiny(1 << 16));
    let plane = NetDataplane::start(config, &populate).expect("start dataplane");

    let spec = WorkloadSpec::mixed(NUM_KEYS, u64::MAX, 80, 15);
    let duration = interval * (ticks as u32 + 2);
    let mut open_config = OpenLoopConfig::new(64, 2, 20_000.0, duration);
    open_config.drain_grace = Duration::from_secs(1);

    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind prober");
    socket
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    // Outside the generator's agent range (hosts 0..64): probe replies must
    // not be mistaken for data replies or vice versa.
    let prober_ip = Ipv4Addr::for_host(60_000);
    plane.register_client(prober_ip, socket.local_addr().expect("addr"));

    let shard_addrs = plane.shard_addrs();
    let mut request_id = 0u64;
    let mut prev: Vec<Vec<Option<StatSnapshot>>> =
        vec![vec![None; SWITCHES as usize]; shard_addrs.len()];

    let open = std::thread::scope(|scope| {
        let generator = scope.spawn(|| run_open_loop(&plane, spec, open_config));
        for tick in 0..ticks {
            std::thread::sleep(interval);
            let mut rows = Vec::new();
            let mut json_rows = Vec::new();
            for (s, &addr) in shard_addrs.iter().enumerate() {
                for sw in 0..SWITCHES {
                    let target = Ipv4Addr::for_switch(sw);
                    let label = format!("shard{s}/{target}");
                    let Some(snap) = probe(&socket, addr, prober_ip, target, &mut request_id)
                    else {
                        rows.push(format!("{label}   (no probe reply)"));
                        json_rows.push(Json::obj(vec![
                            ("target", Json::str(&label)),
                            ("probe_lost", Json::Bool(true)),
                        ]));
                        continue;
                    };
                    let delta = match &prev[s][sw as usize] {
                        Some(p) => stat_delta(p, &snap),
                        None => snap,
                    };
                    rows.push(net_row(&label, &delta, interval));
                    json_rows.push(net_row_json(&label, &delta, interval));
                    prev[s][sw as usize] = Some(snap);
                }
            }
            if json {
                println!(
                    "{}",
                    Json::obj(vec![
                        ("backend", Json::str("net")),
                        ("tick", Json::U64(tick as u64 + 1)),
                        ("interval_ms", Json::U64(interval.as_millis() as u64)),
                        ("rows", Json::Arr(json_rows)),
                    ])
                    .render()
                );
                continue;
            }
            clear_screen(clear);
            println!(
                "ops_top (net) — tick {}/{} — in-band stat probes every {:?}",
                tick + 1,
                ticks,
                interval
            );
            for row in rows {
                println!("{row}");
            }
            println!();
        }
        generator.join().expect("generator panicked")
    });
    let report = plane.shutdown();
    // In JSON mode stdout carries only JSON documents; the run summary goes
    // to stderr so pipelines can parse the output unfiltered.
    let summary = format!(
        "generator: offered {:.0} ops/s, achieved {:.0}; dataplane in/out {}/{} datagrams",
        open.offered_rate,
        open.achieved_rate,
        report.io.iter().map(|io| io.datagrams_in).sum::<u64>(),
        report.io.iter().map(|io| io.datagrams_out).sum::<u64>(),
    );
    if json {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
}

/// The fabric-mode dashboard: a live-controlled fabric run whose shards'
/// counters are sampled every `interval`, each sample diffed against the
/// previous one. With `json`, each tick prints one machine-readable JSON
/// object instead of the text rows.
pub fn run_fabric(ticks: usize, interval: Duration, clear: bool, json: bool) {
    const SHARDS: usize = 2;
    const SPARK_TICKS: usize = 24;
    let fabric = FabricConfig {
        num_switches: 4,
        vnodes_per_switch: 8,
        ring_capacity: 256,
        ..FabricConfig::new(SHARDS)
    };
    let workload = WorkloadSpec::mixed(512, 0, 60, 30);
    let mut config = LiveConfig::new(fabric, workload, interval * (ticks as u32 + 1));
    config.retry_timeout = Duration::from_millis(200);
    let cells: Arc<[ShardStatsCell]> = (0..SHARDS).map(|_| ShardStatsCell::default()).collect();
    let mut last = [ShardStats::default(); SHARDS];
    let mut recent = vec![VecDeque::with_capacity(SPARK_TICKS); SHARDS];
    let mut sampled_at = Instant::now();
    let runner = {
        let cells = Arc::clone(&cells);
        std::thread::spawn(move || run_live_observed(config, cells))
    };

    for tick in 0..ticks {
        std::thread::sleep(interval);
        // The rates are over the time between this reader's own samples.
        let since = std::mem::replace(&mut sampled_at, Instant::now()).elapsed();
        let mut rows = Vec::new();
        let mut json_rows = Vec::new();
        for (s, cell) in cells.iter().enumerate() {
            let delta = cell.since_last(&mut last[s]);
            let ops = &mut recent[s];
            if ops.len() == SPARK_TICKS {
                ops.pop_front();
            }
            ops.push_back(delta.replies);
            let ops = ops.make_contiguous();
            rows.push(fabric_row(s, &delta, ops, since));
            json_rows.push(fabric_row_json(s, &delta, ops, since));
        }
        if json {
            println!(
                "{}",
                Json::obj(vec![
                    ("backend", Json::str("fabric")),
                    ("tick", Json::U64(tick as u64 + 1)),
                    ("interval_ms", Json::U64(since.as_millis() as u64)),
                    ("rows", Json::Arr(json_rows)),
                ])
                .render()
            );
            continue;
        }
        clear_screen(clear);
        println!(
            "ops_top (fabric) — tick {}/{} — shard counters sampled every {:?}",
            tick + 1,
            ticks,
            interval
        );
        for row in rows {
            println!("{row}");
        }
        println!();
    }
    let report = runner.join().expect("live run panicked");
    let summary = format!(
        "run: {} ops at {:.0} ops/s, {} anomalies",
        report.completed_ops,
        report.ops_per_sec,
        report.anomalies.len(),
    );
    if json {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
}

/// CLI entry: `ops_top [--net|--fabric] [--once | --ticks N]
/// [--interval-ms N] [--no-clear] [--json]`.
///
/// `--json` implies a single tick unless `--ticks` is given, never clears
/// the screen, and prints one JSON document per tick on stdout (the run
/// summary moves to stderr) — the machine-readable one-shot mode.
pub fn run_cli(args: &[String]) -> i32 {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value = |flag: &str| crate::cli::flag_value(args, flag).and_then(|v| v.parse::<u64>().ok());
    let json = has("--json");
    let ticks = if has("--once") || (json && value("--ticks").is_none()) {
        1
    } else {
        value("--ticks").unwrap_or(10) as usize
    };
    let interval = Duration::from_millis(value("--interval-ms").unwrap_or(500));
    let clear = !has("--no-clear") && !has("--once") && !json;
    if has("--fabric") {
        run_fabric(ticks, interval, clear, json);
    } else {
        run_net(ticks, interval, clear, json);
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_the_maximum() {
        assert_eq!(sparkline(&[0, 5, 10]), "▁▄█");
        assert_eq!(sparkline(&[0, 0, 0]), "▁▁▁");
        assert_eq!(sparkline(&[]), "");
        // A huge maximum must not overflow the scaling arithmetic.
        assert_eq!(sparkline(&[u64::MAX, 0]), "█▁");
    }

    #[test]
    fn stat_delta_diffs_counters_and_keeps_gauges() {
        let prev = StatSnapshot {
            reads: 100,
            replies: 40,
            packets_seen: 200,
            queue_depth: 9,
            store_size: 50,
            lat_buckets: [1, 2, 3, 4, 5, 6, 7, 8],
            ..Default::default()
        };
        let cur = StatSnapshot {
            reads: 160,
            replies: 70,
            packets_seen: 290,
            queue_depth: 3,
            queue_cap: 32,
            store_size: 51,
            lat_buckets: [2, 2, 10, 4, 5, 6, 7, 9],
            ..Default::default()
        };
        let d = stat_delta(&prev, &cur);
        assert_eq!(d.reads, 60);
        assert_eq!(d.replies, 30);
        assert_eq!(d.packets_seen, 90);
        assert_eq!(d.lat_buckets, [1, 0, 7, 0, 0, 0, 0, 1]);
        // Gauges are the live values, not differences.
        assert_eq!(d.queue_depth, 3);
        assert_eq!(d.queue_cap, 32);
        assert_eq!(d.store_size, 51);
        // A counter that went backwards (restarted worker) saturates at 0
        // instead of wrapping.
        assert_eq!(stat_delta(&cur, &prev).reads, 0);
    }

    #[test]
    fn stat_delta_clamps_every_counter_on_reset() {
        // A restarted worker reports counters far below the previous probe.
        // Every counter and every latency bucket must clamp to zero — an
        // underflowing wrap would render as a ~u64::MAX ops/s spike.
        let before_restart = StatSnapshot {
            reads: 1_000,
            writes: 900,
            cas_ops: 800,
            deletes: 700,
            replies: 600,
            chain_forwards: 500,
            stale_drops: 400,
            misses: 300,
            blocked: 200,
            packets_seen: 5_000,
            lat_buckets: [9; STAT_LAT_BUCKETS],
            ..Default::default()
        };
        let after_restart = StatSnapshot {
            reads: 3,
            writes: 2,
            queue_depth: 1,
            queue_cap: 32,
            store_size: 7,
            lat_buckets: [1; STAT_LAT_BUCKETS],
            ..Default::default()
        };
        let d = stat_delta(&before_restart, &after_restart);
        assert_eq!(d.reads, 0);
        assert_eq!(d.writes, 0);
        assert_eq!(d.cas_ops, 0);
        assert_eq!(d.deletes, 0);
        assert_eq!(d.replies, 0);
        assert_eq!(d.chain_forwards, 0);
        assert_eq!(d.stale_drops, 0);
        assert_eq!(d.misses, 0);
        assert_eq!(d.blocked, 0);
        assert_eq!(d.packets_seen, 0);
        assert_eq!(d.lat_buckets, [0; STAT_LAT_BUCKETS]);
        // Gauges always reflect the newer snapshot.
        assert_eq!(d.queue_depth, 1);
        assert_eq!(d.queue_cap, 32);
        assert_eq!(d.store_size, 7);
        // The rendered row stays finite and spike-free.
        let row = net_row("shard0/sw0", &d, Duration::from_millis(500));
        assert!(row.contains("0 ops/s"), "{row}");
    }

    #[test]
    fn json_rows_carry_the_same_numbers_as_text_rows() {
        let delta = StatSnapshot {
            reads: 500,
            writes: 100,
            chain_forwards: 250,
            replies: 550,
            queue_depth: 4,
            queue_cap: 32,
            store_size: 512,
            lat_buckets: [10, 20, 5, 0, 0, 0, 0, 0],
            ..Default::default()
        };
        let doc = net_row_json("shard0/sw1", &delta, Duration::from_millis(500));
        assert_eq!(doc.get("target").and_then(Json::as_str), Some("shard0/sw1"));
        assert_eq!(doc.get("ops_per_sec").and_then(Json::as_f64), Some(1200.0));
        assert_eq!(doc.get("queue_depth").and_then(Json::as_f64), Some(4.0));
        // The render/parse round trip survives (what `--json` consumers do).
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(
            parsed.get("replies_per_sec").and_then(Json::as_f64),
            Some(1100.0)
        );

        let delta = shard_delta();
        let doc = fabric_row_json(1, &delta, &[10, 0, 20], Duration::from_millis(20));
        assert_eq!(doc.get("shard").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("ops_per_sec").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(
            doc.get("frames_per_burst").and_then(Json::as_f64),
            Some(6.0)
        );
        assert_eq!(doc.get("blocked").and_then(Json::as_f64), Some(2.0));
        let Some(Json::Arr(ops)) = doc.get("recent_ops") else {
            panic!("recent_ops is an array");
        };
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn rows_render_rates_and_sparklines() {
        let delta = StatSnapshot {
            reads: 500,
            writes: 100,
            chain_forwards: 250,
            replies: 550,
            queue_depth: 4,
            queue_cap: 32,
            store_size: 512,
            lat_buckets: [10, 20, 5, 0, 0, 0, 0, 0],
            ..Default::default()
        };
        let row = net_row("shard0/sw1", &delta, Duration::from_millis(500));
        // 600 ops over 0.5s = 1200 ops/s.
        assert!(row.contains("1200 ops/s"), "{row}");
        assert!(row.contains("q    4/32"), "{row}");
        assert!(row.contains('█'), "{row}");

        let row = fabric_row(1, &shard_delta(), &[10, 0, 20], Duration::from_millis(20));
        // 20 replies in a 20 ms interval = 1000 ops/s.
        assert!(row.contains("1000 ops/s"), "{row}");
        assert!(row.contains("▄▁█"), "{row}");
        assert!(row.contains("frames/burst   6.0"), "{row}");
        assert!(row.contains("blocked     2"), "{row}");
        // A shard that ran no burst in the interval reads 0, not NaN.
        let idle = fabric_row(0, &ShardStats::default(), &[0], Duration::from_millis(20));
        assert!(idle.contains("frames/burst   0.0"), "{idle}");
    }

    /// Two samples of a shard 20 ms apart, diffed: 20 replies to 24 frames
    /// pulled in 4 bursts, 2 of them blocked.
    fn shard_delta() -> ShardStats {
        let earlier = ShardStats {
            frames_in: 100,
            bursts: 10,
            replies: 90,
            blocked: 1,
            ..Default::default()
        };
        let now = ShardStats {
            frames_in: 124,
            bursts: 14,
            replies: 110,
            blocked: 3,
            ..Default::default()
        };
        now.since(&earlier)
    }
}
