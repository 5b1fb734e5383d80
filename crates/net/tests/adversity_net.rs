//! Adversity tests: a fault `Schedule` of `Link` ops makes the socket
//! dataplane's workers lose queries and duplicate replies at the syscall
//! boundary (verdicts drawn from the schedule's seed), and the sans-IO agent
//! machinery must absorb both without consistency damage — retransmissions
//! recover dropped queries with zero version regressions, and a duplicated
//! reply must never complete the same query twice. A `Stall` makes one worker
//! sleep while its socket queues: its queries are served late, once each.

use std::time::Duration;

use netchain_core::{FaultOp, HashRing, Schedule, WorkloadSpec};
use netchain_net::{run_open_loop, IoMode, IoStats, NetConfig, NetDataplane, OpenLoopConfig};
use netchain_sim::SimDuration;
use netchain_switch::PipelineConfig;
use netchain_wire::{Ipv4Addr, Key, Value};

/// Both syscall disciplines: the batch-capable one picks its call from what
/// the socket holds, the forced one never does.
const IO_MODES: [IoMode; 2] = [IoMode::Burst, IoMode::Single];

/// Every successful receive is in the fill histogram and was made through
/// one call or the other.
fn check_call_accounting(io: &[IoStats], io_mode: IoMode) {
    for io in io {
        assert_eq!(io.recv_fill.iter().sum::<u64>(), io.recv_calls, "{io:?}");
        assert!(io.single_calls + io.burst_calls >= io.recv_calls, "{io:?}");
        if io_mode == IoMode::Single {
            assert_eq!(io.burst_calls, 0, "{io:?}");
        }
    }
}

const WORKERS: u32 = 2;

/// From run start, every edge between one of `agents` clients and a worker
/// drops queries / duplicates replies with the given probabilities.
fn lossy_edges(seed: u64, agents: u32, drop: f64, dup: f64) -> Schedule {
    let mut schedule = Schedule::new(seed);
    for (c, w) in (0..agents).flat_map(|c| (0..WORKERS).map(move |w| (c, w))) {
        let (client, worker) = (Ipv4Addr::for_host(c), Ipv4Addr::for_shard(w));
        let link = |from, to, drop, dup| FaultOp::Link {
            from,
            to,
            drop,
            dup,
            reorder: 0.0,
        };
        schedule = schedule
            .at(Duration::ZERO, link(client, worker, drop, 0.0))
            .at(Duration::ZERO, link(worker, client, 0.0, dup));
    }
    schedule
}

fn start_plane(num_keys: u64, faults: &Schedule, io_mode: IoMode) -> NetDataplane {
    let ring = HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7);
    let populate: Vec<(Key, Value)> = (0..num_keys)
        .map(|k| (Key::from_u64(k), Value::from_u64(0)))
        .collect();
    let config = NetConfig {
        io_mode,
        ..NetConfig::new(ring, WORKERS as usize, PipelineConfig::tiny(4096))
    };
    NetDataplane::start_under(config, &populate, faults).expect("start plane")
}

#[test]
fn dropped_queries_are_absorbed_by_retries_without_version_regressions() {
    // A third of the ingress datagrams (queries and retransmissions alike)
    // are dropped at the worker's receive loop. Agents must retransmit through
    // the loss and complete every single op, and the version-monotonicity
    // check each agent runs on every reply must stay clean.
    for io_mode in IO_MODES {
        let plane = start_plane(32, &lossy_edges(3, 32, 1.0 / 3.0, 0.0), io_mode);
        let spec = WorkloadSpec::mixed(32, u64::MAX, 60, 30);
        let mut config = OpenLoopConfig::new(32, 2, 1_500.0, Duration::from_millis(300));
        // Tight timeout so retransmissions race through the drop pattern
        // well inside the drain grace.
        config.agent_timeout = SimDuration::from_millis(10);
        config.agent_max_retries = 20;
        config.drain_grace = Duration::from_secs(2);
        let report = run_open_loop(&plane, spec, config);
        let net = plane.shutdown();

        let dropped: u64 = net.io.iter().map(|io| io.shim_dropped).sum();
        assert!(dropped > 0, "the link filter never dropped");
        assert!(
            report.retries > 0,
            "loss without retransmissions means nothing was dropped"
        );
        assert_eq!(report.abandoned, 0, "retry budget must absorb the loss");
        assert_eq!(
            report.completed, report.issued,
            "every op must eventually complete through the loss"
        );
        assert_eq!(report.version_regressions, 0);
        check_call_accounting(&net.io, io_mode);
    }
}

#[test]
fn duplicated_replies_never_complete_a_query_twice() {
    // Half the replies are sent twice. The first copy completes the query and
    // retires it; the second must be classified stale and discarded — never
    // matched to a different outstanding op, never double-counted.
    for io_mode in IO_MODES {
        let plane = start_plane(16, &lossy_edges(2, 16, 0.0, 0.5), io_mode);
        let spec = WorkloadSpec::uniform_read(16, u64::MAX);
        let config = OpenLoopConfig::new(16, 1, 1_000.0, Duration::from_millis(300));
        let report = run_open_loop(&plane, spec, config);
        let net = plane.shutdown();

        let duplicated: u64 = net.io.iter().map(|io| io.shim_duplicated).sum();
        assert!(duplicated > 0, "the link filter never duplicated");
        assert_eq!(
            report.completed, report.issued,
            "a duplicate reply must not complete a second query"
        );
        assert!(
            report.stale_replies > 0,
            "duplicate replies must be counted stale, not silently matched"
        );
        assert_eq!(report.version_regressions, 0);
        check_call_accounting(&net.io, io_mode);
        // A reply and its duplicate leave the worker in one flush of two,
        // which is the one batch the batch-capable mode finds at this rate.
        let bursts: u64 = net.io.iter().map(|io| io.burst_calls).sum();
        assert_eq!(bursts > 0, io_mode == IoMode::Burst);
    }
}

#[test]
fn a_stalled_worker_keeps_its_socket_queue_and_serves_it_afterwards() {
    // Worker 0 stalls for 120 ms, 50 ms into the run: its thread sleeps, its
    // socket keeps queueing. With a timeout longer than the stall nothing is
    // retransmitted: the queued queries are served late, once each, while
    // worker 1's half of the keys never waits.
    let stall = Duration::from_millis(120);
    for io_mode in IO_MODES {
        let worker = Ipv4Addr::for_shard(0);
        let faults = Schedule::new(5).at(Duration::from_millis(50), FaultOp::Stall(worker, stall));
        let plane = start_plane(64, &faults, io_mode);
        let spec = WorkloadSpec::mixed(64, u64::MAX, 60, 30);
        let mut config = OpenLoopConfig::new(16, 1, 1_000.0, Duration::from_millis(300));
        config.agent_timeout = SimDuration::from_millis(400);
        config.drain_grace = Duration::from_secs(1);
        let report = run_open_loop(&plane, spec, config);
        let net = plane.shutdown();

        assert_eq!(report.completed, report.issued, "{report:?}");
        assert_eq!((report.retries, report.abandoned), (0, 0));
        assert_eq!(report.version_regressions, 0);
        let q = |q| Duration::from_nanos(report.latency.quantile(q).expect("ops completed"));
        assert!(q(1.0) > stall * 3 / 4, "nothing waited: max {:?}", q(1.0));
        // No more ops waited a quarter of the stall than the stalled worker
        // served: worker 1's never wait, however late the stall lands.
        let quarter = (stall / 4).as_nanos() as u64;
        let waited: u64 = (report.latency.buckets())
            .filter(|b| b.upper_bound > quarter)
            .map(|b| b.count)
            .sum();
        let stalled_served = net.shards[0].stats().replies;
        assert!(
            waited <= stalled_served,
            "{waited} ops waited, worker 0 served {stalled_served}"
        );
    }
}
