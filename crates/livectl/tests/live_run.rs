//! End-to-end tests of the threaded, live-controlled fabric: a failure-free
//! run and a full kill → failover → repair run, with the closed loop, the
//! retry path, and the slice accounting all real.

use netchain_core::{FaultOp, Schedule, WorkloadSpec};
use netchain_fabric::{FabricConfig, ShardStats, ShardStatsCell};
use netchain_livectl::{
    run_live_controlled, run_live_observed, FaultScript, LiveAnomaly, LiveConfig, Reactions,
};
use netchain_telemetry::{audit, HopRole, HopStamp, TraceConfig};
use netchain_wire::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn small_fabric() -> FabricConfig {
    FabricConfig {
        num_switches: 4,
        vnodes_per_switch: 8,
        ring_capacity: 256,
        ..FabricConfig::new(2)
    }
    .with_spares(1)
}

#[test]
fn live_run_without_faults_completes_cleanly() {
    let mut config = LiveConfig::new(
        small_fabric(),
        WorkloadSpec::mixed(128, 0, 60, 30),
        Duration::from_millis(300),
    );
    // Nothing drops in a failure-free run, so the retransmission timer only
    // measures scheduling noise; keep it out of the way (one core may park a
    // thread for milliseconds).
    config.retry_timeout = Duration::from_millis(200);
    let report = run_live_controlled(config);
    assert!(report.completed_ops > 0, "the run must make progress");
    assert!(report.timeline.is_none());
    let slice_total: u64 = report.slices.iter().sum();
    assert_eq!(
        slice_total, report.completed_ops,
        "every completion lands in exactly one slice"
    );
    for client in &report.clients {
        assert_eq!(client.version_regressions, 0);
        assert_eq!(client.abandoned, 0);
    }
    assert_eq!(report.total_unroutable(), 0);
    assert_eq!(report.total_blocked(), 0);
    // Latency is always recorded (wall-clock, via the timed client API).
    assert_eq!(report.latency.count(), report.completed_ops);
    assert!(report.latency.quantiles().p999_ns >= report.latency.quantiles().p50_ns);
    // Tracing was off, so no trace fragments were produced.
    assert!(report.traces.is_empty());
    // A healthy symmetric run never trips the gray-failure monitor.
    assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
    assert!(report.ops_journal.instants().is_empty());
}

#[test]
fn thinned_shard_sinks_leave_no_mutation_unjudged() {
    // Every query traced, and sinks of 1024: a shard's fills several times
    // over and thins itself, while a client's, drained every half timeout,
    // holds only what is open. Cut to the coarsest shift any sink reached,
    // every acked mutation still carries its switch stamps.
    let config = LiveConfig::new(
        small_fabric().with_trace(TraceConfig::sampled(0, 1024)),
        WorkloadSpec::mixed(128, 0, 50, 50),
        Duration::from_millis(300),
    );
    let report = run_live_controlled(config);
    assert!(
        (report.traces.iter()).all(|t| t.id.trailing_zeros() >= 1),
        "no sink thinned"
    );
    let verdict = audit(&report.traces, &report.ops_journal, &());
    assert!(verdict.is_clean(), "{:?}", verdict.violations);
    assert!(verdict.writes > 0 && verdict.checked > 0, "{verdict:?}");
    assert_eq!(verdict.truncated, 0, "{verdict:?}");
}

#[test]
fn no_switch_stamps_a_trace_after_its_ack() {
    // Client and shards stamp off one clock (`t0`), and a reply exists only
    // once its tail has stamped it, so an ack can never predate a switch
    // stamp of its own trace. `chain_audit` relies on exactly that order.
    let mut config = LiveConfig::new(
        small_fabric().with_trace(TraceConfig::sampled(2, 1 << 16)),
        WorkloadSpec::mixed(128, 0, 50, 50),
        Duration::from_millis(300),
    );
    config.retry_timeout = Duration::from_millis(200);
    let report = run_live_controlled(config);
    let mut acked = 0;
    for trace in &report.traces {
        let role_at = |h: &HopStamp| h.evidence.map(|e| (e.role, h.at_ns));
        let Some(ack_at) = trace
            .hops
            .iter()
            .filter_map(role_at)
            .find_map(|(role, at)| (role == HopRole::ClientAck).then_some(at))
        else {
            continue;
        };
        acked += 1;
        for (role, at) in trace.hops.iter().filter_map(role_at) {
            assert!(
                !role.on_switch() || at <= ack_at,
                "trace {:#x}: {role:?} stamped {} ns after the ack",
                trace.id,
                at.saturating_sub(ack_at),
            );
        }
    }
    assert!(acked > 100, "only {acked} acked traces sampled");
}

#[test]
fn observed_run_publishes_every_reply_to_the_shared_cells() {
    let mut config = LiveConfig::new(
        small_fabric(),
        WorkloadSpec::mixed(128, 0, 60, 30),
        Duration::from_millis(300),
    );
    config.retry_timeout = Duration::from_millis(200);
    let cells: Arc<[ShardStatsCell]> = (0..2).map(|_| ShardStatsCell::default()).collect();
    // Sample the cells while the run goes, as a dashboard does, and once
    // more after it returned.
    let finished = AtomicBool::new(false);
    let (report, samples) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut last = [ShardStats::default(); 2];
            let mut samples = Vec::new();
            loop {
                let after_the_run = finished.load(Ordering::Acquire);
                let deltas: Vec<ShardStats> = (cells.iter().zip(&mut last))
                    .map(|(cell, last)| cell.since_last(last))
                    .collect();
                samples.push(deltas);
                if after_the_run {
                    break samples;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let report = run_live_observed(config, Arc::clone(&cells));
        finished.store(true, Ordering::Release);
        (report, sampler.join().expect("sampler panicked"))
    });
    assert!(report.completed_ops > 0);
    assert!(report.anomalies.is_empty());
    for (s, stats) in report.shards.iter().enumerate() {
        // Every reply a shard produced is counted in exactly one sample...
        let sum =
            |field: fn(&ShardStats) -> u64| -> u64 { samples.iter().map(|d| field(&d[s])).sum() };
        assert_eq!(sum(|d| d.replies), stats.replies, "shard {s}");
        // ...because the cell ends holding the shard's own counters.
        assert_eq!(cells[s].load(), *stats, "shard {s}");
        let (frames, bursts) = (sum(|d| d.frames_in), sum(|d| d.bursts));
        assert!(
            bursts > 0 && frames >= bursts,
            "{frames} frames in {bursts} bursts"
        );
    }
    // The cells were live during the run, not filled at its end.
    let busy = samples.iter().filter(|d| d.iter().any(|d| d.replies > 0));
    assert!(busy.count() >= 2, "{samples:?}");
}

#[test]
fn scripted_failure_fails_over_and_repairs_live() {
    let script = FaultScript {
        victim: Ipv4Addr::for_switch(1),
        kill_at: Duration::from_millis(250),
        failover_delay: Duration::from_millis(60),
        recovery_delay: Duration::from_millis(120),
        sync_duration: Duration::from_millis(240),
        recovery_groups: Some(8),
        replacement: None, // the spare
    };
    let config = LiveConfig::new(
        small_fabric().with_trace(TraceConfig::sampled(4, 2048)),
        WorkloadSpec::mixed(128, 0, 50, 50),
        Duration::from_millis(1_100),
    )
    .with_script(script);
    let report = run_live_controlled(config);
    let timeline = report.timeline.as_ref().expect("a script ran");

    // The controller went through every phase, in order.
    assert!(timeline.killed_at >= script.kill_at);
    assert!(timeline.failover_installed_at >= timeline.failover_started_at);
    assert!(timeline.repair_started_at >= timeline.failover_installed_at);
    assert!(timeline.repair_finished_at >= timeline.repair_started_at);
    assert_eq!(timeline.groups_repaired, 8);
    assert_eq!(timeline.group_activations.len(), 8);

    // The dataplane kept serving: ops completed, none were permanently lost,
    // and consistency held across failover and repair.
    assert!(report.completed_ops > 0);
    assert_eq!(report.total_abandoned(), 0, "retries must cover every drop");
    for client in &report.clients {
        assert_eq!(client.version_regressions, 0);
    }
    // The failure was actually felt (queries to the dead switch were lost
    // until rules arrived, so clients retried), and repair actually blocked
    // (some queries hit a block rule).
    assert!(report.total_retries() > 0, "the kill must cost retries");
    let unroutable: u64 = report.shards.iter().map(|s| s.unroutable).sum();
    assert!(
        unroutable > 0,
        "pre-failover queries to the victim are lost"
    );

    // Repair actually blocked traffic group by group (block rules were hit).
    let blocked: u64 = report.shards.iter().map(|s| s.blocked).sum();
    assert!(blocked > 0, "repair must block some in-window queries");
    // Service resumes after repair, for good: from the observed end of
    // repair to the end of the run no five slices in a row (100 ms) pass
    // without a completion, wherever the run of empty slices starts, and a
    // series that stops short of the end counts as stalled (scale-free in
    // throughput; the experiment reports the real curves). Not one slice: a
    // contended box was seen parking a pinned shard thread for four. When
    // the repair ends is the box's to decide; `schedules` pins it on the
    // simulator's and the replay fabric's clocks. With zero abandoned ops
    // that also proves the spare took over: writes whose repaired chain
    // includes it cannot complete otherwise.
    let (step, end) = (Duration::from_millis(100), Duration::from_millis(1_100));
    let stall = report.longest_stall(timeline.repair_finished_at, end);
    assert!(
        stall < step,
        "nothing completed for {stall:?} after repair: {:?}",
        report.slices
    );

    // Telemetry rode along: real latency quantiles, sampled per-hop traces
    // (client issue hop → chain hops → client reply hop), and a journal
    // whose spans mirror the timeline.
    assert_eq!(report.latency.count(), report.completed_ops);
    assert!(!report.traces.is_empty(), "1/16 sampling must catch traces");
    let summary = report.trace_summary();
    let path = summary.dominant_path().expect("some complete path");
    assert!(path.len() >= 3, "client + at least one switch + client");
    let journal = &report.ops_journal;
    // ...and the evidence those traces carry audits clean against it.
    let verdict = audit(&report.traces, journal, &());
    // The run was judged once, by this same audit, when it ended.
    let flagged: Vec<_> = (report.anomalies.iter())
        .filter_map(|a| match a {
            LiveAnomaly::Audit(violation) => Some(violation),
            LiveAnomaly::Gray(_) => None,
        })
        .collect();
    assert_eq!(flagged, verdict.violations.iter().collect::<Vec<_>>());
    assert!(verdict.is_clean(), "{:?}", verdict.violations);
    assert!(verdict.checked > 0, "nothing was judged: {verdict:?}");
    let failover = journal
        .find_span("fast-failover:10.0.0.1")
        .expect("span recorded");
    assert_eq!(
        failover.duration_ns(),
        Some(timeline.failover_install_time.as_nanos() as u64)
    );
    assert_eq!(
        journal
            .instants()
            .iter()
            .filter(|i| i.name.starts_with("activate-group:"))
            .count(),
        8
    );
    // A scripted fail-stop is not a gray failure: the dip is global (every
    // shard blocks/retries together), so the peer-median detector is silent.
    assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
}

#[test]
fn a_stalled_shard_is_a_gray_failure() {
    // Shard 1 of three stalls for 150 ms: alive, its rings intact, serving
    // nothing. Clients that give a query up after two timeouts keep the
    // other shards busy meanwhile (rings long enough to hold what piles up
    // for the stalled one), so the stall shows as one shard far below its
    // peers' median: the detector's first input that is not synthetic.
    let stalled = Ipv4Addr::for_shard(1);
    let stall = FaultOp::Stall(stalled, Duration::from_millis(150));
    let schedule = Schedule::new(0).at(Duration::from_millis(150), stall);
    let fabric = FabricConfig {
        num_switches: 4,
        vnodes_per_switch: 8,
        ring_capacity: 1 << 15,
        ..FabricConfig::new(3)
    };
    let mut config = LiveConfig::new(
        fabric,
        WorkloadSpec::uniform_read(256, 0),
        Duration::from_millis(500),
    )
    .with_schedule(schedule, Reactions::default());
    config.slice = Duration::from_millis(10);
    config.max_retries = 1;
    let report = run_live_controlled(config);

    let gray: Vec<_> = (report.anomalies.iter())
        .filter_map(|a| match a {
            LiveAnomaly::Gray(gray) => Some(gray),
            LiveAnomaly::Audit(_) => None,
        })
        .collect();
    // Anchored to the stall as delivered (its journaled instant), the
    // stalled shard is first named within the stall's 15 slices, or before
    // them: the detector is right to name a shard that serves under half
    // its peers for two slices, which a descheduled one did in warm-up in
    // about one run in four on a 2-core box beside a CPU hog (shard 1 in one
    // in ten), and a verdict mutes its shard for 32 slices, the stall's
    // among them. The exact verdicts, none before the stall, are
    // `detector::tests::a_stalled_switch_is_flagged_in_virtual_time`'s.
    let stalled_at = (report.ops_journal.find_instant("stall 10.2.0.1 150ms"))
        .expect("the stall was delivered and journaled")
        .at_ns;
    let stall_slice = stalled_at / report.slice.as_nanos() as u64;
    let named = gray.iter().find(|a| a.shard == 1);
    assert!(
        named.is_some_and(|a| a.slice <= stall_slice + 15),
        "stall delivered in slice {stall_slice}: {gray:?}"
    );
    // Delivered, and no op unaccounted for; what the stalled shard held was
    // served when it woke up, or given up by then.
    assert!(report.timeline.is_none(), "nothing was killed");
    let issued: u64 = report.clients.iter().map(|c| c.issued).sum();
    assert_eq!(report.completed_ops + report.total_abandoned(), issued);
    assert!(report.total_abandoned() > 0 && report.total_version_regressions() == 0);
    let after = report.mean_rate(Duration::from_millis(350), Duration::from_millis(500));
    assert!(after > 0.0, "service did not resume: {:?}", report.slices);
}
