//! The fabric under its live control plane: a switch is killed, detected,
//! routed around and repaired group by group while one client keeps
//! issuing — the shape of the paper's Figure 10.

use crate::fabric::{self, NUM_KEYS};
use crate::spans::Spans;
use crate::stats;
use crate::workload::{Rep, Workload};
use netchain_core::KvOp;
use netchain_fabric::FabricConfig;
use netchain_livectl::{
    replay_agent_config, run_live_controlled, FaultScript, LiveAnomaly, LiveConfig, ReplayFabric,
};
use netchain_telemetry::TraceConfig;
use netchain_wire::{Ipv4Addr, Key, Value};
use std::time::{Duration, Instant};

/// Repair granularity: the key space is repaired in this many groups.
const GROUPS: u32 = 100;
/// Slices skipped at the start of a run before the pre-kill rate is read.
const WARMUP_SLICES: usize = 2;

/// One shard, one client, one spare held out of the ring.
fn config() -> FabricConfig {
    fabric::config().with_spares(1)
}

fn victim() -> Ipv4Addr {
    Ipv4Addr::for_switch(1)
}

/// The run and its fault script: 1.25 s, kill at 0.3 s, 50 ms detection,
/// repair from 0.5 s to 1.0 s. The shape of the issue's 3 s script in under
/// half the time, so that sixteen repetitions fit in a run; the repair keeps
/// 5 ms a group because a group's block → copy → activate takes the live
/// controller 3–4 ms, and a budget under that makes the repair work-bound
/// instead of paced. `--quick` halves every duration.
fn live_config(seed: u64, quick: bool, trace: TraceConfig) -> LiveConfig {
    let scale = if quick { 2 } else { 1 };
    let ms = |full: u64| Duration::from_millis(full / scale);
    let fabric = config().with_trace(trace);
    let script = FaultScript {
        victim: victim(),
        kill_at: ms(300),
        failover_delay: ms(50),
        recovery_delay: ms(150),
        sync_duration: ms(500),
        recovery_groups: Some(GROUPS),
        replacement: fabric.spare_ips().first().copied(),
    };
    let spec = fabric::spec(Workload::Failover, seed, u64::MAX);
    LiveConfig::new(fabric, spec, ms(1_250)).with_script(script)
}

/// One controlled run, timed from outside.
fn live(seed: u64, quick: bool, trace: TraceConfig) -> Rep {
    let config = live_config(seed, quick, trace);
    let script = config.script.expect("the failover workload has a script");
    let call = Instant::now();
    let report = run_live_controlled(config);
    let wall = call.elapsed();

    let slice_s = report.slice.as_secs_f64();
    let kill_slice = (script.kill_at.as_nanos() / report.slice.as_nanos().max(1)) as usize;
    let pre_kill: Vec<f64> = report
        .slices
        .iter()
        .take(kill_slice)
        .skip(WARMUP_SLICES.min(kill_slice / 2))
        .map(|&n| n as f64 / slice_s)
        .collect();
    let pre_rate = stats::median(&pre_kill);
    let issued: u64 = report.clients.iter().map(|c| c.issued).sum();
    let mut rep = Rep::new(
        seed,
        issued,
        report.completed_ops,
        report.elapsed,
        wall.saturating_sub(report.elapsed),
        report.latency.clone(),
    );
    rep.demanded = pre_rate * report.elapsed.as_secs_f64();
    // The service rate is read where the fault has not touched it, slice by
    // slice. A whole run's rate is this times `served_ratio`, which has a
    // row of its own.
    rep.rates = pre_kill;
    rep.layer.extend(fabric::burst_shape(&report.shards));
    rep.layer.extend([
        (
            "livectl.retries_per_op",
            report.total_retries() as f64 / issued.max(1) as f64,
        ),
        ("livectl.blocked", report.total_blocked() as f64),
        ("livectl.unroutable", report.total_unroutable() as f64),
        ("livectl.anomalies", report.anomalies.len() as f64),
    ]);
    rep.layer.push(("livectl.served_ratio", rep.served_ratio()));
    match &report.timeline {
        Some(t) => {
            let margin = report.slice * 2;
            // Slices after the kill that served under half the pre-kill rate.
            let dark = report
                .slices
                .iter()
                .skip(kill_slice)
                .filter(|&&n| (n as f64 / slice_s) < pre_rate / 2.0)
                .count();
            let ratio = |from, to| report.mean_rate(from, to) / pre_rate.max(1e-9);
            rep.layer.extend([
                (
                    "livectl.install_us",
                    t.failover_install_time.as_secs_f64() * 1e6,
                ),
                ("livectl.unavail_ms", dark as f64 * slice_s * 1e3),
                (
                    "livectl.degraded_ratio",
                    ratio(t.failover_installed_at + margin, t.repair_started_at),
                ),
                (
                    "livectl.repair_ratio",
                    ratio(t.repair_started_at, t.repair_finished_at),
                ),
                (
                    "livectl.repair_ms",
                    (t.repair_finished_at.saturating_sub(t.repair_started_at)).as_secs_f64() * 1e3,
                ),
            ]);
            rep.check(t.groups_repaired == GROUPS as usize, || {
                format!("{} of {GROUPS} groups repaired", t.groups_repaired)
            });
        }
        None => rep.failures.push("the fault script did not run".into()),
    }
    rep.check(report.total_version_regressions() == 0, || {
        format!("{} version regressions", report.total_version_regressions())
    });
    rep.check(report.total_abandoned() == 0, || {
        format!("{} operations abandoned", report.total_abandoned())
    });
    // The shadow auditor tells keys apart by fingerprint, like the offline
    // one: a verdict on a fingerprint two keys share says nothing.
    let (shared, _) = fabric::shared_fingerprints(NUM_KEYS);
    for anomaly in &report.anomalies {
        if let LiveAnomaly::Audit(violation) = anomaly {
            if !shared.contains(&violation.key_fp) {
                rep.failures
                    .push(format!("shadow auditor: {}", violation.describe()));
            }
        }
    }
    rep
}

/// One timed (untraced) repetition.
pub fn timed_rep(seed: u64, quick: bool) -> Rep {
    live(seed, quick, TraceConfig::OFF)
}

/// The same run with in-band tracing on, which is what feeds the live shadow
/// auditor: a consistency violation across the failure fails the run.
pub fn traced_live(seed: u64, quick: bool) -> Rep {
    live(seed, quick, fabric::TRACE)
}

/// Times the control plane's own work on the single-threaded replay fabric,
/// where no pacing sleeps hide it: planning and installing fast failover,
/// and one group's block → copy → activate.
pub fn control_plane(spans: &mut Spans, rounds: usize) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let config = config();
    let spare = config.spare_ips()[0];
    let mut failures = Vec::new();
    for round in 0..rounds {
        let mut replay = ReplayFabric::new(
            config.build_ring(),
            1,
            FabricConfig::pipeline_for(NUM_KEYS),
            &config.spare_ips(),
            replay_agent_config(0),
        );
        for k in 0..NUM_KEYS {
            replay.populate(Key::from_u64(k), &Value::from_u64(0));
        }
        // Real register state for the repair to copy.
        for k in 0..NUM_KEYS {
            replay.exec(KvOp::Write(Key::from_u64(k), Value::from_u64(k + 1)));
        }
        replay.kill(victim());
        let t = Instant::now();
        replay.fast_failover(victim());
        spans.add("livectl.failover_plan", None, round as u64, 1, t);
        let steps = replay.start_recovery(victim(), spare, Some(GROUPS));
        for _ in 0..steps {
            let t = Instant::now();
            replay.block_next_group();
            replay.finish_blocked_group();
            spans.add("livectl.group_sync", None, round as u64, 1, t);
        }
        if !replay.repair_complete() {
            failures.push(format!("replay round {round}: repair did not complete"));
        }
    }
    let layer = vec![
        (
            "livectl.failover_plan_us",
            spans.ns_per_op("livectl.failover_plan") / 1e3,
        ),
        (
            "livectl.group_sync_us",
            spans.ns_per_op("livectl.group_sync") / 1e3,
        ),
    ];
    (layer, failures)
}
