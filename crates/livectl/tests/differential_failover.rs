//! Differential test across a scripted failure: the live fabric (driven
//! deterministically through [`ReplayFabric`]) and the discrete-event
//! simulator (driven by its own [`Controller`] node) execute the *same*
//! scripted ops in three phases — healthy, after fast failover, and after
//! full chain repair — with the same planners, the same rules and the same
//! session numbers. The reply streams of every phase and the final per-
//! switch KV state (including the replacement and the frozen victim) must
//! match entry for entry.
//!
//! This extends `crates/fabric/tests/differential_sim.rs` (the failure-free
//! differential) to the whole controller path.

use netchain_core::{ClusterConfig, FaultOp, KvOp, NetChainCluster, Reactions, Schedule};
use netchain_livectl::ReplayFabric;
use netchain_sim::SimDuration;
use netchain_switch::kv::ExportedEntry;
use netchain_switch::PipelineConfig;
use netchain_wire::{Ipv4Addr, Key, QueryStatus, Value};
use std::time::Duration;

const VICTIM: u32 = 1;
const REPLACEMENT: u32 = 3;
const RECOVERY_GROUPS: u32 = 5;

fn keys() -> Vec<Key> {
    (0..10)
        .map(|i| Key::from_name(&format!("dfail/key{i}")))
        .collect()
}

/// Phase A: healthy traffic — writes, reads, CAS, a delete.
fn script_healthy() -> Vec<KvOp> {
    let keys = keys();
    let mut ops = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        ops.push(KvOp::Write(k, Value::from_u64(100 + i as u64)));
    }
    for &k in &keys {
        ops.push(KvOp::Read(k));
    }
    ops.push(KvOp::Cas {
        key: keys[0],
        expected: 100,
        new: 555,
    });
    ops.push(KvOp::Delete(keys[9]));
    ops.push(KvOp::Read(Key::from_name("dfail/ghost")));
    ops
}

/// Phase B: during the failover window (chains run one switch short; new
/// heads stamp bumped sessions).
fn script_failover() -> Vec<KvOp> {
    let keys = keys();
    let mut ops = Vec::new();
    for (i, &k) in keys.iter().enumerate().take(8) {
        ops.push(KvOp::Write(k, Value::from_u64(200 + i as u64)));
        ops.push(KvOp::Read(k));
    }
    ops.push(KvOp::Cas {
        key: keys[0],
        expected: 555,
        new: 777,
    });
    ops
}

/// Phase C: after full chain repair (traffic to the victim redirects to the
/// replacement).
fn script_repaired() -> Vec<KvOp> {
    let keys = keys();
    let mut ops = Vec::new();
    for (i, &k) in keys.iter().enumerate().take(8) {
        ops.push(KvOp::Write(k, Value::from_u64(300 + i as u64)));
        ops.push(KvOp::Read(k));
    }
    ops.push(KvOp::Read(keys[8]));
    ops
}

fn kv_snapshot(entries: impl IntoIterator<Item = ExportedEntry>) -> Vec<ExportedEntry> {
    let mut v: Vec<ExportedEntry> = entries.into_iter().collect();
    v.sort_by_key(|e| e.key);
    v
}

#[test]
fn live_fabric_matches_simulator_across_failover_and_repair() {
    let pipeline = PipelineConfig::tiny(256);
    // Timeline (sim side): fail at 50 ms, detected at 60 ms, failover rules
    // ~61 ms, phase B from 80 ms, recovery 260 ms → 360 ms (5 groups × 20
    // ms), phase C from 500 ms.
    // One schedule, delivered by both executors.
    let victim_ip = Ipv4Addr::for_switch(VICTIM);
    let schedule = Schedule::new(0).at(Duration::from_millis(50), FaultOp::Kill(victim_ip));
    let config = ClusterConfig {
        pipeline,
        ring_switches: Some(3),
        reactions: Reactions {
            failover_delay: Duration::from_millis(10),
            recovery_delay: Duration::from_millis(200),
            sync_duration: Duration::from_millis(100),
            replacement: Some(Ipv4Addr::for_switch(REPLACEMENT)),
            recovery_groups: Some(RECOVERY_GROUPS),
        },
        ..ClusterConfig::default()
    };

    // ---- Simulator execution ----
    let mut cluster = NetChainCluster::testbed(config);
    for key in keys() {
        cluster.populate_key(key, &Value::from_u64(0));
    }
    cluster.install_scripted_client(0, script_healthy());
    cluster.install_scripted_client_at(1, script_failover(), SimDuration::from_millis(80));
    cluster.install_scripted_client_at(2, script_repaired(), SimDuration::from_millis(500));
    cluster.inject(&schedule);
    cluster.sim.run_for(SimDuration::from_millis(700));

    let timelines = cluster.controller().reactor().timelines();
    assert_eq!(
        timelines.iter().filter(|(_, t)| t.repaired()).count(),
        1,
        "recovery must have completed in simulated time"
    );
    assert_eq!(timelines[0].0, victim_ip);
    let sim_phases: Vec<Vec<netchain_core::CompletedQuery>> = (0..3)
        .map(|h| {
            let client = cluster.scripted_client(h).expect("installed");
            assert!(client.is_done(), "sim phase {h} did not finish");
            assert_eq!(client.agent_stats().version_regressions, 0);
            client.results().to_vec()
        })
        .collect();

    // ---- Live fabric execution (deterministic replay, 2 shards) ----
    let ring = cluster.ring().clone();
    let mut fabric = ReplayFabric::new(
        ring,
        2,
        pipeline,
        &[Ipv4Addr::for_switch(REPLACEMENT)],
        cluster.agent_config(0),
    );
    for key in keys() {
        fabric.populate(key, &Value::from_u64(0));
    }
    let mut fabric_phases: Vec<Vec<netchain_core::CompletedQuery>> = Vec::new();

    // Phase A: healthy.
    fabric_phases.push(
        script_healthy()
            .into_iter()
            .map(|op| fabric.exec(op))
            .collect(),
    );
    // The failure, then Algorithm 2 — same planner as the sim controller.
    for (_, op) in &schedule.ops {
        fabric.apply(op);
    }
    assert_eq!(fabric.fast_failover(victim_ip), Some(victim_ip));
    // Phase B: degraded chains.
    fabric.reset_agent(cluster.agent_config(1));
    fabric_phases.push(
        script_failover()
            .into_iter()
            .map(|op| fabric.exec(op))
            .collect(),
    );
    // Algorithm 3: two-phase repair, group by group.
    fabric.start_recovery(
        victim_ip,
        Ipv4Addr::for_switch(REPLACEMENT),
        Some(RECOVERY_GROUPS),
    );
    fabric.repair_all();
    assert!(fabric.repair_complete());
    // Phase C: repaired.
    fabric.reset_agent(cluster.agent_config(2));
    fabric_phases.push(
        script_repaired()
            .into_iter()
            .map(|op| fabric.exec(op))
            .collect(),
    );
    assert_eq!(fabric.agent().stats().version_regressions, 0);

    // ---- Reply-stream comparison, phase by phase ----
    for (phase, (sim, fab)) in sim_phases.iter().zip(&fabric_phases).enumerate() {
        assert_eq!(sim.len(), fab.len(), "phase {phase}: op counts");
        for (i, (s, f)) in sim.iter().zip(fab).enumerate() {
            assert_eq!(s.op, f.op, "phase {phase} op {i}: scripts diverged");
            assert_eq!(s.request_id, f.request_id, "phase {phase} op {i}");
            assert_eq!(s.status, f.status, "phase {phase} op {i} ({:?})", s.op);
            assert_eq!(s.value, f.value, "phase {phase} op {i} ({:?})", s.op);
            assert_eq!(s.seq, f.seq, "phase {phase} op {i} ({:?})", s.op);
            assert_eq!(s.session, f.session, "phase {phase} op {i} ({:?})", s.op);
            assert_ne!(s.status, None, "phase {phase} op {i}: nothing may drop");
        }
    }
    // Phase B and C must have succeeded through failover/repair, not via
    // NotFound degradation.
    for phase in [1, 2] {
        for done in &fabric_phases[phase] {
            if matches!(done.op, KvOp::Read(_) | KvOp::Write(..)) {
                assert_eq!(
                    done.status,
                    Some(QueryStatus::Ok),
                    "phase {phase}: {done:?}"
                );
            }
        }
    }

    // ---- Per-switch KV state comparison (S0..S3, including the frozen
    // victim and the replacement) ----
    for idx in 0..4usize {
        let ip = Ipv4Addr::for_switch(idx as u32);
        let sim_state = kv_snapshot(cluster.switch(idx).switch().kv().export_entries());
        let fabric_state = kv_snapshot(fabric.switch_state(ip));
        assert_eq!(
            sim_state, fabric_state,
            "switch {idx} diverged between simulator and live fabric"
        );
    }
}

/// One plan, three transports. The op lists of Algorithms 2 and 3 reach a
/// simulated `SwitchNode` as control messages from the `Controller`, a fabric
/// `Shard` through `Shard::apply`, and the `ReplayFabric`'s shards through
/// its own verbs; afterwards every switch must hold the same rule table, the
/// same session and the same activity flag whichever way it was programmed.
///
/// The simulated topology is one spine (S0, the victim) over three leaves,
/// so the victim's neighbours are all the other switches: what "neighbours"
/// means inside a shard, where every live replica is one.
#[test]
fn one_plan_programs_sim_shard_and_replay_alike() {
    use netchain_core::failplan::{FailoverPlan, RecoveryPlan};
    use netchain_fabric::Shard;
    use std::collections::HashSet;

    let pipeline = PipelineConfig::tiny(16);
    let victim = Ipv4Addr::for_switch(0);
    let spare = Ipv4Addr::for_switch(REPLACEMENT);
    let config = ClusterConfig {
        pipeline,
        ring_switches: Some(3),
        reactions: Reactions {
            failover_delay: Duration::from_millis(10),
            recovery_delay: Duration::from_millis(20),
            sync_duration: Duration::from_millis(50),
            replacement: Some(spare),
            recovery_groups: Some(RECOVERY_GROUPS),
        },
        ..ClusterConfig::default()
    };

    // Simulator: the controller plans and delivers over the control network.
    let mut cluster = NetChainCluster::spine_leaf(1, 3, 1, config);
    cluster.inject(&Schedule::new(0).at(Duration::from_millis(5), FaultOp::Kill(victim)));
    cluster.sim.run_for(SimDuration::from_millis(200));
    let timelines = cluster.controller().reactor().timelines();
    let repaired = timelines.iter().filter(|(_, t)| t.repaired()).count();
    assert_eq!(repaired, 1, "repair finished");
    let ring = cluster.ring().clone();

    // One shard, handed the same lists op by op.
    let mut shard = Shard::with_spares(0, 1, ring.clone(), pipeline, &[spare]);
    shard.fault(&netchain_core::FaultOp::Kill(victim));
    let mut deliver = |ops: netchain_core::failplan::OpList| {
        for (target, op) in &ops {
            shard.apply(*target, op);
        }
    };
    let mut session = 1;
    deliver(FailoverPlan::compute(&ring, victim, &[victim].into()).ops(&mut session));
    let plan = RecoveryPlan::compute(
        &ring,
        victim,
        spare,
        Some(RECOVERY_GROUPS),
        &HashSet::from([victim]),
    );
    for step in 0..plan.steps.len() {
        deliver(plan.block_ops(step));
        deliver(plan.activate_ops(step, &mut session));
    }

    // Replay fabric, two shards, through its own verbs.
    let mut replay = ReplayFabric::new(ring, 2, pipeline, &[spare], cluster.agent_config(0));
    replay.kill(victim);
    replay.fast_failover(victim);
    replay.start_recovery(victim, spare, Some(RECOVERY_GROUPS));
    replay.repair_all();

    for idx in 0..4usize {
        let ip = Ipv4Addr::for_switch(idx as u32);
        let sim = cluster.switch(idx).switch();
        let programmed = (sim.forwarding(), sim.session(), sim.is_active());
        if ip != victim {
            assert_eq!(sim.forwarding().len(), 1 + RECOVERY_GROUPS as usize);
        }
        let replicas = replay.shards().iter().chain([&shard]);
        for replica in replicas.map(|s| s.switch(ip).expect("hosted")) {
            assert_eq!(
                (replica.forwarding(), replica.session(), replica.is_active()),
                programmed,
                "switch {idx} was programmed differently"
            );
        }
    }
    // The sessions were numbered once, inside the lists.
    let heads = FailoverPlan::compute(cluster.ring(), victim, &[victim].into()).new_heads;
    assert_eq!(session, 1 + (heads.len() + plan.steps.len()) as u64);
    assert_eq!(
        cluster.switch(REPLACEMENT as usize).switch().session(),
        session - 1
    );
}
