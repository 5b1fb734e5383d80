//! Differential test: the socket dataplane and the discrete-event simulator
//! run the *same* switch program (`netchain_switch::NetChainSwitch`), so the
//! same scripted op sequence must produce identical reply statuses/values and
//! identical per-switch KV state in both — with the dataplane's copy of every
//! byte having crossed a real UDP socket. This is the net-mode analogue of
//! the fabric's `differential_sim` test: any divergence in chain routing,
//! per-op behaviour, or stored sequence numbers fails loudly.

use std::time::Duration;

use netchain_core::{ClusterConfig, CompletedQuery, KvOp, NetChainCluster};
use netchain_net::{IoMode, NetConfig, NetDataplane};
use netchain_sim::SimDuration;
use netchain_switch::{ExportedEntry, PipelineConfig};
use netchain_wire::{Key, Value};

/// The scripted sequence both executions run: writes, reads (hits and
/// misses), contended CAS (success then failure), deletes, and a
/// read-after-delete, spread over enough keys to cross several chains.
fn script() -> Vec<KvOp> {
    let keys: Vec<Key> = (0..8)
        .map(|i| Key::from_name(&format!("diff/key{i}")))
        .collect();
    let lock = Key::from_name("diff/lock");
    let ghost = Key::from_name("diff/never-populated");
    let mut ops = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        ops.push(KvOp::Write(k, Value::from_u64(100 + i as u64)));
    }
    for &k in &keys {
        ops.push(KvOp::Read(k));
    }
    for (i, &k) in keys.iter().enumerate().take(4) {
        ops.push(KvOp::Write(k, Value::from_u64(200 + i as u64)));
        ops.push(KvOp::Read(k));
    }
    ops.push(KvOp::Cas {
        key: lock,
        expected: 0,
        new: 11,
    });
    ops.push(KvOp::Cas {
        key: lock,
        expected: 0,
        new: 22,
    });
    ops.push(KvOp::Cas {
        key: lock,
        expected: 11,
        new: 33,
    });
    ops.push(KvOp::Read(lock));
    ops.push(KvOp::Read(ghost));
    ops.push(KvOp::Delete(keys[7]));
    ops.push(KvOp::Read(keys[7]));
    ops
}

/// Keys the control plane pre-populates (everything the script touches except
/// the deliberate miss).
fn populated_keys() -> Vec<Key> {
    let mut keys: Vec<Key> = (0..8)
        .map(|i| Key::from_name(&format!("diff/key{i}")))
        .collect();
    keys.push(Key::from_name("diff/lock"));
    keys
}

/// Sorted, comparable snapshot of one switch's live KV state.
fn kv_snapshot(entries: impl IntoIterator<Item = ExportedEntry>) -> Vec<ExportedEntry> {
    let mut v: Vec<ExportedEntry> = entries.into_iter().collect();
    v.sort_by_key(|a| a.key);
    v
}

#[test]
fn net_dataplane_matches_simulator_on_scripted_ops() {
    // Both executions share geometry: the testbed ring (4 switches) and a
    // small identical pipeline, so slot-level state is comparable.
    let pipeline = PipelineConfig::tiny(256);
    let config = ClusterConfig {
        pipeline,
        ..ClusterConfig::default()
    };

    // ---- Simulator execution ----
    let mut cluster = NetChainCluster::testbed(config);
    for key in populated_keys() {
        cluster.populate_key(key, &Value::from_u64(0));
    }
    cluster.install_scripted_client(0, script());
    cluster.sim.run_for(SimDuration::from_millis(500));
    let sim_client = cluster.scripted_client(0).expect("host 0 has the script");
    assert!(sim_client.is_done(), "simulated script did not finish");
    assert_eq!(sim_client.agent_stats().version_regressions, 0);
    let sim_results = sim_client.results();

    // ---- Socket-dataplane execution, once per syscall discipline ----
    // Same ring, same pipeline, keyspace split over two shard workers; every
    // query and reply crosses a real UDP socket.
    let ring = cluster.ring().clone();
    let populate: Vec<(Key, Value)> = populated_keys()
        .into_iter()
        .map(|k| (k, Value::from_u64(0)))
        .collect();
    for io_mode in [IoMode::Burst, IoMode::Single] {
        let net_config = NetConfig {
            io_mode,
            ..NetConfig::new(ring.clone(), 2, pipeline)
        };
        let plane = NetDataplane::start(net_config, &populate).expect("start dataplane");

        // Same client logic: an agent configured exactly like the simulated
        // host 0 (so request ids line up), driven sequentially over a socket.
        let mut client = plane
            .client(cluster.agent_config(0))
            .expect("client socket");
        let net_results: Vec<CompletedQuery> = script()
            .into_iter()
            .map(|op| client.execute(op, Duration::from_secs(5)).expect("op"))
            .collect();
        assert_eq!(client.agent_stats().version_regressions, 0);
        assert_eq!(
            client.late_completions(),
            0,
            "sequential client completed a different op"
        );
        drop(client);
        let report = plane.shutdown();

        // ---- Reply-level comparison ----
        assert_eq!(sim_results.len(), net_results.len());
        for (i, (sim, net)) in sim_results.iter().zip(&net_results).enumerate() {
            assert_eq!(sim.op, net.op, "op {i}: scripts diverged");
            assert_eq!(sim.request_id, net.request_id, "op {i}: request id");
            assert_eq!(sim.status, net.status, "op {i} ({:?}): status", sim.op);
            assert_eq!(sim.value, net.value, "op {i} ({:?}): value", sim.op);
            assert_eq!(sim.seq, net.seq, "op {i} ({:?}): version", sim.op);
        }

        // ---- KV-state comparison ----
        // A dataplane switch's state is the union over shard workers (shards
        // partition the keyspace, so the union is disjoint); it must equal
        // the simulated switch's state entry for entry — including
        // tombstones.
        for (idx, &ip) in ring.switches().iter().enumerate() {
            let sim_state = kv_snapshot(cluster.switch(idx).switch().kv().export_entries());
            let net_state = kv_snapshot(report.shards.iter().flat_map(|s| {
                s.switch(ip)
                    .expect("every shard hosts every ring switch")
                    .kv()
                    .export_entries()
            }));
            assert_eq!(
                sim_state, net_state,
                "switch {idx} diverged between simulator and {io_mode:?} socket dataplane"
            );
        }
        // One sequential client never has two queries in flight, so no
        // receive returned two, whichever call made it; and the forced
        // discipline made none through the multi-message calls.
        for io in &report.io {
            assert_eq!(io.recv_fill[0], io.recv_calls, "{io_mode:?}: {io:?}");
            assert!(io_mode == IoMode::Burst || io.burst_calls == 0, "{io:?}");
        }
    }
}
