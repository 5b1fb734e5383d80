//! Differential trace test, net edition: the in-band per-hop traces recorded
//! by the socket dataplane's workers must agree with the discrete-event
//! simulator's switches on the *chain hop order* of every query — with the
//! net side's every byte having crossed a real UDP socket. Both sides derive
//! the trace ID from fields every packet already carries (client IP +
//! request id), so the same scripted op sequence must yield identical
//! per-query hop paths even though one side stamps virtual time and the
//! other wall-clock time on a worker thread.

use std::collections::HashMap;
use std::time::Duration;

use netchain_core::{ClusterConfig, KvOp, NetChainCluster};
use netchain_net::{IoMode, NetConfig, NetDataplane};
use netchain_sim::SimDuration;
use netchain_switch::PipelineConfig;
use netchain_telemetry::{merge_traces, trace_id, PacketTrace, TraceConfig};
use netchain_wire::{Ipv4Addr, Key, Value};

/// Trace everything: shift 0 samples every query.
const TRACE_ALL: TraceConfig = TraceConfig {
    enabled: true,
    sample_shift: 0,
    max_traces: 4096,
};

/// The scripted sequence both executions run: writes and reads over enough
/// keys to cross several distinct chains, plus a miss and a delete.
fn script() -> Vec<KvOp> {
    let keys: Vec<Key> = (0..8)
        .map(|i| Key::from_name(&format!("ntrace/key{i}")))
        .collect();
    let mut ops = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        ops.push(KvOp::Write(k, Value::from_u64(700 + i as u64)));
    }
    for &k in &keys {
        ops.push(KvOp::Read(k));
    }
    ops.push(KvOp::Read(Key::from_name("ntrace/never-populated")));
    ops.push(KvOp::Delete(keys[0]));
    ops
}

fn populated_keys() -> Vec<Key> {
    (0..8)
        .map(|i| Key::from_name(&format!("ntrace/key{i}")))
        .collect()
}

/// Hop-IP sequence per trace ID, with client hops (10.1.x.x) filtered out so
/// paths are comparable whether or not a client-side stamper participated.
fn switch_paths(traces: &[PacketTrace]) -> HashMap<u64, Vec<u32>> {
    let client_prefix = |ip: u32| ip >> 16 == (10 << 8) | 1;
    traces
        .iter()
        .map(|t| {
            (
                t.id,
                t.hops
                    .iter()
                    .map(|h| h.hop_ip)
                    .filter(|&ip| !client_prefix(ip))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn net_and_sim_traces_agree_on_chain_hop_order() {
    let pipeline = PipelineConfig::tiny(256);
    let config = ClusterConfig {
        pipeline,
        ..ClusterConfig::default()
    };

    // ---- Simulator execution, tracing every query ----
    let mut cluster = NetChainCluster::testbed(config);
    let sink = cluster.enable_switch_tracing(TRACE_ALL);
    for key in populated_keys() {
        cluster.populate_key(key, &Value::from_u64(0));
    }
    cluster.install_scripted_client(0, script());
    cluster.sim.run_for(SimDuration::from_millis(500));
    assert!(
        cluster.scripted_client(0).expect("host 0").is_done(),
        "simulated script did not finish"
    );
    let sim_traces = merge_traces(sink.borrow_mut().drain());
    let sim_paths = switch_paths(&sim_traces);

    // ---- Socket-dataplane execution, same ring, tracing on ----
    let ring = cluster.ring().clone();
    let populate: Vec<(Key, Value)> = populated_keys()
        .into_iter()
        .map(|k| (k, Value::from_u64(0)))
        .collect();
    for io_mode in [IoMode::Burst, IoMode::Single] {
        let net_config = NetConfig {
            io_mode,
            trace: Some(TRACE_ALL),
            ..NetConfig::new(ring.clone(), 2, pipeline)
        };
        let plane = NetDataplane::start(net_config, &populate).expect("start dataplane");

        // A generous retry timeout: a retransmitted query would legitimately
        // stamp its chain a second time and the paths would no longer be
        // comparable, so this client never retransmits.
        let agent_config = cluster
            .agent_config(0)
            .with_timeout(SimDuration::from_secs(30));
        let mut client = plane.client(agent_config).expect("client socket");
        for op in script() {
            client.execute(op, Duration::from_secs(5)).expect("op");
        }
        drop(client);
        let report = plane.shutdown();
        let net_paths = switch_paths(&report.traces);

        // ---- Comparison ----
        let ops = script().len();
        assert_eq!(sim_paths.len(), ops, "sim must trace every scripted op");
        assert_eq!(net_paths.len(), ops, "net must trace every scripted op");
        let client_ip = u32::from_be_bytes(Ipv4Addr::for_host(0).0);
        for request_id in 1..=ops as u64 {
            let id = trace_id(client_ip, request_id);
            let sim = sim_paths
                .get(&id)
                .unwrap_or_else(|| panic!("sim lacks a trace for request {request_id}"));
            let net = net_paths
                .get(&id)
                .unwrap_or_else(|| panic!("net lacks a trace for request {request_id}"));
            assert_eq!(
                sim, net,
                "request {request_id}: hop order diverged between simulator and \
                 {io_mode:?} socket dataplane"
            );
            assert!(!sim.is_empty(), "request {request_id}: empty hop path");
        }
        // Writes walk full chains (3 hops), reads hit the tail alone.
        assert!(
            net_paths.values().any(|p| p.len() >= 3),
            "no full-chain write path was traced"
        );
        assert!(
            net_paths.values().any(|p| p.len() == 1),
            "no tail-only read path was traced"
        );
    }
}
