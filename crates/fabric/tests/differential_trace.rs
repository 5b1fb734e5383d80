//! Differential trace test: the in-band per-hop traces recorded by the
//! discrete-event simulator's switches and by the fabric's shards must agree
//! on the *chain hop order* of every query. Both sides derive the trace ID
//! from fields every packet already carries (client IP + request id) and
//! stamp the switch that handles the packet at each hop, so the same
//! scripted op sequence must yield identical per-query hop paths — reads hit
//! the tail alone, writes walk head → replicas → tail — even though one side
//! stamps virtual time and the other wall-clock time.

use netchain_core::{AgentCore, ClusterConfig, KvOp, NetChainCluster};
use netchain_fabric::{shard_of_key, Shard};
use netchain_sim::{SimDuration, SimTime};
use netchain_switch::PipelineConfig;
use netchain_telemetry::{merge_thinned, merge_traces, trace_id, PacketTrace, TraceConfig};
use netchain_wire::{BatchEncoder, Ipv4Addr, Key, PacketView, Value};
use std::collections::HashMap;
use std::time::Instant;

/// Trace everything: shift 0 samples every query.
const TRACE_ALL: TraceConfig = TraceConfig {
    enabled: true,
    sample_shift: 0,
    max_traces: 4096,
};

/// The scripted sequence both executions run (a subset of the differential
/// semantics test's script): writes and reads over enough keys to cross
/// several distinct chains, plus a miss and a delete.
fn script() -> Vec<KvOp> {
    let keys: Vec<Key> = (0..8)
        .map(|i| Key::from_name(&format!("trace/key{i}")))
        .collect();
    let mut ops = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        ops.push(KvOp::Write(k, Value::from_u64(500 + i as u64)));
    }
    for &k in &keys {
        ops.push(KvOp::Read(k));
    }
    ops.push(KvOp::Read(Key::from_name("trace/never-populated")));
    ops.push(KvOp::Delete(keys[0]));
    ops
}

fn populated_keys() -> Vec<Key> {
    (0..8)
        .map(|i| Key::from_name(&format!("trace/key{i}")))
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
fn sim_and_fabric_traces_agree_on_chain_hop_order() {
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

    // ---- Fabric execution, same ring, same agent, tracing on ----
    let ring = cluster.ring().clone();
    let num_shards = 2;
    let t0 = Instant::now();
    let mut shards: Vec<Shard> = (0..num_shards)
        .map(|i| {
            let mut s = Shard::new(i, num_shards, ring.clone(), pipeline);
            s.enable_tracing(TRACE_ALL, t0);
            s
        })
        .collect();
    let shard_of = |key: &Key| shard_of_key(&ring, key, num_shards);
    for key in populated_keys() {
        shards[shard_of(&key)].populate(key, &Value::from_u64(0));
    }
    let mut agent = AgentCore::new(cluster.agent_config(0), cluster.directory());
    let mut replies = BatchEncoder::new();
    let mut clock = 0u64;
    for op in script() {
        clock += 1;
        let key = match &op {
            KvOp::Read(k) | KvOp::Write(k, _) | KvOp::Delete(k) => *k,
            KvOp::Cas { key, .. } => *key,
        };
        let (_, pkt) = agent.begin(SimTime(clock), op);
        let frame = pkt.to_bytes();
        replies.clear();
        shards[shard_of(&key)].process_burst(std::iter::once(frame.as_slice()), &mut replies);
        assert_eq!(replies.len(), 1);
        let reply = PacketView::parse(replies.frame(0)).unwrap().to_owned();
        clock += 1;
        agent
            .on_reply(SimTime(clock), &reply)
            .expect("reply matches the outstanding op");
    }
    let (_, fabric_traces) = merge_thinned(shards.iter_mut().map(Shard::take_traces));
    let fabric_paths = switch_paths(&fabric_traces);

    // ---- Comparison ----
    // Both sides sampled every one of the script's queries, with identical
    // trace IDs (key, client IP + request id, both starting at request id 1).
    let ops = script().len();
    assert_eq!(sim_paths.len(), ops, "sim must trace every scripted op");
    assert_eq!(
        fabric_paths.len(),
        ops,
        "fabric must trace every scripted op"
    );
    let client_ip = u32::from_be_bytes(Ipv4Addr::for_host(0).0);
    for (request_id, op) in (1..).zip(script()) {
        let id = trace_id(client_ip, request_id, op.key().stable_hash());
        let sim = sim_paths
            .get(&id)
            .unwrap_or_else(|| panic!("sim lacks a trace for request {request_id}"));
        let fabric = fabric_paths
            .get(&id)
            .unwrap_or_else(|| panic!("fabric lacks a trace for request {request_id}"));
        assert_eq!(
            sim, fabric,
            "request {request_id}: hop order diverged between simulator and fabric"
        );
        assert!(!sim.is_empty(), "request {request_id}: empty hop path");
    }
    // The script contains writes, which must walk full chains (f+1 = 3
    // hops), and reads, which the tail serves alone.
    assert!(
        sim_paths.values().any(|p| p.len() >= 3),
        "no full-chain write path was traced"
    );
    assert!(
        sim_paths.values().any(|p| p.len() == 1),
        "no tail-only read path was traced"
    );
}
