//! Staged versus scalar burst path with failover rules installed.
//!
//! The staged path hashes a burst's keys once and lets every packet carry
//! its hash through the index match and the rule scopes of each hop, keeps
//! reads on the fast lane past rules that cannot touch their replies, and
//! routes through a dense switch table with a cached gateway; the scalar
//! path parses and hashes frame by frame and has no fast lane. Over the same
//! seeded 50/40/10 burst stream the two must produce the same reply bytes,
//! shard and switch counters and register state — with no rules, with a
//! chain-failover rule, and mid-repair with a hundred group-scoped rules.
//! (Debug builds also assert, at every hop, that the carried hash is the
//! key's.)

use netchain_core::failplan::{FailoverPlan, OpList, RecoveryPlan, Target};
use netchain_fabric::{build_shards, FabricConfig, Shard, WorkloadSpec};
use netchain_switch::{cas_value, ControlOp};
use netchain_wire::{BatchEncoder, ChainList, Ipv4Addr, Key, NetChainPacket, OpCode, Value};
use std::collections::HashSet;

const KEYS: u64 = 256;
const GROUPS: u32 = 100;

#[derive(Clone, Copy, Debug)]
enum Rules {
    None,
    ChainFailover,
    MidRepair,
}

/// Kills the second ring switch and installs the scenario's rules from the
/// op lists the live controller delivers.
fn program(shard: &mut Shard, config: &FabricConfig, rules: Rules) {
    if matches!(rules, Rules::None) {
        return;
    }
    let ring = config.build_ring();
    let victim = ring.switches()[1];
    let spare = config.spare_ips()[0];
    let mut session = 1;
    let deliver = |shard: &mut Shard, ops: OpList| {
        for (target, op) in &ops {
            shard.apply(*target, op);
        }
    };
    shard.fault(&netchain_core::FaultOp::Kill(victim));
    let failover = FailoverPlan::compute(&ring, victim).ops(&mut session);
    deliver(shard, failover);
    if matches!(rules, Rules::MidRepair) {
        let down = HashSet::from([victim]);
        let plan = RecoveryPlan::compute(&ring, victim, spare, Some(GROUPS), &down);
        // The first half of the groups already live on the spare; the second
        // half is blocked, waiting for its synchronisation.
        for (i, step) in plan.steps.iter().enumerate() {
            deliver(shard, plan.block_ops(i));
            if step.group >= GROUPS / 2 {
                continue;
            }
            for &donor in &step.donors {
                let from = shard.switch(donor).expect("donors are hosted");
                let entries = from.kv().export_group(step.group, GROUPS);
                shard.apply(Target::Switch(spare), &ControlOp::Import(entries));
            }
            deliver(shard, plan.activate_ops(i, &mut session));
        }
    }
}

/// A seeded stream of `bursts` bursts of `width` client queries, 50 % reads,
/// 40 % writes, 10 % CAS, over uniform keys.
fn burst_stream(config: &FabricConfig, bursts: usize, width: usize) -> Vec<Vec<Vec<u8>>> {
    let ring = config.build_ring();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = move || {
        // xorshift64*: plenty for a test stream.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 16
    };
    let mut request_id = 0;
    (0..bursts)
        .map(|_| {
            (0..width)
                .map(|_| {
                    request_id += 1;
                    let key = Key::from_u64(draw() % KEYS);
                    let chain = ring.chain_for_key(&key).switches;
                    let (op, value, first, rest): (_, _, _, Vec<Ipv4Addr>) = match draw() % 10 {
                        0..=4 => (
                            OpCode::Read,
                            Value::empty(),
                            chain[chain.len() - 1],
                            chain.iter().rev().skip(1).copied().collect(),
                        ),
                        roll => {
                            // Small values, so a CAS meets what it expects
                            // about one time in four.
                            let (op, value) = if roll == 9 {
                                (OpCode::Cas, cas_value(draw() % 4, draw() % 4))
                            } else {
                                (OpCode::Write, Value::from_u64(draw() % 4))
                            };
                            (op, value, chain[0], chain[1..].to_vec())
                        }
                    };
                    NetChainPacket::query(
                        Ipv4Addr::for_host(0),
                        40_000,
                        first,
                        op,
                        key,
                        value,
                        ChainList::new(rest).unwrap(),
                        request_id,
                    )
                    .to_bytes()
                })
                .collect()
        })
        .collect()
}

#[test]
fn staged_matches_scalar_under_rules() {
    let config = FabricConfig::new(1).with_spares(1);
    let spec = WorkloadSpec::mixed(KEYS, 0, 50, 40);
    // 48 frames: every burst crosses the staged path's 32-frame chunks.
    let stream = burst_stream(&config, 60, 48);
    for rules in [Rules::None, Rules::ChainFailover, Rules::MidRepair] {
        let mut staged = build_shards(&config, &spec).pop().expect("one shard");
        let mut scalar = build_shards(&config, &spec).pop().expect("one shard");
        program(&mut staged, &config, rules);
        program(&mut scalar, &config, rules);
        let (mut staged_replies, mut scalar_replies) = (BatchEncoder::new(), BatchEncoder::new());
        for (b, burst) in stream.iter().enumerate() {
            staged_replies.clear();
            scalar_replies.clear();
            staged.process_burst(burst.iter().map(|f| f.as_slice()), &mut staged_replies);
            scalar.process_burst_scalar(burst.iter().map(|f| f.as_slice()), &mut scalar_replies);
            assert!(
                staged_replies.frames().eq(scalar_replies.frames()),
                "{rules:?}: reply bytes diverge in burst {b}"
            );
        }
        assert_eq!(staged.stats(), scalar.stats(), "{rules:?}");
        let stats = staged.stats();
        assert!(stats.replies > 0);
        match rules {
            Rules::None => assert_eq!((stats.drops, stats.unroutable), (0, 0)),
            Rules::ChainFailover => assert_eq!(stats.unroutable, 0),
            Rules::MidRepair => assert!(stats.blocked > 0, "some groups are blocked"),
        }
        for ip in staged.switch_ips().collect::<Vec<_>>() {
            let (a, b) = (staged.switch(ip).unwrap(), scalar.switch(ip).unwrap());
            assert_eq!(a.stats(), b.stats(), "{rules:?}: switch {ip:?} counters");
            assert_eq!(
                a.kv().export_entries(),
                b.kv().export_entries(),
                "{rules:?}: switch {ip:?} registers"
            );
        }
        if matches!(rules, Rules::MidRepair) {
            let spare = staged.switch(config.spare_ips()[0]).unwrap();
            assert!(spare.stats().processed() > 0, "redirects reach the spare");
        }
    }
}
