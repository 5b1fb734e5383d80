//! Staged versus scalar burst path with failover rules installed.
//!
//! The staged path hashes a burst's keys once and lets every packet carry
//! its hash through the index match and the rule scopes of each hop, keeps
//! reads on the fast lane past rules that cannot touch their replies, and
//! routes through a route table (one load per hosted address, caching
//! liveness and whether a switch holds rules) with a cached gateway; the
//! scalar path parses and hashes frame by frame and has no fast lane. Over
//! the same seeded 50/40/10 burst stream the two must produce the same reply
//! bytes, shard and switch counters and register state — with no rules, with
//! a chain-failover rule, mid-repair with a hundred group-scoped rules, and
//! while a head dies, fails over, comes back and is repaired between bursts.
//! (Debug builds also assert, at every hop, that the carried hash is the
//! key's.)

use netchain_core::failplan::{FailoverPlan, OpList, RecoveryPlan, Target};
use netchain_core::{FaultOp, WorkloadSpec};
use netchain_fabric::{build_shards, FabricConfig, Shard};
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
    let failover = FailoverPlan::compute(&ring, victim, &[victim].into()).ops(&mut session);
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

/// Runs one burst through both paths and asserts that they agree: reply
/// bytes, shard counters and every hosted switch's counters.
fn assert_same_burst(staged: &mut Shard, scalar: &mut Shard, burst: &[Vec<u8>], context: &str) {
    let (mut staged_replies, mut scalar_replies) = (BatchEncoder::new(), BatchEncoder::new());
    staged.process_burst(burst.iter().map(|f| f.as_slice()), &mut staged_replies);
    scalar.process_burst_scalar(burst.iter().map(|f| f.as_slice()), &mut scalar_replies);
    assert!(
        staged_replies.frames().eq(scalar_replies.frames()),
        "{context}: reply bytes diverge"
    );
    assert_eq!(staged.stats(), scalar.stats(), "{context}");
    for ip in staged.switch_ips().collect::<Vec<_>>() {
        let (a, b) = (staged.switch(ip).unwrap(), scalar.switch(ip).unwrap());
        assert_eq!(a.stats(), b.stats(), "{context}: switch {ip:?} counters");
    }
}

/// What the control plane does to the victim between two phases of
/// [`staged_matches_scalar_as_liveness_changes_between_bursts`].
#[derive(Clone, Copy, Debug)]
enum Change {
    Kill,
    Failover,
    /// Back, empty and inactive: still not addressable.
    Revive,
    Block,
    /// Import the blocked group's state, then `SetActive` and the redirect.
    Activate,
    Unblock,
}

#[test]
fn staged_matches_scalar_as_liveness_changes_between_bursts() {
    // The route table caches each replica's liveness and whether it holds a
    // rule, and both paths route through it; so besides agreeing burst by
    // burst, they must see each change land: the dead head frozen and its
    // traffic unroutable until the failover rule, and the revived head
    // serving once it is active again.
    const PHASE: usize = 4;
    let config = FabricConfig::new(1);
    let spec = WorkloadSpec::mixed(KEYS, 0, 50, 40);
    let ring = config.build_ring();
    let victim = ring.switches()[1];
    // The revived victim is repaired back into its own place.
    let plan = RecoveryPlan::compute(&ring, victim, victim, Some(GROUPS), &HashSet::new());
    let (group, donors) = (plan.steps[0].group, &plan.steps[0].donors);
    // 48 frames: every burst crosses the staged path's 32-frame chunks.
    let stream = burst_stream(&config, 7 * PHASE, 48);
    let mut staged = build_shards(&config, &spec).pop().expect("one shard");
    let mut scalar = build_shards(&config, &spec).pop().expect("one shard");
    let (mut session, mut unblock) = (1, OpList::new());
    let changes = [
        Change::Kill,
        Change::Failover,
        Change::Revive,
        Change::Block,
        Change::Activate,
        Change::Unblock,
    ];
    for (phase, bursts) in stream.chunks(PHASE).enumerate() {
        let change = phase.checked_sub(1).map(|c| changes[c]);
        let ops = match change {
            Some(Change::Failover) => {
                FailoverPlan::compute(&ring, victim, &[victim].into()).ops(&mut session)
            }
            Some(Change::Block) => plan.block_ops(0),
            Some(Change::Activate) => {
                // `SetActive`, the session and the redirect now; the last op
                // lifts the block, one phase later.
                let mut ops = plan.activate_ops(0, &mut session);
                unblock = ops.split_off(3);
                ops
            }
            Some(Change::Unblock) => std::mem::take(&mut unblock),
            _ => OpList::new(),
        };
        for shard in [&mut staged, &mut scalar] {
            match change {
                Some(Change::Kill) => shard.fault(&FaultOp::Kill(victim)),
                Some(Change::Revive) => shard.fault(&FaultOp::Revive(victim)),
                Some(Change::Activate) => {
                    for &donor in donors {
                        let entries = shard
                            .switch(donor)
                            .unwrap()
                            .kv()
                            .export_group(group, GROUPS);
                        shard.apply(Target::Switch(victim), &ControlOp::Import(entries));
                    }
                }
                _ => {}
            }
            for (target, op) in &ops {
                shard.apply(*target, op);
            }
        }
        let before = (*staged.stats(), staged.switch(victim).unwrap().stats());
        for (b, burst) in bursts.iter().enumerate() {
            let context = format!("after {change:?}, burst {b}");
            assert_same_burst(&mut staged, &mut scalar, burst, &context);
        }
        let stats = staged.stats();
        let moved = staged.switch(victim).unwrap().stats() != before.1;
        let down = matches!(
            change,
            Some(Change::Kill | Change::Failover | Change::Revive | Change::Block)
        );
        assert_eq!(moved, !down, "{change:?}: the victim serves iff it is live");
        let unroutable = stats.unroutable - before.0.unroutable;
        let unruled = matches!(change, Some(Change::Kill));
        assert_eq!(
            unroutable > 0,
            unruled,
            "{change:?}: {unroutable} unroutable"
        );
        if matches!(change, Some(Change::Block)) {
            assert!(stats.blocked > before.0.blocked, "the group is blocked");
        }
    }
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
