//! Building audit [`Evidence`] from a query packet and the switch about to
//! execute it.
//!
//! Every execution mode (sim [`crate::SwitchNode`], fabric shard, net
//! worker) stamps sampled queries the same way: the hop's chain role is
//! derived from fields the packet already carries (mutation? sequence
//! assigned yet? chain exhausted?), and the version register `(session,
//! seq)` is read *before* the operation executes, so the stamp records what
//! the switch observed, not what the op wrote. Centralising the derivation
//! here keeps the three stamp sites byte-for-byte comparable — the auditor
//! merges their fragments into one history.

use netchain_switch::{FailoverAction, NetChainSwitch};
use netchain_telemetry::{key_fingerprint, Evidence, EvidenceOp, HopRole};
use netchain_wire::{NetChainHeader, OpCode};

/// Derives the evidence a switch should stamp for an incoming query, or
/// `None` for non-KV traffic (stat probes, replies) which carries no
/// consistency semantics.
///
/// The register read happens here, pre-execution: `ok` is whether the key
/// currently resolves to a live slot, and `(session, seq)` is that slot's
/// version register (zeroes on a miss). The chain role uses the
/// **effective** remaining chain: hops this switch's own fast-failover
/// rules will strip (Algorithm 2) don't count, so the surviving replica
/// that will generate the reply on a dead tail's behalf stamps `Tail`
/// (or `Solo`), not `Replica` — it *is* the commit point for this query.
pub fn query_evidence(switch: &NetChainSwitch, header: &NetChainHeader) -> Option<Evidence> {
    query_evidence_hashed(switch, header, header.key.stable_hash())
}

/// [`query_evidence`] for a query whose key's stable hash travels with it
/// (the fabric shard hashes a burst's keys once, in stage 2): the register
/// match, the rule scopes and the fingerprint all reuse `hash`.
pub fn query_evidence_hashed(
    switch: &NetChainSwitch,
    header: &NetChainHeader,
    hash: u64,
) -> Option<Evidence> {
    let op = evidence_op(header.op)?;
    let role = HopRole::for_query(
        header.op.is_mutation(),
        header.seq == 0,
        effective_chain_is_empty(switch, header, hash),
    );
    let kv = switch.kv();
    let (ok, (session, seq)) = match kv.lookup_with_hash(hash, &header.key) {
        Some(slot) if kv.is_valid(slot) => (true, kv.ordering(slot)),
        _ => (false, (0, 0)),
    };
    Some(Evidence {
        op,
        role,
        ok,
        key_fp: key_fingerprint(hash),
        session,
        seq,
    })
}

/// True when every remaining chain hop is one this switch will strip via a
/// [`FailoverAction::ChainFailover`] rule, i.e. the query will not reach
/// another live replica after executing here. A hop with no rule (the
/// packet really forwards there), a `Redirect` (it continues on a
/// replacement), or a `Block` (it never acks, so the role is moot) stops
/// the walk: the chain is effectively non-empty.
fn effective_chain_is_empty(switch: &NetChainSwitch, header: &NetChainHeader, hash: u64) -> bool {
    header.chain.hops().iter().all(|&hop| {
        matches!(
            switch.forwarding().action_for_hash(hop, hash),
            Some(FailoverAction::ChainFailover)
        )
    })
}

/// Maps a wire opcode (query or reply) to the audit evidence op kind, or
/// `None` for traffic without consistency semantics (stat probes).
pub fn evidence_op(op: OpCode) -> Option<EvidenceOp> {
    Some(match op {
        OpCode::Read | OpCode::ReadReply => EvidenceOp::Read,
        OpCode::Write | OpCode::Insert | OpCode::WriteReply | OpCode::InsertReply => {
            EvidenceOp::Write
        }
        OpCode::Cas | OpCode::CasReply => EvidenceOp::Cas,
        OpCode::Delete | OpCode::DeleteReply => EvidenceOp::Delete,
        OpCode::Stat | OpCode::StatReply => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_switch::PipelineConfig;
    use netchain_wire::{ChainList, Ipv4Addr, Key, QueryStatus, Value};

    fn header(op: OpCode, key: Key, seq: u64, chain: Vec<Ipv4Addr>) -> NetChainHeader {
        NetChainHeader {
            op,
            status: QueryStatus::Ok,
            session: 0,
            seq,
            request_id: 1,
            key,
            chain: ChainList::new(chain).unwrap(),
            value: Value::empty(),
        }
    }

    #[test]
    fn sequential_workload_keys_fingerprint_distinctly() {
        // The fabric workloads draw from `Key::from_u64(0..n)`; the auditors
        // identify a key by its fingerprint alone, so two keys sharing one
        // read as a single key with two version histories.
        for n in [1024u64, 4096] {
            let distinct: std::collections::HashSet<u32> = (0..n)
                .map(|k| key_fingerprint(Key::from_u64(k).stable_hash()))
                .collect();
            assert_eq!(distinct.len() as u64, n, "collision among 0..{n}");
        }
    }

    #[test]
    fn evidence_reads_the_register_before_execution() {
        let mut sw = NetChainSwitch::new(Ipv4Addr::for_switch(0), PipelineConfig::tiny(8));
        let key = Key::from_name("k");
        sw.kv_mut().insert(key, &Value::from_u64(7)).unwrap();
        let slot = sw.kv().lookup(&key).unwrap();
        let stored = sw.kv().ordering(slot);

        let next = Ipv4Addr::for_switch(1);
        let ev = query_evidence(&sw, &header(OpCode::Write, key, 0, vec![next])).unwrap();
        assert_eq!(ev.op, EvidenceOp::Write);
        assert_eq!(ev.role, HopRole::Head); // seq unassigned, chain remains
        assert!(ev.ok);
        assert_eq!(ev.version(), stored);
        assert_eq!(ev.key_fp, key_fingerprint(key.stable_hash()));

        // Same write at the end of the chain with the sequence assigned.
        let ev = query_evidence(&sw, &header(OpCode::Write, key, 9, vec![])).unwrap();
        assert_eq!(ev.role, HopRole::Tail);

        // A read addressed to the tail.
        let ev = query_evidence(&sw, &header(OpCode::Read, key, 0, vec![])).unwrap();
        assert_eq!(ev.op, EvidenceOp::Read);
        assert_eq!(ev.role, HopRole::Tail);
    }

    #[test]
    fn misses_and_probes_are_handled() {
        let sw = NetChainSwitch::new(Ipv4Addr::for_switch(0), PipelineConfig::tiny(8));
        let ev = query_evidence(
            &sw,
            &header(OpCode::Read, Key::from_name("nope"), 0, vec![]),
        )
        .unwrap();
        assert!(!ev.ok);
        assert_eq!(ev.version(), (0, 0));
        // Stat probes carry no consistency evidence.
        assert!(
            query_evidence(&sw, &header(OpCode::Stat, Key::from_name("s"), 0, vec![])).is_none()
        );
    }
}
