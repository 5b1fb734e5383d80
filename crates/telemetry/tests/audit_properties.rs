//! Properties of the chain-consistency auditor.
//!
//! Two halves:
//!
//! * a **soundness property**: histories generated by a faithful little
//!   chain-replication model — serial per key, writes stamped head→mid→tail,
//!   reads answered at the tail with the current version — audit clean for
//!   *any* schedule proptest can dream up;
//! * a **seeded mutation corpus**: six hand-broken histories, one per
//!   checker, each provably tripping *exactly* the checker built to catch
//!   it — dropped commit evidence, reordered hops, a regressed register, a
//!   key lost across repair, a read–read inversion and a phantom version.

use netchain_telemetry::{
    audit, Evidence, EvidenceOp, HopRole, HopStamp, Journal, PacketTrace, ViolationKind,
};
use proptest::prelude::*;

const CLIENT_IP: u32 = 1;
const HEAD_IP: u32 = 10;
const MID_IP: u32 = 11;
const TAIL_IP: u32 = 12;

fn ev(op: EvidenceOp, role: HopRole, ok: bool, key_fp: u32, seq: u64) -> Evidence {
    Evidence {
        op,
        role,
        ok,
        key_fp,
        session: 0,
        seq,
    }
}

fn stamp(hop_ip: u32, at_ns: u64, e: Evidence) -> HopStamp {
    HopStamp {
        hop_ip,
        at_ns,
        evidence: Some(e),
    }
}

/// A write against the model: issued at `t`, every switch observes the
/// register at `pre` (the version before this write), the ack carries
/// `next` (the version this write installed).
fn write_trace(id: u64, fp: u32, t: u64, pre: u64, next: u64, deleted: bool) -> PacketTrace {
    let op = if deleted {
        EvidenceOp::Delete
    } else {
        EvidenceOp::Write
    };
    PacketTrace {
        id,
        hops: vec![
            stamp(CLIENT_IP, t, ev(op, HopRole::ClientIssue, true, fp, 0)),
            stamp(HEAD_IP, t + 10, ev(op, HopRole::Head, pre > 0, fp, pre)),
            stamp(MID_IP, t + 20, ev(op, HopRole::Replica, pre > 0, fp, pre)),
            stamp(TAIL_IP, t + 30, ev(op, HopRole::Tail, pre > 0, fp, pre)),
            stamp(
                CLIENT_IP,
                t + 40,
                ev(op, HopRole::ClientAck, true, fp, next),
            ),
        ],
    }
}

/// A read against the model: answered at the tail, which observes (and the
/// ack returns) version `seen`. `ok` is false when the key is deleted.
fn read_trace(id: u64, fp: u32, t: u64, seen: u64, ok: bool) -> PacketTrace {
    PacketTrace {
        id,
        hops: vec![
            stamp(
                CLIENT_IP,
                t,
                ev(EvidenceOp::Read, HopRole::ClientIssue, true, fp, 0),
            ),
            stamp(
                TAIL_IP,
                t + 10,
                ev(EvidenceOp::Read, HopRole::Tail, ok, fp, seen),
            ),
            stamp(
                CLIENT_IP,
                t + 20,
                ev(EvidenceOp::Read, HopRole::ClientAck, ok, fp, seen),
            ),
        ],
    }
}

/// A write that was sent twice: the first attempt applied `pre + 1` along
/// the whole chain but its ack was lost, and the retry applied `pre + 2`,
/// which the ack carries.
fn retried_write_trace(id: u64, fp: u32, t: u64, pre: u64) -> PacketTrace {
    let w = EvidenceOp::Write;
    let mut hops = vec![stamp(
        CLIENT_IP,
        t,
        ev(w, HopRole::ClientIssue, true, fp, 0),
    )];
    for (attempt, seen) in [(0, pre), (30, pre + 1)] {
        let ok = seen > 0;
        hops.push(stamp(
            HEAD_IP,
            t + attempt + 10,
            ev(w, HopRole::Head, ok, fp, seen),
        ));
        hops.push(stamp(
            MID_IP,
            t + attempt + 20,
            ev(w, HopRole::Replica, ok, fp, seen),
        ));
        hops.push(stamp(
            TAIL_IP,
            t + attempt + 30,
            ev(w, HopRole::Tail, ok, fp, seen),
        ));
    }
    hops.push(stamp(
        CLIENT_IP,
        t + 70,
        ev(w, HopRole::ClientAck, true, fp, pre + 2),
    ));
    PacketTrace { id, hops }
}

/// A CAS whose head found another value: the head observes `seen` (`live`
/// when the key is present) and the reply carries no version.
fn failed_cas_trace(id: u64, fp: u32, t: u64, seen: u64, live: bool) -> PacketTrace {
    let cas = EvidenceOp::Cas;
    PacketTrace {
        id,
        hops: vec![
            stamp(CLIENT_IP, t, ev(cas, HopRole::ClientIssue, true, fp, 0)),
            stamp(HEAD_IP, t + 10, ev(cas, HopRole::Head, live, fp, seen)),
            stamp(CLIENT_IP, t + 20, ev(cas, HopRole::ClientAck, false, fp, 0)),
        ],
    }
}

/// One op in a generated history.
#[derive(Debug, Clone, Copy)]
enum OpSpec {
    Read,
    Write,
    Delete,
    FailedCas,
    /// A retried write, with a read that saw its first attempt land.
    RetriedWrite,
}

fn op_spec() -> impl Strategy<Value = OpSpec> {
    (0u8..19).prop_map(|n| match n {
        0..=7 => OpSpec::Read,
        8..=13 => OpSpec::Write,
        14 => OpSpec::Delete,
        15 | 16 => OpSpec::FailedCas,
        _ => OpSpec::RetriedWrite,
    })
}

/// Plays the per-key op sequences through the model chain, interleaving
/// keys in time (serial per key, concurrent across keys — exactly what the
/// auditor's per-key reconstruction must keep apart).
fn model_history(per_key: &[Vec<OpSpec>]) -> Vec<PacketTrace> {
    let mut traces = Vec::new();
    let mut id = 1u64;
    for (k, ops) in per_key.iter().enumerate() {
        let fp = 100 + k as u32;
        // Keys deliberately share time ranges: offset by key index only
        // slightly so their ops interleave when sorted by time.
        let mut t = 1_000 + k as u64 * 7;
        let mut version = 0u64; // 0 = never written (register miss)
        let mut live = false;
        for &op in ops {
            match op {
                OpSpec::Read => traces.push(read_trace(id, fp, t, version, live)),
                OpSpec::Write | OpSpec::Delete => {
                    let deleted = matches!(op, OpSpec::Delete);
                    traces.push(write_trace(id, fp, t, version, version + 1, deleted));
                    version += 1;
                    live = !deleted;
                }
                OpSpec::FailedCas => traces.push(failed_cas_trace(id, fp, t, version, live)),
                OpSpec::RetriedWrite => {
                    traces.push(retried_write_trace(id, fp, t, version));
                    // Between the attempts, another client read the first.
                    id += 1;
                    let mut read = read_trace(id, fp, t + 32, version + 1, true);
                    read.hops[2].at_ns = t + 38;
                    traces.push(read);
                    version += 2;
                    live = true;
                }
            }
            id += 1;
            // Ops are serial per key: the next issues after this one acked.
            t += 100;
        }
    }
    traces
}

proptest! {
    /// Any history the faithful model generates — any interleaving of keys,
    /// any mix of writes, deletes, reads, failed CASes and retried writes —
    /// must audit clean. A violation
    /// here is a false positive: the auditor accusing a correct execution.
    #[test]
    fn clean_model_histories_always_audit_clean(
        per_key in proptest::collection::vec(
            proptest::collection::vec(op_spec(), 1..12),
            1..6,
        ),
    ) {
        let traces = model_history(&per_key);
        let report = audit(&traces, &Journal::new(), &());
        prop_assert!(
            report.violations.is_empty(),
            "false positives on a clean history: {:?}",
            report.violations
        );
    }
}

/// A straight-line clean history the corpus entries below each break in one
/// deliberate way: two writes and a read on one key.
fn clean_base() -> Vec<PacketTrace> {
    vec![
        write_trace(1, 7, 1_000, 0, 1, false),
        write_trace(2, 7, 2_000, 1, 2, false),
        read_trace(3, 7, 3_000, 2, true),
    ]
}

fn kinds(violations: &[netchain_telemetry::Violation]) -> Vec<ViolationKind> {
    violations.iter().map(|v| v.kind).collect()
}

#[test]
fn the_base_history_is_clean() {
    let report = audit(&clean_base(), &Journal::new(), &());
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(report.checked > 0);
}

/// Corpus entry 1 — dropped commit evidence: the second write acked to the
/// client, but its tail stamp never made it. Only the chain-order checker
/// (an acked mutation must show a commit point) may fire.
#[test]
fn dropped_tail_stamp_on_an_acked_write_trips_chain_order_only() {
    let mut traces = clean_base();
    traces[1]
        .hops
        .retain(|h| h.evidence.map(|e| e.role != HopRole::Tail).unwrap_or(true));
    let report = audit(&traces, &Journal::new(), &());
    assert_eq!(kinds(&report.violations), vec![ViolationKind::ChainOrder]);
    assert_eq!(report.violations[0].trace_ids, vec![2]);
}

/// Corpus entry 2 — reordered hops: the tail's stamp carries an earlier
/// time than the head's, i.e. the write's evidence claims tail-before-head
/// propagation. Only the chain-order checker may fire.
#[test]
fn reordered_head_tail_stamps_trip_chain_order_only() {
    let mut traces = clean_base();
    // Swap the head/tail stamp times on write 2 (hops: issue, head, mid,
    // tail, ack at indices 0..5).
    let head_at = traces[1].hops[1].at_ns;
    let tail_at = traces[1].hops[3].at_ns;
    traces[1].hops[1].at_ns = tail_at;
    traces[1].hops[3].at_ns = head_at;
    let report = audit(&traces, &Journal::new(), &());
    assert_eq!(kinds(&report.violations), vec![ViolationKind::ChainOrder]);
    assert_eq!(report.violations[0].trace_ids, vec![2]);
}

/// Corpus entry 3 — a regressed register: a replica's version register
/// reads lower at a later time. Only the per-replica monotonicity checker
/// may fire.
#[test]
fn regressed_register_observation_trips_version_regression_only() {
    let mut traces = clean_base();
    // A later read whose *register* observation at the tail regressed to
    // version 1, while its ack still returns the fresh version (2): the
    // freshness checker has no grounds, only the monotonicity checker does.
    let mut late = read_trace(4, 7, 4_000, 1, true);
    if let Some(e) = &mut late.hops[2].evidence {
        e.seq = 2;
    }
    traces.push(late);
    let report = audit(&traces, &Journal::new(), &());
    assert_eq!(
        kinds(&report.violations),
        vec![ViolationKind::VersionRegression]
    );
    assert_eq!(report.violations[0].observed, (0, 1));
    assert_eq!(report.violations[0].expected, (0, 2));
}

/// Corpus entry 4 — a key lost across repair: a write acked well before the
/// repair span, a post-repair read comes back below it. Only the durability
/// checker may fire (the freshness checker yields to it on post-repair
/// evidence).
#[test]
fn post_repair_version_loss_trips_lost_key_only() {
    let mut journal = Journal::new();
    journal.span("repair", 5_000, 6_000);
    let traces = vec![
        write_trace(1, 7, 1_000, 0, 1, false),
        write_trace(2, 7, 2_000, 1, 2, false),
        // Post-repair read: the key's register lost version 2.
        read_trace(3, 7, 8_000, 1, true),
    ];
    let report = audit(&traces, &journal, &());
    assert_eq!(kinds(&report.violations), vec![ViolationKind::LostKey]);
    let v = &report.violations[0];
    assert_eq!(v.expected, (0, 2));
    assert_eq!(v.observed, (0, 1));
    // The same read *inside* the repair span is judged all the same: a stale
    // read, which the journal annotates with the span it fell in.
    let mid_repair = vec![
        write_trace(1, 7, 1_000, 0, 1, false),
        write_trace(2, 7, 2_000, 1, 2, false),
        read_trace(3, 7, 5_500, 1, true),
    ];
    let report = audit(&mid_repair, &journal, &());
    assert_eq!(kinds(&report.violations), vec![ViolationKind::StaleRead]);
    assert!(report.violations[0].detail.ends_with("(during repair)"));
}

/// Corpus entry 5 — a read–read inversion: a second write is still in
/// flight when one read sees it, and a later read, answered by a replica
/// the write has not reached, returns the version before it. No write was
/// acked in between, so only the read–read order checker may fire.
#[test]
fn a_read_after_a_fresher_read_trips_read_inversion_only() {
    let mut in_flight = write_trace(2, 7, 2_000, 1, 2, false);
    in_flight.hops[4].at_ns = 2_900;
    let mut behind = read_trace(4, 7, 2_300, 1, true);
    behind.hops[1].hop_ip = TAIL_IP + 1;
    let traces = vec![
        write_trace(1, 7, 1_000, 0, 1, false),
        in_flight,
        read_trace(3, 7, 2_100, 2, true),
        behind,
    ];
    let report = audit(&traces, &Journal::new(), &());
    assert_eq!(
        kinds(&report.violations),
        vec![ViolationKind::ReadInversion]
    );
    assert_eq!(report.violations[0].trace_ids, vec![4, 3]);
}

/// Corpus entry 6 — a phantom version: a read returns a version no write
/// produced. It is newer than anything acked, so only the phantom checker
/// may fire.
#[test]
fn a_version_no_write_produced_trips_phantom_version_only() {
    let mut traces = clean_base();
    traces.push(read_trace(4, 7, 4_000, 9, true));
    let report = audit(&traces, &Journal::new(), &());
    assert_eq!(
        kinds(&report.violations),
        vec![ViolationKind::PhantomVersion]
    );
    assert_eq!(report.violations[0].observed, (0, 9));
}
