//! The chain auditor: certifying NetChain's consistency claims from in-band
//! trace evidence instead of trusting them.
//!
//! Every acked write carries a unique per-key version `(session, seq)`, and
//! every read names the version it returned, so per-key linearizability of
//! the client histories is checkable in polynomial time (Gibbons & Korach,
//! 1997). [`audit`] reconstructs each key's history from the clients' issue
//! and ack stamps and checks four conditions, through failover and repair
//! alike:
//!
//! 1. **Freshness** — a read returns at least every version acked before it
//!    issued ([`ViolationKind::StaleRead`]).
//! 2. **Read–read order** — a read returns at least what a read that
//!    completed before it issued returned ([`ViolationKind::ReadInversion`]).
//! 3. **No phantom** — a read's version comes from a write issued before the
//!    read completed ([`ViolationKind::PhantomVersion`]). A write that was
//!    never acked, or was retried, counts as issued with an open end.
//! 4. **Write–write order** — a write acked before another was issued holds
//!    the lower version ([`ViolationKind::WriteOrder`]).
//!
//! A successful CAS is a write; a failed one is a read of the version its
//! head saw. Two hop checks then say *which replica and hop* broke:
//! a replica's register never goes backwards
//! ([`ViolationKind::VersionRegression`]), and an acked mutation shows head
//! and tail evidence in chain order ([`ViolationKind::ChainOrder`]).
//!
//! The verdict reads the traces only. The control-plane [`Journal`]
//! annotates it: each violation names the spans it fell in, and a stale
//! read issued after repair ended, of a write acked before repair began, is
//! relabelled [`ViolationKind::LostKey`]. No span adds or removes a verdict.
//! Traces sample whole keys ([`crate::trace_id`]), so a judged key's
//! history is complete; what reached the auditor without a switch stamp is
//! counted as truncated.
//!
//! Violations are structured ([`Violation`]) and dump as `"violation"`
//! records of a flight dump ([`crate::ArtifactWriter::flight`]), so an
//! offline `chain_audit` run leaves the same kind of artifact trail as a
//! live anomaly. A live run calls [`audit`] once, when the run ends, over
//! its own merged traces and journal; `chain_audit` calls it over an
//! artifact's.

use std::collections::{BTreeMap, HashMap};

use crate::export::Json;
use crate::journal::Journal;
use crate::trace::{EvidenceOp, HopRole, PacketTrace};

/// Which invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A replica's version register for a key went backwards in time.
    VersionRegression,
    /// An acked mutation without head→tail evidence in chain order.
    ChainOrder,
    /// A read returned an older version than a write acked before it issued.
    StaleRead,
    /// A post-repair read lost a version acked before the repair started.
    LostKey,
    /// A read returned an older version than a read completed before it
    /// issued.
    ReadInversion,
    /// A read returned a version no write issued before it completed holds.
    PhantomVersion,
    /// A write holds a version no newer than a write acked before it issued.
    WriteOrder,
}

impl ViolationKind {
    /// Stable label used in reports and flight dumps.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::VersionRegression => "version-regression",
            ViolationKind::ChainOrder => "chain-order",
            ViolationKind::StaleRead => "stale-read",
            ViolationKind::LostKey => "lost-key",
            ViolationKind::ReadInversion => "read-inversion",
            ViolationKind::PhantomVersion => "phantom-version",
            ViolationKind::WriteOrder => "write-order",
        }
    }
}
/// One structured invariant violation: which check failed, on which key,
/// supported by which traces, and the version mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The invariant broken.
    pub kind: ViolationKind,
    /// Fingerprint of the affected key.
    pub key_fp: u32,
    /// Trace IDs supporting the verdict (the violating trace first, then
    /// the witness it conflicts with, when one exists).
    pub trace_ids: Vec<u64>,
    /// The version the invariant demanded (lower bound).
    pub expected: (u64, u64),
    /// The version actually observed.
    pub observed: (u64, u64),
    /// When the violating observation happened (ns, run timebase).
    pub at_ns: u64,
    /// Human-readable one-liner.
    pub detail: String,
}

impl Violation {
    /// The violation as a JSON object (flight dump / report shape).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str(self.kind.label())),
            ("key_fp", Json::U64(u64::from(self.key_fp))),
            (
                "trace_ids",
                Json::Arr(self.trace_ids.iter().map(|&id| Json::U64(id)).collect()),
            ),
            (
                "expected",
                Json::obj(vec![
                    ("session", Json::U64(self.expected.0)),
                    ("seq", Json::U64(self.expected.1)),
                ]),
            ),
            (
                "observed",
                Json::obj(vec![
                    ("session", Json::U64(self.observed.0)),
                    ("seq", Json::U64(self.observed.1)),
                ]),
            ),
            ("at_ns", Json::U64(self.at_ns)),
            ("detail", Json::str(&self.detail)),
        ])
    }

    /// One-line human description.
    pub fn describe(&self) -> String {
        format!(
            "{}: key {:08x} expected >= ({},{}) observed ({},{}) — {}",
            self.kind.label(),
            self.key_fp,
            self.expected.0,
            self.expected.1,
            self.observed.0,
            self.observed.1,
            self.detail,
        )
    }
}

/// The auditor's verdict plus coverage accounting, so "no violations" can be
/// told apart from "nothing was judgeable".
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Traces examined.
    pub traces: usize,
    /// Acked-ok mutations reconstructed.
    pub writes: usize,
    /// Acked-ok reads and failed CASes reconstructed.
    pub reads: usize,
    /// Operations judged: every read, and every mutation with switch stamps.
    pub checked: usize,
    /// Acked mutations and failed CASes whose trace holds no switch-side
    /// stamp: only the client's fragment survives (fragments merged without
    /// [`crate::merge_thinned`]'s cut after a sink thinned).
    pub truncated: usize,
    /// Every violation found, in detection order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when no invariant was broken.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A client-observed operation reconstructed from one trace.
#[derive(Debug, Clone, Copy)]
struct ClientOp {
    trace_id: u64,
    op: EvidenceOp,
    key_fp: u32,
    issued_at: u64,
    /// When it was acked, the version the ack carried and whether its status
    /// was `Ok`; `None` for an op never acked.
    ack: Option<(u64, (u64, u64), bool)>,
}

fn client_op(trace: &PacketTrace) -> Option<ClientOp> {
    let stamp = |role| {
        (trace.hops.iter())
            .find_map(|h| h.evidence.filter(|e| e.role == role).map(|e| (h.at_ns, e)))
    };
    let (issue, ack) = (stamp(HopRole::ClientIssue), stamp(HopRole::ClientAck));
    let (_, e) = issue.or(ack)?;
    Some(ClientOp {
        trace_id: trace.id,
        op: e.op,
        key_fp: e.key_fp,
        // No issue stamp (fragment loss): the earliest stamp.
        issued_at: issue.map_or(trace.hops[0].at_ns, |(at, _)| at),
        ack: ack.map(|(at, e)| (at, e.version(), e.ok)),
    })
}

/// A completed operation in a key's history.
#[derive(Debug, Clone, Copy)]
struct Done {
    trace_id: u64,
    issued_at: u64,
    acked_at: u64,
    version: (u64, u64),
}

/// One key's history: what completed, and since when a write of unknown
/// version (never acked, or retried) may have been applied.
#[derive(Default)]
struct History {
    writes: Vec<Done>,
    reads: Vec<Done>,
    open_since: Option<u64>,
}

/// Ops sorted by ack time, with the newest version among each prefix: the
/// newest version completed before any instant, in one binary search.
struct Floor(Vec<Done>, Vec<Done>);

impl Floor {
    fn new(mut ops: Vec<Done>) -> Self {
        ops.sort_by_key(|o| o.acked_at);
        let newest = ops.iter().scan(None, |max: &mut Option<Done>, &o| {
            *max = Some(max.filter(|m| m.version >= o.version).unwrap_or(o));
            *max
        });
        let newest = newest.collect();
        Floor(ops, newest)
    }

    /// The newest op acked strictly before `at`.
    fn before(&self, at: u64) -> Option<Done> {
        let n = self.0.partition_point(|o| o.acked_at < at);
        n.checked_sub(1).map(|i| self.1[i])
    }
}

fn violation(kind: ViolationKind, key_fp: u32, op: &Done, witness: Option<Done>) -> Violation {
    let (expected, ids) = match witness {
        Some(w) => (w.version, vec![op.trace_id, w.trace_id]),
        None => (op.version, vec![op.trace_id]),
    };
    let detail = match kind {
        ViolationKind::StaleRead => "read returned an older version than write trace",
        ViolationKind::ReadInversion => "read returned an older version than read trace",
        ViolationKind::WriteOrder => "write holds a version no newer than write trace",
        _ => "no write issued before the read completed holds its version",
    };
    let detail = match witness {
        Some(w) => format!(
            "{detail} {} acked {}ns before it issued",
            w.trace_id,
            op.issued_at - w.acked_at
        ),
        None => detail.to_string(),
    };
    Violation {
        kind,
        key_fp,
        trace_ids: ids,
        expected,
        observed: op.version,
        at_ns: op.acked_at,
        detail,
    }
}

impl History {
    /// Checks conditions 1–4 of the module docs.
    fn judge(self, key_fp: u32, report: &mut AuditReport) {
        let mut versions: HashMap<(u64, u64), u64> = HashMap::new();
        for w in &self.writes {
            let issued = versions.entry(w.version).or_insert(w.issued_at);
            *issued = (*issued).min(w.issued_at);
        }
        // What is older than every write the history holds predates it: a
        // dump or a window of a run, or the store's initial (0,0).
        let oldest = versions.keys().min().copied();
        let (writes, reads) = (Floor::new(self.writes), Floor::new(self.reads));
        for w in &writes.0 {
            if let Some(prior) = writes
                .before(w.issued_at)
                .filter(|p| p.version >= w.version)
            {
                let found = violation(ViolationKind::WriteOrder, key_fp, w, Some(prior));
                report.violations.push(found);
            }
        }
        for r in &reads.0 {
            report.checked += 1;
            let older = |floor: &Floor| floor.before(r.issued_at).filter(|p| r.version < p.version);
            let written = match versions.get(&r.version) {
                Some(&issued) => issued < r.acked_at,
                None => self.open_since.is_some_and(|open| open < r.acked_at),
            };
            let found = match (older(&writes), older(&reads)) {
                (Some(w), _) => violation(ViolationKind::StaleRead, key_fp, r, Some(w)),
                (None, Some(p)) => violation(ViolationKind::ReadInversion, key_fp, r, Some(p)),
                _ if written || oldest.is_none_or(|o| r.version < o) => continue,
                _ => violation(ViolationKind::PhantomVersion, key_fp, r, None),
            };
            report.violations.push(found);
        }
    }
}

/// Hop check 1: a replica's version register for a key never goes
/// backwards. Running maximum per (key, replica) over switch observations in
/// time order; a strictly-later observation strictly below it is a
/// regression. Ties in `at_ns` (stage-sliced wave groups share one clock
/// read) are never judged against each other.
fn regressions(traces: &[PacketTrace], violations: &mut Vec<Violation>) {
    // (key_fp, hop_ip, at_ns, version, trace_id) per switch-hop observation.
    type Observation = (u32, u32, u64, (u64, u64), u64);
    let mut observations: Vec<Observation> = Vec::new();
    for t in traces {
        for h in &t.hops {
            // Only observations that actually saw the key: misses and
            // tombstones read as (0,0) and say nothing about ordering.
            if let Some(ev) = h.evidence.filter(|e| e.ok && e.role.on_switch()) {
                observations.push((ev.key_fp, h.hop_ip, h.at_ns, ev.version(), t.id));
            }
        }
    }
    observations.sort_by_key(|&(fp, ip, at, ..)| (fp, ip, at));
    // The newest observation per (key, replica) so far.
    let mut max_seen: HashMap<(u32, u32), Observation> = HashMap::new();
    for o @ (key_fp, hop_ip, at_ns, version, trace_id) in observations {
        let seen = max_seen.entry((key_fp, hop_ip)).or_insert(o);
        if at_ns > seen.2 && version < seen.3 {
            violations.push(Violation {
                kind: ViolationKind::VersionRegression,
                key_fp,
                trace_ids: vec![trace_id, seen.4],
                expected: seen.3,
                observed: version,
                at_ns,
                detail: format!(
                    "replica {} observed the register going backwards",
                    crate::trace::ip_to_string(hop_ip)
                ),
            });
        } else if version > seen.3 {
            *seen = o;
        }
    }
}

/// Hop check 2: an acked mutation shows head and tail evidence (`chain`, its
/// switch stamps up to the ack), the head stamping no later than the tail.
/// Without any switch stamp it is counted truncated instead.
fn chain_order(done: &Done, key_fp: u32, chain: &[(u64, HopRole)], report: &mut AuditReport) {
    if chain.is_empty() {
        report.truncated += 1;
        return;
    }
    report.checked += 1;
    let at = |role: fn(HopRole) -> bool| chain.iter().filter(move |s| role(s.1)).map(|s| s.0);
    let (at_ns, detail) = match (
        at(HopRole::acts_as_head).min(),
        at(HopRole::acts_as_tail).max(),
    ) {
        (Some(head_at), Some(tail_at)) if head_at <= tail_at => return,
        (Some(head_at), Some(tail_at)) => (
            tail_at,
            format!(
                "tail stamped {}ns before the head — hops out of chain order",
                head_at - tail_at
            ),
        ),
        (head_at, tail_at) => {
            let missing = match (head_at, tail_at) {
                (None, None) => "head and tail",
                (None, _) => "head",
                _ => "tail (ack without commit point)",
            };
            let what = format!("acked mutation missing {missing} evidence");
            (done.acked_at, what)
        }
    };
    report.violations.push(Violation {
        kind: ViolationKind::ChainOrder,
        key_fp,
        trace_ids: vec![done.trace_id],
        expected: done.version,
        observed: done.version,
        at_ns,
        detail,
    });
}

/// The verdict, from the traces alone: the two hop checks, then conditions
/// 1–4 over each key's client history.
fn verdict(traces: &[PacketTrace]) -> AuditReport {
    let mut report = AuditReport {
        traces: traces.len(),
        ..AuditReport::default()
    };
    regressions(traces, &mut report.violations);
    // By key, so that violations come out in one order run after run.
    let mut keys: BTreeMap<u32, History> = BTreeMap::new();
    for trace in traces {
        let Some(op) = client_op(trace) else {
            continue;
        };
        let history = keys.entry(op.key_fp).or_default();
        // Switch stamps, in time order: (at, role, version observed, ok).
        let switch: Vec<(u64, HopRole, (u64, u64), bool)> = (trace.hops.iter())
            .filter_map(|h| h.evidence.filter(|e| e.role.on_switch()).map(|e| (h, e)))
            .map(|(h, e)| (h.at_ns, e.role, e.version(), e.ok))
            .collect();
        let mut heads = switch.iter().filter(|s| s.1.acts_as_head());
        // A mutation sent twice, or never acked, may have applied a version
        // no ack names.
        if op.op.is_mutation() && (heads.clone().count() > 1 || op.ack.is_none()) {
            let open = history.open_since.get_or_insert(op.issued_at);
            *open = (*open).min(op.issued_at);
        }
        let Some((acked_at, version, ok)) = op.ack else {
            continue;
        };
        let done = |version| Done {
            trace_id: op.trace_id,
            issued_at: op.issued_at,
            acked_at,
            version,
        };
        match op.op {
            EvidenceOp::Read if ok => {
                report.reads += 1;
                history.reads.push(done(version));
            }
            // A failed CAS reads the version its head compared against.
            EvidenceOp::Cas if !ok => {
                report.reads += 1;
                match heads.rfind(|s| s.0 <= acked_at) {
                    Some(&(_, _, seen, true)) => history.reads.push(done(seen)),
                    Some(_) => {} // the key was missing: nothing was read
                    None => report.truncated += 1,
                }
            }
            mutation if ok && mutation.is_mutation() => {
                report.writes += 1;
                let chain: Vec<(u64, HopRole)> = (switch.iter())
                    .filter(|s| s.0 <= acked_at)
                    .map(|s| (s.0, s.1))
                    .collect();
                chain_order(&done(version), op.key_fp, &chain, &mut report);
                history.writes.push(done(version));
            }
            _ => {}
        }
    }
    for (key_fp, history) in keys {
        history.judge(key_fp, &mut report);
    }
    report
}

/// Audits merged evidence traces, then annotates the verdict with the
/// control-plane `journal` (see the module docs). The `()` has one value:
/// the auditor has no knobs.
pub fn audit(traces: &[PacketTrace], journal: &Journal, _: &()) -> AuditReport {
    let mut report = verdict(traces);
    let spans = journal.spans();
    let repairs = spans.iter().filter(|s| s.name.contains("repair"));
    let repair_start = repairs.clone().map(|s| s.start_ns).min();
    let repair_end = repairs.map(|s| s.end_ns.unwrap_or(u64::MAX)).max();
    let ops: HashMap<u64, ClientOp> = (traces.iter().filter_map(client_op))
        .map(|op| (op.trace_id, op))
        .collect();
    for v in &mut report.violations {
        if let (ViolationKind::StaleRead, &[read, write]) = (v.kind, &v.trace_ids[..]) {
            let issued_after = repair_end.is_some_and(|end| ops[&read].issued_at > end);
            let acked = ops[&write].ack.map(|(at, ..)| at);
            if issued_after
                && acked
                    .zip(repair_start)
                    .is_some_and(|(at, start)| at < start)
            {
                v.kind = ViolationKind::LostKey;
                v.detail = format!(
                    "read issued after repair returned less than the pre-repair acked \
                     version (write trace {write})"
                );
            }
        }
        let during: Vec<&str> = (spans.iter())
            .filter(|s| s.start_ns <= v.at_ns && v.at_ns <= s.end_ns.unwrap_or(u64::MAX))
            .map(|s| s.name.as_str())
            .collect();
        if !during.is_empty() {
            v.detail += &format!(" (during {})", during.join(", "));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::ArtifactWriter;
    use crate::trace::{Evidence, HopStamp};

    fn ev(op: EvidenceOp, role: HopRole, ok: bool, fp: u32, session: u64, seq: u64) -> Evidence {
        Evidence {
            op,
            role,
            ok,
            key_fp: fp,
            session,
            seq,
        }
    }

    fn stamp(ip: u32, at: u64, e: Evidence) -> HopStamp {
        HopStamp {
            hop_ip: ip,
            at_ns: at,
            evidence: Some(e),
        }
    }

    /// A full write trace: issue → head/mid/tail observing `pre` and
    /// applying `next` → ack carrying `next`.
    fn write_trace(id: u64, fp: u32, t: u64, pre: u64, next: u64) -> PacketTrace {
        PacketTrace {
            id,
            hops: vec![
                stamp(
                    1,
                    t,
                    ev(EvidenceOp::Write, HopRole::ClientIssue, true, fp, 0, 0),
                ),
                stamp(
                    11,
                    t + 10,
                    ev(EvidenceOp::Write, HopRole::Head, pre > 0, fp, 0, pre),
                ),
                stamp(
                    12,
                    t + 20,
                    ev(EvidenceOp::Write, HopRole::Replica, pre > 0, fp, 0, pre),
                ),
                stamp(
                    13,
                    t + 30,
                    ev(EvidenceOp::Write, HopRole::Tail, pre > 0, fp, 0, pre),
                ),
                stamp(
                    1,
                    t + 40,
                    ev(EvidenceOp::Write, HopRole::ClientAck, true, fp, 0, next),
                ),
            ],
        }
    }

    fn read_trace(id: u64, fp: u32, t: u64, seen: u64) -> PacketTrace {
        PacketTrace {
            id,
            hops: vec![
                stamp(
                    1,
                    t,
                    ev(EvidenceOp::Read, HopRole::ClientIssue, true, fp, 0, 0),
                ),
                stamp(
                    13,
                    t + 10,
                    ev(EvidenceOp::Read, HopRole::Tail, seen > 0, fp, 0, seen),
                ),
                stamp(
                    1,
                    t + 20,
                    ev(EvidenceOp::Read, HopRole::ClientAck, true, fp, 0, seen),
                ),
            ],
        }
    }

    #[test]
    fn clean_history_passes_every_check() {
        let traces = vec![
            write_trace(1, 7, 1000, 0, 1),
            read_trace(2, 7, 2000, 1),
            write_trace(3, 7, 3000, 1, 2),
            read_trace(4, 7, 4000, 2),
        ];
        let report = audit(&traces, &Journal::new(), &());
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.writes, 2);
        assert_eq!(report.reads, 2);
        assert!(report.checked >= 4);
    }

    #[test]
    fn concurrent_read_may_see_either_side_of_an_unacked_write() {
        // Read issues while the write is in flight (before its ack): both
        // the old and the new version are legal.
        let w = write_trace(1, 7, 1000, 1, 2);
        for seen in [1u64, 2] {
            let r = read_trace(2, 7, 1020, seen); // issued before ack at 1040
            let report = audit(&[w.clone(), r], &Journal::new(), &());
            assert!(report.is_clean(), "seen={seen}: {:?}", report.violations);
        }
    }

    #[test]
    fn stale_read_is_flagged_with_witness() {
        let traces = vec![
            write_trace(1, 7, 1000, 1, 2),
            read_trace(2, 7, 2000, 1), // write acked at 1040, read issued 2000
        ];
        let report = audit(&traces, &Journal::new(), &());
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.kind, ViolationKind::StaleRead);
        assert_eq!(v.trace_ids, vec![2, 1]);
        assert_eq!(v.expected, (0, 2));
        assert_eq!(v.observed, (0, 1));
    }

    #[test]
    fn version_regression_per_replica_is_flagged() {
        // Two reads against the same tail after a write of 5: the register
        // goes 5 then 3, while both acks return 5.
        let mut late = read_trace(3, 9, 2000, 3);
        late.hops[2].evidence.as_mut().unwrap().seq = 5;
        let traces = vec![
            write_trace(1, 9, 100, 0, 5),
            read_trace(2, 9, 1000, 5),
            late,
        ];
        let report = audit(&traces, &Journal::new(), &());
        // The client history is clean, so only the replica invariant fires.
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::VersionRegression);
    }

    #[test]
    fn simultaneous_observations_are_never_judged_against_each_other() {
        // Same at_ns (one wave-group clock read), different versions: legal.
        let a = PacketTrace {
            id: 1,
            hops: vec![stamp(
                13,
                500,
                ev(EvidenceOp::Read, HopRole::Tail, true, 9, 0, 5),
            )],
        };
        let b = PacketTrace {
            id: 2,
            hops: vec![stamp(
                13,
                500,
                ev(EvidenceOp::Read, HopRole::Tail, true, 9, 0, 3),
            )],
        };
        let report = audit(&[a, b], &Journal::new(), &());
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn transitions_annotate_rather_than_suppress() {
        let mut journal = Journal::new();
        journal.span("repair", 1_500, 3_000);
        let traces = vec![
            write_trace(1, 7, 1000, 1, 2),
            read_trace(2, 7, 2000, 1), // issued inside the repair span
        ];
        let report = audit(&traces, &journal, &());
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.kind, ViolationKind::StaleRead);
        assert!(v.detail.ends_with("(during repair)"), "{}", v.detail);
        // The journal named the span; the verdict is the journal-free one.
        let bare = audit(&traces, &Journal::new(), &()).violations;
        assert_eq!(bare.len(), 1);
        assert_eq!(
            (bare[0].kind, bare[0].trace_ids.clone()),
            (v.kind, v.trace_ids.clone())
        );
    }

    #[test]
    fn a_write_ordered_below_an_earlier_ack_is_flagged() {
        // The second write issued after the first was acked, yet holds the
        // lower version.
        let traces = vec![write_trace(1, 7, 1000, 0, 2), write_trace(2, 7, 2000, 0, 1)];
        let report = audit(&traces, &Journal::new(), &());
        let kinds: Vec<ViolationKind> = report.violations.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, [ViolationKind::WriteOrder]);
        assert_eq!(report.violations[0].trace_ids, vec![2, 1]);
    }

    #[test]
    fn a_write_with_no_switch_stamp_is_counted_truncated_not_judged() {
        // What a full shard sink leaves: the client's issue and ack only.
        let mut clipped = write_trace(1, 7, 1000, 1, 2);
        clipped.hops.retain(|h| h.hop_ip == 1);
        let report = audit(&[clipped], &Journal::new(), &());
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!((report.writes, report.checked, report.truncated), (1, 0, 1));
    }

    #[test]
    fn an_ack_stamped_before_its_tail_is_a_chain_order_violation() {
        // The commit point must precede the ack on the shared clock: a tail
        // stamp later than the ack is not evidence for that ack.
        let mut early_ack = write_trace(1, 7, 1000, 1, 2);
        early_ack.hops[4].at_ns = 1025; // tail stamped at 1030
        let report = audit(&[early_ack], &Journal::new(), &());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::ChainOrder);
        assert!(report.violations[0].detail.contains("missing tail"));
    }

    #[test]
    fn lost_key_is_distinguished_from_stale_read_after_repair() {
        let mut journal = Journal::new();
        journal.span("repair", 5_000, 6_000);
        let traces = vec![
            write_trace(1, 7, 1000, 1, 2), // acked well before repair
            read_trace(2, 7, 8_000, 1),    // issued well after repair end
        ];
        let report = audit(&traces, &journal, &());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::LostKey);
    }

    #[test]
    fn violations_dump_through_the_flight_recorder() {
        let traces = vec![write_trace(1, 7, 1000, 1, 2), read_trace(2, 7, 2000, 1)];
        let report = audit(&traces, &Journal::new(), &());
        let mut dump = ArtifactWriter::flight("audit");
        for v in &report.violations {
            dump.record("violation", vec![("violation", v.to_json())]);
        }
        let text = dump.to_jsonl();
        assert!(text.starts_with("{\"record\":\"violation\""));
        assert!(text.contains("\"stale-read\""));
        let line = text.lines().next().unwrap();
        let parsed = Json::parse(line).unwrap();
        assert_eq!(
            parsed.get("violation.expected.seq").and_then(Json::as_f64),
            Some(2.0)
        );
    }
}
