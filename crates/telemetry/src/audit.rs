//! The chain auditor: certifying NetChain's consistency claims from in-band
//! trace evidence instead of trusting them.
//!
//! The telemetry layer can already say *where* a sampled packet went (hop
//! traces) and *when* control-plane phases ran (the [`Journal`]). With
//! [`Evidence`]-carrying stamps it also knows *what each hop observed*: the
//! op, a key fingerprint, and the per-key version register `(session, seq)`
//! at the hop. [`audit`] reconstructs per-key version histories from merged
//! traces and checks the invariants chain replication promises:
//!
//! 1. **Version monotonicity per replica** — the version register a given
//!    switch holds for a given key never goes backwards. Sequence checks
//!    (Algorithm 1 line 13) drop stale writes, and repair imports only move
//!    versions forward, so any strictly-later, strictly-lower observation is
//!    a real violation ([`ViolationKind::VersionRegression`]).
//! 2. **Chain order** — an acknowledged mutation must show head and tail
//!    evidence, in chain order: the head (sequence assigner) stamps no later
//!    than the tail (reply generator). An ack without tail evidence means a
//!    client was told "committed" by something other than the commit point
//!    ([`ViolationKind::ChainOrder`]).
//! 3. **Read freshness** — a read must return at least the highest version
//!    whose write was acknowledged before the read issued
//!    ([`ViolationKind::StaleRead`]). Reads or writes whose windows overlap
//!    a journal failover/repair span are suppressed rather than judged:
//!    Algorithms 2/3 intentionally shrink and rebuild chains there, and the
//!    per-op evidence is not enough to adjudicate mid-transition races.
//! 4. **Durability across repair** — a read issued *after* repair finished
//!    returning less than the highest version acked *before* repair started
//!    means an acked write's version vanished across the repair
//!    ([`ViolationKind::LostKey`]).
//!
//! Violations are structured ([`Violation`]) and dump as `"violation"`
//! records of a flight dump ([`crate::ArtifactWriter::flight`]), so an
//! offline `chain_audit` run leaves the same kind of artifact trail as a
//! live anomaly.
//!
//! [`audit`] is the one judge. A live run calls it once, when the run ends,
//! over the run's own merged traces and journal; `chain_audit` calls it over
//! an artifact's. Its blind spots are stated in its [`AuditReport`]: what a
//! journal span suppressed, and what reached it without a switch stamp
//! (truncated).

use std::collections::HashMap;

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
}

impl ViolationKind {
    /// Stable label used in reports and flight dumps.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::VersionRegression => "version-regression",
            ViolationKind::ChainOrder => "chain-order",
            ViolationKind::StaleRead => "stale-read",
            ViolationKind::LostKey => "lost-key",
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

/// Tuning knobs of the offline auditor.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Journal spans are widened by this much on both sides before overlap
    /// tests, absorbing clock jitter between the control plane's timestamps
    /// and the dataplane's stamps.
    pub span_slack_ns: u64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            span_slack_ns: 1_000_000, // 1 ms
        }
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
    /// Acked-ok reads reconstructed.
    pub reads: usize,
    /// Reads/mutations actually judged (not suppressed, evidence complete).
    pub checked: usize,
    /// Operations skipped because their window overlapped a widened
    /// failover/repair span.
    pub suppressed: usize,
    /// Acked mutations that could not be judged because their trace holds no
    /// switch-side stamp: only the client's fragment survives (fragments
    /// merged without [`crate::merge_thinned`]'s cut after a sink thinned).
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
    acked_at: u64,
    /// Version the ack carried.
    version: (u64, u64),
    /// Ack status was `Ok`.
    ok: bool,
}

fn client_op(trace: &PacketTrace) -> Option<ClientOp> {
    let issue = trace.hops.iter().find_map(|h| {
        h.evidence
            .filter(|e| e.role == HopRole::ClientIssue)
            .map(|e| (h.at_ns, e))
    });
    let ack = trace.hops.iter().find_map(|h| {
        h.evidence
            .filter(|e| e.role == HopRole::ClientAck)
            .map(|e| (h.at_ns, e))
    })?;
    let (issued_at, op, key_fp) = match issue {
        Some((at, e)) => (at, e.op, e.key_fp),
        // No issue stamp (fragment loss): fall back to the ack's own fields
        // and the earliest stamp time.
        None => (
            trace.hops.first().map(|h| h.at_ns).unwrap_or(ack.0),
            ack.1.op,
            ack.1.key_fp,
        ),
    };
    Some(ClientOp {
        trace_id: trace.id,
        op,
        key_fp,
        issued_at,
        acked_at: ack.0,
        version: ack.1.version(),
        ok: ack.1.ok,
    })
}

/// Inclusive interval overlap against a widened set of spans.
fn overlaps_any(windows: &[(u64, u64)], start: u64, end: u64) -> bool {
    windows.iter().any(|&(s, e)| start <= e && s <= end)
}

fn widened_spans(journal: &Journal, slack: u64) -> Vec<(u64, u64)> {
    journal
        .spans()
        .iter()
        .map(|s| {
            (
                s.start_ns.saturating_sub(slack),
                s.end_ns.unwrap_or(u64::MAX).saturating_add(slack),
            )
        })
        .collect()
}

/// Audits merged evidence traces against the control-plane journal. See the
/// module docs for the four invariants checked.
pub fn audit(traces: &[PacketTrace], journal: &Journal, config: &AuditConfig) -> AuditReport {
    let mut report = AuditReport {
        traces: traces.len(),
        ..AuditReport::default()
    };
    let suppress = widened_spans(journal, config.span_slack_ns);
    let repair_spans: Vec<(u64, u64)> = journal
        .spans()
        .iter()
        .filter(|s| s.name.contains("repair"))
        .map(|s| (s.start_ns, s.end_ns.unwrap_or(u64::MAX)))
        .collect();
    let repair_start = repair_spans.iter().map(|&(s, _)| s).min();
    let repair_end = repair_spans.iter().map(|&(_, e)| e).max();

    // ---- Invariant 1: versions monotone per (key, replica). -------------
    // Running maximum per (key_fp, hop_ip) over switch-hop observations in
    // time order; a strictly-later observation strictly below the maximum is
    // a regression. Ties in at_ns (stage-sliced wave groups share one clock
    // read) are never judged against each other.
    #[derive(Clone, Copy)]
    struct SeenMax {
        version: (u64, u64),
        at_ns: u64,
        trace_id: u64,
    }
    // (key_fp, hop_ip, at_ns, version, trace_id) per switch-hop observation.
    type Observation = (u32, u32, u64, (u64, u64), u64);
    let mut observations: Vec<Observation> = Vec::new();
    for t in traces {
        for h in &t.hops {
            if let Some(ev) = &h.evidence {
                let switch_role = matches!(
                    ev.role,
                    HopRole::Head | HopRole::Replica | HopRole::Tail | HopRole::Solo
                );
                // Only observations that actually saw the key: misses and
                // tombstones read as (0,0) and say nothing about ordering.
                if switch_role && ev.ok {
                    observations.push((ev.key_fp, h.hop_ip, h.at_ns, ev.version(), t.id));
                }
            }
        }
    }
    observations.sort_by_key(|&(fp, ip, at, ..)| (fp, ip, at));
    let mut max_seen: HashMap<(u32, u32), SeenMax> = HashMap::new();
    for (key_fp, hop_ip, at_ns, version, trace_id) in observations {
        match max_seen.get_mut(&(key_fp, hop_ip)) {
            Some(seen) => {
                if at_ns > seen.at_ns && version < seen.version {
                    report.violations.push(Violation {
                        kind: ViolationKind::VersionRegression,
                        key_fp,
                        trace_ids: vec![trace_id, seen.trace_id],
                        expected: seen.version,
                        observed: version,
                        at_ns,
                        detail: format!(
                            "replica {} observed the register going backwards",
                            crate::trace::ip_to_string(hop_ip)
                        ),
                    });
                } else if version > seen.version {
                    *seen = SeenMax {
                        version,
                        at_ns,
                        trace_id,
                    };
                }
            }
            None => {
                max_seen.insert(
                    (key_fp, hop_ip),
                    SeenMax {
                        version,
                        at_ns,
                        trace_id,
                    },
                );
            }
        }
    }

    // ---- Reconstruct client-visible operations. -------------------------
    let mut ops: Vec<(&PacketTrace, ClientOp)> = traces
        .iter()
        .filter_map(|t| client_op(t).map(|op| (t, op)))
        .collect();
    ops.sort_by_key(|(_, op)| op.acked_at);

    // Acked-ok mutation history per key, in ack order.
    #[derive(Clone, Copy)]
    struct AckedWrite {
        acked_at: u64,
        version: (u64, u64),
        trace_id: u64,
        deleted: bool,
    }
    let mut writes: HashMap<u32, Vec<AckedWrite>> = HashMap::new();
    for (_, op) in &ops {
        if op.op.is_mutation() && op.ok {
            report.writes += 1;
            writes.entry(op.key_fp).or_default().push(AckedWrite {
                acked_at: op.acked_at,
                version: op.version,
                trace_id: op.trace_id,
                deleted: op.op == EvidenceOp::Delete,
            });
        }
    }

    for (trace, op) in &ops {
        if !op.ok {
            continue;
        }
        let in_transition = overlaps_any(&suppress, op.issued_at, op.acked_at);

        if op.op.is_mutation() {
            // ---- Invariant 2: head→tail coverage and order. -------------
            if in_transition {
                report.suppressed += 1;
                continue;
            }
            let chain: Vec<(u64, HopRole)> = trace
                .hops
                .iter()
                .filter(|h| h.at_ns <= op.acked_at)
                .filter_map(|h| {
                    h.evidence
                        .as_ref()
                        .map(|e| (h.at_ns, e.role))
                        .filter(|(_, r)| {
                            matches!(
                                r,
                                HopRole::Head | HopRole::Replica | HopRole::Tail | HopRole::Solo
                            )
                        })
                })
                .collect();
            if chain.is_empty() {
                // No switch-side fragment (merged without the cut after a
                // sink thinned); nothing to judge, but say how much went
                // unjudged.
                report.truncated += 1;
                continue;
            }
            report.checked += 1;
            let first_head = chain
                .iter()
                .filter(|(_, r)| r.acts_as_head())
                .map(|&(at, _)| at)
                .min();
            let last_tail = chain
                .iter()
                .filter(|(_, r)| r.acts_as_tail())
                .map(|&(at, _)| at)
                .max();
            match (first_head, last_tail) {
                (Some(head_at), Some(tail_at)) => {
                    if head_at > tail_at {
                        report.violations.push(Violation {
                            kind: ViolationKind::ChainOrder,
                            key_fp: op.key_fp,
                            trace_ids: vec![op.trace_id],
                            expected: op.version,
                            observed: op.version,
                            at_ns: tail_at,
                            detail: format!(
                                "tail stamped {}ns before the head — hops out of chain order",
                                head_at - tail_at
                            ),
                        });
                    }
                }
                _ => {
                    report.violations.push(Violation {
                        kind: ViolationKind::ChainOrder,
                        key_fp: op.key_fp,
                        trace_ids: vec![op.trace_id],
                        expected: op.version,
                        observed: op.version,
                        at_ns: op.acked_at,
                        detail: format!(
                            "acked mutation missing {} evidence",
                            match (first_head, last_tail) {
                                (None, None) => "head and tail",
                                (None, _) => "head",
                                _ => "tail (ack without commit point)",
                            }
                        ),
                    });
                }
            }
        } else if op.op == EvidenceOp::Read {
            // ---- Invariants 3 and 4: freshness and durability. ----------
            report.reads += 1;
            if in_transition {
                report.suppressed += 1;
                continue;
            }
            let history = writes.get(&op.key_fp).map(Vec::as_slice).unwrap_or(&[]);
            let acked_before: Vec<&AckedWrite> = history
                .iter()
                .filter(|w| w.acked_at < op.issued_at)
                .collect();
            // A tombstone newer than every surviving write makes any read
            // result legal for this simple model; skip.
            if let Some(latest) = acked_before.iter().max_by_key(|w| w.acked_at) {
                if latest.deleted {
                    continue;
                }
            }
            report.checked += 1;
            let floor = acked_before
                .iter()
                .filter(|w| !w.deleted)
                .max_by_key(|w| w.version);
            if let Some(expect) = floor {
                if op.version < expect.version {
                    let post_repair = matches!(repair_end, Some(end) if op.issued_at > end.saturating_add(config.span_slack_ns));
                    let pre_repair_write = matches!(repair_start, Some(start) if expect.acked_at < start.saturating_sub(config.span_slack_ns));
                    let kind = if post_repair && pre_repair_write {
                        ViolationKind::LostKey
                    } else {
                        ViolationKind::StaleRead
                    };
                    report.violations.push(Violation {
                        kind,
                        key_fp: op.key_fp,
                        trace_ids: vec![op.trace_id, expect.trace_id],
                        expected: expect.version,
                        observed: op.version,
                        at_ns: op.acked_at,
                        detail: match kind {
                            ViolationKind::LostKey => format!(
                                "read issued after repair returned less than the \
                                 pre-repair acked version (write trace {})",
                                expect.trace_id
                            ),
                            _ => format!(
                                "read returned an older version than write trace {} \
                                 acked {}ns before the read issued",
                                expect.trace_id,
                                op.issued_at.saturating_sub(expect.acked_at)
                            ),
                        },
                    });
                }
            }
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
        let report = audit(&traces, &Journal::new(), &AuditConfig::default());
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
            let report = audit(&[w.clone(), r], &Journal::new(), &AuditConfig::default());
            assert!(report.is_clean(), "seen={seen}: {:?}", report.violations);
        }
    }

    #[test]
    fn stale_read_is_flagged_with_witness() {
        let traces = vec![
            write_trace(1, 7, 1000, 1, 2),
            read_trace(2, 7, 2000, 1), // write acked at 1040, read issued 2000
        ];
        let report = audit(&traces, &Journal::new(), &AuditConfig::default());
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.kind, ViolationKind::StaleRead);
        assert_eq!(v.trace_ids, vec![2, 1]);
        assert_eq!(v.expected, (0, 2));
        assert_eq!(v.observed, (0, 1));
    }

    #[test]
    fn version_regression_per_replica_is_flagged() {
        // Two reads against the same tail: the register goes 5 then 3.
        let traces = vec![read_trace(1, 9, 1000, 5), read_trace(2, 9, 2000, 3)];
        let report = audit(&traces, &Journal::new(), &AuditConfig::default());
        // The read-freshness checker has no acked writes to hold these
        // against, so only the replica invariant fires.
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
        let report = audit(&[a, b], &Journal::new(), &AuditConfig::default());
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn transitions_suppress_rather_than_judge() {
        let mut journal = Journal::new();
        journal.span("repair", 1_500, 3_000);
        let traces = vec![
            write_trace(1, 7, 1000, 1, 2),
            read_trace(2, 7, 2000, 1), // issued inside the repair span
        ];
        let report = audit(&traces, &journal, &AuditConfig { span_slack_ns: 0 });
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn a_write_with_no_switch_stamp_is_counted_truncated_not_judged() {
        // What a full shard sink leaves: the client's issue and ack only.
        let mut clipped = write_trace(1, 7, 1000, 1, 2);
        clipped.hops.retain(|h| h.hop_ip == 1);
        let report = audit(&[clipped], &Journal::new(), &AuditConfig::default());
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!((report.writes, report.checked, report.truncated), (1, 0, 1));
    }

    #[test]
    fn an_ack_stamped_before_its_tail_is_a_chain_order_violation() {
        // The commit point must precede the ack on the shared clock: a tail
        // stamp later than the ack is not evidence for that ack.
        let mut early_ack = write_trace(1, 7, 1000, 1, 2);
        early_ack.hops[4].at_ns = 1025; // tail stamped at 1030
        let report = audit(&[early_ack], &Journal::new(), &AuditConfig::default());
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
        let report = audit(&traces, &journal, &AuditConfig { span_slack_ns: 100 });
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::LostKey);
    }

    #[test]
    fn violations_dump_through_the_flight_recorder() {
        let traces = vec![write_trace(1, 7, 1000, 1, 2), read_trace(2, 7, 2000, 1)];
        let report = audit(&traces, &Journal::new(), &AuditConfig::default());
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
