//! In-band per-hop tracing in the spirit of P4 INT (in-band network
//! telemetry).
//!
//! Real INT switches append per-hop metadata to the packet itself. This repo
//! keeps the wire format untouched by exploiting what every NetChain packet
//! already carries end-to-end: the key, the client's source IP and the query
//! `request_id`. From those the client and every switch/shard compute the
//! same trace ID independently ([`trace_id`]) — the packet *is* the trace
//! carrier, no extra header bytes needed. Each hop that handles a sampled
//! packet stamps `(hop ip, timestamp)` into a local [`TraceSink`]; sinks are
//! merged after the run and summarised into per-hop-transition latency
//! breakdowns.
//!
//! Sampling is deterministic: a packet is traced iff the low `shift` bits of
//! its trace ID are zero, so independent observers (sim client, sim
//! switches, fabric shards) agree on which packets are sampled without
//! coordination. Those low bits are the key's, so a sink keeps or drops a
//! key's every op together, and the auditor gets whole per-key histories. A
//! sink that fills thins itself; [`merge_thinned`] cuts a run's fragments to
//! the coarsest shift its sinks reached.

use std::collections::HashMap;

use crate::hist::{HistSnapshot, LatencyHistogram, Quantiles};

/// Sampling knobs for in-band tracing. `Copy` so it can ride on
/// `FabricConfig` without ceremony.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch; when false no tracing code runs at all.
    pub enabled: bool,
    /// A sink starts at 1 key in `2^sample_shift`, and every query on it
    /// (0: every packet).
    pub sample_shift: u32,
    /// Traces held (finished and open) at which a sink halves its sampling
    /// and drops what no longer matches; bounds memory on long runs, short
    /// of the history of the last keys a sink holds, which it keeps whole.
    pub max_traces: usize,
}

impl TraceConfig {
    /// Tracing disabled; the fast path stays untouched.
    pub const OFF: TraceConfig = TraceConfig {
        enabled: false,
        sample_shift: 0,
        max_traces: 0,
    };

    /// Trace 1 key in `2^shift`, thinning at `max_traces` held.
    pub const fn sampled(shift: u32, max_traces: usize) -> Self {
        TraceConfig {
            enabled: true,
            sample_shift: shift,
            max_traces,
        }
    }
}

/// The bits of an id that must be zero for `shift` to sample it.
#[inline]
fn low_bits(shift: u32) -> u64 {
    (1u64 << shift) - 1
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::OFF
    }
}

/// Trace-ID bits taken from the key: a sampling shift up to this many keeps
/// or drops keys, not ops.
const KEY_BITS: u32 = 16;

/// Derives the trace ID of the query `(src_ip, request_id)` on the key whose
/// stable hash is `key_hash`. The low [`KEY_BITS`] bits are the key's
/// fingerprint's, so sampling on low bits picks whole keys; the high bits
/// mix the two in-band fields (splitmix64) to tell the key's queries apart.
#[inline]
pub fn trace_id(src_ip: u32, request_id: u64, key_hash: u64) -> u64 {
    let mut z = (u64::from(src_ip) << 32) ^ request_id;
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z = z ^ (z >> 31);
    (z << KEY_BITS) | u64::from(key_fingerprint(key_hash)) & low_bits(KEY_BITS)
}

/// The operation class a hop observed, as recorded in [`Evidence`]. Coarser
/// than the wire `OpCode` (replies fold onto their query op) so the
/// telemetry crate stays dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvidenceOp {
    /// A read query (or its reply).
    Read,
    /// A write or insert.
    Write,
    /// A compare-and-swap.
    Cas,
    /// A delete.
    Delete,
    /// Anything else (stat probes, unknown future ops).
    Other,
}

impl EvidenceOp {
    /// Short wire label used in trace exports.
    pub fn label(self) -> &'static str {
        match self {
            EvidenceOp::Read => "read",
            EvidenceOp::Write => "write",
            EvidenceOp::Cas => "cas",
            EvidenceOp::Delete => "delete",
            EvidenceOp::Other => "other",
        }
    }

    /// Inverse of [`EvidenceOp::label`]; unknown labels map to `Other` so
    /// newer producers stay readable.
    pub fn from_label(s: &str) -> Self {
        match s {
            "read" => EvidenceOp::Read,
            "write" => EvidenceOp::Write,
            "cas" => EvidenceOp::Cas,
            "delete" => EvidenceOp::Delete,
            _ => EvidenceOp::Other,
        }
    }

    /// True for ops that mutate chain state (write/CAS/delete).
    pub fn is_mutation(self) -> bool {
        matches!(
            self,
            EvidenceOp::Write | EvidenceOp::Cas | EvidenceOp::Delete
        )
    }
}

/// Where in the chain a stamped hop sat when it observed the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HopRole {
    /// The client, at query issue time.
    ClientIssue,
    /// The chain head (first hop of a mutation; assigns the sequence).
    Head,
    /// A mid-chain replica.
    Replica,
    /// The chain tail (generates the reply).
    Tail,
    /// A single-switch chain: head and tail at once.
    Solo,
    /// The client, at reply-absorption time.
    ClientAck,
}

impl HopRole {
    /// Short wire label used in trace exports.
    pub fn label(self) -> &'static str {
        match self {
            HopRole::ClientIssue => "issue",
            HopRole::Head => "head",
            HopRole::Replica => "mid",
            HopRole::Tail => "tail",
            HopRole::Solo => "solo",
            HopRole::ClientAck => "ack",
        }
    }

    /// Inverse of [`HopRole::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "issue" => HopRole::ClientIssue,
            "head" => HopRole::Head,
            "mid" => HopRole::Replica,
            "tail" => HopRole::Tail,
            "solo" => HopRole::Solo,
            "ack" => HopRole::ClientAck,
            _ => return None,
        })
    }

    /// Chain position of a switch handling a query, derived from fields the
    /// packet already carries. Reads are answered wherever they are
    /// addressed (any remaining chain hops are failover alternates, not a
    /// forwarding path), so every read hop is a tail. For mutations, no
    /// sequence assigned yet means the hop is the head, and an empty
    /// remaining chain means it generates the reply (tail). Every execution
    /// mode derives roles through this one function so the auditor sees
    /// consistent evidence.
    pub fn for_query(is_mutation: bool, seq_is_zero: bool, chain_is_empty: bool) -> HopRole {
        if !is_mutation {
            return HopRole::Tail;
        }
        match (seq_is_zero, chain_is_empty) {
            (true, true) => HopRole::Solo,
            (true, false) => HopRole::Head,
            (false, true) => HopRole::Tail,
            (false, false) => HopRole::Replica,
        }
    }

    /// True if this hop could have been the chain head (sequence assigner).
    pub fn acts_as_head(self) -> bool {
        matches!(self, HopRole::Head | HopRole::Solo)
    }

    /// True if this hop could have been the chain tail (reply generator).
    pub fn acts_as_tail(self) -> bool {
        matches!(self, HopRole::Tail | HopRole::Solo)
    }

    /// True for a switch's stamp, false for the client's.
    pub fn on_switch(self) -> bool {
        !matches!(self, HopRole::ClientIssue | HopRole::ClientAck)
    }
}

/// Reduces a 64-bit stable key hash to the 32-bit fingerprint carried in
/// [`Evidence`]. FNV-1a hashes of sequential keys differ in few, correlated
/// bits, and a plain xor-fold of the halves lets them cancel (it collided on
/// 6 of `Key::from_u64(0..4096)`, which the auditors then read as one key
/// with two histories). The hash goes through an avalanche finaliser
/// (MurmurHash3's `fmix64`) first, so every input bit reaches every output
/// bit before the truncation.
#[inline]
pub fn key_fingerprint(stable_hash: u64) -> u32 {
    let mut h = stable_hash;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h as u32
}

/// What a hop semantically observed when it stamped a sampled packet: the
/// operation, which key it touched (as a fingerprint), and the value of the
/// per-key version register `(session, seq)` at that hop *before* the
/// operation executed. Client stamps instead carry the version the reply
/// returned (ack) or zeros (issue). This is the payload the chain auditor
/// reconstructs per-key version histories from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evidence {
    /// Operation class.
    pub op: EvidenceOp,
    /// Chain position of the stamping hop.
    pub role: HopRole,
    /// Switch hops: the key was present (register slot valid). Client ack:
    /// the reply status was `Ok`.
    pub ok: bool,
    /// 32-bit fingerprint of the key ([`key_fingerprint`]).
    pub key_fp: u32,
    /// Session half of the observed version register.
    pub session: u64,
    /// Sequence half of the observed version register.
    pub seq: u64,
}

impl Evidence {
    /// The observed version as the lexicographic `(session, seq)` tuple the
    /// chain orders writes by.
    #[inline]
    pub fn version(&self) -> (u64, u64) {
        (self.session, self.seq)
    }
}

/// One timestamped visit to a hop. The hop is identified by the big-endian
/// `u32` form of its IPv4 address (unit-friendly: no dependency on the wire
/// crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopStamp {
    /// Hop identity (IPv4 address as big-endian u32).
    pub hop_ip: u32,
    /// Stamp time in nanoseconds (sim time or wall-clock since run start).
    pub at_ns: u64,
    /// Semantic payload, when the stamping hop recorded one. Plain
    /// `(ip, time)` stamps (schema-1 producers, transit hops) carry `None`.
    pub evidence: Option<Evidence>,
}

impl HopStamp {
    /// A bare stamp with no evidence payload.
    pub fn plain(hop_ip: u32, at_ns: u64) -> Self {
        HopStamp {
            hop_ip,
            at_ns,
            evidence: None,
        }
    }
}

/// The recorded path of one sampled query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketTrace {
    /// The mixed trace ID.
    pub id: u64,
    /// Hops in stamp order, client-issue first.
    pub hops: Vec<HopStamp>,
}

impl PacketTrace {
    /// The hop IPs in visit order (the "chain order" of the trace).
    pub fn path(&self) -> Vec<u32> {
        self.hops.iter().map(|h| h.hop_ip).collect()
    }
}

/// A per-owner (client, shard, or switch) trace recorder. Stamping a trace
/// ID that has not been seen yet begins it implicitly, so every observer can
/// stamp unconditionally for sampled IDs. It holds at most `max_traces`, or
/// whole the keys one more bit of shift would all drop.
#[derive(Debug)]
pub struct TraceSink {
    config: TraceConfig,
    /// The shift the sink samples at: the config's until it first fills.
    shift: u32,
    active: HashMap<u64, PacketTrace>,
    done: Vec<PacketTrace>,
}

impl TraceSink {
    /// Creates a sink with the given sampling config.
    pub fn new(config: TraceConfig) -> Self {
        TraceSink {
            config,
            shift: config.sample_shift,
            active: HashMap::new(),
            done: Vec::new(),
        }
    }

    /// The shift the sink samples at now, which every trace it holds matches.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Whether `id` should be stamped at all.
    #[inline]
    pub fn samples(&self, id: u64) -> bool {
        self.config.enabled && id & low_bits(self.shift) == 0
    }

    /// Records a hop visit for `id` (no-op if the ID is not sampled).
    #[inline]
    pub fn stamp(&mut self, id: u64, hop_ip: u32, at_ns: u64) {
        self.push(id, HopStamp::plain(hop_ip, at_ns));
    }

    /// Records a hop visit carrying semantic [`Evidence`]. Callers should
    /// check [`TraceSink::samples`] first and only then pay for gathering the
    /// evidence (register reads, key hashing) — this keeps unsampled packets
    /// free even with tracing on.
    #[inline]
    pub fn stamp_with(&mut self, id: u64, hop_ip: u32, at_ns: u64, evidence: Evidence) {
        self.push(
            id,
            HopStamp {
                hop_ip,
                at_ns,
                evidence: Some(evidence),
            },
        );
    }

    /// Moves the first stamp of open trace `id` to `at_ns`, for an observer
    /// that stamped a provisional time and learned the exact one later.
    pub fn retime_first(&mut self, id: u64, at_ns: u64) {
        if !self.samples(id) {
            return;
        }
        if let Some(first) = self.active.get_mut(&id).and_then(|t| t.hops.first_mut()) {
            first.at_ns = at_ns;
        }
    }

    #[inline]
    fn push(&mut self, id: u64, stamp: HopStamp) {
        // Beginning one more trace in a full sink thins it first: one more
        // key bit of shift, dropping every held trace it no longer selects,
        // `id` perhaps among them. A bit that would drop every key held, or
        // one past the key's, stops the thinning instead: a key's history is
        // kept whole or not at all.
        while self.samples(id)
            && self.active.len() + self.done.len() >= self.config.max_traces
            && !self.active.contains_key(&id)
        {
            let mask = low_bits(self.shift + 1);
            let kept = |id: &u64| id & mask == 0;
            if self.shift == KEY_BITS
                || !(self.done.iter().any(|t| kept(&t.id)) || self.active.keys().any(kept))
            {
                self.config.max_traces = usize::MAX;
                break;
            }
            self.shift += 1;
            self.done.retain(|t| kept(&t.id));
            self.active.retain(|id, _| kept(id));
        }
        if !self.samples(id) {
            return;
        }
        self.active
            .entry(id)
            .or_insert_with(|| PacketTrace {
                id,
                hops: Vec::with_capacity(4),
            })
            .hops
            .push(stamp);
    }

    /// Marks `id` complete, moving it to the finished set. Free for an
    /// unsampled id, which `active` can never hold.
    pub fn finish(&mut self, id: u64) {
        if !self.samples(id) {
            return;
        }
        if let Some(trace) = self.active.remove(&id) {
            self.done.push(trace);
        }
    }

    /// Drains everything recorded so far — finished traces first, then any
    /// still-open ones (useful at end of run when replies raced shutdown).
    pub fn drain(&mut self) -> Vec<PacketTrace> {
        let mut out = std::mem::take(&mut self.done);
        let mut open: Vec<PacketTrace> = self.active.drain().map(|(_, t)| t).collect();
        open.sort_by_key(|t| t.id);
        out.extend(open);
        out
    }

    /// Takes only the *completed* traces, leaving still-open ones in place.
    /// A long-running owner drains these periodically into a store of its
    /// own, so only what is open between drains counts towards
    /// `max_traces`: completed traces are final, open ones may still gain
    /// hops.
    pub fn take_finished(&mut self) -> Vec<PacketTrace> {
        std::mem::take(&mut self.done)
    }
}

/// Merges per-owner trace fragments by trace ID into whole-path traces.
/// Fragments for the same ID are concatenated and re-sorted by timestamp, so
/// it does not matter which observer stamped which hop.
pub fn merge_traces<I: IntoIterator<Item = PacketTrace>>(parts: I) -> Vec<PacketTrace> {
    let mut by_id: HashMap<u64, PacketTrace> = HashMap::new();
    for frag in parts {
        by_id
            .entry(frag.id)
            .and_modify(|t| t.hops.extend_from_slice(&frag.hops))
            .or_insert(frag);
    }
    let mut out: Vec<PacketTrace> = by_id.into_values().collect();
    for t in &mut out {
        t.hops.sort_by_key(|h| h.at_ns);
    }
    out.sort_by_key(|t| t.id);
    out
}

/// Merges one run's fragments, each sink's given with the shift it ended at
/// ([`TraceSink::shift`]), keeping only the ids sampled at the coarsest of
/// those shifts: every sink recorded each such id that crossed it, so one
/// that thinned leaves no one-sided fragment. Returns that shift with the
/// traces, a part another merge can take.
pub fn merge_thinned(
    parts: impl IntoIterator<Item = (u32, Vec<PacketTrace>)>,
) -> (u32, Vec<PacketTrace>) {
    let parts: Vec<(u32, Vec<PacketTrace>)> = parts.into_iter().collect();
    let shift = parts.iter().map(|&(shift, _)| shift).max().unwrap_or(0);
    let kept = parts.into_iter().flat_map(|(_, traces)| traces);
    (
        shift,
        merge_traces(kept.filter(|t| t.id & low_bits(shift) == 0)),
    )
}

/// Latency breakdown for one hop-to-hop transition (e.g. head → mid).
#[derive(Debug, Clone)]
pub struct HopTransition {
    /// Source hop IP.
    pub from_ip: u32,
    /// Destination hop IP.
    pub to_ip: u32,
    /// Distribution of `to.at_ns - from.at_ns` across traces.
    pub latency: HistSnapshot,
}

impl HopTransition {
    /// Summary quantiles of the transition latency.
    pub fn quantiles(&self) -> Quantiles {
        self.latency.quantiles()
    }
}

/// Aggregated view over a set of merged traces: the distinct paths seen and
/// the latency distribution of every hop transition.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Number of traces aggregated.
    pub traces: usize,
    /// Distinct hop-IP paths with their occurrence counts, most common
    /// first.
    pub paths: Vec<(Vec<u32>, usize)>,
    /// Per-transition latency distributions, in first-seen order.
    pub transitions: Vec<HopTransition>,
}

impl TraceSummary {
    /// Builds a summary from merged traces.
    ///
    /// A trace whose stamps all carry one IP is a one-sided fragment (a
    /// dropped query, or sinks merged without [`merge_thinned`]'s cut).
    /// Fragments count towards `traces` but are neither paths nor
    /// transitions — they all share one "path" and would outvote the
    /// complete paths, which split over the chains.
    pub fn from_traces(traces: &[PacketTrace]) -> Self {
        let mut path_counts: Vec<(Vec<u32>, usize)> = Vec::new();
        let mut transitions: Vec<(u32, u32, LatencyHistogram)> = Vec::new();
        for t in traces {
            if t.hops.iter().all(|h| h.hop_ip == t.hops[0].hop_ip) {
                continue;
            }
            let path = t.path();
            match path_counts.iter_mut().find(|(p, _)| *p == path) {
                Some((_, n)) => *n += 1,
                None => path_counts.push((path, 1)),
            }
            for pair in t.hops.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let delta = b.at_ns.saturating_sub(a.at_ns);
                match transitions
                    .iter_mut()
                    .find(|(f, to, _)| *f == a.hop_ip && *to == b.hop_ip)
                {
                    Some((_, _, h)) => h.record(delta),
                    None => {
                        let mut h = LatencyHistogram::new();
                        h.record(delta);
                        transitions.push((a.hop_ip, b.hop_ip, h));
                    }
                }
            }
        }
        path_counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        TraceSummary {
            traces: traces.len(),
            paths: path_counts,
            transitions: transitions
                .into_iter()
                .map(|(from_ip, to_ip, h)| HopTransition {
                    from_ip,
                    to_ip,
                    latency: h.snapshot(),
                })
                .collect(),
        }
    }

    /// The most common path, if any traces were recorded.
    pub fn dominant_path(&self) -> Option<&[u32]> {
        self.paths.first().map(|(p, _)| p.as_slice())
    }
}

/// Renders an IPv4-as-u32 hop ID as dotted quad for human output.
pub fn ip_to_string(ip: u32) -> String {
    let b = ip.to_be_bytes();
    format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3])
}

/// Renders a hop path as `a -> b -> c` dotted quads.
pub fn path_to_string(path: &[u32]) -> String {
    path.iter()
        .map(|&ip| ip_to_string(ip))
        .collect::<Vec<_>>()
        .join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_ratioed() {
        let cfg = TraceSink::new(TraceConfig::sampled(4, 1024));
        let mut hits = 0;
        for rid in 0..4096u64 {
            // One key per query: sampling picks keys.
            let id = trace_id(0x0a000001, rid, rid);
            if cfg.samples(id) {
                hits += 1;
            }
            // Same inputs, same decision.
            assert_eq!(cfg.samples(id), cfg.samples(trace_id(0x0a000001, rid, rid)));
        }
        // Expect roughly 4096/16 = 256; allow generous slack.
        assert!((128..=512).contains(&hits), "hits={hits}");
    }

    #[test]
    fn shift_zero_samples_everything() {
        let cfg = TraceSink::new(TraceConfig::sampled(0, 16));
        for rid in 0..100u64 {
            assert!(cfg.samples(trace_id(1, rid, rid)));
        }
        assert!(!TraceSink::new(TraceConfig::OFF).samples(0));
    }

    #[test]
    fn sink_auto_begins_and_finishes() {
        let mut sink = TraceSink::new(TraceConfig::sampled(0, 8));
        sink.stamp(7, 0x0a000001, 100);
        sink.stamp(7, 0x0a000002, 250);
        sink.finish(7);
        let traces = sink.drain();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].path(), vec![0x0a000001, 0x0a000002]);
        assert_eq!(traces[0].hops[1].at_ns, 250);
    }

    #[test]
    fn unsampled_ids_are_ignored() {
        let mut sink = TraceSink::new(TraceConfig::sampled(8, 8));
        // ID with a nonzero low byte is not sampled.
        let id = 0x1234_5601;
        assert!(!sink.samples(id));
        sink.stamp(id, 1, 1);
        sink.finish(id);
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn finishing_an_unsampled_id_leaves_the_sink_alone() {
        let mut sink = TraceSink::new(TraceConfig::sampled(8, 8));
        let id = 0x1234_5601;
        assert!(!sink.samples(id));
        sink.finish(id);
        assert_eq!(
            (sink.active.capacity(), sink.done.capacity()),
            (0, 0),
            "nothing allocated"
        );
        // `push` guards, so `active` never holds such an id. Plant one to
        // see that `finish` does not even look it up.
        sink.active.insert(
            id,
            PacketTrace {
                id,
                hops: Vec::new(),
            },
        );
        sink.finish(id);
        assert!(sink.active.contains_key(&id) && sink.done.is_empty());
    }

    #[test]
    fn merge_reassembles_fragments_by_time() {
        let client = PacketTrace {
            id: 9,
            hops: vec![HopStamp::plain(1, 0), HopStamp::plain(1, 400)],
        };
        let switch = PacketTrace {
            id: 9,
            hops: vec![HopStamp::plain(2, 100), HopStamp::plain(3, 200)],
        };
        let merged = merge_traces(vec![switch, client]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].path(), vec![1, 2, 3, 1]);
    }

    #[test]
    fn summary_counts_paths_and_transitions() {
        let mk = |id: u64, ips: &[u32]| PacketTrace {
            id,
            hops: ips
                .iter()
                .enumerate()
                .map(|(i, &ip)| HopStamp::plain(ip, (id * 1000) + i as u64 * 100))
                .collect(),
        };
        // Three one-sided fragments must not outvote the two complete paths.
        let traces = vec![
            mk(1, &[10, 20, 30]),
            mk(2, &[10, 20, 30]),
            mk(3, &[10, 30]),
            mk(4, &[10, 10]),
            mk(5, &[10, 10]),
            mk(6, &[10, 10]),
        ];
        let s = TraceSummary::from_traces(&traces);
        assert_eq!(s.traces, 6);
        assert_eq!(s.dominant_path(), Some(&[10, 20, 30][..]));
        assert_eq!(s.paths[0].1, 2);
        // Transitions: 10->20 (x2), 20->30 (x2), 10->30 (x1).
        assert_eq!(s.transitions.len(), 3);
        let t = s
            .transitions
            .iter()
            .find(|t| t.from_ip == 10 && t.to_ip == 20)
            .unwrap();
        assert_eq!(t.latency.count(), 2);
        assert_eq!(t.latency.quantile(1.0), Some(100));
    }

    #[test]
    fn sink_respects_max_traces() {
        let mut sink = TraceSink::new(TraceConfig::sampled(0, 2));
        for id in 0..5u64 {
            sink.stamp(id, 1, id);
            sink.finish(id);
        }
        // Id 2 thinned the sink to even ids, id 4 to multiples of 4.
        assert_eq!(sink.shift(), 2);
        let ids: Vec<u64> = sink.drain().iter().map(|t| t.id).collect();
        assert_eq!(ids, [0, 4]);
    }

    #[test]
    fn a_sink_keeps_its_last_key_whole() {
        // One key, 4096 queries, a sink of 64: no bit of shift keeps part of
        // its history, so the sink keeps all of it.
        let mut sink = TraceSink::new(TraceConfig::sampled(0, 64));
        for rid in 0..4096 {
            let id = trace_id(0x0a000001, rid, 7);
            sink.stamp(id, 1, rid);
            sink.finish(id);
        }
        assert_eq!(sink.drain().len(), 4096);
    }

    #[test]
    fn a_full_sink_thins_to_the_traffic_it_sees() {
        let (cap, n) = (64, 1u64 << 16);
        let mut sink = TraceSink::new(TraceConfig::sampled(0, cap));
        for rid in 0..n {
            let id = trace_id(0x0a000001, rid, rid);
            sink.stamp(id, 1, rid);
            // Every fourth query stays open: thinning drops those too.
            if rid % 4 != 0 {
                sink.finish(id);
            }
        }
        let shift = sink.shift();
        let held: Vec<u64> = sink.drain().iter().map(|t| t.id).collect();
        assert!(!held.is_empty() && held.len() <= cap, "{}", held.len());
        assert!(held.iter().all(|id| id & low_bits(shift) == 0), "{shift}");
        // The kept ids span the stream, not its first `cap` sampled ids.
        let kept = |rids: std::ops::Range<u64>| {
            rids.into_iter()
                .any(|rid| held.contains(&trace_id(0x0a000001, rid, rid)))
        };
        assert!(kept(0..n / 4) && kept(3 * n / 4..n), "shift {shift}");
    }

    #[test]
    fn the_cut_keeps_only_what_every_sink_still_samples() {
        let frag = |id: u64, ip: u32| PacketTrace {
            id,
            hops: vec![HopStamp::plain(ip, id)],
        };
        // A client sink that never filled (shift 0) and a shard sink that
        // thinned to shift 1, which dropped its half of id 1.
        let client = (0, vec![frag(1, 10), frag(2, 10), frag(4, 10)]);
        let shard = (1, vec![frag(2, 20), frag(4, 20)]);
        let (shift, merged) = merge_thinned([client, shard]);
        let paths: Vec<(u64, Vec<u32>)> = merged.iter().map(|t| (t.id, t.path())).collect();
        assert_eq!(
            (shift, paths),
            (1, vec![(2, vec![10, 20]), (4, vec![10, 20])])
        );
        assert_eq!(merge_thinned(std::iter::empty()), (0, vec![]));
    }

    #[test]
    fn a_kept_key_keeps_every_op_through_the_cut() {
        // 64 keys, 64 queries each, interleaved. The client sink holds them
        // all; the shard sink of 256 thins several times over.
        let (keys, per_key) = (64u64, 64u64);
        let key_hash = |k: u64| k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut client = TraceSink::new(TraceConfig::sampled(0, 1 << 16));
        let mut shard = TraceSink::new(TraceConfig::sampled(0, 256));
        for rid in 0..keys * per_key {
            let id = trace_id(0x0a000001, rid, key_hash(rid % keys));
            client.stamp(id, 1, 2 * rid);
            shard.stamp(id, 2, 2 * rid + 1);
            shard.finish(id);
            client.finish(id);
        }
        assert!(shard.shift() > 0, "the shard sink never thinned");
        let (_, merged) = merge_thinned([
            (client.shift(), client.drain()),
            (shard.shift(), shard.drain()),
        ]);
        // Every trace kept is whole, and a key kept has all its queries.
        assert!(merged.iter().all(|t| t.path() == [1, 2]));
        // A trace id's low 16 bits are its key's fingerprint's.
        let key_of =
            |id: u64| (0..keys).find(|&k| key_fingerprint(key_hash(k)) as u16 == id as u16);
        let mut per: HashMap<u64, u64> = HashMap::new();
        for t in &merged {
            *per.entry(key_of(t.id).expect("a known key")).or_default() += 1;
        }
        assert!(!per.is_empty() && per.len() < keys as usize, "{per:?}");
        assert!(per.values().all(|&n| n == per_key), "{per:?}");
    }

    #[test]
    fn evidence_stamps_ride_alongside_plain_ones() {
        let mut sink = TraceSink::new(TraceConfig::sampled(0, 8));
        sink.stamp(3, 1, 10);
        sink.stamp_with(
            3,
            2,
            20,
            Evidence {
                op: EvidenceOp::Write,
                role: HopRole::Head,
                ok: true,
                key_fp: 0xdead,
                session: 1,
                seq: 7,
            },
        );
        sink.finish(3);
        let traces = sink.drain();
        assert_eq!(traces[0].hops[0].evidence, None);
        let ev = traces[0].hops[1].evidence.unwrap();
        assert_eq!(ev.version(), (1, 7));
        assert!(ev.role.acts_as_head());
        assert!(!ev.role.acts_as_tail());
    }

    #[test]
    fn take_finished_leaves_open_traces_active() {
        let mut sink = TraceSink::new(TraceConfig::sampled(0, 8));
        sink.stamp(1, 9, 1);
        sink.finish(1);
        sink.stamp(2, 9, 2); // still open
        let done = sink.take_finished();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        assert!(sink.take_finished().is_empty());
        // The open trace can still gain hops and finish later.
        sink.stamp(2, 10, 3);
        sink.finish(2);
        assert_eq!(sink.take_finished().len(), 1);
    }

    #[test]
    fn role_derivation_covers_all_chain_positions() {
        // Mutation, no seq yet, more hops follow: head.
        assert_eq!(HopRole::for_query(true, true, false), HopRole::Head);
        // Mutation mid-chain: replica; at the last hop: tail.
        assert_eq!(HopRole::for_query(true, false, false), HopRole::Replica);
        assert_eq!(HopRole::for_query(true, false, true), HopRole::Tail);
        // Single-switch chain assigns the seq and replies at one hop.
        assert_eq!(HopRole::for_query(true, true, true), HopRole::Solo);
        // Reads go straight to the tail — even with failover alternates
        // still listed in the chain.
        assert_eq!(HopRole::for_query(false, true, true), HopRole::Tail);
        assert_eq!(HopRole::for_query(false, true, false), HopRole::Tail);
        for role in [
            HopRole::ClientIssue,
            HopRole::Head,
            HopRole::Replica,
            HopRole::Tail,
            HopRole::Solo,
            HopRole::ClientAck,
        ] {
            assert_eq!(HopRole::from_label(role.label()), Some(role));
        }
        assert_eq!(HopRole::from_label("bogus"), None);
        for op in [
            EvidenceOp::Read,
            EvidenceOp::Write,
            EvidenceOp::Cas,
            EvidenceOp::Delete,
            EvidenceOp::Other,
        ] {
            assert_eq!(EvidenceOp::from_label(op.label()), op);
        }
    }

    #[test]
    fn key_fingerprint_depends_on_both_halves() {
        assert_ne!(
            key_fingerprint(0x1111_0000_0000_0000),
            key_fingerprint(0x2222_0000_0000_0000)
        );
        assert_ne!(key_fingerprint(1), key_fingerprint(2));
    }

    #[test]
    fn ip_rendering() {
        assert_eq!(ip_to_string(0x0a000102), "10.0.1.2");
        assert_eq!(
            path_to_string(&[0x0a000101, 0x0a000102]),
            "10.0.1.1 -> 10.0.1.2"
        );
    }
}
