//! The client agent (§3): translates API calls into NetChain query packets,
//! matches replies to outstanding requests, and retries on timeout (§4.3 —
//! NetChain relies on client-side retries because the chain runs over UDP).
//!
//! [`AgentCore`] is deliberately sans-IO: it produces packets and consumes
//! replies but never touches a socket or the simulator, so the same code
//! drives the discrete-event simulation ([`crate::client`]), the real UDP
//! loopback deployment (`netchain-net`), and unit tests.
//!
//! It is also what a query costs its client, so the outstanding queries sit
//! in a table indexed by request id ([`Window`]) that an issue and a reply
//! each touch one cache line of.

use crate::directory::{ChainDirectory, KeyLocus, QueryRoute};
use crate::types::{CompletedQuery, Completion, KvOp, OpRef};
use netchain_sim::{SimDuration, SimTime};
use netchain_telemetry::LatencyHistogram;
use netchain_wire::{
    encode_query, Ipv4Addr, Key, NetChainPacket, NetChainView, OpCode, QueryStatus, Value,
    MAX_VALUE_LEN,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Static configuration of a client agent.
#[derive(Debug, Clone, Copy)]
pub struct AgentConfig {
    /// The client's IP address (source of queries, destination of replies).
    pub client_ip: Ipv4Addr,
    /// The client's UDP source port.
    pub udp_port: u16,
    /// How long to wait for a reply before retransmitting.
    pub timeout: SimDuration,
    /// How many retransmissions to attempt before abandoning a query.
    pub max_retries: u32,
}

impl AgentConfig {
    /// A sensible default for a datacenter client: 1 ms retransmission
    /// timeout, 10 retries.
    pub fn new(client_ip: Ipv4Addr) -> Self {
        AgentConfig {
            client_ip,
            udp_port: 40_000,
            timeout: SimDuration::from_millis(1),
            max_retries: 10,
        }
    }

    /// Returns a copy with the given timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Returns a copy with the given retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }
}

/// Counters and latency statistics kept by an agent.
#[derive(Debug, Clone, Default)]
pub struct AgentStats {
    /// Queries issued (first transmissions, not counting retries).
    pub issued: u64,
    /// Queries completed with a reply.
    pub completed: u64,
    /// Completed queries whose status was `Ok`.
    pub ok: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Queries abandoned after exhausting the retry budget.
    pub abandoned: u64,
    /// Replies that arrived for requests no longer outstanding (duplicates
    /// from retries, or replies after abandonment) — benign, but counted.
    pub stale_replies: u64,
    /// Replies whose `(session, seq)` version was *older* than a version this
    /// agent had already observed for the same key **before the query was
    /// issued**. Strong consistency means this must stay zero (§4.5: versions
    /// exposed to clients are monotonically increasing). Replies of queries
    /// that were *concurrent* with the newer observation are exempt — two
    /// overlapping operations may legitimately complete in either order.
    pub version_regressions: u64,
    /// Latency of completed queries (first transmission to reply), in
    /// nanoseconds: a fixed-size histogram, so a long run records in
    /// constant memory.
    pub latency: LatencyHistogram,
}

/// The result of a retry poll.
#[derive(Debug, Default)]
pub struct RetryOutcome {
    /// Packets to retransmit now.
    pub retransmit: Vec<NetChainPacket>,
    /// Queries abandoned on this poll (retry budget exhausted).
    pub abandoned: Vec<CompletedQuery>,
}

/// One in-flight query, written in place in its [`Window`] slot, in wire
/// form with its value inline (recording a query never touches the heap).
/// What every issue and reply touches fills the first cache line, with the
/// first ten value bytes: a read or an 8-byte write never leaves it. Value
/// bytes past `value_len` are leftovers, never written and never read.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
struct Outstanding {
    /// 0 marks a free slot (ids start at 1).
    request_id: u64,
    /// `key.stable_hash()`, computed once at issue.
    key_hash: u64,
    first_sent: SimTime,
    last_sent: SimTime,
    key: Key,
    retries: u32,
    op: OpCode,
    value_len: u8,
    value: [u8; MAX_VALUE_LEN],
}

impl Outstanding {
    const FREE: Outstanding = Outstanding {
        request_id: 0,
        key_hash: 0,
        first_sent: SimTime::ZERO,
        last_sent: SimTime::ZERO,
        key: Key([0; 16]),
        retries: 0,
        op: OpCode::Read,
        value_len: 0,
        value: [0; MAX_VALUE_LEN],
    };

    fn wire(&self) -> OpRef<'_> {
        OpRef {
            op: self.op,
            key: self.key,
            value: &self.value[..usize::from(self.value_len)],
        }
    }
}

/// Hasher that passes a `u64` key through. Its low bits spread well; its top
/// 7, hashbrown's control tag, do not: over `Key::from_u64(0..4096)` the
/// stable hashes' tags take 2 values and sequential request ids all have tag
/// 0, so a probe compares keys against most full slots of its group. A mixing
/// multiply measured no gain once replies stopped going through `PacketView`.
#[derive(Debug, Clone, Copy, Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 keys are hashed");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Both of the agent's maps (per-key versions, stragglers). Entries are
/// stored inline, so once a map has grown, inserting and removing allocate
/// nothing.
type PassThroughMap<V> = HashMap<u64, V, BuildHasherDefault<PassThroughHasher>>;

/// The queries in flight, indexed instead of hashed: ids are sequential, so
/// id `n` lives in `slots[n & mask]` (the switch's "match once, then index
/// registers", applied to the agent). There are at least two slots per query
/// ever in flight at once, so a window retired roughly in order never meets
/// itself coming round, and an agent with a query or two out stays within a
/// few cache lines. A live entry that a new id does land on — a *straggler*,
/// stuck behind a blocked group while thousands of ids pass — moves to a map
/// and retires or retransmits from there.
#[derive(Debug, Clone)]
struct Window {
    /// Power-of-two length; `request_id == 0` marks a free slot.
    slots: Vec<Outstanding>,
    stragglers: PassThroughMap<Outstanding>,
    /// Live slots plus stragglers.
    live: usize,
}

impl Window {
    fn new() -> Self {
        Window {
            slots: vec![Outstanding::FREE; 2],
            stragglers: HashMap::default(),
            live: 0,
        }
    }

    /// Where `id` sits if it sits in the table.
    fn at(&self, id: u64) -> usize {
        id as usize & (self.slots.len() - 1)
    }

    /// The slot of `id`, for the caller to fill in place (every field but
    /// the value bytes past its length).
    fn claim(&mut self, id: u64) -> &mut Outstanding {
        self.live += 1;
        if self.live * 2 > self.slots.len() {
            let grown = vec![Outstanding::FREE; (self.live * 2).next_power_of_two()];
            for old in std::mem::replace(&mut self.slots, grown) {
                if old.request_id != 0 {
                    let at = self.at(old.request_id);
                    self.slots[at] = old;
                }
            }
        }
        let at = self.at(id);
        let slot = &mut self.slots[at];
        if slot.request_id != 0 {
            self.stragglers.insert(slot.request_id, slot.clone());
        }
        slot
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Outstanding> {
        let at = self.at(id);
        if self.slots[at].request_id == id && id != 0 {
            Some(&mut self.slots[at])
        } else {
            self.stragglers.get_mut(&id)
        }
    }

    /// Frees the entry [`Self::get_mut`] found for `id`.
    fn remove(&mut self, id: u64) {
        let at = self.at(id);
        if self.slots[at].request_id == id {
            self.slots[at].request_id = 0;
        } else {
            self.stragglers.remove(&id);
        }
        self.live -= 1;
    }

    fn iter(&self) -> impl Iterator<Item = &Outstanding> {
        let live = self.slots.iter().filter(|o| o.request_id != 0);
        live.chain(self.stragglers.values())
    }
}

/// The newest version an agent has seen for one key, and when.
#[derive(Debug, Clone, Copy)]
struct Observed {
    key: Key,
    version: (u64, u64),
    at: SimTime,
}

/// The fields of a reply the agent acts on, from either packet form.
struct ReplyHead {
    op: OpCode,
    status: QueryStatus,
    request_id: u64,
    session: u16,
    seq: u64,
}

/// The sans-IO client agent core.
#[derive(Debug, Clone)]
pub struct AgentCore {
    config: AgentConfig,
    directory: ChainDirectory,
    next_request_id: u64,
    /// In-flight queries by request id.
    outstanding: Window,
    /// Per key (by stable hash): the newest `(session, seq)` observed.
    observed: PassThroughMap<Observed>,
    stats: AgentStats,
}

impl AgentCore {
    /// Creates an agent with the given configuration and chain directory.
    pub fn new(config: AgentConfig, directory: ChainDirectory) -> Self {
        AgentCore {
            config,
            directory,
            next_request_id: 1,
            outstanding: Window::new(),
            observed: HashMap::default(),
            stats: AgentStats::default(),
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// The chain directory currently in use.
    pub fn directory(&self) -> &ChainDirectory {
        &self.directory
    }

    /// Number of queries awaiting replies.
    pub fn outstanding(&self) -> usize {
        self.outstanding.live
    }

    /// Statistics.
    pub fn stats(&self) -> &AgentStats {
        &self.stats
    }

    /// Starts a query: returns the request id and the packet to transmit.
    pub fn begin(&mut self, now: SimTime, op: KvOp) -> (u64, NetChainPacket) {
        let locus = self.directory.locate(&op.key());
        op.with_wire(|wire| self.begin_located(now, wire, locus))
    }

    /// [`Self::begin`] for an operation already in wire form whose key the
    /// caller has located (`locus` must be `self.directory().locate(&op.key)`).
    pub fn begin_located(
        &mut self,
        now: SimTime,
        op: OpRef<'_>,
        locus: KeyLocus,
    ) -> (u64, NetChainPacket) {
        debug_assert_eq!(locus, self.directory.locate(&op.key));
        let request_id = self.admit(now, op, locus);
        (request_id, self.build_packet(op, locus.group, request_id))
    }

    /// Starts a query and encodes it straight into `out` (a ring slot, a
    /// send buffer) from the directory's cached route: no owned packet, no
    /// allocation. `locus` must be `self.directory().locate(&op.key)` — the
    /// caller has usually computed it already to steer the query. Returns
    /// the request id and the encoded length; the bytes equal what
    /// [`Self::begin`] would have returned, serialized.
    ///
    /// # Panics
    /// If `out` is shorter than the encoded query
    /// ([`netchain_wire::MAX_FRAME_LEN`] always suffices).
    pub fn begin_into(
        &mut self,
        now: SimTime,
        op: OpRef<'_>,
        locus: KeyLocus,
        out: &mut [u8],
    ) -> (u64, usize) {
        debug_assert_eq!(locus, self.directory.locate(&op.key));
        let request_id = self.admit(now, op, locus);
        let route = self.route(op.op, locus.group);
        let len = encode_query(
            out,
            self.config.client_ip,
            self.config.udp_port,
            route.first_hop,
            op.op,
            &op.key,
            op.value,
            route.remaining.hops(),
            request_id,
        )
        .expect("the buffer holds a maximal query");
        (request_id, len)
    }

    /// Assigns the next request id to `op` and records it as outstanding.
    fn admit(&mut self, now: SimTime, op: OpRef<'_>, locus: KeyLocus) -> u64 {
        assert!(
            op.value.len() <= MAX_VALUE_LEN,
            "value of {} bytes exceeds the wire limit",
            op.value.len()
        );
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let slot = self.outstanding.claim(request_id);
        slot.request_id = request_id;
        slot.key_hash = locus.hash;
        slot.first_sent = now;
        slot.last_sent = now;
        slot.key = op.key;
        slot.retries = 0;
        slot.op = op.op;
        slot.value_len = op.value.len() as u8;
        slot.value[..op.value.len()].copy_from_slice(op.value);
        self.stats.issued += 1;
        request_id
    }

    /// Stamps the last `n` queries issued from two clock readings: in issue
    /// order, the `i`-th gets `from + (to − from)·i / n`, and retransmission
    /// deadlines and latencies follow. Queries already answered or
    /// retransmitted keep theirs; `restamped` sees each `(id, stamp)` written.
    pub fn restamp_last(
        &mut self,
        n: usize,
        from: SimTime,
        to: SimTime,
        mut restamped: impl FnMut(u64, SimTime),
    ) {
        let n = n as u64;
        assert!(n < self.next_request_id, "only {n} queries were issued");
        // `from + span·i/n` without a division per query: `step` whole
        // nanoseconds each, and the remainder carried.
        let span = to.since(from).as_nanos();
        let (step, rem) = (span / n.max(1), span % n.max(1));
        let (mut at, mut carry) = (from, 0);
        for id in self.next_request_id - n..self.next_request_id {
            if let Some(entry) = self.outstanding.get_mut(id).filter(|e| e.retries == 0) {
                entry.first_sent = at;
                entry.last_sent = at;
                restamped(id, at);
            }
            at.0 += step;
            carry += rem;
            if carry >= n {
                carry -= n;
                at.0 += 1;
            }
        }
    }

    /// The cached route queries with opcode `op` take through `group`.
    fn route(&self, op: OpCode, group: u32) -> &QueryRoute {
        if op == OpCode::Read {
            self.directory.read_route_of(group)
        } else {
            self.directory.write_route_of(group)
        }
    }

    /// Builds the owned wire packet for `op` with the given request id, from
    /// the directory's route for `group`. Retries rebuild the packet so that
    /// a directory update between attempts takes effect.
    fn build_packet(&self, op: OpRef<'_>, group: u32, request_id: u64) -> NetChainPacket {
        let route = self.route(op.op, group);
        NetChainPacket::query(
            self.config.client_ip,
            self.config.udp_port,
            route.first_hop,
            op.op,
            op.key,
            Value::new(op.value).expect("admitted values are bounded"),
            route.remaining.clone(),
            request_id,
        )
    }

    /// Processes a reply packet. Returns the completed query if the reply
    /// matches an outstanding request, or `None` for duplicates/stale replies.
    pub fn on_reply(&mut self, now: SimTime, pkt: &NetChainPacket) -> Option<CompletedQuery> {
        let head = ReplyHead {
            op: pkt.netchain.op,
            status: pkt.netchain.status,
            request_id: pkt.netchain.request_id,
            session: pkt.netchain.session,
            seq: pkt.netchain.seq,
        };
        self.retire(now, head, |entry, done| CompletedQuery {
            request_id: done.request_id,
            op: KvOp::from_wire(entry.wire()),
            status: Some(done.status),
            value: pkt.netchain.value.clone(),
            seq: done.seq,
            session: done.session,
            latency: done.latency,
            retries: done.retries,
        })
    }

    /// [`Self::on_reply`] for a reply still in its receive buffer: matches it
    /// from the borrowed view, copying nothing. The caller reads the value,
    /// if it wants it, from `reply.value()`.
    pub fn on_reply_view(&mut self, now: SimTime, reply: &NetChainView<'_>) -> Option<Completion> {
        let head = ReplyHead {
            op: reply.op(),
            status: reply.status(),
            request_id: reply.request_id(),
            session: reply.session(),
            seq: reply.seq(),
        };
        self.retire(now, head, |_, done| done)
    }

    /// Matches a reply to its outstanding query, updates the statistics and
    /// the per-key version table, and frees the slot; `finish` sees the
    /// entry just before it goes.
    fn retire<R>(
        &mut self,
        now: SimTime,
        reply: ReplyHead,
        finish: impl FnOnce(&Outstanding, Completion) -> R,
    ) -> Option<R> {
        if !reply.op.is_reply() {
            return None;
        }
        let Some(entry) = self.outstanding.get_mut(reply.request_id) else {
            self.stats.stale_replies += 1;
            return None;
        };
        let latency = now.since(entry.first_sent);
        self.stats.completed += 1;
        self.stats.latency.record(latency.as_nanos());

        // Version monotonicity check (per-key, session-guarantee form): a
        // query issued *after* a newer version was observed must never expose
        // an older (session, seq). Queries concurrent with the newer
        // observation are exempt — overlapping operations may complete in
        // either order.
        if reply.status == QueryStatus::Ok {
            self.stats.ok += 1;
            let version = (u64::from(reply.session), reply.seq);
            let seen = self.observed.entry(entry.key_hash).or_insert(Observed {
                key: entry.key,
                version,
                at: now,
            });
            if seen.key != entry.key {
                // Two keys sharing a 64-bit hash: forget the other's history
                // rather than judge this key against it.
                *seen = Observed {
                    key: entry.key,
                    version,
                    at: now,
                };
            } else if version < seen.version {
                if entry.first_sent >= seen.at {
                    self.stats.version_regressions += 1;
                }
            } else {
                seen.version = version;
                seen.at = now;
            }
        }

        let done = finish(
            entry,
            Completion {
                request_id: reply.request_id,
                op: entry.op,
                status: reply.status,
                seq: reply.seq,
                session: u64::from(reply.session),
                latency,
                retries: entry.retries,
            },
        );
        self.outstanding.remove(reply.request_id);
        Some(done)
    }

    /// Checks every outstanding query against the retransmission timeout.
    /// Queries past their budget are abandoned; the rest get fresh packets to
    /// retransmit (rebuilt from the current directory).
    pub fn poll_retries(&mut self, now: SimTime) -> RetryOutcome {
        let mut outcome = RetryOutcome::default();
        let mut expired: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|o| now.since(o.last_sent) >= self.config.timeout)
            .map(|o| o.request_id)
            .collect();
        // Oldest first, wherever the entries sit.
        expired.sort_unstable();
        for id in expired {
            let entry = self.outstanding.get_mut(id).expect("id collected above");
            if entry.retries >= self.config.max_retries {
                self.stats.abandoned += 1;
                outcome.abandoned.push(CompletedQuery {
                    request_id: id,
                    op: KvOp::from_wire(entry.wire()),
                    status: None,
                    value: Value::empty(),
                    seq: 0,
                    session: 0,
                    latency: now.since(entry.first_sent),
                    retries: entry.retries,
                });
                self.outstanding.remove(id);
            } else {
                entry.retries += 1;
                entry.last_sent = now;
                self.stats.retries += 1;
                let entry = entry.clone();
                let group = self.directory.ring().group_of_hash(entry.key_hash);
                let pkt = self.build_packet(entry.wire(), group, id);
                outcome.retransmit.push(pkt);
            }
        }
        outcome
    }

    /// The next instant at which [`Self::poll_retries`] could have work to do,
    /// if any queries are outstanding.
    pub fn next_retry_deadline(&self) -> Option<SimTime> {
        self.outstanding
            .iter()
            .map(|o| o.last_sent + self.config.timeout)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashring::HashRing;
    use netchain_wire::Key;

    fn agent() -> AgentCore {
        let switches: Vec<Ipv4Addr> = (0..4).map(Ipv4Addr::for_switch).collect();
        let dir = ChainDirectory::new(HashRing::new(switches, 25, 3, 5));
        AgentCore::new(AgentConfig::new(Ipv4Addr::for_host(0)), dir)
    }

    fn reply_to(mut pkt: NetChainPacket, seq: u64) -> NetChainPacket {
        let tail = pkt.ip.dst;
        pkt.netchain.seq = seq;
        pkt.netchain.value = Value::from_u64(1);
        pkt.make_reply(tail, QueryStatus::Ok);
        pkt
    }

    #[test]
    fn begin_builds_routes_matching_the_directory() {
        let mut a = agent();
        let key = Key::from_name("foo");
        let chain = a.directory().chain_for(&key);

        let (_, write_pkt) = a.begin(SimTime::ZERO, KvOp::Write(key, Value::from_u64(1)));
        assert_eq!(write_pkt.ip.dst, chain.head());
        assert_eq!(write_pkt.netchain.chain.hops(), &chain.switches[1..]);
        assert_eq!(write_pkt.netchain.op, OpCode::Write);
        assert_eq!(write_pkt.netchain.seq, 0, "head assigns the sequence");

        let (_, read_pkt) = a.begin(SimTime::ZERO, KvOp::Read(key));
        assert_eq!(read_pkt.ip.dst, chain.tail());
        assert_eq!(read_pkt.netchain.op, OpCode::Read);
        assert_eq!(a.outstanding(), 2);
        assert_eq!(a.stats().issued, 2);
    }

    #[test]
    fn reply_completes_and_records_latency() {
        let mut a = agent();
        let key = Key::from_name("foo");
        let (id, pkt) = a.begin(SimTime::ZERO, KvOp::Write(key, Value::from_u64(1)));
        let reply = reply_to(pkt, 3);
        let done = a
            .on_reply(SimTime::ZERO + SimDuration::from_micros(10), &reply)
            .expect("reply matches");
        assert_eq!(done.request_id, id);
        assert!(done.is_ok());
        assert_eq!(done.latency, SimDuration::from_micros(10));
        assert_eq!(done.seq, 3);
        assert_eq!(a.outstanding(), 0);
        assert_eq!(a.stats().completed, 1);
        assert_eq!(a.stats().ok, 1);
        // A duplicate reply is stale.
        assert!(a
            .on_reply(SimTime::ZERO + SimDuration::from_micros(20), &reply)
            .is_none());
        assert_eq!(a.stats().stale_replies, 1);
    }

    #[test]
    fn version_regression_is_detected_for_sequential_queries() {
        let mut a = agent();
        let key = Key::from_name("foo");
        // First query observes seq 5 at t=5µs.
        let (_, pkt1) = a.begin(SimTime::ZERO, KvOp::Read(key));
        a.on_reply(
            SimTime::ZERO + SimDuration::from_micros(5),
            &reply_to(pkt1, 5),
        );
        // A second query issued *after* that observation must not see seq 3.
        let (_, pkt2) = a.begin(
            SimTime::ZERO + SimDuration::from_micros(10),
            KvOp::Read(key),
        );
        a.on_reply(
            SimTime::ZERO + SimDuration::from_micros(15),
            &reply_to(pkt2, 3),
        );
        assert_eq!(a.stats().version_regressions, 1);
    }

    #[test]
    fn concurrent_queries_may_complete_out_of_order_without_regression() {
        let mut a = agent();
        let key = Key::from_name("foo");
        // Both queries are outstanding at the same time; the one carrying the
        // older version completes second. That is legal for concurrent
        // operations and must not count as a regression.
        let (_, pkt1) = a.begin(SimTime::ZERO, KvOp::Read(key));
        let (_, pkt2) = a.begin(SimTime::ZERO, KvOp::Read(key));
        a.on_reply(
            SimTime::ZERO + SimDuration::from_micros(5),
            &reply_to(pkt1, 5),
        );
        a.on_reply(
            SimTime::ZERO + SimDuration::from_micros(6),
            &reply_to(pkt2, 3),
        );
        assert_eq!(a.stats().version_regressions, 0);
    }

    #[test]
    fn retries_then_abandonment() {
        let mut a = agent();
        let config_timeout = a.config().timeout;
        let key = Key::from_name("foo");
        let (_, _pkt) = a.begin(SimTime::ZERO, KvOp::Read(key));
        // Not yet expired.
        let early = a.poll_retries(SimTime::ZERO + SimDuration::from_micros(10));
        assert!(early.retransmit.is_empty() && early.abandoned.is_empty());
        // Drive through the full retry budget.
        let mut now = SimTime::ZERO;
        let mut total_retransmits = 0;
        for _ in 0..a.config().max_retries {
            now += config_timeout;
            let out = a.poll_retries(now);
            total_retransmits += out.retransmit.len();
            assert!(out.abandoned.is_empty());
        }
        assert_eq!(total_retransmits as u32, a.config().max_retries);
        // One more timeout abandons the query.
        now += config_timeout;
        let out = a.poll_retries(now);
        assert_eq!(out.abandoned.len(), 1);
        assert!(out.abandoned[0].is_abandoned());
        assert_eq!(a.outstanding(), 0);
        assert_eq!(a.stats().abandoned, 1);
        assert_eq!(a.stats().retries, u64::from(a.config().max_retries));
    }

    #[test]
    fn next_retry_deadline_tracks_oldest_outstanding() {
        let mut a = agent();
        assert_eq!(a.next_retry_deadline(), None);
        a.begin(SimTime::ZERO, KvOp::Read(Key::from_u64(1)));
        a.begin(
            SimTime::ZERO + SimDuration::from_micros(100),
            KvOp::Read(Key::from_u64(2)),
        );
        assert_eq!(
            a.next_retry_deadline(),
            Some(SimTime::ZERO + a.config().timeout)
        );
    }

    #[test]
    fn in_place_path_matches_the_owned_path() {
        // Same op stream through both entry points: identical bytes out,
        // identical completions in.
        let (mut owned, mut direct) = (agent(), agent());
        let ops = [
            KvOp::Read(Key::from_u64(1)),
            KvOp::Write(Key::from_u64(2), Value::from_u64(77)),
            KvOp::Cas {
                key: Key::from_u64(3),
                expected: 0,
                new: 9,
            },
            KvOp::Delete(Key::from_u64(4)),
        ];
        for op in ops {
            let (id, pkt) = owned.begin(SimTime::ZERO, op.clone());
            let mut buf = [0u8; netchain_wire::MAX_FRAME_LEN];
            let locus = direct.directory().locate(&op.key());
            let (id2, len) = op.with_wire(|w| direct.begin_into(SimTime::ZERO, w, locus, &mut buf));
            assert_eq!(id, id2);
            assert_eq!(&buf[..len], pkt.to_bytes().as_slice());

            let reply = reply_to(pkt, 5);
            let at = SimTime::ZERO + SimDuration::from_micros(3);
            let done = owned.on_reply(at, &reply).expect("matches");
            let bytes = reply.payload_bytes();
            let (view, _) = NetChainView::parse(&bytes).unwrap();
            let light = direct.on_reply_view(at, &view).expect("matches");
            assert_eq!(done.op, op);
            assert_eq!(
                (done.request_id, done.status, done.seq, done.session),
                (
                    light.request_id,
                    Some(light.status),
                    light.seq,
                    light.session
                )
            );
            assert_eq!((done.latency, done.retries), (light.latency, light.retries));
            assert!(direct.on_reply_view(at, &view).is_none(), "duplicate");
        }
        assert_eq!(direct.stats().stale_replies, 4);
        assert_eq!(direct.stats().completed, owned.stats().completed);
        assert_eq!(direct.stats().latency.count(), 4);
        assert_eq!(direct.outstanding(), 0);
    }

    #[test]
    fn cas_packets_carry_expected_and_new() {
        let mut a = agent();
        let key = Key::from_name("lock");
        let (_, pkt) = a.begin(
            SimTime::ZERO,
            KvOp::Cas {
                key,
                expected: 0,
                new: 42,
            },
        );
        assert_eq!(pkt.netchain.op, OpCode::Cas);
        assert_eq!(pkt.netchain.value.as_bytes().len(), 16);
    }
}
