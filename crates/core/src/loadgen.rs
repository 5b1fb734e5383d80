//! The one load client, shared by every execution mode.
//!
//! Each client owns a sans-IO [`AgentCore`] — the very same packet
//! construction and reply-matching logic the scripted clients and the UDP
//! loopback deployment use — plus a seeded PRNG that samples keys and a
//! read/write/CAS op mix. The fabric runs it *closed loop*: each client keeps
//! a bounded window of queries outstanding and only issues a new one when a
//! reply retires an old one, the standard way to measure a service's
//! sustainable rate without open-loop overload artefacts. The net mode's
//! generator and the simulator's [`LoadHost`](crate::client::LoadHost) run
//! it *open loop*, with the window unbounded, issuing on their own arrival
//! schedules. A reply is read as a shard reads a query: one
//! `validate_frame`, then only the NetChain header, where it lies
//! ([`NetChainView::of_frame`]).

use crate::{AgentConfig, AgentCore, ChainDirectory, ClientReport, HashRing, KeyLocus, OpRef};
use netchain_sim::SimTime;
use netchain_telemetry::{
    key_fingerprint, trace_id, Evidence, HistSnapshot, HopRole, PacketTrace, TraceConfig, TraceSink,
};
use netchain_wire::{Ipv4Addr, Key, NetChainPacket, NetChainView, OpCode, QueryStatus};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Packets a retry poll wants retransmitted, returned by
/// [`ClientState::poll_retries_at`]. Queries the same poll abandoned are
/// visible in the report's `abandoned` counter.
pub type RetryBatch = Vec<NetChainPacket>;

/// The operation mix and intensity of a workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of distinct keys.
    pub num_keys: u64,
    /// Percentage of reads (0–100).
    pub read_pct: u8,
    /// Percentage of writes; the remainder after reads + writes is CAS.
    pub write_pct: u8,
    /// Outstanding queries per client (closed-loop window).
    pub window: usize,
    /// Operations each client completes before stopping.
    pub ops_per_client: u64,
    /// PRNG seed (each client derives its own stream from this).
    pub seed: u64,
}

impl WorkloadSpec {
    /// A uniform-read workload: every op a read of one of `num_keys` keys,
    /// 64 outstanding per client.
    pub fn uniform_read(num_keys: u64, ops_per_client: u64) -> Self {
        WorkloadSpec {
            num_keys,
            read_pct: 100,
            write_pct: 0,
            window: 64,
            ops_per_client,
            seed: 0x6661_6272_6963, // "fabric"
        }
    }

    /// A mixed workload: `read_pct` reads, `write_pct` writes, remainder CAS.
    pub fn mixed(num_keys: u64, ops_per_client: u64, read_pct: u8, write_pct: u8) -> Self {
        assert!(usize::from(read_pct) + usize::from(write_pct) <= 100);
        WorkloadSpec {
            read_pct,
            write_pct,
            ..Self::uniform_read(num_keys, ops_per_client)
        }
    }
}

/// One operation drawn from the workload mix ([`ClientState::draw`]): wire
/// form with the value inline, and the key already located, so the driver
/// can pick the ring (or socket) the query goes to before it is encoded
/// there by [`ClientState::issue_drawn`].
#[derive(Debug, Clone, Copy)]
pub struct DrawnOp {
    op: OpCode,
    key: Key,
    /// The workloads' values are one or two big-endian words.
    value: [u8; 16],
    value_len: u8,
    locus: KeyLocus,
}

impl DrawnOp {
    /// The virtual group of the operation's key — what steers it.
    pub fn group(&self) -> u32 {
        self.locus.group
    }

    /// The operation in the agent's wire form.
    pub fn wire(&self) -> OpRef<'_> {
        OpRef {
            op: self.op,
            key: self.key,
            value: &self.value[..usize::from(self.value_len)],
        }
    }
}

/// One load client: op sampling + the sans-IO agent. The loop that runs it
/// decides when to issue: closed loop up to the window, or open loop on
/// arrivals.
pub struct ClientState {
    id: u32,
    agent: AgentCore,
    rng: ChaCha8Rng,
    spec: WorkloadSpec,
    /// Monotonically increasing write payloads, so every write is distinct.
    write_counter: u64,
    report: ClientReport,
    /// In-band trace stamping (client hop), when enabled.
    tracer: Option<TraceSink>,
}

impl ClientState {
    /// Creates client `id` issuing ops over `ring`'s chains.
    pub fn new(id: u32, ring: &HashRing, spec: WorkloadSpec) -> Self {
        let config = AgentConfig::new(Ipv4Addr::for_host(id));
        Self::with_agent_config(id, ring, spec, config)
    }

    /// Like [`ClientState::new`], with an explicit agent configuration
    /// (live-controlled runs tune the retransmission timeout and retry
    /// budget, which the failure-free fabric never exercises).
    pub fn with_agent_config(
        id: u32,
        ring: &HashRing,
        spec: WorkloadSpec,
        config: AgentConfig,
    ) -> Self {
        let directory = ChainDirectory::new(ring.clone());
        ClientState {
            id,
            agent: AgentCore::new(config, directory),
            rng: ChaCha8Rng::seed_from_u64(spec.seed ^ (u64::from(id) << 32)),
            spec,
            write_counter: 0,
            report: ClientReport::default(),
            tracer: None,
        }
    }

    /// This client's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// This client's IP as a big-endian u32 (the trace hop identity).
    fn ip_u32(&self) -> u32 {
        u32::from_be_bytes(Ipv4Addr::for_host(self.id).0)
    }

    /// Turns on in-band trace stamping: sampled queries get a client-side
    /// stamp at issue and at reply absorption.
    pub fn enable_tracing(&mut self, config: TraceConfig) {
        self.tracer = Some(TraceSink::new(config));
    }

    /// Drains the traces recorded so far, with the shift the sink ended at.
    pub fn take_traces(&mut self) -> (u32, Vec<PacketTrace>) {
        self.tracer
            .as_mut()
            .map(|sink| (sink.shift(), sink.drain()))
            .unwrap_or_default()
    }

    /// Takes only the traces *completed* since the last call, leaving open
    /// ones accumulating. A live client drains these at its retry-poll
    /// cadence, so only what is open or completed since the last poll counts
    /// towards the sink's `max_traces`.
    pub fn take_finished_traces(&mut self) -> Vec<PacketTrace> {
        self.tracer
            .as_mut()
            .map(TraceSink::take_finished)
            .unwrap_or_default()
    }

    /// Snapshot of the issue→reply latency distribution the agent records,
    /// in the unit of the clock the caller feeds [`ClientState::issue_at`] /
    /// [`ClientState::absorb_reply_at`].
    pub fn latency_snapshot(&self) -> HistSnapshot {
        self.agent.stats().latency.snapshot()
    }

    /// The counters accumulated so far (version regressions are read live
    /// from the agent).
    pub fn report(&self) -> ClientReport {
        ClientReport {
            version_regressions: self.agent.stats().version_regressions,
            retries: self.agent.stats().retries,
            abandoned: self.agent.stats().abandoned,
            ..self.report
        }
    }

    /// Queries currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.agent.outstanding()
    }

    /// The underlying agent's full statistics (stale replies, abandonments —
    /// counters the condensed [`ClientReport`] does not carry).
    pub fn agent_stats(&self) -> &crate::AgentStats {
        self.agent.stats()
    }

    /// The virtual group of `key` in this client's directory (what steers a
    /// retransmitted packet, whose draw is long gone).
    pub fn group_of(&self, key: &Key) -> u32 {
        self.agent.directory().group_of(key)
    }

    /// True once the client has completed its share of the workload.
    pub fn is_done(&self) -> bool {
        self.report.completed >= self.spec.ops_per_client
    }

    /// True if another query may be issued right now (window open and work
    /// remaining to issue).
    pub fn can_issue(&self) -> bool {
        self.agent.outstanding() < self.spec.window && self.report.issued < self.spec.ops_per_client
    }

    /// Draws the next operation of the workload mix without issuing it:
    /// nothing on the heap, and the key hashed once for everything
    /// downstream. Pair every draw with one [`Self::issue_drawn`].
    pub fn draw(&mut self) -> DrawnOp {
        let key = Key::from_u64(self.rng.gen_range(0..self.spec.num_keys));
        let dice: u8 = self.rng.gen_range(0..100u8);
        let mut value = [0u8; 16];
        let (op, value_len) = if dice < self.spec.read_pct {
            (OpCode::Read, 0)
        } else if dice < self.spec.read_pct + self.spec.write_pct {
            self.write_counter += 1;
            value[..8].copy_from_slice(&self.write_counter.to_be_bytes());
            (OpCode::Write, 8)
        } else {
            // CAS expecting the initial value; contention makes some fail,
            // which is the interesting (lock-like) behaviour.
            value = netchain_switch::cas_bytes(0, u64::from(self.id) + 1);
            (OpCode::Cas, 16)
        };
        DrawnOp {
            op,
            key,
            value,
            value_len,
            locus: self.agent.directory().locate(&key),
        }
    }

    /// Issues the next query stamped with a caller-supplied clock (wall-clock
    /// nanoseconds since the run started, in live runs; any monotone tick
    /// count where only the bookkeeping matters).
    pub fn issue_at(&mut self, now: SimTime) -> NetChainPacket {
        debug_assert!(self.can_issue());
        let op = self.draw();
        let (request_id, pkt) = self.agent.begin_located(now, op.wire(), op.locus);
        self.note_issue(now, request_id, &op);
        pkt
    }

    /// [`Self::issue_at`] for the hot path: issues the drawn operation and
    /// encodes the query straight into `out` (a ring slot, a send buffer of
    /// at least [`netchain_wire::MAX_FRAME_LEN`] bytes), returning its
    /// length. Same bytes, same request ids, no owned packet.
    pub fn issue_drawn(&mut self, now: SimTime, op: &DrawnOp, out: &mut [u8]) -> usize {
        let (request_id, len) = self.agent.begin_into(now, op.wire(), op.locus, out);
        self.note_issue(now, request_id, op);
        len
    }

    /// Spreads the last `n` issues' stamps over `[from, to)`
    /// ([`AgentCore::restamp_last`]), and a sampled query's issue evidence
    /// with its stamp: a trace and the latency agree on when it was issued.
    pub fn restamp_issued(&mut self, n: usize, from: SimTime, to: SimTime) {
        let ip = self.ip_u32();
        let tracer = &mut self.tracer;
        self.agent
            .restamp_last(n, from, to, |request_id, key_hash, at| {
                if let Some(tracer) = tracer {
                    tracer.retime_first(trace_id(ip, request_id, key_hash), at.as_nanos());
                }
            });
    }

    /// Counts an issued query and stamps its client-side issue evidence if
    /// the tracer samples it.
    fn note_issue(&mut self, now: SimTime, request_id: u64, op: &DrawnOp) {
        self.report.issued += 1;
        let ip = self.ip_u32();
        if let Some(tracer) = &mut self.tracer {
            let id = trace_id(ip, request_id, op.locus.hash);
            if tracer.samples(id) {
                match crate::evidence_op(op.op) {
                    Some(kind) => tracer.stamp_with(
                        id,
                        ip,
                        now.as_nanos(),
                        Evidence {
                            op: kind,
                            role: HopRole::ClientIssue,
                            ok: true,
                            key_fp: key_fingerprint(op.locus.hash),
                            session: 0,
                            seq: 0,
                        },
                    ),
                    None => tracer.stamp(id, ip, now.as_nanos()),
                }
            }
        }
    }

    /// Consumes one serialized reply frame at a caller-supplied clock;
    /// returns `true` if it matched an outstanding query. The reply is
    /// matched where it lies: nothing of it is copied.
    pub fn absorb_reply_at(&mut self, now: SimTime, frame: &[u8]) -> bool {
        let Some(reply) = NetChainView::of_frame(frame) else {
            return false;
        };
        let Some(done) = self.agent.on_reply_view(now, &reply) else {
            return false;
        };
        self.report.completed += 1;
        match done.status {
            QueryStatus::Ok => self.report.ok += 1,
            QueryStatus::CasFailed => self.report.cas_failed += 1,
            _ => {}
        }
        let ip = self.ip_u32();
        if let Some(tracer) = &mut self.tracer {
            let id = trace_id(ip, done.request_id, done.key_hash);
            if tracer.samples(id) {
                match crate::evidence_op(reply.op()) {
                    Some(op) => tracer.stamp_with(
                        id,
                        ip,
                        now.as_nanos(),
                        Evidence {
                            op,
                            role: HopRole::ClientAck,
                            ok: done.status == QueryStatus::Ok,
                            key_fp: key_fingerprint(done.key_hash),
                            session: done.session,
                            seq: done.seq,
                        },
                    ),
                    None => tracer.stamp(id, ip, now.as_nanos()),
                }
            }
            tracer.finish(id);
        }
        true
    }

    /// Checks outstanding queries against the retransmission timeout,
    /// returning the packets to retransmit. Queries past their retry budget
    /// are abandoned (they reopen the window and show up in the report's
    /// `abandoned` counter — which must stay zero in healthy runs — but are
    /// *not* counted as completed: `completed` means a matched reply).
    pub fn poll_retries_at(&mut self, now: SimTime) -> RetryBatch {
        self.agent.poll_retries(now).retransmit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> HashRing {
        HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7)
    }

    #[test]
    fn op_mix_roughly_matches_spec() {
        let spec = WorkloadSpec::mixed(100, 1_000, 50, 30);
        let mut client = ClientState::new(0, &ring(), spec);
        let (mut reads, mut writes, mut cas) = (0u32, 0u32, 0u32);
        for _ in 0..1_000 {
            match client.draw().op {
                OpCode::Read => reads += 1,
                OpCode::Write => writes += 1,
                OpCode::Cas => cas += 1,
                op => unreachable!("workloads never draw {op:?}"),
            }
        }
        assert!((400..600).contains(&reads), "reads: {reads}");
        assert!((200..400).contains(&writes), "writes: {writes}");
        assert!((100..300).contains(&cas), "cas: {cas}");
    }

    #[test]
    fn window_limits_outstanding() {
        let spec = WorkloadSpec {
            window: 4,
            ..WorkloadSpec::uniform_read(16, 100)
        };
        let mut client = ClientState::new(1, &ring(), spec);
        let mut issued = Vec::new();
        while client.can_issue() {
            issued.push(client.issue_at(SimTime::ZERO));
        }
        assert_eq!(issued.len(), 4);
        assert_eq!(client.outstanding(), 4);
        assert!(!client.is_done());
    }

    #[test]
    fn absorb_refuses_malformed_replies_and_counts_a_duplicate_once() {
        let mut client = ClientState::new(2, &ring(), WorkloadSpec::uniform_read(16, 10));
        let mut pkt = client.issue_at(SimTime::ZERO);
        pkt.make_reply(pkt.ip.dst, QueryStatus::Ok);
        let reply = pkt.to_bytes();

        let mut bad_checksum = reply.clone();
        bad_checksum[14 + 10] ^= 0x01; // the IPv4 header checksum
        let truncated = &reply[..reply.len() - 1];
        let mut query_op = reply.clone();
        query_op[14 + 20 + 8] = OpCode::Read.to_u8(); // the NetChain opcode
        for frame in [&bad_checksum[..], truncated, &query_op[..]] {
            assert!(!client.absorb_reply_at(SimTime(1), frame));
            assert_eq!(client.report().completed, 0);
            assert_eq!(client.agent_stats().stale_replies, 0);
        }

        assert!(client.absorb_reply_at(SimTime(1), &reply));
        assert_eq!(client.report().completed, 1);
        assert!(!client.absorb_reply_at(SimTime(2), &reply));
        assert_eq!(client.report().completed, 1);
        assert_eq!(client.agent_stats().stale_replies, 1);
    }
}
