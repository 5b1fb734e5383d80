//! The NetChain switch program: Algorithm 1 (ProcessQuery) plus chain
//! forwarding, failover/recovery rule handling, and the compare-and-swap
//! primitive used to build locks.
//!
//! A switch does not statically know whether it is the head, a middle replica
//! or the tail of any particular chain — that information is carried by the
//! query itself: a mutation arriving with `seq == 0` has not been sequenced
//! yet, so the receiving switch *is* the head for that query and assigns the
//! next sequence number; a mutation with `seq > 0` is mid-chain and is applied
//! only if its `(session, seq)` tuple is newer than the stored one; a query
//! with an empty remaining-chain list is at the tail and generates the reply.

use crate::forward::{FailoverAction, ForwardingTable};
use crate::kv::SwitchKvStore;
use crate::pipeline::PipelineConfig;
use crate::stats::{ProbeGauges, SwitchStats};
use netchain_wire::{
    BatchEncoder, Ipv4Addr, NetChainPacket, OpCode, QueryStatus, StatSnapshot, Value,
};

/// Why a switch dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The packet carried a stale (session, sequence) tuple (Algorithm 1
    /// line 13).
    StaleSequence,
    /// A mid-chain mutation referenced a key this replica does not hold
    /// (can only happen transiently during reconfiguration).
    MidChainMiss,
    /// A recovery "block" rule is in effect for the destination (Algorithm 3
    /// phase 1).
    Blocked,
    /// The switch has not been activated yet (a replacement switch before
    /// Algorithm 3 phase 2).
    Inactive,
    /// The packet was not a NetChain packet and the switch model has nothing
    /// to do with it (pure transit is handled by the caller's L3 logic).
    NotNetChain,
}

/// The data-plane's verdict on a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchAction {
    /// Forward the (possibly rewritten) packet; the destination IP says where.
    Forward(NetChainPacket),
    /// Drop the packet.
    Drop(DropReason),
}

/// One item of a staged burst handed to [`NetChainSwitch::step_batch_staged`].
///
/// The caller's stage-3 prepass decides the lane: read queries addressed to a
/// live, rule-free switch ride the borrowed fast lane with their probed index
/// slot; everything else is materialised into an owned packet and takes the
/// scalar path.
#[derive(Debug)]
pub enum StagedPacket<'a> {
    /// A validated read-query frame plus its probed register slot (`None` on
    /// an index miss). `client` and `request_id` are the query's source IP
    /// and request id, echoed back in the outcome so the caller can account
    /// for the reply without re-parsing the frame.
    FastRead {
        /// The raw query frame (borrowed from the receive buffer).
        frame: &'a [u8],
        /// Stage-3 probe result: the key's register slot, if indexed.
        slot: Option<usize>,
        /// The querying client's IP (the frame's IPv4 source).
        client: Ipv4Addr,
        /// The query's request id.
        request_id: u64,
    },
    /// Any other packet; handled exactly like [`NetChainSwitch::step_batch`].
    Owned(NetChainPacket),
}

/// Per-item outcome of [`NetChainSwitch::step_batch_staged`], in item order.
#[derive(Debug)]
pub enum StagedOutcome {
    /// A fast-lane read reply, already written into the encoder. Carries the
    /// client IP and request id for the caller's reply accounting.
    FastReply {
        /// Destination of the emitted reply.
        client: Ipv4Addr,
        /// Request id of the answered query.
        request_id: u64,
    },
    /// An owned packet turned into a reply, already written into the encoder;
    /// the packet itself is returned for buffer pooling.
    Reply(NetChainPacket),
    /// A non-reply verdict on an owned packet (chain forward or drop).
    Action(SwitchAction),
}

/// Role a switch plays for a given query, derived per packet (diagnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchRole {
    /// First chain hop of a mutation (assigns sequence numbers).
    Head,
    /// Intermediate chain hop.
    Replica,
    /// Last chain hop (generates the reply).
    Tail,
}

/// A NetChain-programmed switch data plane.
#[derive(Debug, Clone)]
pub struct NetChainSwitch {
    ip: Ipv4Addr,
    kv: SwitchKvStore,
    forwarding: ForwardingTable,
    stats: SwitchStats,
    /// Session number this switch stamps on writes it sequences as head.
    /// Bumped by the controller whenever this switch becomes the head of a
    /// chain during recovery (§5.2).
    session: u64,
    /// Whether the switch processes queries addressed to it. A replacement
    /// switch is installed deactivated and activated in recovery phase 2.
    active: bool,
    /// Executor-published gauges echoed in stat probe replies.
    gauges: ProbeGauges,
}

impl NetChainSwitch {
    /// Creates a switch with the given IP and pipeline geometry.
    pub fn new(ip: Ipv4Addr, config: PipelineConfig) -> Self {
        NetChainSwitch {
            ip,
            kv: SwitchKvStore::new(config),
            forwarding: ForwardingTable::new(),
            stats: SwitchStats::default(),
            session: 0,
            active: true,
            gauges: ProbeGauges::default(),
        }
    }

    /// This switch's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Read access to the on-chip store (control plane / tests).
    pub fn kv(&self) -> &SwitchKvStore {
        &self.kv
    }

    /// Mutable access to the on-chip store (control-plane operations:
    /// insertions, garbage collection, state synchronisation).
    pub fn kv_mut(&mut self) -> &mut SwitchKvStore {
        &mut self.kv
    }

    /// Read access to the failover rule table.
    pub fn forwarding(&self) -> &ForwardingTable {
        &self.forwarding
    }

    /// Mutable access to the failover rule table (controller only).
    pub fn forwarding_mut(&mut self) -> &mut ForwardingTable {
        &mut self.forwarding
    }

    /// Counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Resets counters (used between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = SwitchStats::default();
    }

    /// Publishes executor gauges (queue depth, service-latency buckets) for
    /// the next stat probe reply. Called at burst boundaries, never per
    /// packet.
    pub fn set_probe_gauges(&mut self, gauges: ProbeGauges) {
        self.gauges = gauges;
    }

    /// The compact telemetry snapshot a [`netchain_wire::OpCode::Stat`] probe
    /// is answered with: live counters, register occupancy, and whatever
    /// gauges the executor last published.
    pub fn stat_snapshot(&self) -> StatSnapshot {
        StatSnapshot {
            reads: self.stats.reads,
            writes: self.stats.writes,
            cas_ops: self.stats.cas_ops,
            deletes: self.stats.deletes,
            replies: self.stats.replies_generated,
            chain_forwards: self.stats.chain_forwards,
            stale_drops: self.stats.stale_drops,
            misses: self.stats.misses,
            blocked: self.stats.blocked,
            packets_seen: self.stats.packets_seen,
            store_size: self.kv.store_size() as u32,
            free_slots: self.kv.free_slots() as u32,
            queue_depth: self.gauges.queue_depth,
            queue_cap: self.gauges.queue_cap,
            lat_buckets: self.gauges.lat_buckets,
        }
    }

    /// The session number stamped on writes sequenced by this switch.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Sets the session number (controller, when this switch becomes a head).
    pub fn set_session(&mut self, session: u64) {
        self.session = session;
    }

    /// Whether the switch processes queries addressed to it.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Activates or deactivates query processing (Algorithm 3 phase 2).
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// Wipes all NetChain state (a switch that rejoins after failing starts
    /// empty and must be resynchronised by the controller).
    pub fn wipe(&mut self) {
        self.kv.clear_all();
        self.forwarding = ForwardingTable::new();
        self.session = 0;
    }

    /// Handles a burst of packets in one call, appending one
    /// [`SwitchAction`] per packet (in order) to `out`.
    ///
    /// This is the entry point the multi-core fabric (`netchain-fabric`)
    /// uses: processing in bursts of ~32 amortises the per-call overhead and
    /// keeps the match tables and register arrays hot in cache across the
    /// burst, the software analogue of a hardware pipeline staying full. The
    /// per-packet semantics are exactly [`Self::handle`] — a batch is a
    /// sequential application, not a transaction.
    pub fn step_batch(
        &mut self,
        pkts: impl IntoIterator<Item = NetChainPacket>,
        out: &mut Vec<SwitchAction>,
    ) {
        for pkt in pkts {
            out.push(self.handle(pkt));
        }
    }

    /// Stage 4 of the staged batch pipeline: executes a burst whose frames
    /// were already validated (stage 1), hashed (stage 2) and probed
    /// (stage 3), pushing per-item outcomes to `out` **in item order**.
    ///
    /// Fast-lane read queries never materialise a [`NetChainPacket`]: the
    /// reply is emitted straight from the query frame and the register arrays
    /// into `replies`. Everything else goes through [`Self::handle`] exactly
    /// as [`Self::step_batch`] would, and reply packets are *also* pushed
    /// into `replies` so the encoder sees replies in the same order a scalar
    /// pass would produce them. Stats, per-key ordering within the burst and
    /// reply bytes are identical to the scalar path (pinned by tests).
    pub fn step_batch_staged<'a>(
        &mut self,
        pkts: impl IntoIterator<Item = StagedPacket<'a>>,
        replies: &mut BatchEncoder,
        out: &mut Vec<StagedOutcome>,
    ) {
        for item in pkts {
            match item {
                StagedPacket::FastRead {
                    frame,
                    slot,
                    client,
                    request_id,
                } => {
                    self.staged_read_reply(frame, slot, replies);
                    out.push(StagedOutcome::FastReply { client, request_id });
                }
                StagedPacket::Owned(pkt) => match self.handle(pkt) {
                    SwitchAction::Forward(p) if p.netchain.op.is_reply() => {
                        replies.push(&p).expect("replies are bounded like queries");
                        out.push(StagedOutcome::Reply(p));
                    }
                    action => out.push(StagedOutcome::Action(action)),
                },
            }
        }
    }

    /// The fast read lane: [`Self::process_read`] semantics (same stats, same
    /// reply bytes) executed against a stage-3 probed slot, writing the reply
    /// directly into the batch encoder.
    fn staged_read_reply(&mut self, frame: &[u8], slot: Option<usize>, replies: &mut BatchEncoder) {
        self.stats.packets_seen += 1;
        self.stats.reads += 1;
        let live = slot.filter(|&s| self.kv.is_valid(s));
        let (status, session, seq, value_len) = match live {
            Some(s) => (
                QueryStatus::Ok,
                self.kv.session(s) as u16,
                self.kv.seq(s),
                self.kv.value_len(s),
            ),
            None => {
                self.stats.misses += 1;
                (QueryStatus::NotFound, 0, 0, 0)
            }
        };
        let kv = &self.kv;
        replies.push_read_reply(frame, self.ip, status, session, seq, value_len, |buf| {
            if let Some(s) = live {
                kv.copy_value_into(s, buf);
            }
        });
        self.stats.replies_generated += 1;
    }

    /// Handles one NetChain packet arriving at this switch. The caller (the
    /// simulator adapter or the UDP deployment) is responsible for the
    /// underlay forwarding of whatever comes back.
    pub fn handle(&mut self, pkt: NetChainPacket) -> SwitchAction {
        if !pkt.is_netchain() {
            return SwitchAction::Drop(DropReason::NotNetChain);
        }
        self.stats.packets_seen += 1;

        // A packet can bounce between the local program and the failover
        // rules a small number of times: a rule rewrite may point the packet
        // at this very switch (it is the next chain hop after the failed
        // one), and a switch that is itself a neighbour of a failed switch
        // applies its rules to packets it forwards onwards ("if N overlaps
        // with S0/S2, it updates the destination IP after/before it processes
        // the query", §5.1). Chains are short, so the bound is generous.
        let mut action = SwitchAction::Forward(pkt);
        let mut processed_locally = false;
        for _ in 0..8 {
            let current = match action {
                SwitchAction::Forward(p) => p,
                drop => return drop,
            };
            if current.ip.dst == self.ip && current.netchain.op.is_query() && !processed_locally {
                // The packet is addressed to us: run Algorithm 1.
                if !self.active {
                    return SwitchAction::Drop(DropReason::Inactive);
                }
                if current.netchain.value.len() > self.kv.config().max_line_rate_value() {
                    // Larger values recirculate; the behaviour is identical,
                    // the cost is accounted for by the capacity model.
                    self.stats.recirculations += (self
                        .kv
                        .config()
                        .passes_for_value(current.netchain.value.len())
                        - 1) as u64;
                }
                processed_locally = true;
                action = match current.netchain.op {
                    OpCode::Read => self.process_read(current),
                    OpCode::Write | OpCode::Cas | OpCode::Delete => self.process_mutation(current),
                    OpCode::Stat => self.process_stat(current),
                    other => self.process_other(other, current),
                };
            } else if current.ip.dst != self.ip {
                if let Some(rule) = self
                    .forwarding
                    .action_for(current.ip.dst, &current.netchain.key)
                {
                    action = self.apply_failover(rule, current);
                } else {
                    if !processed_locally {
                        self.stats.transits += 1;
                    }
                    return SwitchAction::Forward(current);
                }
            } else {
                // A reply addressed to the switch itself, or a query bouncing
                // back after local processing: nothing further to do here.
                return SwitchAction::Forward(current);
            }
        }
        action
    }

    /// Answers an in-band stat probe: encode the current snapshot into the
    /// reply value and send it straight back. Probes never touch the
    /// key-value registers or the chain, so a probe is as cheap as a read
    /// miss and cannot perturb data traffic.
    fn process_stat(&mut self, mut pkt: NetChainPacket) -> SwitchAction {
        self.stats.stat_probes += 1;
        let value = Value::new(self.stat_snapshot().encode().to_vec())
            .expect("snapshot length is bounded by MAX_VALUE_LEN");
        pkt.make_reply(self.ip, QueryStatus::Ok, value);
        self.stats.replies_generated += 1;
        SwitchAction::Forward(pkt)
    }

    fn process_other(&mut self, op: OpCode, mut pkt: NetChainPacket) -> SwitchAction {
        match op {
            OpCode::Insert => {
                // Insertions go through the control plane (§4.1); a data-plane
                // insert is answered with a retry indication.
                pkt.make_reply(self.ip, QueryStatus::Declined, Value::empty());
                self.stats.replies_generated += 1;
                SwitchAction::Forward(pkt)
            }
            // Replies transit back to the client; if one is addressed to the
            // switch itself something is misconfigured — drop it.
            _ => SwitchAction::Drop(DropReason::NotNetChain),
        }
    }

    fn apply_failover(&mut self, action: FailoverAction, mut pkt: NetChainPacket) -> SwitchAction {
        match action {
            FailoverAction::ChainFailover => {
                self.stats.failover_hits += 1;
                if pkt.advance_to_next_hop() {
                    SwitchAction::Forward(pkt)
                } else {
                    // The failed switch was the last hop: answer the client on
                    // its behalf (Algorithm 2 lines 5–6). The value echoed is
                    // whatever the query carried — for writes that is the
                    // value already applied by the surviving prefix.
                    let value = pkt.netchain.value.clone();
                    pkt.make_reply(self.ip, QueryStatus::Ok, value);
                    self.stats.replies_generated += 1;
                    SwitchAction::Forward(pkt)
                }
            }
            FailoverAction::Block => {
                self.stats.blocked += 1;
                SwitchAction::Drop(DropReason::Blocked)
            }
            FailoverAction::Redirect(new_ip) => {
                self.stats.failover_hits += 1;
                pkt.ip.dst = new_ip;
                pkt.fix_lengths();
                SwitchAction::Forward(pkt)
            }
        }
    }

    fn process_read(&mut self, mut pkt: NetChainPacket) -> SwitchAction {
        self.stats.reads += 1;
        let (status, value, seq, session) = match self.kv.lookup(&pkt.netchain.key) {
            Some(slot) if self.kv.is_valid(slot) => (
                QueryStatus::Ok,
                self.kv.read_value(slot),
                self.kv.seq(slot),
                self.kv.session(slot),
            ),
            _ => {
                self.stats.misses += 1;
                (QueryStatus::NotFound, Value::empty(), 0, 0)
            }
        };
        pkt.netchain.seq = seq;
        pkt.netchain.session = session as u16;
        pkt.make_reply(self.ip, status, value);
        self.stats.replies_generated += 1;
        SwitchAction::Forward(pkt)
    }

    fn process_mutation(&mut self, mut pkt: NetChainPacket) -> SwitchAction {
        let is_head = pkt.netchain.seq == 0;
        let Some(slot) = self.kv.lookup(&pkt.netchain.key) else {
            self.stats.misses += 1;
            if is_head {
                pkt.make_reply(self.ip, QueryStatus::NotFound, Value::empty());
                self.stats.replies_generated += 1;
                return SwitchAction::Forward(pkt);
            }
            return SwitchAction::Drop(DropReason::MidChainMiss);
        };

        if is_head {
            // Head: sequence the write (Algorithm 1 lines 6–9), stamping the
            // switch's session number for head-replacement ordering.
            if pkt.netchain.op == OpCode::Cas {
                self.stats.cas_ops += 1;
                let stored = self.kv.read_value(slot);
                let (expected, new_value) = split_cas_value(&pkt.netchain.value);
                let current = stored.as_u64().unwrap_or(0);
                if !self.kv.is_valid(slot) || current != expected {
                    self.stats.cas_failures += 1;
                    pkt.make_reply(self.ip, QueryStatus::CasFailed, stored);
                    self.stats.replies_generated += 1;
                    return SwitchAction::Forward(pkt);
                }
                // The CAS succeeded: downstream replicas apply the new value
                // unconditionally (subject to the sequence check), so rewrite
                // the carried value to just the new value.
                pkt.netchain.value = Value::from_u64(new_value);
            }
            let seq = self.kv.seq(slot) + 1;
            pkt.netchain.seq = seq;
            pkt.netchain.session = self.session as u16;
            self.apply_mutation(slot, &pkt);
        } else {
            // Replica/tail: apply only if newer (Algorithm 1 lines 10–13).
            let incoming = (u64::from(pkt.netchain.session), pkt.netchain.seq);
            if incoming <= self.kv.ordering(slot) {
                self.stats.stale_drops += 1;
                return SwitchAction::Drop(DropReason::StaleSequence);
            }
            self.apply_mutation(slot, &pkt);
        }

        if pkt.advance_to_next_hop() {
            self.stats.chain_forwards += 1;
            SwitchAction::Forward(pkt)
        } else {
            // Tail: reply to the client with the applied value.
            let value = pkt.netchain.value.clone();
            pkt.make_reply(self.ip, QueryStatus::Ok, value);
            self.stats.replies_generated += 1;
            SwitchAction::Forward(pkt)
        }
    }

    fn apply_mutation(&mut self, slot: usize, pkt: &NetChainPacket) {
        match pkt.netchain.op {
            OpCode::Write | OpCode::Cas => {
                self.kv.write_value(slot, &pkt.netchain.value);
                self.kv.revalidate(slot);
                if pkt.netchain.op == OpCode::Write {
                    self.stats.writes += 1;
                } else if pkt.netchain.seq != 0 {
                    // Downstream replicas count CAS applications as writes of
                    // the already-decided value.
                    self.stats.writes += 1;
                }
            }
            OpCode::Delete => {
                self.kv.invalidate(slot);
                self.stats.deletes += 1;
            }
            _ => unreachable!("apply_mutation is only called for mutations"),
        }
        self.kv.set_seq(slot, pkt.netchain.seq);
        self.kv.set_session(slot, u64::from(pkt.netchain.session));
    }
}

/// Splits a CAS value payload into `(expected, new)`: the first 8 bytes are
/// the expected current value, the next 8 bytes the replacement.
fn split_cas_value(value: &Value) -> (u64, u64) {
    let bytes = value.as_bytes();
    let mut expected = [0u8; 8];
    let mut new = [0u8; 8];
    if bytes.len() >= 8 {
        expected.copy_from_slice(&bytes[..8]);
    }
    if bytes.len() >= 16 {
        new.copy_from_slice(&bytes[8..16]);
    }
    (u64::from_be_bytes(expected), u64::from_be_bytes(new))
}

// The whole data-plane state is owned (no Rc/RefCell/raw pointers), so a
// switch can be moved onto a fabric worker shard. Compile-time proof — if a
// future change breaks this, the build fails here rather than in the fabric.
const _: () = {
    const fn assert_send_state<T: Send + 'static>() {}
    assert_send_state::<NetChainSwitch>();
};

/// The 16-byte CAS payload for `(expected, new)`, on the stack.
pub fn cas_bytes(expected: u64, new: u64) -> [u8; 16] {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&expected.to_be_bytes());
    bytes[8..].copy_from_slice(&new.to_be_bytes());
    bytes
}

/// Builds the 16-byte CAS payload from `(expected, new)`.
pub fn cas_value(expected: u64, new: u64) -> Value {
    Value::new(cas_bytes(expected, new)).expect("16 bytes is well under the maximum value size")
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_wire::{ChainList, Key};

    fn switch(id: u32) -> NetChainSwitch {
        let mut sw = NetChainSwitch::new(Ipv4Addr::for_switch(id), PipelineConfig::tiny(16));
        sw.kv_mut()
            .insert(Key::from_name("foo"), &Value::from_u64(0))
            .unwrap();
        sw
    }

    fn write_query(dst: u32, chain: Vec<u32>, value: u64) -> NetChainPacket {
        NetChainPacket::query(
            Ipv4Addr::for_host(0),
            40000,
            Ipv4Addr::for_switch(dst),
            OpCode::Write,
            Key::from_name("foo"),
            Value::from_u64(value),
            ChainList::new(
                chain
                    .into_iter()
                    .map(Ipv4Addr::for_switch)
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
            1,
        )
    }

    fn read_query(dst: u32) -> NetChainPacket {
        NetChainPacket::query(
            Ipv4Addr::for_host(0),
            40000,
            Ipv4Addr::for_switch(dst),
            OpCode::Read,
            Key::from_name("foo"),
            Value::empty(),
            ChainList::empty(),
            2,
        )
    }

    #[test]
    fn head_assigns_sequence_and_forwards() {
        let mut s0 = switch(0);
        let pkt = write_query(0, vec![1, 2], 42);
        let out = match s0.handle(pkt) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.seq, 1);
        assert_eq!(out.ip.dst, Ipv4Addr::for_switch(1));
        assert_eq!(out.netchain.chain.len(), 1);
        let slot = s0.kv().lookup(&Key::from_name("foo")).unwrap();
        assert_eq!(s0.kv().read_value(slot).as_u64(), Some(42));
        assert_eq!(s0.kv().seq(slot), 1);
        assert_eq!(s0.stats().writes, 1);
        assert_eq!(s0.stats().chain_forwards, 1);
    }

    #[test]
    fn tail_applies_and_replies() {
        let mut s2 = switch(2);
        let mut pkt = write_query(2, vec![], 7);
        pkt.netchain.seq = 5; // already sequenced by the head
        let out = match s2.handle(pkt) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.op, OpCode::WriteReply);
        assert_eq!(out.ip.dst, Ipv4Addr::for_host(0));
        assert_eq!(out.netchain.status, QueryStatus::Ok);
        let slot = s2.kv().lookup(&Key::from_name("foo")).unwrap();
        assert_eq!(s2.kv().seq(slot), 5);
        assert_eq!(s2.kv().read_value(slot).as_u64(), Some(7));
    }

    #[test]
    fn stale_sequence_is_dropped() {
        let mut s1 = switch(1);
        let mut newer = write_query(1, vec![], 2);
        newer.netchain.seq = 10;
        s1.handle(newer);
        let mut stale = write_query(1, vec![], 1);
        stale.netchain.seq = 9;
        assert_eq!(
            s1.handle(stale),
            SwitchAction::Drop(DropReason::StaleSequence)
        );
        let slot = s1.kv().lookup(&Key::from_name("foo")).unwrap();
        assert_eq!(s1.kv().read_value(slot).as_u64(), Some(2));
        assert_eq!(s1.stats().stale_drops, 1);
    }

    #[test]
    fn newer_session_overrides_equal_sequence_space() {
        let mut s1 = switch(1);
        let mut w = write_query(1, vec![], 3);
        w.netchain.seq = 10;
        w.netchain.session = 0;
        s1.handle(w);
        // A new head with session 1 restarts sequence numbers at 1; it must
        // still be accepted because the session is newer.
        let mut w2 = write_query(1, vec![], 4);
        w2.netchain.seq = 1;
        w2.netchain.session = 1;
        assert!(matches!(s1.handle(w2), SwitchAction::Forward(_)));
        let slot = s1.kv().lookup(&Key::from_name("foo")).unwrap();
        assert_eq!(s1.kv().read_value(slot).as_u64(), Some(4));
        assert_eq!(s1.kv().ordering(slot), (1, 1));
    }

    #[test]
    fn read_replies_with_current_value_and_miss_is_not_found() {
        let mut s2 = switch(2);
        let slot = s2.kv().lookup(&Key::from_name("foo")).unwrap();
        s2.kv_mut().write_value(slot, &Value::from_u64(99));
        let out = match s2.handle(read_query(2)) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.op, OpCode::ReadReply);
        assert_eq!(out.netchain.value.as_u64(), Some(99));
        assert_eq!(out.netchain.status, QueryStatus::Ok);

        let mut miss = read_query(2);
        miss.netchain.key = Key::from_name("absent");
        let out = match s2.handle(miss) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.status, QueryStatus::NotFound);
        assert_eq!(s2.stats().misses, 1);
    }

    #[test]
    fn cas_succeeds_then_fails() {
        let mut s0 = switch(0);
        // Acquire: expect 0, set 77.
        let mut acquire = write_query(0, vec![], 0);
        acquire.netchain.op = OpCode::Cas;
        acquire.netchain.value = cas_value(0, 77);
        let out = match s0.handle(acquire) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.op, OpCode::CasReply);
        assert_eq!(out.netchain.status, QueryStatus::Ok);
        let slot = s0.kv().lookup(&Key::from_name("foo")).unwrap();
        assert_eq!(s0.kv().read_value(slot).as_u64(), Some(77));

        // Second acquire by someone else: expect 0, but the lock holds 77.
        let mut steal = write_query(0, vec![], 0);
        steal.netchain.op = OpCode::Cas;
        steal.netchain.value = cas_value(0, 88);
        let out = match s0.handle(steal) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.status, QueryStatus::CasFailed);
        assert_eq!(out.netchain.value.as_u64(), Some(77));
        assert_eq!(s0.stats().cas_failures, 1);

        // Release by the owner: expect 77, set 0.
        let mut release = write_query(0, vec![], 0);
        release.netchain.op = OpCode::Cas;
        release.netchain.value = cas_value(77, 0);
        let out = match s0.handle(release) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.status, QueryStatus::Ok);
        assert_eq!(s0.kv().read_value(slot).as_u64(), Some(0));
    }

    #[test]
    fn cas_forwards_plain_new_value_down_the_chain() {
        let mut s0 = switch(0);
        let mut acquire = write_query(0, vec![1], 0);
        acquire.netchain.op = OpCode::Cas;
        acquire.netchain.value = cas_value(0, 55);
        let out = match s0.handle(acquire) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        // Mid-chain packet carries the decided value and a sequence number.
        assert_eq!(out.ip.dst, Ipv4Addr::for_switch(1));
        assert_eq!(out.netchain.value.as_u64(), Some(55));
        assert!(out.netchain.seq > 0);
        // The replica applies it via the ordinary write path.
        let mut s1 = switch(1);
        let applied = match s1.handle(out) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(applied.netchain.op, OpCode::CasReply);
        let slot = s1.kv().lookup(&Key::from_name("foo")).unwrap();
        assert_eq!(s1.kv().read_value(slot).as_u64(), Some(55));
    }

    #[test]
    fn delete_invalidates_then_read_misses() {
        let mut s0 = switch(0);
        let mut del = write_query(0, vec![], 0);
        del.netchain.op = OpCode::Delete;
        del.netchain.value = Value::empty();
        let out = match s0.handle(del) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.op, OpCode::DeleteReply);
        let out = match s0.handle(read_query(0)) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.status, QueryStatus::NotFound);
        assert_eq!(s0.stats().deletes, 1);
    }

    #[test]
    fn mutation_miss_behaviour_depends_on_role() {
        let mut s0 = switch(0);
        let mut head_miss = write_query(0, vec![1], 9);
        head_miss.netchain.key = Key::from_name("absent");
        let out = match s0.handle(head_miss) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.status, QueryStatus::NotFound);

        let mut mid_miss = write_query(0, vec![1], 9);
        mid_miss.netchain.key = Key::from_name("absent");
        mid_miss.netchain.seq = 3;
        assert_eq!(
            s0.handle(mid_miss),
            SwitchAction::Drop(DropReason::MidChainMiss)
        );
    }

    #[test]
    fn failover_rule_skips_failed_hop_or_replies() {
        // Neighbour N holds a ChainFailover rule for S1.
        let mut n = switch(5);
        n.forwarding_mut()
            .install_chain_failover(Ipv4Addr::for_switch(1));
        // A write in flight towards failed S1 with S2 still to visit.
        let mut pkt = write_query(1, vec![2], 3);
        pkt.netchain.seq = 4;
        let out = match n.handle(pkt) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.ip.dst, Ipv4Addr::for_switch(2));
        assert!(out.netchain.chain.is_empty());
        assert_eq!(n.stats().failover_hits, 1);

        // A write whose failed hop was the last one is answered for the client.
        let mut pkt = write_query(1, vec![], 3);
        pkt.netchain.seq = 4;
        let out = match n.handle(pkt) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.op, OpCode::WriteReply);
        assert_eq!(out.ip.dst, Ipv4Addr::for_host(0));
    }

    #[test]
    fn block_and_redirect_rules() {
        use crate::forward::{FailoverRule, RuleScope};
        let mut n = switch(5);
        n.forwarding_mut().install(
            Ipv4Addr::for_switch(1),
            FailoverRule {
                priority: 2,
                scope: RuleScope::All,
                action: FailoverAction::Block,
            },
        );
        let mut pkt = write_query(1, vec![2], 3);
        pkt.netchain.seq = 2;
        assert_eq!(n.handle(pkt), SwitchAction::Drop(DropReason::Blocked));
        assert_eq!(n.stats().blocked, 1);

        n.forwarding_mut().install(
            Ipv4Addr::for_switch(1),
            FailoverRule {
                priority: 3,
                scope: RuleScope::All,
                action: FailoverAction::Redirect(Ipv4Addr::for_switch(3)),
            },
        );
        let mut pkt = write_query(1, vec![2], 3);
        pkt.netchain.seq = 2;
        let out = match n.handle(pkt) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.ip.dst, Ipv4Addr::for_switch(3));
        // The chain list is untouched by a redirect.
        assert_eq!(out.netchain.chain.len(), 1);
    }

    #[test]
    fn transit_packets_pass_through_untouched() {
        let mut s1 = switch(1);
        let pkt = write_query(2, vec![], 5); // destined to S2, transiting S1
        let out = match s1.handle(pkt.clone()) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out, pkt);
        assert_eq!(s1.stats().transits, 1);
        assert_eq!(s1.stats().processed(), 0);
    }

    #[test]
    fn inactive_switch_drops_queries_addressed_to_it() {
        let mut s3 = switch(3);
        s3.set_active(false);
        let pkt = read_query(3);
        assert_eq!(s3.handle(pkt), SwitchAction::Drop(DropReason::Inactive));
        s3.set_active(true);
        assert!(matches!(s3.handle(read_query(3)), SwitchAction::Forward(_)));
    }

    #[test]
    fn insert_via_data_plane_is_declined() {
        let mut s0 = switch(0);
        let mut pkt = write_query(0, vec![], 1);
        pkt.netchain.op = OpCode::Insert;
        let out = match s0.handle(pkt) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.op, OpCode::InsertReply);
        assert_eq!(out.netchain.status, QueryStatus::Declined);
    }

    #[test]
    fn stat_probe_replies_with_snapshot_and_leaves_state_alone() {
        let mut s0 = switch(0);
        s0.handle(read_query(0));
        s0.handle(write_query(0, vec![], 5));
        s0.set_probe_gauges(ProbeGauges {
            queue_depth: 3,
            queue_cap: 256,
            lat_buckets: [1, 0, 2, 0, 0, 0, 0, 7],
        });
        let size_before = s0.kv().store_size();

        let mut probe = read_query(0);
        probe.netchain.op = OpCode::Stat;
        let out = match s0.handle(probe) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(out.netchain.op, OpCode::StatReply);
        assert_eq!(out.netchain.status, QueryStatus::Ok);
        assert_eq!(out.ip.dst, Ipv4Addr::for_host(0));

        let snap = StatSnapshot::decode(out.netchain.value.as_bytes()).unwrap();
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.store_size, size_before as u32);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.queue_cap, 256);
        assert_eq!(snap.lat_buckets[7], 7);
        // The probe itself is counted but never touches the registers.
        assert_eq!(s0.stats().stat_probes, 1);
        assert_eq!(s0.kv().store_size(), size_before);

        // A second probe sees the first one's packet count.
        let mut probe2 = read_query(0);
        probe2.netchain.op = OpCode::Stat;
        let out2 = match s0.handle(probe2) {
            SwitchAction::Forward(p) => p,
            other => panic!("unexpected: {other:?}"),
        };
        let snap2 = StatSnapshot::decode(out2.netchain.value.as_bytes()).unwrap();
        assert_eq!(snap2.packets_seen, snap.packets_seen + 1);
        assert!(snap2.replies > snap.replies);
    }

    #[test]
    fn non_netchain_traffic_is_ignored() {
        let mut s0 = switch(0);
        let mut pkt = write_query(0, vec![], 1);
        pkt.udp.dst_port = 53;
        pkt.udp.src_port = 1234;
        assert_eq!(s0.handle(pkt), SwitchAction::Drop(DropReason::NotNetChain));
    }

    #[test]
    fn step_batch_matches_sequential_handle() {
        let mut batched = switch(0);
        let mut sequential = switch(0);
        let pkts: Vec<NetChainPacket> = (0..40)
            .map(|i| match i % 3 {
                0 => write_query(0, vec![1], 100 + i),
                1 => read_query(0),
                _ => {
                    let mut p = write_query(0, vec![], 0);
                    p.netchain.op = OpCode::Cas;
                    p.netchain.value = cas_value(0, i);
                    p
                }
            })
            .collect();
        let mut batch_out = Vec::new();
        batched.step_batch(pkts.clone(), &mut batch_out);
        let seq_out: Vec<SwitchAction> = pkts.into_iter().map(|p| sequential.handle(p)).collect();
        assert_eq!(batch_out, seq_out);
        assert_eq!(batched.stats(), sequential.stats());
    }

    #[test]
    fn staged_batch_matches_scalar_path() {
        let mut staged = switch(0);
        let mut scalar = switch(0);
        let miss = {
            let mut p = read_query(0);
            p.netchain.key = Key::from_name("absent");
            p
        };
        // Interleave fast-lane reads (hit and miss) with tail writes (reply)
        // and chain-forward writes (non-reply) so the staged path is checked
        // against mutations landing between reads of the same key.
        let pkts: Vec<NetChainPacket> = (0..16)
            .map(|i| match i % 4 {
                0 => read_query(0),
                1 => write_query(0, vec![], 500 + i),
                2 => miss.clone(),
                _ => write_query(0, vec![1], 900 + i),
            })
            .collect();

        let mut scalar_replies = BatchEncoder::new();
        let mut scalar_actions = Vec::new();
        for p in pkts.clone() {
            let act = scalar.handle(p);
            if let SwitchAction::Forward(ref r) = act {
                if r.netchain.op.is_reply() {
                    scalar_replies.push(r).unwrap();
                }
            }
            scalar_actions.push(act);
        }

        // The staged prepass probes slots before any packet executes — the
        // index never changes mid-burst, so the slots stay correct even with
        // writes in between; values are re-read at execution time.
        let frames: Vec<Vec<u8>> = pkts.iter().map(|p| p.to_bytes()).collect();
        let items: Vec<StagedPacket> = pkts
            .iter()
            .zip(&frames)
            .map(|(p, f)| {
                if p.netchain.op == OpCode::Read {
                    StagedPacket::FastRead {
                        frame: f.as_slice(),
                        slot: staged.kv().lookup(&p.netchain.key),
                        client: p.ip.src,
                        request_id: p.netchain.request_id,
                    }
                } else {
                    StagedPacket::Owned(p.clone())
                }
            })
            .collect();
        let mut staged_replies = BatchEncoder::new();
        let mut outcomes = Vec::new();
        staged.step_batch_staged(items, &mut staged_replies, &mut outcomes);

        assert_eq!(staged.stats(), scalar.stats());
        assert_eq!(staged_replies.len(), scalar_replies.len());
        for (i, (a, b)) in staged_replies
            .frames()
            .zip(scalar_replies.frames())
            .enumerate()
        {
            assert_eq!(a, b, "reply frame {i} diverges from the scalar bytes");
        }
        assert_eq!(outcomes.len(), scalar_actions.len());
        for (o, a) in outcomes.iter().zip(&scalar_actions) {
            match (o, a) {
                (StagedOutcome::FastReply { client, request_id }, SwitchAction::Forward(p)) => {
                    assert!(p.netchain.op.is_reply());
                    assert_eq!(*client, p.ip.dst);
                    assert_eq!(*request_id, p.netchain.request_id);
                }
                (StagedOutcome::Reply(rp), SwitchAction::Forward(p)) => {
                    assert!(p.netchain.op.is_reply());
                    assert_eq!(rp, p);
                }
                (StagedOutcome::Action(sa), act) => assert_eq!(sa, act),
                other => panic!("mismatched outcome/action pair: {other:?}"),
            }
        }
    }

    #[test]
    fn wipe_clears_everything() {
        let mut s0 = switch(0);
        s0.set_session(4);
        s0.forwarding_mut()
            .install_chain_failover(Ipv4Addr::for_switch(9));
        s0.wipe();
        assert_eq!(s0.kv().store_size(), 0);
        assert!(s0.forwarding().is_empty());
        assert_eq!(s0.session(), 0);
    }
}
