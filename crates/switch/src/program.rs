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
    ETHERNET_HEADER_LEN,
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

    /// The fast read lane of the staged batch pipeline: a read query whose
    /// frame was validated, hashed and probed by the caller (`slot` is the
    /// key's register slot, `None` on an index miss) is answered straight
    /// from the query frame and the register arrays into `replies`, without
    /// ever materialising a [`NetChainPacket`]. Stats and reply bytes are
    /// exactly what [`Self::handle`] produces for the same query at a switch
    /// no rule diverts the reply of (pinned by tests); the caller checks that
    /// eligibility (a query whose IPv4 destination is elsewhere came by a redirect).
    pub fn read_reply_staged(
        &mut self,
        frame: &[u8],
        slot: Option<usize>,
        replies: &mut BatchEncoder,
    ) {
        self.stats.packets_seen += 1;
        self.stats.failover_hits += u64::from(frame[ETHERNET_HEADER_LEN + 16..][..4] != self.ip.0);
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
    pub fn handle(&mut self, mut pkt: NetChainPacket) -> SwitchAction {
        let hash = pkt.netchain.key.stable_hash();
        match self.handle_hashed(&mut pkt, hash) {
            Ok(()) => SwitchAction::Forward(pkt),
            Err(reason) => SwitchAction::Drop(reason),
        }
    }

    /// [`Self::handle`] for a packet whose key was already hashed
    /// (`hash == pkt.netchain.key.stable_hash()`), stepped where it lies:
    /// `Ok` means forward the (rewritten) packet to its destination IP, `Err`
    /// that it was dropped. The index match, the failover-rule scopes and
    /// nothing else on this path hash the key again, so a packet is hashed
    /// once however many hops it takes.
    pub fn handle_hashed(&mut self, pkt: &mut NetChainPacket, hash: u64) -> Result<(), DropReason> {
        debug_assert_eq!(hash, pkt.netchain.key.stable_hash(), "stale carried hash");
        if !pkt.is_netchain() {
            return Err(DropReason::NotNetChain);
        }
        self.stats.packets_seen += 1;

        // A packet can bounce between the local program and the failover
        // rules a small number of times: a rule rewrite may point the packet
        // at this very switch (it is the next chain hop after the failed
        // one), and a switch that is itself a neighbour of a failed switch
        // applies its rules to packets it forwards onwards ("if N overlaps
        // with S0/S2, it updates the destination IP after/before it processes
        // the query", §5.1). Chains are short, so the bound is generous.
        let mut processed_locally = false;
        for _ in 0..8 {
            if pkt.ip.dst == self.ip {
                if !pkt.netchain.op.is_query() || processed_locally {
                    // A reply addressed to the switch itself, or a query
                    // bouncing back after local processing: nothing further
                    // to do here.
                    return Ok(());
                }
                // The packet is addressed to us: run Algorithm 1.
                if !self.active {
                    return Err(DropReason::Inactive);
                }
                let config = self.kv.config();
                if pkt.netchain.value.len() > config.max_line_rate_value() {
                    // Larger values recirculate; the behaviour is identical,
                    // the cost is accounted for by the capacity model.
                    self.stats.recirculations +=
                        (config.passes_for_value(pkt.netchain.value.len()) - 1) as u64;
                }
                processed_locally = true;
                match pkt.netchain.op {
                    OpCode::Read => self.process_read(pkt, hash),
                    OpCode::Write | OpCode::Cas | OpCode::Delete => {
                        self.process_mutation(pkt, hash)?
                    }
                    OpCode::Stat => self.process_stat(pkt),
                    // Insertions go through the control plane (§4.1); a
                    // data-plane insert is answered with a retry indication.
                    OpCode::Insert => {
                        pkt.netchain.value.clear();
                        self.reply(pkt, QueryStatus::Declined);
                    }
                    // Replies are not queries; unreachable past the guard.
                    _ => return Err(DropReason::NotNetChain),
                }
            } else if let Some(rule) = self.forwarding.action_for_hash(pkt.ip.dst, hash) {
                self.apply_failover(rule, pkt)?;
            } else {
                if !processed_locally {
                    self.stats.transits += 1;
                }
                return Ok(());
            }
        }
        Ok(())
    }

    /// Turns `pkt` into this switch's reply with `status`, carrying whatever
    /// value the packet holds.
    fn reply(&mut self, pkt: &mut NetChainPacket, status: QueryStatus) {
        pkt.make_reply(self.ip, status);
        self.stats.replies_generated += 1;
    }

    /// Answers an in-band stat probe: encode the current snapshot into the
    /// reply value and send it straight back. Probes never touch the
    /// key-value registers or the chain, so a probe is as cheap as a read
    /// miss and cannot perturb data traffic.
    fn process_stat(&mut self, pkt: &mut NetChainPacket) {
        self.stats.stat_probes += 1;
        pkt.netchain
            .value
            .set_bytes(&self.stat_snapshot().encode())
            .expect("snapshot length is bounded by MAX_VALUE_LEN");
        self.reply(pkt, QueryStatus::Ok);
    }

    fn apply_failover(
        &mut self,
        action: FailoverAction,
        pkt: &mut NetChainPacket,
    ) -> Result<(), DropReason> {
        match action {
            FailoverAction::ChainFailover => {
                self.stats.failover_hits += 1;
                if !pkt.advance_to_next_hop() {
                    // The failed switch was the last hop: answer the client on
                    // its behalf (Algorithm 2 lines 5–6). The value echoed is
                    // whatever the query carried — for writes that is the
                    // value already applied by the surviving prefix.
                    self.reply(pkt, QueryStatus::Ok);
                }
            }
            FailoverAction::Block => {
                self.stats.blocked += 1;
                return Err(DropReason::Blocked);
            }
            FailoverAction::Redirect(new_ip) => {
                self.stats.failover_hits += 1;
                pkt.ip.dst = new_ip;
                pkt.fix_lengths();
            }
        }
        Ok(())
    }

    fn process_read(&mut self, pkt: &mut NetChainPacket, hash: u64) {
        self.stats.reads += 1;
        let kv = &self.kv;
        let live = kv
            .lookup_with_hash(hash, &pkt.netchain.key)
            .filter(|&slot| kv.is_valid(slot));
        let (session, seq) = live.map_or((0, 0), |slot| kv.ordering(slot));
        pkt.netchain.seq = seq;
        pkt.netchain.session = session as u16;
        let status = match live {
            Some(slot) => {
                kv.read_value_into(slot, &mut pkt.netchain.value);
                QueryStatus::Ok
            }
            None => {
                self.stats.misses += 1;
                pkt.netchain.value.clear();
                QueryStatus::NotFound
            }
        };
        self.reply(pkt, status);
    }

    fn process_mutation(&mut self, pkt: &mut NetChainPacket, hash: u64) -> Result<(), DropReason> {
        let is_head = pkt.netchain.seq == 0;
        let Some(slot) = self.kv.lookup_with_hash(hash, &pkt.netchain.key) else {
            self.stats.misses += 1;
            if is_head {
                pkt.netchain.value.clear();
                self.reply(pkt, QueryStatus::NotFound);
                return Ok(());
            }
            return Err(DropReason::MidChainMiss);
        };

        if is_head {
            // Head: sequence the write (Algorithm 1 lines 6–9), stamping the
            // switch's session number for head-replacement ordering.
            if pkt.netchain.op == OpCode::Cas {
                self.stats.cas_ops += 1;
                let (expected, new_value) = split_cas_value(&pkt.netchain.value);
                let current = self.kv.value_u64(slot).unwrap_or(0);
                if !self.kv.is_valid(slot) || current != expected {
                    self.stats.cas_failures += 1;
                    self.kv.read_value_into(slot, &mut pkt.netchain.value);
                    self.reply(pkt, QueryStatus::CasFailed);
                    return Ok(());
                }
                // The CAS succeeded: downstream replicas apply the new value
                // unconditionally (subject to the sequence check), so rewrite
                // the carried value to just the new value.
                pkt.netchain
                    .value
                    .set_bytes(&new_value.to_be_bytes())
                    .expect("8 bytes is well under the maximum value size");
            }
            pkt.netchain.seq = self.kv.seq(slot) + 1;
            pkt.netchain.session = self.session as u16;
        } else if (u64::from(pkt.netchain.session), pkt.netchain.seq) <= self.kv.ordering(slot) {
            // Replica/tail: apply only if newer (Algorithm 1 lines 10–13).
            self.stats.stale_drops += 1;
            return Err(DropReason::StaleSequence);
        }
        self.apply_mutation(slot, pkt);

        if pkt.advance_to_next_hop() {
            self.stats.chain_forwards += 1;
        } else {
            // Tail: reply to the client with the applied value, which the
            // packet already carries.
            self.reply(pkt, QueryStatus::Ok);
        }
        Ok(())
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
    fn staged_reads_and_hashed_steps_match_handle() {
        let mut staged = switch(0);
        let mut scalar = switch(0);
        let miss = {
            let mut p = read_query(0);
            p.netchain.key = Key::from_name("absent");
            p
        };
        // Interleave fast-lane reads (hit and miss) with tail writes (reply),
        // chain-forward writes (non-reply) and CAS so the staged entry points
        // are checked against mutations landing between reads of the same key.
        let pkts: Vec<NetChainPacket> = (0..20)
            .map(|i| match i % 5 {
                0 => read_query(0),
                1 => write_query(0, vec![], 500 + i),
                2 => miss.clone(),
                3 => write_query(0, vec![1], 900 + i),
                _ => {
                    let mut p = write_query(0, vec![], 0);
                    p.netchain.op = OpCode::Cas;
                    // Every other CAS expects a value the key does not hold.
                    p.netchain.value = cas_value(900 + i - 1 + (i / 5 % 2), i);
                    p
                }
            })
            .collect();

        let mut scalar_replies = BatchEncoder::new();
        let mut staged_replies = BatchEncoder::new();
        for pkt in pkts {
            let expected = scalar.handle(pkt.clone());
            if let SwitchAction::Forward(ref r) = expected {
                if r.netchain.op.is_reply() {
                    scalar_replies.push(r).unwrap();
                }
            }
            if pkt.netchain.op == OpCode::Read {
                // The index never changes mid-burst, so a slot probed before
                // the burst stays correct; values are re-read at execution.
                let slot = staged.kv().lookup(&pkt.netchain.key);
                staged.read_reply_staged(&pkt.to_bytes(), slot, &mut staged_replies);
                continue;
            }
            let mut stepped = pkt;
            let hash = stepped.netchain.key.stable_hash();
            let verdict = staged.handle_hashed(&mut stepped, hash);
            match expected {
                SwitchAction::Forward(p) => {
                    assert_eq!(verdict, Ok(()));
                    assert_eq!(stepped, p);
                    if p.netchain.op.is_reply() {
                        staged_replies.push(&stepped).unwrap();
                    }
                }
                SwitchAction::Drop(reason) => assert_eq!(verdict, Err(reason)),
            }
        }
        assert_eq!(staged.stats(), scalar.stats());
        assert!(staged.stats().cas_ops > 0 && staged.stats().cas_failures > 0);
        assert_eq!(staged_replies.len(), scalar_replies.len());
        for (i, (a, b)) in staged_replies
            .frames()
            .zip(scalar_replies.frames())
            .enumerate()
        {
            assert_eq!(a, b, "reply frame {i} diverges from the scalar bytes");
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
