//! A worker shard: the per-core unit of the fabric.
//!
//! The fabric partitions the keyspace by virtual group — the same unit the
//! paper's consistent hashing and failure recovery use (§4.1, §5.2) — and
//! steers every query to the shard owning its key's group. A shard therefore
//! sees *all* hops of every chain it is responsible for, and runs the chain
//! to completion locally: head, replicas and tail are the very same
//! [`NetChainSwitch`] program instances the discrete-event simulator hosts,
//! executed back to back instead of separated by simulated links. Because
//! per-key state is touched by exactly one shard, shards share nothing and
//! scale linearly with cores.
//!
//! Processing is batched in two layers: the shard pulls bursts of frames
//! from its ingress rings, and inside a burst the chain traversal runs in
//! *waves* — all packets currently addressed to the same switch are handed
//! to the switch together, keeping that switch's tables hot while the burst
//! flows through the chain stage by stage, like a hardware pipeline.
//!
//! The first wave runs as an explicit **staged pipeline**
//! ([`Shard::process_burst`]): validate+parse a chunk of up to
//! [`BATCH_WIDTH`] frames branch-free into a structure-of-arrays scratch,
//! batch-hash all keys, probe the destination switches' indexes with the
//! precomputed hashes, then execute — read queries whose probe succeeded
//! answer straight from the register arrays without ever materialising an
//! owned packet. The pre-staging scalar path is kept as
//! [`Shard::process_burst_scalar`], the semantic baseline the staged path is
//! differentially tested against.
//!
//! ## Control plane hooks
//!
//! The live control plane (`netchain-livectl`) programs a shard between
//! bursts exactly the way the paper's controller programs switches:
//!
//! * [`Shard::kill_switch`] is the fault injector's hook — the replica stops
//!   being addressable, freezing its state like a fail-stopped device.
//! * [`Shard::install_rule`] / [`Shard::remove_rule`] install failover /
//!   recovery rules into **every live switch replica**. In the physical
//!   network the controller programs the failed switch's *neighbours*; in the
//!   fabric every live switch is a potential neighbour (chains hop directly
//!   from switch to switch), so programming all of them is the same thing.
//! * Packets addressed to a failed (or simply absent) switch are routed
//!   through the shard's *gateway* — the lowest-IP live active switch, which
//!   plays the role of the client's ToR switch in the testbed: its rule table
//!   decides whether the packet fails over, blocks, or redirects. Without a
//!   matching rule the packet is dropped and counted `unroutable`, exactly
//!   like a packet sailing towards a dead device in the simulator.
//! * [`Shard::export_group`] / [`Shard::import_entries`] move register state
//!   between switch replicas for the two-phase chain repair, with the same
//!   group filtering the simulator's switch agent applies.
//!
//! ## The packet pool
//!
//! Parsing recycles [`NetChainPacket`] buffers through a small pool
//! ([`netchain_wire::PacketPool`]): the chain list and value vectors of a
//! retired packet are refilled in place for the next frame, removing the
//! last per-packet allocation on the write path (reads never allocated).

use crate::stats::ShardStats;
use netchain_core::query_evidence;
use netchain_core::HashRing;
use netchain_switch::kv::ExportedEntry;
use netchain_switch::{
    stable_hash_batch, DropReason, FailoverRule, NetChainSwitch, PipelineConfig, ProbeGauges,
    RuleScope, StagedOutcome, StagedPacket, SwitchAction,
};
use netchain_telemetry::{
    key_fingerprint, trace_id, Evidence, EvidenceOp, HopRole, PacketTrace, TraceConfig, TraceSink,
};
use netchain_wire::{
    BatchEncoder, BatchView, Ipv4Addr, Key, NetChainPacket, OpCode, PacketPool, PacketView, Value,
    BATCH_WIDTH,
};
use std::collections::{HashMap, HashSet};

/// The steering rule, in one place: `key`'s virtual group modulo the shard
/// count. Everything that partitions by key — shard ownership, client
/// steering, control-plane population — must route through this function so
/// the three can never drift apart.
pub fn shard_of_key(ring: &HashRing, key: &Key, num_shards: usize) -> usize {
    shard_of_group(ring.group_of(key), num_shards)
}

/// [`shard_of_key`] for a key whose virtual group is already known (the load
/// generator computes it once per query).
pub fn shard_of_group(group: u32, num_shards: usize) -> usize {
    group as usize % num_shards
}

/// Identifies the client a reply frame belongs to, from the destination IP
/// (`Ipv4Addr::for_host(id)` addressing: `10.1.hi.lo`).
pub fn client_id_of(ip: Ipv4Addr) -> Option<u32> {
    if ip.0[0] == 10 && ip.0[1] == 1 {
        Some(u32::from(ip.0[2]) << 8 | u32::from(ip.0[3]))
    } else {
        None
    }
}

/// One keyspace shard hosting shard-local replicas of every ring switch
/// (plus any spares held out of the ring for failure recovery).
pub struct Shard {
    id: usize,
    num_shards: usize,
    ring: HashRing,
    switches: HashMap<Ipv4Addr, NetChainSwitch>,
    /// Switches the fault injector killed: no longer addressable; their
    /// replica state is frozen as of the kill (fail-stop).
    failed: HashSet<Ipv4Addr>,
    stats: ShardStats,
    /// Scratch: the current wave of in-flight packets (reused across bursts).
    wave: Vec<NetChainPacket>,
    next_wave: Vec<NetChainPacket>,
    group: Vec<NetChainPacket>,
    actions: Vec<SwitchAction>,
    /// Retired packets whose allocations the parse path reuses.
    pool: PacketPool,
    /// Staged-pipeline scratch: the stage-3 probe inputs gathered per
    /// destination switch, and the per-lane probe results scattered back.
    probe_keys: Vec<Key>,
    probe_hashes: Vec<u64>,
    probe_lanes: Vec<usize>,
    probe_out: Vec<Option<usize>>,
    /// The chunk's wave-1 items in frame order, by destination switch.
    lanes: Vec<(Ipv4Addr, Lane)>,
    /// Stage-4 per-item outcomes (reused across wave groups).
    outcomes: Vec<StagedOutcome>,
    /// In-band per-hop trace stamping, when enabled. `None` keeps the data
    /// plane exactly as before: one branch per wave group and nothing else.
    tracer: Option<ShardTracer>,
}

/// One wave-1 item of a staged chunk: a read riding the fast lane is just
/// its lane index into the chunk's parsed batch (the frame stays where it
/// is); anything else was materialised through the packet pool and is handed
/// over when its group executes.
enum Lane {
    Fast(usize),
    Owned(Option<NetChainPacket>),
}

/// Shard-side trace recorder: a sink plus the run's wall-clock origin.
struct ShardTracer {
    sink: TraceSink,
    t0: std::time::Instant,
}

impl Shard {
    /// Creates shard `id` of `num_shards` over the given ring, with one
    /// switch instance per ring member.
    pub fn new(id: usize, num_shards: usize, ring: HashRing, pipeline: PipelineConfig) -> Self {
        Self::with_spares(id, num_shards, ring, pipeline, &[])
    }

    /// Like [`Shard::new`], but also hosting `spares`: switches outside the
    /// consistent-hash ring, held in reserve as recovery replacements. They
    /// start empty and receive no traffic until a redirect rule points at
    /// them.
    pub fn with_spares(
        id: usize,
        num_shards: usize,
        ring: HashRing,
        pipeline: PipelineConfig,
        spares: &[Ipv4Addr],
    ) -> Self {
        assert!(num_shards > 0 && id < num_shards);
        let switches: HashMap<Ipv4Addr, NetChainSwitch> = ring
            .switches()
            .iter()
            .chain(spares.iter())
            .map(|&ip| (ip, NetChainSwitch::new(ip, pipeline)))
            .collect();
        Shard {
            id,
            num_shards,
            ring,
            switches,
            failed: HashSet::new(),
            stats: ShardStats::default(),
            wave: Vec::new(),
            next_wave: Vec::new(),
            group: Vec::new(),
            actions: Vec::new(),
            pool: PacketPool::new(),
            probe_keys: Vec::new(),
            probe_hashes: Vec::new(),
            probe_lanes: Vec::new(),
            probe_out: Vec::new(),
            lanes: Vec::with_capacity(BATCH_WIDTH),
            outcomes: Vec::new(),
            tracer: None,
        }
    }

    /// Turns on in-band trace stamping: every wave group handed to a switch
    /// stamps its sampled packets with that switch's IP and the wall-clock
    /// offset from `t0` (shared by all shards and clients of a run, so
    /// stamps from different threads are comparable).
    pub fn enable_tracing(&mut self, config: TraceConfig, t0: std::time::Instant) {
        self.tracer = Some(ShardTracer {
            sink: TraceSink::new(config),
            t0,
        });
    }

    /// Drains the trace fragments recorded by this shard.
    pub fn take_traces(&mut self) -> Vec<PacketTrace> {
        self.tracer
            .as_mut()
            .map(|t| t.sink.drain())
            .unwrap_or_default()
    }

    /// Publishes executor-level gauges — ingress queue depth/capacity and
    /// coarse cumulative latency buckets — to every switch replica, so an
    /// in-band `Stat` probe answered by any of them reports the shard's
    /// current view. Executors call this at burst boundaries, never per
    /// packet, which is what keeps probe support off the hot path.
    pub fn set_probe_gauges(&mut self, gauges: ProbeGauges) {
        for switch in self.switches.values_mut() {
            switch.set_probe_gauges(gauges);
        }
    }

    /// This shard's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// True if this shard owns `key`'s virtual group.
    pub fn owns(&self, key: &Key) -> bool {
        shard_of_key(&self.ring, key, self.num_shards) == self.id
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Inserts `key` on every switch of its chain (control-plane population,
    /// the fabric equivalent of `NetChainCluster::populate_key`). Only keys
    /// this shard [`owns`](Self::owns) may be inserted.
    pub fn populate(&mut self, key: Key, value: &Value) {
        assert!(self.owns(&key), "key steered to the wrong shard");
        for ip in self.ring.chain_for_key(&key).switches {
            self.switches
                .get_mut(&ip)
                .expect("chain switches exist in the shard")
                .kv_mut()
                .insert(key, value)
                .expect("shard store sized for the workload");
        }
    }

    /// Read access to a switch replica (differential tests, experiments).
    pub fn switch(&self, ip: Ipv4Addr) -> Option<&NetChainSwitch> {
        self.switches.get(&ip)
    }

    /// The switch IPs this shard hosts.
    pub fn switch_ips(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.switches.keys().copied()
    }

    // ---- Control-plane hooks (the live controller's verbs) ----

    /// Fail-stops a switch replica: it stops being addressable and its state
    /// freezes. Queries towards it fall to the gateway's rule table (or are
    /// dropped as unroutable until rules arrive).
    pub fn kill_switch(&mut self, ip: Ipv4Addr) {
        self.failed.insert(ip);
    }

    /// True if the fault injector killed `ip` on this shard.
    pub fn is_failed(&self, ip: Ipv4Addr) -> bool {
        self.failed.contains(&ip)
    }

    /// Installs a failover/recovery rule for traffic destined to `failed_ip`
    /// into every live switch replica (= every potential neighbour of the
    /// failed switch; see the module docs).
    pub fn install_rule(&mut self, failed_ip: Ipv4Addr, rule: FailoverRule) {
        for (&ip, switch) in self.switches.iter_mut() {
            if !self.failed.contains(&ip) {
                switch.forwarding_mut().install(failed_ip, rule);
            }
        }
    }

    /// Removes a rule (matched by priority and scope) from every replica.
    pub fn remove_rule(&mut self, failed_ip: Ipv4Addr, priority: u8, scope: RuleScope) {
        for switch in self.switches.values_mut() {
            switch.forwarding_mut().remove(failed_ip, priority, scope);
        }
    }

    /// Sets the session number switch `ip` stamps on writes it sequences
    /// (head replacement, §5.2).
    pub fn set_session(&mut self, ip: Ipv4Addr, session: u64) {
        if let Some(switch) = self.switches.get_mut(&ip) {
            switch.set_session(session);
        }
    }

    /// Activates or deactivates query processing on switch `ip` (recovery
    /// phase 2 activates the replacement).
    pub fn set_active(&mut self, ip: Ipv4Addr, active: bool) {
        if let Some(switch) = self.switches.get_mut(&ip) {
            switch.set_active(active);
        }
    }

    /// Exports switch `ip`'s entries for virtual group `group` (out of
    /// `modulus` groups) — the donor side of chain repair. The filter is
    /// identical to the simulator switch agent's `ExportRequest` handling.
    pub fn export_group(&self, ip: Ipv4Addr, group: u32, modulus: u32) -> Vec<ExportedEntry> {
        let Some(switch) = self.switches.get(&ip) else {
            return Vec::new();
        };
        switch
            .kv()
            .export_entries()
            .into_iter()
            .filter(|entry| (entry.key.stable_hash() % u64::from(modulus.max(1))) as u32 == group)
            .collect()
    }

    /// Imports entries into switch `ip`'s store — the replacement side of
    /// chain repair. Stale entries never clobber newer local state
    /// (Invariant 1 is preserved if synchronisation races a live write).
    pub fn import_entries(&mut self, ip: Ipv4Addr, entries: &[ExportedEntry]) {
        if let Some(switch) = self.switches.get_mut(&ip) {
            for entry in entries {
                let _ = switch.kv_mut().import_entry(entry);
            }
        }
    }

    /// The shard's gateway: the lowest-IP live, active switch. Plays the ToR
    /// switch's role for packets addressed to a dead device — its rule table
    /// decides their fate.
    fn gateway_ip(&self) -> Option<Ipv4Addr> {
        self.switches
            .iter()
            .filter(|(ip, sw)| !self.failed.contains(ip) && sw.is_active())
            .map(|(&ip, _)| ip)
            .min()
    }

    // ---- Data plane ----

    /// Processes one burst of ingress frames to completion, encoding every
    /// generated reply into `replies` (in completion order).
    ///
    /// This is the **staged** hot path, run in four explicit stages over
    /// chunks of up to [`BATCH_WIDTH`] frames:
    ///
    /// 1. **Validate + parse** — [`BatchView::parse`] runs the branch-free
    ///    [`netchain_wire::validate_frame`] over the chunk and fills a
    ///    structure-of-arrays scratch with the fields the later stages need.
    /// 2. **Hash** — [`stable_hash_batch`] hashes every key of the chunk in
    ///    one lane-major pass.
    /// 3. **Probe** — eligible read lanes are probed against their
    ///    destination switch's index with the precomputed hashes
    ///    (`SwitchKvStore::probe_slots`), touching the register slots so they
    ///    are warm when stage 4 reads them. Mutations never touch the index
    ///    (inserts/removes are control-plane only), so slots probed here stay
    ///    correct for the whole burst.
    /// 4. **Execute** — [`NetChainSwitch::step_batch_staged`] runs the wave
    ///    groups in frame order: probed reads ride the fast lane (the reply
    ///    is emitted straight from the query frame and the register arrays,
    ///    no owned packet), everything else takes the scalar path unchanged.
    ///
    /// Chain hops past the first wave continue through the same wave loop as
    /// [`Shard::process_burst_scalar`]; semantics — per-key ordering within a
    /// burst, reply order, stats, trace stamps — are identical to the scalar
    /// path (pinned by tests).
    pub fn process_burst<'a>(
        &mut self,
        frames: impl Iterator<Item = &'a [u8]>,
        replies: &mut BatchEncoder,
    ) {
        debug_assert!(self.wave.is_empty());
        let mut frames = frames.fuse();
        let mut chunk: [&'a [u8]; BATCH_WIDTH] = [&[]; BATCH_WIDTH];
        let mut lanes = std::mem::take(&mut self.lanes);
        let mut started = false;
        loop {
            let mut n = 0;
            while n < BATCH_WIDTH {
                match frames.next() {
                    Some(f) => {
                        chunk[n] = f;
                        n += 1;
                    }
                    None => break,
                }
            }
            if n == 0 {
                break;
            }
            self.stats.frames_in += n as u64;

            // Stage 1: validate + parse the chunk into SoA lanes.
            let bv = BatchView::parse(&chunk[..n]);
            let batch = bv.batch();
            self.stats.parse_errors += batch.invalid_count() as u64;
            if batch.invalid_count() == n {
                continue;
            }
            if !started {
                started = true;
                self.stats.bursts += 1;
                // The chunks of a burst are all part of wave 1.
                self.stats.waves += 1;
            }

            // Stage 2: hash every key lane in one pass.
            let mut hashes = [0u64; BATCH_WIDTH];
            stable_hash_batch(batch.keys(), &mut hashes);

            // Stage 3: pick the fast-lane reads and probe their slots. A lane
            // is eligible iff the switch would run exactly `process_read`
            // followed by an unobstructed reply bounce: a pure read query
            // (no carried value, so no recirculation accounting) addressed
            // to a live, active switch with no failover rules installed.
            let mut slots: [Option<usize>; BATCH_WIDTH] = [None; BATCH_WIDTH];
            let mut fast: u32 = 0;
            let any_failed = !self.failed.is_empty();
            let mut last_dst = 0u32;
            let mut last_ok = false;
            for i in 0..n {
                if !batch.is_netchain(i)
                    || batch.op(i) != OpCode::Read.to_u8()
                    || batch.value_len(i) != 0
                {
                    continue;
                }
                // Lanes repeating the previous destination reuse its verdict
                // (bursts cluster by chain, so this collapses most lookups).
                let dst_u32 = batch.dst(i);
                if dst_u32 != last_dst || i == 0 {
                    last_dst = dst_u32;
                    let dst = Ipv4Addr(dst_u32.to_be_bytes());
                    last_ok = (!any_failed || !self.failed.contains(&dst))
                        && self
                            .switches
                            .get(&dst)
                            .is_some_and(|sw| sw.is_active() && sw.forwarding().is_empty());
                }
                if last_ok {
                    fast |= 1 << i;
                }
            }
            let mut pending = fast;
            while pending != 0 {
                let first = pending.trailing_zeros() as usize;
                let dst_u32 = batch.dst(first);
                self.probe_keys.clear();
                self.probe_hashes.clear();
                self.probe_lanes.clear();
                self.probe_out.clear();
                let mut rest = pending;
                while rest != 0 {
                    let i = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if batch.dst(i) == dst_u32 {
                        self.probe_keys.push(batch.key(i));
                        self.probe_hashes.push(hashes[i]);
                        self.probe_lanes.push(i);
                        pending &= !(1 << i);
                    }
                }
                let dst = Ipv4Addr(dst_u32.to_be_bytes());
                let sw = self.switches.get(&dst).expect("eligibility checked above");
                sw.kv()
                    .probe_slots(&self.probe_keys, &self.probe_hashes, &mut self.probe_out);
                for (slot, &lane) in self.probe_out.iter().zip(&self.probe_lanes) {
                    slots[lane] = *slot;
                }
            }

            // Build the chunk's wave-1 items in frame order: fast-lane reads
            // stay in their frame, everything else is materialised through
            // the packet pool exactly like the scalar parse.
            lanes.clear();
            for i in 0..n {
                if !batch.is_valid(i) {
                    continue;
                }
                if fast & (1 << i) != 0 {
                    lanes.push((Ipv4Addr(batch.dst(i).to_be_bytes()), Lane::Fast(i)));
                } else {
                    let pkt = self.pool.take(&bv.view(i));
                    lanes.push((pkt.ip.dst, Lane::Owned(Some(pkt))));
                }
            }

            // Stage 4: execute the chunk's wave-1 groups (consecutive items
            // with the same destination, as in the scalar wave loop).
            let mut next = 0;
            while next < lanes.len() {
                let dst = lanes[next].0;
                let len = lanes[next..].iter().take_while(|(d, _)| *d == dst).count();
                let group = &mut lanes[next..next + len];
                next += len;
                let target = if self.failed.contains(&dst) || !self.switches.contains_key(&dst) {
                    self.gateway_ip()
                } else {
                    Some(dst)
                };
                if let (Some(tracer), Some(hop)) = (&mut self.tracer, target) {
                    // One clock read per wave group, as on the scalar path.
                    // Evidence (a pre-execution register read) is gathered
                    // only for packets the sink actually samples, so the
                    // common unsampled packet costs one hash + one branch.
                    let hop_ip = u32::from_be_bytes(hop.0);
                    let at_ns = tracer.t0.elapsed().as_nanos() as u64;
                    let sw = self.switches.get(&hop);
                    for (_, lane) in group.iter() {
                        match lane {
                            Lane::Fast(i) => {
                                let id = trace_id(batch.src(*i), batch.request_id(*i));
                                if !tracer.sink.samples(id) {
                                    continue;
                                }
                                // Fast-lane eligibility pinned hop == dst, so
                                // the stage-3 slot is this switch's.
                                match sw {
                                    Some(sw) => {
                                        let kv = sw.kv();
                                        let (ok, (session, seq)) =
                                            match slots[*i].filter(|&s| kv.is_valid(s)) {
                                                Some(s) => (true, kv.ordering(s)),
                                                None => (false, (0, 0)),
                                            };
                                        tracer.sink.stamp_with(
                                            id,
                                            hop_ip,
                                            at_ns,
                                            Evidence {
                                                op: EvidenceOp::Read,
                                                role: HopRole::Tail,
                                                ok,
                                                key_fp: key_fingerprint(hashes[*i]),
                                                session,
                                                seq,
                                            },
                                        );
                                    }
                                    None => tracer.sink.stamp(id, hop_ip, at_ns),
                                }
                            }
                            Lane::Owned(p) => {
                                let p = p.as_ref().expect("lanes execute after stamping");
                                let id =
                                    trace_id(u32::from_be_bytes(p.ip.src.0), p.netchain.request_id);
                                if !tracer.sink.samples(id) {
                                    continue;
                                }
                                match sw.and_then(|sw| query_evidence(sw, &p.netchain)) {
                                    Some(ev) => tracer.sink.stamp_with(id, hop_ip, at_ns, ev),
                                    None => tracer.sink.stamp(id, hop_ip, at_ns),
                                }
                            }
                        }
                    }
                }
                match target.and_then(|ip| self.switches.get_mut(&ip)) {
                    Some(sw) => {
                        self.outcomes.clear();
                        let staged = group.iter_mut().map(|(_, lane)| match lane {
                            Lane::Fast(i) => StagedPacket::FastRead {
                                frame: bv.frame(*i),
                                slot: slots[*i],
                                client: Ipv4Addr(batch.src(*i).to_be_bytes()),
                                request_id: batch.request_id(*i),
                            },
                            Lane::Owned(p) => {
                                StagedPacket::Owned(p.take().expect("lanes execute once"))
                            }
                        });
                        sw.step_batch_staged(staged, replies, &mut self.outcomes);
                        for outcome in self.outcomes.drain(..) {
                            match outcome {
                                StagedOutcome::FastReply { client, request_id } => {
                                    self.stats.replies += 1;
                                    if let Some(tracer) = &mut self.tracer {
                                        tracer.sink.finish(trace_id(
                                            u32::from_be_bytes(client.0),
                                            request_id,
                                        ));
                                    }
                                }
                                StagedOutcome::Reply(p) => {
                                    self.stats.replies += 1;
                                    if let Some(tracer) = &mut self.tracer {
                                        tracer.sink.finish(trace_id(
                                            u32::from_be_bytes(p.ip.dst.0),
                                            p.netchain.request_id,
                                        ));
                                    }
                                    self.pool.put(p);
                                }
                                StagedOutcome::Action(SwitchAction::Forward(p)) => {
                                    if p.ip.dst == dst && target != Some(dst) {
                                        self.stats.unroutable += 1;
                                        self.pool.put(p);
                                    } else {
                                        self.next_wave.push(p);
                                    }
                                }
                                StagedOutcome::Action(SwitchAction::Drop(DropReason::Blocked)) => {
                                    self.stats.drops += 1;
                                    self.stats.blocked += 1;
                                }
                                StagedOutcome::Action(SwitchAction::Drop(_)) => {
                                    self.stats.drops += 1
                                }
                            }
                        }
                    }
                    None => {
                        self.stats.unroutable += group.len() as u64;
                        for (_, lane) in group {
                            if let Lane::Owned(p) = lane {
                                self.pool.put(p.take().expect("lanes execute once"));
                            }
                        }
                    }
                }
            }
        }
        self.lanes = lanes;

        // Chain hops past the first wave continue through the shared wave
        // loop (writes traversing their chains, failover re-routes, …).
        std::mem::swap(&mut self.wave, &mut self.next_wave);
        self.run_waves(replies);
    }

    /// The pre-staging scalar reference path: parses every frame into an
    /// owned packet with the zero-copy [`PacketView`] and runs the wave loop
    /// from the first hop. Kept as the semantic baseline the staged
    /// [`Shard::process_burst`] is differentially tested (and benchmarked)
    /// against.
    ///
    /// Malformed frames are counted and skipped. The owned conversion reuses
    /// pooled packet buffers ([`PacketView::to_owned_into`]), so in steady
    /// state this path does not allocate at all — not even for writes.
    pub fn process_burst_scalar<'a>(
        &mut self,
        frames: impl Iterator<Item = &'a [u8]>,
        replies: &mut BatchEncoder,
    ) {
        debug_assert!(self.wave.is_empty());
        for bytes in frames {
            self.stats.frames_in += 1;
            match PacketView::parse(bytes) {
                Ok(view) => {
                    let pkt = self.pool.take(&view);
                    self.wave.push(pkt);
                }
                Err(_) => self.stats.parse_errors += 1,
            }
        }
        if self.wave.is_empty() {
            return;
        }
        self.stats.bursts += 1;
        self.run_waves(replies);
    }

    /// Runs the in-flight waves (`self.wave`) to completion: group packets
    /// addressed to the same switch and step them as one batch, collecting
    /// each wave's continuing packets into the next.
    fn run_waves(&mut self, replies: &mut BatchEncoder) {
        while !self.wave.is_empty() {
            self.stats.waves += 1;
            let mut wave = std::mem::take(&mut self.wave);
            let mut iter = wave.drain(..).peekable();
            while let Some(pkt) = iter.next() {
                let dst = pkt.ip.dst;
                self.group.push(pkt);
                while iter.peek().is_some_and(|p| p.ip.dst == dst) {
                    self.group
                        .push(iter.next().expect("peek said there is one"));
                }
                let target = if self.failed.contains(&dst) || !self.switches.contains_key(&dst) {
                    // The destination is dead or absent: hand the run to the
                    // gateway switch, whose failover rules decide. No gateway
                    // (everything failed) means the packets are unroutable.
                    self.gateway_ip()
                } else {
                    Some(dst)
                };
                if let (Some(tracer), Some(hop)) = (&mut self.tracer, target) {
                    // One clock read per wave group; evidence is gathered
                    // only for sampled trace IDs.
                    let hop_ip = u32::from_be_bytes(hop.0);
                    let at_ns = tracer.t0.elapsed().as_nanos() as u64;
                    let sw = self.switches.get(&hop);
                    for p in &self.group {
                        let id = trace_id(u32::from_be_bytes(p.ip.src.0), p.netchain.request_id);
                        if !tracer.sink.samples(id) {
                            continue;
                        }
                        match sw.and_then(|sw| query_evidence(sw, &p.netchain)) {
                            Some(ev) => tracer.sink.stamp_with(id, hop_ip, at_ns, ev),
                            None => tracer.sink.stamp(id, hop_ip, at_ns),
                        }
                    }
                }
                match target.and_then(|ip| self.switches.get_mut(&ip)) {
                    Some(sw) => {
                        self.actions.clear();
                        sw.step_batch(self.group.drain(..), &mut self.actions);
                        for action in self.actions.drain(..) {
                            match action {
                                SwitchAction::Forward(p) => {
                                    if p.netchain.op.is_reply() {
                                        self.stats.replies += 1;
                                        if let Some(tracer) = &mut self.tracer {
                                            // Replies carry the client in
                                            // `ip.dst`; close the shard-side
                                            // fragment.
                                            tracer.sink.finish(trace_id(
                                                u32::from_be_bytes(p.ip.dst.0),
                                                p.netchain.request_id,
                                            ));
                                        }
                                        replies.push(&p).expect("replies are bounded like queries");
                                        self.pool.put(p);
                                    } else if p.ip.dst == dst && target != Some(dst) {
                                        // The gateway had no matching rule and
                                        // passed the packet through unchanged:
                                        // it would sail to the dead switch.
                                        self.stats.unroutable += 1;
                                        self.pool.put(p);
                                    } else {
                                        self.next_wave.push(p);
                                    }
                                }
                                SwitchAction::Drop(DropReason::Blocked) => {
                                    self.stats.drops += 1;
                                    self.stats.blocked += 1;
                                }
                                SwitchAction::Drop(_) => self.stats.drops += 1,
                            }
                        }
                    }
                    None => {
                        self.stats.unroutable += self.group.len() as u64;
                        while let Some(p) = self.group.pop() {
                            self.pool.put(p);
                        }
                    }
                }
            }
            drop(iter);
            // Reuse the drained wave allocation for the next round.
            std::mem::swap(&mut wave, &mut self.next_wave);
            self.wave = wave;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_switch::FailoverAction;
    use netchain_wire::{OpCode, QueryStatus};

    fn test_ring() -> HashRing {
        HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7)
    }

    fn query_frame(
        ring: &HashRing,
        key: Key,
        op: OpCode,
        value: Value,
        request_id: u64,
    ) -> Vec<u8> {
        let chain = ring.chain_for_key(&key);
        let pkt = if op == OpCode::Read {
            NetChainPacket::query(
                Ipv4Addr::for_host(0),
                40_000,
                chain.tail(),
                op,
                key,
                value,
                netchain_wire::ChainList::new(
                    chain.switches[..chain.len() - 1]
                        .iter()
                        .rev()
                        .copied()
                        .collect::<Vec<_>>(),
                )
                .unwrap(),
                request_id,
            )
        } else {
            NetChainPacket::query(
                Ipv4Addr::for_host(0),
                40_000,
                chain.head(),
                op,
                key,
                value,
                netchain_wire::ChainList::new(chain.switches[1..].to_vec()).unwrap(),
                request_id,
            )
        };
        pkt.to_bytes()
    }

    #[test]
    fn write_then_read_through_one_shard() {
        let ring = test_ring();
        let mut shard = Shard::new(0, 1, ring.clone(), PipelineConfig::tiny(64));
        let key = Key::from_name("shard/key");
        shard.populate(key, &Value::from_u64(0));

        // Separate bursts: within one burst a read overlaps the write's
        // chain traversal (legal for concurrent ops); sequential bursts give
        // the deterministic read-your-write this test asserts.
        let mut replies = BatchEncoder::new();
        let write = query_frame(&ring, key, OpCode::Write, Value::from_u64(42), 1);
        shard.process_burst(std::iter::once(write.as_slice()), &mut replies);
        assert_eq!(replies.len(), 1);
        let write_reply = PacketView::parse(replies.frame(0)).unwrap();
        assert_eq!(write_reply.netchain.op(), OpCode::WriteReply);
        assert_eq!(write_reply.netchain.status(), QueryStatus::Ok);
        assert_eq!(write_reply.netchain.request_id(), 1);

        replies.clear();
        let read = query_frame(&ring, key, OpCode::Read, Value::empty(), 2);
        shard.process_burst(std::iter::once(read.as_slice()), &mut replies);
        assert_eq!(replies.len(), 1);
        let read_reply = PacketView::parse(replies.frame(0)).unwrap();
        assert_eq!(read_reply.netchain.op(), OpCode::ReadReply);
        assert_eq!(read_reply.netchain.value(), 42u64.to_be_bytes());
        assert_eq!(client_id_of(read_reply.ip.dst), Some(0));

        // Every chain replica applied the write.
        for ip in ring.chain_for_key(&key).switches {
            let sw = shard.switch(ip).unwrap();
            let slot = sw.kv().lookup(&key).unwrap();
            assert_eq!(sw.kv().read_value(slot).as_u64(), Some(42));
        }
        assert_eq!(shard.stats().replies, 2);
        assert_eq!(shard.stats().drops, 0);
        assert_eq!(shard.stats().unroutable, 0);
        // The write traversed a 3-switch chain: one wave per hop, plus one
        // wave for the read burst.
        assert_eq!(shard.stats().waves, 4);
    }

    #[test]
    fn burst_of_writes_keeps_per_key_order() {
        let ring = test_ring();
        let mut shard = Shard::new(0, 1, ring.clone(), PipelineConfig::tiny(64));
        let key = Key::from_name("ordered");
        shard.populate(key, &Value::from_u64(0));
        let frames: Vec<Vec<u8>> = (0..32)
            .map(|i| query_frame(&ring, key, OpCode::Write, Value::from_u64(i), i))
            .collect();
        let mut replies = BatchEncoder::new();
        shard.process_burst(frames.iter().map(|f| f.as_slice()), &mut replies);
        assert_eq!(replies.len(), 32);
        // Write replies come back in issue order, echoing their own value.
        for (i, frame) in replies.frames().enumerate() {
            let reply = PacketView::parse(frame).unwrap();
            assert_eq!(reply.netchain.op(), OpCode::WriteReply);
            assert_eq!(reply.netchain.request_id(), i as u64);
            assert_eq!(reply.netchain.value(), (i as u64).to_be_bytes());
        }
        // A following read observes the last write of the burst.
        replies.clear();
        let read = query_frame(&ring, key, OpCode::Read, Value::empty(), 99);
        shard.process_burst(std::iter::once(read.as_slice()), &mut replies);
        let read_reply = PacketView::parse(replies.frame(0)).unwrap();
        assert_eq!(read_reply.netchain.value(), 31u64.to_be_bytes());
        // Chain tail holds seq == 32 (one per write).
        let tail = ring.chain_for_key(&key).tail();
        let sw = shard.switch(tail).unwrap();
        let slot = sw.kv().lookup(&key).unwrap();
        assert_eq!(sw.kv().seq(slot), 32);
    }

    /// Swaps the UDP ports of a query frame off the NetChain port, keeping
    /// every other field (including the IP checksum) intact.
    fn off_port(mut frame: Vec<u8>) -> Vec<u8> {
        frame[34..36].copy_from_slice(&1234u16.to_be_bytes());
        frame[36..38].copy_from_slice(&53u16.to_be_bytes());
        frame
    }

    #[test]
    fn staged_burst_matches_scalar_reference() {
        let ring = test_ring();
        let mut staged = Shard::new(0, 1, ring.clone(), PipelineConfig::tiny(64));
        let mut scalar = Shard::new(0, 1, ring.clone(), PipelineConfig::tiny(64));
        let keys: Vec<Key> = (0..6u64).map(Key::from_u64).collect();
        for k in &keys {
            staged.populate(*k, &Value::from_u64(7));
            scalar.populate(*k, &Value::from_u64(7));
        }
        let missing = Key::from_name("not/populated");
        // A mix crossing one chunk boundary: fast-lane reads (hits and index
        // misses), chain writes, in-band stat probes, malformed frames, and a
        // valid frame on a non-NetChain port.
        let frames: Vec<Vec<u8>> = (0..48u64)
            .map(|i| match i % 6 {
                0 => query_frame(
                    &ring,
                    keys[(i % 6) as usize],
                    OpCode::Read,
                    Value::empty(),
                    i,
                ),
                1 => query_frame(
                    &ring,
                    keys[(i % 6) as usize],
                    OpCode::Write,
                    Value::from_u64(100 + i),
                    i,
                ),
                2 => query_frame(&ring, missing, OpCode::Read, Value::empty(), i),
                3 => {
                    let mut f = query_frame(&ring, keys[0], OpCode::Read, Value::empty(), i);
                    f[24] ^= 0xff; // corrupt the IP checksum
                    f
                }
                4 => off_port(query_frame(&ring, keys[1], OpCode::Read, Value::empty(), i)),
                _ => {
                    let mut f = query_frame(
                        &ring,
                        keys[(i % 6) as usize],
                        OpCode::Read,
                        Value::empty(),
                        i,
                    );
                    f[42] = OpCode::Stat.to_u8(); // in-band probe
                    f
                }
            })
            .collect();
        let mut staged_replies = BatchEncoder::new();
        let mut scalar_replies = BatchEncoder::new();
        staged.process_burst(frames.iter().map(|f| f.as_slice()), &mut staged_replies);
        scalar.process_burst_scalar(frames.iter().map(|f| f.as_slice()), &mut scalar_replies);
        assert_eq!(staged.stats(), scalar.stats());
        assert_eq!(staged_replies.len(), scalar_replies.len());
        for (i, (a, b)) in staged_replies
            .frames()
            .zip(scalar_replies.frames())
            .enumerate()
        {
            assert_eq!(a, b, "reply frame {i} diverges from the scalar bytes");
        }
        for ip in ring.switches() {
            assert_eq!(
                staged.switch(*ip).unwrap().stats(),
                scalar.switch(*ip).unwrap().stats(),
                "switch {ip:?} stats diverge"
            );
        }
    }

    #[test]
    fn staged_mixed_burst_drops_garbage_keeps_write_order() {
        let ring = test_ring();
        let mut shard = Shard::new(0, 1, ring.clone(), PipelineConfig::tiny(64));
        let key = Key::from_name("ordered/garbage");
        shard.populate(key, &Value::from_u64(0));
        // Interleave 32 writes to one key with malformed frames of assorted
        // shapes; the staged path must drop exactly the garbage and apply the
        // writes in issue order.
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut garbage = 0u64;
        for i in 0..32u64 {
            frames.push(query_frame(
                &ring,
                key,
                OpCode::Write,
                Value::from_u64(i),
                i,
            ));
            match i % 3 {
                0 => {
                    frames.push(vec![0u8; 40]); // truncated
                    garbage += 1;
                }
                1 => {
                    let mut f = query_frame(&ring, key, OpCode::Read, Value::empty(), 1000 + i);
                    f[42] = 0x99; // invalid opcode byte
                    frames.push(f);
                    garbage += 1;
                }
                _ => {}
            }
        }
        let mut replies = BatchEncoder::new();
        shard.process_burst(frames.iter().map(|f| f.as_slice()), &mut replies);
        assert_eq!(shard.stats().parse_errors, garbage);
        assert_eq!(shard.stats().frames_in, frames.len() as u64);
        assert_eq!(replies.len(), 32);
        for (i, frame) in replies.frames().enumerate() {
            let reply = PacketView::parse(frame).unwrap();
            assert_eq!(reply.netchain.op(), OpCode::WriteReply);
            assert_eq!(reply.netchain.request_id(), i as u64);
            assert_eq!(reply.netchain.value(), (i as u64).to_be_bytes());
        }
        // A following fast-lane read observes the last write.
        replies.clear();
        let read = query_frame(&ring, key, OpCode::Read, Value::empty(), 99);
        shard.process_burst(std::iter::once(read.as_slice()), &mut replies);
        let read_reply = PacketView::parse(replies.frame(0)).unwrap();
        assert_eq!(read_reply.netchain.value(), 31u64.to_be_bytes());
    }

    #[test]
    fn stat_probe_is_answered_in_burst_with_published_gauges() {
        use netchain_switch::ProbeGauges;
        use netchain_wire::StatSnapshot;
        let ring = test_ring();
        let mut shard = Shard::new(0, 1, ring.clone(), PipelineConfig::tiny(64));
        let key = Key::from_name("probed");
        shard.populate(key, &Value::from_u64(1));
        shard.set_probe_gauges(ProbeGauges {
            queue_depth: 5,
            queue_cap: 512,
            lat_buckets: [0, 1, 2, 3, 4, 5, 6, 7],
        });
        let mut probe = query_frame(&ring, key, OpCode::Read, Value::empty(), 7);
        probe[42] = OpCode::Stat.to_u8();
        let mut replies = BatchEncoder::new();
        shard.process_burst(std::iter::once(probe.as_slice()), &mut replies);
        assert_eq!(replies.len(), 1);
        let reply = PacketView::parse(replies.frame(0)).unwrap();
        assert_eq!(reply.netchain.op(), OpCode::StatReply);
        assert_eq!(reply.netchain.status(), QueryStatus::Ok);
        let snap = StatSnapshot::decode(reply.netchain.value()).unwrap();
        assert_eq!(snap.queue_depth, 5);
        assert_eq!(snap.queue_cap, 512);
        assert_eq!(snap.lat_buckets[3], 3);
        assert_eq!(snap.packets_seen, 1);
        assert_eq!(snap.store_size, 1);
        assert_eq!(shard.stats().replies, 1);
    }

    #[test]
    fn malformed_frames_are_counted_not_fatal() {
        let ring = test_ring();
        let mut shard = Shard::new(0, 1, ring, PipelineConfig::tiny(16));
        let mut replies = BatchEncoder::new();
        let garbage = [0u8; 40];
        shard.process_burst(std::iter::once(&garbage[..]), &mut replies);
        assert_eq!(shard.stats().parse_errors, 1);
        assert!(replies.is_empty());
    }

    #[test]
    fn ownership_partitions_groups() {
        let ring = test_ring();
        let shards: Vec<Shard> = (0..3)
            .map(|i| Shard::new(i, 3, ring.clone(), PipelineConfig::tiny(16)))
            .collect();
        for k in 0..200u64 {
            let key = Key::from_u64(k);
            let owners = shards.iter().filter(|s| s.owns(&key)).count();
            assert_eq!(owners, 1, "key {k} must have exactly one owner");
        }
    }

    #[test]
    fn killed_switch_without_rules_drops_unroutable() {
        let ring = test_ring();
        let mut shard = Shard::new(0, 1, ring.clone(), PipelineConfig::tiny(64));
        let key = Key::from_name("doomed");
        shard.populate(key, &Value::from_u64(0));
        let head = ring.chain_for_key(&key).head();
        shard.kill_switch(head);
        assert!(shard.is_failed(head));
        let mut replies = BatchEncoder::new();
        let write = query_frame(&ring, key, OpCode::Write, Value::from_u64(1), 1);
        shard.process_burst(std::iter::once(write.as_slice()), &mut replies);
        assert!(replies.is_empty());
        assert_eq!(shard.stats().unroutable, 1);
    }

    #[test]
    fn failover_rule_routes_around_killed_switch() {
        let ring = test_ring();
        let mut shard = Shard::new(0, 1, ring.clone(), PipelineConfig::tiny(64));
        let key = Key::from_name("survivor");
        shard.populate(key, &Value::from_u64(0));
        let chain = ring.chain_for_key(&key);
        // Kill the middle replica and install fast failover everywhere.
        let victim = chain.switches[1];
        shard.kill_switch(victim);
        shard.install_rule(
            victim,
            FailoverRule {
                priority: 1,
                scope: RuleScope::All,
                action: FailoverAction::ChainFailover,
            },
        );
        let mut replies = BatchEncoder::new();
        let write = query_frame(&ring, key, OpCode::Write, Value::from_u64(7), 1);
        shard.process_burst(std::iter::once(write.as_slice()), &mut replies);
        assert_eq!(replies.len(), 1, "write must complete around the failure");
        let reply = PacketView::parse(replies.frame(0)).unwrap();
        assert_eq!(reply.netchain.status(), QueryStatus::Ok);
        // The surviving replicas applied it; the dead one is frozen.
        for &ip in &chain.switches {
            let sw = shard.switch(ip).unwrap();
            let slot = sw.kv().lookup(&key).unwrap();
            let expected = if ip == victim { 0 } else { 7 };
            assert_eq!(sw.kv().read_value(slot).as_u64(), Some(expected));
        }
        // A read served by the tail still works (tail is alive).
        replies.clear();
        let read = query_frame(&ring, key, OpCode::Read, Value::empty(), 2);
        shard.process_burst(std::iter::once(read.as_slice()), &mut replies);
        let read_reply = PacketView::parse(replies.frame(0)).unwrap();
        assert_eq!(read_reply.netchain.value(), 7u64.to_be_bytes());
        assert_eq!(shard.stats().unroutable, 0);
    }

    #[test]
    fn block_rule_drops_and_counts_blocked() {
        let ring = test_ring();
        let mut shard = Shard::new(0, 1, ring.clone(), PipelineConfig::tiny(64));
        let key = Key::from_name("blocked/key");
        shard.populate(key, &Value::from_u64(0));
        let head = ring.chain_for_key(&key).head();
        shard.kill_switch(head);
        shard.install_rule(
            head,
            FailoverRule {
                priority: 2,
                scope: RuleScope::All,
                action: FailoverAction::Block,
            },
        );
        let mut replies = BatchEncoder::new();
        let write = query_frame(&ring, key, OpCode::Write, Value::from_u64(3), 1);
        shard.process_burst(std::iter::once(write.as_slice()), &mut replies);
        assert!(replies.is_empty());
        assert_eq!(shard.stats().blocked, 1);
        // Removing the block and falling back to failover unblocks.
        shard.remove_rule(head, 2, RuleScope::All);
        shard.install_rule(
            head,
            FailoverRule {
                priority: 1,
                scope: RuleScope::All,
                action: FailoverAction::ChainFailover,
            },
        );
        let retry = query_frame(&ring, key, OpCode::Write, Value::from_u64(3), 2);
        shard.process_burst(std::iter::once(retry.as_slice()), &mut replies);
        assert_eq!(replies.len(), 1);
    }

    #[test]
    fn spare_receives_redirected_traffic_after_import() {
        let ring = test_ring();
        let spare = Ipv4Addr::for_switch(9);
        let mut shard = Shard::with_spares(0, 1, ring.clone(), PipelineConfig::tiny(64), &[spare]);
        let key = Key::from_name("migrated");
        shard.populate(key, &Value::from_u64(5));
        let chain = ring.chain_for_key(&key);
        let tail = chain.tail();
        let donor = chain.predecessor(tail).expect("chains of 3");
        shard.kill_switch(tail);
        // Repair: copy the group's state from the donor onto the spare, then
        // redirect the dead tail's traffic to it.
        let modulus = ring.num_virtual_nodes() as u32;
        let group = ring.group_of(&key);
        let entries = shard.export_group(donor, group, modulus);
        assert!(entries.iter().any(|e| e.key == key));
        shard.import_entries(spare, &entries);
        shard.set_session(spare, 9);
        shard.install_rule(
            tail,
            FailoverRule {
                priority: 3,
                scope: RuleScope::Group { group, modulus },
                action: FailoverAction::Redirect(spare),
            },
        );
        let mut replies = BatchEncoder::new();
        let read = query_frame(&ring, key, OpCode::Read, Value::empty(), 1);
        shard.process_burst(std::iter::once(read.as_slice()), &mut replies);
        assert_eq!(replies.len(), 1);
        let reply = PacketView::parse(replies.frame(0)).unwrap();
        assert_eq!(reply.netchain.status(), QueryStatus::Ok);
        assert_eq!(reply.netchain.value(), 5u64.to_be_bytes());
        // The spare, not the dead tail, answered.
        assert!(shard.switch(spare).unwrap().stats().reads > 0);
    }
}
