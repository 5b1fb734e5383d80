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
//! batch-hash all keys, probe each eligible read's slot in frame order with
//! its precomputed hash, then execute — those reads answer straight from the
//! register arrays without ever materialising an owned packet. A hosted
//! address resolves to its replica through the shard's **route table** in
//! one load (the software analogue of a Tofino's exact-match next hop),
//! which also says whether the replica is live and whether it holds any
//! failover rule, so neither the fast-lane test nor a wave group scans
//! anything. Every other packet is materialised once, into a slot of the
//! packet slab, and from then on is stepped where it lies: a wave moves its
//! slot, its current destination and the **stage-2 hash of its key** through
//! every hop of its chain, so the index match, the failover-rule scopes and
//! the trace fingerprints of all three hops of a write consume one hash and
//! the packet is never copied. The pre-staging scalar parse is kept as
//! [`Shard::process_burst_scalar`], the semantic baseline the staged path is
//! differentially tested against.
//!
//! ## Control plane hooks
//!
//! The live control plane (`netchain-livectl`) programs a shard between
//! bursts exactly the way the paper's controller programs switches:
//!
//! * [`Shard::fault`] is the fault injector's hook, for the switch-level
//!   half of `netchain_core::fault`'s vocabulary: a killed replica stops
//!   being addressable, freezing its state like a fail-stopped device; a
//!   revived one comes back empty and inactive.
//! * [`Shard::apply`] delivers one control op (`netchain_switch::ControlOp`,
//!   the vocabulary every transport shares) to its target. A rule addressed
//!   to the failed switch's *neighbours* goes into **every live switch
//!   replica**: in the physical network the controller programs the
//!   neighbours; in the fabric every live switch is a potential neighbour
//!   (chains hop directly from switch to switch), so programming all of them
//!   is the same thing. Rules match on a packet's destination, so they leave
//!   the fast read lane alone: a read stays eligible unless a rule targets
//!   the address its *reply* goes to.
//! * Packets addressed to a failed (or simply absent) switch are routed
//!   through the shard's *gateway* — the lowest-IP live active switch, which
//!   plays the role of the client's ToR switch in the testbed: its rule table
//!   decides whether the packet fails over, blocks, or redirects. Without a
//!   matching rule the packet is dropped and counted `unroutable`, exactly
//!   like a packet sailing towards a dead device in the simulator. A dead
//!   address the gateway redirects wholly to one live replica resolves to
//!   it instead (no gateway wave; reads keep the fast lane), though the
//!   control-plane verbs still address the dead replica.
//! * Chain repair moves register state between replicas with
//!   `SwitchKvStore::export_group` on the donor ([`Shard::switch`]) and a
//!   `ControlOp::Import` on the replacement, the same calls the simulator's
//!   switch agent makes.
//!
//! ## The packet slab
//!
//! Owned [`NetChainPacket`](netchain_wire::NetChainPacket)s live in a slab
//! ([`netchain_wire::PacketPool`]): a packet is materialised into a slot and
//! stays there for its whole chain, stepped in place by the switch program (a
//! reply clears the chain list and reuses the value buffer), while the waves
//! carry its `u32` slot. A retired slot goes on a free list, and the next
//! frame refills its chain list and value vectors in place, so the write path
//! allocates nothing per packet (reads never did).

use crate::stats::ShardStats;
use netchain_core::failplan::Target;
use netchain_core::query_evidence_hashed;
use netchain_core::{FaultOp, HashRing};
use netchain_switch::kv::ExportedEntry;
use netchain_switch::{
    stable_hash_batch, ControlOp, DropReason, NetChainSwitch, PipelineConfig, ProbeGauges,
};
use netchain_telemetry::{
    key_fingerprint, trace_id, Evidence, EvidenceOp, HopRole, PacketTrace, TraceConfig, TraceSink,
};
use netchain_wire::{
    BatchEncoder, BatchView, Ipv4Addr, Key, OpCode, PacketPool, PacketView, Value, BATCH_WIDTH,
};

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
    /// The hosted replicas (ring members, then spares).
    switches: Vec<NetChainSwitch>,
    /// Switches the fault injector killed: no longer addressable; their
    /// replica state is frozen as of the kill (fail-stop).
    failed: Vec<bool>,
    /// Every hosted address's [`Route`], open-addressed from the address's
    /// low byte: a power of two at least twice the hosted count, so most
    /// lookups are one load and every probe run ends at an empty entry.
    routes: Box<[Option<Route>]>,
    /// Index of the lowest-IP live, active switch.
    gateway: Option<usize>,
    stats: ShardStats,
    /// Scratch: the wave being executed and the one its survivors form
    /// (reused across bursts).
    wave: Vec<Lane>,
    next_wave: Vec<Lane>,
    /// The owned packets in flight, and the retired slots the parse paths
    /// refill.
    pool: PacketPool,
    /// In-band per-hop trace stamping, when enabled. `None` keeps the data
    /// plane exactly as before: one branch per wave group and nothing else.
    tracer: Option<ShardTracer>,
}

/// What the data path needs to know about one hosted address. Only the
/// control-plane hooks change any of it, and they rebuild the whole table
/// ([`Shard::refresh_routes`]).
#[derive(Clone, Copy)]
struct Route {
    ip: Ipv4Addr,
    /// The replica's index in `Shard::switches`, dead or alive.
    index: u16,
    /// The replica executing what is addressed to `ip`: `index` while live
    /// (not killed, active), else a redirect's replacement or none.
    hop: Option<u16>,
    /// `hop` holds at least one failover rule.
    ruled: bool,
}

/// One in-flight item of a wave, with where it is addressed.
enum Lane {
    /// A first-wave read riding the fast lane: just its lane index into the
    /// chunk's parsed batch (the frame stays where it is).
    Fast { lane: usize, dst: Ipv4Addr },
    /// Anything else: the slab slot of a packet stepped in place hop after
    /// hop, its current destination and its key's stable hash.
    Owned { slot: u32, dst: Ipv4Addr, hash: u64 },
}

impl Lane {
    fn dst(&self) -> Ipv4Addr {
        match *self {
            Lane::Fast { dst, .. } | Lane::Owned { dst, .. } => dst,
        }
    }
}

/// What the fast lanes of a staged chunk refer into: the parsed frames and
/// the per-lane results of stages 2 and 3.
struct Chunk<'c, 's, 'a> {
    frames: &'c BatchView<'s, 'a>,
    hashes: &'c [u64; BATCH_WIDTH],
    slots: &'c [Option<usize>; BATCH_WIDTH],
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
        let switches: Vec<NetChainSwitch> = (ring.switches().iter().chain(spares))
            .map(|&ip| NetChainSwitch::new(ip, pipeline))
            .collect();
        assert!(
            switches.len() <= usize::from(u16::MAX),
            "routes index switches by u16"
        );
        let mut shard = Shard {
            id,
            num_shards,
            ring,
            failed: vec![false; switches.len()],
            routes: vec![None; (2 * switches.len()).next_power_of_two().max(256)].into(),
            switches,
            gateway: None,
            stats: ShardStats::default(),
            wave: Vec::with_capacity(BATCH_WIDTH),
            next_wave: Vec::new(),
            pool: PacketPool::new(),
            tracer: None,
        };
        shard.refresh_routes();
        shard
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

    /// Drains this shard's trace fragments, with the shift its sink ended at.
    pub fn take_traces(&mut self) -> (u32, Vec<PacketTrace>) {
        self.tracer
            .as_mut()
            .map(|t| (t.sink.shift(), t.sink.drain()))
            .unwrap_or_default()
    }

    /// Publishes executor-level gauges — ingress queue depth/capacity and
    /// coarse cumulative latency buckets — to every switch replica, so an
    /// in-band `Stat` probe answered by any of them reports the shard's
    /// current view. Executors call this at burst boundaries, never per
    /// packet, which is what keeps probe support off the hot path.
    pub fn set_probe_gauges(&mut self, gauges: ProbeGauges) {
        for switch in &mut self.switches {
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
    /// the fabric equivalent of `NetChainCluster::populate_key`), from one
    /// hash. Only keys this shard [`owns`](Self::owns) may be inserted.
    pub fn populate(&mut self, key: Key, value: &Value) {
        let hash = key.stable_hash();
        let group = self.ring.group_of_hash(hash);
        let owner = shard_of_group(group, self.num_shards);
        assert_eq!(owner, self.id, "key steered to the wrong shard");
        self.install(&self.ring.chain_for_group(group).switches, hash, key, value);
    }

    /// [`Self::populate`] for every key of `entries` this shard owns, as one
    /// batch: each store is sized once, then the keys go in sorted by their
    /// home cell in the largest index, so the probes walk forward.
    pub fn populate_owned<'v>(&mut self, entries: impl IntoIterator<Item = (Key, &'v Value)>) {
        let groups = 0..self.ring.num_virtual_nodes() as u32;
        let chain = |group| self.ring.chain_for_group(group).switches;
        let chains: Vec<_> = groups.map(chain).collect();
        let mut batch = Vec::new();
        for (key, value) in entries {
            let hash = key.stable_hash();
            let group = self.ring.group_of_hash(hash);
            if shard_of_group(group, self.num_shards) == self.id {
                batch.push((hash, &chains[group as usize], key, value));
            }
        }
        let mut keys = vec![0; self.switches.len()];
        for &ip in batch.iter().flat_map(|e| e.1) {
            keys[self.index_of(ip).expect("ring switches are hosted")] += 1;
        }
        for (switch, &n) in self.switches.iter_mut().zip(&keys) {
            switch.kv_mut().reserve(n);
        }
        let widest = self.switches.iter().zip(&keys).max_by_key(|&(_, n)| n);
        let index = widest.expect("a shard hosts its ring's switches").0.kv();
        batch.sort_unstable_by_key(|&(hash, ..)| index.home(hash));
        for (hash, chain, key, value) in batch {
            self.install(chain, hash, key, value);
        }
    }

    /// Installs `key` on every replica of `chain`, for both population paths.
    fn install(&mut self, chain: &[Ipv4Addr], hash: u64, key: Key, value: &Value) {
        for &ip in chain {
            let i = self.index_of(ip).expect("ring switches are hosted");
            self.switches[i]
                .kv_mut()
                .insert_hashed(hash, key, value)
                .expect("shard store sized for the workload");
        }
    }

    /// `ip`'s route, if this shard hosts it.
    fn route(&self, ip: Ipv4Addr) -> Option<Route> {
        let mask = self.routes.len() - 1;
        let mut at = usize::from(ip.0[3]);
        loop {
            let route = self.routes[at & mask]?;
            if route.ip == ip {
                return Some(route);
            }
            at += 1;
        }
    }

    /// Where `ip`'s replica sits in `switches`, dead or alive.
    fn index_of(&self, ip: Ipv4Addr) -> Option<usize> {
        self.route(ip).map(|r| usize::from(r.index))
    }

    /// Read access to a switch replica (differential tests, experiments).
    pub fn switch(&self, ip: Ipv4Addr) -> Option<&NetChainSwitch> {
        self.index_of(ip).map(|i| &self.switches[i])
    }

    /// The switch IPs this shard hosts.
    pub fn switch_ips(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.switches.iter().map(NetChainSwitch::ip)
    }

    // ---- Control-plane hooks (the live controller's verbs) ----

    /// Delivers a fault to the replica it names. `Kill` fail-stops it: it
    /// stops being addressable and its state freezes; queries towards it fall
    /// to the gateway's rule table (or are dropped as unroutable until rules
    /// arrive). `Revive` brings it back empty and inactive, which keeps it
    /// unaddressable until Algorithm 3 activates it. A stall or a link fault
    /// is the hosting thread's business and changes nothing here.
    pub fn fault(&mut self, op: &FaultOp) {
        let (ip, killed) = match *op {
            FaultOp::Kill(ip) => (ip, true),
            FaultOp::Revive(ip) => (ip, false),
            _ => return,
        };
        if let Some(i) = self.index_of(ip) {
            self.failed[i] = killed;
            if !killed {
                self.switches[i].wipe();
                self.switches[i].set_active(false);
            }
            self.refresh_routes();
        }
    }

    /// True if a `Stall` of `ip` stalls the thread hosting this shard: `ip`
    /// is the shard's own address, or a switch it hosts a slice of.
    pub fn named_by(&self, ip: Ipv4Addr) -> bool {
        ip == Ipv4Addr::for_shard(self.id as u32) || self.index_of(ip).is_some()
    }

    /// The entries of virtual group `group` (of `modulus`) that the replica
    /// of `ip` holds: the donor side of chain repair. A dead donor answers
    /// nothing, whether or not the controller has noticed it is dead.
    pub fn export_group(&self, ip: Ipv4Addr, group: u32, modulus: u32) -> Vec<ExportedEntry> {
        let donor = self.live_index(ip).map(|i| &self.switches[i]);
        donor.map_or_else(Vec::new, |sw| sw.kv().export_group(group, modulus))
    }

    /// True if the fault injector killed `ip` on this shard.
    pub fn is_failed(&self, ip: Ipv4Addr) -> bool {
        self.index_of(ip).is_some_and(|i| self.failed[i])
    }

    /// Delivers one op of a `failplan` list (or a state import) within the
    /// shard: `Neighbours` are all live replicas (see the module docs),
    /// `Switch(ip)` is the hosted replica, dead or alive. What the op does to
    /// a switch is `NetChainSwitch::apply`'s business.
    pub fn apply(&mut self, target: Target, op: &ControlOp) {
        match target {
            Target::Neighbours => {
                for (switch, &failed) in self.switches.iter_mut().zip(&self.failed) {
                    if !failed {
                        switch.apply(op);
                    }
                }
            }
            Target::Switch(ip) => {
                if let Some(i) = self.index_of(ip) {
                    self.switches[i].apply(op);
                }
            }
        }
        self.refresh_routes();
    }

    /// Rebuilds what the control plane can change about routing: the route
    /// table (a kill, a revival, an (de)activation or a rule change) and the
    /// gateway, the lowest-IP live, active switch, which plays the ToR
    /// switch's role for packets addressed to a dead device (its rules, or
    /// the replacement they all redirect to, decide their fate). This is the
    /// only writer of either; control ops are rare enough to rebuild after.
    fn refresh_routes(&mut self) {
        self.routes.fill(None);
        let mask = self.routes.len() - 1;
        let (mut gateway, mut dead) = (None, Vec::new());
        for (i, (switch, &failed)) in self.switches.iter().zip(&self.failed).enumerate() {
            let ip = switch.ip();
            let mut at = usize::from(ip.0[3]);
            while self.routes[at & mask].is_some() {
                at += 1;
            }
            let live = !failed && switch.is_active();
            if !live {
                dead.push(at & mask);
            } else if gateway.is_none_or(|(lowest, _)| ip < lowest) {
                gateway = Some((ip, i));
            }
            self.routes[at & mask] = Some(Route {
                ip,
                index: i as u16,
                hop: live.then_some(i as u16),
                ruled: !switch.forwarding().is_empty(),
            });
        }
        self.gateway = gateway.map(|(_, i)| i);
        for at in dead {
            let route = self.routes[at].expect("filled above");
            let redirect = |i: usize| self.switches[i].forwarding().redirect_target(route.ip);
            let to = self.gateway.and_then(redirect);
            let hop = to.and_then(|to| self.live_index(to));
            let hop = hop.filter(|&i| redirect(i) == to);
            self.routes[at] = Some(Route {
                hop: hop.map(|i| i as u16),
                ruled: true,
                ..route
            });
        }
    }

    /// The live, active replica addressed by `ip`, if this shard hosts one
    /// (a revived switch is neither until a repair activates it).
    fn live_index(&self, ip: Ipv4Addr) -> Option<usize> {
        (self.route(ip))
            .filter(|r| r.hop == Some(r.index))
            .map(|r| usize::from(r.index))
    }

    /// The replica that answers a read from `src` to `dst` on the fast lane,
    /// if it may: `dst` resolves to a replica that holds no rule for `src`,
    /// the address the reply goes to. Rules for other destinations — the
    /// failed switch of a failover, say — never see such a reply.
    fn fast_lane(&self, dst: Ipv4Addr, src: Ipv4Addr) -> Option<usize> {
        let route = self.route(dst)?;
        let hop = usize::from(route.hop?);
        (!route.ruled || !self.switches[hop].forwarding().targets(src)).then_some(hop)
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
    ///    one lane-major pass. Nothing downstream hashes a key again.
    /// 3. **Probe** — in frame order, each pure read resolves its destination
    ///    through the route table in one load; if it may take the fast lane,
    ///    it is probed against that switch's index with its precomputed hash
    ///    (`SwitchKvStore::probe_slot`), touching the register slot so it is
    ///    warm when stage 4 reads it. Mutations never touch the index
    ///    (inserts/removes are control-plane only), so slots probed here stay
    ///    correct for the whole burst. Every other lane is materialised into
    ///    a slab slot.
    /// 4. **Execute** — the wave groups run in frame order: probed reads ride
    ///    the fast lane ([`NetChainSwitch::read_reply_staged`]: the reply is
    ///    emitted straight from the query frame and the register arrays, no
    ///    owned packet), everything else is stepped in its slot with its hash
    ///    ([`NetChainSwitch::handle_hashed`]); a wave carries only the slot,
    ///    which joins the next wave if the hop forwards the packet and goes
    ///    back on the slab's free list if the packet retires.
    ///
    /// Chain hops past the first wave continue through the same wave step as
    /// [`Shard::process_burst_scalar`]; semantics — per-key ordering within a
    /// burst, reply order, stats, trace stamps — are identical to the scalar
    /// path (pinned by tests).
    pub fn process_burst<'a>(
        &mut self,
        frames: impl Iterator<Item = &'a [u8]>,
        replies: &mut BatchEncoder,
    ) {
        debug_assert!(self.next_wave.is_empty());
        let mut frames = frames.fuse();
        let mut chunk: [&'a [u8]; BATCH_WIDTH] = [&[]; BATCH_WIDTH];
        let mut wave = std::mem::take(&mut self.wave);
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

            // Stage 3, and the chunk's wave-1 items in frame order. A read
            // takes the fast lane iff the switch would run exactly
            // `process_read` followed by an unobstructed reply bounce: a pure
            // read query (no carried value, so no recirculation accounting)
            // that `fast_lane` lets through. It is probed where it lies and
            // stays in its frame. Everything else is materialised into the
            // slab exactly like the scalar parse, and keeps its stage-2 hash
            // from here on.
            let mut slots: [Option<usize>; BATCH_WIDTH] = [None; BATCH_WIDTH];
            for (i, &hash) in hashes.iter().enumerate().take(n) {
                if !batch.is_valid(i) {
                    continue;
                }
                let dst = Ipv4Addr(batch.dst(i).to_be_bytes());
                let read = batch.is_netchain(i)
                    && batch.op(i) == OpCode::Read.to_u8()
                    && batch.value_len(i) == 0;
                let fast = if read {
                    self.fast_lane(dst, Ipv4Addr(batch.src(i).to_be_bytes()))
                } else {
                    None
                };
                wave.push(match fast {
                    Some(s) => {
                        slots[i] = self.switches[s].kv().probe_slot(&batch.key(i), hash);
                        Lane::Fast { lane: i, dst }
                    }
                    None => Lane::Owned {
                        slot: self.pool.take(&bv.view(i)),
                        dst,
                        hash,
                    },
                });
            }

            // Stage 4: execute the chunk's share of wave 1.
            let chunk = Chunk {
                frames: &bv,
                hashes: &hashes,
                slots: &slots,
            };
            self.run_wave(&mut wave, Some(&chunk), replies);
        }
        self.wave = wave;

        // Chain hops past the first wave (writes traversing their chains,
        // failover re-routes, …).
        self.run_waves(replies);
    }

    /// The pre-staging scalar reference path: parses every frame into an
    /// owned packet with the zero-copy [`PacketView`], hashes its key on its
    /// own, and runs the waves from the first hop with no fast lane. Kept as
    /// the semantic baseline the staged [`Shard::process_burst`] is
    /// differentially tested against; it lives here, not in test support,
    /// because it needs the shard's private packet slab.
    ///
    /// Malformed frames are counted and skipped. The owned conversion refills
    /// retired slab slots ([`PacketView::to_owned_into`]), so in steady
    /// state this path does not allocate at all — not even for writes.
    #[doc(hidden)]
    pub fn process_burst_scalar<'a>(
        &mut self,
        frames: impl Iterator<Item = &'a [u8]>,
        replies: &mut BatchEncoder,
    ) {
        debug_assert!(self.next_wave.is_empty());
        for bytes in frames {
            self.stats.frames_in += 1;
            match PacketView::parse(bytes) {
                Ok(view) => {
                    let slot = self.pool.take(&view);
                    let hash = self.pool[slot].netchain.key.stable_hash();
                    let dst = view.ip.dst;
                    self.next_wave.push(Lane::Owned { slot, dst, hash });
                }
                Err(_) => self.stats.parse_errors += 1,
            }
        }
        if self.next_wave.is_empty() {
            return;
        }
        self.stats.bursts += 1;
        self.run_waves(replies);
    }

    /// Runs the pending waves (`self.next_wave`) to completion, each wave's
    /// forwarded packets forming the next.
    fn run_waves(&mut self, replies: &mut BatchEncoder) {
        let mut wave = std::mem::take(&mut self.wave);
        while !self.next_wave.is_empty() {
            self.stats.waves += 1;
            std::mem::swap(&mut wave, &mut self.next_wave);
            self.run_wave(&mut wave, None, replies);
        }
        self.wave = wave;
    }

    /// Executes one wave (or one chunk's share of the first): groups the
    /// consecutive items addressed to the same switch and steps each group
    /// through that switch, where the items lie. Leaves `wave` empty:
    /// forwarded packets' slots move to `self.next_wave` with their new
    /// destination, finished ones go back to the slab. `chunk` is what the
    /// wave's fast lanes (if any) refer into.
    fn run_wave(
        &mut self,
        wave: &mut Vec<Lane>,
        chunk: Option<&Chunk>,
        replies: &mut BatchEncoder,
    ) {
        let mut next = 0;
        while next < wave.len() {
            let dst = wave[next].dst();
            let len = wave[next..]
                .iter()
                .take_while(|lane| lane.dst() == dst)
                .count();
            let group = &wave[next..next + len];
            next += len;
            // An address the route table resolves to no replica hands the
            // run to the gateway switch, whose failover rules decide. No
            // gateway (everything failed) means the packets are unroutable.
            let (hop, via_gateway) = match (self.route(dst).and_then(|r| r.hop), self.gateway) {
                (Some(hop), _) => (usize::from(hop), false),
                (None, Some(gateway)) => (gateway, true),
                (None, None) => {
                    self.stats.unroutable += len as u64;
                    for lane in group {
                        if let Lane::Owned { slot, .. } = *lane {
                            self.pool.put(slot);
                        }
                    }
                    continue;
                }
            };
            if let Some(tracer) = &mut self.tracer {
                // One clock read per wave group, taken when its first sampled
                // packet turns up (with uniform keys a group is a packet or
                // two, and most groups hold none). Evidence (a pre-execution
                // register read) is gathered only for packets the sink
                // actually samples, so the common unsampled packet costs one
                // hash + one branch.
                let sw = &self.switches[hop];
                let hop_ip = u32::from_be_bytes(sw.ip().0);
                let mut group_at_ns = None;
                for lane in group {
                    let (id, evidence) = match *lane {
                        Lane::Fast { lane: i, .. } => {
                            let chunk = chunk.expect("fast lanes ride with their chunk");
                            let batch = chunk.frames.batch();
                            let id = trace_id(batch.src(i), batch.request_id(i), chunk.hashes[i]);
                            if !tracer.sink.samples(id) {
                                continue;
                            }
                            // Fast-lane eligibility pinned the hop `dst`
                            // resolves to, so the stage-3 slot is its.
                            let kv = sw.kv();
                            let live = chunk.slots[i].filter(|&s| kv.is_valid(s));
                            let (session, seq) = live.map_or((0, 0), |s| kv.ordering(s));
                            let evidence = Evidence {
                                op: EvidenceOp::Read,
                                role: HopRole::Tail,
                                ok: live.is_some(),
                                key_fp: key_fingerprint(chunk.hashes[i]),
                                session,
                                seq,
                            };
                            (id, Some(evidence))
                        }
                        Lane::Owned { slot, hash, .. } => {
                            let pkt = &self.pool[slot];
                            let src = u32::from_be_bytes(pkt.ip.src.0);
                            let id = trace_id(src, pkt.netchain.request_id, hash);
                            if !tracer.sink.samples(id) {
                                continue;
                            }
                            (id, query_evidence_hashed(sw, &pkt.netchain, hash))
                        }
                    };
                    let at_ns =
                        *group_at_ns.get_or_insert_with(|| tracer.t0.elapsed().as_nanos() as u64);
                    match evidence {
                        Some(ev) => tracer.sink.stamp_with(id, hop_ip, at_ns, ev),
                        None => tracer.sink.stamp(id, hop_ip, at_ns),
                    }
                }
            }
            let sw = &mut self.switches[hop];
            for lane in group {
                // The (client, request id, key hash) a reply produced here
                // answers.
                let replied_to = match *lane {
                    Lane::Fast { lane: i, .. } => {
                        let chunk = chunk.expect("fast lanes ride with their chunk");
                        sw.read_reply_staged(chunk.frames.frame(i), chunk.slots[i], replies);
                        let batch = chunk.frames.batch();
                        Some((batch.src(i), batch.request_id(i), chunk.hashes[i]))
                    }
                    Lane::Owned { slot, hash, .. } => {
                        let pkt = &mut self.pool[slot];
                        // Where the packet goes next, if anywhere.
                        let (replied_to, onwards) = match sw.handle_hashed(pkt, hash) {
                            Ok(()) if pkt.netchain.op.is_reply() => {
                                replies.push(pkt).expect("replies are bounded like queries");
                                // Replies carry the client in `ip.dst`.
                                let client = u32::from_be_bytes(pkt.ip.dst.0);
                                (Some((client, pkt.netchain.request_id, hash)), None)
                            }
                            Ok(()) if via_gateway && pkt.ip.dst == dst => {
                                // The gateway had no matching rule and passed
                                // the packet through unchanged: it would sail
                                // to the dead switch.
                                self.stats.unroutable += 1;
                                (None, None)
                            }
                            Ok(()) => (None, Some(pkt.ip.dst)),
                            Err(reason) => {
                                self.stats.drops += 1;
                                self.stats.blocked += u64::from(reason == DropReason::Blocked);
                                (None, None)
                            }
                        };
                        match onwards {
                            Some(dst) => self.next_wave.push(Lane::Owned { slot, dst, hash }),
                            None => self.pool.put(slot),
                        }
                        replied_to
                    }
                };
                if let Some((client, request_id, hash)) = replied_to {
                    self.stats.replies += 1;
                    if let Some(tracer) = &mut self.tracer {
                        // Close the shard-side fragment.
                        tracer.sink.finish(trace_id(client, request_id, hash));
                    }
                }
            }
        }
        wave.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_switch::{FailoverAction, FailoverRule, RuleScope};
    use netchain_wire::{NetChainPacket, OpCode, QueryStatus};

    fn test_ring() -> HashRing {
        HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7)
    }

    /// Installs `rule` for traffic to `failed_ip` at every live replica.
    fn install_rule(shard: &mut Shard, failed_ip: Ipv4Addr, rule: FailoverRule) {
        shard.apply(
            Target::Neighbours,
            &ControlOp::InstallRule { failed_ip, rule },
        );
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
        shard.fault(&FaultOp::Kill(head));
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
        shard.fault(&FaultOp::Kill(victim));
        install_rule(
            &mut shard,
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
        shard.fault(&FaultOp::Kill(head));
        install_rule(
            &mut shard,
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
        shard.apply(
            Target::Neighbours,
            &ControlOp::RemoveRule {
                failed_ip: head,
                priority: 2,
                scope: RuleScope::All,
            },
        );
        install_rule(
            &mut shard,
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
        shard.fault(&FaultOp::Kill(tail));
        // Repair: copy the group's state from the donor onto the spare, then
        // redirect the dead tail's traffic to it.
        let modulus = ring.num_virtual_nodes() as u32;
        let group = ring.group_of(&key);
        let entries = shard
            .switch(donor)
            .unwrap()
            .kv()
            .export_group(group, modulus);
        assert!(entries.iter().any(|e| e.key == key));
        shard.apply(Target::Switch(spare), &ControlOp::Import(entries));
        shard.apply(Target::Switch(spare), &ControlOp::SetSession(9));
        install_rule(
            &mut shard,
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

    #[test]
    fn routes_keep_addresses_sharing_a_low_byte_apart() {
        // 10.0.0.1 is in the ring and 10.0.1.1 is a spare: both start their
        // probe at the same entry of the route table.
        let (ringed, spare) = (Ipv4Addr::for_switch(1), Ipv4Addr::for_switch(257));
        let mut shard = Shard::with_spares(0, 1, test_ring(), PipelineConfig::tiny(64), &[spare]);
        let live = |shard: &Shard, ip| shard.live_index(ip).map(|i| shard.switches[i].ip());
        for ip in shard.switch_ips().collect::<Vec<_>>() {
            assert_eq!(shard.switch(ip).map(NetChainSwitch::ip), Some(ip));
            assert_eq!(live(&shard, ip), Some(ip));
        }
        // Not hosted, same low byte.
        for stranger in [
            Ipv4Addr::for_switch(513),
            Ipv4Addr::for_host(1),
            Ipv4Addr::for_shard(1),
        ] {
            assert!(
                shard.switch(stranger).is_none(),
                "{stranger:?} is not hosted"
            );
            assert!(!shard.named_by(stranger) && !shard.is_failed(stranger));
        }
        // A kill of either leaves the other addressable.
        shard.fault(&FaultOp::Kill(ringed));
        assert_eq!(
            (live(&shard, ringed), live(&shard, spare)),
            (None, Some(spare))
        );
        shard.fault(&FaultOp::Revive(ringed));
        assert_eq!(
            live(&shard, ringed),
            None,
            "revived switches start inactive"
        );
        shard.apply(Target::Switch(ringed), &ControlOp::SetActive(true));
        shard.fault(&FaultOp::Kill(spare));
        assert_eq!(
            (live(&shard, ringed), live(&shard, spare)),
            (Some(ringed), None)
        );
        assert!(shard.is_failed(spare) && !shard.is_failed(ringed));
    }

    #[test]
    fn a_repaired_address_resolves_to_its_replacement() {
        use netchain_core::failplan::{FailoverPlan, RecoveryPlan};
        const GROUPS: u32 = 10;
        let ring = test_ring();
        let (victim, spare) = (ring.switches()[1], Ipv4Addr::for_switch(9));
        let keys: Vec<Key> = (0..64).map(Key::from_u64).collect();
        let chain = |key: &Key| ring.chain_for_key(key);
        let tail_key = *keys.iter().find(|k| chain(k).tail() == victim).unwrap();
        let head_key = *keys.iter().find(|k| chain(k).head() == victim).unwrap();
        let plan = RecoveryPlan::compute(&ring, victim, spare, Some(GROUPS), &[victim].into());
        // Populated, the victim killed, fast failover, then every group
        // moved to the spare; `groups` of them activated.
        let repaired = |groups: usize| {
            let mut shard =
                Shard::with_spares(0, 1, ring.clone(), PipelineConfig::tiny(128), &[spare]);
            for key in &keys {
                shard.populate(*key, &Value::from_u64(1));
            }
            shard.fault(&FaultOp::Kill(victim));
            let mut session = 1;
            let deliver = |shard: &mut Shard, ops: Vec<(Target, ControlOp)>| {
                for (target, op) in &ops {
                    shard.apply(*target, op);
                }
            };
            deliver(
                &mut shard,
                FailoverPlan::compute(&ring, victim, &[victim].into()).ops(&mut session),
            );
            for (i, step) in plan.steps.iter().enumerate().take(groups) {
                deliver(&mut shard, plan.block_ops(i));
                for &donor in &step.donors {
                    let entries = shard.export_group(donor, step.group, GROUPS);
                    shard.apply(Target::Switch(spare), &ControlOp::Import(entries));
                }
                deliver(&mut shard, plan.activate_ops(i, &mut session));
            }
            shard
        };
        let hop_ip = |shard: &Shard| {
            let hop = shard.route(victim).and_then(|r| r.hop);
            hop.map(|i| shard.switches[usize::from(i)].ip())
        };
        // Until the last group moves, the gateway's rules decide.
        assert_eq!(hop_ip(&repaired(GROUPS as usize - 1)), None);
        // So they do while the replica they redirect to does not agree.
        let mut lone = repaired(0);
        let rule = FailoverRule {
            priority: 3,
            scope: RuleScope::All,
            action: FailoverAction::Redirect(ring.switches()[2]),
        };
        let failed_ip = victim;
        lone.apply(
            Target::Switch(ring.switches()[0]),
            &ControlOp::InstallRule { failed_ip, rule },
        );
        assert_eq!(lone.gateway, lone.index_of(ring.switches()[0]));
        assert_eq!(hop_ip(&lone), None);
        let (mut staged, mut scalar) = (repaired(GROUPS as usize), repaired(GROUPS as usize));
        assert_eq!(hop_ip(&staged), Some(spare));
        let client = Ipv4Addr::for_host(0);
        assert_eq!(staged.fast_lane(victim, client), staged.index_of(spare));
        // The control plane still addresses the frozen victim.
        let frozen = staged.switch(victim).unwrap();
        assert_eq!(frozen.ip(), victim);
        assert!(staged.is_failed(victim) && frozen.stats().processed() == 0);

        // A write whose head is the victim takes its chain's three waves and
        // no gateway wave.
        let mut replies = BatchEncoder::new();
        let write = query_frame(&ring, head_key, OpCode::Write, Value::from_u64(5), 1);
        let before = *staged.stats();
        staged.process_burst(std::iter::once(write.as_slice()), &mut replies);
        assert_eq!(staged.stats().since(&before).waves, 3);
        let mut scalar_replies = BatchEncoder::new();
        scalar.process_burst_scalar(std::iter::once(write.as_slice()), &mut scalar_replies);

        // Reads to the victim are answered by the spare on the fast lane;
        // staged and scalar agree on every byte, counter and register.
        let frames: Vec<Vec<u8>> = (keys.iter().enumerate())
            .map(|(i, &key)| {
                let (op, value) = match i % 3 {
                    0 => (OpCode::Write, Value::from_u64(i as u64)),
                    _ => (OpCode::Read, Value::empty()),
                };
                query_frame(&ring, key, op, value, 10 + i as u64)
            })
            .chain([query_frame(
                &ring,
                tail_key,
                OpCode::Read,
                Value::empty(),
                99,
            )])
            .collect();
        replies.clear();
        scalar_replies.clear();
        staged.process_burst(frames.iter().map(|f| f.as_slice()), &mut replies);
        scalar.process_burst_scalar(frames.iter().map(|f| f.as_slice()), &mut scalar_replies);
        assert_eq!(replies.len(), frames.len());
        assert!(replies.frames().eq(scalar_replies.frames()));
        assert_eq!(staged.stats(), scalar.stats());
        for ip in staged.switch_ips().collect::<Vec<_>>() {
            let (a, b) = (staged.switch(ip).unwrap(), scalar.switch(ip).unwrap());
            assert_eq!(a.stats(), b.stats(), "switch {ip:?} counters");
            assert_eq!(a.kv().export_entries(), b.kv().export_entries());
        }
        let answered_by = (replies.frames().map(|f| PacketView::parse(f).unwrap()))
            .find(|reply| reply.netchain.request_id() == 99)
            .map(|reply| reply.ip.src);
        assert_eq!(answered_by, Some(spare));
        assert_eq!(staged.stats().unroutable, 0);

        // With the spare dead too, the victim's traffic is the gateway's
        // again: redirected to a dead switch, so unroutable.
        staged.fault(&FaultOp::Kill(spare));
        assert_eq!(hop_ip(&staged), None);
        replies.clear();
        let read = query_frame(&ring, tail_key, OpCode::Read, Value::empty(), 100);
        staged.process_burst(std::iter::once(read.as_slice()), &mut replies);
        assert!(replies.is_empty());
        assert_eq!(staged.stats().unroutable, 1);
    }

    #[test]
    fn a_first_rule_for_the_reply_address_takes_reads_off_the_fast_lane() {
        let ring = test_ring();
        let mut shard = Shard::new(0, 1, ring.clone(), PipelineConfig::tiny(64));
        let key = Key::from_name("redirected/reply");
        shard.populate(key, &Value::from_u64(3));
        // No replica held a rule before this one, and it matches the reply.
        let elsewhere = Ipv4Addr::for_host(7);
        install_rule(
            &mut shard,
            Ipv4Addr::for_host(0),
            FailoverRule {
                priority: 1,
                scope: RuleScope::All,
                action: FailoverAction::Redirect(elsewhere),
            },
        );
        let mut replies = BatchEncoder::new();
        let read = query_frame(&ring, key, OpCode::Read, Value::empty(), 1);
        shard.process_burst(std::iter::once(read.as_slice()), &mut replies);
        assert_eq!(replies.len(), 1);
        let reply = PacketView::parse(replies.frame(0)).unwrap();
        assert_eq!(reply.ip.dst, elsewhere);
        assert_eq!(reply.netchain.value(), 3u64.to_be_bytes());
    }
}
