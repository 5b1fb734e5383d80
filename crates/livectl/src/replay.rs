//! A deterministic, single-threaded driver for the controlled fabric: the
//! live controller's shards, op lists (`netchain_core::failplan`), fault ops
//! (`netchain_core::fault`) and reactor (`netchain_core::Reactor`), delivered
//! one at a time by calling [`Shard::apply`] and [`Shard::fault`] directly.
//! [`ReplayFabric::react`] + [`ReplayFabric::step`] work a schedule off the
//! reactor's agenda; the verbs ([`ReplayFabric::fast_failover`],
//! [`ReplayFabric::start_recovery`], …) call its reactions one by one, as the
//! differential test against the simulator and the chain-repair property
//! test sequence them.

use netchain_core::failplan::{OpList, Target};
use netchain_core::{
    Action, AgentConfig, AgentCore, ChainDirectory, CompletedQuery, FaultOp, GroupCopy, HashRing,
    KvOp, LinkFilter, Reactions, Reactor, Schedule,
};
use netchain_fabric::{shard_of_key, Shard};
use netchain_sim::{SimDuration, SimTime};
use netchain_switch::kv::ExportedEntry;
use netchain_switch::{ControlOp, PipelineConfig};
use netchain_wire::{BatchEncoder, Ipv4Addr, Key, PacketView, Value};
use std::time::Duration;

/// The deterministic controlled fabric.
pub struct ReplayFabric {
    ring: HashRing,
    num_shards: usize,
    shards: Vec<Shard>,
    agent: AgentCore,
    replies: BatchEncoder,
    clock: u64,
    /// The controller: its view, its agenda, its repairs (the verbs drive
    /// the latest).
    reactor: Reactor,
    /// Link faults on the client ↔ shard edges, and their generator.
    links: LinkFilter,
    /// Until when (replay clock) each shard is stalled.
    stalled_until: Vec<u64>,
}

impl ReplayFabric {
    /// Builds a replay fabric over `ring`, partitioned into `num_shards`,
    /// with the given pipeline geometry, spare switches and client agent
    /// configuration.
    pub fn new(
        ring: HashRing,
        num_shards: usize,
        pipeline: PipelineConfig,
        spares: &[Ipv4Addr],
        agent_config: AgentConfig,
    ) -> Self {
        let shards: Vec<Shard> = (0..num_shards)
            .map(|i| Shard::with_spares(i, num_shards, ring.clone(), pipeline, spares))
            .collect();
        let links = LinkFilter::new(&Schedule::default(), agent_config.client_ip, |_| false);
        let agent = AgentCore::new(agent_config, ChainDirectory::new(ring.clone()));
        ReplayFabric {
            reactor: Reactor::new(ring.clone(), spares.to_vec(), Reactions::default()),
            ring,
            num_shards,
            shards,
            agent,
            replies: BatchEncoder::new(),
            clock: 0,
            links,
            stalled_until: vec![0; num_shards],
        }
    }

    /// The ring in use.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The client agent (stats, outstanding).
    pub fn agent(&self) -> &AgentCore {
        &self.agent
    }

    /// Replaces the client agent (phased differential tests pair each phase
    /// with a fresh agent, mirroring a freshly installed simulator client).
    pub fn reset_agent(&mut self, config: AgentConfig) {
        self.agent = AgentCore::new(config, ChainDirectory::new(self.ring.clone()));
    }

    /// Pre-populates `key` on every switch of its chain.
    pub fn populate(&mut self, key: Key, value: &Value) {
        let s = shard_of_key(&self.ring, &key, self.num_shards);
        self.shards[s].populate(key, value);
    }

    /// The controller: its view, journal and timelines.
    pub fn reactor(&self) -> &Reactor {
        &self.reactor
    }

    /// Read access to the shards (state comparisons).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The union of every shard's replica state for switch `ip`, sorted by
    /// key (shards partition the keyspace, so the union is disjoint).
    pub fn switch_state(&self, ip: Ipv4Addr) -> Vec<ExportedEntry> {
        let mut entries: Vec<ExportedEntry> = self
            .shards
            .iter()
            .filter_map(|s| s.switch(ip))
            .flat_map(|sw| sw.kv().export_entries())
            .collect();
        entries.sort_by_key(|e| e.key);
        entries
    }

    /// Delivers a plan's op list to every shard, in list order.
    fn deliver(&mut self, ops: OpList) {
        for (target, op) in &ops {
            for shard in &mut self.shards {
                shard.apply(*target, op);
            }
        }
    }

    /// Executes one op end to end: build the query, run it through the
    /// owning shard, absorb the reply. Returns the completed query — with
    /// `status: None` if the dataplane dropped it (dead switch without
    /// rules, blocked group, a lossy edge) and the retry budget ran out.
    pub fn exec(&mut self, op: KvOp) -> CompletedQuery {
        self.clock += 1;
        let s = shard_of_key(&self.ring, &op.key(), self.num_shards);
        let (request_id, pkt) = self.agent.begin(SimTime(self.clock), op);
        let mut frames = vec![pkt.to_bytes()];
        loop {
            for frame in frames.drain(..) {
                if let Some(done) = self.offer(s, &frame) {
                    assert_eq!(done.request_id, request_id);
                    return done;
                }
            }
            // No reply: time passes until the agent retransmits or gives up.
            // Replay state is frozen between retries, so a retransmission
            // would repeat the identical outcome; it is sent only while a
            // link fault could make it differ.
            self.clock += self.agent.config().timeout.as_nanos().max(1);
            let mut outcome = self.agent.poll_retries(SimTime(self.clock));
            if let Some(abandoned) = outcome.abandoned.pop() {
                assert_eq!(abandoned.request_id, request_id);
                return abandoned;
            }
            if self.links.active() {
                frames.extend(outcome.retransmit.iter().map(|pkt| pkt.to_bytes()));
            }
        }
    }

    /// Offers one query frame to shard `s` across the client → shard edge and
    /// absorbs what comes back across the shard → client edge. A stalled
    /// shard answers when its stall is over: the clock jumps there.
    fn offer(&mut self, s: usize, frame: &[u8]) -> Option<CompletedQuery> {
        let ReplayFabric {
            shards,
            agent,
            replies,
            clock,
            links,
            ..
        } = self;
        *clock = (*clock).max(self.stalled_until[s]);
        let shard_ip = Ipv4Addr::for_shard(s as u32);
        replies.clear();
        links.send(shard_ip, frame, |frame| {
            shards[s].process_burst(std::iter::once(frame), replies);
        });
        let mut done = None;
        for i in 0..replies.len() {
            links.recv(shard_ip, replies.frame(i), |frame| {
                let reply = PacketView::parse(frame).expect("fabric replies parse");
                *clock += 1;
                done = done
                    .take()
                    .or(agent.on_reply(SimTime(*clock), &reply.to_owned()));
            });
        }
        done
    }

    // ---- Faults and the controller ----

    /// Seeds the generator the link faults draw from (a schedule's seed), and
    /// heals every edge.
    pub fn seed_faults(&mut self, seed: u64) {
        let me = self.agent.config().client_ip;
        self.links = LinkFilter::new(&Schedule::new(seed), me, |_| false);
    }

    /// Hands `schedule` to a fresh controller reacting with `reactions`
    /// (and seeds the link faults from it): [`Self::step`] works it off.
    pub fn react(&mut self, schedule: &Schedule, reactions: Reactions) {
        let spares = self.reactor.view().pool.clone();
        self.reactor = Reactor::new(self.ring.clone(), spares, reactions);
        self.reactor.load(schedule);
        self.seed_faults(schedule.seed);
    }

    /// Executes the controller's first agenda entry due by `now` (schedule
    /// time, not the replay clock).
    pub fn step(&mut self, now: Duration) {
        for action in self.reactor.step(now) {
            match action {
                Action::Fault(op) => self.deliver_fault(&op),
                Action::Deliver(ops) => self.deliver(ops),
                Action::Copy(copy) => self.copy(copy),
            }
        }
        self.reactor.landed(now);
    }

    /// The replay clock, as the reactor's time for the verbs.
    fn now(&self) -> Duration {
        Duration::from_nanos(self.clock)
    }

    /// Delivers one fault op, now: a kill or revive to every shard, a stall
    /// (in replay-clock nanoseconds) to the shards it names, a link fault to
    /// the client's edges. The controller's reaction to a kill is the
    /// caller's to sequence ([`Self::fast_failover`],
    /// [`Self::start_recovery`]).
    pub fn apply(&mut self, op: &FaultOp) {
        self.reactor.fault(*op);
        self.reactor.landed(self.now());
        self.deliver_fault(op);
    }

    fn deliver_fault(&mut self, op: &FaultOp) {
        for shard in &mut self.shards {
            shard.fault(op);
        }
        match *op {
            FaultOp::Stall(ip, dur) => {
                for (shard, until) in self.shards.iter().zip(&mut self.stalled_until) {
                    if shard.named_by(ip) {
                        *until = self.clock + dur.as_nanos() as u64;
                    }
                }
            }
            _ => drop(self.links.apply(op)),
        }
    }

    /// Copies a blocked group from every donor to the replacement, on every
    /// shard, and tells the reactor.
    fn copy(&mut self, copy: GroupCopy) {
        let replacement = Target::Switch(copy.replacement);
        for &donor in &copy.donors {
            for shard in &mut self.shards {
                let entries = shard.export_group(donor, copy.group, copy.modulus);
                shard.apply(replacement, &ControlOp::Import(entries));
            }
        }
        self.reactor.copied(copy.repair, copy.group);
    }

    /// Fault injection: fail-stop `victim` on every shard.
    pub fn kill(&mut self, victim: Ipv4Addr) {
        self.apply(&FaultOp::Kill(victim));
    }

    /// Algorithm 2 for the death of `ip`: install fast-failover rules
    /// everywhere and bump the session of every new chain head. Returns the
    /// ring switch whose chains now need repair (`ip`, or the one it stood
    /// in for), `None` if `ip` held no chain role.
    pub fn fast_failover(&mut self, ip: Ipv4Addr) -> Option<Ipv4Addr> {
        let (ops, victim) = self.reactor.fast_failover(self.now(), ip)?;
        self.deliver(ops);
        self.reactor.landed(self.now());
        Some(victim)
    }

    /// Plans recovery of `victim` onto `replacement`; returns the number of
    /// repair steps. Steps are then driven by [`Self::block_next_group`] /
    /// [`Self::finish_blocked_group`] (or [`Self::repair_all`]), always on
    /// the latest repair started.
    pub fn start_recovery(
        &mut self,
        victim: Ipv4Addr,
        replacement: Ipv4Addr,
        recovery_groups: Option<u32>,
    ) -> usize {
        let now = self.now();
        let repair = (self.reactor).repair(now, victim, Some(replacement), recovery_groups);
        let repair = repair.expect("the replacement is alive");
        self.reactor.progress(repair).0.steps.len()
    }

    /// The latest repair started, if any.
    fn current(&self) -> Option<usize> {
        self.reactor.repairs().checked_sub(1)
    }

    /// The currently blocked `(group, modulus)`, if a repair step is between
    /// its block and activate phases.
    pub fn blocked_group(&self) -> Option<(u32, u32)> {
        let (plan, activated, blocked) = self.reactor.progress(self.current()?);
        blocked.then(|| (plan.steps[activated].group, plan.modulus))
    }

    /// True if `key` falls in the currently blocked group.
    pub fn is_key_blocked(&self, key: &Key) -> bool {
        self.blocked_group().is_some_and(|(group, modulus)| {
            (key.stable_hash() % u64::from(modulus.max(1))) as u32 == group
        })
    }

    /// Phase 1 of the next repair step: block the group's traffic to the
    /// victim on every shard, then copy its state from every donor to the
    /// replacement. Returns the blocked group, or `None` if repair is
    /// complete or a step is already blocked.
    pub fn block_next_group(&mut self) -> Option<u32> {
        let (ops, copy) = self.reactor.block(self.current()?)?;
        let group = copy.group;
        self.deliver(ops);
        self.copy(copy);
        Some(group)
    }

    /// Phase 2 of the blocked step: activate the replacement (with a fresh
    /// session), install the redirect and drop the block. Returns the
    /// activated group.
    pub fn finish_blocked_group(&mut self) -> Option<u32> {
        let (group, _) = self.blocked_group()?;
        let ops = self.reactor.activate(self.current()?)?;
        self.deliver(ops);
        self.reactor.landed(self.now());
        Some(group)
    }

    /// Runs every remaining repair step to completion (finishing a group the
    /// caller left mid-block first).
    pub fn repair_all(&mut self) {
        self.finish_blocked_group();
        while self.block_next_group().is_some() {
            self.finish_blocked_group();
        }
    }

    /// True once every planned repair step has been activated.
    pub fn repair_complete(&self) -> bool {
        let progress = self.current().map(|r| self.reactor.progress(r));
        progress.is_some_and(|(plan, activated, _)| activated == plan.steps.len())
    }
}

/// A convenient default agent configuration for replay tests: 1 ms timeout,
/// small retry budget (retries cannot change a frozen replay's outcome).
pub fn replay_agent_config(client: u32) -> AgentConfig {
    AgentConfig::new(Ipv4Addr::for_host(client))
        .with_timeout(SimDuration::from_millis(1))
        .with_max_retries(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_wire::QueryStatus;

    fn fabric() -> ReplayFabric {
        let ring = HashRing::new((0..3).map(Ipv4Addr::for_switch).collect(), 8, 3, 7);
        ReplayFabric::new(
            ring,
            2,
            PipelineConfig::tiny(256),
            &[Ipv4Addr::for_switch(3)],
            replay_agent_config(0),
        )
    }

    #[test]
    fn write_survives_kill_failover_and_repair() {
        let mut fabric = fabric();
        let key = Key::from_name("replay/key");
        fabric.populate(key, &Value::from_u64(0));
        let done = fabric.exec(KvOp::Write(key, Value::from_u64(41)));
        assert_eq!(done.status, Some(QueryStatus::Ok));

        let victim = fabric.ring().chain_for_key(&key).head();
        fabric.kill(victim);
        // Before failover rules: queries towards the victim vanish.
        let dropped = fabric.exec(KvOp::Write(key, Value::from_u64(42)));
        assert_eq!(dropped.status, None, "no rules yet: the query is lost");

        fabric.fast_failover(victim);
        let done = fabric.exec(KvOp::Write(key, Value::from_u64(43)));
        assert_eq!(done.status, Some(QueryStatus::Ok));
        let read = fabric.exec(KvOp::Read(key));
        assert_eq!(read.value.as_u64(), Some(43));

        let spare = Ipv4Addr::for_switch(3);
        let steps = fabric.start_recovery(victim, spare, Some(4));
        assert_eq!(steps, 4);
        // While the key's group is blocked, a write to it is lost; once the
        // group activates, it completes against the repaired chain.
        fabric.repair_all();
        assert!(fabric.repair_complete());
        let done = fabric.exec(KvOp::Write(key, Value::from_u64(44)));
        assert_eq!(done.status, Some(QueryStatus::Ok));
        let read = fabric.exec(KvOp::Read(key));
        assert_eq!(read.value.as_u64(), Some(44));
        // The spare now holds the key's group state.
        let spare_state = fabric.switch_state(spare);
        assert!(spare_state.iter().any(|e| e.key == key));
        assert_eq!(fabric.agent().stats().version_regressions, 0);
    }

    #[test]
    fn blocked_group_queries_are_lost_until_activation() {
        let mut fabric = fabric();
        let key = Key::from_name("replay/blocked");
        fabric.populate(key, &Value::from_u64(7));
        let victim = fabric.ring().chain_for_key(&key).tail();
        fabric.kill(victim);
        fabric.fast_failover(victim);
        let spare = Ipv4Addr::for_switch(3);
        fabric.start_recovery(victim, spare, Some(1));
        let group = fabric.block_next_group().expect("one step");
        assert_eq!(group, 0);
        assert!(fabric.is_key_blocked(&key), "modulus 1 blocks every key");
        // A read towards the dead tail is blocked, not served stale.
        let read = fabric.exec(KvOp::Read(key));
        assert_eq!(read.status, None);
        fabric.finish_blocked_group();
        let read = fabric.exec(KvOp::Read(key));
        assert_eq!(read.status, Some(QueryStatus::Ok));
        assert_eq!(read.value.as_u64(), Some(7));
    }

    #[test]
    fn a_stalled_shard_answers_when_its_stall_is_over() {
        let mut fabric = fabric();
        let key = Key::from_name("replay/stalled");
        fabric.populate(key, &Value::from_u64(0));
        let owner = shard_of_key(fabric.ring(), &key, 2) as u32;
        let stall = std::time::Duration::from_millis(3);
        let waited = |done: &CompletedQuery| done.latency.as_nanos() >= stall.as_nanos() as u64;
        // The other shard's stall is not this key's business.
        fabric.apply(&FaultOp::Stall(Ipv4Addr::for_shard(1 - owner), stall));
        let quick = fabric.exec(KvOp::Write(key, Value::from_u64(1)));
        assert!(quick.is_ok() && !waited(&quick), "{quick:?}");
        // Its own shard's is, by the shard's address or by that of a switch
        // the shard hosts a slice of: state and query keep, the answer is late.
        for ip in [Ipv4Addr::for_shard(owner), Ipv4Addr::for_switch(0)] {
            fabric.apply(&FaultOp::Stall(ip, stall));
            let late = fabric.exec(KvOp::Read(key));
            assert!(late.is_ok() && waited(&late), "{ip}: {late:?}");
            assert_eq!((late.value.as_u64(), late.retries), (Some(1), 0));
            let quick = fabric.exec(KvOp::Read(key));
            assert!(quick.is_ok() && !waited(&quick), "{ip}: {quick:?}");
        }
    }
}
