//! A deterministic, single-threaded driver for the controlled fabric: the
//! same shards and the same ordered op lists (`netchain_core::failplan`) as
//! the live controller, delivered by calling [`Shard::apply`] directly, so
//! ops and control steps execute synchronously, one at a time, under the
//! test's explicit sequencing.
//!
//! This is what the differential test runs against the discrete-event
//! simulator (one op list + one interpreter ⇒ the two executions must
//! produce identical replies and switch state), and what the chain-repair
//! property test drives through proptest-chosen failure timings.

use netchain_core::failplan::{FailoverPlan, OpList, RecoveryPlan, Target};
use netchain_core::{AgentConfig, AgentCore, ChainDirectory, CompletedQuery, HashRing, KvOp};
use netchain_fabric::{shard_of_key, Shard};
use netchain_sim::{SimDuration, SimTime};
use netchain_switch::kv::ExportedEntry;
use netchain_switch::{ControlOp, PipelineConfig};
use netchain_wire::{BatchEncoder, Ipv4Addr, Key, PacketView, Value};

/// The deterministic controlled fabric.
pub struct ReplayFabric {
    ring: HashRing,
    num_shards: usize,
    shards: Vec<Shard>,
    agent: AgentCore,
    replies: BatchEncoder,
    clock: u64,
    next_session: u64,
    recovery: Option<RecoveryState>,
}

struct RecoveryState {
    plan: RecoveryPlan,
    /// Index of the next step to block.
    next: usize,
    /// Index of the currently blocked (mid-repair) step, if any.
    blocked: Option<usize>,
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
        let agent = AgentCore::new(agent_config, ChainDirectory::new(ring.clone()));
        ReplayFabric {
            ring,
            num_shards,
            shards,
            agent,
            replies: BatchEncoder::new(),
            clock: 0,
            next_session: 1,
            recovery: None,
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
    /// rules, blocked group) and the retry budget ran out.
    pub fn exec(&mut self, op: KvOp) -> CompletedQuery {
        self.clock += 1;
        let key = op.key();
        let (request_id, pkt) = self.agent.begin(SimTime(self.clock), op);
        let frame = pkt.to_bytes();
        let s = shard_of_key(&self.ring, &key, self.num_shards);
        self.replies.clear();
        self.shards[s].process_burst(std::iter::once(frame.as_slice()), &mut self.replies);
        for i in 0..self.replies.len() {
            let reply = PacketView::parse(self.replies.frame(i))
                .expect("fabric replies parse")
                .to_owned();
            self.clock += 1;
            if let Some(done) = self.agent.on_reply(SimTime(self.clock), &reply) {
                assert_eq!(done.request_id, request_id);
                return done;
            }
        }
        // No reply: exhaust the retry budget. Replay state is frozen between
        // retries, so retransmitting would repeat the identical outcome;
        // advance the clock instead until the agent abandons the query.
        let timeout = self.agent.config().timeout;
        let max_retries = self.agent.config().max_retries;
        for _ in 0..=max_retries {
            self.clock += timeout.as_nanos().max(1);
            let outcome = self.agent.poll_retries(SimTime(self.clock));
            if let Some(abandoned) = outcome.abandoned.into_iter().next() {
                assert_eq!(abandoned.request_id, request_id);
                return abandoned;
            }
        }
        unreachable!("the retry budget is finite");
    }

    // ---- Control-plane verbs, mirroring the live controller ----

    /// Fault injection: fail-stop `victim` on every shard.
    pub fn kill(&mut self, victim: Ipv4Addr) {
        for shard in &mut self.shards {
            shard.kill_switch(victim);
        }
    }

    /// Algorithm 2: install fast-failover rules everywhere and bump the
    /// session of every new chain head.
    pub fn fast_failover(&mut self, victim: Ipv4Addr) {
        let ops = FailoverPlan::compute(&self.ring, victim).ops(&mut self.next_session);
        self.deliver(ops);
    }

    /// Plans recovery of `victim` onto `replacement`; returns the number of
    /// repair steps. Steps are then driven by [`Self::block_next_group`] /
    /// [`Self::finish_blocked_group`] (or [`Self::repair_all`]).
    pub fn start_recovery(
        &mut self,
        victim: Ipv4Addr,
        replacement: Ipv4Addr,
        recovery_groups: Option<u32>,
    ) -> usize {
        let plan = RecoveryPlan::compute(
            &self.ring,
            victim,
            replacement,
            recovery_groups,
            &std::collections::HashSet::from([victim]),
        );
        let steps = plan.steps.len();
        self.recovery = Some(RecoveryState {
            plan,
            next: 0,
            blocked: None,
        });
        steps
    }

    /// The currently blocked `(group, modulus)`, if a repair step is between
    /// its block and activate phases.
    pub fn blocked_group(&self) -> Option<(u32, u32)> {
        let recovery = self.recovery.as_ref()?;
        let idx = recovery.blocked?;
        Some((recovery.plan.steps[idx].group, recovery.plan.modulus))
    }

    /// True if `key` falls in the currently blocked group.
    pub fn is_key_blocked(&self, key: &Key) -> bool {
        self.blocked_group().is_some_and(|(group, modulus)| {
            (key.stable_hash() % u64::from(modulus.max(1))) as u32 == group
        })
    }

    /// Phase 1 of the next repair step: block the group's traffic to the
    /// victim on every shard. Returns the blocked group, or `None` if repair
    /// is complete or a step is already blocked.
    pub fn block_next_group(&mut self) -> Option<u32> {
        let recovery = self.recovery.as_mut()?;
        if recovery.blocked.is_some() || recovery.next >= recovery.plan.steps.len() {
            return None;
        }
        let idx = recovery.next;
        recovery.blocked = Some(idx);
        let group = recovery.plan.steps[idx].group;
        let ops = recovery.plan.block_ops(idx);
        self.deliver(ops);
        Some(group)
    }

    /// Synchronise + phase 2 of the blocked step: copy the group's state
    /// from every donor to the replacement on every shard, activate the
    /// replacement (with a fresh session), install the redirect and drop the
    /// block. Returns the activated group.
    pub fn finish_blocked_group(&mut self) -> Option<u32> {
        let recovery = self.recovery.as_mut()?;
        let idx = recovery.blocked.take()?;
        recovery.next = idx + 1;
        let plan = &recovery.plan;
        let step = &plan.steps[idx];
        let replacement = Target::Switch(plan.replacement_ip);
        for &donor in &step.donors {
            for shard in &mut self.shards {
                let entries = shard.switch(donor).map_or_else(Vec::new, |sw| {
                    sw.kv().export_group(step.group, plan.modulus)
                });
                shard.apply(replacement, &ControlOp::Import(entries));
            }
        }
        let group = step.group;
        let ops = plan.activate_ops(idx, &mut self.next_session);
        self.deliver(ops);
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
        self.recovery
            .as_ref()
            .is_some_and(|r| r.blocked.is_none() && r.next >= r.plan.steps.len())
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
}
