//! The NetChain controller: the reconfiguration half of Vertical Paxos (§5),
//! running as a component of the (assumed reliable) network controller.
//!
//! On a switch failure it performs:
//!
//! 1. **Fast failover** (Algorithm 2): install a `ChainFailover` rule in every
//!    neighbour of the failed switch, so traffic destined to it skips to the
//!    next chain hop (or is answered on the spot if it was the last hop), and
//!    bump the session number of every switch that just became a chain head.
//! 2. **Failure recovery** (Algorithm 3): restore the affected chains to
//!    `f + 1` switches by copying state onto a replacement switch, one
//!    *virtual group* at a time, using the two-phase atomic switching
//!    (block → synchronise → activate) that preserves Invariant 1.
//!
//! What to send where, and in which order, is not decided here:
//! [`crate::failplan`] emits both algorithms as ordered lists of
//! `ControlOp`s with the session numbers already in them, and this node only
//! *delivers* a list as control-plane RPCs (`Controller::deliver`), exactly as
//! the live fabric controller delivers it over its rings and the replay
//! fabric by direct calls. What is the controller's own is the timing: when
//! recovery starts, how long a group stays blocked, and the export
//! request/response round that moves a group's state.
//!
//! The duration of each group's synchronisation models the dominant cost the
//! paper measures (copying register state through the switch control plane):
//! it is `total_sync_duration / number_of_affected_groups`, so one virtual
//! group blocks writes for the whole duration (Figure 10(a)) while 100 groups
//! block ~1 % of keys at a time (Figure 10(b)).

use crate::directory::AddressMap;
use crate::failplan::{OpList, RecoveryPlan, Target, View};
use crate::hashring::HashRing;
use crate::message::{ControlMsg, NetMsg};
use netchain_sim::{Context, Node, NodeId, SimDuration, SimTime, TimerToken};
use netchain_switch::ControlOp;
use netchain_telemetry::{Journal, SpanHandle};
use netchain_wire::Ipv4Addr;
use std::any::Any;
use std::collections::{HashMap, HashSet};

const TIMER_RECOVERY_BASE: TimerToken = 1_000;
const TIMER_SYNC_BASE: TimerToken = 2_000;

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// One-way latency of controller ↔ switch control-plane messages.
    pub control_latency: SimDuration,
    /// Delay between completing fast failover and starting failure recovery
    /// (the paper's experiment separates the two by ~20 s to make the phases
    /// visible).
    pub recovery_start_delay: SimDuration,
    /// Total time to resynchronise all of a failed switch's state onto the
    /// replacement (the paper measures ~150 s for the 8 MB prototype store).
    pub total_sync_duration: SimDuration,
    /// Explicit replacement switch; `None` lets the controller pick a live
    /// switch that is not already in the affected chains.
    pub replacement: Option<Ipv4Addr>,
    /// Overrides the virtual-group granularity of failure recovery. `None`
    /// uses the ring's virtual nodes (the normal case); `Some(g)` recovers the
    /// key space in `g` equal hash groups instead, which is how the Figure 10
    /// experiment compares "1 virtual group" against "100 virtual groups".
    pub recovery_groups: Option<u32>,
    /// Whether to run failure recovery at all (fast failover always runs).
    pub auto_recovery: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            control_latency: SimDuration::from_millis(1),
            recovery_start_delay: SimDuration::from_secs(20),
            total_sync_duration: SimDuration::from_secs(150),
            replacement: None,
            recovery_groups: None,
            auto_recovery: true,
        }
    }
}

/// The phase a recovery task is in (exposed for tests and experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// Fast failover done, waiting to start recovery.
    WaitingToStart,
    /// Group-by-group synchronisation in progress.
    Syncing,
    /// All groups restored.
    Complete,
    /// The replacement died before the last group was restored; the failed
    /// switch is being repaired again, by a later task.
    Aborted,
}

#[derive(Debug, Clone)]
struct RecoveryTask {
    failed_node: NodeId,
    /// The shared per-group repair plan this task executes step by step.
    plan: RecoveryPlan,
    current: usize,
    phase: RecoveryPhase,
}

/// A record of one completed failover/recovery, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// The switch that failed.
    pub failed_ip: Ipv4Addr,
    /// The switch that absorbed its virtual groups.
    pub replacement_ip: Ipv4Addr,
    /// Number of virtual groups restored.
    pub groups_recovered: usize,
    /// When fast failover rules were issued.
    pub failover_at: SimTime,
    /// When the last group finished recovery.
    pub recovered_at: SimTime,
}

/// The controller node.
pub struct Controller {
    config: ControllerConfig,
    ring: HashRing,
    addr: AddressMap,
    /// Neighbours of every switch node in the data-plane topology.
    switch_neighbors: HashMap<NodeId, Vec<NodeId>>,
    /// Who is down, who is free to replace, who stands for whom, and the
    /// session counter: the state every controller in the repo shares.
    view: View,
    tasks: Vec<RecoveryTask>,
    records: Vec<RecoveryRecord>,
    pending_failover_at: HashMap<Ipv4Addr, SimTime>,
    /// The donors each task still awaits an export from (one group syncs at
    /// a time, so the task index is enough).
    pending_exports: HashMap<usize, Vec<NodeId>>,
    /// Control-plane event journal: failure detections, failover issuance,
    /// the recovery phase and every per-group sync as spans.
    journal: Journal,
    /// Open `recovery:` span per task.
    recovery_spans: HashMap<usize, SpanHandle>,
    /// Open `sync-group:` span per task (one group syncs at a time).
    sync_spans: HashMap<usize, SpanHandle>,
}

impl Controller {
    /// Creates a controller.
    ///
    /// `switch_neighbors` maps every *switch* node to its neighbouring
    /// *switch* nodes — the set Algorithm 2 programs on a failure.
    pub fn new(
        config: ControllerConfig,
        ring: HashRing,
        addr: AddressMap,
        switch_neighbors: HashMap<NodeId, Vec<NodeId>>,
    ) -> Self {
        // Switches held out of the ring are the spares.
        let mut spares: Vec<Ipv4Addr> = switch_neighbors
            .keys()
            .filter_map(|&node| addr.ip_of(node))
            .filter(|ip| !ring.switches().contains(ip))
            .collect();
        spares.sort();
        Controller {
            config,
            ring,
            addr,
            switch_neighbors,
            view: View::new(spares),
            tasks: Vec::new(),
            records: Vec::new(),
            pending_failover_at: HashMap::new(),
            pending_exports: HashMap::new(),
            journal: Journal::new(),
            recovery_spans: HashMap::new(),
            sync_spans: HashMap::new(),
        }
    }

    /// Completed recovery records.
    pub fn records(&self) -> &[RecoveryRecord] {
        &self.records
    }

    /// The control-plane event journal (failure detections, failover
    /// issuance, recovery and per-group sync spans, in simulated time).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Switches the controller currently believes failed.
    pub fn failed_switches(&self) -> &HashSet<Ipv4Addr> {
        &self.view.failed
    }

    /// Phase of the most recent recovery task for `failed_ip`, if any.
    pub fn recovery_phase(&self, failed_ip: Ipv4Addr) -> Option<RecoveryPhase> {
        self.tasks
            .iter()
            .rev()
            .find(|t| t.plan.failed_ip == failed_ip)
            .map(|t| t.phase)
    }

    fn neighbors_of(&self, node: NodeId) -> Vec<NodeId> {
        self.switch_neighbors
            .get(&node)
            .cloned()
            .unwrap_or_default()
    }

    /// Delivers a plan's op list as control-plane RPCs, in list order (equal
    /// latencies keep it the arrival order at every switch). `Neighbours` are
    /// the failed node's neighbouring switches in the topology; an op for a
    /// switch with no registered node goes nowhere.
    fn deliver(&self, failed_node: NodeId, ops: OpList, ctx: &mut Context<NetMsg>) {
        for (target, op) in ops {
            let nodes = match target {
                Target::Neighbours => self.neighbors_of(failed_node),
                Target::Switch(ip) => self.addr.node_of(ip).into_iter().collect(),
            };
            for node in nodes {
                ctx.send_control(
                    node,
                    NetMsg::Control(ControlMsg::Op(op.clone())),
                    self.config.control_latency,
                );
            }
        }
    }

    fn task_timer(&self, base: TimerToken, task_idx: usize) -> TimerToken {
        base + task_idx as TimerToken
    }

    /// True for a task that exists and was not aborted.
    fn live_task(&self, idx: usize) -> bool {
        (self.tasks.get(idx)).is_some_and(|t| t.phase != RecoveryPhase::Aborted)
    }

    fn start_group_sync(&mut self, task_idx: usize, ctx: &mut Context<NetMsg>) {
        let task = &self.tasks[task_idx];
        let group = task.plan.steps[task.current].group;
        let group_count = task.plan.steps.len();
        // Phase 1 of two-phase atomic switching: block queries of this group
        // destined to the failed switch while the replacement synchronises.
        self.deliver(task.failed_node, task.plan.block_ops(task.current), ctx);
        let span = self
            .journal
            .begin(format!("sync-group:{group}"), ctx.now().as_nanos());
        self.sync_spans.insert(task_idx, span);
        // The synchronisation takes its share of the total sync budget.
        let per_group = SimDuration::from_nanos(
            self.config.total_sync_duration.as_nanos() / group_count.max(1) as u64,
        );
        ctx.set_timer(per_group, self.task_timer(TIMER_SYNC_BASE, task_idx));
    }

    fn finish_group_sync(&mut self, task_idx: usize, ctx: &mut Context<NetMsg>) {
        let (group, donors, modulus) = {
            let task = &self.tasks[task_idx];
            let step = &task.plan.steps[task.current];
            (step.group, step.donors.clone(), task.plan.modulus)
        };
        // Gather the group's state from every live replica; the replacement
        // imports the union and the per-key version registers arbitrate
        // (stale copies never clobber newer state). The last response
        // triggers the activation.
        let donor_nodes: Vec<NodeId> = donors
            .iter()
            .filter_map(|&ip| self.addr.node_of(ip))
            .collect();
        if donor_nodes.is_empty() {
            // Nothing to synchronise from (f = 0 or everything else dead).
            self.activate_group(task_idx, ctx);
            return;
        }
        self.pending_exports.insert(task_idx, donor_nodes.clone());
        for node in donor_nodes {
            ctx.send_control(
                node,
                NetMsg::Control(ControlMsg::ExportRequest {
                    group,
                    modulus,
                    token: u64::from(group) | ((task_idx as u64) << 32),
                }),
                self.config.control_latency,
            );
        }
    }

    /// `donor` has answered task `task_idx`'s export request, or never will
    /// (it died): the group activates once no donor is awaited any more.
    fn export_settled(&mut self, task_idx: usize, donor: NodeId, ctx: &mut Context<NetMsg>) {
        let Some(awaited) = self.pending_exports.get_mut(&task_idx) else {
            return;
        };
        awaited.retain(|n| *n != donor);
        if awaited.is_empty() && self.live_task(task_idx) {
            self.pending_exports.remove(&task_idx);
            self.activate_group(task_idx, ctx);
        }
    }

    fn activate_group(&mut self, task_idx: usize, ctx: &mut Context<NetMsg>) {
        let task = &self.tasks[task_idx];
        let (failed_ip, replacement_ip) = (task.plan.failed_ip, task.plan.replacement_ip);
        // Phase 2: activate the replacement for this group and redirect
        // traffic to it, overriding both the block rule and fast failover.
        let ops = task
            .plan
            .activate_ops(task.current, &mut self.view.next_session);
        self.deliver(task.failed_node, ops, ctx);
        if let Some(span) = self.sync_spans.remove(&task_idx) {
            self.journal.end(span, ctx.now().as_nanos());
        }
        // Advance to the next group or finish.
        let task = &mut self.tasks[task_idx];
        task.current += 1;
        if task.current < task.plan.steps.len() {
            self.start_group_sync(task_idx, ctx);
        } else {
            task.phase = RecoveryPhase::Complete;
            if let Some(span) = self.recovery_spans.remove(&task_idx) {
                self.journal.end(span, ctx.now().as_nanos());
            }
            let record = RecoveryRecord {
                failed_ip,
                replacement_ip,
                groups_recovered: self.tasks[task_idx].plan.steps.len(),
                failover_at: self
                    .pending_failover_at
                    .get(&failed_ip)
                    .copied()
                    .unwrap_or(SimTime::ZERO),
                recovered_at: ctx.now(),
            };
            self.records.push(record);
        }
    }
}

impl Node<NetMsg> for Controller {
    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut Context<NetMsg>) {
        let NetMsg::Control(ControlMsg::ExportResponse { entries, token }) = msg else {
            return;
        };
        let task_idx = (token >> 32) as usize;
        let Some(task) = self.tasks.get(task_idx) else {
            return;
        };
        if task.phase == RecoveryPhase::Aborted {
            return;
        }
        let import = (
            Target::Switch(task.plan.replacement_ip),
            ControlOp::Import(entries),
        );
        self.deliver(task.failed_node, vec![import], ctx);
        self.export_settled(task_idx, from, ctx);
    }

    fn on_node_down(&mut self, node: NodeId, ctx: &mut Context<NetMsg>) {
        let Some(failed_ip) = self.addr.ip_of(node) else {
            return;
        };
        // Only switches holding a chain role matter; `victim` is the ring
        // switch whose chains are short now (not `failed_ip` itself when a
        // replacement died).
        let Some((ops, victim)) = self.view.kill(&self.ring, failed_ip) else {
            return;
        };
        self.pending_failover_at.entry(victim).or_insert(ctx.now());
        self.journal.instant(
            format!("failure-detected:{failed_ip}"),
            ctx.now().as_nanos(),
        );
        // Algorithm 2: failover rules at the failed switch's neighbours and a
        // session bump for every switch that became a head.
        self.deliver(node, ops, ctx);
        // Rules are issued now and land one control-plane latency later —
        // the window Algorithm 2 keeps sub-millisecond.
        self.journal.span(
            format!("fast-failover:{failed_ip}"),
            ctx.now().as_nanos(),
            (ctx.now() + self.config.control_latency).as_nanos(),
        );
        // A repair onto the dead switch has nowhere to copy to any more, and
        // one that counted on its state must do without.
        for idx in 0..self.tasks.len() {
            let task = &mut self.tasks[idx];
            if task.plan.replacement_ip == failed_ip && task.phase != RecoveryPhase::Complete {
                task.phase = RecoveryPhase::Aborted;
                let open = [
                    self.sync_spans.remove(&idx),
                    self.recovery_spans.remove(&idx),
                ];
                for span in open.into_iter().flatten() {
                    self.journal.end(span, ctx.now().as_nanos());
                }
            }
            for step in &mut task.plan.steps {
                step.donors.retain(|d| *d != failed_ip);
            }
            self.export_settled(idx, node, ctx);
        }

        if !self.config.auto_recovery {
            return;
        }
        let (explicit, groups) = (self.config.replacement, self.config.recovery_groups);
        let Some(plan) = self
            .view
            .plan_recovery(&self.ring, victim, explicit, groups)
        else {
            return;
        };
        if plan.steps.is_empty() {
            return;
        }
        let task = RecoveryTask {
            failed_node: self.addr.node_of(victim).unwrap_or(node),
            plan,
            current: 0,
            phase: RecoveryPhase::WaitingToStart,
        };
        self.tasks.push(task);
        let idx = self.tasks.len() - 1;
        ctx.set_timer(
            self.config.recovery_start_delay,
            self.task_timer(TIMER_RECOVERY_BASE, idx),
        );
    }

    fn on_node_up(&mut self, node: NodeId, _ctx: &mut Context<NetMsg>) {
        if let Some(ip) = self.addr.ip_of(node) {
            self.view.revive(ip);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<NetMsg>) {
        if token >= TIMER_SYNC_BASE {
            let idx = (token - TIMER_SYNC_BASE) as usize;
            if self.live_task(idx) {
                self.finish_group_sync(idx, ctx);
            }
        } else if token >= TIMER_RECOVERY_BASE {
            let idx = (token - TIMER_RECOVERY_BASE) as usize;
            if self.live_task(idx) {
                self.tasks[idx].phase = RecoveryPhase::Syncing;
                let span = self.journal.begin(
                    format!("recovery:{}", self.tasks[idx].plan.failed_ip),
                    ctx.now().as_nanos(),
                );
                self.recovery_spans.insert(idx, span);
                self.start_group_sync(idx, ctx);
            }
        }
    }

    fn name(&self) -> String {
        "controller".to_string()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> HashRing {
        let switches: Vec<Ipv4Addr> = (0..4).map(Ipv4Addr::for_switch).collect();
        HashRing::new(switches, 4, 3, 2)
    }

    /// The replacement the controller would pick for `failed` right now.
    fn pick_replacement(controller: &Controller, failed: Ipv4Addr) -> Option<Ipv4Addr> {
        let mut view = controller.view.clone();
        let explicit = controller.config.replacement;
        let plan = view.plan_recovery(&controller.ring, failed, explicit, None);
        plan.map(|p| p.replacement_ip)
    }

    #[test]
    fn replacement_prefers_unaffected_live_switches() {
        let ring = ring();
        let mut addr = AddressMap::new();
        for i in 0..4 {
            addr.register(NodeId(i), Ipv4Addr::for_switch(i as u32));
        }
        let controller = Controller::new(
            ControllerConfig::default(),
            ring.clone(),
            addr,
            HashMap::new(),
        );
        let failed = Ipv4Addr::for_switch(1);
        let replacement = pick_replacement(&controller, failed).unwrap();
        assert_ne!(replacement, failed);
        // With 4 switches and chains of 3, almost every switch is somewhere in
        // the affected set, so the fallback may pick any live switch; it must
        // never pick the failed one.
    }

    #[test]
    fn explicit_replacement_wins() {
        let ring = ring();
        let config = ControllerConfig {
            replacement: Some(Ipv4Addr::for_switch(3)),
            ..Default::default()
        };
        let controller = Controller::new(config, ring, AddressMap::new(), HashMap::new());
        assert_eq!(
            pick_replacement(&controller, Ipv4Addr::for_switch(1)),
            Some(Ipv4Addr::for_switch(3))
        );
    }

    #[test]
    fn recovery_phase_initially_unknown() {
        let controller = Controller::new(
            ControllerConfig::default(),
            ring(),
            AddressMap::new(),
            HashMap::new(),
        );
        assert_eq!(controller.recovery_phase(Ipv4Addr::for_switch(1)), None);
        assert!(controller.records().is_empty());
        assert!(controller.failed_switches().is_empty());
    }
}
