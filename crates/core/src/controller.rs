//! The NetChain controller node (§5, the reconfiguration half of Vertical
//! Paxos): the [`Reactor`]'s transport over the simulated control network.
//! It wakes on one timer at the reactor's next due time and sends an op list
//! as control messages (equal latencies keep list order the arrival order at
//! every switch) and a group copy as export requests to the donors, importing
//! each answer into the replacement. It reports a copy done once the last
//! donor has answered or died: the one transport whose activation can be
//! held waiting for that.

use crate::directory::AddressMap;
use crate::failplan::Target;
use crate::fault::{FaultOp, Schedule};
use crate::message::{ControlMsg, NetMsg};
use crate::reactor::{Action, GroupCopy, Reactor};
use netchain_sim::{Context, Node, NodeId, SimDuration, SimTime, TimerToken};
use netchain_switch::ControlOp;
use netchain_wire::Ipv4Addr;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// The controller node.
pub struct Controller {
    reactor: Reactor,
    addr: AddressMap,
    /// Neighbours of every switch node in the data-plane topology.
    switch_neighbors: HashMap<NodeId, Vec<NodeId>>,
    control_latency: SimDuration,
    /// Killed: an export request to one is never answered.
    down: HashSet<Ipv4Addr>,
    /// Group copies in flight, each with the donors not yet heard from.
    copies: Vec<GroupCopy>,
    /// When the wake-up timer is armed for.
    armed: Option<SimTime>,
}

impl Controller {
    /// Creates a controller delivering what `reactor` yields over a control
    /// network of `control_latency`. `switch_neighbors` maps every *switch*
    /// node to its neighbouring *switch* nodes: what `Target::Neighbours`
    /// programs.
    pub fn new(
        reactor: Reactor,
        control_latency: SimDuration,
        addr: AddressMap,
        switch_neighbors: HashMap<NodeId, Vec<NodeId>>,
    ) -> Self {
        Controller {
            reactor,
            addr,
            switch_neighbors,
            control_latency,
            down: HashSet::new(),
            copies: Vec::new(),
            armed: None,
        }
    }

    /// The agenda, the view, the journal and the timelines.
    pub fn reactor(&self) -> &Reactor {
        &self.reactor
    }

    /// Puts `schedule`'s ops on the agenda (before the run starts).
    pub fn load(&mut self, schedule: &Schedule) {
        self.reactor.load(schedule);
    }

    /// Works off everything due by now, then arms the timer for what is
    /// due next.
    fn wake(&mut self, ctx: &mut Context<NetMsg>) {
        let now = Duration::from_nanos(ctx.now().as_nanos());
        while self.reactor.next_due().is_some_and(|at| at <= now) {
            let actions = self.reactor.step(now);
            let sent = actions.iter().any(|a| matches!(a, Action::Deliver(_)));
            for action in actions {
                self.perform(action, ctx);
            }
            // What was sent lands one control latency later.
            let latency = Duration::from_nanos(self.control_latency.as_nanos());
            self.reactor.landed(if sent { now + latency } else { now });
        }
        let next = self
            .reactor
            .next_due()
            .map(|at| SimTime(at.as_nanos() as u64));
        self.armed = self.armed.filter(|&t| t > ctx.now());
        if let Some(due) = next.filter(|&due| self.armed.is_none_or(|t| due < t)) {
            ctx.set_timer(due - ctx.now(), 0);
            self.armed = Some(due);
        }
    }

    fn perform(&mut self, action: Action, ctx: &mut Context<NetMsg>) {
        match action {
            Action::Fault(FaultOp::Kill(ip)) => {
                self.down.insert(ip);
                // A copy onto the dead switch has nowhere to go (its repair
                // is abandoned); one from it settles without it.
                self.copies.retain(|c| c.replacement != ip);
                for copy in &mut self.copies {
                    copy.donors.retain(|d| *d != ip);
                }
                self.settle();
            }
            Action::Fault(_) => {}
            Action::Deliver(ops) => {
                for (target, op) in ops {
                    // `Neighbours` are the failed switch's, the one a rule is
                    // keyed on.
                    let nodes = match (target, &op) {
                        (
                            Target::Neighbours,
                            ControlOp::InstallRule { failed_ip, .. }
                            | ControlOp::RemoveRule { failed_ip, .. },
                        ) => (self.addr.node_of(*failed_ip))
                            .and_then(|n| self.switch_neighbors.get(&n).cloned())
                            .unwrap_or_default(),
                        (Target::Switch(ip), _) => self.addr.node_of(ip).into_iter().collect(),
                        _ => Vec::new(),
                    };
                    for node in nodes {
                        let msg = NetMsg::Control(ControlMsg::Op(op.clone()));
                        ctx.send_control(node, msg, self.control_latency);
                    }
                }
            }
            Action::Copy(mut copy) => {
                let addr = &self.addr;
                (copy.donors).retain(|ip| !self.down.contains(ip) && addr.node_of(*ip).is_some());
                let token = ((copy.repair as u64) << 32) | u64::from(copy.group);
                // The request leaves once the block has landed, as the live
                // controller's waits for the block's acknowledgements.
                let latency = SimDuration::from_nanos(2 * self.control_latency.as_nanos());
                for node in copy.donors.iter().filter_map(|&ip| addr.node_of(ip)) {
                    let request = ControlMsg::ExportRequest {
                        group: copy.group,
                        modulus: copy.modulus,
                        token,
                    };
                    ctx.send_control(node, NetMsg::Control(request), latency);
                }
                self.copies.push(copy);
                self.settle();
            }
        }
    }

    /// Tells the reactor about every copy no donor is awaited for any more.
    fn settle(&mut self) {
        let (done, waiting) = std::mem::take(&mut self.copies)
            .into_iter()
            .partition(|c| c.donors.is_empty());
        self.copies = waiting;
        for copy in done {
            self.reactor.copied(copy.repair, copy.group);
        }
    }
}

impl Node<NetMsg> for Controller {
    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut Context<NetMsg>) {
        let NetMsg::Control(ControlMsg::ExportResponse { entries, token }) = msg else {
            return;
        };
        let (repair, group) = ((token >> 32) as usize, token as u32);
        let donor = self.addr.ip_of(from);
        let copy = self.copies.iter_mut().find(|c| {
            (c.repair, c.group) == (repair, group) && donor.is_some_and(|d| c.donors.contains(&d))
        });
        let Some(copy) = copy else {
            return;
        };
        copy.donors.retain(|d| Some(*d) != donor);
        if let Some(node) = self.addr.node_of(copy.replacement) {
            let import = NetMsg::Control(ControlMsg::Op(ControlOp::Import(entries)));
            ctx.send_control(node, import, self.control_latency);
        }
        self.settle();
        self.wake(ctx);
    }

    fn on_start(&mut self, ctx: &mut Context<NetMsg>) {
        self.wake(ctx);
    }

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<NetMsg>) {
        self.wake(ctx);
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
    use crate::hashring::HashRing;
    use crate::reactor::Reactions;

    fn ring() -> HashRing {
        let switches: Vec<Ipv4Addr> = (0..4).map(Ipv4Addr::for_switch).collect();
        HashRing::new(switches, 4, 3, 2)
    }

    fn controller(reactions: Reactions, addr: AddressMap) -> Controller {
        let reactor = Reactor::new(ring(), Vec::new(), reactions);
        Controller::new(reactor, SimDuration::from_millis(1), addr, HashMap::new())
    }

    /// The replacement the controller's agenda picks once `failed` dies
    /// (with zero delays, every reaction is due at once).
    fn pick_replacement(mut controller: Controller, failed: Ipv4Addr) -> Option<Ipv4Addr> {
        controller.load(&Schedule::new(0).at(Duration::ZERO, FaultOp::Kill(failed)));
        let reactor = &mut controller.reactor;
        while reactor.next_due().is_some() {
            reactor.step(Duration::ZERO);
        }
        reactor
            .view()
            .stands_for
            .first()
            .map(|&(replacement, _)| replacement)
    }

    #[test]
    fn replacement_prefers_unaffected_live_switches() {
        let mut addr = AddressMap::new();
        for i in 0..4 {
            addr.register(NodeId(i), Ipv4Addr::for_switch(i as u32));
        }
        let controller = controller(Reactions::default(), addr);
        let failed = Ipv4Addr::for_switch(1);
        let replacement = pick_replacement(controller, failed).unwrap();
        assert_ne!(replacement, failed);
        // With 4 switches and chains of 3, almost every switch is somewhere in
        // the affected set, so the fallback may pick any live switch; it must
        // never pick the failed one.
    }

    #[test]
    fn explicit_replacement_wins() {
        let reactions = Reactions {
            replacement: Some(Ipv4Addr::for_switch(3)),
            ..Default::default()
        };
        let controller = controller(reactions, AddressMap::new());
        assert_eq!(
            pick_replacement(controller, Ipv4Addr::for_switch(1)),
            Some(Ipv4Addr::for_switch(3))
        );
    }

    #[test]
    fn recovery_phase_initially_unknown() {
        let controller = controller(Reactions::default(), AddressMap::new());
        let reactor = controller.reactor();
        let failed = Ipv4Addr::for_switch(1);
        assert!(reactor.timelines().iter().all(|(ip, _)| *ip != failed));
        assert!(reactor.timelines().iter().all(|(_, t)| !t.repaired()));
        assert!(reactor.view().failed.is_empty());
    }
}
