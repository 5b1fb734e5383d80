//! Simulator adapter for a NetChain switch: hosts a
//! [`netchain_switch::NetChainSwitch`] on a topology node, performs underlay
//! L3 forwarding of whatever the data plane emits, and hands the controller's
//! control ops to the switch's own interpreter (`NetChainSwitch::apply`).

use crate::message::{ControlMsg, NetMsg};
use netchain_sim::{Context, Node, NodeId, SimDuration};
use netchain_switch::{NetChainSwitch, SwitchAction};
use netchain_telemetry::{trace_id, TraceSink};
use netchain_wire::Ipv4Addr;
use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// A switch attached to the simulated topology.
pub struct SwitchNode {
    switch: NetChainSwitch,
    /// Underlay forwarding: destination IP → equal-cost next-hop neighbours,
    /// in preference order. The first *live* hop is used, which models the
    /// fast rerouting the underlay routing protocol provides on failures
    /// (§4.2 relies on it).
    l3: HashMap<Ipv4Addr, Vec<NodeId>>,
    /// Neighbours currently believed down (populated from failure
    /// notifications).
    down_neighbors: HashSet<NodeId>,
    /// One-way latency of control-plane responses back to the controller.
    control_latency: SimDuration,
    /// Packets dropped because no live route existed for the destination.
    dropped_no_route: u64,
    /// In-band trace stamping, shared with the other switches of the
    /// cluster (the simulator is single-threaded, so one sink serves all).
    tracer: Option<Rc<RefCell<TraceSink>>>,
}

impl SwitchNode {
    /// Creates the adapter.
    pub fn new(
        switch: NetChainSwitch,
        l3: HashMap<Ipv4Addr, Vec<NodeId>>,
        control_latency: SimDuration,
    ) -> Self {
        SwitchNode {
            switch,
            l3,
            down_neighbors: HashSet::new(),
            control_latency,
            dropped_no_route: 0,
            tracer: None,
        }
    }

    /// Attaches a (shared) trace sink: queries addressed to this switch get
    /// a per-hop stamp at simulated arrival time. Transit packets the
    /// underlay merely forwards are *not* stamped, so hop sequences are
    /// comparable with the fabric's (which has no L3 transit hops).
    pub fn set_tracer(&mut self, sink: Rc<RefCell<TraceSink>>) {
        self.tracer = Some(sink);
    }

    /// The data-plane model.
    pub fn switch(&self) -> &NetChainSwitch {
        &self.switch
    }

    /// Mutable access to the data-plane model (tests and direct population).
    pub fn switch_mut(&mut self) -> &mut NetChainSwitch {
        &mut self.switch
    }

    /// Packets dropped for lack of a route.
    pub fn dropped_no_route(&self) -> u64 {
        self.dropped_no_route
    }

    fn forward(&mut self, pkt: netchain_wire::NetChainPacket, ctx: &mut Context<NetMsg>) {
        let hops = self.l3.get(&pkt.ip.dst);
        let next = hops.and_then(|hops| {
            hops.iter()
                .copied()
                .find(|hop| !self.down_neighbors.contains(hop))
                .or_else(|| hops.first().copied())
        });
        match next {
            Some(next_hop) => ctx.send(next_hop, NetMsg::Data(pkt)),
            None => self.dropped_no_route += 1,
        }
    }
}

impl Node<NetMsg> for SwitchNode {
    fn on_node_down(&mut self, node: NodeId, _ctx: &mut Context<NetMsg>) {
        self.down_neighbors.insert(node);
    }

    fn on_node_up(&mut self, node: NodeId, _ctx: &mut Context<NetMsg>) {
        self.down_neighbors.remove(&node);
    }

    fn on_restart(&mut self, _ctx: &mut Context<NetMsg>) {
        // A revived switch is empty and serves nothing until Algorithm 3
        // activates it (`FaultOp::Revive`).
        self.switch.wipe();
        self.switch.set_active(false);
    }

    fn on_message(&mut self, from: NodeId, msg: NetMsg, ctx: &mut Context<NetMsg>) {
        match msg {
            NetMsg::Data(pkt) => {
                if let Some(tracer) = &self.tracer {
                    if pkt.ip.dst == self.switch.ip() && pkt.netchain.op.is_query() {
                        let id =
                            trace_id(u32::from_be_bytes(pkt.ip.src.0), pkt.netchain.request_id);
                        let mut sink = tracer.borrow_mut();
                        if sink.samples(id) {
                            let hop_ip = u32::from_be_bytes(self.switch.ip().0);
                            let at_ns = ctx.now().as_nanos();
                            match crate::evidence::query_evidence(&self.switch, &pkt.netchain) {
                                Some(ev) => sink.stamp_with(id, hop_ip, at_ns, ev),
                                None => sink.stamp(id, hop_ip, at_ns),
                            }
                        }
                    }
                }
                match self.switch.handle(pkt) {
                    SwitchAction::Forward(out) => self.forward(out, ctx),
                    SwitchAction::Drop(_) => {}
                }
            }
            NetMsg::Control(ControlMsg::Op(op)) => self.switch.apply(&op),
            NetMsg::Control(ControlMsg::ExportRequest {
                group,
                modulus,
                token,
            }) => {
                let entries = self.switch.kv().export_group(group, modulus);
                ctx.send_control(
                    from,
                    NetMsg::Control(ControlMsg::ExportResponse { entries, token }),
                    self.control_latency,
                );
            }
            // Switches never receive export responses; ignore.
            NetMsg::Control(ControlMsg::ExportResponse { .. }) => {}
        }
    }

    fn name(&self) -> String {
        format!("switch {}", self.switch.ip())
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
    use netchain_switch::{ControlOp, PipelineConfig};
    use netchain_wire::{Key, Value};

    #[test]
    fn control_messages_program_the_switch() {
        let sw = NetChainSwitch::new(Ipv4Addr::for_switch(0), PipelineConfig::tiny(8));
        let mut node = SwitchNode::new(sw, HashMap::new(), SimDuration::from_millis(1));
        // A context cannot be fabricated without the simulator (the message
        // path is driven end to end by `tests/end_to_end.rs` and the livectl
        // differentials), so apply the ops a `ControlMsg::Op` carries the way
        // `on_message` does: through the hosted switch's interpreter.
        let key = Key::from_name("a");
        let entry = netchain_switch::ExportedEntry {
            key,
            value: Value::from_u64(5),
            seq: 1,
            session: 0,
            valid: true,
        };
        for op in [
            ControlOp::Import(vec![entry]),
            ControlOp::SetSession(3),
            ControlOp::SetActive(false),
        ] {
            node.switch_mut().apply(&op);
        }
        assert_eq!(node.switch().kv().store_size(), 1);
        assert_eq!(node.switch().session(), 3);
        assert!(!node.switch().is_active());
        assert_eq!(node.dropped_no_route(), 0);
    }
}
