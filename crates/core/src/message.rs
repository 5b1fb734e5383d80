//! The message type carried by the simulator for NetChain deployments:
//! data-plane packets plus control-plane (controller ↔ switch) RPCs.
//!
//! What a controller tells a switch to *do* is a [`ControlOp`] — the one
//! vocabulary every transport in the repo delivers (see
//! [`crate::failplan`]). [`ControlMsg`] adds only what is particular to
//! this transport: state export is a request/response pair, matched by a
//! token, because a simulated RPC has no return value.

use netchain_sim::Message;
use netchain_switch::kv::ExportedEntry;
use netchain_switch::ControlOp;
use netchain_wire::NetChainPacket;

/// One message on the simulated network.
#[derive(Debug, Clone)]
pub enum NetMsg {
    /// A data-plane NetChain packet (query or reply).
    Data(NetChainPacket),
    /// A control-plane message between the controller and a switch agent.
    /// In the real system these are Thrift RPCs through the switch OS (§7);
    /// in the simulator they travel over the out-of-band control channel.
    Control(ControlMsg),
}

/// Control-plane messages (controller → switch, and switch → controller
/// responses).
#[derive(Debug, Clone)]
pub enum ControlMsg {
    /// Program the switch: it applies the op (`NetChainSwitch::apply`).
    Op(ControlOp),
    /// Ask a switch to export the entries of one virtual group.
    ExportRequest {
        /// Virtual group to export.
        group: u32,
        /// Number of virtual groups used for filtering.
        modulus: u32,
        /// Token echoed in the response so the controller can match it.
        token: u64,
    },
    /// A switch's response to [`ControlMsg::ExportRequest`].
    ExportResponse {
        /// The exported entries.
        entries: Vec<ExportedEntry>,
        /// Token from the request.
        token: u64,
    },
}

impl Message for NetMsg {
    fn wire_size(&self) -> usize {
        match self {
            NetMsg::Data(pkt) => pkt.wire_size(),
            // Control messages travel on the management network; their size
            // only matters for rough accounting. Entries dominate.
            NetMsg::Control(
                ControlMsg::ExportResponse { entries, .. }
                | ControlMsg::Op(ControlOp::Import(entries)),
            ) => 64 + entries.len() * 64,
            NetMsg::Control(_) => 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_wire::{ChainList, Ipv4Addr, Key, OpCode, Value};

    #[test]
    fn wire_sizes_are_sensible() {
        let pkt = NetChainPacket::query(
            Ipv4Addr::for_host(0),
            4000,
            Ipv4Addr::for_switch(0),
            OpCode::Read,
            Key::from_u64(1),
            Value::empty(),
            ChainList::empty(),
            1,
        );
        assert_eq!(NetMsg::Data(pkt.clone()).wire_size(), pkt.wire_size());
        assert_eq!(
            NetMsg::Control(ControlMsg::Op(ControlOp::SetActive(true))).wire_size(),
            64
        );
        let entries = vec![
            netchain_switch::kv::ExportedEntry {
                key: Key::from_u64(1),
                value: Value::from_u64(2),
                seq: 1,
                session: 0,
                valid: true,
            };
            10
        ];
        assert_eq!(
            NetMsg::Control(ControlMsg::Op(ControlOp::Import(entries))).wire_size(),
            64 + 640
        );
    }
}
