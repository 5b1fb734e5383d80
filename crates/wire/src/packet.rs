//! The full NetChain packet: Ethernet + IPv4 + UDP + NetChain header.
//!
//! [`NetChainPacket`] is the unit both the simulator and the UDP loopback
//! deployment move around. It owns the structured headers and knows how to
//! serialize itself to the exact bytes that would appear on a wire, and how to
//! perform the two header rewrites the data plane needs:
//!
//! * *advance*: copy the next chain hop into the destination IP and pop it
//!   from the chain list (Figure 4), and
//! * *reply*: flip the packet into a reply addressed back at the client.

use crate::error::WireResult;
use crate::ethernet::{EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
use crate::ipv4::{Ipv4Addr, Ipv4Header, IPV4_HEADER_LEN};
use crate::netchain::{
    emit_header, ChainList, Key, NetChainHeader, OpCode, QueryStatus, Value,
    NETCHAIN_FIXED_HEADER_LEN, NETCHAIN_UDP_PORT,
};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};

/// Encodes a client query straight into `out` from borrowed fields,
/// returning the number of bytes written — byte-for-byte what
/// [`NetChainPacket::query`] followed by [`NetChainPacket::emit_into`]
/// produces, without building the owned packet (no chain-list or value
/// allocation). The load generators' hot path encodes into a ring slot or a
/// send buffer with this.
#[allow(clippy::too_many_arguments)]
pub fn encode_query(
    out: &mut [u8],
    client_ip: Ipv4Addr,
    client_port: u16,
    first_hop: Ipv4Addr,
    op: OpCode,
    key: &Key,
    value: &[u8],
    remaining_chain: &[Ipv4Addr],
    request_id: u64,
) -> WireResult<usize> {
    let nc_len = NETCHAIN_FIXED_HEADER_LEN + remaining_chain.len() * 4 + value.len();
    let needed = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + nc_len;
    if out.len() < needed {
        return Err(crate::error::WireError::BufferTooSmall {
            needed,
            available: out.len(),
        });
    }
    let mut off = EthernetHeader::ipv4(MacAddr::default(), MacAddr::default()).emit(out)?;
    off += Ipv4Header::udp(client_ip, first_hop, UDP_HEADER_LEN + nc_len).emit(&mut out[off..])?;
    off += UdpHeader::new(client_port, NETCHAIN_UDP_PORT, nc_len).emit(&mut out[off..])?;
    off += emit_header(
        &mut out[off..],
        op,
        QueryStatus::Ok,
        0,
        0,
        request_id,
        key,
        remaining_chain,
        value,
    )?;
    Ok(off)
}

/// A complete NetChain query or reply packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetChainPacket {
    /// L2 header. The simulator rewrites MACs hop by hop like a real L3
    /// network would; the values never affect protocol behaviour.
    pub eth: EthernetHeader,
    /// L3 header; `ip.dst` names the chain hop currently responsible for the
    /// query (or the client, for replies).
    pub ip: Ipv4Header,
    /// L4 header; `udp.dst_port == NETCHAIN_UDP_PORT` marks NetChain queries.
    pub udp: UdpHeader,
    /// The NetChain header proper.
    pub netchain: NetChainHeader,
}

impl NetChainPacket {
    /// Builds a client query addressed at `first_hop`, carrying the remaining
    /// chain hops in the header's chain list.
    ///
    /// For writes the chain list is the chain order from the node *after* the
    /// head to the tail; for reads it is the reverse order excluding the tail
    /// (used only for failure handling, §4.2).
    #[allow(clippy::too_many_arguments)]
    pub fn query(
        client_ip: Ipv4Addr,
        client_port: u16,
        first_hop: Ipv4Addr,
        op: OpCode,
        key: Key,
        value: Value,
        remaining_chain: ChainList,
        request_id: u64,
    ) -> Self {
        let netchain = NetChainHeader::query(op, key, value, remaining_chain, request_id);
        let nc_len = netchain.wire_len();
        let udp = UdpHeader::new(client_port, NETCHAIN_UDP_PORT, nc_len);
        let ip = Ipv4Header::udp(client_ip, first_hop, UDP_HEADER_LEN + nc_len);
        let eth = EthernetHeader::ipv4(MacAddr::default(), MacAddr::default());
        NetChainPacket {
            eth,
            ip,
            udp,
            netchain,
        }
    }

    /// True if this packet is a NetChain query or reply (reserved UDP port in
    /// either direction).
    pub fn is_netchain(&self) -> bool {
        self.udp.dst_port == NETCHAIN_UDP_PORT || self.udp.src_port == NETCHAIN_UDP_PORT
    }

    /// The client that originated the query (source IP of a query packet).
    pub fn client_ip(&self) -> Ipv4Addr {
        self.ip.src
    }

    /// Total serialized size in bytes, Ethernet through value. This is the
    /// size the simulator charges against link bandwidth.
    pub fn wire_size(&self) -> usize {
        ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + self.netchain.wire_len()
    }

    /// Recomputes the IPv4 and UDP length fields after the NetChain header
    /// changed size (e.g. a hop was popped from the chain list or the value
    /// was replaced). Always called by the rewrite helpers below.
    pub fn fix_lengths(&mut self) {
        let nc_len = self.netchain.wire_len();
        self.udp.length = (UDP_HEADER_LEN + nc_len) as u16;
        self.ip.total_len = (IPV4_HEADER_LEN + UDP_HEADER_LEN + nc_len) as u16;
    }

    /// Performs the "forward along the chain" rewrite of Figure 4: pops the
    /// next hop from the chain list into the destination IP. Returns `true`
    /// if a hop was available, `false` if the chain list was already empty
    /// (meaning the current node is the tail and the caller should turn the
    /// packet into a reply instead).
    pub fn advance_to_next_hop(&mut self) -> bool {
        match self.netchain.chain.pop_front() {
            Some(next) => {
                self.ip.dst = next;
                self.fix_lengths();
                true
            }
            None => false,
        }
    }

    /// Turns the query in place into a reply addressed at the original
    /// client: swaps the IP source/destination (using the query's source as
    /// the client), swaps UDP ports, sets the reply opcode/status, and clears
    /// the chain list. The reply carries whatever `netchain.value` holds —
    /// the responder writes the value it answers with there first.
    pub fn make_reply(&mut self, responder: Ipv4Addr, status: QueryStatus) {
        let client = self.ip.src;
        self.ip.src = responder;
        self.ip.dst = client;
        std::mem::swap(&mut self.udp.src_port, &mut self.udp.dst_port);
        self.netchain.make_reply(status);
        self.fix_lengths();
    }

    /// Serializes the whole packet into a caller-provided buffer, returning
    /// the number of bytes written. This is the allocation-free path the
    /// fabric's batch encoder uses; [`Self::to_bytes`] wraps it.
    pub fn emit_into(&self, out: &mut [u8]) -> WireResult<usize> {
        let needed = self.wire_size();
        if out.len() < needed {
            return Err(crate::error::WireError::BufferTooSmall {
                needed,
                available: out.len(),
            });
        }
        let mut off = 0;
        off += self.eth.emit(&mut out[off..])?;
        off += self.ip.emit(&mut out[off..])?;
        off += self.udp.emit(&mut out[off..])?;
        off += self.netchain.emit(&mut out[off..])?;
        debug_assert_eq!(off, needed);
        Ok(off)
    }

    /// Serializes the whole packet to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.wire_size()];
        // The buffer is sized exactly above, so emit cannot fail.
        self.emit_into(&mut out)
            .expect("emit into exact-size buffer");
        out
    }

    /// Serializes only the UDP payload (the NetChain header). This is what the
    /// loopback deployment hands to `UdpSocket::send_to`, since the kernel
    /// supplies the Ethernet/IP/UDP headers there.
    pub fn payload_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.netchain.wire_len()];
        self.netchain
            .emit(&mut out)
            .expect("netchain emit into exact-size buffer");
        out
    }

    /// Parses a full packet from bytes.
    pub fn from_bytes(buf: &[u8]) -> WireResult<Self> {
        let (eth, mut off) = EthernetHeader::parse(buf)?;
        let (ip, used) = Ipv4Header::parse(&buf[off..])?;
        off += used;
        let (udp, used) = UdpHeader::parse(&buf[off..])?;
        off += used;
        let (netchain, _) = NetChainHeader::parse(&buf[off..])?;
        Ok(NetChainPacket {
            eth,
            ip,
            udp,
            netchain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_query() -> NetChainPacket {
        NetChainPacket::query(
            Ipv4Addr::for_host(0),
            40001,
            Ipv4Addr::for_switch(0),
            OpCode::Write,
            Key::from_name("foo"),
            Value::new(b"bar".to_vec()).unwrap(),
            ChainList::new(vec![Ipv4Addr::for_switch(1), Ipv4Addr::for_switch(2)]).unwrap(),
            7,
        )
    }

    #[test]
    fn query_construction_sets_lengths() {
        let pkt = write_query();
        assert!(pkt.is_netchain());
        assert_eq!(
            usize::from(pkt.ip.total_len),
            IPV4_HEADER_LEN + UDP_HEADER_LEN + pkt.netchain.wire_len()
        );
        assert_eq!(
            usize::from(pkt.udp.length),
            UDP_HEADER_LEN + pkt.netchain.wire_len()
        );
        assert_eq!(pkt.client_ip(), Ipv4Addr::for_host(0));
    }

    #[test]
    fn full_roundtrip() {
        let pkt = write_query();
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), pkt.wire_size());
        let parsed = NetChainPacket::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, pkt);
    }

    #[test]
    fn advance_walks_the_chain_then_reports_tail() {
        let mut pkt = write_query();
        assert_eq!(pkt.ip.dst, Ipv4Addr::for_switch(0));
        assert!(pkt.advance_to_next_hop());
        assert_eq!(pkt.ip.dst, Ipv4Addr::for_switch(1));
        assert_eq!(pkt.netchain.chain.len(), 1);
        assert!(pkt.advance_to_next_hop());
        assert_eq!(pkt.ip.dst, Ipv4Addr::for_switch(2));
        assert!(pkt.netchain.chain.is_empty());
        assert!(!pkt.advance_to_next_hop());
        // Lengths must shrink as hops are popped.
        let bytes = pkt.to_bytes();
        assert_eq!(NetChainPacket::from_bytes(&bytes).unwrap(), pkt);
    }

    #[test]
    fn reply_swaps_addresses_and_ports() {
        let mut pkt = write_query();
        pkt.netchain.value = Value::from_u64(11);
        pkt.make_reply(Ipv4Addr::for_switch(2), QueryStatus::Ok);
        assert_eq!(pkt.ip.dst, Ipv4Addr::for_host(0));
        assert_eq!(pkt.ip.src, Ipv4Addr::for_switch(2));
        assert_eq!(pkt.udp.dst_port, 40001);
        assert_eq!(pkt.udp.src_port, NETCHAIN_UDP_PORT);
        assert_eq!(pkt.netchain.op, OpCode::WriteReply);
        assert_eq!(pkt.netchain.request_id, 7);
        assert!(pkt.netchain.chain.is_empty());
        let bytes = pkt.to_bytes();
        assert_eq!(NetChainPacket::from_bytes(&bytes).unwrap(), pkt);
    }

    #[test]
    fn encode_query_matches_the_owned_packet() {
        let pkt = write_query();
        let mut buf = [0u8; 256];
        let len = encode_query(
            &mut buf,
            pkt.ip.src,
            pkt.udp.src_port,
            pkt.ip.dst,
            pkt.netchain.op,
            &pkt.netchain.key,
            pkt.netchain.value.as_bytes(),
            pkt.netchain.chain.hops(),
            pkt.netchain.request_id,
        )
        .unwrap();
        assert_eq!(&buf[..len], pkt.to_bytes().as_slice());
        assert!(encode_query(
            &mut buf[..len - 1],
            pkt.ip.src,
            pkt.udp.src_port,
            pkt.ip.dst,
            pkt.netchain.op,
            &pkt.netchain.key,
            pkt.netchain.value.as_bytes(),
            pkt.netchain.chain.hops(),
            pkt.netchain.request_id,
        )
        .is_err());
    }

    #[test]
    fn payload_bytes_reparse_as_netchain_header() {
        let pkt = write_query();
        let payload = pkt.payload_bytes();
        let (hdr, used) = NetChainHeader::parse(&payload).unwrap();
        assert_eq!(used, payload.len());
        assert_eq!(hdr, pkt.netchain);
    }
}
