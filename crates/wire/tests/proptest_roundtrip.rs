//! Property-based tests for the wire formats: every structurally valid header
//! survives an emit → parse round trip, and parsers never panic on arbitrary
//! bytes.

use netchain_wire::{
    ChainList, EthernetHeader, Ipv4Addr, Ipv4Header, Key, MacAddr, NetChainHeader, NetChainPacket,
    OpCode, QueryStatus, UdpHeader, Value, MAX_CHAIN_LEN, MAX_VALUE_LEN,
};
use proptest::prelude::*;

fn arb_opcode() -> impl Strategy<Value = OpCode> {
    prop_oneof![
        Just(OpCode::Read),
        Just(OpCode::Write),
        Just(OpCode::Insert),
        Just(OpCode::Delete),
        Just(OpCode::Cas),
        Just(OpCode::ReadReply),
        Just(OpCode::WriteReply),
        Just(OpCode::InsertReply),
        Just(OpCode::DeleteReply),
        Just(OpCode::CasReply),
    ]
}

fn arb_status() -> impl Strategy<Value = QueryStatus> {
    prop_oneof![
        Just(QueryStatus::Ok),
        Just(QueryStatus::NotFound),
        Just(QueryStatus::CasFailed),
        Just(QueryStatus::Declined),
        Just(QueryStatus::Retry),
    ]
}

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr)
}

fn arb_header() -> impl Strategy<Value = NetChainHeader> {
    (
        arb_opcode(),
        arb_status(),
        any::<u16>(),
        any::<u64>(),
        any::<u64>(),
        any::<[u8; 16]>(),
        proptest::collection::vec(arb_addr(), 0..=MAX_CHAIN_LEN),
        proptest::collection::vec(any::<u8>(), 0..=MAX_VALUE_LEN),
    )
        .prop_map(
            |(op, status, session, seq, request_id, key, chain, value)| NetChainHeader {
                op,
                status,
                session,
                seq,
                request_id,
                key: Key::from_bytes(key),
                chain: ChainList::new(chain).expect("bounded by strategy"),
                value: Value::new(value).expect("bounded by strategy"),
            },
        )
}

proptest! {
    #[test]
    fn netchain_header_roundtrip(hdr in arb_header()) {
        let mut buf = vec![0u8; hdr.wire_len()];
        let written = hdr.emit(&mut buf).unwrap();
        prop_assert_eq!(written, hdr.wire_len());
        let (parsed, consumed) = NetChainHeader::parse(&buf).unwrap();
        prop_assert_eq!(consumed, written);
        prop_assert_eq!(parsed, hdr);
    }

    #[test]
    fn ipv4_header_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        payload_len in 0usize..1400,
        ttl in 1u8..=255,
        dscp in any::<u8>(),
    ) {
        let mut hdr = Ipv4Header::udp(src, dst, payload_len);
        hdr.ttl = ttl;
        hdr.dscp_ecn = dscp;
        let mut buf = [0u8; 20];
        hdr.emit(&mut buf).unwrap();
        let (parsed, _) = Ipv4Header::parse(&buf).unwrap();
        prop_assert_eq!(parsed, hdr);
    }

    #[test]
    fn udp_header_roundtrip(src in any::<u16>(), dst in any::<u16>(), len in 0usize..9000) {
        let hdr = UdpHeader::new(src, dst, len);
        let mut buf = [0u8; 8];
        hdr.emit(&mut buf).unwrap();
        let (parsed, _) = UdpHeader::parse(&buf).unwrap();
        prop_assert_eq!(parsed, hdr);
    }

    #[test]
    fn ethernet_header_roundtrip(src in any::<[u8; 6]>(), dst in any::<[u8; 6]>(), et in any::<u16>()) {
        let hdr = EthernetHeader {
            src: MacAddr(src),
            dst: MacAddr(dst),
            ethertype: netchain_wire::EtherType::from_u16(et),
        };
        let mut buf = [0u8; 14];
        hdr.emit(&mut buf).unwrap();
        let (parsed, _) = EthernetHeader::parse(&buf).unwrap();
        prop_assert_eq!(parsed, hdr);
    }

    #[test]
    fn full_packet_roundtrip(
        hdr in arb_header(),
        client in arb_addr(),
        first_hop in arb_addr(),
        port in 1024u16..,
    ) {
        let pkt = NetChainPacket::query(
            client,
            port,
            first_hop,
            hdr.op,
            hdr.key,
            hdr.value.clone(),
            hdr.chain.clone(),
            hdr.request_id,
        );
        let bytes = pkt.to_bytes();
        let parsed = NetChainPacket::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&parsed, &pkt);
        // The header-direct encoder emits the very same bytes.
        let mut direct = [0u8; netchain_wire::MAX_FRAME_LEN];
        let len = netchain_wire::encode_query(
            &mut direct,
            client,
            port,
            first_hop,
            hdr.op,
            &hdr.key,
            hdr.value.as_bytes(),
            hdr.chain.hops(),
            hdr.request_id,
        )
        .unwrap();
        prop_assert_eq!(&direct[..len], bytes.as_slice());
    }

    #[test]
    fn parsers_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Outcome (Ok or Err) is irrelevant; the property is "no panic".
        let _ = NetChainHeader::parse(&bytes);
        let _ = Ipv4Header::parse(&bytes);
        let _ = UdpHeader::parse(&bytes);
        let _ = EthernetHeader::parse(&bytes);
        let _ = NetChainPacket::from_bytes(&bytes);
    }

    #[test]
    fn advance_preserves_remaining_chain_order(
        hops in proptest::collection::vec(arb_addr(), 1..=MAX_CHAIN_LEN),
        client in arb_addr(),
    ) {
        let mut pkt = NetChainPacket::query(
            client,
            40000,
            hops[0],
            OpCode::Write,
            Key::from_u64(1),
            Value::empty(),
            ChainList::new(hops[1..].to_vec()).unwrap(),
            0,
        );
        let mut visited = vec![pkt.ip.dst];
        while pkt.advance_to_next_hop() {
            visited.push(pkt.ip.dst);
        }
        prop_assert_eq!(visited, hops);
    }
}
