//! Property-based equivalence of the zero-copy view parsers
//! (`NetChainView` / `PacketView`) against the owned parsers: on every byte
//! string — well-formed, mutated, or arbitrary garbage — both must agree on
//! accept/reject, and on acceptance the view's owned conversion must equal
//! the owned parse exactly. The same equivalence is pinned for the staged
//! batch parser ([`BatchView`] / [`validate_frame`]): its branch-free
//! accept-set and its structure-of-arrays lanes must match the scalar
//! [`PacketView`] on every frame, well-formed or not, and so must the
//! client's reply reader, [`NetChainView::of_frame`].

use netchain_wire::{
    validate_frame, BatchView, ChainList, Ipv4Addr, Key, NetChainHeader, NetChainPacket,
    NetChainView, OpCode, PacketView, QueryStatus, Value, BATCH_WIDTH, MAX_CHAIN_LEN,
    MAX_VALUE_LEN,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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

fn arb_header() -> impl Strategy<Value = NetChainHeader> {
    (
        arb_opcode(),
        arb_status(),
        any::<u16>(),
        any::<u64>(),
        any::<u64>(),
        any::<[u8; 16]>(),
        proptest::collection::vec(any::<[u8; 4]>().prop_map(Ipv4Addr), 0..=MAX_CHAIN_LEN),
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

fn arb_packet() -> impl Strategy<Value = NetChainPacket> {
    (arb_header(), any::<[u8; 4]>(), any::<[u8; 4]>(), 1024u16..).prop_map(
        |(hdr, client, first_hop, port)| {
            NetChainPacket::query(
                Ipv4Addr(client),
                port,
                Ipv4Addr(first_hop),
                hdr.op,
                hdr.key,
                hdr.value.clone(),
                hdr.chain.clone(),
                hdr.request_id,
            )
        },
    )
}

/// One frame of any provenance: a well-formed packet, a truncation of one,
/// a single-byte corruption of one, or arbitrary garbage — the mix a shard's
/// ingress ring can actually contain.
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_packet().prop_map(|p| p.to_bytes()),
        (arb_packet(), 0.0f64..1.0).prop_map(|(p, frac)| {
            let bytes = p.to_bytes();
            let cut = (bytes.len() as f64 * frac) as usize;
            bytes[..cut].to_vec()
        }),
        (arb_packet(), 0.0f64..1.0, any::<u8>()).prop_map(|(p, frac, byte)| {
            let mut bytes = p.to_bytes();
            let pos = ((bytes.len() - 1) as f64 * frac) as usize;
            bytes[pos] = byte;
            bytes
        }),
        proptest::collection::vec(any::<u8>(), 0..200),
    ]
}

/// Asserts that the view parser and the owned parser agree on `bytes`:
/// both reject, or both accept with equal consumed lengths and equal decoded
/// headers.
fn assert_header_parsers_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    match (NetChainHeader::parse(bytes), NetChainView::parse(bytes)) {
        (Ok((owned, owned_used)), Ok((view, view_used))) => {
            prop_assert_eq!(owned_used, view_used);
            prop_assert_eq!(view.wire_len(), view_used);
            prop_assert_eq!(view.to_owned(), owned);
        }
        (Err(_), Err(_)) => {}
        (owned, view) => prop_assert!(
            false,
            "parsers diverged: owned={owned:?} view={}",
            if view.is_ok() { "Ok" } else { "Err" }
        ),
    }
    Ok(())
}

proptest! {
    /// Well-formed packets: the view decodes every field identically to the
    /// owned parser, via both the accessors and the owned conversion.
    #[test]
    fn view_roundtrips_valid_packets(pkt in arb_packet()) {
        let bytes = pkt.to_bytes();
        let owned = NetChainPacket::from_bytes(&bytes).unwrap();
        let view = PacketView::parse(&bytes).unwrap();
        prop_assert_eq!(view.eth, owned.eth);
        prop_assert_eq!(view.ip, owned.ip);
        prop_assert_eq!(view.udp, owned.udp);
        prop_assert_eq!(view.netchain.op(), owned.netchain.op);
        prop_assert_eq!(view.netchain.status(), owned.netchain.status);
        prop_assert_eq!(view.netchain.session(), owned.netchain.session);
        prop_assert_eq!(view.netchain.seq(), owned.netchain.seq);
        prop_assert_eq!(view.netchain.request_id(), owned.netchain.request_id);
        prop_assert_eq!(view.netchain.key(), owned.netchain.key);
        prop_assert_eq!(
            view.netchain.hops().collect::<Vec<_>>(),
            owned.netchain.chain.hops().to_vec()
        );
        prop_assert_eq!(view.netchain.value(), owned.netchain.value.as_bytes());
        prop_assert_eq!(view.to_owned(), owned.clone());

        // The arena path: writing into a dirty recycled packet gives exactly
        // the same result as a fresh owned conversion, whatever the recycled
        // packet used to hold.
        let mut recycled = NetChainPacket::query(
            Ipv4Addr([9, 9, 9, 9]),
            1,
            Ipv4Addr([8, 8, 8, 8]),
            OpCode::Delete,
            Key::from_name("stale/leftover"),
            Value::filled(0xee, MAX_VALUE_LEN).unwrap(),
            ChainList::new(vec![Ipv4Addr([7, 7, 7, 7]); MAX_CHAIN_LEN]).unwrap(),
            u64::MAX,
        );
        view.to_owned_into(&mut recycled);
        prop_assert_eq!(recycled, owned);
    }

    /// Truncating a valid header anywhere: both parsers reject, identically.
    #[test]
    fn view_and_owned_agree_on_truncations(hdr in arb_header(), frac in 0.0f64..1.0) {
        let payload = {
            let mut buf = vec![0u8; hdr.wire_len()];
            hdr.emit(&mut buf).unwrap();
            buf
        };
        let cut = (payload.len() as f64 * frac) as usize;
        assert_header_parsers_agree(&payload[..cut])?;
    }

    /// Mutating one byte of a valid header: both parsers agree on the
    /// (possibly still valid) result.
    #[test]
    fn view_and_owned_agree_on_single_byte_mutations(
        hdr in arb_header(),
        pos_frac in 0.0f64..1.0,
        byte in any::<u8>(),
    ) {
        let mut payload = {
            let mut buf = vec![0u8; hdr.wire_len()];
            hdr.emit(&mut buf).unwrap();
            buf
        };
        let pos = ((payload.len() - 1) as f64 * pos_frac) as usize;
        payload[pos] = byte;
        assert_header_parsers_agree(&payload)?;
    }

    /// Arbitrary garbage: never a panic, never a disagreement — for the
    /// header pair and the full-packet pair alike.
    #[test]
    fn view_and_owned_agree_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        assert_header_parsers_agree(&bytes)?;
        let owned = NetChainPacket::from_bytes(&bytes);
        let view = PacketView::parse(&bytes);
        prop_assert_eq!(owned.is_ok(), view.is_ok());
        if let (Ok(owned), Ok(view)) = (owned, view) {
            prop_assert_eq!(view.to_owned(), owned);
        }
    }

    /// The staged validator's branch-free accept-set is *exactly* the scalar
    /// parser's: `validate_frame` accepts a frame iff `PacketView::parse`
    /// does, on every frame provenance.
    #[test]
    fn validate_frame_matches_scalar_parse(frame in arb_frame()) {
        prop_assert_eq!(validate_frame(&frame), PacketView::parse(&frame).is_ok());
    }

    /// The client's reply reader is the layered parser's NetChain view:
    /// `NetChainView::of_frame` accepts a frame iff `PacketView::parse`
    /// does, and then every accessor agrees.
    #[test]
    fn of_frame_matches_scalar_parse(frame in arb_frame()) {
        let fast = NetChainView::of_frame(&frame);
        let layered = PacketView::parse(&frame);
        prop_assert_eq!(fast.is_some(), layered.is_ok());
        if let (Some(fast), Ok(layered)) = (fast, layered) {
            let slow = layered.netchain;
            prop_assert_eq!(fast.op(), slow.op());
            prop_assert_eq!(fast.status(), slow.status());
            prop_assert_eq!(fast.session(), slow.session());
            prop_assert_eq!(fast.seq(), slow.seq());
            prop_assert_eq!(fast.request_id(), slow.request_id());
            prop_assert_eq!(fast.key(), slow.key());
            prop_assert!(fast.hops().eq(slow.hops()));
            prop_assert_eq!(fast.value(), slow.value());
            prop_assert_eq!(fast.wire_len(), slow.wire_len());
        }
    }

    /// The batch parser agrees with the scalar parser lane by lane on mixed
    /// bursts: the same accept/reject verdict per frame, identical SoA field
    /// lanes, and an identical owned packet through `BatchView::view`.
    #[test]
    fn batch_view_matches_scalar_parse_lane_by_lane(
        frames in proptest::collection::vec(arb_frame(), 0..=BATCH_WIDTH),
    ) {
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let bv = BatchView::parse(&refs);
        let batch = bv.batch();
        prop_assert_eq!(batch.len(), frames.len());
        prop_assert_eq!(bv.len(), frames.len());
        let mut invalid = 0usize;
        for (i, frame) in refs.iter().enumerate() {
            match PacketView::parse(frame) {
                Ok(view) => {
                    prop_assert!(batch.is_valid(i), "lane {} wrongly rejected", i);
                    prop_assert_eq!(batch.is_netchain(i), view.is_netchain());
                    prop_assert_eq!(batch.op(i), view.netchain.op().to_u8());
                    prop_assert_eq!(batch.src(i), u32::from_be_bytes(view.ip.src.0));
                    prop_assert_eq!(batch.dst(i), u32::from_be_bytes(view.ip.dst.0));
                    prop_assert_eq!(batch.seq(i), view.netchain.seq());
                    prop_assert_eq!(batch.request_id(i), view.netchain.request_id());
                    prop_assert_eq!(batch.key(i), view.netchain.key());
                    prop_assert_eq!(batch.value_len(i), view.netchain.value().len());
                    prop_assert_eq!(bv.frame(i), *frame);
                    prop_assert_eq!(bv.view(i).to_owned(), view.to_owned());
                }
                Err(_) => {
                    invalid += 1;
                    prop_assert!(!batch.is_valid(i), "lane {} wrongly accepted", i);
                    prop_assert!(!batch.is_netchain(i));
                }
            }
        }
        prop_assert_eq!(batch.invalid_count(), invalid);
    }
}
