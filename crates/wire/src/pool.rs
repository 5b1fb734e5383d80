//! Buffer-pool parse entry points: the frame-size bound every I/O buffer is
//! sized from, and a slab of owned packets for the parse paths that must
//! materialise one.
//!
//! Both existed in spirit before — `MAX_FRAME_LEN` lived in the fabric's
//! frame module and the recycling idiom was open-coded inside the shard —
//! but the socket dataplane needs them too, and they are properties of the
//! *wire format*, not of any one transport. Hoisting them here gives every
//! packet mover (fabric rings, UDP sockets, the simulator's links) the same
//! authoritative bound and the same allocation-free parse path.

use crate::ethernet::ETHERNET_HEADER_LEN;
use crate::ipv4::IPV4_HEADER_LEN;
use crate::netchain::{MAX_CHAIN_LEN, MAX_VALUE_LEN, NETCHAIN_FIXED_HEADER_LEN};
use crate::packet::NetChainPacket;
use crate::udp::UDP_HEADER_LEN;
use crate::view::PacketView;
use std::ops::{Index, IndexMut};

/// Maximum serialized size of a NetChain packet: Ethernet + IPv4 + UDP + the
/// fixed header + a full 16-hop chain + a maximum 128-byte value (273 bytes).
/// Any receive buffer of this size cannot truncate a legal frame; anything
/// longer on the wire is by definition not a NetChain packet.
pub const MAX_FRAME_LEN: usize = ETHERNET_HEADER_LEN
    + IPV4_HEADER_LEN
    + UDP_HEADER_LEN
    + NETCHAIN_FIXED_HEADER_LEN
    + MAX_CHAIN_LEN * 4
    + MAX_VALUE_LEN;

/// A slab of owned [`NetChainPacket`]s, addressed by a `u32` slot.
///
/// [`PacketPool::take`] materialises a [`PacketView`] into a slot, and the
/// packet stays there, stepped in place through `pool[slot]`, until
/// [`PacketPool::put`] retires the slot: whoever carries it moves four bytes,
/// never the packet. A retired slot keeps its packet's heap allocations (the
/// chain list and value vectors) and is the next one taken, refilled in place
/// ([`PacketView::to_owned_into`]). The slab grows to the most packets ever
/// held at once and no further, so in steady state a parse-execute-retire
/// loop allocates nothing — not even for writes.
#[derive(Debug, Default)]
pub struct PacketPool {
    slots: Vec<NetChainPacket>,
    /// Retired slots, the last retired on top.
    free: Vec<u32>,
}

impl PacketPool {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Materialises `view` into a slot, recycling the last retired one when
    /// there is one, and returns the slot.
    pub fn take(&mut self, view: &PacketView<'_>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                view.to_owned_into(&mut self.slots[slot as usize]);
                slot
            }
            None => {
                self.slots.push(view.to_owned());
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Retires `slot`: its packet is dead, its buffers wait for the next
    /// [`Self::take`].
    pub fn put(&mut self, slot: u32) {
        debug_assert!(
            (slot as usize) < self.slots.len(),
            "slot {slot} never taken"
        );
        self.free.push(slot);
    }

    /// Slots in the slab, held or retired.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing was ever taken.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl Index<u32> for PacketPool {
    type Output = NetChainPacket;

    fn index(&self, slot: u32) -> &NetChainPacket {
        &self.slots[slot as usize]
    }
}

impl IndexMut<u32> for PacketPool {
    fn index_mut(&mut self, slot: u32) -> &mut NetChainPacket {
        &mut self.slots[slot as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Addr;
    use crate::netchain::{ChainList, Key, OpCode, Value};

    fn sample(value_len: usize, request_id: u64) -> NetChainPacket {
        NetChainPacket::query(
            Ipv4Addr::for_host(1),
            40_000,
            Ipv4Addr::for_switch(0),
            OpCode::Write,
            Key::from_u64(request_id),
            Value::filled(0x5a, value_len).unwrap(),
            ChainList::new(vec![Ipv4Addr::for_switch(1)]).unwrap(),
            request_id,
        )
    }

    #[test]
    fn max_frame_len_is_the_largest_wire_size() {
        let pkt = NetChainPacket::query(
            Ipv4Addr::for_host(1),
            40_000,
            Ipv4Addr::for_switch(0),
            OpCode::Write,
            Key::from_u64(9),
            Value::filled(0xaa, MAX_VALUE_LEN).unwrap(),
            ChainList::new(
                (0..MAX_CHAIN_LEN as u32)
                    .map(Ipv4Addr::for_switch)
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
            1,
        );
        assert_eq!(pkt.wire_size(), MAX_FRAME_LEN);
    }

    #[test]
    fn take_recycles_and_matches_to_owned() {
        let mut pool = PacketPool::new();
        let a = sample(64, 1).to_bytes();
        // A read with no chain and no value: whatever `a` left in the slot's
        // buffers must be gone.
        let b = NetChainPacket::query(
            Ipv4Addr::for_host(2),
            40_001,
            Ipv4Addr::for_switch(3),
            OpCode::Read,
            Key::from_u64(2),
            Value::empty(),
            ChainList::new(Vec::new()).unwrap(),
            2,
        )
        .to_bytes();
        let view_a = PacketView::parse(&a).unwrap();
        let view_b = PacketView::parse(&b).unwrap();
        let slot_a = pool.take(&view_a);
        assert_eq!(pool[slot_a], view_a.to_owned());
        pool.put(slot_a);
        let slot_b = pool.take(&view_b);
        assert_eq!(slot_b, slot_a, "the retired slot is recycled");
        assert_eq!(pool.len(), 1);
        assert_eq!(pool[slot_b], view_b.to_owned());
    }

    #[test]
    fn a_slot_put_back_is_the_next_taken() {
        let mut pool = PacketPool::new();
        let bytes: Vec<Vec<u8>> = (0..4).map(|i| sample(8, i).to_bytes()).collect();
        let views: Vec<PacketView> = bytes
            .iter()
            .map(|b| PacketView::parse(b).unwrap())
            .collect();
        let slots: Vec<u32> = views[..3].iter().map(|v| pool.take(v)).collect();
        assert_eq!(slots, [0, 1, 2]);
        pool.put(slots[1]);
        let again = pool.take(&views[3]);
        assert_eq!(again, slots[1]);
        assert_eq!(pool[again], views[3].to_owned());
        // The untouched neighbours still hold their own packets.
        assert_eq!(pool[slots[0]], views[0].to_owned());
        assert_eq!(pool[slots[2]], views[2].to_owned());
    }

    #[test]
    fn a_steady_take_put_loop_never_grows_the_slab() {
        let mut pool = PacketPool::new();
        let bytes: Vec<Vec<u8>> = (0..3)
            .map(|i| sample(16 * i, i as u64).to_bytes())
            .collect();
        let views: Vec<PacketView> = bytes
            .iter()
            .map(|b| PacketView::parse(b).unwrap())
            .collect();
        for round in 0..1_000 {
            let slots: Vec<u32> = views.iter().map(|v| pool.take(v)).collect();
            for &slot in slots.iter().rev() {
                pool.put(slot);
            }
            assert_eq!(pool.len(), views.len(), "round {round}");
        }
    }
}
