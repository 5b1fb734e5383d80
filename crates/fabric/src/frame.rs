//! Fixed-size inline packet frames: the unit carried by the fabric's rings.
//!
//! A NetChain packet is small and strictly bounded (Ethernet + IPv4 + UDP +
//! fixed header + 16 chain hops + 128-byte value = 273 bytes), so frames
//! store the serialized bytes inline rather than boxing them. The rings'
//! slots are frames that live as long as the ring, each starting on a cache
//! line: a producer encodes straight into the next free slot
//! ([`Frame::encode_with`] / [`Frame::set_bytes`] touch only the bytes of the
//! packet, never the whole 273), and the consumer reads straight out of it
//! (a shard with [`netchain_wire::BatchView`], a client with
//! [`netchain_wire::NetChainView::of_frame`]) — the rings never touch the
//! allocator and a packet's bytes are written once per hop.

use netchain_wire::{NetChainPacket, WireError, WireResult};

/// Maximum serialized size of a NetChain packet (re-exported from the wire
/// crate, which owns the bound — the socket dataplane sizes its receive
/// buffers from the same constant).
pub use netchain_wire::MAX_FRAME_LEN;

/// One serialized packet, stored inline. Bytes past the packet's length are
/// leftovers of earlier uses of the frame and mean nothing.
///
/// Cache-line aligned and whole lines long (320 bytes), length first: every
/// ring slot starts on a line, so a query or reply of this system (89–105
/// bytes behind the 2-byte length) lies in exactly two, and two lines cross
/// between the cores per hand-off. A packed 276-byte stride would spread 6
/// such frames in 16 over three.
#[derive(Clone)]
#[repr(C, align(64))]
pub struct Frame {
    len: u16,
    bytes: [u8; MAX_FRAME_LEN],
}

impl Default for Frame {
    /// An empty frame.
    fn default() -> Self {
        Frame {
            len: 0,
            bytes: [0u8; MAX_FRAME_LEN],
        }
    }
}

impl Frame {
    /// Serializes `pkt` into a frame.
    pub fn from_packet(pkt: &NetChainPacket) -> WireResult<Frame> {
        let mut frame = Frame::default();
        let written = pkt.emit_into(&mut frame.bytes)?;
        frame.len = written as u16;
        Ok(frame)
    }

    /// Copies raw packet bytes (e.g. one [`netchain_wire::BatchEncoder`]
    /// frame) into a frame.
    pub fn from_bytes(bytes: &[u8]) -> WireResult<Frame> {
        let mut frame = Frame::default();
        frame.set_bytes(bytes)?;
        Ok(frame)
    }

    /// Overwrites this frame with raw packet bytes, in place.
    pub fn set_bytes(&mut self, bytes: &[u8]) -> WireResult<()> {
        if bytes.len() > MAX_FRAME_LEN {
            return Err(WireError::BufferTooSmall {
                needed: bytes.len(),
                available: MAX_FRAME_LEN,
            });
        }
        self.bytes[..bytes.len()].copy_from_slice(bytes);
        self.len = bytes.len() as u16;
        Ok(())
    }

    /// Overwrites this frame in place: `encode` writes a packet at the front
    /// of the buffer it is handed and returns the packet's length.
    ///
    /// # Panics
    /// If `encode` claims more bytes than the buffer has.
    pub fn encode_with(&mut self, encode: impl FnOnce(&mut [u8; MAX_FRAME_LEN]) -> usize) {
        let len = encode(&mut self.bytes);
        assert!(len <= MAX_FRAME_LEN, "encoder overran the frame");
        self.len = len as u16;
    }

    /// The serialized packet bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_wire::{
        ChainList, Ipv4Addr, Key, OpCode, PacketView, Value, MAX_CHAIN_LEN, MAX_VALUE_LEN,
    };

    #[test]
    fn frame_roundtrips_largest_packet() {
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
        let frame = Frame::from_packet(&pkt).unwrap();
        assert_eq!(PacketView::parse(frame.as_bytes()).unwrap().to_owned(), pkt);
        let mut copy = Frame::from_bytes(frame.as_bytes()).unwrap();
        assert_eq!(copy.as_bytes(), frame.as_bytes());
        assert!(copy.set_bytes(&[0u8; MAX_FRAME_LEN + 1]).is_err());
        // Reuse in place: a shorter packet over a longer one.
        copy.encode_with(|buf| {
            buf[..3].copy_from_slice(b"abc");
            3
        });
        assert_eq!(copy.as_bytes(), b"abc");
    }

    #[test]
    fn ring_slots_are_whole_cache_lines() {
        assert_eq!(std::mem::align_of::<Frame>(), 64);
        assert_eq!(std::mem::size_of::<Frame>() % 64, 0);
        // The ring's buffer is an array of frames, so an aligned first slot
        // and a whole-line stride align every slot.
        let (mut tx, _rx) = crate::ring::ring::<Frame>(4);
        let first: *const Frame = tx.reserve().expect("an empty ring has room");
        assert_eq!(first as usize % 64, 0);
    }
}
