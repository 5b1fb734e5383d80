//! IPv4 header parsing and emission.
//!
//! NetChain routing (§4.2) works by rewriting the destination IP of a query to
//! the next chain hop and letting ordinary L3 forwarding deliver it, so the
//! IPv4 header is the one piece of the underlay the protocol actively
//! manipulates. The header checksum is recomputed on every rewrite, exactly as
//! a real switch pipeline would.

use crate::error::{WireError, WireResult};
use std::fmt;

/// Length in bytes of an IPv4 header without options (IHL = 5).
pub const IPV4_HEADER_LEN: usize = 20;

/// An IPv4 address. A thin wrapper around four octets so the crate stays
/// independent of `std::net` socket types (the simulator uses these addresses
/// purely as identifiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr([0, 0, 0, 0]);

    /// Builds an address from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr([a, b, c, d])
    }

    /// Deterministic address for a switch with the given id (`10.0.s.s`-style
    /// addressing used by the simulator and the loopback deployment).
    pub fn for_switch(id: u32) -> Self {
        Ipv4Addr([10, 0, (id >> 8) as u8, (id & 0xff) as u8])
    }

    /// Deterministic address for a host (client/server) with the given id.
    pub fn for_host(id: u32) -> Self {
        Ipv4Addr([10, 1, (id >> 8) as u8, (id & 0xff) as u8])
    }

    /// Deterministic address of a fabric shard or net worker: what a fault
    /// schedule names to stall one, or to impair its edge to a client.
    pub fn for_shard(id: u32) -> Self {
        Ipv4Addr([10, 2, (id >> 8) as u8, (id & 0xff) as u8])
    }

    /// Deterministic address for the controller.
    pub fn for_controller() -> Self {
        Ipv4Addr([10, 255, 0, 1])
    }

    /// Interprets the address as a big-endian `u32`.
    pub fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Builds an address from a big-endian `u32`.
    pub fn from_u32(v: u32) -> Self {
        Ipv4Addr(v.to_be_bytes())
    }

    /// Converts to a `std::net::Ipv4Addr` (used by the UDP loopback mode).
    pub fn to_std(self) -> std::net::Ipv4Addr {
        std::net::Ipv4Addr::new(self.0[0], self.0[1], self.0[2], self.0[3])
    }

    /// Converts from a `std::net::Ipv4Addr`.
    pub fn from_std(addr: std::net::Ipv4Addr) -> Self {
        Ipv4Addr(addr.octets())
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// IP protocol numbers relevant to NetChain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// UDP (17) — all NetChain queries.
    Udp,
    /// TCP (6) — used by the server-based baseline's transport emulation.
    Tcp,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl Protocol {
    /// Numeric protocol value.
    pub fn to_u8(self) -> u8 {
        match self {
            Protocol::Udp => 17,
            Protocol::Tcp => 6,
            Protocol::Other(v) => v,
        }
    }

    /// Decodes the protocol field.
    pub fn from_u8(v: u8) -> Self {
        match v {
            17 => Protocol::Udp,
            6 => Protocol::Tcp,
            other => Protocol::Other(other),
        }
    }
}

/// An IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services code point / ECN byte. NetChain queries can be
    /// prioritised (§4.4 suggests prioritising coordination traffic), which
    /// the simulator models through this field.
    pub dscp_ecn: u8,
    /// Total length of the IPv4 packet (header + payload) in bytes.
    pub total_len: u16,
    /// Identification field (used only for diagnostics; NetChain never
    /// fragments).
    pub identification: u16,
    /// Time to live.
    pub ttl: u8,
    /// Encapsulated protocol.
    pub protocol: Protocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address — rewritten hop by hop along the chain.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Default TTL used for freshly generated queries.
    pub const DEFAULT_TTL: u8 = 64;

    /// Builds a UDP-carrying header for a payload of `payload_len` bytes.
    pub fn udp(src: Ipv4Addr, dst: Ipv4Addr, payload_len: usize) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: (IPV4_HEADER_LEN + payload_len) as u16,
            identification: 0,
            ttl: Self::DEFAULT_TTL,
            protocol: Protocol::Udp,
            src,
            dst,
        }
    }

    /// Serialized length of this header (always [`IPV4_HEADER_LEN`]).
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN
    }

    /// Computes the standard internet checksum over a serialized header with
    /// its checksum field zeroed.
    pub fn checksum(bytes: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        let mut chunks = bytes.chunks_exact(2);
        for chunk in &mut chunks {
            sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Emits the header (with a freshly computed checksum) into `out`,
    /// returning the number of bytes written.
    pub fn emit(&self, out: &mut [u8]) -> WireResult<usize> {
        if out.len() < IPV4_HEADER_LEN {
            return Err(WireError::BufferTooSmall {
                needed: IPV4_HEADER_LEN,
                available: out.len(),
            });
        }
        out[0] = 0x45; // version 4, IHL 5
        out[1] = self.dscp_ecn;
        out[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        out[4..6].copy_from_slice(&self.identification.to_be_bytes());
        out[6..8].copy_from_slice(&[0, 0]); // flags / fragment offset: never fragmented
        out[8] = self.ttl;
        out[9] = self.protocol.to_u8();
        out[10..12].copy_from_slice(&[0, 0]); // checksum placeholder
        out[12..16].copy_from_slice(&self.src.0);
        out[16..20].copy_from_slice(&self.dst.0);
        let csum = Self::checksum(&out[..IPV4_HEADER_LEN]);
        out[10..12].copy_from_slice(&csum.to_be_bytes());
        Ok(IPV4_HEADER_LEN)
    }

    /// Parses a header from the front of `buf`, verifying version, IHL and
    /// checksum, and returning it plus the number of bytes consumed.
    pub fn parse(buf: &[u8]) -> WireResult<(Self, usize)> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "ipv4",
                needed: IPV4_HEADER_LEN,
                available: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(WireError::InvalidField {
                layer: "ipv4",
                field: "version",
                value: u64::from(version),
            });
        }
        let ihl = usize::from(buf[0] & 0x0f) * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(WireError::InvalidField {
                layer: "ipv4",
                field: "ihl",
                value: ihl as u64,
            });
        }
        let carried = u16::from_be_bytes([buf[10], buf[11]]);
        let mut zeroed = [0u8; IPV4_HEADER_LEN];
        zeroed.copy_from_slice(&buf[..IPV4_HEADER_LEN]);
        zeroed[10] = 0;
        zeroed[11] = 0;
        let computed = Self::checksum(&zeroed);
        if carried != computed {
            return Err(WireError::BadChecksum {
                expected: carried,
                computed,
            });
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        if usize::from(total_len) < IPV4_HEADER_LEN {
            return Err(WireError::InvalidField {
                layer: "ipv4",
                field: "total_len",
                value: u64::from(total_len),
            });
        }
        let header = Ipv4Header {
            dscp_ecn: buf[1],
            total_len,
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            ttl: buf[8],
            protocol: Protocol::from_u8(buf[9]),
            src: Ipv4Addr([buf[12], buf[13], buf[14], buf[15]]),
            dst: Ipv4Addr([buf[16], buf[17], buf[18], buf[19]]),
        };
        Ok((header, IPV4_HEADER_LEN))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_constructors_are_disjoint() {
        assert_ne!(Ipv4Addr::for_switch(1), Ipv4Addr::for_host(1));
        assert_ne!(Ipv4Addr::for_switch(1), Ipv4Addr::for_controller());
        assert_eq!(Ipv4Addr::for_switch(258), Ipv4Addr::new(10, 0, 1, 2));
    }

    #[test]
    fn address_u32_roundtrip() {
        let addr = Ipv4Addr::new(10, 0, 3, 77);
        assert_eq!(Ipv4Addr::from_u32(addr.to_u32()), addr);
        assert_eq!(addr.to_string(), "10.0.3.77");
    }

    #[test]
    fn std_conversion_roundtrip() {
        let addr = Ipv4Addr::new(127, 0, 0, 1);
        assert_eq!(Ipv4Addr::from_std(addr.to_std()), addr);
    }

    #[test]
    fn header_roundtrip_and_checksum() {
        let hdr = Ipv4Header::udp(Ipv4Addr::for_host(0), Ipv4Addr::for_switch(2), 40);
        let mut buf = [0u8; IPV4_HEADER_LEN];
        hdr.emit(&mut buf).unwrap();
        let (parsed, consumed) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(consumed, IPV4_HEADER_LEN);
        assert_eq!(parsed, hdr);
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let hdr = Ipv4Header::udp(Ipv4Addr::for_host(0), Ipv4Addr::for_switch(2), 40);
        let mut buf = [0u8; IPV4_HEADER_LEN];
        hdr.emit(&mut buf).unwrap();
        buf[17] ^= 0x40;
        assert!(matches!(
            Ipv4Header::parse(&buf).unwrap_err(),
            WireError::BadChecksum { .. }
        ));
    }

    #[test]
    fn rejects_wrong_version_and_truncation() {
        let hdr = Ipv4Header::udp(Ipv4Addr::for_host(0), Ipv4Addr::for_switch(2), 0);
        let mut buf = [0u8; IPV4_HEADER_LEN];
        hdr.emit(&mut buf).unwrap();
        let mut bad = buf;
        bad[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::parse(&bad).unwrap_err(),
            WireError::InvalidField {
                field: "version",
                ..
            }
        ));
        assert!(matches!(
            Ipv4Header::parse(&buf[..10]).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn checksum_of_valid_header_verifies_to_zero_sum() {
        // Classic property: summing a header including its checksum yields 0xffff.
        let hdr = Ipv4Header::udp(Ipv4Addr::for_host(3), Ipv4Addr::for_switch(9), 100);
        let mut buf = [0u8; IPV4_HEADER_LEN];
        hdr.emit(&mut buf).unwrap();
        let mut sum: u32 = 0;
        for chunk in buf.chunks_exact(2) {
            sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        assert_eq!(sum, 0xffff);
    }

    #[test]
    fn protocol_roundtrip() {
        for p in [Protocol::Udp, Protocol::Tcp, Protocol::Other(89)] {
            assert_eq!(Protocol::from_u8(p.to_u8()), p);
        }
    }
}
