//! # netchain-wire
//!
//! Byte-exact packet formats for the NetChain in-network coordination service
//! (NSDI 2018). This crate is a *sans-IO* protocol layer: it only knows how to
//! parse and emit bytes, never how to move them. The discrete-event simulator,
//! the real UDP loopback deployment, and the switch data-plane model all share
//! these definitions, so the packet a simulated switch rewrites is bit-for-bit
//! the packet a real socket would carry.
//!
//! The layout follows Figure 2(b) of the paper:
//!
//! ```text
//! +----------+----------+---------+-------------------------------------------+
//! | Ethernet | IPv4     | UDP     | NetChain header                           |
//! +----------+----------+---------+-------------------------------------------+
//!                                   OP | SESSION | SEQ | KEY | SC | chain IPs |
//!                                   VALUE-LEN | VALUE                         |
//! ```
//!
//! * `OP` — read / write / delete / insert / compare-and-swap, plus replies.
//! * `SESSION`/`SEQ` — the (session number, sequence number) tuple used to
//!   serialize out-of-order writes (§4.3) and head replacement (§5.2).
//! * `KEY` — fixed 16-byte key, as in the Tofino prototype (§7).
//! * `SC` + chain IPs — the segment-routing-like chain IP list (§4.2). `SC`
//!   is the number of *remaining* chain hops.
//! * `VALUE` — bounded, variable-length value (128 bytes at line rate, §6).
//!
//! NetChain queries are carried over UDP using a reserved destination port
//! ([`NETCHAIN_UDP_PORT`]); a switch that sees this port and whose own IP is
//! the packet's destination invokes the NetChain processing logic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod ethernet;
pub mod ipv4;
pub mod netchain;
pub mod packet;
pub mod pool;
pub mod stat;
pub mod udp;
pub mod view;

pub use error::{WireError, WireResult};
pub use ethernet::{EtherType, EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
pub use ipv4::{Ipv4Addr, Ipv4Header, Protocol, IPV4_HEADER_LEN};
pub use netchain::{
    ChainList, Key, NetChainHeader, OpCode, QueryStatus, Value, FNV64_OFFSET, FNV64_PRIME, KEY_LEN,
    MAX_CHAIN_LEN, MAX_VALUE_LEN, NETCHAIN_FIXED_HEADER_LEN, NETCHAIN_UDP_PORT,
};
pub use packet::{encode_query, NetChainPacket};
pub use pool::{PacketPool, MAX_FRAME_LEN};
pub use stat::{StatSnapshot, STAT_LAT_BUCKETS, STAT_SNAPSHOT_LEN, STAT_VERSION};
pub use udp::{UdpHeader, UDP_HEADER_LEN};
pub use view::{
    validate_batch, validate_frame, BatchEncoder, BatchView, NetChainView, PacketView, ParsedBatch,
    BATCH_WIDTH, MIN_FRAME_LEN,
};
