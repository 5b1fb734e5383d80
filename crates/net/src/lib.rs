//! # netchain-net
//!
//! The *real-network* execution mode: the NetChain switch program run over
//! kernel UDP sockets on loopback. Every datagram carries the exact
//! [`netchain_wire`] byte format (Ethernet + IPv4 + UDP + NetChain header),
//! and the same [`netchain_switch::NetChainSwitch`] data-plane program the
//! simulator and the fabric use answers it.
//!
//! This mode exists to demonstrate that the protocol implementation is not a
//! simulator artifact: the same bytes flow through real sockets, the same
//! destination-IP rewriting steers queries along the chain, and the same
//! consistency machinery applies.
//!
//! * [`NetDataplane`] ([`dataplane`]) — keyspace-sharded workers running the
//!   fabric's staged [`netchain_fabric::Shard`] pipeline zero-copy out of
//!   `recvmmsg` burst receive buffers (via the vendored `mmsg` shim). Kernel
//!   UDP on one machine is still orders of magnitude slower than a Tofino,
//!   but the `net_scale` experiment measures what it sustains and how much
//!   batched syscalls buy over the single-packet discipline.
//! * [`LoopbackClient`] ([`client`]) — the blocking client, one operation at
//!   a time, built by [`NetDataplane::client`] around the sans-IO
//!   [`netchain_core::AgentCore`].
//! * [`run_open_loop`] ([`openloop`]) — the **open-loop** load generator
//!   driving thousands of the same agents and reporting
//!   coordinated-omission-free p50/p99/p999.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod dataplane;
pub mod iobench;
pub mod openloop;

pub use client::LoopbackClient;
pub use dataplane::{
    IoMode, IoStats, NetConfig, NetDataplane, NetReport, RECV_FILL_BOUNDS, RECV_FILL_BUCKETS,
};
pub use iobench::{syscall_microbench, SyscallBench};
pub use openloop::{run_open_loop, OpenLoopConfig, OpenLoopReport};
