//! # netchain-fabric
//!
//! An in-process, multi-core software switch fabric that runs the real
//! NetChain data plane ([`netchain_switch::NetChainSwitch`], Algorithm 1 —
//! the same program the discrete-event simulator executes) at real
//! throughput. Where `netchain-sim` answers *"is the protocol correct and
//! what are its dynamics?"* in virtual time, and `netchain-net` demonstrates
//! the wire format over real kernel UDP sockets, this crate answers *"how
//! many operations per second can a software incarnation actually
//! sustain?"* — the repo's first honest ops/sec platform, which every future
//! scaling change can be measured against.
//!
//! ## Architecture
//!
//! ```text
//!  client 0 ─┐ SPSC query rings   ┌─ shard 0 (switch replicas, groups ≡ 0 mod N)
//!  client 1 ─┼────────────────────┼─ shard 1 (groups ≡ 1 mod N)
//!    ...     │   (frames)         │    ...
//!  client C ─┘◄───────────────────┴─ shard N-1
//!              SPSC reply rings
//! ```
//!
//! * **Keyspace sharding by virtual group** ([`shard`]): the same unit the
//!   paper's consistent hashing and failure recovery use. A query's whole
//!   chain (head → replicas → tail) executes on the shard owning its key, so
//!   shards share nothing and scale linearly with cores.
//! * **Bounded lock-free SPSC rings** ([`ring`]): every (client, shard) pair
//!   owns one ring per direction — single producer, single consumer, no
//!   locks, index caching and batched publication to minimise cross-core
//!   traffic. Both ends work on the slots in place: a query is encoded
//!   straight into its slot and parsed out of it, so a packet's bytes are
//!   written once per hop. The loops that do so ([`pump`]) are shared by
//!   every live driver.
//! * **Batching everywhere**: frames are pulled in bursts (default 32),
//!   chains execute in waves, each owned packet stepped where it lies, in
//!   its slot of the shard's packet slab, by
//!   [`netchain_switch::NetChainSwitch::handle_hashed`], and replies are
//!   emitted through [`netchain_wire::BatchEncoder`] into one contiguous
//!   buffer. A hosted switch's address resolves through the shard's route
//!   table in one load.
//! * **Zero-copy parsing**: after one [`netchain_wire::validate_frame`],
//!   shards read queries in place through [`netchain_wire::BatchView`] and
//!   clients replies through [`netchain_wire::NetChainView::of_frame`],
//!   both pinned to the layered [`netchain_wire::PacketView::parse`].
//! * **Closed-loop load generation**: each client thread drives a
//!   [`netchain_core::ClientState`] — the one load client, which the
//!   simulator and the UDP deployment drive too — for op sampling, packet
//!   construction, reply matching and client-side consistency checking
//!   (version regressions must be zero).
//!
//! ## Measuring
//!
//! [`run_live`] spawns real threads (deployment shape; with
//! [`FabricConfig::pin_shards`](fabric::FabricConfig::pin_shards) each shard
//! thread is pinned to its own core through the vendored `affinity` shim —
//! `sched_setaffinity` on Linux, a graceful no-op elsewhere or with the
//! `pinning` feature disabled). The repo's `benchmark/` crate is the one
//! harness that times it, on live traffic with one shard and one client;
//! the paper's scalability claim (§8.3) is reproduced as a model by
//! `netchain fig9 --panel f`, not measured here.
//!
//! The differential test (`tests/differential_sim.rs`) pins the fabric to
//! the simulator: the same scripted op sequence must produce identical
//! reply statuses/values and identical per-switch KV state in both.

#![warn(missing_docs)]
// `ring` is the only module with `unsafe` code (the SPSC slot ownership
// protocol); its invariants are documented and stress-tested there.

pub mod fabric;
pub mod frame;
pub mod pump;
pub mod ring;
pub mod shard;
pub mod stats;

pub use fabric::{build_shards, pin_thread, run_live, FabricConfig};
pub use frame::{Frame, MAX_FRAME_LEN};
pub use netchain_core::{ClientReport, ClientState, DrawnOp, WorkloadSpec};
pub use pump::{connect, ClientPass, ClientPort, ShardPort};
pub use ring::{ring as spsc_ring, Consumer, Producer};
pub use shard::{client_id_of, shard_of_group, shard_of_key, Shard};
pub use stats::{FabricReport, ShardStats, ShardStatsCell};
