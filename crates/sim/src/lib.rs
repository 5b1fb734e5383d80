//! # netchain-sim
//!
//! A deterministic discrete-event simulator of a datacenter network, built as
//! the substrate for reproducing the NetChain evaluation without Tofino
//! hardware.
//!
//! Design goals, in order:
//!
//! 1. **Determinism** — a run is a pure function of the topology, the node
//!    programs and a seed. Every source of randomness (loss, jitter, workload
//!    inter-arrivals) draws from one seeded PRNG owned by the simulator, and
//!    events at equal timestamps are ordered by insertion sequence.
//! 2. **Hop-by-hop realism** — packets travel link by link; forwarding
//!    decisions are made by node logic, not by the simulator. This is what
//!    makes NetChain's neighbour-switch failover (Algorithm 2) observable.
//! 3. **Event-driven simplicity** — the simulator is a single-threaded event
//!    loop in the style the smoltcp/tokio guides recommend for protocol code:
//!    no shared mutable state, no executor, no `unsafe`.
//!
//! The crate knows nothing about NetChain itself: nodes implement the
//! [`Node`] trait for an arbitrary message type implementing [`Message`], so
//! the same simulator hosts the NetChain switches, the server-based baseline,
//! and any ad-hoc test harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod link;
pub mod node;
pub mod routing;
pub mod simulator;
pub mod time;
pub mod topology;

pub use event::Event;
pub use link::{LinkParams, LinkState, LinkStats};
pub use node::{Context, Message, Node, NodeId, NodeKind, TimerToken};
pub use routing::RoutingTables;
pub use simulator::{SimConfig, SimStats, Simulator};
pub use time::{SimDuration, SimTime};
pub use topology::{Topology, TopologyBuilder};
