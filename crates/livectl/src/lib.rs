//! # netchain-livectl
//!
//! The live control plane for the multi-core fabric: where `netchain-fabric`
//! measures the failure-free fast path, this crate runs the *reconfiguration
//! half of Vertical Paxos* (§5) against that same fabric at real throughput —
//! delivery of a fault schedule (`netchain_core::fault`: kills, revivals,
//! stalls, lossy edges), fast failover (Algorithm 2), and group-by-group
//! chain repair with two-phase atomic switching (Algorithm 3) after each
//! kill — and measures the result as a throughput-vs-time series across the
//! failure, failover and recovery phases (the live analogue of the paper's
//! Figures 10–11).
//!
//! ## Pieces
//!
//! * [`control`] — the per-shard control channel: `ControlOp`s, `FaultOp`s
//!   and state export over the fabric's lock-free SPSC rings, applied at
//!   burst boundaries and acknowledged by token.
//! * [`runner`] — [`run_live_controlled`]: the threaded deployment shape
//!   (shards, retrying duration-driven clients, the controller, a monitor
//!   thread that samples each shard's own `ShardStats` once a slice),
//!   producing a time-sliced [`LiveReport`]; and [`FaultScript`], the
//!   one-kill constructor of a schedule and its [`Reactions`].
//! * [`detector`] — the gray-failure detector: peer-median comparison of
//!   the replies each shard served in a slice, flagging a shard that is slow
//!   but alive.
//! * [`replay`] — the same fabric, op lists, fault ops and reactor driven
//!   deterministically on one thread by direct calls.
//! * [`report`] — the run report: throughput slices and phase timelines.
//!
//! *What* the controller sends is `netchain_core::failplan`'s and *when* is
//! `netchain_core::reactor`'s: the live controller, the replay fabric and the
//! simulated controller only deliver, so the three cannot drift apart (the
//! differential tests and `tests/schedules.rs` pin that down).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod detector;
pub mod replay;
pub mod report;
pub mod runner;

pub use control::{ControlCmd, ControlEvt};
pub use detector::{Anomaly, GrayFailureDetector};
pub use netchain_core::{FailoverTimeline, Reactions};
pub use replay::{replay_agent_config, ReplayFabric};
pub use report::{LiveAnomaly, LiveReport};
pub use runner::{run_live_controlled, run_live_observed, FaultScript, LiveConfig};
