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
//! * [`control`] — the per-shard control channel: `ControlOp`s and
//!   `FaultOp`s (the two vocabularies the simulator, this crate and the
//!   replay fabric share) and state export, over the fabric's lock-free SPSC
//!   rings, applied at burst boundaries and acknowledged by token.
//! * [`script`] — [`Reactions`]: how the controller paces detection,
//!   failover and repair after each kill of the schedule; and
//!   [`FaultScript`], the one-kill constructor that lowers into a one-entry
//!   schedule plus reactions.
//! * [`runner`] — [`run_live_controlled`]: the threaded deployment shape
//!   (shards + retrying duration-driven clients + controller), producing a
//!   time-sliced [`LiveReport`]. The controller works through one
//!   time-ordered agenda of schedule entries and its own reactions; a
//!   monitor thread watches per-shard rolling windows while the run is live.
//! * [`detector`] — the gray-failure detector: peer-median comparison over
//!   the rolling windows, flagging a shard that is slow but alive.
//! * [`replay`] — the same fabric, the same op lists and the same fault ops
//!   driven deterministically on one thread by direct calls, for the
//!   simulator differential test and the chain-repair property test.
//! * [`report`] — the run report: throughput slices and the phase timeline
//!   (including the measured rule-installation latency).
//!
//! The planning logic (which rules, which donors, which session numbers, in
//! which order; who replaces whom after a second kill) is **not** here:
//! `netchain_core::failplan` emits Algorithms 2 and 3 as ordered op lists and
//! its `View` takes the decisions, and the live controller, the replay fabric
//! and the simulated controller only deliver them, so the three paths cannot
//! drift apart — a property the differential tests and
//! `tests/schedules.rs` pin down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod detector;
pub mod replay;
pub mod report;
pub mod runner;
pub mod script;

pub use control::{ControlCmd, ControlEvt};
pub use detector::{Anomaly, DetectorConfig, GrayFailureDetector};
pub use replay::{replay_agent_config, ReplayFabric};
pub use report::{FailoverTimeline, LiveAnomaly, LiveReport};
pub use runner::{run_live_controlled, run_live_observed, LiveConfig};
pub use script::{FaultScript, Reactions};
