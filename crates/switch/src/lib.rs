//! # netchain-switch
//!
//! A behavioural model of a programmable switch data plane (a Barefoot
//! Tofino-class ASIC programmed in P4), faithful to the constructs the
//! NetChain paper builds on:
//!
//! * **exact-match tables** that map a 16-byte key to the index of its value
//!   slot (Figure 3),
//! * **register arrays** — per-stage on-chip SRAM words that can be read and
//!   modified once per packet at line rate,
//! * a **multi-stage pipeline** with a bounded number of stages and a bounded
//!   number of bytes each stage can touch, which is what limits value sizes
//!   (§6) and forces recirculation for larger values,
//! * the **NetChain program** itself (Algorithm 1): sequence-gated writes,
//!   head sequence assignment, chain forwarding by destination-IP rewriting,
//!   plus the compare-and-swap primitive used for locks (§8.5),
//! * the **failover / recovery rules** the controller installs in neighbour
//!   switches (Algorithms 2 and 3).
//!
//! What is *not* modelled is the physical ASIC: there is no notion of clock
//! cycles or TCAM geometry. Line rate appears as a per-switch capacity number
//! used by the capacity model in `netchain-experiments`, not as cycle-level
//! timing here. The paper's consistency argument depends only on the
//! per-packet behaviour reproduced in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod forward;
pub mod kv;
pub mod pipeline;
pub mod program;
pub mod register;
pub mod stats;
pub mod table;

pub use control::ControlOp;
pub use forward::{stable_hash_batch, FailoverAction, FailoverRule, ForwardingTable, RuleScope};
pub use kv::{ExportedEntry, KvError, SwitchKvStore};
pub use pipeline::{PipelineConfig, ResourceUsage};
pub use program::{cas_bytes, cas_value, DropReason, NetChainSwitch, SwitchAction};
pub use register::RegisterArray;
pub use stats::{ProbeGauges, SwitchStats};
pub use table::MatchTable;
