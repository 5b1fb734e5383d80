//! The live controller's configuration, and the one-kill constructor of a
//! fault schedule.
//!
//! *What* breaks and *when* is a `netchain_core::Schedule`; how the
//! controller reacts to each `Kill` in it is [`Reactions`]. [`FaultScript`]
//! is the two written as one struct for the common case of a single kill; it
//! is never executed, only lowered ([`FaultScript::lower`]).

use netchain_core::{FaultOp, Schedule};
use netchain_wire::Ipv4Addr;
use std::time::Duration;

/// How the live controller reacts to a `Kill`, each measured from the kill:
///
/// ```text
/// ── kill ─┬─ failover_delay ─┬─ recovery_delay ─┬─ sync_duration ─┬──
///         │   (detection;    │  (degraded:      │  per-group      │  restored
///         │    traffic to    │   chains run     │  block → sync   │
///         │    the victim    │   one short)     │  → activate     │
///         │    is lost)      │                  │                 │
///   switch killed      Algorithm 2        repair starts     repair done
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reactions {
    /// Failure-detection time: how long the controller takes to notice and
    /// run fast failover (the paper's controller reacts in well under a
    /// millisecond once notified; the detection delay is what an operator
    /// actually observes as the dip).
    pub failover_delay: Duration,
    /// Pause between completed failover and the start of chain repair (the
    /// paper separates the phases by ~20 s to make them visible; scaled down
    /// here).
    pub recovery_delay: Duration,
    /// Total state-synchronisation budget across all repaired groups: each
    /// group's blocked window is `sync_duration / groups`, emulating the
    /// dominant cost the paper measures (copying register state through the
    /// switch control plane).
    pub sync_duration: Duration,
    /// Repair granularity: `None` repairs the ring's own virtual groups;
    /// `Some(g)` repairs the key space in `g` equal hash groups (the
    /// Figure 10 "1 vs 100 virtual groups" comparison).
    pub recovery_groups: Option<u32>,
    /// Replacement switch, used while it is alive; `None` (or once it is
    /// dead) lets the controller pick: a spare (`FabricConfig::num_spares`,
    /// the honest paper shape), then a revived switch, then a live one.
    pub replacement: Option<Ipv4Addr>,
}

impl Reactions {
    /// When the repair of a switch killed at `kill_at` is paced to end.
    pub fn repair_ends_at(&self, kill_at: Duration) -> Duration {
        kill_at + self.failover_delay + self.recovery_delay + self.sync_duration
    }
}

/// One scripted switch failure plus the controller's reaction timings: a
/// one-entry [`Schedule`] and its [`Reactions`], by field.
#[derive(Debug, Clone, Copy)]
pub struct FaultScript {
    /// The switch to kill.
    pub victim: Ipv4Addr,
    /// When to kill it, relative to run start.
    pub kill_at: Duration,
    /// [`Reactions::failover_delay`].
    pub failover_delay: Duration,
    /// [`Reactions::recovery_delay`].
    pub recovery_delay: Duration,
    /// [`Reactions::sync_duration`].
    pub sync_duration: Duration,
    /// [`Reactions::recovery_groups`].
    pub recovery_groups: Option<u32>,
    /// [`Reactions::replacement`].
    pub replacement: Option<Ipv4Addr>,
}

impl FaultScript {
    /// The script as what the runner executes: the kill, and the reactions.
    pub fn lower(&self) -> (Schedule, Reactions) {
        let schedule = Schedule::new(0).at(self.kill_at, FaultOp::Kill(self.victim));
        let reactions = Reactions {
            failover_delay: self.failover_delay,
            recovery_delay: self.recovery_delay,
            sync_duration: self.sync_duration,
            recovery_groups: self.recovery_groups,
            replacement: self.replacement,
        };
        (schedule, reactions)
    }
}
