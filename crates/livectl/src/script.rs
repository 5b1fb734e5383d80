//! The fault script: *what* to break and *when*, for a live-controlled run.

use netchain_wire::Ipv4Addr;
use std::time::Duration;

/// A scripted switch failure plus the controller's reaction timings.
///
/// The timeline of a run with a fault script:
///
/// ```text
/// 0 ──────── kill_at ─┬─ failover_delay ─┬─ recovery_delay ─┬─ sync_duration ─┬──── duration
///    steady state     │   (detection;    │  (degraded:      │  per-group      │  restored
///                     │    traffic to    │   chains run     │  block → sync   │  steady state
///                     │    the victim    │   one short)     │  → activate     │
///                     │    is lost)      │                  │                 │
///                  switch killed      Algorithm 2        repair starts     repair done
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FaultScript {
    /// The switch to kill.
    pub victim: Ipv4Addr,
    /// When to kill it, relative to run start.
    pub kill_at: Duration,
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
    /// Replacement switch; `None` lets the controller pick a live one (use a
    /// spare — `FabricConfig::num_spares` — for the honest paper shape).
    pub replacement: Option<Ipv4Addr>,
}

impl FaultScript {
    /// When repair finishes, relative to run start.
    pub fn repair_ends_at(&self) -> Duration {
        self.kill_at + self.failover_delay + self.recovery_delay + self.sync_duration
    }
}
