//! Calibration constants.
//!
//! Everything in this module is a number taken from the paper (its hardware
//! spec sheets or its own measurements), not something this reproduction can
//! measure without the testbed. They are the *inputs* the models consume;
//! every derived result is computed by this repository's code.

use netchain_sim::SimDuration;

/// Packets per second one Tofino-class switch can process in the mode the
/// testbed uses (§8.1: "a mode that guarantees up to 4 BQPS").
pub const SWITCH_PPS: f64 = 4.0e9;

/// Aggregate bandwidth of one switch (Table 1: 6.5 Tbps).
pub const SWITCH_BANDWIDTH_BPS: f64 = 6.5e12;

/// Per-packet processing delay of a switch (Table 1: < 1 µs).
pub const SWITCH_DELAY: SimDuration = SimDuration::from_nanos(800);

/// Packets per second a highly-optimised server (NetBricks-class) can process
/// (Table 1: 30 million).
pub const SERVER_PPS: f64 = 30.0e6;

/// Server NIC bandwidth range used in Table 1 (10–100 Gbps); we report the
/// upper end.
pub const SERVER_BANDWIDTH_BPS: f64 = 100.0e9;

/// Per-packet processing delay of a server (Table 1: 10–100 µs); midpoint.
pub const SERVER_DELAY: SimDuration = SimDuration::from_micros(55);

/// Queries per second one DPDK client server can generate/receive
/// (§7: "up to 20.5 MQPS with the 40G NICs on our servers").
pub const CLIENT_INJECTION_QPS: f64 = 20.5e6;

/// Number of client servers in the testbed.
pub const TESTBED_CLIENT_SERVERS: usize = 4;

/// NetChain query latency measured on the testbed (§8.2: 9.7 µs), dominated
/// by the client-side DPDK stack. The simulated fabric contributes a few
/// microseconds; the remainder is charged as client-stack delay so reported
/// latencies are comparable to the paper's.
pub const NETCHAIN_CLIENT_LATENCY: SimDuration = SimDuration::from_micros(9);

/// ZooKeeper reference points measured by the paper (§8.1–8.2) for
/// ZooKeeper 3.5.2 on the testbed. Used to calibrate the baseline cost model
/// and as the "paper" reference points of the figure reproductions.
pub mod zookeeper_reference {
    /// Read-only saturation throughput (queries per second).
    pub const READ_ONLY_QPS: f64 = 230_000.0;
    /// Throughput at a 1 % write ratio.
    pub const ONE_PERCENT_WRITE_QPS: f64 = 140_000.0;
    /// Write-only saturation throughput.
    pub const WRITE_ONLY_QPS: f64 = 27_000.0;
    /// Read latency at low load (µs).
    pub const READ_LATENCY_US: f64 = 170.0;
    /// Write latency at low load (µs).
    pub const WRITE_LATENCY_US: f64 = 2350.0;
}

/// Spine–leaf scalability study parameters (§8.3).
pub mod spine_leaf {
    /// Ports per switch.
    pub const PORTS: usize = 64;
    /// Hosts per leaf switch (half the ports go down to servers).
    pub const HOSTS_PER_LEAF: usize = 32;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the claim
    fn table1_ordering_holds() {
        // The whole premise: switches beat servers by orders of magnitude.
        assert!(SWITCH_PPS / SERVER_PPS > 100.0);
        assert!(SWITCH_BANDWIDTH_BPS > SERVER_BANDWIDTH_BPS);
        assert!(SWITCH_DELAY < SERVER_DELAY);
    }
}
