//! Failure handling walkthrough (§5, §8.4): fail a chain switch under a
//! write-heavy workload, watch fast failover restore service within
//! milliseconds, then watch group-by-group failure recovery restore the
//! replication factor while barely denting throughput.
//!
//! Run with: `cargo run --release --example failure_recovery`

use netchain::core::{ClusterConfig, FaultOp, NetChainCluster, Reactions, Schedule, WorkloadSpec};
use netchain::sim::SimDuration;
use netchain::wire::Ipv4Addr;
use std::time::Duration;

fn main() {
    let config = ClusterConfig {
        // S0–S2 hold the data; S3 is the spare the controller recovers onto.
        ring_switches: Some(3),
        reactions: Reactions {
            recovery_delay: Duration::from_secs(5),
            sync_duration: Duration::from_secs(20),
            replacement: Some(Ipv4Addr::for_switch(3)),
            recovery_groups: Some(20),
            ..ClusterConfig::default().reactions
        },
        ..Default::default()
    };
    let mut cluster = NetChainCluster::testbed(config);
    cluster.populate_store(5_000, 64);
    cluster.install_workload_client(
        0,
        WorkloadSpec::mixed(5_000, u64::MAX, 50, 50),
        5_000.0,
        SimDuration::from_secs(40),
        SimDuration::from_secs(1),
    );
    // The fault schedule: S1 fail-stops ten seconds in.
    let kill = FaultOp::Kill(Ipv4Addr::for_switch(1));
    cluster.inject(&Schedule::new(0).at(Duration::from_secs(10), kill));
    cluster.sim.run_for(SimDuration::from_secs(42));

    let client = cluster.workload_client(0).expect("installed");
    println!("time(s)  completed queries/s");
    for (t, rate) in client.throughput().rate_series() {
        let marker = match t as u64 {
            10 => "  <- S1 fails (fast failover)",
            15 => "  <- recovery starts (20 virtual groups)",
            35 => "  <- recovery complete",
            _ => "",
        };
        println!("{t:>6.0}  {rate:>10.0}{marker}");
    }
    let stats = client.client().agent_stats();
    println!(
        "\ncompleted {} of {} issued, {} retries, {} version regressions (must be 0)",
        stats.completed, stats.issued, stats.retries, stats.version_regressions
    );
    let reactor = cluster.controller().reactor();
    let (victim, timeline) = &reactor.timelines()[0];
    println!(
        "controller: recovered {} virtual groups of {victim} onto {}",
        timeline.groups_repaired,
        reactor.view().stands_for[0].0
    );
    assert_eq!(stats.version_regressions, 0);
}
