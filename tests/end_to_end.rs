//! Cross-crate integration tests: full NetChain deployments (simulated and
//! loopback), failure handling under load, and NetChain-vs-baseline sanity
//! comparisons.

use netchain::core::{
    ClusterConfig, FaultOp, KvOp, NetChainCluster, Reactions, Schedule, WorkloadSpec,
};
use netchain::sim::SimDuration;
use netchain::wire::{Ipv4Addr, Key, QueryStatus, Value};
use std::time::Duration;

#[test]
fn write_read_cas_delete_through_the_simulated_testbed() {
    let mut cluster = NetChainCluster::testbed(ClusterConfig::default());
    let key = Key::from_name("integration/key");
    let lock = Key::from_name("integration/lock");
    cluster.populate_key(key, &Value::from_u64(1));
    cluster.populate_key(lock, &Value::from_u64(0));
    cluster.install_scripted_client(
        0,
        vec![
            KvOp::Read(key),
            KvOp::Write(key, Value::from_u64(7)),
            KvOp::Read(key),
            KvOp::Cas {
                key: lock,
                expected: 0,
                new: 99,
            },
            KvOp::Cas {
                key: lock,
                expected: 0,
                new: 100,
            },
            KvOp::Delete(key),
            KvOp::Read(key),
        ],
    );
    cluster.sim.run_for(SimDuration::from_millis(100));
    let client = cluster.scripted_client(0).unwrap();
    assert!(client.is_done());
    let r = client.results();
    assert_eq!(r[0].value.as_u64(), Some(1));
    assert_eq!(r[1].status, Some(QueryStatus::Ok));
    assert_eq!(r[2].value.as_u64(), Some(7));
    assert_eq!(r[3].status, Some(QueryStatus::Ok));
    assert_eq!(r[4].status, Some(QueryStatus::CasFailed));
    assert_eq!(r[5].status, Some(QueryStatus::Ok));
    assert_eq!(
        r[6].status,
        Some(QueryStatus::NotFound),
        "deleted key is gone"
    );
    assert_eq!(client.agent_stats().version_regressions, 0);
}

#[test]
fn concurrent_clients_never_observe_version_regressions() {
    let mut cluster = NetChainCluster::testbed(ClusterConfig::default());
    cluster.populate_store(500, 64);
    for host in 0..4 {
        cluster.install_workload_client(
            host,
            WorkloadSpec::mixed(500, u64::MAX, 50, 50),
            5_000.0,
            SimDuration::from_millis(200),
            SimDuration::from_millis(200),
        );
    }
    cluster.sim.run_for(SimDuration::from_millis(250));
    let mut total_completed = 0;
    for host in 0..4 {
        let stats = cluster
            .workload_client(host)
            .unwrap()
            .client()
            .agent_stats();
        assert_eq!(stats.version_regressions, 0, "host {host} saw a regression");
        total_completed += stats.completed;
    }
    assert!(
        total_completed > 1_000,
        "clients made progress: {total_completed}"
    );
}

#[test]
fn chain_replicas_converge_after_writes() {
    let mut cluster = NetChainCluster::testbed(ClusterConfig::default());
    let key = Key::from_name("convergence");
    let chain = cluster.populate_key(key, &Value::from_u64(0));
    cluster.install_scripted_client(
        0,
        (1..=20)
            .map(|i| KvOp::Write(key, Value::from_u64(i)))
            .collect(),
    );
    cluster.sim.run_for(SimDuration::from_millis(100));
    assert!(cluster.scripted_client(0).unwrap().is_done());
    // Every replica stores the final value with the same sequence number.
    let mut versions = Vec::new();
    for switch_idx in 0..4 {
        let node = cluster.switch(switch_idx);
        let ip = Ipv4Addr::for_switch(switch_idx as u32);
        if !chain.contains(ip) {
            continue;
        }
        let kv = node.switch().kv();
        let slot = kv.lookup(&key).expect("chain member stores the key");
        assert_eq!(kv.read_value(slot).as_u64(), Some(20));
        versions.push(kv.seq(slot));
    }
    assert_eq!(versions.len(), 3);
    assert!(
        versions.windows(2).all(|w| w[0] == w[1]),
        "replicas agree: {versions:?}"
    );
}

/// The §8.4 failure on the simulated testbed: S0–S2 form the ring and S3 is
/// the spare. S1, a middle switch for most chains, is killed at 3 s under
/// H0's 2 kQPS of 50 % writes over `keys` keys, issued for `issue` s.
/// Recovery onto S3 starts `delay` s after failover and synchronises for
/// `sync` s in `groups` virtual groups; the run lasts `run` s.
fn middle_switch_failure(
    keys: u64,
    groups: u32,
    delay: u64,
    sync: u64,
    issue: u64,
    run: u64,
) -> NetChainCluster {
    let config = ClusterConfig {
        ring_switches: Some(3),
        reactions: Reactions {
            recovery_delay: Duration::from_secs(delay),
            sync_duration: Duration::from_secs(sync),
            replacement: Some(Ipv4Addr::for_switch(3)),
            recovery_groups: Some(groups),
            ..ClusterConfig::default().reactions
        },
        ..Default::default()
    };
    let mut cluster = NetChainCluster::testbed(config);
    cluster.populate_store(keys, 64);
    cluster.install_workload_client(
        0,
        WorkloadSpec::mixed(keys, u64::MAX, 50, 50),
        2_000.0,
        SimDuration::from_secs(issue),
        SimDuration::from_secs(1),
    );
    let kill = FaultOp::Kill(Ipv4Addr::for_switch(1));
    cluster.inject(&Schedule::new(0).at(Duration::from_secs(3), kill));
    cluster.sim.run_for(SimDuration::from_secs(run));
    cluster
}

#[test]
fn middle_switch_failure_heals_without_regressions() {
    let cluster = middle_switch_failure(300, 10, 2, 4, 12, 14);
    let client = cluster.workload_client(0).unwrap();
    let stats = client.client().agent_stats();
    assert_eq!(stats.version_regressions, 0);
    // The controller completed recovery onto S3.
    let reactor = cluster.controller().reactor();
    let repaired = reactor.timelines().iter().filter(|(_, t)| t.repaired());
    assert_eq!(repaired.count(), 1);
    let (s1, s3) = (Ipv4Addr::for_switch(1), Ipv4Addr::for_switch(3));
    assert_eq!(reactor.view().stands_for, [(s3, s1)]);
    // Throughput in the final seconds is back near the plateau.
    let series = client.throughput().rate_series();
    let plateau: f64 = series.iter().take(3).map(|&(_, r)| r).sum::<f64>() / 3.0;
    let tail: f64 = series.iter().rev().take(2).map(|&(_, r)| r).sum::<f64>() / 2.0;
    assert!(
        tail > plateau * 0.8,
        "throughput should recover: plateau {plateau:.0}, tail {tail:.0}"
    );
    // The replacement switch now holds data.
    assert!(cluster.switch(3).switch().kv().store_size() > 0);
}

/// Figure 10's shape in virtual time, scaled down from the paper's timings:
/// recovery starts 3 s after the kill and synchronises for 12 s, in 24 s of
/// load. Returns the client's throughput, normalised to the seconds before
/// the kill, averaged over the middle of the recovery window and over the
/// seconds after it.
fn recovery_and_post_recovery_means(groups: u32) -> (f64, f64) {
    let cluster = middle_switch_failure(2_000, groups, 3, 12, 24, 26);
    let series = cluster
        .workload_client(0)
        .unwrap()
        .throughput()
        .rate_series();
    // The mean rate of the one-second buckets starting in [from, to).
    let window_mean = |from: f64, to: f64| {
        let rates: Vec<f64> = series
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|&(_, r)| r)
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            rates.iter().sum::<f64>() / rates.len() as f64
        }
    };
    let plateau = window_mean(0.0, 2.0);
    (
        window_mean(11.0, 13.0) / plateau,
        window_mean(20.0, 24.0) / plateau,
    )
}

#[test]
fn one_virtual_group_halves_throughput_during_recovery() {
    let (recovery_mean, post_recovery_mean) = recovery_and_post_recovery_means(1);
    // 50 % writes all blocked during the single group's sync: the mean
    // normalised throughput during recovery should sit near 0.5.
    assert!(
        recovery_mean < 0.75,
        "expected a large drop, got {recovery_mean}"
    );
    assert!(
        post_recovery_mean > 0.8,
        "throughput must recover, got {post_recovery_mean}"
    );
}

#[test]
fn many_virtual_groups_barely_dent_throughput() {
    let (recovery_mean, _) = recovery_and_post_recovery_means(50);
    assert!(
        recovery_mean > 0.9,
        "with many virtual groups recovery should be almost invisible, got {recovery_mean}"
    );
}

#[test]
fn a_stalled_switch_keeps_its_queue_and_answers_late() {
    // S0, the switch host 0 hangs off, stalls for 2 ms as the run starts:
    // alive, but nothing gets in or out. The timeout is longer than the stall,
    // so the first query is not retransmitted: it waits in S0's queue and is
    // answered late; the ones after it never wait.
    let config = ClusterConfig {
        agent_timeout: SimDuration::from_millis(5),
        ..ClusterConfig::default()
    };
    let mut cluster = NetChainCluster::testbed(config);
    let key = Key::from_name("integration/stalled");
    cluster.populate_key(key, &Value::from_u64(1));
    let stall = Duration::from_millis(2);
    let s0 = Ipv4Addr::for_switch(0);
    cluster.inject(&Schedule::new(0).at(Duration::ZERO, FaultOp::Stall(s0, stall)));
    cluster.install_scripted_client(
        0,
        vec![
            KvOp::Write(key, Value::from_u64(2)),
            KvOp::Read(key),
            KvOp::Read(key),
        ],
    );
    cluster.sim.run_for(SimDuration::from_millis(50));
    let client = cluster.scripted_client(0).unwrap();
    assert!(client.is_done());
    let r = client.results();
    let waited = |i: usize| r[i].latency.as_nanos() >= stall.as_nanos() as u64;
    assert!(
        r.iter().all(|done| done.is_ok() && done.retries == 0),
        "{r:?}"
    );
    assert!(waited(0) && !waited(1) && !waited(2), "{r:?}");
    assert_eq!(r[2].value.as_u64(), Some(2));
}

#[test]
fn loopback_udp_dataplane_round_trips() {
    use netchain::net::{NetConfig, NetDataplane};
    let cluster = NetChainCluster::testbed(ClusterConfig::default());
    let key = Key::from_name("it/loopback");
    let config = NetConfig::new(cluster.ring().clone(), 2, ClusterConfig::default().pipeline);
    let plane =
        NetDataplane::start(config, &[(key, Value::from_u64(0))]).expect("loopback sockets");
    // A retry timer longer than a loaded test box's scheduling hiccups.
    let agent = cluster
        .agent_config(0)
        .with_timeout(SimDuration::from_millis(50));
    let mut client = plane.client(agent).expect("client");
    client.write(key, Value::from_u64(77)).expect("write");
    let read = client.read(key).expect("read");
    assert_eq!(read.value.as_u64(), Some(77));
    assert_eq!(client.agent_stats().version_regressions, 0);
}

#[test]
fn netchain_outperforms_baseline_on_identical_workload() {
    use netchain::experiments::zk::{zk_saturation_qps, ServerCostModel};
    let duration = SimDuration::from_millis(100);

    // NetChain: one open-loop client at 400 KQPS gets everything answered
    // (the simulated fabric and switches are nowhere near saturation).
    let mut cluster = NetChainCluster::testbed(ClusterConfig::default());
    cluster.populate_store(1_000, 64);
    cluster.install_workload_client(
        0,
        WorkloadSpec::mixed(1_000, u64::MAX, 90, 10),
        400_000.0,
        duration,
        duration,
    );
    cluster.sim.run_for(duration + SimDuration::from_millis(10));
    let netchain_completed = cluster
        .workload_client(0)
        .unwrap()
        .client()
        .report()
        .completed;

    // Baseline: at the same 10 % writes, three servers saturate well below
    // that, however many clients keep them busy.
    let cost = ServerCostModel::zookeeper_calibrated();
    let baseline_completed = zk_saturation_qps(&cost, 3, 0.1) * duration.as_secs_f64();

    assert!(
        netchain_completed as f64 > 2.0 * baseline_completed,
        "NetChain ({netchain_completed}) should clearly outpace the baseline ({baseline_completed:.0})"
    );
}
