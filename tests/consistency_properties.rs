//! Property-based tests of the protocol's consistency on the simulator that
//! runs it: Invariant 1 (per-key sequence monotonicity along the chain) and
//! client-visible version monotonicity under loss, duplication and
//! reordering, and read-your-writes. Consistency across overlapping
//! failures is argued by the executed fault schedules
//! (`crates/livectl/tests/schedules.rs`), not by a model of the protocol.

use netchain::core::{ClusterConfig, FaultOp, KvOp, NetChainCluster, Schedule, WorkloadSpec};
use netchain::sim::{LinkParams, SimConfig, SimDuration};
use netchain::wire::{Ipv4Addr, Key, Value};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under random loss, jitter-induced reordering, write ratios and seeds,
    /// no client ever observes a version regression and surviving chain
    /// replicas keep Invariant 1 (head sequence >= tail sequence). The loss
    /// and the jitter are static topology, on every link for the whole run;
    /// on top of them a fault schedule sets in 10 ms into the run that makes
    /// every link S0 has (the client's own, and the two the chains leave S0
    /// by) lose more, duplicate and reorder, seeded with the run.
    #[test]
    fn lossy_reordered_network_preserves_consistency(
        seed in 0u64..1_000,
        loss in 0.0f64..0.05,
        write_pct in 0u8..=100,
    ) {
        let config = ClusterConfig {
            sim: SimConfig::default().with_seed(seed),
            link: LinkParams::datacenter_40g()
                .with_loss(loss)
                .with_jitter(SimDuration::from_micros(5)),
            ..Default::default()
        };
        let mut cluster = NetChainCluster::testbed(config);
        let s0 = Ipv4Addr::for_switch(0);
        let mut faults = Schedule::new(seed);
        for other in [Ipv4Addr::for_host(0), Ipv4Addr::for_switch(1), Ipv4Addr::for_switch(3)] {
            for (from, to) in [(s0, other), (other, s0)] {
                let lossy = FaultOp::Link { from, to, drop: loss, dup: loss, reorder: loss };
                faults = faults.at(Duration::from_millis(10), lossy);
            }
        }
        cluster.inject(&faults);
        cluster.populate_store(50, 32);
        // The op stream is the client's own draw: seed it with the case too.
        let spec = WorkloadSpec {
            seed,
            ..WorkloadSpec::mixed(50, u64::MAX, 100 - write_pct, write_pct)
        };
        let window = SimDuration::from_millis(50);
        cluster.install_workload_client(0, spec, 20_000.0, window, window);
        cluster.sim.run_for(SimDuration::from_millis(80));
        let stats = cluster.workload_client(0).unwrap().client().agent_stats();
        prop_assert_eq!(stats.version_regressions, 0);

        // Invariant 1: along every key's chain, sequence numbers are
        // non-increasing from head to tail.
        let ring = cluster.ring().clone();
        for key_index in 0..50u64 {
            let key = Key::from_u64(key_index);
            let chain = ring.chain_for_key(&key);
            let mut previous: Option<(u64, u64)> = None;
            for ip in &chain.switches {
                let switch_idx = (0..4)
                    .find(|&i| Ipv4Addr::for_switch(i as u32) == *ip)
                    .expect("testbed switch");
                let kv = cluster.switch(switch_idx).switch().kv();
                let Some(slot) = kv.lookup(&key) else { continue };
                let ordering = kv.ordering(slot);
                if let Some(prev) = previous {
                    prop_assert!(
                        prev >= ordering,
                        "Invariant 1 violated for key {key_index}: upstream {prev:?} < downstream {ordering:?}"
                    );
                }
                previous = Some(ordering);
            }
        }
    }

    /// Scripted sequential writes through the cluster always read back the
    /// last written value, regardless of seed.
    #[test]
    fn read_your_writes_holds(seed in 0u64..1_000, final_value in 1u64..1_000_000) {
        let config = ClusterConfig {
            sim: SimConfig::default().with_seed(seed),
            ..Default::default()
        };
        let mut cluster = NetChainCluster::testbed(config);
        let key = Key::from_name("prop/key");
        cluster.populate_key(key, &Value::from_u64(0));
        cluster.install_scripted_client(
            1,
            vec![
                KvOp::Write(key, Value::from_u64(final_value ^ 1)),
                KvOp::Write(key, Value::from_u64(final_value)),
                KvOp::Read(key),
            ],
        );
        cluster.sim.run_for(SimDuration::from_millis(50));
        let client = cluster.scripted_client(1).unwrap();
        prop_assert!(client.is_done());
        prop_assert_eq!(client.results()[2].value.as_u64(), Some(final_value));
    }

}
