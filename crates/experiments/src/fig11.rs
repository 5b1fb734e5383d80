//! Figure 11: distributed-transaction throughput vs contention index, with
//! NetChain or the server-based baseline as the lock server.
//!
//! The NetChain line is *simulated*: closed-loop 2PL transaction clients
//! (the `netchain_apps::TxnClient` script, run by the simulator's sequential
//! `ScriptedClient`) run against a simulated 2 × 4 spine-leaf NetChain
//! fabric, acquiring ten CAS locks per transaction and aborting on conflict.
//! The baseline line is *modelled*: the calibrated analytic lock-server
//! model of [`crate::zk`] (its lock operations are leader writes at
//! millisecond latency, so simulating them adds nothing but runtime).

use crate::series::Series;
use crate::zk::{self, ServerCostModel};
use netchain_apps::{TxnClient, TxnWorkload};
use netchain_core::{ClusterConfig, NetChainCluster, ScriptedClient};
use netchain_sim::SimDuration;
use netchain_wire::Value;

/// Parameters for the transaction experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Params {
    /// How long each measured run lasts (simulated time).
    pub duration: SimDuration,
    /// Locks per transaction.
    pub locks_per_txn: usize,
    /// Size of the cold item set.
    pub cold_items: u64,
}

impl Default for Fig11Params {
    fn default() -> Self {
        Fig11Params {
            duration: SimDuration::from_millis(200),
            locks_per_txn: 10,
            cold_items: 10_000,
        }
    }
}

/// Measures NetChain transaction throughput (committed transactions per
/// second) for the given client count and contention index.
pub fn netchain_txn_throughput(clients: usize, contention_index: f64, params: Fig11Params) -> f64 {
    let cluster = run_txn_clients(clients, contention_index, params, cluster_config());
    committed(&cluster, clients) as f64 / params.duration.as_secs_f64()
}

/// Transactions the first `clients` hosts' clients committed.
fn committed(cluster: &NetChainCluster, clients: usize) -> u64 {
    cluster.layout.hosts[..clients]
        .iter()
        .filter_map(|&host| cluster.sim.node_as::<ScriptedClient<TxnClient>>(host))
        .map(|client| client.script().stats().committed)
        .sum()
}

/// The simulated fabric's settings: lossless links, 8 virtual nodes a switch.
fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        vnodes_per_switch: 8,
        ..Default::default()
    }
}

/// Runs `clients` transaction clients, one per host, for the measured
/// duration plus 20 ms to drain.
fn run_txn_clients(
    clients: usize,
    contention_index: f64,
    params: Fig11Params,
    config: ClusterConfig,
) -> NetChainCluster {
    // A fabric with enough hosts for the requested client count.
    let hosts_per_leaf = clients.div_ceil(4).max(1);
    let mut cluster = NetChainCluster::spine_leaf(2, 4, hosts_per_leaf, config);

    let workload = TxnWorkload {
        namespace: 1,
        locks_per_txn: params.locks_per_txn,
        contention_index,
        cold_items: params.cold_items,
        duration: params.duration,
    };
    // Install every lock key on its chain.
    for key in workload.all_lock_keys() {
        cluster.populate_key(key, &Value::from_u64(0));
    }
    let directory = cluster.directory();
    for client_idx in 0..clients {
        let host = cluster.layout.hosts[client_idx];
        let gw = cluster.layout.gateways[&host];
        let agent = cluster.agent_config(client_idx);
        let txn = TxnClient::new(client_idx as u64 + 1, workload);
        let client = ScriptedClient::with_script(agent, directory.clone(), gw, txn);
        cluster.sim.install_node(host, Box::new(client));
    }
    cluster
        .sim
        .run_for(params.duration + SimDuration::from_millis(20));
    cluster
}

/// Produces the Figure 11 series: one NetChain and one ZooKeeper line per
/// client count, over the given contention indices.
pub fn fig11(
    client_counts: &[usize],
    contention_indices: &[f64],
    params: Fig11Params,
) -> Vec<Series> {
    let cost = ServerCostModel::zookeeper_calibrated();
    let mut series = Vec::new();
    for &clients in client_counts {
        let netchain_points = contention_indices
            .iter()
            .map(|&ci| (ci, netchain_txn_throughput(clients, ci, params)))
            .collect();
        series.push(Series::new(
            format!("NetChain ({clients} clients)"),
            netchain_points,
        ));
        let zk_points = contention_indices
            .iter()
            .map(|&ci| {
                (
                    ci,
                    zk::zk_txn_throughput(&cost, 3, clients, params.locks_per_txn, ci),
                )
            })
            .collect();
        series.push(Series::new(
            format!("ZooKeeper ({clients} clients)"),
            zk_points,
        ));
    }
    series
}

/// CLI entry: `fig11`.
pub fn run_cli(_args: &[String]) -> i32 {
    let series = fig11(
        &[1, 10, 100],
        &[0.001, 0.01, 0.1, 1.0],
        Fig11Params::default(),
    );
    crate::print_series(
        "Figure 11: transaction throughput vs contention index",
        "contention index",
        "throughput (txn/s)",
        &series,
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_sim::LinkParams;
    use netchain_wire::{Ipv4Addr, Key};

    fn quick_params() -> Fig11Params {
        Fig11Params {
            duration: SimDuration::from_millis(40),
            locks_per_txn: 4,
            cold_items: 500,
        }
    }

    #[test]
    fn netchain_beats_zookeeper_by_orders_of_magnitude() {
        let params = quick_params();
        let nc = netchain_txn_throughput(4, 0.01, params);
        let zk = zk::zk_txn_throughput(
            &ServerCostModel::zookeeper_calibrated(),
            3,
            4,
            params.locks_per_txn,
            0.01,
        );
        assert!(nc > 10.0 * zk, "NetChain {nc} vs ZooKeeper {zk}");
    }

    /// One client over 40 ms keeps one retry timer: at most about one fires
    /// per timeout, not one per lock op.
    #[test]
    fn a_transaction_client_keeps_one_retry_timer() {
        let params = quick_params();
        let cluster = run_txn_clients(1, 0.01, params, cluster_config());
        let run = params.duration.as_nanos();
        let timeout = ClusterConfig::default().agent_timeout.as_nanos();
        let fired = cluster.sim.stats().timers_fired;
        assert!(
            fired <= 2 * (run / timeout) + 2,
            "{fired} timers in a {run} ns run"
        );
    }

    #[test]
    fn contention_reduces_netchain_throughput_with_many_clients() {
        let params = quick_params();
        let low = netchain_txn_throughput(8, 0.01, params);
        let high = netchain_txn_throughput(8, 1.0, params);
        assert!(
            high < low,
            "a single hot lock must reduce throughput: low-contention {low} vs high-contention {high}"
        );
    }

    /// Locks still held once every client has stopped, by the replica of
    /// each lock key with the highest `(session, seq)`.
    fn leaked_locks(cluster: &NetChainCluster, workload: &TxnWorkload) -> usize {
        let switches = cluster.layout.switches.len() as u32;
        let replica = |ip| (0..switches).position(|i| Ipv4Addr::for_switch(i) == ip);
        let owner = |key: &Key| {
            let chain = cluster.ring().chain_for_key(key).switches;
            let replicas = chain.into_iter().filter_map(|ip| {
                let kv = cluster.switch(replica(ip)?).switch().kv();
                let slot = kv.lookup(key)?;
                Some((kv.ordering(slot), kv.value_u64(slot).unwrap_or(0)))
            });
            replicas.max().map_or(0, |(_, owner)| owner)
        };
        let keys = workload.all_lock_keys();
        keys.iter().filter(|key| owner(key) != 0).count()
    }

    /// Figure 11's shape under packet loss on every link: 10 clients, 50 ms
    /// of transactions, then 350 ms idle. A retried acquire that finds the
    /// lock already its own holds it, and an abandoned acquire is released
    /// on abort, so no lock is left held. (Whether every replica agrees once
    /// idle is the switch's half: a failed CAS is answered by the head.)
    #[test]
    fn no_lock_leaks_under_loss() {
        let params = Fig11Params {
            duration: SimDuration::from_millis(50),
            locks_per_txn: 10,
            cold_items: 1_000,
        };
        let workload = TxnWorkload {
            namespace: 1,
            locks_per_txn: params.locks_per_txn,
            contention_index: 0.01,
            cold_items: params.cold_items,
            duration: params.duration,
        };
        for loss_rate in [0.001, 0.01] {
            let base = cluster_config();
            let config = ClusterConfig {
                link: LinkParams {
                    loss_rate,
                    ..base.link
                },
                ..base
            };
            let mut cluster = run_txn_clients(10, workload.contention_index, params, config);
            cluster.sim.run_for(SimDuration::from_millis(330));
            assert!(
                committed(&cluster, 10) > 0,
                "loss {loss_rate}: nothing committed"
            );
            assert_eq!(leaked_locks(&cluster, &workload), 0, "loss {loss_rate}");
        }
    }
}
