//! Figure 11: distributed-transaction throughput vs contention index, with
//! NetChain or the server-based baseline as the lock server.
//!
//! The NetChain line is *measured*: closed-loop 2PL transaction clients
//! (`netchain_apps::TxnClient`) run against a simulated NetChain deployment,
//! acquiring ten CAS locks per transaction and aborting on conflict. The
//! baseline line uses the calibrated analytic lock-server model of
//! [`crate::zk`] (its lock operations are leader writes at millisecond
//! latency, so simulating them adds nothing but runtime).

use crate::series::Series;
use crate::zk::{self, ServerCostModel};
use netchain_apps::{TxnClient, TxnWorkload};
use netchain_core::{ClusterConfig, NetChainCluster};
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
    // A fabric with enough hosts for the requested client count.
    let hosts_per_leaf = clients.div_ceil(4).max(1);
    let config = ClusterConfig {
        vnodes_per_switch: 8,
        ..Default::default()
    };
    let mut cluster = NetChainCluster::spine_leaf(2, 4, hosts_per_leaf, config);

    let workload = TxnWorkload {
        namespace: 1,
        locks_per_txn: params.locks_per_txn,
        contention_index,
        cold_items: params.cold_items,
        start: SimDuration::ZERO,
        duration: params.duration,
    };
    // Install every lock key on its chain.
    for key in workload.all_lock_keys() {
        cluster.populate_key(key, &Value::from_u64(0));
    }
    // Install the transaction clients on distinct hosts.
    let directory = cluster.directory();
    for client_idx in 0..clients {
        let host = cluster.layout.hosts[client_idx % cluster.layout.hosts.len()];
        let gw = cluster.layout.gateways[&host];
        let agent = cluster.agent_config(client_idx % cluster.layout.hosts.len());
        let txn_client = TxnClient::new(
            agent,
            directory.clone(),
            gw,
            client_idx as u64 + 1,
            workload,
        );
        cluster.sim.install_node(host, Box::new(txn_client));
    }
    cluster
        .sim
        .run_for(params.duration + SimDuration::from_millis(20));
    let mut committed = 0u64;
    for client_idx in 0..clients.min(cluster.layout.hosts.len()) {
        let host = cluster.layout.hosts[client_idx];
        if let Some(client) = cluster.sim.node_as::<TxnClient>(host) {
            committed += client.stats().committed;
        }
    }
    committed as f64 / params.duration.as_secs_f64()
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
}
