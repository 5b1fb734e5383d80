//! Distributed locking (§8.5): run the two-phase-locking transaction
//! benchmark with NetChain as the lock server and compare against the
//! calibrated ZooKeeper-style lock server model, at several contention
//! levels.
//!
//! Run with: `cargo run --release --example lock_service`

use netchain::apps::TxnWorkload;
use netchain::experiments::fig11::{netchain_txn_throughput, Fig11Params};
use netchain::experiments::zk::{zk_txn_throughput, ServerCostModel};
use netchain::sim::SimDuration;

fn main() {
    let params = Fig11Params {
        duration: SimDuration::from_millis(100),
        locks_per_txn: 10,
        cold_items: 5_000,
    };
    let cost = ServerCostModel::zookeeper_calibrated();
    let clients = 10;

    println!("2PL transactions, {clients} clients, 10 locks per transaction");
    println!(
        "{:>18}{:>12}{:>22}{:>22}",
        "contention index", "hot items", "NetChain (txn/s)", "ZooKeeper (txn/s)"
    );
    for contention in [0.001, 0.01, 0.1, 1.0] {
        let workload = TxnWorkload {
            contention_index: contention,
            ..Default::default()
        };
        let netchain = netchain_txn_throughput(clients, contention, params);
        let zookeeper = zk_txn_throughput(&cost, 3, clients, params.locks_per_txn, contention);
        println!(
            "{:>18}{:>12}{:>22.0}{:>22.0}",
            contention,
            workload.hot_items(),
            netchain,
            zookeeper
        );
    }
    println!();
    println!(
        "NetChain's in-network CAS locks complete in microseconds, so even under \
         contention the lock server is never the bottleneck — the shape of Figure 11."
    );
}
