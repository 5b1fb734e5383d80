//! Assembly of a baseline (ZooKeeper-like) deployment: an ensemble of servers
//! in a full mesh, plus clients connected to every server.
//!
//! The topology deliberately uses direct host-to-host links with datacenter
//! latencies instead of modelling the switch fabric: the baseline's
//! bottleneck is host processing and the reliable transport, not the fabric,
//! and the paper's comparison hinges on exactly that. (The NetChain side, by
//! contrast, is simulated hop by hop because its behaviour *is* the fabric.)

use crate::client::{BaselineClient, BaselineWorkload};
use crate::cost::ServerCostModel;
use crate::message::BaselineMsg;
use crate::server::ZkServer;
use netchain_sim::{LinkParams, NodeId, SimConfig, SimDuration, Simulator, TopologyBuilder};

/// Configuration of a baseline deployment.
#[derive(Debug, Clone, Copy)]
pub struct BaselineConfig {
    /// Number of servers in the ensemble (the paper uses 3).
    pub servers: usize,
    /// Number of client machines.
    pub clients: usize,
    /// Server cost model.
    pub cost: ServerCostModel,
    /// Link parameters between every pair of machines.
    pub link: LinkParams,
    /// Simulator configuration.
    pub sim: SimConfig,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            servers: 3,
            clients: 1,
            cost: ServerCostModel::zookeeper_calibrated(),
            link: LinkParams::datacenter_40g().with_latency(SimDuration::from_micros(5)),
            sim: SimConfig::default(),
        }
    }
}

/// A ready-to-run baseline deployment.
pub struct BaselineCluster {
    /// The simulator.
    pub sim: Simulator<BaselineMsg>,
    /// Server nodes (index 0 is the leader).
    pub servers: Vec<NodeId>,
    /// Client nodes.
    pub clients: Vec<NodeId>,
    config: BaselineConfig,
}

impl BaselineCluster {
    /// Builds the deployment with every client running `workload`.
    pub fn new(config: BaselineConfig, workload: BaselineWorkload) -> Self {
        assert!(config.servers >= 1, "need at least one server");
        let mut b = TopologyBuilder::new();
        let servers: Vec<NodeId> = (0..config.servers)
            .map(|i| b.add_host(format!("zk{i}")))
            .collect();
        let clients: Vec<NodeId> = (0..config.clients)
            .map(|i| b.add_host(format!("client{i}")))
            .collect();
        // Full mesh among servers.
        for i in 0..servers.len() {
            for j in (i + 1)..servers.len() {
                b.add_link(servers[i], servers[j], config.link);
            }
        }
        // Every client connects to every server.
        for &client in &clients {
            for &server in &servers {
                b.add_link(client, server, config.link);
            }
        }
        let topology = b.build();
        let mut sim = Simulator::new(topology, config.sim);

        let leader = servers[0];
        for (i, &node) in servers.iter().enumerate() {
            let peers: Vec<NodeId> = servers.iter().copied().filter(|&p| p != node).collect();
            let server = ZkServer::new(i == 0, leader, peers, servers.len(), config.cost);
            sim.install_node(node, Box::new(server));
        }
        for (i, &node) in clients.iter().enumerate() {
            // Spread client reads across the ensemble.
            let read_server = servers[i % servers.len()];
            let client = BaselineClient::new(read_server, leader, config.cost, workload);
            sim.install_node(node, Box::new(client));
        }
        BaselineCluster {
            sim,
            servers,
            clients,
            config,
        }
    }

    /// The configuration used to build the cluster.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    /// Pre-populates every server with `count` keys of `value_size` bytes.
    pub fn populate_store(&mut self, count: u64, value_size: usize) {
        for &node in &self.servers.clone() {
            let server = self
                .sim
                .node_as_mut::<ZkServer>(node)
                .expect("server nodes are ZkServer");
            for key in 0..count {
                server.populate(key, vec![0xcd; value_size]);
            }
        }
    }

    /// Borrow a client for inspection.
    pub fn client(&self, index: usize) -> &BaselineClient {
        self.sim
            .node_as::<BaselineClient>(self.clients[index])
            .expect("client nodes are BaselineClient")
    }

    /// Borrow a server for inspection.
    pub fn server(&self, index: usize) -> &ZkServer {
        self.sim
            .node_as::<ZkServer>(self.servers[index])
            .expect("server nodes are ZkServer")
    }

    /// Total completed queries across all clients.
    pub fn total_completed(&self) -> u64 {
        (0..self.clients.len())
            .map(|i| self.client(i).completed())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_sim::SimDuration;

    #[test]
    fn read_write_mix_completes_and_respects_roles() {
        let workload = BaselineWorkload {
            duration: SimDuration::from_millis(200),
            rate_qps: 0.0,
            closed_loop: 4,
            write_ratio: 0.5,
            num_keys: 100,
            ..Default::default()
        };
        let mut cluster = BaselineCluster::new(BaselineConfig::default(), workload);
        cluster.populate_store(100, 64);
        cluster.sim.run_for(SimDuration::from_millis(400));
        let completed = cluster.total_completed();
        assert!(completed > 10, "expected progress, got {completed}");
        // Only the leader sequences writes; followers see proposals.
        assert!(cluster.server(0).stats().writes > 0);
        assert_eq!(cluster.server(1).stats().writes, 0);
        assert!(cluster.server(1).stats().proposals > 0);
        assert_eq!(cluster.client(0).errors(), 0);
    }

    #[test]
    fn write_latency_exceeds_read_latency() {
        let workload = BaselineWorkload {
            duration: SimDuration::from_millis(300),
            rate_qps: 1_000.0,
            write_ratio: 0.5,
            num_keys: 50,
            ..Default::default()
        };
        let mut cluster = BaselineCluster::new(BaselineConfig::default(), workload);
        cluster.populate_store(50, 64);
        cluster.sim.run_for(SimDuration::from_millis(600));
        let client = cluster.client(0);
        let p50 =
            |h: netchain_telemetry::HistSnapshot| h.quantile(0.5).map(SimDuration::from_nanos);
        let read_p50 = p50(client.read_latency()).expect("reads completed");
        let write_p50 = p50(client.write_latency()).expect("writes completed");
        assert!(
            write_p50 > read_p50,
            "writes ({write_p50}) must be slower than reads ({read_p50})"
        );
        // Calibration sanity: reads are hundreds of µs, writes a few ms.
        assert!(read_p50.as_micros_f64() > 100.0);
        assert!(write_p50.as_micros_f64() > 1_000.0);
    }

    #[test]
    fn loss_hurts_throughput() {
        let workload = BaselineWorkload {
            duration: SimDuration::from_millis(300),
            rate_qps: 0.0,
            closed_loop: 8,
            write_ratio: 0.0,
            num_keys: 50,
            ..Default::default()
        };
        let run = |loss: f64| {
            let mut config = BaselineConfig::default();
            config.link = config.link.with_loss(loss);
            let mut cluster = BaselineCluster::new(config, workload);
            cluster.populate_store(50, 64);
            cluster.sim.run_for(SimDuration::from_millis(600));
            cluster.total_completed()
        };
        let clean = run(0.0);
        let lossy = run(0.05);
        assert!(
            lossy * 2 < clean,
            "5% loss should at least halve closed-loop throughput (clean={clean}, lossy={lossy})"
        );
    }
}
