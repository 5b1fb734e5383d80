//! Cluster assembly: builds a complete NetChain deployment — switches running
//! the NetChain program, hosts running client agents, and the controller — on
//! top of the discrete-event simulator, for either the four-switch testbed of
//! Figure 8 or an arbitrary spine–leaf fabric (§8.3).

use crate::agent::AgentConfig;
use crate::client::{LoadHost, ScriptedClient};
use crate::controller::Controller;
use crate::directory::{AddressMap, ChainDirectory};
use crate::fault::{FaultOp, Schedule};
use crate::hashring::HashRing;
use crate::loadgen::{ClientState, WorkloadSpec};
use crate::message::NetMsg;
use crate::reactor::{Reactions, Reactor};
use crate::switch_node::SwitchNode;
use crate::types::KvOp;
use netchain_sim::{
    Event, LinkParams, NodeId, NodeKind, RoutingTables, SimConfig, SimDuration, SimTime, Simulator,
    Topology, TopologyBuilder,
};
use netchain_switch::{NetChainSwitch, PipelineConfig};
use netchain_wire::{Ipv4Addr, Key, Value};
use std::collections::HashMap;
use std::time::Duration;

/// Configuration of a whole cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Chain length, `f + 1`. The paper and all experiments use 3.
    pub replication: usize,
    /// Virtual nodes per switch (total virtual groups = switches × this).
    pub vnodes_per_switch: usize,
    /// Restrict the consistent-hash ring to the first N switches, leaving the
    /// rest as spares for failure recovery (the testbed experiment keeps S3
    /// out of the ring so it can replace a failed chain member). `None` puts
    /// every switch in the ring.
    pub ring_switches: Option<usize>,
    /// Seed for virtual-node placement on the ring.
    pub ring_seed: u64,
    /// Switch pipeline geometry.
    pub pipeline: PipelineConfig,
    /// Link parameters applied to every link.
    pub link: LinkParams,
    /// Simulator configuration (seed, control-channel latency).
    pub sim: SimConfig,
    /// How the controller reacts to a kill; its detection delay is also when
    /// the survivors' underlay learns of the death.
    pub reactions: Reactions,
    /// Client agent retransmission timeout / retry budget template.
    pub agent_timeout: netchain_sim::SimDuration,
    /// Client agent retry budget.
    pub agent_max_retries: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replication: 3,
            vnodes_per_switch: 25,
            ring_switches: None,
            ring_seed: 7,
            pipeline: PipelineConfig::tofino_prototype(),
            link: LinkParams::datacenter_40g(),
            sim: SimConfig::default(),
            // The paper's timings: 10 ms detection, recovery 20 s after
            // failover, 150 s of state synchronisation.
            reactions: Reactions {
                failover_delay: Duration::from_millis(10),
                recovery_delay: Duration::from_secs(20),
                sync_duration: Duration::from_secs(150),
                ..Reactions::default()
            },
            agent_timeout: netchain_sim::SimDuration::from_millis(1),
            agent_max_retries: 10,
        }
    }
}

/// Where everything ended up in the simulator.
#[derive(Debug, Clone)]
pub struct ClusterLayout {
    /// Switch nodes, in switch-index order (S0, S1, …).
    pub switches: Vec<NodeId>,
    /// Host nodes, in host-index order (H0, H1, …).
    pub hosts: Vec<NodeId>,
    /// The controller node.
    pub controller: NodeId,
    /// IP ↔ node mapping.
    pub addr: AddressMap,
    /// Each host's ToR switch (gateway).
    pub gateways: HashMap<NodeId, NodeId>,
}

/// A complete NetChain deployment ready to run.
pub struct NetChainCluster {
    /// The simulator. Exposed so experiments can drive time and inspect nodes
    /// directly.
    pub sim: Simulator<NetMsg>,
    /// Node layout.
    pub layout: ClusterLayout,
    ring: HashRing,
    config: ClusterConfig,
}

impl NetChainCluster {
    /// Builds the four-switch, four-server testbed of Figure 8.
    pub fn testbed(config: ClusterConfig) -> Self {
        let mut b = TopologyBuilder::new();
        let switches: Vec<NodeId> = (0..4).map(|i| b.add_switch(format!("S{i}"))).collect();
        let hosts: Vec<NodeId> = (0..4).map(|i| b.add_host(format!("H{i}"))).collect();
        b.add_link(switches[0], switches[1], config.link);
        b.add_link(switches[1], switches[2], config.link);
        b.add_link(switches[0], switches[3], config.link);
        b.add_link(switches[3], switches[2], config.link);
        b.add_link(hosts[0], switches[0], config.link);
        b.add_link(hosts[1], switches[2], config.link);
        b.add_link(hosts[2], switches[2], config.link);
        b.add_link(hosts[3], switches[2], config.link);
        let controller = b.add_controller("controller");
        let topology = b.build();
        Self::assemble(topology, switches, hosts, controller, config)
    }

    /// Builds a spine–leaf deployment: `n_spine` spines, `n_leaf` leaves,
    /// `hosts_per_leaf` hosts per rack. All switches (spines and leaves) are
    /// NetChain nodes, as in the paper's scalability study.
    pub fn spine_leaf(
        n_spine: usize,
        n_leaf: usize,
        hosts_per_leaf: usize,
        config: ClusterConfig,
    ) -> Self {
        let mut b = TopologyBuilder::new();
        let spines: Vec<NodeId> = (0..n_spine)
            .map(|i| b.add_switch(format!("spine{i}")))
            .collect();
        let leaves: Vec<NodeId> = (0..n_leaf)
            .map(|i| b.add_switch(format!("leaf{i}")))
            .collect();
        let mut hosts = Vec::new();
        for (li, &leaf) in leaves.iter().enumerate() {
            for &spine in &spines {
                b.add_link(leaf, spine, config.link);
            }
            for hi in 0..hosts_per_leaf {
                let host = b.add_host(format!("host{li}-{hi}"));
                b.add_link(host, leaf, config.link);
                hosts.push(host);
            }
        }
        let controller = b.add_controller("controller");
        let topology = b.build();
        let switches: Vec<NodeId> = spines.into_iter().chain(leaves).collect();
        Self::assemble(topology, switches, hosts, controller, config)
    }

    fn assemble(
        topology: Topology,
        switches: Vec<NodeId>,
        hosts: Vec<NodeId>,
        controller: NodeId,
        config: ClusterConfig,
    ) -> Self {
        // Address assignment.
        let mut addr = AddressMap::new();
        for (i, &node) in switches.iter().enumerate() {
            addr.register(node, Ipv4Addr::for_switch(i as u32));
        }
        for (i, &node) in hosts.iter().enumerate() {
            addr.register(node, Ipv4Addr::for_host(i as u32));
        }
        addr.register(controller, Ipv4Addr::for_controller());

        // The ring over switch IPs (optionally only a prefix of the switches,
        // leaving the rest as recovery spares).
        let ring_count = config
            .ring_switches
            .unwrap_or(switches.len())
            .min(switches.len());
        let switch_ips: Vec<Ipv4Addr> = (0..ring_count)
            .map(|i| Ipv4Addr::for_switch(i as u32))
            .collect();
        let ring = HashRing::new(
            switch_ips,
            config.vnodes_per_switch,
            config.replication,
            config.ring_seed,
        );

        // Per-switch underlay forwarding tables (dst IP → next-hop neighbour).
        let routing = RoutingTables::compute(&topology);
        let mut l3_tables: HashMap<NodeId, HashMap<Ipv4Addr, Vec<NodeId>>> = HashMap::new();
        for &sw in &switches {
            let mut table = HashMap::new();
            for dst_node in switches.iter().chain(hosts.iter()) {
                if *dst_node == sw {
                    continue;
                }
                let dst_ip = addr.ip_of(*dst_node).expect("registered above");
                let hops = routing.next_hops(sw, *dst_node);
                if hops.is_empty() {
                    continue;
                }
                // Rotate the equal-cost set by a per-destination hash so
                // different flows prefer different paths (ECMP), while the
                // rest of the set remains available for fast reroute.
                let mut ordered: Vec<NodeId> = hops.to_vec();
                let rotation = (u64::from(dst_ip.to_u32()) % hops.len() as u64) as usize;
                ordered.rotate_left(rotation);
                table.insert(dst_ip, ordered);
            }
            l3_tables.insert(sw, table);
        }

        // Gateways: each host's single ToR switch.
        let mut gateways = HashMap::new();
        for &host in &hosts {
            let neighbors = topology.neighbors(host);
            if let Some(&gw) = neighbors.first() {
                gateways.insert(host, gw);
            }
        }

        // Controller's view of switch adjacency (switch → neighbouring
        // switches only).
        let mut switch_neighbors: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for &sw in &switches {
            let neighbors: Vec<NodeId> = topology
                .neighbors(sw)
                .iter()
                .copied()
                .filter(|n| topology.kind(*n) == NodeKind::Switch)
                .collect();
            switch_neighbors.insert(sw, neighbors);
        }

        let layout = ClusterLayout {
            switches: switches.clone(),
            hosts: hosts.clone(),
            controller,
            addr: addr.clone(),
            gateways: gateways.clone(),
        };

        let mut sim = Simulator::new(topology, config.sim);
        // Switches.
        for &sw in &switches {
            let ip = addr.ip_of(sw).expect("registered");
            let data_plane = NetChainSwitch::new(ip, config.pipeline);
            let node = SwitchNode::new(
                data_plane,
                l3_tables.remove(&sw).unwrap_or_default(),
                config.sim.control_latency,
            );
            sim.install_node(sw, Box::new(node));
        }
        // Hosts start as idle scripted clients; experiments replace them.
        let directory = ChainDirectory::new(ring.clone());
        for &host in &hosts {
            let ip = addr.ip_of(host).expect("registered");
            let gw = gateways.get(&host).copied().unwrap_or(host);
            let agent = AgentConfig::new(ip)
                .with_timeout(config.agent_timeout)
                .with_max_retries(config.agent_max_retries);
            sim.install_node(
                host,
                Box::new(ScriptedClient::idle(agent, directory.clone(), gw)),
            );
        }
        // The controller; switches held out of the ring are its spares.
        let spares = (ring_count..switches.len()).map(|i| Ipv4Addr::for_switch(i as u32));
        let reactor = Reactor::new(ring.clone(), spares.collect(), config.reactions);
        let node = Controller::new(reactor, config.sim.control_latency, addr, switch_neighbors);
        sim.install_node(controller, Box::new(node));

        NetChainCluster {
            sim,
            layout,
            ring,
            config,
        }
    }

    /// The consistent-hash ring in use.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// A fresh chain directory (what an agent would be bootstrapped with).
    pub fn directory(&self) -> ChainDirectory {
        ChainDirectory::new(self.ring.clone())
    }

    /// The agent configuration template for the host at `host_index`.
    pub fn agent_config(&self, host_index: usize) -> AgentConfig {
        let host = self.layout.hosts[host_index];
        let ip = self.layout.addr.ip_of(host).expect("hosts have addresses");
        AgentConfig::new(ip)
            .with_timeout(self.config.agent_timeout)
            .with_max_retries(self.config.agent_max_retries)
    }

    /// Installs (pre-populates) a key on every switch of its chain, the way
    /// the controller would process an `Insert` (§4.1). Returns the chain it
    /// was installed on.
    pub fn populate_key(&mut self, key: Key, value: &Value) -> crate::hashring::ChainDescriptor {
        let chain = self.ring.chain_for_key(&key);
        for &ip in &chain.switches {
            let node = self
                .layout
                .addr
                .node_of(ip)
                .expect("chain switches are registered");
            let switch = self
                .sim
                .node_as_mut::<SwitchNode>(node)
                .expect("switch nodes are SwitchNode");
            let _ = switch.switch_mut().kv_mut().insert(key, value);
        }
        chain
    }

    /// Pre-populates `count` keys (`Key::from_u64(0..count)`) with values of
    /// `value_size` bytes — the "store size" knob of Figure 9(b).
    pub fn populate_store(&mut self, count: u64, value_size: usize) {
        let value = Value::filled(0xcd, value_size.min(netchain_wire::MAX_VALUE_LEN))
            .expect("bounded size");
        for i in 0..count {
            self.populate_key(Key::from_u64(i), &value);
        }
    }

    /// Replaces the host at `host_index` with a [`LoadHost`]: client
    /// `host_index` issuing `spec`'s op mix open loop (no window, no op
    /// budget) on Poisson arrivals at `rate_qps` for `duration`, its
    /// completions counted into `bucket`-wide throughput buckets.
    pub fn install_workload_client(
        &mut self,
        host_index: usize,
        spec: WorkloadSpec,
        rate_qps: f64,
        duration: SimDuration,
        bucket: SimDuration,
    ) {
        let host = self.layout.hosts[host_index];
        let gw = self.layout.gateways[&host];
        let agent = self.agent_config(host_index);
        let spec = WorkloadSpec {
            window: usize::MAX,
            ops_per_client: u64::MAX,
            ..spec
        };
        let client = ClientState::with_agent_config(host_index as u32, &self.ring, spec, agent);
        let load = LoadHost::new(client, gw, agent.timeout, rate_qps, duration, bucket);
        self.sim.install_node(host, Box::new(load));
    }

    /// Replaces the host at `host_index` with a scripted client executing the
    /// given operations sequentially.
    pub fn install_scripted_client(&mut self, host_index: usize, script: Vec<KvOp>) {
        self.install_scripted_client_at(host_index, script, netchain_sim::SimDuration::ZERO);
    }

    /// Like [`Self::install_scripted_client`], but the script starts issuing
    /// only after `delay` — for phased experiments (e.g. a script that runs
    /// during the failover window and another after recovery).
    pub fn install_scripted_client_at(
        &mut self,
        host_index: usize,
        script: Vec<KvOp>,
        delay: netchain_sim::SimDuration,
    ) {
        let host = self.layout.hosts[host_index];
        let gw = self.layout.gateways[&host];
        let agent = self.agent_config(host_index);
        let client =
            ScriptedClient::new(agent, self.directory(), gw, script).with_start_delay(delay);
        self.sim.install_node(host, Box::new(client));
    }

    /// Delivers a fault schedule: lowers every op onto the simulator's event
    /// queue (a kill is a node going down, its survivors told so one
    /// `Reactions::failover_delay` later; a revived switch restarts empty and
    /// inactive; a link is a pair of adjacent nodes), folds the schedule's
    /// seed into the simulator's one generator, and hands the schedule to the
    /// controller's agenda. Call it before the run starts. A schedule naming a
    /// switch, node or link the cluster does not have is refused.
    pub fn inject(&mut self, schedule: &Schedule) {
        let (addr, sim) = (&self.layout.addr, &mut self.sim);
        let topology = sim.topology();
        let kind = |ip| addr.node_of(ip).map(|n| topology.kind(n));
        let adjacent = |(a, b)| topology.neighbors(a).contains(&b);
        schedule.check(
            |ip| kind(ip) == Some(NodeKind::Switch),
            |ip| kind(ip).is_some(),
            |a, b| addr.node_of(a).zip(addr.node_of(b)).is_some_and(adjacent),
        );
        sim.reseed(self.config.sim.seed.wrapping_add(schedule.seed));
        let node = |ip| addr.node_of(ip).expect("checked");
        let time = |at: Duration| SimTime(at.as_nanos() as u64);
        for &(at, op) in &schedule.ops {
            let event = match op {
                FaultOp::Kill(ip) => Event::NodeDown { node: node(ip) },
                FaultOp::Revive(ip) => Event::NodeUp { node: node(ip) },
                FaultOp::Stall(ip, dur) => Event::Stall {
                    node: node(ip),
                    dur: SimDuration::from_nanos(dur.as_nanos() as u64),
                },
                FaultOp::Link {
                    from,
                    to,
                    drop,
                    dup,
                    reorder,
                } => Event::LinkFault {
                    from: node(from),
                    to: node(to),
                    rates: [drop, dup, reorder],
                },
            };
            sim.schedule(time(at), event);
            let told = match op {
                FaultOp::Kill(ip) => Event::NotifyDown { node: node(ip) },
                FaultOp::Revive(ip) => Event::NotifyUp { node: node(ip) },
                _ => continue,
            };
            sim.schedule(time(at + self.config.reactions.failover_delay), told);
        }
        let controller = self.sim.node_as_mut::<Controller>(self.layout.controller);
        controller.expect("a Controller").load(schedule);
    }

    /// Borrow the load host installed at `host_index`.
    pub fn workload_client(&self, host_index: usize) -> Option<&LoadHost> {
        self.sim.node_as::<LoadHost>(self.layout.hosts[host_index])
    }

    /// Borrow the scripted client installed at `host_index`.
    pub fn scripted_client(&self, host_index: usize) -> Option<&ScriptedClient> {
        self.sim
            .node_as::<ScriptedClient>(self.layout.hosts[host_index])
    }

    /// Turns on in-band trace stamping on every switch. All switches share
    /// one sink (the simulator is single-threaded); drain it after the run
    /// for the per-hop chain breakdowns. Clients do not stamp — the sink
    /// records the switch-visit sequence, which is what differential checks
    /// against the fabric compare.
    pub fn enable_switch_tracing(
        &mut self,
        config: netchain_telemetry::TraceConfig,
    ) -> std::rc::Rc<std::cell::RefCell<netchain_telemetry::TraceSink>> {
        let sink = std::rc::Rc::new(std::cell::RefCell::new(netchain_telemetry::TraceSink::new(
            config,
        )));
        for &node in &self.layout.switches {
            let switch = self
                .sim
                .node_as_mut::<SwitchNode>(node)
                .expect("switch nodes are SwitchNode");
            switch.set_tracer(std::rc::Rc::clone(&sink));
        }
        sink
    }

    /// Borrow the switch adapter at `switch_index`.
    pub fn switch(&self, switch_index: usize) -> &SwitchNode {
        self.sim
            .node_as::<SwitchNode>(self.layout.switches[switch_index])
            .expect("switch nodes are SwitchNode")
    }

    /// Borrow the controller.
    pub fn controller(&self) -> &Controller {
        self.sim
            .node_as::<Controller>(self.layout.controller)
            .expect("controller node is Controller")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_sim::SimDuration;
    use netchain_wire::QueryStatus;

    #[test]
    fn testbed_layout_and_population() {
        let mut cluster = NetChainCluster::testbed(ClusterConfig::default());
        assert_eq!(cluster.layout.switches.len(), 4);
        assert_eq!(cluster.layout.hosts.len(), 4);
        let chain = cluster.populate_key(Key::from_name("foo"), &Value::from_u64(1));
        assert_eq!(chain.len(), 3);
        // Every switch in the chain now stores the key.
        for &ip in &chain.switches {
            let idx = (0..4)
                .find(|&i| Ipv4Addr::for_switch(i as u32) == ip)
                .unwrap();
            assert!(cluster
                .switch(idx)
                .switch()
                .kv()
                .lookup(&Key::from_name("foo"))
                .is_some());
        }
    }

    #[test]
    fn scripted_write_then_read_end_to_end() {
        let mut cluster = NetChainCluster::testbed(ClusterConfig::default());
        cluster.populate_key(Key::from_name("foo"), &Value::from_u64(0));
        cluster.install_scripted_client(
            0,
            vec![
                KvOp::Write(Key::from_name("foo"), Value::from_u64(42)),
                KvOp::Read(Key::from_name("foo")),
            ],
        );
        cluster.sim.run_for(SimDuration::from_millis(100));
        let client = cluster.scripted_client(0).expect("installed");
        assert!(client.is_done(), "script should complete quickly");
        let results = client.results();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].status, Some(QueryStatus::Ok));
        assert_eq!(results[1].status, Some(QueryStatus::Ok));
        assert_eq!(results[1].value.as_u64(), Some(42));
        assert_eq!(client.agent_stats().version_regressions, 0);
    }

    #[test]
    fn spine_leaf_cluster_builds_and_serves() {
        let config = ClusterConfig {
            vnodes_per_switch: 4,
            ..Default::default()
        };
        let mut cluster = NetChainCluster::spine_leaf(2, 4, 1, config);
        assert_eq!(cluster.layout.switches.len(), 6);
        assert_eq!(cluster.layout.hosts.len(), 4);
        cluster.populate_key(Key::from_u64(1), &Value::from_u64(5));
        cluster.install_scripted_client(0, vec![KvOp::Read(Key::from_u64(1))]);
        cluster.sim.run_for(SimDuration::from_millis(100));
        let client = cluster.scripted_client(0).unwrap();
        assert_eq!(client.results().len(), 1);
        assert_eq!(client.results()[0].value.as_u64(), Some(5));
    }
}
