//! Simulator nodes that drive the client agent: [`LoadHost`], which runs the
//! one load client ([`ClientState`]) open loop for the throughput, latency
//! and failure experiments, and a scripted client used by integration tests
//! and examples.

use crate::agent::{AgentConfig, AgentCore, AgentStats};
use crate::directory::ChainDirectory;
use crate::loadgen::ClientState;
use crate::message::NetMsg;
use crate::types::{CompletedQuery, KvOp};
use netchain_sim::{Context, Node, NodeId, SimDuration, SimTime, TimerToken};
use netchain_telemetry::TimeSeries;
use std::any::Any;
use std::collections::VecDeque;

const TIMER_ARRIVAL: TimerToken = 1;
const TIMER_RETRY: TimerToken = 2;
const TIMER_START: TimerToken = 3;

/// A host running the shipped load client: the simulation owns only time
/// and the network. It issues [`ClientState`]'s ops on Poisson arrivals at
/// `rate_qps` (gaps drawn from the simulator's seeded generator) until
/// `duration`, polls for retransmissions every half timeout, and counts
/// completions into a throughput series. A reply is absorbed from its wire
/// bytes, the way the fabric and the net mode absorb it.
pub struct LoadHost {
    client: ClientState,
    gateway: NodeId,
    retry_every: SimDuration,
    mean_gap: SimDuration,
    duration: SimDuration,
    throughput: TimeSeries,
}

impl LoadHost {
    /// A host that sends `client`'s queries through `gateway` (its ToR
    /// switch); `timeout` is the client's retransmission timeout, `bucket`
    /// the width of the throughput series.
    pub fn new(
        client: ClientState,
        gateway: NodeId,
        timeout: SimDuration,
        rate_qps: f64,
        duration: SimDuration,
        bucket: SimDuration,
    ) -> Self {
        assert!(rate_qps > 0.0, "a load host needs a positive rate");
        LoadHost {
            client,
            gateway,
            retry_every: SimDuration::from_nanos((timeout.as_nanos() / 2).max(1)),
            mean_gap: SimDuration::from_secs_f64(1.0 / rate_qps),
            duration,
            throughput: TimeSeries::new(bucket.as_nanos()),
        }
    }

    /// The load client: its report, agent statistics and latency.
    pub fn client(&self) -> &ClientState {
        &self.client
    }

    /// Completed-query throughput time series.
    pub fn throughput(&self) -> &TimeSeries {
        &self.throughput
    }

    fn in_window(&self, now: SimTime) -> bool {
        now < SimTime::ZERO + self.duration
    }

    fn schedule_arrival(&self, ctx: &mut Context<NetMsg>) {
        let gap = ctx.random_exponential(self.mean_gap);
        ctx.set_timer(gap, TIMER_ARRIVAL);
    }
}

impl Node<NetMsg> for LoadHost {
    fn on_start(&mut self, ctx: &mut Context<NetMsg>) {
        self.schedule_arrival(ctx);
        ctx.set_timer(self.retry_every, TIMER_RETRY);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<NetMsg>) {
        let now = ctx.now();
        match token {
            TIMER_ARRIVAL if self.in_window(now) => {
                let pkt = self.client.issue_at(now);
                ctx.send(self.gateway, NetMsg::Data(pkt));
                self.schedule_arrival(ctx);
            }
            TIMER_RETRY => {
                for pkt in self.client.poll_retries_at(now) {
                    ctx.send(self.gateway, NetMsg::Data(pkt));
                }
                if self.in_window(now) || self.client.outstanding() > 0 {
                    ctx.set_timer(self.retry_every, TIMER_RETRY);
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: NetMsg, ctx: &mut Context<NetMsg>) {
        let NetMsg::Data(pkt) = msg else { return };
        if self.client.absorb_reply_at(ctx.now(), &pkt.to_bytes()) {
            self.throughput.record(ctx.now().as_nanos());
        }
    }

    fn name(&self) -> String {
        format!("load-host {}", self.client.id())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A client that executes a fixed script of operations sequentially (one
/// outstanding at a time), recording every completion. Used by integration
/// tests, examples, and the quickstart.
pub struct ScriptedClient {
    agent: AgentCore,
    gateway: NodeId,
    script: VecDeque<KvOp>,
    results: Vec<CompletedQuery>,
    started: bool,
    /// How long after simulation start the script begins (phased experiments
    /// install several scripted clients up front and stagger them).
    start_delay: SimDuration,
}

impl ScriptedClient {
    /// Creates a scripted client.
    pub fn new(
        agent_config: AgentConfig,
        directory: ChainDirectory,
        gateway: NodeId,
        script: Vec<KvOp>,
    ) -> Self {
        ScriptedClient {
            agent: AgentCore::new(agent_config, directory),
            gateway,
            script: script.into(),
            results: Vec::new(),
            started: false,
            start_delay: SimDuration::ZERO,
        }
    }

    /// Returns a copy that starts issuing only after `delay`.
    pub fn with_start_delay(mut self, delay: SimDuration) -> Self {
        self.start_delay = delay;
        self
    }

    /// A client with nothing to do (placeholder for unused hosts).
    pub fn idle(agent_config: AgentConfig, directory: ChainDirectory, gateway: NodeId) -> Self {
        Self::new(agent_config, directory, gateway, Vec::new())
    }

    /// Completed operations, in script order.
    pub fn results(&self) -> &[CompletedQuery] {
        &self.results
    }

    /// Agent-level statistics.
    pub fn agent_stats(&self) -> &AgentStats {
        self.agent.stats()
    }

    /// True if the whole script has completed (or was abandoned).
    pub fn is_done(&self) -> bool {
        self.script.is_empty() && self.agent.outstanding() == 0 && self.started
    }

    fn issue_next(&mut self, ctx: &mut Context<NetMsg>) {
        if let Some(op) = self.script.pop_front() {
            let (_, pkt) = self.agent.begin(ctx.now(), op);
            ctx.send(self.gateway, NetMsg::Data(pkt));
            ctx.set_timer(self.agent.config().timeout, TIMER_RETRY);
        }
    }
}

impl Node<NetMsg> for ScriptedClient {
    fn on_start(&mut self, ctx: &mut Context<NetMsg>) {
        if self.start_delay == SimDuration::ZERO {
            self.started = true;
            self.issue_next(ctx);
        } else {
            ctx.set_timer(self.start_delay, TIMER_START);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<NetMsg>) {
        if token == TIMER_START && !self.started {
            self.started = true;
            self.issue_next(ctx);
            return;
        }
        if token != TIMER_RETRY {
            return;
        }
        let outcome = self.agent.poll_retries(ctx.now());
        for pkt in outcome.retransmit {
            ctx.send(self.gateway, NetMsg::Data(pkt));
        }
        for done in outcome.abandoned {
            self.results.push(done);
            self.issue_next(ctx);
        }
        if self.agent.outstanding() > 0 {
            ctx.set_timer(self.agent.config().timeout, TIMER_RETRY);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: NetMsg, ctx: &mut Context<NetMsg>) {
        let NetMsg::Data(pkt) = msg else { return };
        if let Some(done) = self.agent.on_reply(ctx.now(), &pkt) {
            self.results.push(done);
            self.issue_next(ctx);
        }
    }

    fn name(&self) -> String {
        format!("scripted-client {}", self.agent.config().client_ip)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, NetChainCluster};
    use crate::hashring::HashRing;
    use crate::loadgen::WorkloadSpec;
    use crate::types::ClientReport;
    use netchain_sim::LinkParams;
    use netchain_wire::{Ipv4Addr, Key};

    fn directory() -> ChainDirectory {
        let switches: Vec<Ipv4Addr> = (0..3).map(Ipv4Addr::for_switch).collect();
        ChainDirectory::new(HashRing::new(switches, 4, 3, 1))
    }

    /// A load host on the testbed at 20 kQPS for 50 ms, every link losing
    /// 5 %: the report, what is still outstanding, what was issued up to the
    /// last nanosecond before `duration`, and the completions per bucket.
    fn lossy_load_run() -> (ClientReport, usize, u64, Vec<u64>) {
        let config = ClusterConfig {
            link: LinkParams::datacenter_40g().with_loss(0.05),
            ..ClusterConfig::default()
        };
        let mut cluster = NetChainCluster::testbed(config);
        cluster.populate_store(100, 8);
        let duration = SimDuration::from_millis(50);
        let spec = WorkloadSpec::mixed(100, u64::MAX, 50, 50);
        let bucket = SimDuration::from_millis(10);
        cluster.install_workload_client(0, spec, 20_000.0, duration, bucket);
        cluster.sim.run_until(SimTime(duration.as_nanos() - 1));
        let before_end = cluster.workload_client(0).unwrap().client().report().issued;
        cluster.sim.run_for(SimDuration::from_millis(30));
        let host = cluster.workload_client(0).unwrap();
        let counts = host.throughput().counts().to_vec();
        let client = host.client();
        (client.report(), client.outstanding(), before_end, counts)
    }

    #[test]
    fn load_host_accounts_for_every_issue_under_loss() {
        let (report, outstanding, before_end, counts) = lossy_load_run();
        assert!(report.retries > 0, "5 % loss must cost retries: {report:?}");
        assert!(report.completed > 500, "{report:?}");
        assert_eq!(
            report.issued,
            report.completed + report.abandoned + outstanding as u64,
            "{report:?}, {outstanding} outstanding"
        );
        assert_eq!(report.issued, before_end, "an issue at or after `duration`");
        assert_eq!(counts.iter().sum::<u64>(), report.completed);
        assert_eq!(lossy_load_run(), (report, outstanding, before_end, counts));
    }

    #[test]
    fn scripted_client_tracks_script_state() {
        let client = ScriptedClient::new(
            AgentConfig::new(Ipv4Addr::for_host(0)),
            directory(),
            NodeId(0),
            vec![KvOp::Read(Key::from_u64(1))],
        );
        assert!(!client.is_done());
        assert!(client.results().is_empty());
        let idle = ScriptedClient::idle(
            AgentConfig::new(Ipv4Addr::for_host(1)),
            directory(),
            NodeId(0),
        );
        assert!(idle.script.is_empty());
    }
}
