//! Simulator nodes that drive the client agent: [`LoadHost`], which runs the
//! one load client ([`ClientState`]) open loop for the throughput, latency
//! and failure experiments, and [`ScriptedClient`], the one sequential
//! client, which runs a [`Script`]: a fixed op list for integration tests
//! and examples, or an application such as Figure 11's 2PL transactions.

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

/// What a [`ScriptedClient`] runs: the source of its next op. The client
/// asks at start and after every completion, one op outstanding at a time.
pub trait Script {
    /// The op to issue next, or `None` to stop. `done` is the completion
    /// that freed the client (`None` at start; an abandoned op completes
    /// with no status); `draw(bound)` is uniform in `[0, bound)`, from the
    /// simulator's seeded generator.
    fn next_op(
        &mut self,
        done: Option<CompletedQuery>,
        now: SimTime,
        draw: &mut dyn FnMut(u64) -> u64,
    ) -> Option<KvOp>;
}

/// The default script: a fixed list of ops, issued in order, every
/// completion recorded.
#[derive(Debug)]
pub struct OpList {
    ops: VecDeque<KvOp>,
    results: Vec<CompletedQuery>,
}

impl Script for OpList {
    fn next_op(
        &mut self,
        done: Option<CompletedQuery>,
        _now: SimTime,
        _draw: &mut dyn FnMut(u64) -> u64,
    ) -> Option<KvOp> {
        self.results.extend(done);
        self.ops.pop_front()
    }
}

/// A sequential client: it runs a [`Script`] (by default a fixed list of
/// ops) with one op outstanding at a time. Used by integration tests,
/// examples, the quickstart and Figure 11's transaction clients. It keeps at
/// most one retry timer, set for the oldest outstanding op's deadline.
pub struct ScriptedClient<S = OpList> {
    agent: AgentCore,
    gateway: NodeId,
    script: S,
    started: bool,
    retry_armed: bool,
    /// How long after simulation start the script begins (phased experiments
    /// install several scripted clients up front and stagger them).
    start_delay: SimDuration,
}

impl ScriptedClient {
    /// Creates a client that issues `script` in order.
    pub fn new(
        agent_config: AgentConfig,
        directory: ChainDirectory,
        gateway: NodeId,
        script: Vec<KvOp>,
    ) -> Self {
        let ops = OpList {
            ops: script.into(),
            results: Vec::new(),
        };
        Self::with_script(agent_config, directory, gateway, ops)
    }

    /// A client with nothing to do (placeholder for unused hosts).
    pub fn idle(agent_config: AgentConfig, directory: ChainDirectory, gateway: NodeId) -> Self {
        Self::new(agent_config, directory, gateway, Vec::new())
    }

    /// Completed operations, in script order.
    pub fn results(&self) -> &[CompletedQuery] {
        &self.script.results
    }

    /// True if the whole script has completed (or was abandoned).
    pub fn is_done(&self) -> bool {
        self.script.ops.is_empty() && self.agent.outstanding() == 0 && self.started
    }
}

impl<S: Script> ScriptedClient<S> {
    /// Creates a client that runs `script`.
    pub fn with_script(
        agent_config: AgentConfig,
        directory: ChainDirectory,
        gateway: NodeId,
        script: S,
    ) -> Self {
        ScriptedClient {
            agent: AgentCore::new(agent_config, directory),
            gateway,
            script,
            started: false,
            retry_armed: false,
            start_delay: SimDuration::ZERO,
        }
    }

    /// Returns a copy that starts issuing only after `delay`.
    pub fn with_start_delay(mut self, delay: SimDuration) -> Self {
        self.start_delay = delay;
        self
    }

    /// The script this client runs.
    pub fn script(&self) -> &S {
        &self.script
    }

    /// Agent-level statistics.
    pub fn agent_stats(&self) -> &AgentStats {
        self.agent.stats()
    }

    fn advance(&mut self, done: Option<CompletedQuery>, ctx: &mut Context<NetMsg>) {
        let now = ctx.now();
        let op = self
            .script
            .next_op(done, now, &mut |bound| ctx.random_below(bound));
        if let Some(op) = op {
            let (_, pkt) = self.agent.begin(now, op);
            ctx.send(self.gateway, NetMsg::Data(pkt));
            self.arm_retry(ctx);
        }
    }

    fn arm_retry(&mut self, ctx: &mut Context<NetMsg>) {
        if self.retry_armed {
            return;
        }
        if let Some(due) = self.agent.next_retry_deadline() {
            ctx.set_timer(due - ctx.now(), TIMER_RETRY);
            self.retry_armed = true;
        }
    }

    fn start(&mut self, ctx: &mut Context<NetMsg>) {
        self.started = true;
        self.advance(None, ctx);
    }
}

impl<S: Script + 'static> Node<NetMsg> for ScriptedClient<S> {
    fn on_start(&mut self, ctx: &mut Context<NetMsg>) {
        if self.start_delay == SimDuration::ZERO {
            self.start(ctx);
        } else {
            ctx.set_timer(self.start_delay, TIMER_START);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<NetMsg>) {
        match token {
            TIMER_START if !self.started => self.start(ctx),
            TIMER_RETRY => {
                self.retry_armed = false;
                let outcome = self.agent.poll_retries(ctx.now());
                for pkt in outcome.retransmit {
                    ctx.send(self.gateway, NetMsg::Data(pkt));
                }
                for done in outcome.abandoned {
                    self.advance(Some(done), ctx);
                }
                self.arm_retry(ctx);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: NetMsg, ctx: &mut Context<NetMsg>) {
        let NetMsg::Data(pkt) = msg else { return };
        if let Some(done) = self.agent.on_reply(ctx.now(), &pkt) {
            self.advance(Some(done), ctx);
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
        assert!(idle.script.ops.is_empty());
    }

    /// A 2 000-op list on the testbed: the client keeps one retry timer, so
    /// at most about one fires per timeout of the run, not one per op.
    #[test]
    fn a_scripted_client_keeps_one_retry_timer() {
        let config = ClusterConfig::default();
        let timeout = config.agent_timeout.as_nanos();
        let mut cluster = NetChainCluster::testbed(config);
        cluster.populate_store(100, 8);
        let script = (0..2_000).map(|i| KvOp::Read(Key::from_u64(i % 100)));
        cluster.install_scripted_client(0, script.collect());
        cluster.sim.run_for(SimDuration::from_millis(200));
        let client = cluster.scripted_client(0).expect("installed");
        assert!(client.is_done());
        assert!(client.results().iter().all(CompletedQuery::is_ok));
        // Sequential from t = 0: the run ends when the last op completes.
        let run: u64 = client.results().iter().map(|r| r.latency.as_nanos()).sum();
        let fired = cluster.sim.stats().timers_fired;
        assert!(
            fired <= 2 * (run / timeout) + 2,
            "{fired} timers in a {run} ns run"
        );
    }
}
