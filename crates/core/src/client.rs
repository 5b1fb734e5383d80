//! Simulator nodes that drive the client agent: an open-/closed-loop workload
//! generator used by the throughput/latency experiments, and a scripted
//! client used by integration tests and examples.

use crate::agent::{AgentConfig, AgentCore, AgentStats};
use crate::directory::ChainDirectory;
use crate::message::NetMsg;
use crate::types::{CompletedQuery, KvOp};
use netchain_sim::{Context, Node, NodeId, SimDuration, SimTime, TimerToken};
use netchain_telemetry::{HistSnapshot, LatencyHistogram, TimeSeries};
use netchain_wire::{Key, Value};
use std::any::Any;
use std::collections::VecDeque;

const TIMER_ARRIVAL: TimerToken = 1;
const TIMER_RETRY: TimerToken = 2;
const TIMER_START: TimerToken = 3;

/// Configuration of a synthetic key-value workload, mirroring the parameters
/// the paper sweeps: value size, store size, write ratio, offered rate.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// When the client starts issuing queries.
    pub start: SimDuration,
    /// How long the client keeps issuing queries after `start`.
    pub duration: SimDuration,
    /// Offered load in queries per second for open-loop operation. Zero means
    /// closed-loop operation with `closed_loop` outstanding queries.
    pub rate_qps: f64,
    /// Number of outstanding queries to maintain in closed-loop mode.
    pub closed_loop: usize,
    /// Fraction of queries that are writes (the rest are reads).
    pub write_ratio: f64,
    /// Size of written values, in bytes.
    pub value_size: usize,
    /// Number of distinct keys the client touches (`key_offset ..
    /// key_offset + num_keys`, as [`Key::from_u64`]).
    pub num_keys: u64,
    /// First key index.
    pub key_offset: u64,
    /// Bucket width of the recorded throughput time series.
    pub throughput_bucket: SimDuration,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            start: SimDuration::ZERO,
            duration: SimDuration::from_secs(1),
            rate_qps: 10_000.0,
            closed_loop: 4,
            write_ratio: 0.01,
            value_size: 64,
            num_keys: 20_000,
            key_offset: 0,
            throughput_bucket: SimDuration::from_secs(1),
        }
    }
}

impl WorkloadConfig {
    /// End of the query-issuing window.
    pub fn end(&self) -> SimTime {
        SimTime::ZERO + self.start + self.duration
    }
}

/// An open- or closed-loop workload client attached to one host.
pub struct WorkloadClient {
    agent: AgentCore,
    gateway: NodeId,
    config: WorkloadConfig,
    throughput: TimeSeries,
    read_latency: LatencyHistogram,
    write_latency: LatencyHistogram,
    issued_in_window: u64,
    abandoned_ops: u64,
}

impl WorkloadClient {
    /// Creates a workload client that sends through `gateway` (its ToR
    /// switch).
    pub fn new(
        agent_config: AgentConfig,
        directory: ChainDirectory,
        gateway: NodeId,
        config: WorkloadConfig,
    ) -> Self {
        WorkloadClient {
            agent: AgentCore::new(agent_config, directory),
            gateway,
            config,
            throughput: TimeSeries::new(config.throughput_bucket.as_nanos()),
            read_latency: LatencyHistogram::new(),
            write_latency: LatencyHistogram::new(),
            issued_in_window: 0,
            abandoned_ops: 0,
        }
    }

    /// Agent-level statistics (issued/completed/retries/latency/regressions).
    pub fn agent_stats(&self) -> &AgentStats {
        self.agent.stats()
    }

    /// Completed-query throughput time series.
    pub fn throughput(&self) -> &TimeSeries {
        &self.throughput
    }

    /// Latency of completed read queries.
    pub fn read_latency(&self) -> HistSnapshot {
        self.read_latency.snapshot()
    }

    /// Latency of completed write queries.
    pub fn write_latency(&self) -> HistSnapshot {
        self.write_latency.snapshot()
    }

    /// Queries abandoned after exhausting retries.
    pub fn abandoned(&self) -> u64 {
        self.abandoned_ops
    }

    /// Queries issued during the workload window.
    pub fn issued(&self) -> u64 {
        self.issued_in_window
    }

    fn in_window(&self, now: SimTime) -> bool {
        now >= SimTime::ZERO + self.config.start && now < self.config.end()
    }

    fn pick_op(&self, ctx: &mut Context<NetMsg>) -> KvOp {
        let key =
            Key::from_u64(self.config.key_offset + ctx.random_below(self.config.num_keys.max(1)));
        if ctx.random_f64() < self.config.write_ratio {
            let value = Value::filled(
                0xab,
                self.config.value_size.min(netchain_wire::MAX_VALUE_LEN),
            )
            .expect("bounded by MAX_VALUE_LEN");
            KvOp::Write(key, value)
        } else {
            KvOp::Read(key)
        }
    }

    fn issue_one(&mut self, ctx: &mut Context<NetMsg>) {
        let op = self.pick_op(ctx);
        let (_, pkt) = self.agent.begin(ctx.now(), op);
        self.issued_in_window += 1;
        ctx.send(self.gateway, NetMsg::Data(pkt));
    }

    fn schedule_next_arrival(&self, ctx: &mut Context<NetMsg>) {
        if self.config.rate_qps <= 0.0 {
            return;
        }
        let mean = SimDuration::from_secs_f64(1.0 / self.config.rate_qps);
        let gap = ctx.random_exponential(mean);
        ctx.set_timer(gap, TIMER_ARRIVAL);
    }

    fn schedule_retry_poll(&self, ctx: &mut Context<NetMsg>) {
        let half = SimDuration::from_nanos((self.agent.config().timeout.as_nanos() / 2).max(1));
        ctx.set_timer(half, TIMER_RETRY);
    }
}

impl Node<NetMsg> for WorkloadClient {
    fn on_start(&mut self, ctx: &mut Context<NetMsg>) {
        ctx.set_timer(self.config.start, TIMER_ARRIVAL);
        ctx.set_timer(self.config.start + self.agent.config().timeout, TIMER_RETRY);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<NetMsg>) {
        match token {
            TIMER_ARRIVAL => {
                if !self.in_window(ctx.now()) {
                    return;
                }
                if self.config.rate_qps > 0.0 {
                    self.issue_one(ctx);
                    self.schedule_next_arrival(ctx);
                } else {
                    // Closed loop: bring the outstanding count up to target.
                    while self.agent.outstanding() < self.config.closed_loop {
                        self.issue_one(ctx);
                    }
                }
            }
            TIMER_RETRY => {
                let outcome = self.agent.poll_retries(ctx.now());
                for pkt in outcome.retransmit {
                    ctx.send(self.gateway, NetMsg::Data(pkt));
                }
                self.abandoned_ops += outcome.abandoned.len() as u64;
                // In closed-loop mode an abandoned query frees a slot.
                if self.config.rate_qps <= 0.0 && self.in_window(ctx.now()) {
                    while self.agent.outstanding() < self.config.closed_loop {
                        self.issue_one(ctx);
                    }
                }
                if self.in_window(ctx.now()) || self.agent.outstanding() > 0 {
                    self.schedule_retry_poll(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: NetMsg, ctx: &mut Context<NetMsg>) {
        let NetMsg::Data(pkt) = msg else { return };
        if let Some(done) = self.agent.on_reply(ctx.now(), &pkt) {
            self.throughput.record(ctx.now().as_nanos());
            match done.op {
                KvOp::Read(_) => self.read_latency.record(done.latency.as_nanos()),
                _ => self.write_latency.record(done.latency.as_nanos()),
            }
            if self.config.rate_qps <= 0.0 && self.in_window(ctx.now()) {
                self.issue_one(ctx);
            }
        }
    }

    fn name(&self) -> String {
        format!("workload-client {}", self.agent.config().client_ip)
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
    use crate::hashring::HashRing;
    use netchain_wire::Ipv4Addr;

    fn directory() -> ChainDirectory {
        let switches: Vec<Ipv4Addr> = (0..3).map(Ipv4Addr::for_switch).collect();
        ChainDirectory::new(HashRing::new(switches, 4, 3, 1))
    }

    #[test]
    fn workload_config_window() {
        let config = WorkloadConfig {
            start: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(config.end(), SimTime::ZERO + SimDuration::from_secs(3));
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
