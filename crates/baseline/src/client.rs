//! The baseline client: issues reads to its local server and writes to the
//! leader over the reliable transport, with the same open-/closed-loop
//! workload shape as the NetChain workload client so the two systems are
//! measured identically.

use crate::cost::ServerCostModel;
use crate::message::{AppMsg, BaselineMsg, ZkOp, ZkResult};
use crate::rtx::Connection;
use netchain_sim::{Context, Node, NodeId, SimDuration, SimTime, TimerToken};
use netchain_telemetry::{HistSnapshot, LatencyHistogram, TimeSeries};
use std::any::Any;
use std::collections::HashMap;

const TIMER_ARRIVAL: TimerToken = 1;
const TIMER_RETX: TimerToken = 2;

/// Workload parameters for a baseline client (mirrors
/// `netchain_core::WorkloadConfig`).
#[derive(Debug, Clone, Copy)]
pub struct BaselineWorkload {
    /// When to start issuing queries.
    pub start: SimDuration,
    /// For how long to keep issuing queries.
    pub duration: SimDuration,
    /// Offered rate in queries per second; zero means closed loop.
    pub rate_qps: f64,
    /// Outstanding queries to maintain in closed-loop mode.
    pub closed_loop: usize,
    /// Fraction of writes.
    pub write_ratio: f64,
    /// Written value size in bytes.
    pub value_size: usize,
    /// Number of distinct keys.
    pub num_keys: u64,
    /// Throughput time-series bucket width.
    pub throughput_bucket: SimDuration,
}

impl Default for BaselineWorkload {
    fn default() -> Self {
        BaselineWorkload {
            start: SimDuration::ZERO,
            duration: SimDuration::from_secs(1),
            rate_qps: 0.0,
            closed_loop: 8,
            write_ratio: 0.01,
            value_size: 64,
            num_keys: 20_000,
            throughput_bucket: SimDuration::from_secs(1),
        }
    }
}

impl BaselineWorkload {
    fn end(&self) -> SimTime {
        SimTime::ZERO + self.start + self.duration
    }
}

#[derive(Debug, Clone, Copy)]
struct OutstandingRequest {
    sent_at: SimTime,
    is_write: bool,
}

/// A baseline workload client node.
pub struct BaselineClient {
    read_server: NodeId,
    leader: NodeId,
    cost: ServerCostModel,
    workload: BaselineWorkload,
    conns: HashMap<NodeId, Connection>,
    outstanding: HashMap<u64, OutstandingRequest>,
    next_request_id: u64,
    throughput: TimeSeries,
    read_latency: LatencyHistogram,
    write_latency: LatencyHistogram,
    issued: u64,
    completed: u64,
    errors: u64,
}

impl BaselineClient {
    /// Creates a client that reads from `read_server` and writes to `leader`.
    pub fn new(
        read_server: NodeId,
        leader: NodeId,
        cost: ServerCostModel,
        workload: BaselineWorkload,
    ) -> Self {
        BaselineClient {
            read_server,
            leader,
            cost,
            workload,
            conns: HashMap::new(),
            outstanding: HashMap::new(),
            next_request_id: 1,
            throughput: TimeSeries::new(workload.throughput_bucket.as_nanos()),
            read_latency: LatencyHistogram::new(),
            write_latency: LatencyHistogram::new(),
            issued: 0,
            completed: 0,
            errors: 0,
        }
    }

    /// Queries issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Queries completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Replies indicating an error status.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Completed-query throughput series.
    pub fn throughput(&self) -> &TimeSeries {
        &self.throughput
    }

    /// Read latency statistics.
    pub fn read_latency(&self) -> HistSnapshot {
        self.read_latency.snapshot()
    }

    /// Write latency statistics.
    pub fn write_latency(&self) -> HistSnapshot {
        self.write_latency.snapshot()
    }

    fn in_window(&self, now: SimTime) -> bool {
        now >= SimTime::ZERO + self.workload.start && now < self.workload.end()
    }

    fn transmit(&mut self, to: NodeId, msg: AppMsg, ctx: &mut Context<BaselineMsg>) {
        let conn = self.conns.entry(to).or_insert_with(Connection::datacenter);
        let segment = conn.send(ctx.now(), msg);
        ctx.send(to, BaselineMsg::Segment(segment));
    }

    fn issue_one(&mut self, ctx: &mut Context<BaselineMsg>) {
        let key = ctx.random_below(self.workload.num_keys.max(1));
        let is_write = ctx.random_f64() < self.workload.write_ratio;
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let (target, op) = if is_write {
            (
                self.leader,
                ZkOp::Write {
                    key,
                    value: vec![0xab; self.workload.value_size],
                },
            )
        } else {
            (self.read_server, ZkOp::Read { key })
        };
        self.outstanding.insert(
            request_id,
            OutstandingRequest {
                sent_at: ctx.now(),
                is_write,
            },
        );
        self.issued += 1;
        self.transmit(target, AppMsg::Request { request_id, op }, ctx);
    }

    fn fill_closed_loop(&mut self, ctx: &mut Context<BaselineMsg>) {
        while self.outstanding.len() < self.workload.closed_loop {
            self.issue_one(ctx);
        }
    }

    fn schedule_next_arrival(&self, ctx: &mut Context<BaselineMsg>) {
        if self.workload.rate_qps <= 0.0 {
            return;
        }
        let mean = SimDuration::from_secs_f64(1.0 / self.workload.rate_qps);
        let gap = ctx.random_exponential(mean);
        ctx.set_timer(gap, TIMER_ARRIVAL);
    }
}

impl Node<BaselineMsg> for BaselineClient {
    fn on_start(&mut self, ctx: &mut Context<BaselineMsg>) {
        ctx.set_timer(self.workload.start, TIMER_ARRIVAL);
        ctx.set_timer(SimDuration::from_millis(1), TIMER_RETX);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<BaselineMsg>) {
        match token {
            TIMER_ARRIVAL => {
                if !self.in_window(ctx.now()) {
                    return;
                }
                if self.workload.rate_qps > 0.0 {
                    self.issue_one(ctx);
                    self.schedule_next_arrival(ctx);
                } else {
                    self.fill_closed_loop(ctx);
                }
            }
            TIMER_RETX => {
                let now = ctx.now();
                let mut to_send = Vec::new();
                for (&peer, conn) in self.conns.iter_mut() {
                    for segment in conn.poll_retransmits(now) {
                        to_send.push((peer, segment));
                    }
                }
                for (peer, segment) in to_send {
                    ctx.send(peer, BaselineMsg::Segment(segment));
                }
                ctx.set_timer(SimDuration::from_millis(1), TIMER_RETX);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, from: NodeId, msg: BaselineMsg, ctx: &mut Context<BaselineMsg>) {
        let BaselineMsg::Segment(segment) = msg;
        let conn = self
            .conns
            .entry(from)
            .or_insert_with(Connection::datacenter);
        let (delivered, ack) = conn.on_segment(segment);
        if let Some(ack) = ack {
            ctx.send(from, BaselineMsg::Segment(ack));
        }
        for app in delivered {
            let AppMsg::Reply { request_id, result } = app else {
                continue;
            };
            let Some(outstanding) = self.outstanding.remove(&request_id) else {
                continue;
            };
            self.completed += 1;
            if !result.is_ok() && !matches!(result, ZkResult::NotFound) {
                self.errors += 1;
            }
            // Client-side kernel/stack overhead is added here: the paper's
            // ZooKeeper clients go through the socket API, unlike the DPDK
            // NetChain agent.
            let latency = ctx.now().since(outstanding.sent_at) + self.cost.client_overhead;
            if outstanding.is_write {
                self.write_latency.record(latency.as_nanos());
            } else {
                self.read_latency.record(latency.as_nanos());
            }
            self.throughput.record(ctx.now().as_nanos());
            if self.workload.rate_qps <= 0.0 && self.in_window(ctx.now()) {
                self.issue_one(ctx);
            }
        }
    }

    fn name(&self) -> String {
        "zk-client".to_string()
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

    #[test]
    fn workload_window() {
        let w = BaselineWorkload {
            start: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(4),
            ..Default::default()
        };
        assert_eq!(w.end(), SimTime::ZERO + SimDuration::from_secs(5));
    }

    #[test]
    fn client_initial_state() {
        let c = BaselineClient::new(
            NodeId(0),
            NodeId(0),
            ServerCostModel::default(),
            BaselineWorkload::default(),
        );
        assert_eq!(c.issued(), 0);
        assert_eq!(c.completed(), 0);
        assert_eq!(c.errors(), 0);
    }
}
