//! The distributed-transaction benchmark of §8.5 / Figure 11.
//!
//! Each transaction needs ten exclusive locks under two-phase locking: one
//! from a small *hot* set whose size is the inverse of the contention index,
//! and nine from a large cold set (a generalisation of the TPC-C new-order
//! transaction, following the benchmark the paper borrows from Calvin and
//! VLL). A client acquires all ten locks one by one with CAS; if any acquire
//! fails the transaction aborts, the already-held locks are released, and the
//! client starts over — exactly the "abort transactions that cannot acquire
//! all locks" behaviour the paper describes as the server-killer under high
//! contention.

use crate::lock::{lock_key, LockClient};
use netchain_core::{AgentConfig, AgentCore, ChainDirectory, KvOp, NetMsg};
use netchain_sim::{Context, Node, NodeId, SimDuration, SimTime, TimerToken};
use netchain_telemetry::TimeSeries;
use netchain_wire::{Key, QueryStatus};
use std::any::Any;

const TIMER_RETRY: TimerToken = 1;
const TIMER_START: TimerToken = 2;

/// Parameters of the transaction workload.
#[derive(Debug, Clone, Copy)]
pub struct TxnWorkload {
    /// Lock namespace (keeps experiments separate).
    pub namespace: u32,
    /// Locks per transaction (the paper uses 10).
    pub locks_per_txn: usize,
    /// Contention index: the inverse of the number of hot items. 1.0 means a
    /// single hot item everyone fights over; 0.001 means 1000 hot items.
    pub contention_index: f64,
    /// Size of the cold item set the other nine locks come from.
    pub cold_items: u64,
    /// When the client starts issuing transactions.
    pub start: SimDuration,
    /// For how long it keeps issuing transactions.
    pub duration: SimDuration,
    /// Bucket width for the committed-transaction throughput series.
    pub throughput_bucket: SimDuration,
}

impl Default for TxnWorkload {
    fn default() -> Self {
        TxnWorkload {
            namespace: 1,
            locks_per_txn: 10,
            contention_index: 0.001,
            cold_items: 100_000,
            start: SimDuration::ZERO,
            duration: SimDuration::from_secs(1),
            throughput_bucket: SimDuration::from_secs(1),
        }
    }
}

impl TxnWorkload {
    /// Number of hot items implied by the contention index.
    pub fn hot_items(&self) -> u64 {
        (1.0 / self.contention_index.max(1e-9)).round().max(1.0) as u64
    }

    /// All lock keys this workload can touch (hot items first, then cold) —
    /// used to pre-install them in the store.
    pub fn all_lock_keys(&self) -> Vec<Key> {
        let hot = self.hot_items();
        (0..hot + self.cold_items)
            .map(|i| lock_key(self.namespace, i))
            .collect()
    }

    fn end(&self) -> SimTime {
        SimTime::ZERO + self.start + self.duration
    }
}

/// Counters kept by a transaction client.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxnStats {
    /// Transactions that acquired all their locks and released them.
    pub committed: u64,
    /// Transactions aborted because a lock acquire failed.
    pub aborted: u64,
    /// Individual lock acquisitions attempted.
    pub lock_attempts: u64,
    /// Lock acquisitions that found the lock held.
    pub lock_conflicts: u64,
}

#[derive(Debug)]
enum TxnState {
    Idle,
    Acquiring {
        locks: Vec<Key>,
        next: usize,
        held: Vec<Key>,
    },
    Releasing {
        to_release: Vec<Key>,
        next: usize,
        aborted: bool,
    },
}

/// A closed-loop two-phase-locking transaction client using NetChain as its
/// lock server.
pub struct TxnClient {
    agent: AgentCore,
    gateway: NodeId,
    lock_client: LockClient,
    workload: TxnWorkload,
    state: TxnState,
    stats: TxnStats,
    throughput: TimeSeries,
}

impl TxnClient {
    /// Creates a transaction client.
    pub fn new(
        agent_config: AgentConfig,
        directory: ChainDirectory,
        gateway: NodeId,
        client_id: u64,
        workload: TxnWorkload,
    ) -> Self {
        TxnClient {
            agent: AgentCore::new(agent_config, directory),
            gateway,
            lock_client: LockClient::new(client_id),
            workload,
            state: TxnState::Idle,
            stats: TxnStats::default(),
            throughput: TimeSeries::new(workload.throughput_bucket.as_nanos()),
        }
    }

    /// Transaction statistics.
    pub fn stats(&self) -> TxnStats {
        self.stats
    }

    /// Committed-transaction throughput series.
    pub fn throughput(&self) -> &TimeSeries {
        &self.throughput
    }

    fn in_window(&self, now: SimTime) -> bool {
        now >= SimTime::ZERO + self.workload.start && now < self.workload.end()
    }

    fn pick_lock_set(&self, ctx: &mut Context<NetMsg>) -> Vec<Key> {
        let hot_items = self.workload.hot_items();
        let mut ids = Vec::with_capacity(self.workload.locks_per_txn);
        // One hot lock...
        ids.push(ctx.random_below(hot_items));
        // ...and the rest from the cold set (offset past the hot ids).
        while ids.len() < self.workload.locks_per_txn {
            let cold = hot_items + ctx.random_below(self.workload.cold_items.max(1));
            if !ids.contains(&cold) {
                ids.push(cold);
            }
        }
        ids.into_iter()
            .map(|id| lock_key(self.workload.namespace, id))
            .collect()
    }

    fn send_op(&mut self, op: KvOp, ctx: &mut Context<NetMsg>) {
        let (_, pkt) = self.agent.begin(ctx.now(), op);
        ctx.send(self.gateway, NetMsg::Data(pkt));
        ctx.set_timer(self.agent.config().timeout, TIMER_RETRY);
    }

    fn start_txn(&mut self, ctx: &mut Context<NetMsg>) {
        if !self.in_window(ctx.now()) {
            self.state = TxnState::Idle;
            return;
        }
        let locks = self.pick_lock_set(ctx);
        let first = locks[0];
        self.state = TxnState::Acquiring {
            locks,
            next: 0,
            held: Vec::new(),
        };
        self.stats.lock_attempts += 1;
        let op = self.lock_client.acquire(first);
        self.send_op(op, ctx);
    }

    fn begin_release(&mut self, held: Vec<Key>, aborted: bool, ctx: &mut Context<NetMsg>) {
        if held.is_empty() {
            self.finish_txn(aborted, ctx);
            return;
        }
        let first = held[0];
        self.state = TxnState::Releasing {
            to_release: held,
            next: 0,
            aborted,
        };
        let op = self.lock_client.release(first);
        self.send_op(op, ctx);
    }

    fn finish_txn(&mut self, aborted: bool, ctx: &mut Context<NetMsg>) {
        if aborted {
            self.stats.aborted += 1;
        } else {
            self.stats.committed += 1;
            self.throughput.record(ctx.now().as_nanos());
        }
        self.start_txn(ctx);
    }

    fn on_lock_reply(&mut self, status: QueryStatus, ctx: &mut Context<NetMsg>) {
        let state = std::mem::replace(&mut self.state, TxnState::Idle);
        match state {
            TxnState::Acquiring {
                locks,
                next,
                mut held,
            } => {
                if status == QueryStatus::Ok {
                    held.push(locks[next]);
                    let next = next + 1;
                    if next == locks.len() {
                        // Growing phase complete: the transaction's work would
                        // happen here; shrink immediately, as in the paper.
                        self.begin_release(held, false, ctx);
                    } else {
                        self.state = TxnState::Acquiring {
                            locks: locks.clone(),
                            next,
                            held,
                        };
                        self.stats.lock_attempts += 1;
                        let op = self.lock_client.acquire(locks[next]);
                        self.send_op(op, ctx);
                    }
                } else {
                    // Conflict (or missing lock key): abort and release.
                    self.stats.lock_conflicts += 1;
                    self.begin_release(held, true, ctx);
                }
            }
            TxnState::Releasing {
                to_release,
                next,
                aborted,
            } => {
                let next = next + 1;
                if next >= to_release.len() {
                    self.finish_txn(aborted, ctx);
                } else {
                    let key = to_release[next];
                    self.state = TxnState::Releasing {
                        to_release,
                        next,
                        aborted,
                    };
                    let op = self.lock_client.release(key);
                    self.send_op(op, ctx);
                }
            }
            TxnState::Idle => {}
        }
    }
}

impl Node<NetMsg> for TxnClient {
    fn on_start(&mut self, ctx: &mut Context<NetMsg>) {
        ctx.set_timer(self.workload.start, TIMER_START);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<NetMsg>) {
        match token {
            TIMER_START => {
                if matches!(self.state, TxnState::Idle) {
                    self.start_txn(ctx);
                }
            }
            TIMER_RETRY => {
                let outcome = self.agent.poll_retries(ctx.now());
                for pkt in outcome.retransmit {
                    ctx.send(self.gateway, NetMsg::Data(pkt));
                }
                // Abandoned lock operations abort the transaction outright.
                if !outcome.abandoned.is_empty() {
                    let held = match std::mem::replace(&mut self.state, TxnState::Idle) {
                        TxnState::Acquiring { held, .. } => held,
                        TxnState::Releasing { .. } | TxnState::Idle => Vec::new(),
                    };
                    self.begin_release(held, true, ctx);
                }
                if self.agent.outstanding() > 0 {
                    ctx.set_timer(self.agent.config().timeout, TIMER_RETRY);
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: NetMsg, ctx: &mut Context<NetMsg>) {
        let NetMsg::Data(pkt) = msg else { return };
        if let Some(done) = self.agent.on_reply(ctx.now(), &pkt) {
            let status = done.status.unwrap_or(QueryStatus::Declined);
            self.on_lock_reply(status, ctx);
        }
    }

    fn name(&self) -> String {
        format!("txn-client {}", self.lock_client.client_id())
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
    fn hot_item_count_follows_contention_index() {
        let mut w = TxnWorkload {
            contention_index: 1.0,
            ..Default::default()
        };
        assert_eq!(w.hot_items(), 1);
        w.contention_index = 0.001;
        assert_eq!(w.hot_items(), 1000);
        w.contention_index = 0.01;
        assert_eq!(w.hot_items(), 100);
    }

    #[test]
    fn all_lock_keys_covers_hot_and_cold() {
        let w = TxnWorkload {
            contention_index: 0.5,
            cold_items: 10,
            ..Default::default()
        };
        let keys = w.all_lock_keys();
        assert_eq!(keys.len(), 2 + 10);
        // Keys are distinct.
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len());
    }
}
