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
//!
//! Under loss, an acquire's outcome is not always its reply's. A retried
//! acquire whose first copy was applied fails, returning the client's own
//! id: it holds the lock. An abandoned acquire may have been applied: the
//! abort releases it too, which is harmless if it was not.

use crate::lock::{self, lock_key};
use netchain_core::client::Script;
use netchain_core::{CompletedQuery, KvOp};
use netchain_sim::{SimDuration, SimTime};
use netchain_wire::{Key, QueryStatus};

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
    /// A client begins transactions until this much simulated time has
    /// passed.
    pub duration: SimDuration,
}

impl Default for TxnWorkload {
    fn default() -> Self {
        TxnWorkload {
            namespace: 1,
            locks_per_txn: 10,
            contention_index: 0.001,
            cold_items: 100_000,
            duration: SimDuration::from_secs(1),
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
}

/// Counters kept by a transaction client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions that acquired all their locks and released them.
    pub committed: u64,
    /// Transactions aborted because a lock acquire failed.
    pub aborted: u64,
    /// Individual lock acquisitions attempted.
    pub lock_attempts: u64,
    /// Lock acquisitions that failed: the lock was held, or the CAS was
    /// abandoned.
    pub lock_conflicts: u64,
}

/// A closed-loop two-phase-locking transaction client using NetChain as its
/// lock server: the [`Script`] a `ScriptedClient` runs, one lock op at a
/// time.
#[derive(Debug)]
pub struct TxnClient {
    client_id: u64,
    workload: TxnWorkload,
    /// The running transaction's locks, acquired in this order.
    locks: Vec<Key>,
    /// How many of `locks` are held (the last perhaps, after an abandoned
    /// acquire).
    held: usize,
    /// While shrinking: the index of the lock being released, and whether
    /// the transaction aborted.
    releasing: Option<(usize, bool)>,
    stats: TxnStats,
}

impl TxnClient {
    /// Creates a transaction client; `client_id` must be non-zero (zero
    /// encodes "free").
    pub fn new(client_id: u64, workload: TxnWorkload) -> Self {
        TxnClient {
            client_id,
            workload,
            locks: Vec::new(),
            held: 0,
            releasing: None,
            stats: TxnStats::default(),
        }
    }

    /// Transaction statistics.
    pub fn stats(&self) -> TxnStats {
        self.stats
    }

    /// Starts a transaction while the workload runs: draws its lock set
    /// (one hot lock, the rest distinct cold ones) and returns the first
    /// acquire.
    fn begin(&mut self, now: SimTime, draw: &mut dyn FnMut(u64) -> u64) -> Option<KvOp> {
        if now >= SimTime::ZERO + self.workload.duration {
            return None;
        }
        let hot_items = self.workload.hot_items();
        let mut ids = vec![draw(hot_items)];
        while ids.len() < self.workload.locks_per_txn {
            let cold = hot_items + draw(self.workload.cold_items.max(1));
            if !ids.contains(&cold) {
                ids.push(cold);
            }
        }
        self.locks = ids
            .into_iter()
            .map(|id| lock_key(self.workload.namespace, id))
            .collect();
        self.held = 0;
        self.releasing = None;
        Some(self.acquire())
    }

    fn acquire(&mut self) -> KvOp {
        self.stats.lock_attempts += 1;
        lock::acquire(self.locks[self.held], self.client_id)
    }

    /// True if a failed acquire found the lock already ours: a retry of an
    /// acquire whose first copy was applied.
    fn holds_after(&self, done: &CompletedQuery) -> bool {
        done.status == Some(QueryStatus::CasFailed) && done.value.as_u64() == Some(self.client_id)
    }
}

impl Script for TxnClient {
    fn next_op(
        &mut self,
        done: Option<CompletedQuery>,
        now: SimTime,
        draw: &mut dyn FnMut(u64) -> u64,
    ) -> Option<KvOp> {
        let Some(done) = done else {
            return self.begin(now, draw);
        };
        let (next, aborted) = match self.releasing {
            None if done.is_ok() || self.holds_after(&done) => {
                self.held += 1;
                if self.held < self.locks.len() {
                    return Some(self.acquire());
                }
                // Growing phase complete: the transaction's work would
                // happen here; shrink immediately, as in the paper.
                (0, false)
            }
            None => {
                self.stats.lock_conflicts += 1;
                self.held += usize::from(done.is_abandoned());
                (0, true)
            }
            Some((released, aborted)) => (released + 1, aborted),
        };
        if next < self.held {
            self.releasing = Some((next, aborted));
            return Some(lock::release(self.locks[next], self.client_id));
        }
        if aborted {
            self.stats.aborted += 1;
        } else {
            self.stats.committed += 1;
        }
        self.begin(now, draw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_wire::Value;

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

    fn completion(op: KvOp, status: Option<QueryStatus>, value: u64) -> CompletedQuery {
        CompletedQuery {
            request_id: 0,
            op,
            status,
            value: Value::from_u64(value),
            seq: 0,
            session: 0,
            latency: SimDuration::ZERO,
            retries: 0,
        }
    }

    /// One hot lock (id 0) and two distinct cold ones (1 + draw): an abort
    /// releases only what it holds, a commit releases all three, both in
    /// acquisition order, and no transaction begins once `duration` is up.
    #[test]
    fn acquires_by_cas_and_releases_in_order() {
        use QueryStatus::{CasFailed, Ok};
        let workload = TxnWorkload {
            locks_per_txn: 3,
            contention_index: 1.0,
            cold_items: 10,
            duration: SimDuration::from_millis(1),
            ..Default::default()
        };
        let mut draws = [0, 4, 6, 0, 2, 2, 3].into_iter();
        let mut draw = move |bound: u64| draws.next().expect("drawn too often") % bound;
        let acquire = |id| lock::acquire(lock_key(1, id), 7);
        let release = |id| lock::release(lock_key(1, id), 7);
        let mut txn = TxnClient::new(7, workload);
        let (t, late) = (SimTime::ZERO, SimTime::ZERO + workload.duration);
        let mut op = txn.next_op(None, t, &mut draw);
        assert_eq!(op, Some(acquire(0)));
        let mut expect = |txn: &mut TxnClient, status, now, next: Option<KvOp>| {
            let done = completion(op.take().expect("an op is outstanding"), Some(status), 0);
            op = txn.next_op(Some(done), now, &mut draw);
            assert_eq!(op, next);
        };
        // Locks 0, 5, 7; the second is held elsewhere: abort.
        expect(&mut txn, Ok, t, Some(acquire(5)));
        expect(&mut txn, CasFailed, t, Some(release(0)));
        // Locks 0, 3, 4 (the second 3 is drawn again); commit.
        expect(&mut txn, Ok, t, Some(acquire(0)));
        expect(&mut txn, Ok, t, Some(acquire(3)));
        expect(&mut txn, Ok, t, Some(acquire(4)));
        expect(&mut txn, Ok, t, Some(release(0)));
        expect(&mut txn, Ok, t, Some(release(3)));
        expect(&mut txn, Ok, t, Some(release(4)));
        expect(&mut txn, Ok, late, None);
        let stats = TxnStats {
            committed: 1,
            aborted: 1,
            lock_attempts: 5,
            lock_conflicts: 1,
        };
        assert_eq!(txn.stats(), stats);
    }

    /// Under loss: an acquire retried after its first copy was applied
    /// fails with the client's own id and counts as held; an abandoned one
    /// is released on abort with the locks before it.
    #[test]
    fn a_retried_acquire_holds_and_an_abandoned_one_is_released() {
        use QueryStatus::{CasFailed, Ok};
        let workload = TxnWorkload {
            locks_per_txn: 3,
            contention_index: 1.0,
            cold_items: 10,
            ..Default::default()
        };
        let mut draws = [0, 4, 6, 0, 1, 2].into_iter();
        let mut draw = move |bound: u64| draws.next().expect("drawn too often") % bound;
        let acquire = |id| lock::acquire(lock_key(1, id), 7);
        let release = |id| lock::release(lock_key(1, id), 7);
        let mut txn = TxnClient::new(7, workload);
        let t = SimTime::ZERO;
        let mut op = txn.next_op(None, t, &mut draw);
        let mut expect = |txn: &mut TxnClient, status, value, next: KvOp| {
            let done = completion(op.take().expect("an op is outstanding"), status, value);
            op = txn.next_op(Some(done), t, &mut draw);
            assert_eq!(op, Some(next));
        };
        // Locks 0, 5, 7: the second acquire's retry finds lock 5 already 7's.
        expect(&mut txn, Some(Ok), 7, acquire(5));
        expect(&mut txn, Some(CasFailed), 7, acquire(7));
        // The third is abandoned: all three are released.
        expect(&mut txn, None, 0, release(0));
        expect(&mut txn, Some(Ok), 0, release(5));
        expect(&mut txn, Some(Ok), 0, release(7));
        expect(&mut txn, Some(Ok), 0, acquire(0));
        let stats = txn.stats();
        assert_eq!((stats.aborted, stats.lock_conflicts), (1, 1));
    }
}
