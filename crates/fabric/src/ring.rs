//! A bounded, lock-free single-producer/single-consumer ring.
//!
//! This is the only queue the fabric uses: every (client, shard) pair owns
//! one ring per direction, so each ring has exactly one producer thread and
//! one consumer thread and never needs a lock or a CAS loop — a plain
//! Lamport queue with release/acquire index publication.
//!
//! Every slot holds a valid `T` from construction on (`T::default()`), laid
//! out as an array of `T` (so a `T` of whole, aligned cache lines, like
//! [`crate::Frame`], never shares a line with its neighbour), and both ends
//! work on the slots **in place**:
//!
//! * the producer [`reserve`](Producer::reserve)s the next free slot, writes
//!   into it (a frame is encoded straight into the ring, never built
//!   elsewhere and copied), [`commit`](Producer::commit)s it, and
//!   [`publish`](Producer::publish)es any number of committed slots with a
//!   single release store — one per window refill or reply burst;
//! * the consumer borrows a contiguous [`run`](Consumer::run) of published
//!   slots, reads them where they lie (the shard parses out of the ring),
//!   and [`release`](Consumer::release)s them with a single release store.
//!
//! [`Producer::push`] / [`Producer::push_batch`] / [`Consumer::pop`] /
//! [`Consumer::pop_batch`] carry whole items in and out through those same
//! calls, for payloads that own heap data and must be moved (control
//! commands: `pop` takes the item and leaves a default behind) and for
//! callers that want owned copies (`pop_batch` clones a run out and writes
//! nothing back).
//!
//! One more throughput refinement, standard in software dataplanes: **index
//! caching** — the producer keeps a stale copy of the consumer's head (and
//! vice versa) and only reloads the shared atomic when the cached value says
//! the ring looks full/empty. In steady state this cuts cross-core
//! cache-line traffic to one transfer per *batch*, not per item.
//!
//! Safety argument (this module is the crate's only `unsafe` code). Indices
//! increase monotonically and are taken modulo the power-of-two capacity via
//! a mask; each shared index is written by exactly one side. Slots in
//! `[head, tail)` (shared values) belong to the consumer, slots in
//! `[tail, head + cap)` to the producer:
//!
//! * The producer only forms references to slots in
//!   `[local tail, cached head + cap)`. `cached head <= head`, so that range
//!   lies inside the producer's region; `local tail >= tail` because
//!   committed-but-unpublished slots are still unpublished, and it advances
//!   only in `commit`, which insists on the reservation `reserve` granted
//!   for that very slot. It writes a slot **before** publishing it by
//!   storing `tail` with `Release`; the consumer reads `tail` with `Acquire`
//!   before touching the slot, so the writes happen-before the reads.
//! * The consumer only forms references to slots in
//!   `[local head, cached tail)`, a sub-range of `[head, tail)`. A borrowed
//!   run is tied to `&mut Consumer`, so it cannot outlive the `release` that
//!   hands its slots back (the borrow checker ends the run's lifetime before
//!   `release` can be called), and the producer cannot reach those slots
//!   until it has read the released `head` with `Acquire` — after the
//!   consumer's last read, which the `Release` store orders before it.
//! * No slot is ever uninitialised, so neither side can observe an invalid
//!   `T` whatever the interleaving; the protocol above is only about data
//!   races. Dropping the ring drops every slot exactly once, through the
//!   boxed slice.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads an atomic counter to its own cache line so the producer's tail and
/// the consumer's head never false-share.
#[repr(align(128))]
#[derive(Debug, Default)]
struct CachePadded(AtomicUsize);

struct RingShared<T> {
    buf: Box<[UnsafeCell<T>]>,
    mask: usize,
    /// Next slot the consumer will read. Written only by the consumer.
    head: CachePadded,
    /// Next slot the producer will write. Written only by the producer.
    tail: CachePadded,
}

// SAFETY: the ring is shared between exactly one producer and one consumer;
// the head/tail protocol above ensures a slot is never accessed from both
// sides at once. `T: Send` is required because items cross threads.
unsafe impl<T: Send> Send for RingShared<T> {}
unsafe impl<T: Send> Sync for RingShared<T> {}

/// Creates a ring holding at least `capacity` items (rounded up to a power
/// of two), every slot initialised to `T::default()`, returning the two
/// endpoint handles.
pub fn ring<T: Send + Default>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity >= 2, "a ring needs room for at least two items");
    let cap = capacity.next_power_of_two();
    let shared = Arc::new(RingShared {
        buf: (0..cap).map(|_| UnsafeCell::new(T::default())).collect(),
        mask: cap - 1,
        head: CachePadded::default(),
        tail: CachePadded::default(),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            reserved: false,
            published: 0,
            cached_head: 0,
        },
        Consumer {
            shared,
            head: 0,
            cached_tail: 0,
        },
    )
}

/// The write end of a ring. `!Clone`: exactly one producer exists.
pub struct Producer<T: Send> {
    shared: Arc<RingShared<T>>,
    /// Next slot to write: the shared tail plus the slots committed but not
    /// yet published.
    tail: usize,
    /// Whether slot `tail` has been handed out by `reserve` and not yet
    /// committed.
    reserved: bool,
    /// Local copy of the shared tail (this side owns it).
    published: usize,
    /// Last observed consumer head; refreshed only when the ring looks full.
    cached_head: usize,
}

impl<T: Send> Producer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Free slots, according to the (possibly stale) cached head.
    fn free_cached(&mut self) -> usize {
        let cap = self.capacity();
        if self.tail - self.cached_head == cap {
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
        }
        cap - (self.tail - self.cached_head)
    }

    /// The next free slot, to be written in place, or `None` if the ring is
    /// full. The slot holds whatever its previous use left there. Nothing
    /// changes until [`Self::commit`]: reserving twice yields the same slot.
    pub fn reserve(&mut self) -> Option<&mut T> {
        if self.free_cached() == 0 {
            return None;
        }
        self.reserved = true;
        // SAFETY: slot `tail` is in the producer-owned region (free > 0
        // against a head no newer than the real one) and not yet published;
        // the `&mut self` borrow keeps this the only reference to it.
        Some(unsafe { &mut *self.shared.buf[self.tail & self.shared.mask].get() })
    }

    /// Counts the slot last handed out by [`Self::reserve`] as written. The
    /// consumer does not see it before [`Self::publish`].
    ///
    /// # Panics
    /// If no reservation is open: every commit needs its own successful
    /// [`Self::reserve`], so a slot nobody wrote is never published and
    /// `tail` never leaves the producer's region.
    pub fn commit(&mut self) {
        assert!(self.reserved, "commit without a reserved slot");
        self.reserved = false;
        self.tail += 1;
    }

    /// Publishes every committed slot to the consumer with one release
    /// store (none if nothing was committed since the last call, so the
    /// consumer's copy of the cache line is left alone).
    pub fn publish(&mut self) {
        if self.tail != self.published {
            self.published = self.tail;
            self.shared.tail.0.store(self.tail, Ordering::Release);
        }
    }

    /// Attempts to push one item; returns it back if the ring is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        match self.reserve() {
            Some(slot) => *slot = item,
            None => return Err(item),
        }
        self.commit();
        self.publish();
        Ok(())
    }

    /// Moves as many items as fit from the front of `items`, publishing them
    /// with a single release store. Returns how many were taken.
    pub fn push_batch(&mut self, items: &mut Vec<T>) -> usize {
        let take = self.free_cached().min(items.len());
        for item in items.drain(..take) {
            *self.reserve().expect("`take` slots are free") = item;
            self.commit();
        }
        self.publish();
        take
    }
}

/// The read end of a ring. `!Clone`: exactly one consumer exists.
pub struct Consumer<T: Send> {
    shared: Arc<RingShared<T>>,
    /// Local copy of the ring's head (this side owns it).
    head: usize,
    /// Last observed producer tail; refreshed only when the ring looks empty.
    cached_tail: usize,
}

impl<T: Send> Consumer<T> {
    /// Items available, according to the (possibly stale) cached tail.
    fn available_cached(&mut self) -> usize {
        if self.cached_tail == self.head {
            self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
        }
        self.cached_tail - self.head
    }

    /// Borrows up to `max` published items where they lie, oldest first. The
    /// run stops at the end of the buffer, so after a wrap-around the rest
    /// arrives with the next call; it is empty only if nothing is published.
    /// Nothing is consumed until [`Self::release`]. Mutable, so that an item
    /// can be taken out of its slot.
    pub fn run(&mut self, max: usize) -> &mut [T] {
        let start = self.head & self.shared.mask;
        let len = self
            .available_cached()
            .min(max)
            .min(self.shared.buf.len() - start);
        let slots = &self.shared.buf[start..start + len];
        // SAFETY: the `len` slots from `head` on are published
        // (`len <= cached_tail - head`) and stay the consumer's until
        // `release` advances `head`, which the `&mut self` borrow of the
        // returned slice rules out for as long as it lives. They are
        // contiguous (`start + len` stays within the buffer), and
        // `UnsafeCell<T>` has the layout of `T`.
        unsafe { std::slice::from_raw_parts_mut(UnsafeCell::raw_get(slots.as_ptr()), len) }
    }

    /// Hands the oldest `n` items back to the producer with one release
    /// store; their slots keep whatever the consumer left in them.
    ///
    /// # Panics
    /// If fewer than `n` items were available to [`Self::run`].
    pub fn release(&mut self, n: usize) {
        assert!(
            n <= self.cached_tail - self.head,
            "released more than was borrowed"
        );
        self.head += n;
        self.shared.head.0.store(self.head, Ordering::Release);
    }

    /// True if the ring is empty *and* nothing is in flight from the
    /// producer at the moment of the check.
    pub fn is_empty_now(&mut self) -> bool {
        self.available_cached() == 0
    }

    /// Pops one item, if any, moving it out and leaving a default value in
    /// its slot.
    pub fn pop(&mut self) -> Option<T>
    where
        T: Default,
    {
        let item = std::mem::take(self.run(1).first_mut()?);
        self.release(1);
        Some(item)
    }

    /// Copies up to `max` items into `out`, retiring them with a single
    /// release store; nothing is written back to their slots. Returns how
    /// many were popped (at most up to the end of the buffer, like
    /// [`Self::run`]).
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize
    where
        T: Clone,
    {
        let run = self.run(max);
        let take = run.len();
        out.extend_from_slice(run);
        if take > 0 {
            self.release(take);
        }
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo() {
        let (mut tx, mut rx) = ring::<u64>(4);
        assert_eq!(tx.capacity(), 4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert!(tx.push(99).is_err(), "ring should be full");
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn batch_push_pop() {
        let (mut tx, mut rx) = ring::<u32>(8);
        let mut items: Vec<u32> = (0..12).collect();
        assert_eq!(tx.push_batch(&mut items), 8);
        assert_eq!(items.len(), 4, "unpushed remainder stays");
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 5), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(tx.push_batch(&mut items), 4);
        out.clear();
        // pop_batch is conservative: it serves the cached run first and only
        // reloads the producer index when that run is exhausted.
        while out.len() < 7 {
            assert!(rx.pop_batch(&mut out, 64) > 0);
        }
        assert_eq!(out, vec![5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(rx.pop_batch(&mut out, 64), 0);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u8>(33);
        assert_eq!(tx.capacity(), 64);
    }

    #[test]
    fn in_place_slots_are_invisible_until_published() {
        let (mut tx, mut rx) = ring::<[u8; 4]>(4);
        for i in 0..3u8 {
            let slot = tx.reserve().expect("room");
            slot[0] = i;
            tx.commit();
        }
        assert!(rx.run(8).is_empty(), "committed is not published");
        tx.publish();
        let run = rx.run(2);
        assert_eq!(run.len(), 2, "capped by max");
        assert_eq!((run[0][0], run[1][0]), (0, 1));
        // Borrowing does not consume.
        assert_eq!(rx.run(8).len(), 3);
        rx.release(2);
        assert_eq!(rx.run(8)[0][0], 2);
        rx.release(1);
        assert!(rx.is_empty_now());
        // A run stops at the end of the buffer: slots 3, then 0..
        for i in 10..13u8 {
            tx.reserve().expect("room")[0] = i;
            tx.commit();
        }
        tx.publish();
        assert_eq!(rx.run(8).len(), 1);
        rx.release(1);
        assert_eq!(rx.run(8).len(), 2);
    }

    #[test]
    fn full_ring_refuses_reservation_and_stray_commits() {
        let (mut tx, mut rx) = ring::<u8>(2);
        let stray = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tx.commit()));
        assert!(stray.is_err(), "commit before any reserve must panic");
        *tx.reserve().expect("room") = 1;
        *tx.reserve().expect("room") = 1;
        tx.commit();
        let twice = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tx.commit()));
        assert!(twice.is_err(), "one reservation is one commit");
        tx.publish();
        tx.push(2).unwrap();
        assert!(tx.reserve().is_none());
        let stray = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tx.commit()));
        assert!(stray.is_err(), "commit with no free slot must panic");
        let over = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rx.release(3)));
        assert!(over.is_err(), "releasing unborrowed slots must panic");
        assert_eq!(rx.pop(), Some(1));
    }

    #[test]
    fn every_item_is_dropped_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug, Default)]
        struct D(bool);
        impl Drop for D {
            fn drop(&mut self) {
                if self.0 {
                    DROPS.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        let (mut tx, mut rx) = ring::<D>(4);
        for _ in 0..3 {
            tx.push(D(true)).unwrap();
        }
        drop(rx.pop());
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
        // Overwriting a consumed slot drops only the placeholder in it.
        for _ in 0..2 {
            tx.push(D(true)).unwrap();
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn cross_thread_stream_is_lossless_and_ordered() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = ring::<u64>(256);
        let producer = std::thread::spawn(move || {
            let mut pending: Vec<u64> = Vec::new();
            let mut next = 0u64;
            while next < N || !pending.is_empty() {
                while pending.len() < 64 && next < N {
                    pending.push(next);
                    next += 1;
                }
                if tx.push_batch(&mut pending) == 0 {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expected = 0u64;
        let mut out = Vec::new();
        while expected < N {
            out.clear();
            if rx.pop_batch(&mut out, 64) == 0 {
                std::hint::spin_loop();
                continue;
            }
            for v in &out {
                assert_eq!(*v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(expected, N);
    }
}
