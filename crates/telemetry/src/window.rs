//! Rolling-window metrics: per-shard, slice-aligned counters that a live
//! detector can compare across peers while the dataplane keeps running.
//!
//! A [`RollingWindow`] is a small ring of time slices (1 s by convention;
//! the slice length itself lives in the [`WindowRegistry`]). Each slice
//! holds one atomic counter per [`WindowChannel`]. Writers pick the slot by
//! `slice % len` and rotate it lazily — when a slot's stored epoch is older
//! than the slice being written, its counters are zeroed and re-stamped.
//! Everything is plain atomics: recording is wait-free for the common case
//! (a `fetch_add` on a hot slot), readers never block writers, and snapshots
//! from many shards merge element-wise.
//!
//! Time is an explicit slice index, never a wall clock read inside this
//! module — that is what makes the gray-failure detector's acceptance test
//! deterministic: tests feed synthetic slice data and the detector cannot
//! tell the difference.
//!
//! The lazy rotation has one documented approximation: if two writer threads
//! race to rotate the *same* stale slot at a slice boundary, a handful of
//! increments from the loser can land after the winner's zeroing and be
//! attributed to the new slice. The intended deployment is single-writer per
//! window (one shard worker owns its window; clients own their own), where
//! the race cannot occur at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The counters every window slice carries, one atomic each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowChannel {
    /// Operations processed (or completed, for client-side windows).
    Ops = 0,
    /// Retransmissions issued.
    Retries = 1,
    /// Queries dropped by a recovery block rule.
    Blocked = 2,
    /// Ingress queue depth; merged by maximum, not sum.
    QueueDepth = 3,
}

/// Number of [`WindowChannel`]s.
pub const WINDOW_CHANNELS: usize = 4;

/// All channels in index order (for iteration and display).
pub const ALL_CHANNELS: [WindowChannel; WINDOW_CHANNELS] = [
    WindowChannel::Ops,
    WindowChannel::Retries,
    WindowChannel::Blocked,
    WindowChannel::QueueDepth,
];

impl WindowChannel {
    /// Short display name of the channel.
    pub fn name(self) -> &'static str {
        match self {
            WindowChannel::Ops => "ops",
            WindowChannel::Retries => "retries",
            WindowChannel::Blocked => "blocked",
            WindowChannel::QueueDepth => "queue_depth",
        }
    }
}

/// One slice's counters, frozen.
pub type SliceCounters = [u64; WINDOW_CHANNELS];

#[derive(Debug)]
struct WindowSlot {
    /// The slice index this slot currently represents.
    epoch: AtomicU64,
    counters: [AtomicU64; WINDOW_CHANNELS],
}

impl WindowSlot {
    fn new() -> Self {
        WindowSlot {
            // Sentinel: no real slice uses u64::MAX (that would need ~584
            // years of 1s slices), so fresh slots never alias slice 0.
            epoch: AtomicU64::new(u64::MAX),
            counters: [const { AtomicU64::new(0) }; WINDOW_CHANNELS],
        }
    }
}

/// A ring of per-slice counters for one shard (or one client group).
#[derive(Debug)]
pub struct RollingWindow {
    slots: Box<[WindowSlot]>,
}

impl RollingWindow {
    /// Creates a window retaining `slices` slices (at least 2).
    pub fn new(slices: usize) -> Self {
        assert!(slices >= 2, "a rolling window needs at least 2 slices");
        RollingWindow {
            slots: (0..slices).map(|_| WindowSlot::new()).collect(),
        }
    }

    /// Number of slices retained.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the window retains no slices (never: `new` enforces ≥ 2).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Rotates the slot for `slice` if it still holds an older epoch,
    /// returning it ready for writes.
    fn slot_for(&self, slice: u64) -> &WindowSlot {
        let slot = &self.slots[(slice % self.slots.len() as u64) as usize];
        let cur = slot.epoch.load(Ordering::Acquire);
        if cur != slice
            && slot
                .epoch
                .compare_exchange(cur, slice, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            for c in &slot.counters {
                c.store(0, Ordering::Release);
            }
        }
        slot
    }

    /// Adds `n` to `channel` in `slice`.
    #[inline]
    pub fn add(&self, slice: u64, channel: WindowChannel, n: u64) {
        self.slot_for(slice).counters[channel as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Raises `channel` in `slice` to at least `v` (gauge semantics, used
    /// for queue depth).
    #[inline]
    pub fn raise(&self, slice: u64, channel: WindowChannel, v: u64) {
        self.slot_for(slice).counters[channel as usize].fetch_max(v, Ordering::Relaxed);
    }

    /// Reads the counters of `slice`, or `None` if the slot has rotated past
    /// it (the slice is too old or was never written).
    pub fn read(&self, slice: u64) -> Option<SliceCounters> {
        let slot = &self.slots[(slice % self.slots.len() as u64) as usize];
        if slot.epoch.load(Ordering::Acquire) != slice {
            return None;
        }
        let mut out = [0u64; WINDOW_CHANNELS];
        for (o, c) in out.iter_mut().zip(&slot.counters) {
            *o = c.load(Ordering::Relaxed);
        }
        // Re-check the epoch: if the slot rotated mid-read, discard.
        (slot.epoch.load(Ordering::Acquire) == slice).then_some(out)
    }

    /// The last `n` slices ending at `upto` (inclusive), oldest first.
    /// Unwritten/rotated slices read as all-zero.
    pub fn series(&self, upto: u64, n: usize) -> Vec<SliceCounters> {
        (0..n as u64)
            .map(|i| {
                let slice = upto + 1 + i;
                slice
                    .checked_sub(n as u64)
                    .and_then(|s| self.read(s))
                    .unwrap_or_default()
            })
            .collect()
    }
}

/// One window per shard, shared between the dataplane (writers) and the
/// detector / dashboard (readers). Cloning the registry is cheap (`Arc`s).
#[derive(Debug, Clone)]
pub struct WindowRegistry {
    windows: Vec<Arc<RollingWindow>>,
    slice_len: Duration,
}

impl WindowRegistry {
    /// Creates a registry of `shards` windows, each retaining `slices`
    /// slices of `slice_len` wall-clock time.
    pub fn new(shards: usize, slices: usize, slice_len: Duration) -> Self {
        assert!(slice_len > Duration::ZERO, "slice length must be positive");
        WindowRegistry {
            windows: (0..shards)
                .map(|_| Arc::new(RollingWindow::new(slices)))
                .collect(),
            slice_len,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.windows.len()
    }

    /// The configured slice length.
    pub fn slice_len(&self) -> Duration {
        self.slice_len
    }

    /// Maps elapsed-time-since-run-start to a slice index.
    pub fn slice_of(&self, elapsed: Duration) -> u64 {
        (elapsed.as_nanos() / self.slice_len.as_nanos().max(1)) as u64
    }

    /// The window of shard `shard`.
    pub fn window(&self, shard: usize) -> &Arc<RollingWindow> {
        &self.windows[shard]
    }

    /// Per-shard counters at `slice` (zeros where nothing was recorded).
    pub fn slice_across_shards(&self, slice: u64) -> Vec<SliceCounters> {
        self.windows
            .iter()
            .map(|w| w.read(slice).unwrap_or_default())
            .collect()
    }

    /// Per-shard series of the last `n` slices ending at `upto`, oldest
    /// first.
    pub fn series_across_shards(&self, upto: u64, n: usize) -> Vec<Vec<SliceCounters>> {
        self.windows.iter().map(|w| w.series(upto, n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn add_and_read_one_slice() {
        let w = RollingWindow::new(4);
        w.add(0, WindowChannel::Ops, 10);
        w.add(0, WindowChannel::Ops, 5);
        w.add(0, WindowChannel::Retries, 1);
        w.raise(0, WindowChannel::QueueDepth, 7);
        w.raise(0, WindowChannel::QueueDepth, 3);
        let c = w.read(0).unwrap();
        assert_eq!(c[WindowChannel::Ops as usize], 15);
        assert_eq!(c[WindowChannel::Retries as usize], 1);
        assert_eq!(c[WindowChannel::Blocked as usize], 0);
        assert_eq!(c[WindowChannel::QueueDepth as usize], 7);
    }

    #[test]
    fn rotation_evicts_old_slices() {
        let w = RollingWindow::new(3);
        w.add(0, WindowChannel::Ops, 1);
        w.add(1, WindowChannel::Ops, 2);
        w.add(2, WindowChannel::Ops, 3);
        assert!(w.read(0).is_some());
        // Slice 3 reuses slot 0 and zeroes it.
        w.add(3, WindowChannel::Ops, 4);
        assert_eq!(w.read(0), None);
        assert_eq!(w.read(3).unwrap()[0], 4);
        assert_eq!(w.read(1).unwrap()[0], 2);
    }

    #[test]
    fn series_is_oldest_first_with_zero_fill() {
        let w = RollingWindow::new(8);
        w.add(5, WindowChannel::Ops, 50);
        w.add(7, WindowChannel::Ops, 70);
        let s = w.series(7, 4);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0][0], 0); // slice 4: never written
        assert_eq!(s[1][0], 50); // slice 5
        assert_eq!(s[2][0], 0); // slice 6
        assert_eq!(s[3][0], 70); // slice 7
    }

    #[test]
    fn registry_maps_time_and_merges_across_shards() {
        let reg = WindowRegistry::new(3, 8, Duration::from_secs(1));
        assert_eq!(reg.slice_of(Duration::from_millis(500)), 0);
        assert_eq!(reg.slice_of(Duration::from_millis(2400)), 2);
        reg.window(0).add(2, WindowChannel::Ops, 100);
        reg.window(1).add(2, WindowChannel::Ops, 90);
        // Shard 2 records nothing: the straggler the detector looks for.
        let across = reg.slice_across_shards(2);
        assert_eq!(across[0][0], 100);
        assert_eq!(across[1][0], 90);
        assert_eq!(across[2][0], 0);
        assert_eq!(reg.series_across_shards(2, 3)[1][2][0], 90);
    }

    #[test]
    fn concurrent_writers_never_lose_steady_state_counts() {
        // Away from rotation boundaries, fetch_add is exact even with many
        // writers on the same slot.
        let w = Arc::new(RollingWindow::new(4));
        // Rotate the fresh slot to slice 1 first: the writers' first adds
        // would otherwise race that rotation, which is the documented
        // approximation, not the steady state this test is about.
        w.add(1, WindowChannel::Ops, 0);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let w = Arc::clone(&w);
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        w.add(1, WindowChannel::Ops, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(w.read(1).unwrap()[0], 40_000);
    }
}
