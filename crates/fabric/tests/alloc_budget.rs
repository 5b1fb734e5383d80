//! The allocation budget of the live path: after warm-up, a read round trip
//! (draw → encode in the query ring's slot → `process_burst` out of the ring
//! → reply into the reply ring's slot → match where it lies) allocates
//! nothing, and neither does the client side of the 50/40/10 write mix. The
//! shard's side of the mix is reported, not gated.
//!
//! Both pumps run on this one thread, so the counter — kept per thread, and
//! switched on only around the calls under test — sees exactly their
//! allocations and none of the test harness's.

use netchain_fabric::{build_shards, connect, ClientState, FabricConfig, WorkloadSpec};
use netchain_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)` while this thread's allocations are being counted.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: defers every operation to the system allocator unchanged; the
// bookkeeping is a plain thread-local counter with no destructor, so it
// neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get().map(|n| n + 1)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how many times it allocated (or reallocated).
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = f();
    let count = ALLOCATIONS
        .with(|n| n.replace(None))
        .expect("counting was on");
    (count, out)
}

/// Drives `ops` operations of `spec` through one client and one shard on
/// this thread, after a warm-up of the same length, and returns the
/// allocations of (client side, shard side) past the warm-up.
fn steady_state_allocations(spec: WorkloadSpec, ops: u64) -> (u64, u64) {
    let config = FabricConfig::new(1);
    let spec = WorkloadSpec {
        ops_per_client: 2 * ops,
        ..spec
    };
    let mut shard = build_shards(&config, &spec).pop().expect("one shard");
    let (mut client_ports, mut shard_ports) = connect(&config);
    let (mut client_port, mut shard_port) = (
        client_ports.pop().expect("one client"),
        shard_ports.pop().expect("one shard"),
    );
    let mut client = ClientState::new(0, &config.build_ring(), spec);
    let mut tick = 0u64;
    let (mut client_allocs, mut shard_allocs) = (0u64, 0u64);
    while !client.is_done() {
        let warm = client.report().completed >= ops;
        let (n, pass) = allocations_in(|| {
            client_port.pump(&mut client, true, || {
                tick += 1;
                SimTime(tick)
            })
        });
        client_allocs += if warm { n } else { 0 };
        let (n, round) = allocations_in(|| shard_port.pump(&mut shard, |_| false));
        shard_allocs += if warm { n } else { 0 };
        assert!(
            pass.progressed || round.frames > 0,
            "the closed loop wedged at {:?}",
            client.report()
        );
    }
    let report = client.report();
    assert_eq!(report.completed, 2 * ops);
    assert_eq!(report.version_regressions, 0);
    assert_eq!(shard.stats().replies, 2 * ops);
    assert_eq!(shard.stats().drops + shard.stats().parse_errors, 0);
    (client_allocs, shard_allocs)
}

#[test]
fn read_round_trips_allocate_nothing() {
    // 256 keys: the warm-up touches every one, so the client's per-key
    // version table has stopped growing.
    let (client, shard) = steady_state_allocations(WorkloadSpec::uniform_read(256, 0), 10_000);
    assert_eq!(
        (client, shard),
        (0, 0),
        "(client, shard) allocations in 10k reads"
    );
}

#[test]
fn write_mix_allocates_nothing_on_the_client_side() {
    let (client, shard) = steady_state_allocations(WorkloadSpec::mixed(256, 0, 50, 40), 10_000);
    println!("write mix, 10k ops past warm-up: {shard} shard-side allocations (not gated)");
    assert_eq!(client, 0, "client-side allocations in 10k mixed ops");
}
