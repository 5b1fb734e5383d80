//! The allocation budget of the live path: after warm-up, a round trip (draw
//! → encode in the query ring's slot → `process_burst` out of the ring →
//! reply into the reply ring's slot → match where it lies) allocates nothing
//! on either side, for reads and for the 50/40/10 write mix alike — nor does
//! a read burst while failover rules are installed, nor an operation whose
//! reply is held back while two windows of newer ones pass it (a straggler
//! in the agent's outstanding table), nor a maximum-length write to a key
//! whose registers only ever held eight bytes once another write has reached
//! every stage (a store backs a stage for all its slots once, when the first
//! value reaches it).
//!
//! The same harness counts the client's clock readings: a pass reads the
//! clock twice for all the queries it issues and once per reply run, and
//! spreads its queries' issue stamps between its two issue readings.
//!
//! Both pumps run on this one thread, so the counter — kept per thread, and
//! switched on only around the calls under test — sees exactly their
//! allocations and none of the test harness's.

use netchain_core::failplan::Target;
use netchain_core::{ClientState, WorkloadSpec};
use netchain_fabric::{build_shards, connect, FabricConfig, Frame, Shard};
use netchain_sim::SimTime;
use netchain_switch::{ControlOp, FailoverAction, FailoverRule, RuleScope};
use netchain_telemetry::{trace_id, HopRole, HopStamp, TraceConfig};
use netchain_wire::{
    BatchEncoder, ChainList, Ipv4Addr, Key, NetChainPacket, OpCode, PacketView, Value,
    MAX_VALUE_LEN,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::RangeInclusive;

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

/// How far the harness's clock moves per reading: far enough that the
/// stamps one pass spreads between its two readings differ.
const TICK: u64 = 1_000;

/// One client pass that issued: its request ids, and the clock's first two
/// readings in it.
struct IssuePass {
    ids: RangeInclusive<u64>,
    from: u64,
    to: u64,
}

/// What [`closed_loop`] saw past its warm-up.
struct SteadyState {
    client_allocs: u64,
    shard_allocs: u64,
    passes: Vec<IssuePass>,
    client: ClientState,
}

/// Drives `ops` operations of `spec` through one client and one shard on
/// this thread, after a warm-up of the same length, counting allocations on
/// each side and clock readings per client pass. Every pass that issues
/// more than two queries must read the clock at most twice plus once per
/// reply ring that yielded replies.
fn closed_loop(spec: WorkloadSpec, ops: u64, trace: Option<TraceConfig>) -> SteadyState {
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
    if let Some(trace) = trace {
        client.enable_tracing(trace);
    }
    let mut tick = 0u64;
    let (mut client_allocs, mut shard_allocs, mut passes) = (0u64, 0u64, Vec::new());
    let (mut issued, mut reads) = (0u64, 0u64);
    while !client.is_done() {
        let warm = client.report().completed >= ops;
        let (start, before) = (tick, client.report().issued);
        let (n, pass) = allocations_in(|| {
            client_port.pump(&mut client, true, || {
                tick += TICK;
                SimTime(tick)
            })
        });
        let (n_issued, n_reads) = (client.report().issued - before, (tick - start) / TICK);
        if warm {
            client_allocs += n;
            issued += n_issued;
            reads += n_reads;
            // One shard: one reply ring, and every reply it yields matches.
            let runs = u64::from(pass.completed > 0);
            assert!(
                n_issued <= 2 || n_reads <= 2 + runs,
                "a pass that issued {n_issued} queries and drained {runs} reply runs \
                 read the clock {n_reads} times"
            );
            if n_issued > 0 {
                passes.push(IssuePass {
                    ids: before + 1..=before + n_issued,
                    from: start + TICK,
                    to: start + 2 * TICK,
                });
            }
        }
        let (n, frames) = allocations_in(|| shard_port.pump(&mut shard, |_| false));
        shard_allocs += if warm { n } else { 0 };
        assert!(
            pass.progressed || frames > 0,
            "the closed loop wedged at {:?}",
            client.report()
        );
    }
    let report = client.report();
    assert_eq!(report.completed, 2 * ops);
    assert_eq!(report.version_regressions, 0);
    assert_eq!(shard.stats().replies, 2 * ops);
    assert_eq!(shard.stats().drops + shard.stats().parse_errors, 0);
    println!(
        "{:.3} clock reads per issued query over {} passes",
        reads as f64 / issued as f64,
        passes.len()
    );
    SteadyState {
        client_allocs,
        shard_allocs,
        passes,
        client,
    }
}

#[test]
fn read_round_trips_allocate_nothing() {
    // 256 keys: the warm-up touches every one, so the client's per-key
    // version table has stopped growing.
    let run = closed_loop(WorkloadSpec::uniform_read(256, 0), 10_000, None);
    assert_eq!(
        (run.client_allocs, run.shard_allocs),
        (0, 0),
        "(client, shard) allocations in 10k reads"
    );
}

#[test]
fn write_mix_allocates_nothing() {
    let run = closed_loop(WorkloadSpec::mixed(256, 0, 50, 40), 10_000, None);
    assert_eq!(
        (run.client_allocs, run.shard_allocs),
        (0, 0),
        "(client, shard) allocations in 10k mixed ops"
    );
}

#[test]
fn a_pass_spreads_its_issue_stamps_between_its_two_readings() {
    // Every query traced, so its client fragment opens with the issue stamp
    // its latency runs from.
    let SteadyState {
        passes, mut client, ..
    } = closed_loop(
        WorkloadSpec::mixed(256, 0, 50, 40),
        2_000,
        Some(TraceConfig::sampled(0, usize::MAX)),
    );
    let issued_at: HashMap<u64, HopStamp> = client
        .take_traces()
        .1
        .into_iter()
        .map(|t| (t.id >> 16, t.hops[0]))
        .collect();
    let ip = u32::from_be_bytes(Ipv4Addr::for_host(0).0);
    assert!(passes.iter().any(|p| p.ids.clone().count() > 2));
    for pass in &passes {
        let stamps: Vec<u64> = pass
            .ids
            .clone()
            .map(|id| {
                // A trace id's high bits name the query, whatever its key.
                let stamp = issued_at[&(trace_id(ip, id, 0) >> 16)];
                assert_eq!(stamp.evidence.map(|e| e.role), Some(HopRole::ClientIssue));
                stamp.at_ns
            })
            .collect();
        assert_eq!(stamps[0], pass.from, "the first stamp of {:?}", pass.ids);
        // Spread, not back-dated: the last of several lies past the middle.
        let last = stamps[stamps.len() - 1];
        assert!(stamps.len() == 1 || 2 * (last - pass.from) >= pass.to - pass.from);
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]) && stamps.iter().all(|&at| at < pass.to),
            "stamps {stamps:?} of {:?} between readings {} and {}",
            pass.ids,
            pass.from,
            pass.to
        );
    }
}

#[test]
fn a_straggler_allocates_nothing_and_completes_once() {
    // Whenever nothing is held, the first reply of a burst is set aside and
    // delivered only after two more windows of ids have been issued: by then
    // the newer ids have come round to its slot of the agent's outstanding
    // table and moved it out. Every reply, the late one included, must match
    // exactly one query, and past the warm-up (which sees the first few
    // stragglers) neither side may allocate.
    const OPS: u64 = 10_000;
    let config = FabricConfig::new(1);
    let spec = WorkloadSpec::mixed(256, 2 * OPS, 50, 40);
    let window = spec.window as u64;
    let mut shard = build_shards(&config, &spec).pop().expect("one shard");
    let mut client = ClientState::new(0, &config.build_ring(), spec);
    let mut queries = vec![Frame::default(); spec.window];
    let mut replies = BatchEncoder::with_capacity(spec.window, 128);
    let mut held = Frame::default();
    // What `issued` read when the held reply was set aside.
    let mut held_at: Option<u64> = None;
    let mut tick = 0u64;
    let (mut client_allocs, mut shard_allocs, mut stragglers) = (0u64, 0u64, 0u64);
    while !client.is_done() {
        let warm = client.report().completed >= OPS;
        let (n, issued) = allocations_in(|| {
            let mut issued = 0;
            while client.can_issue() {
                tick += 1;
                let op = client.draw();
                queries[issued].encode_with(|buf| client.issue_drawn(SimTime(tick), &op, buf));
                issued += 1;
            }
            issued
        });
        client_allocs += if warm { n } else { 0 };
        replies.clear();
        let burst = queries[..issued].iter().map(|f| f.as_bytes());
        let (n, ()) = allocations_in(|| shard.process_burst(burst, &mut replies));
        shard_allocs += if warm { n } else { 0 };
        assert_eq!(replies.len(), issued);

        let total = client.report().issued;
        let due = held_at.is_some_and(|at| total >= at + 2 * window || total == 2 * OPS);
        assert!(issued > 0 || due, "wedged at {:?}", client.report());
        let (n, ()) = allocations_in(|| {
            for (i, reply) in replies.frames().enumerate() {
                if i == 0 && held_at.is_none() {
                    held.set_bytes(reply).expect("a reply fits a frame");
                    held_at = Some(total);
                } else {
                    assert!(client.absorb_reply_at(SimTime(tick), reply));
                }
            }
            if due {
                assert!(client.absorb_reply_at(SimTime(tick), held.as_bytes()));
                held_at = None;
                stragglers += 1;
            }
        });
        client_allocs += if warm { n } else { 0 };
    }
    let report = client.report();
    assert_eq!((report.issued, report.completed), (2 * OPS, 2 * OPS));
    assert_eq!(report.version_regressions, 0);
    assert_eq!(client.agent_stats().stale_replies, 0);
    assert_eq!(client.outstanding(), 0);
    assert!(stragglers > 50, "only {stragglers} replies were held back");
    assert_eq!(
        (client_allocs, shard_allocs),
        (0, 0),
        "(client, shard) allocations in 10k mixed ops with a straggler in flight"
    );
}

#[test]
fn reads_keep_the_fast_lane_past_a_failover_rule() {
    let config = FabricConfig::new(1);
    let spec = WorkloadSpec::uniform_read(256, 0);
    let ring = config.build_ring();
    let mut staged = build_shards(&config, &spec).pop().expect("one shard");
    let mut scalar = build_shards(&config, &spec).pop().expect("one shard");
    let client = Ipv4Addr::for_host(0);
    let victim = ring.switches()[1];
    let install = |shard: &mut Shard, failed_ip, action| {
        let rule = FailoverRule {
            priority: 1,
            scope: RuleScope::All,
            action,
        };
        shard.apply(
            Target::Neighbours,
            &ControlOp::InstallRule { failed_ip, rule },
        );
    };
    for shard in [&mut staged, &mut scalar] {
        shard.fault(&netchain_core::FaultOp::Kill(victim));
        install(shard, victim, FailoverAction::ChainFailover);
    }
    // One read per key whose tail outlived the kill: addressed to a live
    // switch that holds a rule, but for another destination.
    let frames: Vec<Vec<u8>> = (0..spec.num_keys)
        .map(Key::from_u64)
        .filter_map(|key| {
            let chain = ring.chain_for_key(&key);
            let behind_tail: Vec<Ipv4Addr> = chain.switches.iter().rev().skip(1).copied().collect();
            (chain.tail() != victim).then(|| {
                NetChainPacket::query(
                    client,
                    40_000,
                    chain.tail(),
                    OpCode::Read,
                    key,
                    Value::empty(),
                    ChainList::new(behind_tail).unwrap(),
                    key.low_u64(),
                )
                .to_bytes()
            })
        })
        .collect();
    assert!(frames.len() > 100);
    let burst = || frames.iter().map(|f| f.as_slice());
    let (mut staged_replies, mut scalar_replies) = (BatchEncoder::new(), BatchEncoder::new());
    let mut round = |staged: &mut Shard, scalar: &mut Shard| {
        staged_replies.clear();
        scalar_replies.clear();
        let (allocations, ()) =
            allocations_in(|| staged.process_burst(burst(), &mut staged_replies));
        scalar.process_burst_scalar(burst(), &mut scalar_replies);
        assert!(staged_replies.frames().eq(scalar_replies.frames()));
        assert_eq!(staged.stats(), scalar.stats());
        let first = staged_replies
            .frames()
            .next()
            .map(|f| PacketView::parse(f).unwrap().ip.dst);
        (allocations, staged_replies.len(), first)
    };

    round(&mut staged, &mut scalar); // warm-up: the reply encoder grows once
    let (allocations, replies, to) = round(&mut staged, &mut scalar);
    assert_eq!((allocations, replies, to), (0, frames.len(), Some(client)));

    // A rule for the address the replies go to is another matter: the reads
    // must leave the fast lane, or their replies would miss the redirect.
    let elsewhere = Ipv4Addr::for_host(7);
    for shard in [&mut staged, &mut scalar] {
        install(shard, client, FailoverAction::Redirect(elsewhere));
    }
    round(&mut staged, &mut scalar); // warm-up: the packet slab grows once
    let (allocations, replies, to) = round(&mut staged, &mut scalar);
    assert_eq!(
        (allocations, replies, to),
        (0, frames.len(), Some(elsewhere))
    );
}

#[test]
fn a_write_reaching_stages_never_written_allocates_nothing() {
    // Every key went in with an 8-byte value, so only the first value stage
    // of its slot ever held a byte; a maximum-length write reaches all eight.
    const BURST: u64 = 32;
    let config = FabricConfig::new(1);
    let spec = WorkloadSpec::uniform_read(2 * BURST, 0);
    let ring = config.build_ring();
    let mut shard = build_shards(&config, &spec).pop().expect("one shard");
    let long = Value::filled(0xa5, MAX_VALUE_LEN).unwrap();
    let writes = |keys: std::ops::Range<u64>| -> Vec<Vec<u8>> {
        keys.map(|k| {
            let key = Key::from_u64(k);
            let chain = ring.chain_for_key(&key).switches;
            let rest = ChainList::new(chain[1..].to_vec()).unwrap();
            let client = Ipv4Addr::for_host(0);
            NetChainPacket::query(
                client,
                40_000,
                chain[0],
                OpCode::Write,
                key,
                long.clone(),
                rest,
                k,
            )
            .to_bytes()
        })
        .collect()
    };
    let mut replies = BatchEncoder::new();
    let mut burst = |shard: &mut Shard, frames: &[Vec<u8>]| {
        replies.clear();
        let (n, ()) = allocations_in(|| {
            shard.process_burst(frames.iter().map(|f| f.as_slice()), &mut replies)
        });
        assert_eq!(replies.len(), frames.len());
        n
    };
    // Warm-up on the first half of the keys: the packet slab's value
    // buffers and the reply encoder grow to a burst of long writes, and
    // every store backs the stages a long value reaches.
    burst(&mut shard, &writes(0..BURST));
    let fresh = writes(BURST..2 * BURST);
    assert_eq!(
        burst(&mut shard, &fresh),
        0,
        "allocations in {BURST} long writes"
    );
    for k in BURST..2 * BURST {
        let key = Key::from_u64(k);
        for ip in ring.chain_for_key(&key).switches {
            let kv = shard.switch(ip).unwrap().kv();
            assert_eq!(kv.read_value(kv.lookup(&key).unwrap()), long);
        }
    }
}
