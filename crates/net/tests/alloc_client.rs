//! The blocking client's send side allocates nothing: a warm `read` through
//! [`netchain_net::LoopbackClient`] allocates exactly what building the query
//! (`AgentCore::begin`) and parsing and matching the reply
//! (`NetChainPacket::from_bytes`, `AgentCore::on_reply`) allocate when the
//! same calls are made by hand, and the frame between them is encoded on the
//! stack.
//!
//! The counter is kept per thread and switched on only around the calls
//! under test, so the worker threads and the harness do not enter.

use netchain_core::{AgentConfig, AgentCore, ChainDirectory, HashRing, KvOp};
use netchain_net::{NetConfig, NetDataplane};
use netchain_sim::SimTime;
use netchain_switch::PipelineConfig;
use netchain_wire::{Ipv4Addr, Key, NetChainPacket, Value, MAX_FRAME_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::UdpSocket;
use std::time::Duration;

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

#[test]
fn a_warm_read_allocates_nothing_on_the_send_side() {
    let ring = HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7);
    let key = Key::from_u64(1);
    let config = NetConfig::new(ring.clone(), 1, PipelineConfig::tiny(64));
    let plane = NetDataplane::start(config, &[(key, Value::from_u64(7))]).expect("start");

    // The read through the client, warm.
    let mut client = plane
        .client(AgentConfig::new(Ipv4Addr::for_host(0)))
        .expect("client socket");
    for _ in 0..8 {
        client.read(key).expect("warm-up read");
    }
    let (whole, done) = allocations_in(|| client.read(key).expect("read"));
    assert_eq!(done.value.as_u64(), Some(7));
    assert_eq!(client.agent_stats().retries, 0, "a retransmission entered");

    // The same read by hand: every call `execute` makes but the send.
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
    socket
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    let ip = Ipv4Addr::for_host(1);
    plane.register_client(ip, socket.local_addr().expect("addr"));
    let mut agent = AgentCore::new(AgentConfig::new(ip), ChainDirectory::new(ring));
    let mut buf = [0u8; MAX_FRAME_LEN + 1];
    let mut by_hand = 0;
    for _ in 0..9 {
        let (built, (_, pkt)) = allocations_in(|| agent.begin(SimTime(0), KvOp::Read(key)));
        socket
            .send_to(&pkt.to_bytes(), plane.addr_of_key(&key))
            .expect("send");
        let (len, _) = socket.recv_from(&mut buf).expect("reply");
        let (absorbed, done) = allocations_in(|| {
            let reply = NetChainPacket::from_bytes(&buf[..len]).expect("parse");
            agent.on_reply(SimTime(1), &reply)
        });
        assert!(done.is_some(), "the reply matched");
        // The last, warm round is the one compared.
        by_hand = built + absorbed;
    }
    assert_eq!(
        whole, by_hand,
        "the client's send allocated: a read costs {whole} allocations, \
         building the query and absorbing the reply {by_hand}"
    );
    drop(client);
    plane.shutdown();
}
