//! The batched, keyspace-sharded socket dataplane.
//!
//! This is the fabric's architecture carried onto real kernel UDP sockets:
//! one worker thread per **keyspace shard**, each hosting its slice of every
//! switch of the ring.
//!
//! * Ingress goes through the vendored [`mmsg`] shim into a [`RecvQueue`] of
//!   fixed-size slots (one byte past [`MAX_FRAME_LEN`], so oversized
//!   datagrams are counted instead of silently truncated): a `recv_from`
//!   while datagrams come singly, one `recvmmsg` for the lot once the shim
//!   sees a backlog (its rule, not an option here). A worker polls
//!   (non-blocking receive, `yield_now` after an empty one) while a datagram
//!   arrived within the last millisecond and blocks, a
//!   [`NetConfig::read_timeout`] at a time, once none has.
//! * Each worker owns a [`netchain_fabric::Shard`] — the staged
//!   validate/hash/probe/execute pipeline over
//!   [`netchain_switch::NetChainSwitch::read_reply_staged`] and
//!   [`netchain_switch::NetChainSwitch::handle_hashed`], parsing
//!   zero-copy straight out of the receive slots. No mutex: the shard is
//!   thread-local, clients steer queries to the owning worker's socket with
//!   [`NetDataplane::addr_of_key`] (the same [`shard_of_key`] rule the
//!   fabric uses).
//! * Egress batches every generated reply into a [`SendQueue`] routed by the
//!   reply's destination IP and flushes it: `send_to` for one reply,
//!   `sendmmsg` bursts for more.
//!
//! [`IoMode::Single`] forces the portable one-datagram-per-syscall paths on
//! the identical processing pipeline, which is what lets `net_scale` measure
//! where batched syscalls engage and what they buy on the same box.
//! [`NetDataplane::start_under`] runs the plane under a fault `Schedule`
//! (`netchain_core::fault`): each worker delivers the `Stall`s that name it
//! and filters its socket's datagrams through the `Link` ops on its edges,
//! verdicts drawn from the schedule's seed.

use mmsg::{RecvQueue, SendQueue, MAX_BURST};
use netchain_core::{HashRing, LinkFilter, Schedule};
use netchain_fabric::{client_id_of, shard_of_group, shard_of_key, Shard};
use netchain_switch::{PipelineConfig, ProbeGauges};
use netchain_telemetry::{merge_thinned, PacketTrace, TraceConfig};
use netchain_wire::{BatchEncoder, Ipv4Addr, Key, Value, MAX_FRAME_LEN};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the workers cross the kernel boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// Batch-capable: `recvmmsg`/`sendmmsg` where the [`mmsg`] shim sees a
    /// batch, the single-datagram calls where it does not (and everywhere on
    /// platforms without the syscalls).
    Burst,
    /// One datagram per syscall, unconditionally — the pre-rewrite I/O
    /// discipline on the rewritten processing pipeline, kept as the
    /// measurable baseline.
    Single,
}

impl IoMode {
    /// Short name for reports.
    pub fn label(self) -> &'static str {
        match self {
            IoMode::Burst => "burst",
            IoMode::Single => "single",
        }
    }
}

/// Configuration of a [`NetDataplane`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The consistent-hash ring the shards replicate (shared with clients so
    /// chain construction and shard steering agree).
    pub ring: HashRing,
    /// Worker threads / keyspace shards.
    pub num_shards: usize,
    /// Pipeline geometry of every switch replica.
    pub pipeline: PipelineConfig,
    /// Syscall discipline.
    pub io_mode: IoMode,
    /// Receive slots filled per recv call (clamped to [`MAX_BURST`]).
    pub burst: usize,
    /// Socket read timeout: the shutdown latency bound.
    pub read_timeout: Duration,
    /// In-band per-hop tracing on the worker shards. `None` (the default)
    /// keeps the hot path exactly as before; when set, every worker stamps
    /// sampled packets against a wall-clock origin taken at
    /// [`NetDataplane::start`] and the merged traces come back in
    /// [`NetReport::traces`].
    pub trace: Option<TraceConfig>,
}

impl NetConfig {
    /// Burst-mode defaults over `ring` with `num_shards` workers.
    pub fn new(ring: HashRing, num_shards: usize, pipeline: PipelineConfig) -> Self {
        NetConfig {
            ring,
            num_shards,
            pipeline,
            io_mode: IoMode::Burst,
            burst: 32,
            read_timeout: Duration::from_millis(5),
            trace: None,
        }
    }
}

/// Number of buckets in [`IoStats::recv_fill`].
pub const RECV_FILL_BUCKETS: usize = 7;

/// Upper bounds (inclusive) of the [`IoStats::recv_fill`] buckets: recv
/// calls returning 1, 2, ≤4, ≤8, ≤16, ≤32 and ≤64 datagrams.
pub const RECV_FILL_BOUNDS: [usize; RECV_FILL_BUCKETS] = [1, 2, 4, 8, 16, 32, MAX_BURST];

/// The [`IoStats::recv_fill`] bucket a recv call returning `n` datagrams
/// lands in.
fn recv_fill_bucket(n: usize) -> usize {
    RECV_FILL_BOUNDS
        .iter()
        .position(|&b| n <= b)
        .unwrap_or(RECV_FILL_BUCKETS - 1)
}

/// Per-worker syscall-layer counters (the shard's own [`netchain_fabric::ShardStats`]
/// cover the processing pipeline).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoStats {
    /// recv calls that returned at least one datagram.
    pub recv_calls: u64,
    /// Datagrams received.
    pub datagrams_in: u64,
    /// Datagrams handed to the kernel for transmission.
    pub datagrams_out: u64,
    /// Datagrams exceeding [`MAX_FRAME_LEN`] (counted, never truncated).
    pub oversized: u64,
    /// Ingress datagrams the link filter took out (net of duplicates).
    pub shim_dropped: u64,
    /// Replies the link filter added (net of drops).
    pub shim_duplicated: u64,
    /// Replies whose destination IP had no registered socket.
    pub unrouted_replies: u64,
    /// Send calls that failed (their queued frames were discarded).
    pub send_errors: u64,
    /// Non-blocking receives that found the socket empty (each followed by a
    /// `yield_now`).
    pub empty_polls: u64,
    /// Blocking receives entered because no datagram arrived within the idle
    /// budget: an idle plane sleeps here, `read_timeout` at a time.
    pub idle_blocks: u64,
    /// Recv-batch-occupancy histogram: how many recv calls returned 1, 2,
    /// ≤4, ≤8, ≤16, ≤32 and ≤64 datagrams ([`RECV_FILL_BOUNDS`]). This is
    /// the denominator of the burst-vs-single question: `recvmmsg` only
    /// amortises its syscall when the socket queue actually holds a batch,
    /// and at moderate offered loads most calls return one or two datagrams.
    pub recv_fill: [u64; RECV_FILL_BUCKETS],
    /// Calls that moved a datagram through `recv_from` / `send_to`.
    pub single_calls: u64,
    /// Calls that moved datagrams through `recvmmsg` / `sendmmsg`: which
    /// call [`IoMode::Burst`] takes is the shim's choice.
    pub burst_calls: u64,
}

impl IoStats {
    /// Mean datagrams returned per successful recv call.
    pub fn batch_factor(&self) -> f64 {
        if self.recv_calls == 0 {
            0.0
        } else {
            self.datagrams_in as f64 / self.recv_calls as f64
        }
    }
}

/// Everything a stopped dataplane hands back: the shards (with their switch
/// replicas' final state, for differential checks) and the per-worker I/O
/// counters.
pub struct NetReport {
    /// The worker shards, index-aligned with the shard ids.
    pub shards: Vec<Shard>,
    /// Per-worker syscall-layer counters, index-aligned with the shards.
    pub io: Vec<IoStats>,
    /// Merged per-hop traces from every worker (empty unless
    /// [`NetConfig::trace`] was set).
    pub traces: Vec<PacketTrace>,
    /// The coarsest shift a worker's trace sink thinned to.
    pub trace_shift: u32,
}

struct Worker {
    addr: SocketAddr,
    thread: JoinHandle<(Shard, IoStats)>,
}

/// A running sharded socket dataplane.
pub struct NetDataplane {
    ring: HashRing,
    num_shards: usize,
    workers: Vec<Worker>,
    routes: Arc<RwLock<HashMap<Ipv4Addr, SocketAddr>>>,
    shutdown: Arc<AtomicBool>,
    /// Wall-clock origin every worker's trace stamps are relative to.
    epoch: std::time::Instant,
}

impl NetDataplane {
    /// Binds one socket per shard, pre-populates `populate` (each key lands
    /// on the worker owning it, on every switch of its chain, in one batch a
    /// worker) and spawns the worker threads.
    pub fn start(config: NetConfig, populate: &[(Key, Value)]) -> std::io::Result<Self> {
        Self::start_under(config, populate, &Schedule::default())
    }

    /// [`Self::start`] under a fault schedule, timed from now. A net worker
    /// delivers `Stall` (of `Ipv4Addr::for_shard(w)`, or of a ring switch:
    /// every worker hosts a slice) and `Link` between a client
    /// (`Ipv4Addr::for_host`) and a worker; there is no controller here to
    /// react to a `Kill`, so a schedule holding one is refused.
    pub fn start_under(
        config: NetConfig,
        populate: &[(Key, Value)],
        schedule: &Schedule,
    ) -> std::io::Result<Self> {
        assert!(config.num_shards > 0, "at least one shard");
        let worker = |ip| (0..config.num_shards as u32).any(|w| Ipv4Addr::for_shard(w) == ip);
        let client = |ip| client_id_of(ip).is_some();
        schedule.check(
            |_| false,
            |ip| worker(ip) || config.ring.switches().contains(&ip),
            |a, b| (client(a) && worker(b)) || (worker(a) && client(b)),
        );
        let burst = config.burst.clamp(1, MAX_BURST);
        let routes: Arc<RwLock<HashMap<Ipv4Addr, SocketAddr>>> =
            Arc::new(RwLock::new(HashMap::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(config.num_shards);
        // One wall-clock origin for every worker, so hop stamps from
        // different threads are comparable after the merge.
        let t0 = std::time::Instant::now();
        for id in 0..config.num_shards {
            let socket = UdpSocket::bind("127.0.0.1:0")?;
            socket.set_read_timeout(Some(config.read_timeout))?;
            let addr = socket.local_addr()?;
            let mut shard = Shard::new(id, config.num_shards, config.ring.clone(), config.pipeline);
            if let Some(trace) = config.trace {
                shard.enable_tracing(trace, t0);
            }
            shard.populate_owned(populate.iter().map(|(key, value)| (*key, value)));
            let routes = Arc::clone(&routes);
            let shutdown = Arc::clone(&shutdown);
            let io_mode = config.io_mode;
            let me = Ipv4Addr::for_shard(id as u32);
            let filter = LinkFilter::new(schedule, me, |ip| shard.named_by(ip));
            let faults = Some((filter, t0)).filter(|(f, _)| !f.is_empty());
            let thread = std::thread::Builder::new()
                .name(format!("netchain-net-shard-{id}"))
                .spawn(move || {
                    worker_loop(socket, shard, routes, io_mode, burst, faults, shutdown)
                })?;
            workers.push(Worker { addr, thread });
        }
        Ok(NetDataplane {
            ring: config.ring,
            num_shards: config.num_shards,
            workers,
            routes,
            shutdown,
            epoch: t0,
        })
    }

    /// The wall-clock origin of the dataplane's trace stamps. Client-side
    /// stampers (the open-loop generator) must use the same origin so merged
    /// hop sequences are comparable across threads and processes.
    pub fn epoch(&self) -> std::time::Instant {
        self.epoch
    }

    /// The ring shared with clients.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The socket addresses of the workers, index-aligned with shard ids.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.workers.iter().map(|w| w.addr).collect()
    }

    /// The socket address of the worker owning `key` — where a query for it
    /// must be sent.
    pub fn addr_of_key(&self, key: &Key) -> SocketAddr {
        self.workers[shard_of_key(&self.ring, key, self.num_shards)].addr
    }

    /// [`Self::addr_of_key`] for a key whose virtual group is already known.
    pub fn addr_of_group(&self, group: u32) -> SocketAddr {
        self.workers[shard_of_group(group, self.num_shards)].addr
    }

    /// Registers a client's reply route (virtual IP → real socket address).
    pub fn register_client(&self, ip: Ipv4Addr, addr: SocketAddr) {
        self.routes.write().insert(ip, addr);
    }

    /// Removes a client's reply route.
    pub fn deregister_client(&self, ip: Ipv4Addr) {
        self.routes.write().remove(&ip);
    }

    /// Stops the workers and returns their final shard state and counters.
    pub fn shutdown(self) -> NetReport {
        self.shutdown.store(true, Ordering::Relaxed);
        let mut shards = Vec::with_capacity(self.workers.len());
        let mut io = Vec::with_capacity(self.workers.len());
        for worker in self.workers {
            let (shard, stats) = worker
                .thread
                .join()
                .expect("dataplane worker must not panic");
            shards.push(shard);
            io.push(stats);
        }
        let (trace_shift, traces) = merge_thinned(shards.iter_mut().map(Shard::take_traces));
        NetReport {
            shards,
            io,
            traces,
            trace_shift,
        }
    }
}

/// Frame-absolute offset of the IPv4 destination address: Ethernet (14) +
/// the 16-byte prefix of the IPv4 header. Replies come out of the shard's
/// own [`BatchEncoder`], so the fixed-offset read needs no re-validation.
const DST_IP_OFF: usize = 14 + 16;

/// The IPv4 address at `off` of `frame` (unspecified if the frame is short:
/// the parser will reject it anyway).
fn ip_at(frame: &[u8], off: usize) -> Ipv4Addr {
    let octets = frame.get(off..off + 4).and_then(|b| b.try_into().ok());
    octets.map_or(Ipv4Addr::UNSPECIFIED, Ipv4Addr)
}

/// How long after its last datagram a worker keeps polling before it falls
/// back to the blocking receive. Being woken out of a blocking receive
/// costs ~23 µs a datagram on the reference VM, a poll that finds the
/// datagram queued under one. 1 ms is twenty mean gaps at 20 k ops/s and two
/// at 2 k ops/s, so a loaded plane rarely blocks, and one that goes quiet
/// burns a millisecond of a core before it sleeps.
const IDLE_BUDGET: Duration = Duration::from_millis(1);

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    socket: UdpSocket,
    mut shard: Shard,
    routes: Arc<RwLock<HashMap<Ipv4Addr, SocketAddr>>>,
    io_mode: IoMode,
    burst: usize,
    mut faults: Option<(LinkFilter, Instant)>,
    shutdown: Arc<AtomicBool>,
) -> (Shard, IoStats) {
    let mut io = IoStats::default();
    // Slots one byte past the longest legal frame: an oversized datagram
    // shows up as `len > MAX_FRAME_LEN` instead of a silently truncated
    // prefix (in burst mode the kernel would not even flag it per-message).
    let mut rq = RecvQueue::new(burst, MAX_FRAME_LEN + 1);
    let mut sq = SendQueue::with_capacity(burst, MAX_FRAME_LEN);
    let mut replies = BatchEncoder::with_capacity(burst, MAX_FRAME_LEN);
    let mut accepted: Vec<usize> = Vec::with_capacity(burst);
    let mut last_datagram: Option<Instant> = None;
    while !shutdown.load(Ordering::Relaxed) {
        // Faults, once per receive burst: bring what is due into force and
        // serve a stall of this worker (the socket keeps queueing). `shaped`
        // says whether this burst's datagrams go through the link filter.
        let mut shaped = None;
        if let Some((filter, t0)) = &mut faults {
            let stall = filter.advance(t0.elapsed());
            if !stall.is_zero() {
                std::thread::sleep(stall);
            }
            shaped = Some(filter).filter(|f| f.active());
        }
        // Poll, then block: which receive runs is chosen from the time since
        // the last datagram and nothing else (a fresh worker has had none).
        let polling = last_datagram.is_some_and(|at| at.elapsed() < IDLE_BUDGET);
        io.idle_blocks += u64::from(!polling);
        let received = match (io_mode, polling) {
            (IoMode::Burst, true) => rq.try_recv(&socket),
            (IoMode::Burst, false) => rq.recv(&socket),
            (IoMode::Single, true) => rq.try_recv_single(&socket),
            (IoMode::Single, false) => rq.recv_single(&socket),
        };
        let n = match received {
            Ok(n) => n,
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    // A prior send_to towards a closed port can surface here
                    // as a latched ICMP error on Linux; not fatal.
                    || e.kind() == std::io::ErrorKind::ConnectionRefused =>
            {
                if polling {
                    io.empty_polls += 1;
                    // Yield, don't spin: with as many busy threads as cores
                    // a bare spin keeps the softirq that delivers the next
                    // datagram off the CPU until the scheduler tick (README).
                    std::thread::yield_now();
                }
                continue;
            }
            Err(_) => break,
        };
        last_datagram = Some(Instant::now());
        io.recv_calls += 1;
        io.datagrams_in += n as u64;
        io.recv_fill[recv_fill_bucket(n)] += 1;
        accepted.clear();
        for i in 0..n {
            if rq.frame(i).len() > MAX_FRAME_LEN {
                io.oversized += 1;
                continue;
            }
            accepted.push(i);
        }
        if accepted.is_empty() {
            continue;
        }
        // Publish the worker's gauges so an in-band `Stat` probe inside this
        // burst reports live ingress occupancy. One copy per hosted switch
        // per burst, never per packet.
        shard.set_probe_gauges(ProbeGauges {
            queue_depth: n as u16,
            queue_cap: burst as u16,
            lat_buckets: [0; netchain_wire::STAT_LAT_BUCKETS],
        });
        replies.clear();
        let frames = accepted.iter().map(|&i| rq.frame(i));
        match &mut shaped {
            None => shard.process_burst(frames, &mut replies),
            Some(filter) => {
                // Across the client → worker edge (the source IP, 4 bytes
                // before the destination, names the client).
                let mut crossed: Vec<Vec<u8>> = Vec::new();
                for frame in frames {
                    let from = ip_at(frame, DST_IP_OFF - 4);
                    filter.recv(from, frame, |f| crossed.push(f.to_vec()));
                }
                io.shim_dropped += accepted.len().saturating_sub(crossed.len()) as u64;
                shard.process_burst(crossed.iter().map(Vec::as_slice), &mut replies);
            }
        }
        if replies.is_empty() {
            continue;
        }
        sq.clear();
        {
            let routes = routes.read();
            let mut unrouted = 0;
            let routed = replies.frames().filter_map(|frame| {
                let dst = ip_at(frame, DST_IP_OFF);
                let addr = routes.get(&dst).copied();
                unrouted += u64::from(addr.is_none());
                Some((frame, dst, addr?))
            });
            match &mut shaped {
                None => routed.for_each(|(frame, _, addr)| sq.push(frame, addr)),
                Some(filter) => {
                    // Across the worker → client edge.
                    routed.for_each(|(frame, dst, addr)| {
                        filter.send(dst, frame, |f| sq.push(f, addr))
                    });
                    let routed = replies.len() as u64 - unrouted;
                    io.shim_duplicated += (sq.len() as u64).saturating_sub(routed);
                }
            }
            io.unrouted_replies += unrouted;
        }
        if sq.is_empty() {
            continue;
        }
        let sent = match io_mode {
            IoMode::Burst => sq.send(&socket),
            IoMode::Single => sq.send_single(&socket),
        };
        match sent {
            Ok(count) => io.datagrams_out += count as u64,
            Err(_) => {
                // UDP towards a vanished client (ICMP unreachable latched on
                // the socket): discard the rest of this batch and move on.
                io.send_errors += 1;
                sq.clear();
            }
        }
    }
    io.single_calls = rq.single_calls() + sq.single_calls();
    io.burst_calls = rq.burst_calls() + sq.burst_calls();
    (shard, io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoopbackClient;
    use netchain_core::{AgentConfig, AgentCore, ChainDirectory, KvOp};
    use netchain_sim::{SimDuration, SimTime};
    use netchain_wire::{NetChainPacket, PacketView, QueryStatus};
    use std::time::Instant;

    fn test_ring() -> HashRing {
        HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7)
    }

    /// The blocking client for host `id`, with a retry budget that outlasts
    /// a loaded test box.
    fn connect(plane: &NetDataplane, id: u32) -> LoopbackClient<'_> {
        let config = AgentConfig::new(Ipv4Addr::for_host(id))
            .with_timeout(SimDuration::from_millis(50))
            .with_max_retries(5);
        plane.client(config).expect("client socket")
    }

    #[test]
    fn write_read_cas_through_the_sharded_dataplane() {
        let ring = test_ring();
        let keys: Vec<Key> = (0..8u64).map(Key::from_u64).collect();
        let populate: Vec<(Key, Value)> = keys.iter().map(|&k| (k, Value::from_u64(0))).collect();
        let config = NetConfig::new(ring, 2, PipelineConfig::tiny(64));
        let plane = NetDataplane::start(config, &populate).expect("start");
        let mut client = connect(&plane, 0);
        for (i, &key) in keys.iter().enumerate() {
            let w = client
                .write(key, Value::from_u64(100 + i as u64))
                .expect("write");
            assert_eq!(w.status, Some(QueryStatus::Ok));
        }
        for (i, &key) in keys.iter().enumerate() {
            let r = client.read(key).expect("read");
            assert_eq!(r.value.as_u64(), Some(100 + i as u64));
        }
        let cas_ok = client.cas(keys[0], 100, 7).expect("cas");
        assert_eq!(cas_ok.status, Some(QueryStatus::Ok));
        let cas_fail = client.cas(keys[0], 100, 8).expect("cas");
        assert_eq!(cas_fail.status, Some(QueryStatus::CasFailed));
        assert_eq!(client.agent_stats().version_regressions, 0);
        assert_eq!(client.late_completions(), 0);
        drop(client);

        let report = plane.shutdown();
        // Every write landed on every chain replica of its owning shard.
        for (i, &key) in keys.iter().enumerate() {
            let shard = report
                .shards
                .iter()
                .find(|s| s.owns(&key))
                .expect("one shard owns each key");
            let expected = if i == 0 { 7 } else { 100 + i as u64 };
            for ip in plane_chain(&key) {
                let sw = shard.switch(ip).expect("chain member hosted");
                let slot = sw
                    .kv()
                    .lookup(&key)
                    .unwrap_or_else(|| panic!("replica {ip} never stored key {i}"));
                assert_eq!(sw.kv().read_value(slot).as_u64(), Some(expected));
            }
        }
        let io_in: u64 = report.io.iter().map(|s| s.datagrams_in).sum();
        let io_out: u64 = report.io.iter().map(|s| s.datagrams_out).sum();
        assert!(io_in >= 18, "expected one datagram per op, got {io_in}");
        assert_eq!(io_in, io_out, "every query must produce exactly one reply");
    }

    fn plane_chain(key: &Key) -> Vec<Ipv4Addr> {
        test_ring().chain_for_key(key).switches
    }

    #[test]
    fn oversized_datagrams_are_counted_not_parsed() {
        let ring = test_ring();
        let config = NetConfig::new(ring, 1, PipelineConfig::tiny(16));
        let plane = NetDataplane::start(config, &[]).expect("start");
        let addr = plane.shard_addrs()[0];
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        socket
            .send_to(&vec![0u8; MAX_FRAME_LEN + 40], addr)
            .expect("send oversized");
        std::thread::sleep(Duration::from_millis(50));
        let report = plane.shutdown();
        assert_eq!(report.io[0].oversized, 1);
        assert_eq!(report.shards[0].stats().parse_errors, 0);
    }

    #[test]
    fn single_mode_matches_burst_semantics() {
        let ring = test_ring();
        let key = Key::from_u64(1);
        let populate = vec![(key, Value::from_u64(0))];
        let mut config = NetConfig::new(ring, 2, PipelineConfig::tiny(64));
        config.io_mode = IoMode::Single;
        let plane = NetDataplane::start(config, &populate).expect("start");
        let mut client = connect(&plane, 0);
        let w = client.write(key, Value::from_u64(5)).expect("write");
        assert_eq!(w.status, Some(QueryStatus::Ok));
        let r = client.read(key).expect("read");
        assert_eq!(r.value.as_u64(), Some(5));
        drop(client);
        // Same waiting policy as burst mode, on the single-datagram calls:
        // the worker that served the ops polled after them, found nothing
        // and went back to sleep; the other one never left the blocking
        // receive.
        std::thread::sleep(IDLE_BUDGET * 20);
        let report = plane.shutdown();
        for io in &report.io {
            assert_eq!(io.empty_polls >= 1, io.datagrams_in > 0, "{io:?}");
            assert!(io.empty_polls <= 2 * POLLS_PER_BUDGET, "{io:?}");
            assert!(io.idle_blocks >= 1 && io.batch_factor() <= 1.0, "{io:?}");
        }
    }

    /// No poll can cost under 50 ns, so this many fit one idle budget.
    const POLLS_PER_BUDGET: u64 = IDLE_BUDGET.as_nanos() as u64 / 50;

    fn one_worker_plane(read_timeout: Duration) -> NetDataplane {
        let populate = vec![(Key::from_u64(1), Value::from_u64(0))];
        let mut config = NetConfig::new(test_ring(), 1, PipelineConfig::tiny(64));
        config.read_timeout = read_timeout;
        NetDataplane::start(config, &populate).expect("start")
    }

    #[test]
    fn an_idle_worker_sleeps_and_shutdown_is_bounded_by_the_read_timeout() {
        let read_timeout = Duration::from_millis(20);
        let plane = one_worker_plane(read_timeout);
        std::thread::sleep(Duration::from_millis(100));
        let t = Instant::now();
        let report = plane.shutdown();
        // Blocked in the receive when asked to stop: one timeout at most.
        let slack = Duration::from_millis(200);
        assert!(t.elapsed() < read_timeout + slack, "{:?}", t.elapsed());
        let io = &report.io[0];
        // It never had a datagram, so it never polled: every receive was a
        // blocking one, a `read_timeout` long.
        assert!(io.idle_blocks >= 1, "never blocked: {io:?}");
        assert_eq!(io.empty_polls, 0, "burnt a core: {io:?}");
    }

    #[test]
    fn the_first_datagram_after_silence_is_answered_and_polling_resumes() {
        let read_timeout = Duration::from_millis(20);
        let plane = one_worker_plane(read_timeout);
        let mut client = connect(&plane, 0);
        let key = Key::from_u64(1);
        std::thread::sleep(Duration::from_millis(100));
        // The worker is in the blocking receive; the datagram wakes it.
        let w = client.write(key, Value::from_u64(9)).expect("write");
        assert_eq!(w.status, Some(QueryStatus::Ok));
        // Back-to-back ops, each well inside the idle budget of the last.
        let ops = 500u64;
        for _ in 0..ops {
            let r = client.read(key).expect("read");
            assert_eq!(r.value.as_u64(), Some(9));
        }
        drop(client);
        // Stopped while polling: no receive to wait out.
        let t = Instant::now();
        let report = plane.shutdown();
        assert!(t.elapsed() < read_timeout + Duration::from_millis(200));
        let io = &report.io[0];
        // A datagram taken by a blocking receive entered one, so at least
        // this many were taken by a poll. (How many polls came back empty
        // says little here: each yields, and under `cargo test` the core goes
        // to another test until the next datagram is already queued.)
        let polled = io.recv_calls.saturating_sub(io.idle_blocks);
        assert!(polled >= ops / 2, "{ops} ops, {io:?}");
        assert!(io.empty_polls >= 1, "{io:?}");
    }

    /// One single-worker plane holding `key`, for the reply-routing tests.
    fn routing_plane(key: Key) -> NetDataplane {
        let config = NetConfig::new(test_ring(), 1, PipelineConfig::tiny(64));
        NetDataplane::start(config, &[(key, Value::from_u64(3))]).expect("start")
    }

    /// Sends one read of `key` from a bare socket, carrying host `id`'s IP.
    fn send_raw_read(plane: &NetDataplane, id: u32, key: Key) {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let agent_config = AgentConfig::new(Ipv4Addr::for_host(id));
        let mut agent = AgentCore::new(agent_config, ChainDirectory::new(test_ring()));
        let (_, pkt) = agent.begin(SimTime(0), KvOp::Read(key));
        socket
            .send_to(&pkt.to_bytes(), plane.addr_of_key(&key))
            .expect("send");
        std::thread::sleep(Duration::from_millis(50));
    }

    #[test]
    fn reply_to_unregistered_client_is_counted_unrouted() {
        let key = Key::from_u64(2);
        let plane = routing_plane(key);
        // Send a query without registering the client's reply route.
        send_raw_read(&plane, 9, key);
        let report = plane.shutdown();
        assert_eq!(report.io[0].unrouted_replies, 1);
    }

    #[test]
    fn dropping_a_client_deregisters_its_route() {
        let key = Key::from_u64(2);
        let plane = routing_plane(key);
        let mut client = connect(&plane, 9);
        // Routed while the client lives: the reply arrives.
        assert_eq!(client.read(key).expect("read").value.as_u64(), Some(3));
        drop(client);
        // A stale route would alias whoever recycles this virtual IP; with it
        // gone, a query carrying that IP has nowhere to send its reply.
        send_raw_read(&plane, 9, key);
        let report = plane.shutdown();
        assert_eq!(report.io[0].unrouted_replies, 1);
        assert_eq!(
            report.io[0].datagrams_out, 1,
            "only the live read was answered"
        );
    }

    #[test]
    fn stat_probe_over_the_socket_reports_live_gauges() {
        let ring = test_ring();
        let key = Key::from_u64(5);
        let populate = vec![(key, Value::from_u64(9))];
        let config = NetConfig::new(ring.clone(), 1, PipelineConfig::tiny(64));
        let plane = NetDataplane::start(config, &populate).expect("start");
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        socket
            .set_read_timeout(Some(Duration::from_millis(100)))
            .expect("timeout");
        let prober_ip = Ipv4Addr::for_host(77);
        plane.register_client(prober_ip, socket.local_addr().expect("addr"));
        // Probe the tail switch of `key`'s chain, in band through the
        // worker's socket like any query.
        let target = ring.chain_for_key(&key).tail();
        let probe = NetChainPacket::query(
            prober_ip,
            40_000,
            target,
            netchain_wire::OpCode::Stat,
            key,
            Value::empty(),
            netchain_wire::ChainList::new(vec![]).unwrap(),
            1,
        );
        let mut buf = [0u8; MAX_FRAME_LEN + 1];
        let mut snap = None;
        for _ in 0..50 {
            socket
                .send_to(&probe.to_bytes(), plane.shard_addrs()[0])
                .expect("send probe");
            if let Ok((len, _)) = socket.recv_from(&mut buf) {
                let view = PacketView::parse(&buf[..len]).expect("parse reply");
                assert_eq!(view.netchain.op(), netchain_wire::OpCode::StatReply);
                snap = Some(
                    netchain_wire::StatSnapshot::decode(view.netchain.value())
                        .expect("decode snapshot"),
                );
                break;
            }
        }
        let snap = snap.expect("no probe reply within the retry budget");
        assert!(snap.packets_seen >= 1);
        assert_eq!(snap.store_size, 1);
        // The worker published its live ingress gauges before the burst that
        // carried the probe.
        assert_eq!(snap.queue_cap, 32);
        assert!(snap.queue_depth >= 1);
        let report = plane.shutdown();
        assert!(report.io[0].recv_fill.iter().sum::<u64>() >= 1);
        assert!(report.shards[0].switch(target).unwrap().stats().stat_probes >= 1);
    }

    #[test]
    fn reply_frames_carry_the_client_ip_at_dst_ip_off() {
        // Pin the fixed-offset read the egress router depends on.
        let pkt = NetChainPacket::query(
            Ipv4Addr::for_host(3),
            40_000,
            Ipv4Addr::for_switch(1),
            netchain_wire::OpCode::Read,
            Key::from_u64(0),
            Value::empty(),
            netchain_wire::ChainList::new(vec![]).unwrap(),
            1,
        );
        let bytes = pkt.to_bytes();
        let view = PacketView::parse(&bytes).unwrap();
        assert_eq!(ip_at(&bytes, DST_IP_OFF), view.ip.dst);
        assert_eq!(ip_at(&bytes, DST_IP_OFF - 4), view.ip.src);
        assert_eq!(ip_at(&bytes[..20], DST_IP_OFF), Ipv4Addr::UNSPECIFIED);
    }
}
