//! The socket dataplane on loopback UDP: timed open-loop repetitions, the
//! overload probe, and the traced pass stepped over two sockets.

use crate::fabric;
use crate::spans::Spans;
use crate::workload::{Rep, Workload};
use mmsg::{RecvQueue, SendQueue};
use netchain_fabric::{ClientState, Shard, WorkloadSpec};
use netchain_net::{
    run_open_loop, syscall_microbench, NetConfig, NetDataplane, NetReport, OpenLoopConfig,
    OpenLoopReport,
};
use netchain_sim::SimTime;
use netchain_telemetry::{merge_traces, TraceConfig};
use netchain_wire::{Key, Value, MAX_FRAME_LEN};
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Keys the net workloads draw from.
pub const NUM_KEYS: u64 = 1024;
/// Sans-IO agents multiplexed over the generator's socket.
const AGENTS: usize = 128;
/// Datagrams per burst of the stepped pass.
const STEP_BURST: usize = 32;
/// Offered rate of the `net-open` workload, in operations per second: a
/// quarter of what one worker and one generator sustain.
pub const OFFERED_RATE: f64 = 20_000.0;

/// Retransmissions an agent of the workload may make. The library's default
/// of 8 gives an operation 0.9 s, and after a stall of the host that is not
/// enough: everything scheduled during the stall goes out at once, overflows
/// the worker's socket buffer (about 280 datagrams), and the survivors'
/// retransmissions come back in step every 100 ms and overflow it again, so
/// the backlog drains by a few hundred operations a round. A 200 ms stall at
/// this rate took more than 8 rounds and operations were abandoned; with no
/// budget they all complete, late, and count against the latency limit.
const RETRIES: u32 = u32::MAX;

/// How long past the issue window a repetition may wait for stragglers
/// (the wait ends as soon as nothing is outstanding): room for the hundred
/// rounds a whole window's operations could need.
const DRAIN: Duration = Duration::from_secs(10);

/// Offered rate of the overload probe: far enough past what one worker and
/// one generator sustain that the collapse is the same on every run.
pub const OVERLOAD_RATE: f64 = 400_000.0;

/// Issue window of one repetition: 5 000 operations. Short for the same
/// reason as on the fabric, and so that what a stall of the host leaves
/// outstanding is bounded by one window.
pub fn issue_window(quick: bool) -> Duration {
    Duration::from_millis(if quick { 100 } else { 250 })
}

/// 80 % read / 15 % write / 5 % CAS over [`NUM_KEYS`] keys.
pub fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        ..WorkloadSpec::mixed(NUM_KEYS, u64::MAX, 80, 15)
    }
}

fn populate() -> Vec<(Key, Value)> {
    (0..NUM_KEYS)
        .map(|k| (Key::from_u64(k), Value::from_u64(0)))
        .collect()
}

fn net_config(trace: Option<TraceConfig>) -> NetConfig {
    NetConfig {
        trace,
        ..NetConfig::new(
            fabric::config().build_ring(),
            1,
            netchain_fabric::FabricConfig::pipeline_for(NUM_KEYS),
        )
    }
}

/// One open-loop run against a fresh one-worker plane: `rate` ops/s for
/// `window`, then up to `drain` for stragglers, each agent retransmitting up
/// to `retries` times.
pub fn open_loop(
    seed: u64,
    rate: f64,
    window: Duration,
    drain: Duration,
    retries: u32,
    trace: Option<TraceConfig>,
) -> (Rep, OpenLoopReport, NetReport) {
    let call = Instant::now();
    let plane = NetDataplane::start(net_config(trace), &populate()).expect("start the dataplane");
    let setup = call.elapsed();
    let config = OpenLoopConfig {
        drain_grace: drain,
        agent_max_retries: retries,
        trace,
        ..OpenLoopConfig::new(AGENTS, 1, rate, window)
    };
    let open = run_open_loop(&plane, spec(seed), config);
    let net = plane.shutdown();

    let io = &net.io[0];
    let shard = *net.shards[0].stats();
    let per_op = |v: u64| v as f64 / open.issued.max(1) as f64;
    let mut rep = Rep::new(
        seed,
        open.issued,
        open.completed,
        window,
        setup,
        open.latency.clone(),
    );
    rep.layer.extend(fabric::burst_shape(&[shard]));
    rep.layer.extend([
        ("net.batch_factor", io.batch_factor()),
        ("net.recv_calls_per_op", per_op(io.recv_calls)),
        (
            "net.recv_fill_le1_share",
            io.recv_fill[0] as f64 / io.recv_calls.max(1) as f64,
        ),
        ("net.retries_per_op", per_op(open.retries)),
        (
            "net.useful_share",
            open.completed as f64 / io.datagrams_in.max(1) as f64,
        ),
        ("net.stale_per_op", per_op(open.stale_replies)),
        ("net.send_errors", io.send_errors as f64),
        ("net.unrouted", io.unrouted_replies as f64),
        (
            "openloop.issued_share",
            open.issued as f64 / (rate * window.as_secs_f64()),
        ),
    ]);
    rep.check(open.version_regressions == 0, || {
        format!("{} version regressions", open.version_regressions)
    });
    rep.check(shard.parse_errors == 0 && io.oversized == 0, || {
        format!(
            "{} parse errors, {} oversized datagrams",
            shard.parse_errors, io.oversized
        )
    });
    (rep, open, net)
}

/// One timed repetition of a net workload.
pub fn timed_rep(seed: u64, quick: bool) -> Rep {
    let window = issue_window(quick);
    open_loop(seed, OFFERED_RATE, window, DRAIN, RETRIES, None).0
}

/// The same run with in-band tracing on both ends; the merged traces go
/// through the offline auditor.
pub fn traced_live(seed: u64, quick: bool) -> fabric::Audit {
    let trace = Some(fabric::TRACE);
    let window = issue_window(quick);
    let (rep, open, net) = open_loop(seed, OFFERED_RATE, window, DRAIN, RETRIES, trace);
    let traces = merge_traces(open.traces.into_iter().chain(net.traces));
    let mut verdict = fabric::audit_traces(&traces, NUM_KEYS);
    verdict.failures.extend(rep.failures);
    verdict
}

/// The plane far past its knee, as per-layer diagnostics. Its goodput swings
/// several-fold between identical runs and most operations fail, so it can
/// be neither a gated workload nor an end-to-end metric; the shares are
/// steady and have room to fall.
pub fn overload_probe(seed: u64, quick: bool) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let window = Duration::from_millis(if quick { 100 } else { 1_000 });
    let drain = Duration::from_millis(if quick { 200 } else { 1_000 });
    // The library's own retry budget: what overload does to it is the point.
    let retries = OpenLoopConfig::new(AGENTS, 1, OVERLOAD_RATE, window).agent_max_retries;
    let (rep, open, _) = open_loop(seed, OVERLOAD_RATE, window, drain, retries, None);
    let layer = vec![
        ("overload.offered_ops_s", OVERLOAD_RATE),
        ("overload.goodput_ops_s", rep.ops_s()),
        (
            "overload.slo_miss_share",
            rep.slo_miss_share(Workload::NetOpen),
        ),
        ("overload.fail_share", rep.fail_share()),
        (
            "overload.retries_per_op",
            open.retries as f64 / open.issued.max(1) as f64,
        ),
    ];
    (layer, rep.failures)
}

/// `send_to` + `recv_from` per datagram on loopback, one at a time.
pub fn syscall_single_ns(quick: bool) -> f64 {
    let bursts = if quick { 20 } else { 200 };
    syscall_microbench(bursts, 3).single_ns_per_datagram
}

/// Receives until `want` datagrams arrived or the socket times out, handing
/// each batch to `each`. Returns the datagrams seen.
fn recv_all(
    rq: &mut RecvQueue,
    socket: &UdpSocket,
    want: usize,
    mut each: impl FnMut(&RecvQueue, usize, Instant),
) -> usize {
    let mut got = 0;
    while got < want {
        let t = Instant::now();
        match rq.recv(socket) {
            Ok(n) => {
                got += n;
                each(rq, n, t);
            }
            Err(_) => break,
        }
    }
    got
}

/// Replays `spec`'s op stream on one thread over two loopback sockets, a
/// burst at a time: issue → emit → send → (worker) recv → `process_burst` →
/// send → (generator) recv → absorb, a span around each. Stops at `deadline`.
/// Returns the ops completed and any failed check.
pub fn stepped_pass(
    spec: WorkloadSpec,
    deadline: Instant,
    spans: &mut Spans,
) -> (u64, Vec<String>) {
    let config = net_config(None);
    let mut shard = Shard::new(0, 1, config.ring.clone(), config.pipeline);
    for (key, value) in populate() {
        shard.populate(key, &value);
    }
    let bind = || {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind a loopback socket");
        socket
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("set the read timeout");
        let addr = socket.local_addr().expect("local address");
        (socket, addr)
    };
    let (worker, worker_addr) = bind();
    let (generator, generator_addr) = bind();
    let step = WorkloadSpec {
        window: STEP_BURST,
        ..spec
    };
    let mut client = ClientState::new(0, &config.ring, step);
    let origin = Instant::now();
    let now = || SimTime(origin.elapsed().as_nanos() as u64);

    let mut worker_rq = RecvQueue::new(STEP_BURST, MAX_FRAME_LEN + 1);
    let mut worker_sq = SendQueue::with_capacity(STEP_BURST, MAX_FRAME_LEN);
    let mut generator_rq = RecvQueue::new(STEP_BURST, MAX_FRAME_LEN + 1);
    let mut generator_sq = SendQueue::with_capacity(STEP_BURST, MAX_FRAME_LEN);
    let mut replies = netchain_wire::BatchEncoder::with_capacity(STEP_BURST, MAX_FRAME_LEN);
    let mut packets = Vec::with_capacity(STEP_BURST);
    let mut frame_buf = [0u8; MAX_FRAME_LEN];
    let mut failures = Vec::new();
    let mut burst = 0u64;
    while Instant::now() < deadline {
        burst += 1;
        let t = Instant::now();
        while client.can_issue() {
            packets.push(client.issue_at(now()));
        }
        let sent = packets.len();
        spans.add("loadgen.issue", None, burst, sent, t);

        let t = Instant::now();
        generator_sq.clear();
        for pkt in packets.drain(..) {
            let len = pkt
                .emit_into(&mut frame_buf)
                .expect("queries fit in a frame");
            generator_sq.push(&frame_buf[..len], worker_addr);
        }
        spans.add("wire.encode", None, burst, sent, t);

        let t = Instant::now();
        let pushed = generator_sq.send(&generator).unwrap_or(0);
        spans.add("net.gen_send", None, burst, pushed, t);

        // Worker: one burst per receive call, like the dataplane's loop.
        let mut replied = 0;
        let arrived = recv_all(&mut worker_rq, &worker, sent, |rq, n, t| {
            spans.add("net.worker_recv", None, burst, n, t);
            replies.clear();
            let t = Instant::now();
            shard.process_burst(rq.frames(), &mut replies);
            let parent = spans.add("shard.burst", None, burst, n, t);
            let raw: Vec<&[u8]> = rq.frames().collect();
            fabric::remeasure_stages(&shard, &raw, spans, parent, burst);

            let t = Instant::now();
            worker_sq.clear();
            for frame in replies.frames() {
                worker_sq.push(frame, generator_addr);
            }
            spans.add("wire.reply_copy", None, burst, replies.len(), t);

            let t = Instant::now();
            let out = worker_sq.send(&worker).unwrap_or(0);
            spans.add("net.worker_send", None, burst, out, t);
            replied += out;
        });

        let mut absorbed = 0;
        recv_all(&mut generator_rq, &generator, replied, |rq, n, t| {
            spans.add("net.gen_recv", None, burst, n, t);
            let t = Instant::now();
            let at = now();
            for frame in rq.frames() {
                absorbed += usize::from(client.absorb_reply_at(at, frame));
            }
            spans.add("loadgen.absorb", None, burst, n, t);
        });
        if arrived != sent || absorbed != sent {
            failures.push(format!(
                "stepped pass: burst {burst} sent {sent}, worker saw {arrived}, {absorbed} absorbed"
            ));
            break;
        }
    }
    let report = client.report();
    if report.version_regressions != 0 {
        failures.push(format!(
            "stepped pass: {} version regressions",
            report.version_regressions
        ));
    }
    (report.completed, failures)
}

/// The net layers out of a stepped pass: the syscalls per datagram, and the
/// per-thread sums that place the knee.
pub fn layer_metrics(spans: &Spans) -> Vec<(&'static str, f64)> {
    let ns = |name: &str| spans.ns_per_op(name);
    let pooled = |a: &str, b: &str| {
        let (a, b) = (spans.total(a), spans.total(b));
        (a.ns + b.ns) as f64 / (a.ops + b.ops).max(1) as f64
    };
    let burst = spans.total("shard.burst");
    vec![
        ("loadgen.issue_ns", ns("loadgen.issue")),
        ("loadgen.absorb_ns", ns("loadgen.absorb")),
        ("wire.encode_ns", ns("wire.encode")),
        ("wire.reply_copy_ns", ns("wire.reply_copy")),
        ("wire.parse_ns", ns("wire.parse")),
        ("switch.hash_ns", ns("switch.hash")),
        ("switch.probe_ns", ns("switch.probe")),
        ("shard.burst_ns", ns("shard.burst")),
        ("shard.execute_ns", burst.self_ns_per_op()),
        (
            "net.syscall_send_ns",
            pooled("net.gen_send", "net.worker_send"),
        ),
        (
            "net.syscall_recv_ns",
            pooled("net.gen_recv", "net.worker_recv"),
        ),
        (
            "net.worker_ns_per_dgram",
            ns("net.worker_recv")
                + ns("shard.burst")
                + ns("wire.reply_copy")
                + ns("net.worker_send"),
        ),
        (
            "net.gen_ns_per_op",
            ns("loadgen.issue")
                + ns("wire.encode")
                + ns("net.gen_send")
                + ns("net.gen_recv")
                + ns("loadgen.absorb"),
        ),
    ]
}
