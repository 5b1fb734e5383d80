//! Open-loop load generation over the socket dataplane.
//!
//! The fabric's load generator is *closed-loop*: each client keeps a bounded
//! window outstanding and only issues when a reply retires an old query.
//! That measures sustainable capacity but systematically under-reports tail
//! latency — a slow reply pauses its own client, so the generator backs off
//! exactly when the system is struggling (coordinated omission). The paper's
//! latency figures (§8.2) come from a generator that offers load at a fixed
//! rate regardless of completions; this module reproduces that shape:
//!
//! * Issue times follow a Poisson process of the configured rate: the
//!   schedule is drawn up front from exponential inter-arrival gaps and
//!   **never adjusts to replies**.
//! * Each scheduled op is assigned to one of thousands of sans-IO
//!   [`ClientState`] agents (the same agent core every other mode uses),
//!   multiplexed over one UDP socket per generator thread and demuxed by
//!   the reply's embedded client IP.
//! * The clock handed to [`ClientState::issue_at`] is the op's *scheduled*
//!   time, not the moment the syscall happened — so a backlogged generator
//!   charges the queueing delay to the op's latency instead of silently
//!   re-scheduling it, and the reported p50/p99/p999 are
//!   coordinated-omission-free.
//!
//! Latencies land in [`netchain_telemetry::LatencyHistogram`]s (one per
//! agent, merged at the end) and the run returns an [`OpenLoopReport`] with
//! the offered vs. achieved rate and the merged quantiles.

use crate::dataplane::NetDataplane;
use mmsg::{RecvQueue, SendQueue, MAX_BURST};
use netchain_core::{AgentConfig, ClientState, WorkloadSpec};
use netchain_fabric::client_id_of;
use netchain_sim::{SimDuration, SimTime};
use netchain_telemetry::{merge_thinned, HistSnapshot, LatencyHistogram, PacketTrace, TraceConfig};
use netchain_wire::{Ipv4Addr, MAX_FRAME_LEN};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Configuration of an open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Total concurrent sans-IO agents, divided evenly over the threads.
    /// More agents = more concurrently outstanding ops before demux
    /// collisions; thousands are cheap (an idle agent is a hash-map entry).
    pub agents: usize,
    /// Generator threads (each owns one socket and `agents / threads`
    /// agents).
    pub threads: usize,
    /// Offered load in operations per second, across all threads.
    pub target_rate: f64,
    /// Issue window: ops are scheduled over this span.
    pub duration: Duration,
    /// Retransmission timeout of each agent.
    pub agent_timeout: SimDuration,
    /// Retry budget of each agent.
    pub agent_max_retries: u32,
    /// How long past the issue window to keep draining replies and driving
    /// retries before declaring the leftovers lost.
    pub drain_grace: Duration,
    /// Client-side in-band tracing: sampled ops get issue/ack evidence
    /// stamps on the dataplane's shared clock, returned in
    /// [`OpenLoopReport::traces`]. `None` keeps the generator allocation-free.
    pub trace: Option<TraceConfig>,
}

impl OpenLoopConfig {
    /// A sane default shape: `agents` agents on `threads` threads offering
    /// `target_rate` ops/s for `duration`.
    pub fn new(agents: usize, threads: usize, target_rate: f64, duration: Duration) -> Self {
        assert!(
            threads > 0 && agents >= threads,
            "agents must cover threads"
        );
        assert!(target_rate > 0.0);
        OpenLoopConfig {
            agents,
            threads,
            target_rate,
            duration,
            agent_timeout: SimDuration::from_millis(100),
            agent_max_retries: 8,
            drain_grace: Duration::from_millis(500),
            trace: None,
        }
    }
}

/// The outcome of an open-loop run (all counters summed over agents).
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    /// The configured offered rate (ops/s).
    pub offered_rate: f64,
    /// Completions per second of wall-clock issue window.
    pub achieved_rate: f64,
    /// Ops issued (scheduled and actually begun).
    pub issued: u64,
    /// Ops completed with a matched reply.
    pub completed: u64,
    /// Completions with `Ok` status.
    pub ok: u64,
    /// Completions with `CasFailed` (expected under CAS contention).
    pub cas_failed: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Ops abandoned after exhausting the retry budget.
    pub abandoned: u64,
    /// Replies for no-longer-outstanding requests (duplicates / stragglers).
    pub stale_replies: u64,
    /// Version-monotonicity violations observed by any agent (must be 0).
    pub version_regressions: u64,
    /// Merged issue→reply latency distribution, in nanoseconds, measured
    /// from each op's *scheduled* issue time.
    pub latency: HistSnapshot,
    /// How late the generator ran: hand-off to the send call minus scheduled
    /// time, in nanoseconds, one sample per issued op (and part of that op's
    /// latency, which counts from the scheduled time).
    pub issue_lag: HistSnapshot,
    /// Ops that came due while the generator slept: its sleep ran over the
    /// margin it leaves for that. All others went out from a polling pass.
    pub overslept: u64,
    /// Send calls that failed; their queued datagrams were discarded and are
    /// recovered by the agents' retransmission.
    pub send_errors: u64,
    /// Passes of the generator's loop (issue what is due, drain the socket,
    /// pace), summed over threads.
    pub passes: u64,
    /// Wall-clock span of the issue window.
    pub elapsed: Duration,
    /// Client-side trace fragments (issue/ack evidence), empty unless
    /// [`OpenLoopConfig::trace`] was set. Merge with the dataplane's
    /// `NetReport::traces` for full per-hop paths.
    pub traces: Vec<PacketTrace>,
    /// The coarsest shift a client's trace sink thinned to.
    pub trace_shift: u32,
}

/// Runs an open-loop workload against `plane` and returns the merged report.
///
/// `spec` provides the key-space and op mix (its closed-loop `window` /
/// `ops_per_client` fields are ignored — the open-loop schedule decides when
/// to issue and when to stop).
pub fn run_open_loop(
    plane: &NetDataplane,
    spec: WorkloadSpec,
    config: OpenLoopConfig,
) -> OpenLoopReport {
    let per_thread = config.agents / config.threads;
    assert!(per_thread > 0);
    let rate_per_thread = config.target_rate / config.threads as f64;
    let start = Instant::now();
    let threads: Vec<OpenLoopReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads)
            .map(|t| {
                scope.spawn(move || {
                    generator_thread(plane, spec, config, t, per_thread, rate_per_thread)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread must not panic"))
            .collect()
    });
    let mut report = OpenLoopReport {
        offered_rate: config.target_rate,
        elapsed: start.elapsed().min(config.duration),
        ..OpenLoopReport::default()
    };
    for thread in threads {
        report.merge(thread);
    }
    report.achieved_rate = report.completed as f64 / config.duration.as_secs_f64();
    report
}

impl OpenLoopReport {
    /// Folds one generator thread's counts, distributions and traces into
    /// the run's. The rates and the window's span belong to the run, not to
    /// a thread, and are left alone.
    fn merge(&mut self, thread: OpenLoopReport) {
        self.issued += thread.issued;
        self.completed += thread.completed;
        self.ok += thread.ok;
        self.cas_failed += thread.cas_failed;
        self.retries += thread.retries;
        self.abandoned += thread.abandoned;
        self.stale_replies += thread.stale_replies;
        self.version_regressions += thread.version_regressions;
        self.latency.merge(&thread.latency);
        self.issue_lag.merge(&thread.issue_lag);
        self.overslept += thread.overslept;
        self.send_errors += thread.send_errors;
        self.passes += thread.passes;
        self.traces.extend(thread.traces);
        self.trace_shift = self.trace_shift.max(thread.trace_shift);
    }
}

/// How far ahead of the next scheduled event the generator stops sleeping
/// and polls instead. `thread::sleep` overshoots by the kernel's 50 µs timer
/// slack plus the wake-up: 73 µs at the median, 80–110 µs at p99 and
/// 125–490 µs at p99.9 on the reference VM, whatever the length asked for,
/// and all of it sat in the latency of the op the sleep was waiting for.
const SLEEP_MARGIN_NS: u64 = 200_000;

/// Hands the queued datagrams to the kernel. A failed send is counted and
/// what it left queued discarded: kept, the already-sent prefix would go out
/// again with the next flush.
fn flush(sq: &mut SendQueue, socket: &UdpSocket, send_errors: &mut u64) {
    if !sq.is_empty() && sq.send(socket).is_err() {
        *send_errors += 1;
        sq.clear();
    }
}

/// Draws the next exponential inter-arrival gap (nanoseconds) of a Poisson
/// process with `rate` events/s.
fn exp_gap_ns(rng: &mut ChaCha8Rng, rate: f64) -> u64 {
    // (0, 1]: never ln(0).
    let u: f64 = 1.0 - rng.gen_range(0.0..1.0f64);
    let secs = -u.ln() / rate;
    (secs * 1e9) as u64
}

fn generator_thread(
    plane: &NetDataplane,
    spec: WorkloadSpec,
    config: OpenLoopConfig,
    thread_index: usize,
    per_thread: usize,
    rate: f64,
) -> OpenLoopReport {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind generator socket");
    // Non-blocking, paced explicitly below: a blocking recv timeout would be
    // rounded up to scheduler jiffies (milliseconds) by the kernel, which
    // would dominate every latency this generator is supposed to measure.
    socket.set_nonblocking(true).expect("set nonblocking");
    let local_addr = socket.local_addr().expect("local addr");

    // Agent ids partition by thread: thread t owns [t*per, (t+1)*per).
    let first_id = (thread_index * per_thread) as u32;
    let mut clients: Vec<ClientState> = (0..per_thread)
        .map(|i| {
            let id = first_id + i as u32;
            let agent_config = AgentConfig::new(Ipv4Addr::for_host(id))
                .with_timeout(config.agent_timeout)
                .with_max_retries(config.agent_max_retries);
            // Open-loop: the window must never gate an issue.
            let spec = WorkloadSpec {
                window: usize::MAX,
                ops_per_client: u64::MAX,
                ..spec
            };
            plane.register_client(Ipv4Addr::for_host(id), local_addr);
            let mut client = ClientState::with_agent_config(id, plane.ring(), spec, agent_config);
            if let Some(tc) = config.trace {
                client.enable_tracing(tc);
            }
            client
        })
        .collect();

    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x6f70_656e ^ (thread_index as u64) << 40);
    let mut rq = RecvQueue::new(MAX_BURST, MAX_FRAME_LEN + 1);
    let mut sq = SendQueue::with_capacity(MAX_BURST, MAX_FRAME_LEN);
    let mut frame_buf = [0u8; MAX_FRAME_LEN];
    // Scheduled times of the ops queued in `sq`, for `issue_lag`.
    let mut due_ns = [0u64; MAX_BURST];
    let mut issue_lag = LatencyHistogram::new();
    let mut outcome = OpenLoopReport::default();

    // All clocks are relative to the *dataplane's* epoch, not a thread-local
    // Instant: shard workers stamp trace evidence on that origin, and the
    // auditor compares client issue/ack times across threads — a per-thread
    // epoch would skew them by the spawn staggering. The schedule itself is
    // shifted to the absolute timeline by `base_ns`.
    let epoch = plane.epoch();
    let base_ns = epoch.elapsed().as_nanos() as u64;
    let end_ns = base_ns + config.duration.as_nanos() as u64;
    let hard_end_ns = end_ns + config.drain_grace.as_nanos() as u64;
    let mut next_issue_ns = base_ns + exp_gap_ns(&mut rng, rate);
    let mut next_retry_poll_ns = base_ns;
    // Whether this pass begins with the return of a sleep.
    let mut slept = false;
    // Queries outstanding over all agents, kept from issue, matched reply and
    // abandonment: a pass that waits on a reply asks, and asking every agent
    // made it cost by how many there are (thousands).
    let mut in_flight = 0usize;
    loop {
        outcome.passes += 1;
        let now_ns = epoch.elapsed().as_nanos() as u64;

        // Issue everything that has come due, stamped with its *scheduled*
        // time — queueing delay is the op's problem, not the schedule's.
        let is_due = |at_ns: u64| at_ns <= now_ns && at_ns < end_ns;
        while is_due(next_issue_ns) {
            while sq.len() < MAX_BURST && is_due(next_issue_ns) {
                let client = &mut clients[rng.gen_range(0..per_thread)];
                let op = client.draw();
                let len = client.issue_drawn(SimTime(next_issue_ns), &op, &mut frame_buf);
                in_flight += 1;
                due_ns[sq.len()] = next_issue_ns;
                sq.push(&frame_buf[..len], plane.addr_of_group(op.group()));
                next_issue_ns += exp_gap_ns(&mut rng, rate);
            }
            let handoff_ns = epoch.elapsed().as_nanos() as u64;
            for &due in &due_ns[..sq.len()] {
                issue_lag.record(handoff_ns.saturating_sub(due));
            }
            outcome.overslept += if slept { sq.len() as u64 } else { 0 };
            flush(&mut sq, &socket, &mut outcome.send_errors);
        }

        // Drain every reply already queued on the socket, demuxed by the
        // embedded client IP.
        let mut received_any = false;
        let mut fatal = false;
        loop {
            match rq.recv(&socket) {
                Ok(n) => {
                    received_any = true;
                    let absorb_at = SimTime(epoch.elapsed().as_nanos() as u64);
                    for i in 0..n {
                        let frame = rq.frame(i);
                        if frame.len() > MAX_FRAME_LEN || frame.len() < 34 {
                            continue;
                        }
                        // Reply dst IP at Ethernet(14) + IPv4 dst offset (16).
                        let dst = Ipv4Addr([frame[30], frame[31], frame[32], frame[33]]);
                        let Some(id) = client_id_of(dst) else {
                            continue;
                        };
                        let Some(local) = (id as usize).checked_sub(first_id as usize) else {
                            continue;
                        };
                        if local < per_thread {
                            let matched = clients[local].absorb_reply_at(absorb_at, frame);
                            in_flight -= usize::from(matched);
                        }
                    }
                    if n < rq.burst() {
                        break;
                    }
                }
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::ConnectionRefused =>
                {
                    break;
                }
                Err(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        if fatal {
            break;
        }

        // Drive retransmissions about once per millisecond.
        let now_ns = epoch.elapsed().as_nanos() as u64;
        if now_ns >= next_retry_poll_ns {
            let poll_at = SimTime(now_ns);
            for client in clients.iter_mut() {
                let before = client.outstanding();
                if before == 0 {
                    continue;
                }
                for pkt in client.poll_retries_at(poll_at) {
                    let key = pkt.netchain.key;
                    let len = pkt.emit_into(&mut frame_buf).expect("bounded frame");
                    sq.push(&frame_buf[..len], plane.addr_of_key(&key));
                    if sq.len() >= MAX_BURST {
                        flush(&mut sq, &socket, &mut outcome.send_errors);
                    }
                }
                // What the poll abandoned is no longer outstanding.
                in_flight -= before - client.outstanding();
            }
            flush(&mut sq, &socket, &mut outcome.send_errors);
            debug_assert_eq!(
                in_flight,
                clients.iter().map(ClientState::outstanding).sum::<usize>()
            );
            next_retry_poll_ns = now_ns + 1_000_000;
        }

        if now_ns >= end_ns && (in_flight == 0 || now_ns >= hard_end_ns) {
            break;
        }

        // Pacing to the deadline. With replies in flight, or the next
        // scheduled event within the sleep margin, stay hot (yield, don't
        // sleep): an arriving reply is absorbed, and a due op handed to the
        // kernel, within microseconds. Idle and further away than that, sleep
        // to the margin before the event; an op that still comes due
        // mid-sleep is stamped with its scheduled time and pays the overshoot.
        slept = false;
        if !received_any {
            let now_ns = epoch.elapsed().as_nanos() as u64;
            let next_event_ns = if next_issue_ns < end_ns {
                next_issue_ns.min(next_retry_poll_ns)
            } else {
                next_retry_poll_ns
            };
            let wake_ns = next_event_ns.saturating_sub(SLEEP_MARGIN_NS);
            if wake_ns > now_ns && in_flight == 0 {
                std::thread::sleep(Duration::from_nanos(wake_ns - now_ns));
                slept = true;
            } else {
                std::thread::yield_now();
            }
        }
    }

    outcome.issue_lag = issue_lag.snapshot();
    for client in &mut clients {
        let report = client.report();
        outcome.issued += report.issued;
        outcome.completed += report.completed;
        outcome.ok += report.ok;
        outcome.cas_failed += report.cas_failed;
        outcome.retries += report.retries;
        outcome.abandoned += report.abandoned;
        outcome.stale_replies += client.agent_stats().stale_replies;
        outcome.version_regressions += report.version_regressions;
        outcome.latency.merge(&client.latency_snapshot());
        plane.deregister_client(Ipv4Addr::for_host(client.id()));
    }
    (outcome.trace_shift, outcome.traces) =
        merge_thinned(clients.iter_mut().map(ClientState::take_traces));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataplane::{NetConfig, NetDataplane};
    use netchain_core::HashRing;
    use netchain_switch::PipelineConfig;
    use netchain_wire::{Key, Value};

    fn start_plane(num_keys: u64) -> NetDataplane {
        start_plane_of(num_keys, 2)
    }

    fn start_plane_of(num_keys: u64, shards: usize) -> NetDataplane {
        let ring = HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7);
        let populate: Vec<(Key, Value)> = (0..num_keys)
            .map(|k| (Key::from_u64(k), Value::from_u64(0)))
            .collect();
        let config = NetConfig::new(ring, shards, PipelineConfig::tiny(4096));
        NetDataplane::start(config, &populate).expect("start plane")
    }

    #[test]
    fn open_loop_completes_offered_load_with_tail_quantiles() {
        let plane = start_plane(64);
        let spec = WorkloadSpec::mixed(64, u64::MAX, 80, 15);
        let config = OpenLoopConfig::new(64, 2, 2_000.0, Duration::from_millis(300));
        let report = run_open_loop(&plane, spec, config);
        plane.shutdown();
        assert!(report.issued > 100, "issued only {}", report.issued);
        assert_eq!(report.version_regressions, 0);
        assert_eq!(report.abandoned, 0, "loopback must not abandon");
        assert_eq!(report.completed, report.issued, "every op must complete");
        let q = report.latency.quantiles();
        assert!(q.p50_ns > 0 && q.p99_ns >= q.p50_ns && q.p999_ns >= q.p99_ns);
    }

    #[test]
    fn issue_times_follow_the_schedule_not_the_replies() {
        // Offered load must be met (within Poisson noise) even though every
        // single op also completes — i.e. the generator is not closed-loop
        // paced. 2k ops/s for 300ms ≈ 600 ops ± sqrt(600)*4.
        let plane = start_plane(16);
        let spec = WorkloadSpec::uniform_read(16, u64::MAX);
        let config = OpenLoopConfig::new(32, 1, 2_000.0, Duration::from_millis(300));
        let report = run_open_loop(&plane, spec, config);
        plane.shutdown();
        let expected: f64 = 600.0;
        let tolerance = 4.0 * expected.sqrt();
        assert!(
            (report.issued as f64 - expected).abs() < tolerance,
            "issued {} vs scheduled ≈{expected}",
            report.issued
        );
        // One lag sample per op, and at a rate whose gaps are mostly longer
        // than the margin (so the generator does sleep) the typical op still
        // goes out from the polling stretch, not from a sleep that ran over.
        // Counted, not timed: how long a pass takes, or how long the host
        // parks a polling thread when its cores are taken, does not enter.
        assert_eq!(report.issue_lag.count(), report.issued);
        assert!(
            report.overslept * 2 < report.issued,
            "{} of {} ops came due in a sleep; issue lag {}",
            report.overslept,
            report.issued,
            report.issue_lag.quantiles().to_line()
        );
        assert_eq!(report.send_errors, 0);
    }

    #[test]
    fn more_pollers_than_cores_still_complete_the_offered_load() {
        // Four polling workers and two polling generator threads (three a
        // core on the two-core runner): every empty poll yields, so each of
        // them still gets the core when its datagram is there.
        let plane = start_plane_of(64, 4);
        let spec = WorkloadSpec::mixed(64, u64::MAX, 80, 15);
        let config = OpenLoopConfig::new(64, 2, 2_000.0, Duration::from_millis(300));
        let report = run_open_loop(&plane, spec, config);
        plane.shutdown();
        assert!(report.issued > 100, "issued only {}", report.issued);
        assert_eq!(report.abandoned, 0);
        assert_eq!(report.completed, report.issued);
        assert_eq!(report.version_regressions, 0);
    }

    #[test]
    fn a_failed_flush_is_counted_and_leaves_nothing_queued() {
        // An unconnected UDP socket is never told that a peer's port closed
        // (no `IP_RECVERR`), so the failure is forced: broadcast without
        // `SO_BROADCAST` is `EACCES`, after the datagram before it went out.
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        peer.set_read_timeout(Some(Duration::from_millis(50)))
            .expect("timeout");
        let to_peer = peer.local_addr().expect("peer addr");
        let mut sq = SendQueue::new();
        let mut send_errors = 0;
        sq.push(b"sent", to_peer);
        sq.push(b"refused", "255.255.255.255:9".parse().expect("addr"));
        sq.push(b"behind", to_peer);
        flush(&mut sq, &socket, &mut send_errors);
        assert_eq!(send_errors, 1);
        assert!(sq.is_empty(), "the sent prefix stayed queued");
        // The next flush carries its own datagram only.
        sq.push(b"next", to_peer);
        flush(&mut sq, &socket, &mut send_errors);
        assert_eq!(send_errors, 1);
        let mut buf = [0u8; 16];
        for want in [&b"sent"[..], b"next"] {
            let (len, _) = peer.recv_from(&mut buf).expect("datagram");
            assert_eq!(&buf[..len], want);
        }
        assert!(
            peer.recv_from(&mut buf).is_err(),
            "a datagram went out twice"
        );
    }
}
