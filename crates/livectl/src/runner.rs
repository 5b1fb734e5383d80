//! The live-controlled fabric runner: `run_live` plus a control plane.
//!
//! [`run_live_controlled`] spawns the same thread-per-shard / thread-per-
//! client deployment shape as [`netchain_fabric::run_live`], with these
//! additions:
//!
//! * every shard gets a **control channel** (one SPSC ring per direction) the
//!   controller thread programs it through, drained between bursts;
//! * clients are **duration-driven and retrying**: a query the dataplane
//!   drops (a dead switch before rules arrive, a blocked group during
//!   repair) is retransmitted after a timeout, exactly like the paper's UDP
//!   clients, and every completion is bucketed into a **time slice** so the
//!   run produces a throughput-vs-time series;
//! * the **controller** only delivers what `netchain_core::Reactor`, the one
//!   agenda of every controller, yields for the run's fault [`Schedule`] and
//!   [`Reactions`]: each op acknowledged by every shard before the next, each
//!   group copy real register state through the control channels. `Link`
//!   ops are the client ports' own
//!   ([`netchain_fabric::ClientPort::impair`]), by the same clock;
//! * a **monitor** thread watches the run through each shard's own
//!   [`ShardStats`], which the shard publishes into a [`ShardStatsCell`] once
//!   per busy round: it samples every cell at each slice boundary to the
//!   deadline and judges the differences with the [`GrayFailureDetector`];
//! * when the run ends, its consistency is judged **once**, by
//!   `netchain_telemetry::audit` over the run's merged traces and its final
//!   journal: the same judge `chain_audit` runs over an artifact.

use crate::control::{self, ControlCmd, ControlEvt, Tagged};
use crate::detector::{GrayFailureDetector, COOLDOWN};
use crate::report::{LiveAnomaly, LiveReport};
use netchain_core::failplan::Target;
use netchain_core::{
    Action, AgentConfig, ClientState, FaultOp, Reactions, Reactor, Schedule, WorkloadSpec,
};
use netchain_fabric::{
    build_shards, connect, spsc_ring, Consumer, FabricConfig, Producer, ShardStats, ShardStatsCell,
};
use netchain_sim::{SimDuration, SimTime};
use netchain_switch::ControlOp;
use netchain_telemetry::{
    audit, merge_thinned, trace_record_fields, ArtifactWriter, HistSnapshot, Journal, Json,
    PacketTrace, TimeSeries,
};
use netchain_wire::Ipv4Addr;
use std::collections::{HashSet, VecDeque};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long after the deadline clients keep draining outstanding queries
/// before giving up on the run.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Capacity of each control ring, in commands/events.
const CONTROL_RING: usize = 64;

/// Configuration of a live-controlled run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Fabric geometry (shards, clients, switches, spares, rings).
    pub fabric: FabricConfig,
    /// Op mix and key population. `ops_per_client` is ignored: the run is
    /// duration-driven.
    pub workload: WorkloadSpec,
    /// Wall-clock length of the measured run.
    pub duration: Duration,
    /// Width of one throughput slice.
    pub slice: Duration,
    /// Client retransmission timeout (paper: ~1 ms for datacenter RTTs).
    pub retry_timeout: Duration,
    /// Client retry budget. Generous by default: during a blocked group's
    /// sync window a write legitimately retries many times.
    pub max_retries: u32,
    /// The one-kill script [`Self::with_script`] was given, for callers that
    /// read back what they configured. The runner never looks at it.
    pub script: Option<FaultScript>,
    /// What breaks, and when (empty: nothing does).
    pub schedule: Schedule,
    /// How the controller reacts to each `Kill` of the schedule.
    pub reactions: Reactions,
}

impl LiveConfig {
    /// A live run of `fabric` under `workload` for `duration`, with 20 ms
    /// slices, 1 ms retransmission timeout, and no fault.
    pub fn new(fabric: FabricConfig, workload: WorkloadSpec, duration: Duration) -> Self {
        LiveConfig {
            fabric,
            workload,
            duration,
            slice: Duration::from_millis(20),
            retry_timeout: Duration::from_millis(1),
            max_retries: 100_000,
            script: None,
            schedule: Schedule::default(),
            reactions: Reactions::default(),
        }
    }

    /// Returns a copy with the given fault schedule and controller reactions.
    pub fn with_schedule(mut self, schedule: Schedule, reactions: Reactions) -> Self {
        (self.schedule, self.reactions) = (schedule, reactions);
        self
    }

    /// Returns a copy with the given one-kill script, lowered.
    pub fn with_script(mut self, script: FaultScript) -> Self {
        self.script = Some(script);
        let (schedule, reactions) = script.lower();
        self.with_schedule(schedule, reactions)
    }
}

/// One scripted switch failure and the controller's reactions, by field: a
/// one-entry [`Schedule`] and its [`Reactions`] written as one struct for the
/// common case of a single kill. Never executed, only lowered.
#[derive(Debug, Clone, Copy)]
pub struct FaultScript {
    /// The switch to kill.
    pub victim: Ipv4Addr,
    /// When to kill it, relative to run start.
    pub kill_at: Duration,
    /// [`Reactions::failover_delay`].
    pub failover_delay: Duration,
    /// [`Reactions::recovery_delay`].
    pub recovery_delay: Duration,
    /// [`Reactions::sync_duration`].
    pub sync_duration: Duration,
    /// [`Reactions::recovery_groups`].
    pub recovery_groups: Option<u32>,
    /// [`Reactions::replacement`].
    pub replacement: Option<Ipv4Addr>,
}

impl FaultScript {
    /// The script as what the runner executes: the kill, and the reactions.
    pub fn lower(&self) -> (Schedule, Reactions) {
        let schedule = Schedule::new(0).at(self.kill_at, FaultOp::Kill(self.victim));
        let reactions = Reactions {
            failover_delay: self.failover_delay,
            recovery_delay: self.recovery_delay,
            sync_duration: self.sync_duration,
            recovery_groups: self.recovery_groups,
            replacement: self.replacement,
        };
        (schedule, reactions)
    }
}

/// Writes `FLIGHT_<name>.jsonl` for `what` the monitor found: its `recent`
/// samples, oldest first, as `slice` records, then the `verdict` record.
pub(crate) fn flight_dump(
    name: &str,
    recent: &VecDeque<(u64, Vec<u64>)>,
    what: &str,
    verdict: &str,
    fields: Vec<(&str, Json)>,
) -> Option<PathBuf> {
    let mut dump = ArtifactWriter::flight(name);
    for (at_ns, ops) in recent {
        let ops = Json::Arr(ops.iter().map(|&n| Json::U64(n)).collect());
        dump.record("slice", vec![("at_ns", Json::U64(*at_ns)), ("ops", ops)]);
    }
    dump.record(verdict, fields);
    let path = dump.write()?;
    eprintln!("livectl: {what} — flight dump at {}", path.display());
    Some(path)
}

/// The live monitor over the `slices` that end by the run's deadline (past
/// it the clients have stopped issuing, and a shard draining its backlog is
/// not slow). `wait(at_ns)` returns the run's time once it is `at_ns` in,
/// and `sample()` each shard's replies since the last sample, which the
/// detector judges as the slice just ended (or the ones slept through).
fn monitor(
    shards: usize,
    slice_nanos: u64,
    slices: u64,
    mut wait: impl FnMut(u64) -> u64,
    mut sample: impl FnMut() -> Vec<u64>,
) -> (Journal, Vec<LiveAnomaly>) {
    let mut detector = GrayFailureDetector::new(shards);
    let mut journal = Journal::new();
    let mut anomalies = Vec::new();
    // A verdict's flight dump: one cooldown of `(at_ns, ops per shard)`.
    let mut recent: VecDeque<(u64, Vec<u64>)> = VecDeque::new();
    let mut ended = 0;
    while ended < slices {
        let now = wait((ended + 1) * slice_nanos);
        ended = (now / slice_nanos).clamp(ended + 1, slices);
        let ops = sample();
        let at_ns = (ended - 1) * slice_nanos;
        if recent.len() == COOLDOWN as usize {
            recent.pop_front();
        }
        recent.push_back((at_ns, ops.clone()));
        for anomaly in detector.observe_slice(ended - 1, &ops) {
            journal.instant(format!("gray-failure:shard{}", anomaly.shard), at_ns);
            let fields = vec![
                ("at_ns", Json::U64(at_ns)),
                ("detail", Json::str(anomaly.describe())),
            ];
            let what = anomaly.describe();
            flight_dump("livectl_gray", &recent, &what, "anomaly", fields);
            anomalies.push(LiveAnomaly::Gray(anomaly));
        }
    }
    (journal, anomalies)
}

/// Judges a finished run once, with [`audit`] over its merged `traces` and
/// its `journal`. Each violation becomes a [`LiveAnomaly::Audit`] and an
/// `audit:<kind>` instant at its `at_ns`. A run with any writes
/// `FLIGHT_livectl_audit.jsonl`: the journal as one `spans` record, one
/// `violation` record each, and the `trace` records they cite, which is all
/// `chain_audit` needs to find the same verdicts again.
fn judge(traces: &[PacketTrace], journal: &mut Journal, anomalies: &mut Vec<LiveAnomaly>) {
    let violations = audit(traces, journal, &()).violations;
    if violations.is_empty() {
        return;
    }
    for violation in &violations {
        journal.instant(format!("audit:{}", violation.kind.label()), violation.at_ns);
    }
    let mut dump = ArtifactWriter::flight("livectl_audit");
    dump.record("spans", vec![("journal", Json::from(&*journal))]);
    for violation in &violations {
        dump.record("violation", vec![("violation", violation.to_json())]);
    }
    let cited: HashSet<u64> = violations
        .iter()
        .flat_map(|v| v.trace_ids.clone())
        .collect();
    for trace in traces.iter().filter(|t| cited.contains(&t.id)) {
        dump.record("trace", trace_record_fields(trace));
    }
    if let Some(path) = dump.write() {
        let n = violations.len();
        eprintln!(
            "livectl: {n} audit violation(s) — flight dump at {}",
            path.display()
        );
    }
    anomalies.extend(violations.into_iter().map(LiveAnomaly::Audit));
}

/// Pushes `item` into a control ring, yielding while it is full.
fn push_blocking<T: Send>(tx: &mut Producer<T>, mut item: T) {
    while let Err(back) = tx.push(item) {
        item = back;
        std::thread::yield_now();
    }
}

/// The controller's end of one shard's control channel.
type ControllerLink = (Producer<Tagged<ControlCmd>>, Consumer<Tagged<ControlEvt>>);

/// The live controller: the reactor's transport over the control rings.
struct LiveController {
    links: Vec<ControllerLink>,
    next_token: u64,
}

impl LiveController {
    /// Sends `cmd` to each shard of `shards` under a fresh token, and returns
    /// their events once every one is in.
    fn send(&mut self, shards: Range<usize>, cmd: ControlCmd) -> Vec<ControlEvt> {
        let first = self.next_token + 1;
        self.next_token += shards.len() as u64;
        let cmds = std::iter::repeat_n(cmd, shards.len());
        let links = &mut self.links[shards];
        for (((tx, _), token), cmd) in links.iter_mut().zip(first..).zip(cmds) {
            push_blocking(tx, Some((token, cmd)));
        }
        let wait = |((_, rx), token): (&mut ControllerLink, u64)| loop {
            if let Some((acked, evt)) = rx.pop().flatten() {
                assert_eq!(acked, token, "control channel is FIFO");
                break evt;
            }
            std::thread::yield_now();
        };
        links.iter_mut().zip(first..).map(wait).collect()
    }

    /// Works the reactor's agenda off, sleeping up to each entry's time.
    /// Each op is acknowledged by every shard before the next goes out, and
    /// an entry lands when the last acknowledgement is in.
    fn run(&mut self, reactor: &mut Reactor, t0: Instant) {
        let all = 0..self.links.len();
        while let Some(at) = reactor.next_due() {
            while t0.elapsed() < at {
                std::thread::sleep(
                    at.saturating_sub(t0.elapsed())
                        .min(Duration::from_millis(1)),
                );
            }
            for action in reactor.step(t0.elapsed()) {
                match action {
                    // A link fault is its client port's to deliver.
                    Action::Fault(FaultOp::Link { .. }) => {}
                    Action::Fault(op) => {
                        self.send(all.clone(), ControlCmd::Fault(op));
                    }
                    Action::Deliver(ops) => {
                        for (target, op) in ops {
                            self.send(all.clone(), ControlCmd::Op(target, op));
                        }
                    }
                    Action::Copy(copy) => {
                        // Each shard's donor replicas into the same shard's
                        // replacement replica (shards own disjoint keys). The
                        // real copy is fast; the group's share of the sync
                        // budget models the paper's control-plane copy cost.
                        let replacement = Target::Switch(copy.replacement);
                        let (group, modulus) = (copy.group, copy.modulus);
                        for &ip in &copy.donors {
                            for s in all.clone() {
                                let export = ControlCmd::ExportGroup { ip, group, modulus };
                                let Some(ControlEvt::Export(entries)) =
                                    self.send(s..s + 1, export).pop()
                                else {
                                    unreachable!("ExportGroup is answered with Export");
                                };
                                let import =
                                    ControlCmd::Op(replacement, ControlOp::Import(entries));
                                self.send(s..s + 1, import);
                            }
                        }
                        reactor.copied(copy.repair, group);
                    }
                }
            }
            reactor.landed(t0.elapsed());
        }
    }
}

/// Runs the fabric live under control: threads, rings, retrying clients,
/// time-sliced throughput accounting, and (optionally) a scripted failure
/// handled by the live controller. Returns after the run drains.
///
/// Use [`run_live_observed`] to read the shards' counters while the run is
/// going (a dashboard sampling what the monitor samples).
pub fn run_live_controlled(config: LiveConfig) -> LiveReport {
    let cells = (0..config.fabric.num_shards)
        .map(|_| ShardStatsCell::default())
        .collect();
    run_live_observed(config, cells)
}

/// [`run_live_controlled`] with caller-supplied cells: every shard worker
/// publishes its [`ShardStats`] into its cell of `cells` once per busy
/// round, and a monitor thread runs the [`GrayFailureDetector`] over the
/// per-slice differences of those samples, journaling each anomaly and
/// writing `FLIGHT_livectl_gray.jsonl` to the artifact dir when one fires.
/// When the run ends, [`audit`] judges its merged traces against its final
/// journal once: each violation is a [`LiveAnomaly::Audit`] entry in
/// `LiveReport::anomalies`, and any at all write
/// `FLIGHT_livectl_audit.jsonl`.
pub fn run_live_observed(config: LiveConfig, cells: Arc<[ShardStatsCell]>) -> LiveReport {
    let fabric = config.fabric;
    assert_eq!(cells.len(), fabric.num_shards, "one stats cell per shard");
    assert!(fabric.num_shards > 0 && fabric.num_clients > 0);
    assert!(
        fabric.ring_capacity >= config.workload.window,
        "rings must hold a full client window"
    );
    let ring_def = fabric.build_ring();
    // A schedule naming something this fabric does not have is refused, and
    // so is one whose last op, or last reaction to a kill, is paced to end
    // after the run does.
    let (schedule, reactions) = (&config.schedule, config.reactions);
    let spares = fabric.spare_ips();
    let hosted = |ip| ring_def.switches().contains(&ip) || spares.contains(&ip);
    let shard = |ip| (0..fabric.num_shards as u32).any(|s| Ipv4Addr::for_shard(s) == ip);
    let client = |ip| (0..fabric.num_clients as u32).any(|c| Ipv4Addr::for_host(c) == ip);
    schedule.check(
        hosted,
        |ip| hosted(ip) || shard(ip),
        |a, b| (client(a) && shard(b)) || (shard(a) && client(b)),
    );
    let last = (schedule.ops.last().map(|&(at, _)| at).into_iter())
        .chain(schedule.kills().map(|(at, _)| reactions.repair_ends_at(at)))
        .max();
    assert!(
        last.is_none_or(|last| last < config.duration),
        "the fault schedule and the reactions to it must finish inside the run: {last:?} >= {:?}",
        config.duration
    );
    let mut workload = config.workload;
    workload.ops_per_client = u64::MAX;
    let shards = build_shards(&fabric, &workload);

    // Dataplane rings, exactly as in `run_live`.
    let (client_ports, shard_ports) = connect(&fabric);
    // Control rings: one command/event pair per shard.
    let (mut ctrl_links, mut shard_ends) = (Vec::new(), Vec::new());
    for _ in 0..fabric.num_shards {
        let (cmd_tx, cmd_rx) = spsc_ring(CONTROL_RING);
        let (evt_tx, evt_rx) = spsc_ring(CONTROL_RING);
        ctrl_links.push((cmd_tx, evt_rx));
        shard_ends.push((cmd_rx, evt_tx));
    }

    let done_clients = Arc::new(AtomicUsize::new(0));
    // Per-client exit flags: a client that hit its hard stop may leave
    // queries in its ingress rings; shards must not block forever pushing
    // replies nobody will drain.
    let client_done: Arc<Vec<AtomicBool>> = Arc::new(
        (0..fabric.num_clients)
            .map(|_| AtomicBool::new(false))
            .collect(),
    );
    let ctrl_done = Arc::new(AtomicBool::new(schedule.ops.is_empty()));
    let t0 = Instant::now();

    // Shard workers: dataplane bursts + control-command draining in between.
    let mut shard_handles = Vec::new();
    let shards = shards.into_iter().zip(shard_ports).zip(shard_ends);
    for (s, ((mut shard, mut port), (mut cmd_rx, mut evt_tx))) in shards.enumerate() {
        if fabric.trace.enabled {
            shard.enable_tracing(fabric.trace, t0);
        }
        let done = Arc::clone(&done_clients);
        let exited = Arc::clone(&client_done);
        let ctl_done = Arc::clone(&ctrl_done);
        let num_clients = fabric.num_clients;
        let pin = fabric.pin_shards;
        let cells = Arc::clone(&cells);
        let handle = std::thread::Builder::new()
            .name(format!("livectl-shard-{s}"))
            .spawn(move || {
                if pin {
                    // Advisory, exactly as in `run_live`: a failed pin still
                    // runs the shard, merely unpinned.
                    let _ = netchain_fabric::pin_thread(s);
                }
                loop {
                    // Control plane first: commands take effect at burst
                    // boundaries, like table updates between pipeline passes.
                    while let Some((token, cmd)) = cmd_rx.pop().flatten() {
                        let stall = control::stall_of(&shard, &cmd);
                        let evt = control::apply(&mut shard, cmd);
                        push_blocking(&mut evt_tx, Some((token, evt)));
                        // A stalled shard is this thread asleep: state and
                        // rings keep, nothing is accepted or emitted.
                        if !stall.is_zero() {
                            std::thread::sleep(stall);
                        }
                    }
                    // A client that gave up (hard stop) with its reply ring
                    // full has left its replies without a reader.
                    if port.pump(&mut shard, |c| exited[c].load(Ordering::Acquire)) > 0 {
                        // Only a busy round moves a counter. Stores, no
                        // clock: readers time their own samples.
                        cells[s].store(shard.stats());
                    } else {
                        if done.load(Ordering::Acquire) == num_clients
                            && ctl_done.load(Ordering::Acquire)
                            && port.is_drained()
                        {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                (shard.id(), *shard.stats(), shard.take_traces())
            })
            .expect("spawn shard thread");
        shard_handles.push(handle);
    }

    // Duration-driven, retrying, slice-accounting clients.
    let mut client_handles = Vec::new();
    for (c, mut port) in client_ports.into_iter().enumerate() {
        let ring_clone = ring_def.clone();
        let done = Arc::clone(&done_clients);
        let exited = Arc::clone(&client_done);
        let cfg = config.clone();
        port.impair(c as u32, &cfg.schedule);
        let handle = std::thread::Builder::new()
            .name(format!("livectl-client-{c}"))
            .spawn(move || {
                let agent_config = AgentConfig::new(Ipv4Addr::for_host(c as u32))
                    .with_timeout(SimDuration::from_nanos(cfg.retry_timeout.as_nanos() as u64))
                    .with_max_retries(cfg.max_retries);
                let mut wl = cfg.workload;
                wl.ops_per_client = u64::MAX;
                let mut client =
                    ClientState::with_agent_config(c as u32, &ring_clone, wl, agent_config);
                if cfg.fabric.trace.enabled {
                    client.enable_tracing(cfg.fabric.trace);
                }
                let deadline = t0 + cfg.duration;
                let hard_stop = deadline + DRAIN_GRACE;
                let slice_nanos = cfg.slice.as_nanos() as u64;
                let mut slices = TimeSeries::new(slice_nanos);
                let mut next_retry_poll = t0 + cfg.retry_timeout;
                let mut traces = Vec::new();
                loop {
                    let now = Instant::now();
                    let elapsed = now.duration_since(t0);
                    // Flush parked frames (issues and retransmits alike),
                    // issue new work while the run is live, and drain
                    // replies into the current slice. The pump gets a live
                    // clock: a reply the shard produced during this pass
                    // must not be acked with a time from before the pass
                    // began, or the ack predates its own tail stamp.
                    let clock = || SimTime(t0.elapsed().as_nanos() as u64);
                    let pass = port.pump(&mut client, now < deadline, clock);
                    if pass.completed > 0 {
                        slices.record_n(elapsed.as_nanos() as u64, pass.completed);
                    }
                    let mut progressed = pass.progressed;
                    // Retransmission timers, and at the same cadence the
                    // completed traces move out of the sink, which then holds
                    // only what is open.
                    if now >= next_retry_poll {
                        next_retry_poll = now + cfg.retry_timeout / 2;
                        traces.append(&mut client.take_finished_traces());
                        progressed |= port.retransmit(&mut client, clock());
                    }
                    if now >= deadline && client.outstanding() == 0 && !port.has_parked() {
                        break;
                    }
                    if now >= hard_stop {
                        // Outstanding queries could not be drained (should
                        // not happen: retries cover every transient drop).
                        break;
                    }
                    if !progressed {
                        std::thread::yield_now();
                    }
                }
                exited[c].store(true, Ordering::Release);
                done.fetch_add(1, Ordering::Release);
                // What completed since the last poll, then the open
                // (never-acked) remainder, under the sink's last shift.
                let (shift, open) = client.take_traces();
                traces.extend(open);
                let report = client.report();
                (report, slices, client.latency_snapshot(), (shift, traces))
            })
            .expect("spawn client thread");
        client_handles.push(handle);
    }

    // The monitor: samples every shard's counters at each slice boundary and
    // judges the replies each served in the slice with the gray-failure
    // detector. It only loads what the shard workers store, so it never
    // perturbs the dataplane.
    let monitor = {
        let cells = Arc::clone(&cells);
        let slice_nanos = config.slice.as_nanos().max(1) as u64;
        let slices = config.duration.as_nanos() as u64 / slice_nanos;
        std::thread::Builder::new()
            .name("livectl-monitor".to_string())
            .spawn(move || {
                let mut last = vec![ShardStats::default(); cells.len()];
                let wait = |boundary_ns| {
                    let boundary = t0 + Duration::from_nanos(boundary_ns);
                    std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                    t0.elapsed().as_nanos() as u64
                };
                let sample = || {
                    (cells.iter().zip(&mut last))
                        .map(|(cell, last)| cell.since_last(last).replies)
                        .collect()
                };
                monitor(cells.len(), slice_nanos, slices, wait, sample)
            })
            .expect("spawn monitor thread")
    };

    // The controller runs on this thread (it sleeps most of the time).
    let mut reactor = Reactor::new(ring_def.clone(), spares, reactions);
    reactor.load(schedule);
    let mut controller = LiveController {
        links: ctrl_links,
        next_token: 0,
    };
    controller.run(&mut reactor, t0);
    ctrl_done.store(true, Ordering::Release);

    let mut slices = TimeSeries::new(config.slice.as_nanos() as u64);
    let mut clients = Vec::new();
    let mut latency = HistSnapshot::empty();
    let mut trace_fragments = Vec::new();
    for handle in client_handles {
        let (report, client_slices, client_latency, traces) =
            handle.join().expect("client thread panicked");
        clients.push(report);
        slices.merge(&client_slices);
        latency.merge(&client_latency);
        trace_fragments.push(traces);
    }
    let elapsed = t0.elapsed();
    let mut shard_stats = vec![Default::default(); fabric.num_shards];
    for handle in shard_handles {
        let (id, stats, traces) = handle.join().expect("shard thread panicked");
        shard_stats[id] = stats;
        trace_fragments.push(traces);
    }
    let (mut ops_journal, mut anomalies) = monitor.join().expect("monitor thread panicked");
    ops_journal.extend(reactor.journal());
    let (_, traces) = merge_thinned(trace_fragments);
    judge(&traces, &mut ops_journal, &mut anomalies);
    let completed_ops: u64 = clients.iter().map(|c| c.completed).sum();
    LiveReport {
        elapsed,
        slice: config.slice,
        slices: slices.counts().to_vec(),
        completed_ops,
        ops_per_sec: completed_ops as f64 / elapsed.as_secs_f64().max(1e-12),
        clients,
        shards: shard_stats,
        latency,
        traces,
        timeline: reactor.timelines().first().map(|(_, t)| t.clone()),
        timelines: reactor.timelines().to_vec(),
        anomalies,
        ops_journal,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use netchain_telemetry::{
        journal_from_json, trace_from_json, Evidence, EvidenceOp, HopRole, HopStamp, Violation,
        ViolationKind,
    };
    use std::sync::Mutex;

    /// `NETCHAIN_ARTIFACT_DIR` is process-wide and tests run on parallel
    /// threads: every test of this crate that sets it holds this lock
    /// meanwhile.
    pub(crate) static ARTIFACT_ENV: Mutex<()> = Mutex::new(());

    /// One operation on key 7, issued by the client at `at` and acked 100 ns
    /// later carrying `acked`; the tail (and for a write the head) saw `seen`
    /// in between.
    fn planted(id: u64, op: EvidenceOp, at: u64, seen: u64, acked: u64) -> PacketTrace {
        let stamp = |hop_ip, at_ns, role, seq| HopStamp {
            hop_ip,
            at_ns,
            evidence: Some(Evidence {
                op,
                role,
                ok: true,
                key_fp: 7,
                session: 0,
                seq,
            }),
        };
        let mut hops = vec![stamp(1, at, HopRole::ClientIssue, 0)];
        if op == EvidenceOp::Write {
            hops.push(stamp(11, at + 30, HopRole::Head, seen));
        }
        hops.push(stamp(13, at + 60, HopRole::Tail, seen));
        hops.push(stamp(1, at + 100, HopRole::ClientAck, acked));
        PacketTrace { id, hops }
    }

    #[test]
    fn the_monitor_judges_no_slice_past_the_deadline() {
        let _env = ARTIFACT_ENV.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("netchain-drain-test-{}", std::process::id()));
        std::env::set_var("NETCHAIN_ARTIFACT_DIR", &dir);
        // Five 10 ms slices. The monitor wakes 15 ms late at 20 ms, and
        // 25 ms late at the deadline, in the drain. Shard 1 serves nothing
        // from slice 3 on.
        let ms = 1_000_000;
        let wait = |at_ns: u64| match at_ns / ms {
            20 => 35 * ms,
            50 => 75 * ms,
            _ => at_ns,
        };
        let mut samples = 0;
        let sample = || {
            samples += 1;
            let stalled = if samples >= 3 { 0 } else { 100 };
            vec![100, stalled, 100]
        };
        let (journal, anomalies) = monitor(3, 10 * ms, 5, wait, sample);
        std::env::remove_var("NETCHAIN_ARTIFACT_DIR");
        let _ = std::fs::remove_dir_all(&dir);
        // Slices 1 and 2 were judged as one, and the late wake at the end
        // judged the last slice, 4, not one of the drain's: shard 1 is
        // flagged there, on its second slice at 0, and nothing past it is
        // sampled.
        let flagged: Vec<(usize, u64, u64)> = (anomalies.iter())
            .map(|a| match a {
                LiveAnomaly::Gray(g) => (g.shard, g.slice, g.ops),
                LiveAnomaly::Audit(v) => panic!("{v:?}"),
            })
            .collect();
        assert_eq!(flagged, [(1, 4, 0)]);
        assert_eq!(
            journal.find_instant("gray-failure:shard1").unwrap().at_ns,
            40 * ms
        );
        assert_eq!(samples, 4);
    }

    #[test]
    fn the_end_of_run_judge_flags_a_stale_read_and_dumps_what_finds_it_again() {
        let _env = ARTIFACT_ENV.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("netchain-judge-test-{}", std::process::id()));
        let dump = dir.join("FLIGHT_livectl_audit.jsonl");
        std::env::set_var("NETCHAIN_ARTIFACT_DIR", &dir);
        // A write acked at 1 000 ns at (0,2); a read issued at 2 000 ns that
        // returns (0,1).
        let traces = [
            planted(1, EvidenceOp::Write, 900, 1, 2),
            planted(2, EvidenceOp::Read, 2_000, 1, 1),
        ];
        // A journal span around the read does not excuse it: it is stale,
        // and the verdict names the span.
        let (mut journal, mut anomalies) = (Journal::new(), Vec::new());
        journal.span("repair:10.0.0.1", 1_500, 3_000);
        judge(&traces, &mut journal, &mut anomalies);
        std::env::remove_var("NETCHAIN_ARTIFACT_DIR");

        let flagged: Vec<&Violation> = (anomalies.iter())
            .map(|a| match a {
                LiveAnomaly::Audit(v) => v,
                LiveAnomaly::Gray(g) => panic!("{g:?}"),
            })
            .collect();
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert_eq!(flagged[0].kind, ViolationKind::StaleRead);
        assert!(flagged[0].detail.ends_with("(during repair:10.0.0.1)"));
        let instant = journal.find_instant("audit:stale-read").expect("journaled");
        assert_eq!(instant.at_ns, flagged[0].at_ns);
        // The dump alone holds the verdict: decoded and judged again, it
        // yields the same violations.
        let (mut dumped, mut dumped_journal) = (Vec::new(), Journal::new());
        for line in std::fs::read_to_string(&dump)
            .expect("dump readable")
            .lines()
        {
            let record = Json::parse(line).expect("one JSON object per line");
            match record.get("record").and_then(Json::as_str) {
                Some("trace") => dumped.push(trace_from_json(&record).expect("a trace")),
                Some("spans") => {
                    dumped_journal.extend(&journal_from_json(record.get("journal").unwrap()))
                }
                _ => {}
            }
        }
        assert_eq!(dumped.len(), 2);
        let again = audit(&dumped, &dumped_journal, &()).violations;
        assert_eq!(again.iter().collect::<Vec<_>>(), flagged);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
