//! One fault schedule, one reactor, three executors. Each schedule below goes
//! beyond the single scripted fail-stop kill: two victims whose repairs
//! overlap, the replacement killed mid-repair, and a revived victim named as
//! the next replacement. Each is delivered, and reacted to by the one
//! `netchain_core::Reactor` agenda, in the simulator
//! (`NetChainCluster::inject`), the replay fabric (`ReplayFabric::react`) and
//! the live runner (`LiveConfig::with_schedule`), over the same addresses: a
//! ring of S0–S3 with S4 and S5 held out as spares.
//!
//! What every run must show: it completes, every issued op is accounted for
//! (`completed + abandoned = issued`), no client sees a version regress, and
//! the audit of the traces is clean. The simulator and the replay fabric are
//! deterministic, so what they show they always show; the live runs race the
//! controller against real traffic, so a live break shows in some runs only,
//! and the clients' version counters, which see every op, are what catch it.
//! These runs, not a model of the protocol, are the consistency argument for
//! overlapping failures.

use netchain_core::{
    ClusterConfig, FailoverTimeline, FaultOp, KvOp, NetChainCluster, Schedule, WorkloadSpec,
};
use netchain_fabric::FabricConfig;
use netchain_livectl::{
    replay_agent_config, run_live_controlled, LiveConfig, LiveReport, Reactions, ReplayFabric,
};
use netchain_sim::SimDuration;
use netchain_switch::PipelineConfig;
use netchain_telemetry::{
    audit, AuditReport, Evidence, EvidenceOp, HopRole, HopStamp, Journal, PacketTrace, TraceConfig,
    ViolationKind,
};
use netchain_wire::{Ipv4Addr, Key, QueryStatus, Value};
use std::collections::HashMap;
use std::time::Duration;

const GROUPS: u32 = 4;
const NUM_KEYS: u64 = 64;

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn switch(i: u32) -> Ipv4Addr {
    Ipv4Addr::for_switch(i)
}

/// Detection 20 ms after a kill, repair 30 ms after that, 80 ms of sync in
/// four groups: a kill at `t` is repaired by `t + 130 ms`.
fn reactions(replacement: Option<Ipv4Addr>) -> Reactions {
    Reactions {
        failover_delay: ms(20),
        recovery_delay: ms(30),
        sync_duration: ms(80),
        recovery_groups: Some(GROUPS),
        replacement,
    }
}

/// S1 at 100 ms and S3 at 130 ms: the second dies while the first is between
/// failover and repair, and their repairs (150–230 ms, 180–260 ms) overlap.
fn two_victims() -> (Schedule, Reactions) {
    let schedule = Schedule::new(11)
        .at(ms(100), FaultOp::Kill(switch(1)))
        .at(ms(130), FaultOp::Kill(switch(3)));
    (schedule, reactions(None))
}

/// S1 at 100 ms, repaired onto the first spare from 150 ms; the spare dies at
/// 190 ms, two groups in. S1 must be repaired again, onto the second spare.
fn replacement_dies_mid_repair() -> (Schedule, Reactions) {
    let schedule = Schedule::new(12)
        .at(ms(100), FaultOp::Kill(switch(1)))
        .at(ms(190), FaultOp::Kill(switch(4)));
    (schedule, reactions(None))
}

/// S1 at 100 ms, repaired onto a spare by 230 ms and revived (empty,
/// inactive) at 260 ms; S3 at 300 ms, with S1 named as the replacement. S1
/// is dead for its own repair and, revived, still passed over for S3's: its
/// failover rule and redirects would steer the traffic sent to it elsewhere.
fn revived_victim_named_as_replacement() -> (Schedule, Reactions) {
    let schedule = Schedule::new(13)
        .at(ms(100), FaultOp::Kill(switch(1)))
        .at(ms(260), FaultOp::Revive(switch(1)))
        .at(ms(300), FaultOp::Kill(switch(3)));
    (schedule, reactions(Some(switch(1))))
}

/// What a run is judged by, whichever executor produced it.
#[derive(Debug)]
struct Outcome {
    issued: u64,
    completed: u64,
    abandoned: u64,
    version_regressions: u64,
    /// Repairs that ran to their last group: finished timelines.
    repairs_finished: usize,
    /// The first kill's timeline, in the executor's clock.
    timeline: Option<FailoverTimeline>,
    audit: Option<AuditReport>,
}

impl Outcome {
    fn assert_accounted(&self, what: &str) {
        assert!(self.completed > 0, "{what}: nothing completed: {self:?}");
        assert_eq!(
            self.completed + self.abandoned,
            self.issued,
            "{what}: ops unaccounted for: {self:?}"
        );
    }

    fn assert_clean(&self, what: &str) {
        self.assert_accounted(what);
        assert_eq!(self.version_regressions, 0, "{what}: {self:?}");
        if let Some(audit) = &self.audit {
            assert!(audit.is_clean(), "{what}: {:?}", audit.violations);
        }
    }
}

/// A timeline's phases: the kill, failover started and installed, repair
/// started and finished.
fn phases(t: &FailoverTimeline) -> [Duration; 5] {
    [
        t.killed_at,
        t.failover_started_at,
        t.failover_installed_at,
        t.repair_started_at,
        t.repair_finished_at,
    ]
}

/// What a wall clock can promise of a live timeline: no phase starts before
/// the reactor paces it (the kill at `kill_at`, failover `failover_delay`
/// after that, repair `recovery_delay` after failover), nor before the phase
/// ahead of it has landed. How much later is the scheduler's; the exact
/// times are the simulator's and the replay fabric's.
fn assert_paced(t: &FailoverTimeline, kill_at: Duration, r: &Reactions) {
    let failover_at = kill_at + r.failover_delay;
    assert!(t.killed_at >= kill_at, "{t:?}");
    assert!(
        t.failover_started_at >= failover_at.max(t.killed_at),
        "{t:?}"
    );
    let repair_at = (failover_at + r.recovery_delay).max(t.failover_installed_at);
    assert!(t.repair_started_at >= repair_at, "{t:?}");
}

/// How many of an executor's timelines reached the end of their repair.
fn finished(timelines: &[(Ipv4Addr, FailoverTimeline)]) -> usize {
    timelines.iter().filter(|(_, t)| t.repaired()).count()
}

// ---- Simulator ----

/// The simulated run and its controller's journal.
fn run_sim(schedule: &Schedule, reactions: &Reactions) -> (Outcome, Journal) {
    let config = ClusterConfig {
        pipeline: PipelineConfig::tiny(256),
        vnodes_per_switch: 8,
        // Two spines (S0, S1) over four leaves (S2–S5); the first four are
        // the ring, the last two leaves the spares.
        ring_switches: Some(4),
        reactions: *reactions,
        ..ClusterConfig::default()
    };
    let mut cluster = NetChainCluster::spine_leaf(2, 4, 1, config);
    let sink = cluster.enable_switch_tracing(TraceConfig::sampled(0, 1 << 16));
    cluster.populate_store(NUM_KEYS, 8);
    // The client hangs off leaf S2, which no schedule kills.
    cluster.install_workload_client(
        0,
        WorkloadSpec::mixed(NUM_KEYS, u64::MAX, 50, 50),
        20_000.0,
        SimDuration::from_millis(500),
        SimDuration::from_millis(10),
    );
    cluster.inject(schedule);
    cluster.sim.run_for(SimDuration::from_millis(600));
    let report = cluster
        .workload_client(0)
        .expect("installed")
        .client()
        .report();
    let traces = sink.borrow_mut().drain();
    let reactor = cluster.controller().reactor();
    let outcome = Outcome {
        issued: report.issued,
        completed: report.completed,
        abandoned: report.abandoned,
        version_regressions: report.version_regressions,
        repairs_finished: finished(reactor.timelines()),
        timeline: reactor.timelines().first().map(|(_, t)| t.clone()),
        audit: Some(audit(&traces, reactor.journal(), &())),
    };
    (outcome, reactor.journal().clone())
}

// ---- Replay fabric ----

/// The replay fabric under `schedule`, its controller the same reactor the
/// live one runs, with a burst of writes and reads after every agenda entry.
/// Besides the accounting, every read that completes is checked against the
/// last acknowledged write.
fn run_replay(schedule: &Schedule, reactions: &Reactions) -> (Outcome, Vec<String>) {
    let fabric_config = fabric_config();
    let mut replay = ReplayFabric::new(
        fabric_config.build_ring(),
        2,
        PipelineConfig::tiny(256),
        &fabric_config.spare_ips(),
        replay_agent_config(0),
    );
    replay.react(schedule, *reactions);
    for k in 0..NUM_KEYS {
        replay.populate(Key::from_u64(k), &Value::from_u64(0));
    }
    // Per key: the last acknowledged write, and writes since that may or may
    // not have been applied.
    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut maybe: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut stale_reads = Vec::new();
    let (mut next_value, mut next_key) = (1u64, 0u64);
    while let Some(at) = replay.reactor().next_due() {
        replay.step(at);
        // Traffic between steps: a write and a read of each of eight keys.
        for _ in 0..8 {
            let (k, value) = (next_key % NUM_KEYS, next_value);
            (next_key, next_value) = (next_key + 7, next_value + 1);
            let key = Key::from_u64(k);
            let write = replay.exec(KvOp::Write(key, Value::from_u64(value)));
            match write.status {
                Some(QueryStatus::Ok) => {
                    acked.insert(k, value);
                    maybe.remove(&k);
                }
                _ => maybe.entry(k).or_default().push(value),
            }
            let read = replay.exec(KvOp::Read(key));
            if read.status == Some(QueryStatus::Ok) {
                let got = read.value.as_u64().unwrap_or(0);
                let fresh = got == acked.get(&k).copied().unwrap_or(0)
                    || maybe.get(&k).is_some_and(|m| m.contains(&got));
                if !fresh {
                    stale_reads.push(format!("{at:?}: key {k} read {got}"));
                }
            }
        }
    }
    let stats = replay.agent().stats();
    let outcome = Outcome {
        issued: stats.issued,
        completed: stats.completed,
        abandoned: stats.abandoned,
        version_regressions: stats.version_regressions,
        repairs_finished: finished(replay.reactor().timelines()),
        timeline: (replay.reactor().timelines().first()).map(|(_, t)| t.clone()),
        audit: None,
    };
    (outcome, stale_reads)
}

// ---- Live fabric ----

fn fabric_config() -> FabricConfig {
    FabricConfig {
        num_switches: 4,
        vnodes_per_switch: 8,
        ..FabricConfig::new(2)
    }
    .with_spares(2)
}

fn run_live(schedule: &Schedule, reactions: &Reactions) -> (Outcome, LiveReport) {
    let mut config = LiveConfig::new(
        fabric_config().with_trace(TraceConfig::sampled(4, 1 << 14)),
        WorkloadSpec::mixed(NUM_KEYS, 0, 50, 50),
        ms(700),
    )
    .with_schedule(schedule.clone(), *reactions);
    // A query no retransmission can save is given up after 150 ms, so that
    // the accounting closes without the drain grace.
    config.max_retries = 150;
    let report = run_live_controlled(config);
    let outcome = Outcome {
        issued: report.clients.iter().map(|c| c.issued).sum(),
        completed: report.completed_ops,
        abandoned: report.total_abandoned(),
        version_regressions: report.total_version_regressions(),
        repairs_finished: finished(&report.timelines),
        timeline: report.timeline.clone(),
        audit: Some(audit(&report.traces, &report.ops_journal, &())),
    };
    (outcome, report)
}

// ---- The schedules ----

#[test]
fn two_victims_with_overlapping_repairs() {
    let (schedule, reactions) = two_victims();
    let (sim, _) = run_sim(&schedule, &reactions);
    sim.assert_clean("sim");
    assert_eq!(sim.repairs_finished, 2, "{sim:?}");

    let (replay, stale) = run_replay(&schedule, &reactions);
    replay.assert_clean("replay");
    assert_eq!(replay.repairs_finished, 2, "{replay:?}");
    assert!(stale.is_empty(), "{stale:?}");
    // The first kill's phases to the tick, in schedule time: the simulated
    // controller's installs land one control round trip (1 ms) after they
    // start, the replay fabric's at once.
    assert_eq!(
        phases(sim.timeline.as_ref().unwrap()),
        [100, 120, 121, 150, 231].map(ms)
    );
    assert_eq!(
        phases(replay.timeline.as_ref().unwrap()),
        [100, 120, 120, 150, 230].map(ms)
    );

    // Live, S3's death makes new heads. Their bumps land before the rule
    // that reroutes writes to them, so no write they head carries their old
    // session.
    let (live, report) = run_live(&schedule, &reactions);
    live.assert_clean("live");
    assert_eq!(live.repairs_finished, 2, "{:?}", report.ops_journal);
    // The timeline is the first kill's; the journal holds both.
    let timeline = report.timeline.as_ref().expect("kills ran");
    assert_paced(timeline, ms(100), &reactions);
    assert_eq!(timeline.groups_repaired, GROUPS as usize);
    for name in ["kill 10.0.0.1", "kill 10.0.0.3"] {
        assert!(report.ops_journal.find_instant(name).is_some(), "{name}");
    }
    for name in [
        "fast-failover:10.0.0.3",
        "repair:10.0.0.1",
        "repair:10.0.0.3",
    ] {
        assert!(report.ops_journal.find_span(name).is_some(), "{name}");
    }
}

#[test]
fn the_replacement_dies_mid_repair() {
    let (schedule, reactions) = replacement_dies_mid_repair();
    let (sim, _) = run_sim(&schedule, &reactions);
    sim.assert_clean("sim");
    // The first repair was aborted; the second, onto S5, finished.
    assert_eq!(sim.repairs_finished, 1, "{sim:?}");

    let (replay, stale) = run_replay(&schedule, &reactions);
    replay.assert_clean("replay");
    assert_eq!(replay.repairs_finished, 1, "{replay:?}");
    assert!(stale.is_empty(), "{stale:?}");
    // S1's timeline through the aborted attempt, to the tick.
    assert_eq!(
        phases(sim.timeline.as_ref().unwrap()),
        [100, 120, 121, 150, 321].map(ms)
    );
    assert_eq!(
        phases(replay.timeline.as_ref().unwrap()),
        [100, 120, 120, 150, 320].map(ms)
    );

    let (live, report) = run_live(&schedule, &reactions);
    live.assert_clean("live");
    assert_eq!(live.repairs_finished, 1, "{:?}", report.ops_journal);
    let journal = &report.ops_journal;
    assert!(journal.find_instant("repair-aborted:10.0.0.1").is_some());
    assert!(journal.find_span("fast-failover:10.0.0.4").is_some());
    // The timeline is still S1's, through the aborted attempt: its repair
    // started with the first attempt, finished with the second, and counts
    // the two groups that went onto S4 as well as the four onto S5.
    let timeline = report.timeline.as_ref().expect("a kill ran");
    assert_paced(timeline, ms(100), &reactions);
    assert!(timeline.failover_installed_at >= ms(120), "{timeline:?}");
    assert!(timeline.repair_finished_at >= ms(320), "{timeline:?}");
    assert_eq!(timeline.groups_repaired, 2 + GROUPS as usize);
    assert_eq!(timeline.group_activations.len(), timeline.groups_repaired);
}

#[test]
fn a_revived_victim_is_never_reused_as_a_replacement() {
    let (schedule, reactions) = revived_victim_named_as_replacement();
    let (sim, _) = run_sim(&schedule, &reactions);
    let (replay, stale) = run_replay(&schedule, &reactions);
    let (live, report) = run_live(&schedule, &reactions);
    for (what, outcome) in [("sim", &sim), ("replay", &replay), ("live", &live)] {
        outcome.assert_clean(what);
        assert_eq!(outcome.repairs_finished, 2, "{what}: {outcome:?}");
    }
    assert!(stale.is_empty(), "{stale:?}");
    assert!(report.ops_journal.find_instant("revive 10.0.0.1").is_some());
}

// ---- One journal ----

/// S1 at 100 ms, repaired onto a spare from 150 ms to 230 ms.
fn one_kill() -> (Schedule, Reactions) {
    let schedule = Schedule::new(10).at(ms(100), FaultOp::Kill(switch(1)));
    (schedule, reactions(None))
}

/// A journal's controller entries by name: instants, then spans, each in
/// recording order (the live monitor's own verdicts left out).
fn names(journal: &Journal) -> (Vec<&str>, Vec<&str>) {
    let monitor = |n: &&str| n.starts_with("audit:") || n.starts_with("gray-failure:");
    let instants = journal.instants().iter().map(|i| i.name.as_str());
    let spans = journal.spans().iter().map(|s| s.name.as_str());
    (instants.filter(|n| !monitor(n)).collect(), spans.collect())
}

#[test]
fn one_kill_is_journaled_alike_by_the_simulator_and_live() {
    let (schedule, reactions) = one_kill();
    let (sim, sim_journal) = run_sim(&schedule, &reactions);
    sim.assert_clean("sim");
    let (live, report) = run_live(&schedule, &reactions);
    live.assert_accounted("live");
    assert_eq!((sim.repairs_finished, live.repairs_finished), (1, 1));
    let (instants, spans) = names(&sim_journal);
    assert_eq!(
        names(&report.ops_journal),
        (instants.clone(), spans.clone())
    );
    let groups = (0..GROUPS).map(|i| format!("activate-group:10.0.0.1:{i}"));
    let golden: Vec<String> = ["kill 10.0.0.1".to_string()]
        .into_iter()
        .chain(groups)
        .collect();
    assert_eq!(instants, golden);
    assert_eq!(spans, ["fast-failover:10.0.0.1", "repair:10.0.0.1"]);
}

/// A trace of one key stamped by the client at `at` (issue) and `at + 30 µs`
/// (ack), and in between by S0 as the head (a write only) and S2 as the
/// tail, both seeing version `seen`; the ack carries `acked`.
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
    let client = Ipv4Addr::for_host(0).to_u32();
    let mut hops = vec![stamp(client, at, HopRole::ClientIssue, 0)];
    if op == EvidenceOp::Write {
        hops.push(stamp(switch(0).to_u32(), at + 10_000, HopRole::Head, seen));
    }
    hops.push(stamp(switch(2).to_u32(), at + 20_000, HopRole::Tail, seen));
    hops.push(stamp(client, at + 30_000, HopRole::ClientAck, acked));
    PacketTrace { id, hops }
}

#[test]
fn a_simulated_repair_that_loses_a_key_is_reported_as_a_lost_key() {
    // The durability check takes its window from the journal's `repair:`
    // spans: the simulator's journal must carry one for a lost key to be
    // told apart from a merely stale read.
    let (schedule, reactions) = one_kill();
    let (_, journal) = run_sim(&schedule, &reactions);
    let repair = journal.find_span("repair:10.0.0.1").expect("a repair span");
    let after = repair.end_ns.expect("closed") + 50_000_000;
    // A write acked at 1 ms at version 2; a read issued after the repair
    // that sees version 1.
    let write = planted(1, EvidenceOp::Write, 1_000_000, 1, 2);
    let read = planted(2, EvidenceOp::Read, after, 1, 1);
    let verdict = audit(&[write, read], &journal, &());
    let kinds: Vec<ViolationKind> = verdict.violations.iter().map(|v| v.kind).collect();
    assert_eq!(kinds, [ViolationKind::LostKey], "{verdict:?}");
}

// ---- Link faults and stalls ----

/// A lossy, duplicating, reordering client ↔ shard edge from the start, a
/// kill in the middle: everything the replay fabric decides at random.
fn lossy_run(seed: u64) -> (Vec<(u64, Option<QueryStatus>, u32)>, u64) {
    let fabric_config = fabric_config();
    let mut agent = replay_agent_config(0);
    agent.max_retries = 6;
    let ring = fabric_config.build_ring();
    let mut replay = ReplayFabric::new(ring, 2, PipelineConfig::tiny(256), &[], agent);
    replay.seed_faults(seed);
    for k in 0..NUM_KEYS {
        replay.populate(Key::from_u64(k), &Value::from_u64(0));
    }
    let client = Ipv4Addr::for_host(0);
    for s in 0..2 {
        let shard = Ipv4Addr::for_shard(s);
        for (from, to) in [(client, shard), (shard, client)] {
            replay.apply(&FaultOp::Link {
                from,
                to,
                drop: 0.2,
                dup: 0.2,
                reorder: 0.2,
            });
        }
    }
    let mut outcomes = Vec::new();
    for i in 0..300u64 {
        if i == 150 {
            replay.apply(&FaultOp::Kill(switch(1)));
            replay.fast_failover(switch(1));
        }
        let key = Key::from_u64(i % NUM_KEYS);
        let done = replay.exec(match i % 2 {
            0 => KvOp::Write(key, Value::from_u64(i)),
            _ => KvOp::Read(key),
        });
        outcomes.push((done.request_id, done.status, done.retries));
    }
    let stats = replay.agent().stats();
    assert_eq!(stats.completed + stats.abandoned, stats.issued);
    assert_eq!(stats.version_regressions, 0);
    (outcomes, stats.retries)
}

#[test]
fn the_same_seed_replays_the_same_lossy_run() {
    let (outcomes, retries) = lossy_run(21);
    assert_eq!((outcomes.clone(), retries), lossy_run(21));
    assert_ne!(outcomes, lossy_run(22).0, "the seed decides the verdicts");
    // The faults bit: queries were retransmitted, and through six retries at
    // a fifth lost each way nearly every one still completed.
    assert!(retries > 30, "{retries} retries");
    let completed = outcomes.iter().filter(|o| o.1.is_some()).count();
    assert!(completed > 280, "{completed} of 300 completed");
}

#[test]
fn lossy_rings_are_absorbed_by_retries_live() {
    // From 50 ms to 250 ms every ring between the client and a shard loses,
    // duplicates and reorders a tenth of its frames each, both ways; then
    // the edges heal. Retries absorb the loss, a duplicate never completes
    // a query twice, and the audit stays clean.
    let client = Ipv4Addr::for_host(0);
    let mut schedule = Schedule::new(31);
    for (at, rate) in [(ms(50), 0.1), (ms(250), 0.0)] {
        for shard in (0..2).map(Ipv4Addr::for_shard) {
            for (from, to) in [(client, shard), (shard, client)] {
                let link = FaultOp::Link {
                    from,
                    to,
                    drop: rate,
                    dup: rate,
                    reorder: rate,
                };
                schedule = schedule.at(at, link);
            }
        }
    }
    let mut config = LiveConfig::new(
        fabric_config().with_trace(TraceConfig::sampled(4, 1 << 14)),
        WorkloadSpec::mixed(NUM_KEYS, 0, 50, 50),
        ms(400),
    )
    .with_schedule(schedule, Reactions::default());
    // Window 64, a tenth lost: give a dropped query its timeout quickly.
    config.retry_timeout = Duration::from_micros(500);
    let report = run_live_controlled(config);
    let issued: u64 = report.clients.iter().map(|c| c.issued).sum();
    assert_eq!(report.completed_ops, issued, "every op completes");
    assert_eq!(report.total_abandoned(), 0);
    assert_eq!(report.total_version_regressions(), 0);
    assert!(report.total_retries() > 100, "nothing was lost?");
    assert!(report.timeline.is_none() && report.anomalies.is_empty());
    let verdict = audit(&report.traces, &report.ops_journal, &());
    assert!(verdict.is_clean(), "{:?}", verdict.violations);
    assert!(verdict.checked > 0, "{verdict:?}");
    let journaled = |name: &str| {
        report
            .ops_journal
            .instants()
            .iter()
            .filter(|i| i.name == name)
            .count()
    };
    assert_eq!(
        journaled("link 10.1.0.0>10.2.0.1"),
        2,
        "impaired, then healed"
    );
}
