//! When the controller acts: one sans-IO agenda that runs Algorithms 2 and 3
//! for every executor.
//!
//! [`crate::failplan`] decides *what* a controller sends, and its [`View`]
//! who replaces whom; a [`Reactor`] decides *when*. Its agenda holds the
//! schedule's ops and, after each kill, the reactions to it: Algorithm 2
//! `failover_delay` later, the repair `recovery_delay` after that, group *i*
//! blocked and copied at `repair start + i × per_group` and activated one
//! `per_group` later, once copied. Every entry is paced against the absolute
//! schedule, so a slow delivery eats into later budgets instead of drifting.
//! The reactor also owns each repair's progress, the one abort rule (a repair
//! whose replacement dies is abandoned, its redirects withdrawn, its switch
//! planned again onto the next free one), the journal (every schedule op by
//! name, `fast-failover:<ip>`, `repair:<ip>`, `activate-group:<ip>:<i>`,
//! `repair-aborted:<ip>`) and one [`FailoverTimeline`] per killed ring switch.
//!
//! The executors (the simulated [`crate::Controller`], the live fabric's
//! controller, `ReplayFabric`) only deliver, in one loop:
//!
//! ```text
//! while let Some(at) = reactor.next_due() {
//!     wait until `at`;
//!     for action in reactor.step(now) { deliver it }   // a Copy: then reactor.copied(..)
//!     reactor.landed(when it took effect);
//! }
//! ```
//!
//! The reactions are plain methods too, for a caller that sequences them.

use crate::failplan::{OpList, RecoveryPlan, View};
use crate::fault::{insert_at, FaultOp, Schedule};
use crate::hashring::HashRing;
use netchain_telemetry::Journal;
use netchain_wire::Ipv4Addr;
use std::time::Duration;

/// How the controller reacts to a `Kill`, each measured from the kill; the
/// one struct holding its timings. `Default` is all zero (a schedule without
/// kills needs none); `ClusterConfig::default()` has the paper's.
///
/// ```text
/// ── kill ─┬─ failover_delay ─┬─ recovery_delay ─┬─ sync_duration ─┬──
///         │   (detection;    │  (degraded:      │  per-group      │  restored
///         │    traffic to    │   chains run     │  block → sync   │
///         │    the victim    │   one short)     │  → activate     │
///   switch killed      Algorithm 2        repair starts     repair done
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reactions {
    /// Failure detection, the dip an operator sees; the simulator's
    /// survivors learn of the death at the same moment.
    pub failover_delay: Duration,
    /// Pause between failover and repair (the paper's ~20 s shows phases).
    pub recovery_delay: Duration,
    /// A whole repair's state-synchronisation budget: each group is blocked
    /// for `sync_duration / groups`, the paper's switch-control-plane copy
    /// cost (one group blocks writes throughout: Figure 10(a); 100 groups
    /// ~1 % of keys at a time: Figure 10(b)).
    pub sync_duration: Duration,
    /// `None` repairs the ring's own virtual groups, `Some(g)` the key space
    /// in `g` equal hash groups (Figure 10).
    pub recovery_groups: Option<u32>,
    /// Replacement switch while alive and never failed; else a spare, else a
    /// live ring switch.
    pub replacement: Option<Ipv4Addr>,
}

impl Reactions {
    /// When the repair of a switch killed at `kill_at` is paced to end.
    pub fn repair_ends_at(&self, kill_at: Duration) -> Duration {
        kill_at + self.failover_delay + self.recovery_delay + self.sync_duration
    }
}

/// When each phase of one killed ring switch's handling landed, as offsets
/// from run start; one that did not happen stays zero. A repair begun again
/// (its replacement died) started with the first attempt and finished with
/// the last, and the activations are both's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailoverTimeline {
    /// When the kill was delivered.
    pub killed_at: Duration,
    /// When Algorithm 2 started (kill + detection delay).
    pub failover_started_at: Duration,
    /// When its rules and session bumps had landed: rerouting from here.
    pub failover_installed_at: Duration,
    /// `failover_installed_at - failover_started_at`, measured.
    pub failover_install_time: Duration,
    /// When chain repair started.
    pub repair_started_at: Duration,
    /// When the last group's activation landed.
    pub repair_finished_at: Duration,
    /// Per-group activation instants, in repair order.
    pub group_activations: Vec<Duration>,
    /// Number of groups activated.
    pub groups_repaired: usize,
}

impl FailoverTimeline {
    /// True once the switch's repair ran to its last group.
    pub fn repaired(&self) -> bool {
        !self.repair_finished_at.is_zero()
    }
}

/// What an executor delivers.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// A schedule op come due (the simulator has it on its own event queue).
    Fault(FaultOp),
    /// An op list of [`crate::failplan`], front to back.
    Deliver(OpList),
    /// Synchronise a blocked group, then call [`Reactor::copied`].
    Copy(GroupCopy),
}

/// One group's state copy: the union of the donors' copies, imported by the
/// replacement (the per-key version registers arbitrate).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct GroupCopy {
    pub repair: usize,
    pub group: u32,
    pub modulus: u32,
    pub donors: Vec<Ipv4Addr>,
    pub replacement: Ipv4Addr,
}

/// An agenda entry; also what the last reaction delivered, for
/// [`Reactor::landed`] to record.
#[derive(Debug, Clone, Copy)]
enum Due {
    Fault(FaultOp),
    /// Algorithm 2 for a dead switch.
    Failover(Ipv4Addr),
    /// Algorithm 3 for a ring switch.
    Repair(Ipv4Addr),
    /// Repair `.0`'s next phase: block a group, or activate the blocked one.
    Group(usize),
}

/// Where a repair's current group stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Open,
    Copying,
    /// Its activation came due at `.0`, before its copy was done.
    Held(Duration),
    Copied,
}

/// One Algorithm 3 in progress.
#[derive(Debug)]
struct Repair {
    plan: RecoveryPlan,
    /// Scheduled start (the groups are paced against it), measured start.
    due: Duration,
    started: Duration,
    activated: usize,
    phase: Phase,
    /// Its replacement died.
    aborted: bool,
}

/// The controller's one agenda: see the module docs.
#[derive(Debug)]
pub struct Reactor {
    ring: HashRing,
    view: View,
    reactions: Reactions,
    /// Ascending in time, ties in insertion order.
    agenda: Vec<(Duration, Due)>,
    repairs: Vec<Repair>,
    /// The last reaction that delivered something, and when it started.
    landing: Option<(Duration, Due)>,
    journal: Journal,
    timelines: Vec<(Ipv4Addr, FailoverTimeline)>,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

impl Reactor {
    /// A reactor for `ring` with `spares` held out; nothing on its agenda
    /// until [`Self::load`].
    pub fn new(ring: HashRing, spares: Vec<Ipv4Addr>, reactions: Reactions) -> Self {
        Reactor {
            ring,
            view: View::new(spares),
            reactions,
            agenda: Vec::new(),
            repairs: Vec::new(),
            landing: None,
            journal: Journal::new(),
            timelines: Vec::new(),
        }
    }

    /// Puts every op of `schedule` on the agenda at its time.
    pub fn load(&mut self, schedule: &Schedule) {
        for &(at, op) in &schedule.ops {
            insert_at(&mut self.agenda, at, Due::Fault(op));
        }
    }

    /// Who is down, who is free to replace, who stands for whom.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Every schedule op delivered and every phase of every reaction.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// One timeline per killed ring switch, in kill order.
    pub fn timelines(&self) -> &[(Ipv4Addr, FailoverTimeline)] {
        &self.timelines
    }

    /// When the next entry is due.
    pub fn next_due(&self) -> Option<Duration> {
        self.agenda.first().map(|&(at, _)| at)
    }

    /// Executes the first entry due by `now`, if any, and returns what to
    /// deliver, in order. `now` is what the journal records; the entry's
    /// successors are paced against its due time.
    pub fn step(&mut self, now: Duration) -> Vec<Action> {
        if self.next_due().is_none_or(|at| at > now) {
            return Vec::new();
        }
        let (at, due) = self.agenda.remove(0);
        let reactions = self.reactions;
        match due {
            Due::Fault(op) => {
                if let FaultOp::Kill(ip) = op {
                    self.later(at + reactions.failover_delay, Due::Failover(ip));
                }
                self.fault(op);
                vec![Action::Fault(op)]
            }
            Due::Failover(ip) => {
                let Some((ops, victim)) = self.fast_failover(now, ip) else {
                    return Vec::new();
                };
                self.later(at + reactions.recovery_delay, Due::Repair(victim));
                vec![Action::Deliver(ops)]
            }
            Due::Repair(victim) => {
                let (explicit, groups) = (reactions.replacement, reactions.recovery_groups);
                if let Some(r) = self.repair(now, victim, explicit, groups) {
                    self.repairs[r].due = at;
                    self.later(at, Due::Group(r));
                }
                Vec::new()
            }
            Due::Group(r) => {
                let repair = &mut self.repairs[r];
                let (steps, next) = (repair.plan.steps.len(), repair.activated + 1);
                match repair.phase {
                    _ if repair.aborted => Vec::new(),
                    Phase::Open => {
                        let per_group = reactions.sync_duration / steps as u32;
                        let activate_at = repair.due + per_group * next as u32;
                        self.later(activate_at, due);
                        let (ops, copy) = self.block(r).expect("a group left to repair");
                        vec![Action::Deliver(ops), Action::Copy(copy)]
                    }
                    Phase::Copying => {
                        repair.phase = Phase::Held(at);
                        Vec::new()
                    }
                    _ => {
                        if next < steps {
                            self.later(at, due);
                        }
                        vec![Action::Deliver(self.activate(r).expect("copied"))]
                    }
                }
            }
        }
    }

    /// What the last step (or reaction) delivered took effect at `now`.
    pub fn landed(&mut self, now: Duration) {
        match self.landing.take() {
            Some((_, Due::Fault(op))) => {
                self.journal.instant(op.to_string(), ns(now));
                if let FaultOp::Kill(ip) = op {
                    if self.ring.switches().contains(&ip) {
                        let killed = FailoverTimeline {
                            killed_at: now,
                            ..Default::default()
                        };
                        self.timelines.push((ip, killed));
                    }
                }
            }
            Some((started, Due::Failover(ip))) => {
                self.journal
                    .span(format!("fast-failover:{ip}"), ns(started), ns(now));
                if let Some(t) = self.timeline_of(ip) {
                    (t.failover_started_at, t.failover_installed_at) = (started, now);
                    t.failover_install_time = now - started;
                }
            }
            Some((_, Due::Group(r))) => {
                let repair = &self.repairs[r];
                let (victim, started) = (repair.plan.failed_ip, repair.started);
                let done = repair.activated == repair.plan.steps.len();
                let name = format!("activate-group:{victim}:{}", repair.activated - 1);
                self.journal.instant(name, ns(now));
                if done {
                    self.journal
                        .span(format!("repair:{victim}"), ns(started), ns(now));
                }
                if let Some(t) = self.timeline_of(victim) {
                    t.group_activations.push(now);
                    t.groups_repaired += 1;
                    if done {
                        t.repair_finished_at = now;
                    }
                }
            }
            _ => {}
        }
    }

    /// Repair `repair`'s copy of `group` is on its replacement: the group may
    /// activate, at once if its activation is overdue.
    pub fn copied(&mut self, repair: usize, group: u32) {
        let r = &mut self.repairs[repair];
        if r.phase != Phase::Open && r.plan.steps[r.activated].group == group {
            if let Phase::Held(at) = std::mem::replace(&mut r.phase, Phase::Copied) {
                self.later(at, Due::Group(repair));
            }
        }
    }

    // ---- The reactions ----

    /// A schedule op is delivered. A revived switch stays failed in the
    /// view: it is never a replacement (see [`View::failed`]).
    pub fn fault(&mut self, op: FaultOp) {
        self.landing = Some((Duration::ZERO, Due::Fault(op)));
    }

    /// Algorithm 2 for the death of `ip`, and the ring switch whose chains
    /// now need repair (`ip`, or the one it stood in for); `None` if `ip`
    /// held no chain role. A repair onto `ip` is abandoned, and its redirects
    /// to the dead switch withdrawn: they would outrank the next repair's
    /// blocks, which would then copy groups still being written.
    pub fn fast_failover(&mut self, now: Duration, ip: Ipv4Addr) -> Option<(OpList, Ipv4Addr)> {
        let (mut ops, victim) = self.view.kill(&self.ring, ip)?;
        for repair in &mut self.repairs {
            if repair.plan.replacement_ip == ip && !repair.aborted {
                repair.aborted = true;
                ops.extend(repair.plan.withdraw_ops(repair.activated));
                let name = format!("repair-aborted:{}", repair.plan.failed_ip);
                self.journal.instant(name, ns(now));
            }
        }
        self.landing = Some((now, Due::Failover(ip)));
        Some((ops, victim))
    }

    /// Plans Algorithm 3 for ring switch `victim` onto the replacement the
    /// view picks; returns the repair's index, `None` if no switch is free.
    pub fn repair(
        &mut self,
        now: Duration,
        victim: Ipv4Addr,
        explicit: Option<Ipv4Addr>,
        groups: Option<u32>,
    ) -> Option<usize> {
        let plan = (self.view).plan_recovery(&self.ring, victim, explicit, groups)?;
        // A repair begun again started when the first attempt did.
        let first = self
            .timeline_of(victim)
            .filter(|t| t.repair_started_at.is_zero());
        if let Some(t) = first {
            t.repair_started_at = now;
        }
        self.repairs.push(Repair {
            plan,
            due: now,
            started: now,
            activated: 0,
            phase: Phase::Open,
            aborted: false,
        });
        Some(self.repairs.len() - 1)
    }

    /// Phase 1 of repair `repair`'s next group: the block, and the copy.
    /// `None` if a group is blocked, none is left, or it was abandoned.
    pub fn block(&mut self, repair: usize) -> Option<(OpList, GroupCopy)> {
        let r = &mut self.repairs[repair];
        if r.aborted || r.phase != Phase::Open || r.activated == r.plan.steps.len() {
            return None;
        }
        r.phase = Phase::Copying;
        let (plan, step) = (&r.plan, &r.plan.steps[r.activated]);
        let copy = GroupCopy {
            repair,
            group: step.group,
            modulus: plan.modulus,
            donors: step.donors.clone(),
            replacement: plan.replacement_ip,
        };
        Some((plan.block_ops(r.activated), copy))
    }

    /// Phase 2 of repair `repair`'s blocked group, once copied: activate the
    /// replacement with the next session and switch the group over.
    pub fn activate(&mut self, repair: usize) -> Option<OpList> {
        let r = &mut self.repairs[repair];
        if r.aborted || r.phase != Phase::Copied {
            return None;
        }
        let ops = (r.plan).activate_ops(r.activated, &mut self.view.next_session);
        (r.phase, r.activated) = (Phase::Open, r.activated + 1);
        self.landing = Some((Duration::ZERO, Due::Group(repair)));
        Some(ops)
    }

    /// How many repairs were planned: the latest is `repairs() - 1`.
    pub fn repairs(&self) -> usize {
        self.repairs.len()
    }

    /// Repair `repair`'s plan, its groups activated so far, and whether the
    /// next one is blocked.
    pub fn progress(&self, repair: usize) -> (&RecoveryPlan, usize, bool) {
        let r = &self.repairs[repair];
        (&r.plan, r.activated, r.phase != Phase::Open)
    }

    fn later(&mut self, at: Duration, due: Due) {
        insert_at(&mut self.agenda, at, due);
    }

    /// The timeline of ring switch `ip`'s latest death, while unrepaired.
    fn timeline_of(&mut self, ip: Ipv4Addr) -> Option<&mut FailoverTimeline> {
        let latest = self.timelines.iter_mut().rev().find(|(v, _)| *v == ip);
        latest.map(|(_, t)| t).filter(|t| !t.repaired())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failplan::Target;
    use netchain_switch::{ControlOp, FailoverAction, RuleScope};

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn switch(i: u32) -> Ipv4Addr {
        Ipv4Addr::for_switch(i)
    }

    /// S0–S3, as `livectl/tests/schedules.rs` builds it; S4 and S5 spare.
    fn reactor(replacement: Option<Ipv4Addr>) -> Reactor {
        let ring = HashRing::new((0..4).map(switch).collect(), 8, 3, 7);
        let reactions = Reactions {
            failover_delay: ms(20),
            recovery_delay: ms(30),
            sync_duration: ms(80),
            recovery_groups: Some(4),
            replacement,
        };
        Reactor::new(ring, vec![switch(4), switch(5)], reactions)
    }

    fn name(ip: Ipv4Addr) -> String {
        format!("S{}", ip.0[3])
    }

    fn scope(scope: RuleScope) -> String {
        match scope {
            RuleScope::All => "all".into(),
            RuleScope::Group { group, modulus } => format!("g{group}/{modulus}"),
        }
    }

    /// One action on one line: ops by target and kind, sessions, groups and
    /// switches spelled out.
    fn line(action: &Action) -> String {
        let op = |(target, op): &(Target, ControlOp)| match (target, op) {
            (_, ControlOp::InstallRule { failed_ip, rule }) => {
                let action = match rule.action {
                    FailoverAction::ChainFailover => "failover".into(),
                    FailoverAction::Block => "block".into(),
                    FailoverAction::Redirect(to) => format!("redirect {}", name(to)),
                };
                let (ip, p, s) = (name(*failed_ip), rule.priority, scope(rule.scope));
                format!("{ip} p{p} {action} {s}")
            }
            (
                _,
                ControlOp::RemoveRule {
                    failed_ip,
                    priority,
                    scope: s,
                },
            ) => {
                format!("{} p{priority} removed {}", name(*failed_ip), scope(*s))
            }
            (Target::Switch(ip), ControlOp::SetSession(n)) => format!("{} session {n}", name(*ip)),
            (Target::Switch(ip), ControlOp::SetActive(on)) => format!("{} active {on}", name(*ip)),
            other => format!("{other:?}"),
        };
        match action {
            Action::Fault(fault) => fault.to_string(),
            Action::Deliver(ops) => ops.iter().map(op).collect::<Vec<_>>().join("; "),
            Action::Copy(c) => {
                let donors: Vec<String> = c.donors.iter().map(|&d| name(d)).collect();
                let (r, g, m, to) = (c.repair, c.group, c.modulus, name(c.replacement));
                format!("copy #{r} g{g}/{m} {} -> {to}", donors.join(","))
            }
        }
    }

    /// Works `schedule` off as an executor would, jumping from one due time
    /// to the next: every action delivered as it comes, each copy done
    /// `copy_time(group)` after it was asked for, unless its replacement is
    /// killed first (as in the simulator). Returns `ms action` per line, and
    /// `ms copied #r gN` where a copy completes.
    fn run(
        reactor: &mut Reactor,
        schedule: &Schedule,
        copy_time: impl Fn(u32) -> Duration,
    ) -> Vec<String> {
        reactor.load(schedule);
        let mut copying: Vec<(Duration, usize, u32)> = Vec::new();
        let (mut out, mut clock) = (Vec::new(), Duration::ZERO);
        loop {
            let copy_due = copying.iter().map(|c| c.0).min();
            let Some(next) = reactor.next_due().into_iter().chain(copy_due).min() else {
                return out;
            };
            let now = next.max(clock);
            clock = now;
            if copy_due == Some(now) {
                let i = copying.iter().position(|c| c.0 == now).expect("due");
                let (_, r, group) = copying.remove(i);
                reactor.copied(r, group);
                out.push(format!("{:>3} copied #{r} g{group}", now.as_millis()));
                continue;
            }
            for action in reactor.step(now) {
                out.push(format!("{:>3} {}", now.as_millis(), line(&action)));
                match action {
                    Action::Copy(c) => copying.push((now + copy_time(c.group), c.repair, c.group)),
                    // A copy onto a dead switch never completes.
                    Action::Fault(FaultOp::Kill(ip)) => {
                        copying.retain(|&(_, r, _)| reactor.progress(r).0.replacement_ip != ip)
                    }
                    _ => {}
                }
            }
            reactor.landed(now);
        }
    }

    /// Copies take 2 ms, group 1's 30 ms: past its 20 ms window, so its
    /// activation is held until the copy is done, and the groups after it
    /// keep to the repair's own pacing.
    fn slow(group: u32) -> Duration {
        ms(if group == 1 { 30 } else { 2 })
    }

    fn golden(lines: &[String], expected: &str) {
        let expected: Vec<&str> = expected
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        let got: Vec<&str> = lines.iter().map(|l| l.trim()).collect();
        assert_eq!(got, expected, "\n{}", lines.join("\n"));
    }

    fn instants(reactor: &Reactor) -> Vec<(u128, &str)> {
        let instants = reactor.journal().instants().iter();
        instants
            .map(|i| (i.at_ns as u128 / 1_000_000, i.name.as_str()))
            .collect()
    }

    #[test]
    fn a_single_kill_fails_over_then_repairs_group_by_group() {
        let mut reactor = reactor(None);
        let schedule = Schedule::new(10).at(ms(100), FaultOp::Kill(switch(1)));
        let lines = run(&mut reactor, &schedule, slow);
        // S1 heads chains S0, S2 and S3 take over: they are bumped
        // (sessions 1–3) before the rule reroutes writes to them. Each
        // activation bumps the spare S4 (4–7). Group 1's copy ends at 200 ms,
        // so its activation, due at 190 ms, waits for it; group 2 is still
        // blocked at once, and activated on time at 210 ms.
        golden(
            &lines,
            "
            100 kill 10.0.0.1
            120 S0 session 1; S2 session 2; S3 session 3; S1 p1 failover all
            150 S1 p2 block g0/4
            150 copy #0 g0/4 S0,S2,S3 -> S4
            152 copied #0 g0
            170 S4 active true; S4 session 4; S1 p3 redirect S4 g0/4; S1 p2 removed g0/4
            170 S1 p2 block g1/4
            170 copy #0 g1/4 S0,S2,S3 -> S4
            200 copied #0 g1
            200 S4 active true; S4 session 5; S1 p3 redirect S4 g1/4; S1 p2 removed g1/4
            200 S1 p2 block g2/4
            200 copy #0 g2/4 S0,S2,S3 -> S4
            202 copied #0 g2
            210 S4 active true; S4 session 6; S1 p3 redirect S4 g2/4; S1 p2 removed g2/4
            210 S1 p2 block g3/4
            210 copy #0 g3/4 S0,S2,S3 -> S4
            212 copied #0 g3
            230 S4 active true; S4 session 7; S1 p3 redirect S4 g3/4; S1 p2 removed g3/4
            ",
        );
        let journal = reactor.journal();
        assert_eq!(
            instants(&reactor),
            [
                (100, "kill 10.0.0.1"),
                (170, "activate-group:10.0.0.1:0"),
                (200, "activate-group:10.0.0.1:1"),
                (210, "activate-group:10.0.0.1:2"),
                (230, "activate-group:10.0.0.1:3"),
            ]
        );
        let spans: Vec<(&str, u64, Option<u64>)> = (journal.spans().iter())
            .map(|s| {
                (
                    s.name.as_str(),
                    s.start_ns / 1_000_000,
                    s.end_ns.map(|e| e / 1_000_000),
                )
            })
            .collect();
        assert_eq!(
            spans,
            [
                ("fast-failover:10.0.0.1", 120, Some(120)),
                ("repair:10.0.0.1", 150, Some(230))
            ]
        );
        let [(victim, timeline)] = reactor.timelines() else {
            panic!("one killed ring switch: {:?}", reactor.timelines());
        };
        assert_eq!(*victim, switch(1));
        assert_eq!(timeline.killed_at, ms(100));
        assert_eq!(
            (timeline.repair_started_at, timeline.repair_finished_at),
            (ms(150), ms(230))
        );
        assert_eq!(timeline.group_activations, [170, 200, 210, 230].map(ms));
        assert!(timeline.repaired() && timeline.groups_repaired == 4);
        assert_eq!(reactor.view().stands_for, [(switch(4), switch(1))]);
    }

    #[test]
    fn two_victims_repair_interleaved_on_one_agenda() {
        // S3 dies while S1 is between failover and repair: its Algorithm 2
        // comes due at 150 ms with S1's repair, and bumps the acting heads
        // behind S3 (and dead S1) from session 4, before the rule. Dead S1 is
        // not bumped: `FailoverPlan::compute` sees the failed set. The two
        // repairs interleave onto S4 and S5.
        let mut reactor = reactor(None);
        let schedule = Schedule::new(11)
            .at(ms(100), FaultOp::Kill(switch(1)))
            .at(ms(130), FaultOp::Kill(switch(3)));
        golden(
            &run(&mut reactor, &schedule, slow),
            "
            100 kill 10.0.0.1
            120 S0 session 1; S2 session 2; S3 session 3; S1 p1 failover all
            130 kill 10.0.0.3
            150 S0 session 4; S2 session 5; S3 p1 failover all
            150 S1 p2 block g0/4
            150 copy #0 g0/4 S0,S2,S3 -> S4
            152 copied #0 g0
            170 S4 active true; S4 session 6; S1 p3 redirect S4 g0/4; S1 p2 removed g0/4
            170 S1 p2 block g1/4
            170 copy #0 g1/4 S0,S2,S3 -> S4
            180 S3 p2 block g0/4
            180 copy #1 g0/4 S0,S2 -> S5
            182 copied #1 g0
            200 copied #0 g1
            200 S4 active true; S4 session 7; S1 p3 redirect S4 g1/4; S1 p2 removed g1/4
            200 S1 p2 block g2/4
            200 copy #0 g2/4 S0,S2,S3 -> S4
            200 S5 active true; S5 session 8; S3 p3 redirect S5 g0/4; S3 p2 removed g0/4
            200 S3 p2 block g1/4
            200 copy #1 g1/4 S0,S2 -> S5
            202 copied #0 g2
            210 S4 active true; S4 session 9; S1 p3 redirect S4 g2/4; S1 p2 removed g2/4
            210 S1 p2 block g3/4
            210 copy #0 g3/4 S0,S2,S3 -> S4
            212 copied #0 g3
            230 copied #1 g1
            230 S5 active true; S5 session 10; S3 p3 redirect S5 g1/4; S3 p2 removed g1/4
            230 S3 p2 block g2/4
            230 copy #1 g2/4 S0,S2 -> S5
            230 S4 active true; S4 session 11; S1 p3 redirect S4 g3/4; S1 p2 removed g3/4
            232 copied #1 g2
            240 S5 active true; S5 session 12; S3 p3 redirect S5 g2/4; S3 p2 removed g2/4
            240 S3 p2 block g3/4
            240 copy #1 g3/4 S0,S2 -> S5
            242 copied #1 g3
            260 S5 active true; S5 session 13; S3 p3 redirect S5 g3/4; S3 p2 removed g3/4
            ",
        );
        let repaired = reactor.timelines().iter().filter(|(_, t)| t.repaired());
        assert_eq!(repaired.count(), 2);
    }

    #[test]
    fn a_repair_whose_replacement_dies_is_abandoned_and_planned_again() {
        // S4 dies at 190 ms with group 1 copied onto it no further: the copy
        // never completes, the activation due at 190 ms is held, and at
        // 210 ms Algorithm 2 for S4 bumps S1's heads again (before the rule),
        // withdraws the one redirect to S4 and abandons the repair. S1 is repaired again from
        // 240 ms, onto S5.
        let mut reactor = reactor(None);
        let schedule = Schedule::new(12)
            .at(ms(100), FaultOp::Kill(switch(1)))
            .at(ms(190), FaultOp::Kill(switch(4)));
        golden(
            &run(&mut reactor, &schedule, slow),
            "
            100 kill 10.0.0.1
            120 S0 session 1; S2 session 2; S3 session 3; S1 p1 failover all
            150 S1 p2 block g0/4
            150 copy #0 g0/4 S0,S2,S3 -> S4
            152 copied #0 g0
            170 S4 active true; S4 session 4; S1 p3 redirect S4 g0/4; S1 p2 removed g0/4
            170 S1 p2 block g1/4
            170 copy #0 g1/4 S0,S2,S3 -> S4
            190 kill 10.0.0.4
            210 S0 session 5; S2 session 6; S3 session 7; S4 p1 failover all; S1 p3 removed g0/4
            240 S1 p2 block g0/4
            240 copy #1 g0/4 S0,S2,S3 -> S5
            242 copied #1 g0
            260 S5 active true; S5 session 8; S1 p3 redirect S5 g0/4; S1 p2 removed g0/4
            260 S1 p2 block g1/4
            260 copy #1 g1/4 S0,S2,S3 -> S5
            290 copied #1 g1
            290 S5 active true; S5 session 9; S1 p3 redirect S5 g1/4; S1 p2 removed g1/4
            290 S1 p2 block g2/4
            290 copy #1 g2/4 S0,S2,S3 -> S5
            292 copied #1 g2
            300 S5 active true; S5 session 10; S1 p3 redirect S5 g2/4; S1 p2 removed g2/4
            300 S1 p2 block g3/4
            300 copy #1 g3/4 S0,S2,S3 -> S5
            302 copied #1 g3
            320 S5 active true; S5 session 11; S1 p3 redirect S5 g3/4; S1 p2 removed g3/4
            ",
        );
        let aborted = instants(&reactor)
            .into_iter()
            .filter(|i| i.1.starts_with("repair-"));
        assert_eq!(
            aborted.collect::<Vec<_>>(),
            [(210, "repair-aborted:10.0.0.1")]
        );
        // One timeline: the repair started with the first attempt and ended
        // with the second; the activations are both's.
        let [(_, timeline)] = reactor.timelines() else {
            panic!("S4 is no ring switch: {:?}", reactor.timelines());
        };
        assert_eq!(
            (timeline.repair_started_at, timeline.repair_finished_at),
            (ms(150), ms(320))
        );
        assert_eq!(timeline.groups_repaired, 1 + 4);
        assert_eq!(reactor.view().stands_for, [(switch(5), switch(1))]);
    }

    #[test]
    fn a_revived_switch_named_as_replacement_is_passed_over() {
        // Named S1 is dead for its own repair (S4 takes it). Revived at
        // 260 ms, it stays failed, because S1's failover rule and redirects
        // still steer its traffic to S4: S3's repair goes onto the spare S5,
        // and S3's failover bumps no S1.
        let mut reactor = reactor(Some(switch(1)));
        let schedule = Schedule::new(13)
            .at(ms(100), FaultOp::Kill(switch(1)))
            .at(ms(260), FaultOp::Revive(switch(1)))
            .at(ms(300), FaultOp::Kill(switch(3)));
        golden(
            &run(&mut reactor, &schedule, slow),
            "
            100 kill 10.0.0.1
            120 S0 session 1; S2 session 2; S3 session 3; S1 p1 failover all
            150 S1 p2 block g0/4
            150 copy #0 g0/4 S0,S2,S3 -> S4
            152 copied #0 g0
            170 S4 active true; S4 session 4; S1 p3 redirect S4 g0/4; S1 p2 removed g0/4
            170 S1 p2 block g1/4
            170 copy #0 g1/4 S0,S2,S3 -> S4
            200 copied #0 g1
            200 S4 active true; S4 session 5; S1 p3 redirect S4 g1/4; S1 p2 removed g1/4
            200 S1 p2 block g2/4
            200 copy #0 g2/4 S0,S2,S3 -> S4
            202 copied #0 g2
            210 S4 active true; S4 session 6; S1 p3 redirect S4 g2/4; S1 p2 removed g2/4
            210 S1 p2 block g3/4
            210 copy #0 g3/4 S0,S2,S3 -> S4
            212 copied #0 g3
            230 S4 active true; S4 session 7; S1 p3 redirect S4 g3/4; S1 p2 removed g3/4
            260 revive 10.0.0.1
            300 kill 10.0.0.3
            320 S0 session 8; S2 session 9; S3 p1 failover all
            350 S3 p2 block g0/4
            350 copy #1 g0/4 S0,S2 -> S5
            352 copied #1 g0
            370 S5 active true; S5 session 10; S3 p3 redirect S5 g0/4; S3 p2 removed g0/4
            370 S3 p2 block g1/4
            370 copy #1 g1/4 S0,S2 -> S5
            400 copied #1 g1
            400 S5 active true; S5 session 11; S3 p3 redirect S5 g1/4; S3 p2 removed g1/4
            400 S3 p2 block g2/4
            400 copy #1 g2/4 S0,S2 -> S5
            402 copied #1 g2
            410 S5 active true; S5 session 12; S3 p3 redirect S5 g2/4; S3 p2 removed g2/4
            410 S3 p2 block g3/4
            410 copy #1 g3/4 S0,S2 -> S5
            412 copied #1 g3
            430 S5 active true; S5 session 13; S3 p3 redirect S5 g3/4; S3 p2 removed g3/4
            ",
        );
        let repaired = reactor.timelines().iter().filter(|(_, t)| t.repaired());
        assert_eq!(repaired.count(), 2);
        let stands_for = [(switch(4), switch(1)), (switch(5), switch(3))];
        assert_eq!(reactor.view().stands_for, stands_for);
    }
}
