//! Pure failover/recovery *planning*: what rules to install where, which
//! switches need session bumps, and the per-group two-phase repair steps —
//! as data, down to the ordered list of [`ControlOp`]s that carries a plan
//! out, with no opinion about when or how the list is delivered.
//!
//! There is one control-plane vocabulary ([`ControlOp`], interpreted by
//! `NetChainSwitch::apply` and nowhere else), one agenda that decides when
//! each list goes out ([`crate::reactor`]), and three transports that only
//! deliver: the simulated [`crate::controller::Controller`] (control-plane
//! RPCs over the discrete-event network), the live fabric controller
//! (`netchain-livectl`: the per-shard control rings, every op acknowledged)
//! and the replay fabric (direct calls). Sharing the list is what makes the
//! live/simulated differential tests meaningful: the executions install
//! byte-identical rules in the same order with identical session numbers, so
//! any divergence in replies or switch state is a real semantic one.
//!
//! Determinism matters here. Session numbers are assigned in list order, so
//! the order of `new_heads` must not depend on hash-map iteration; the
//! planner sorts every set it derives.

use crate::hashring::HashRing;
use netchain_switch::{ControlOp, FailoverAction, FailoverRule, RuleScope};
use netchain_wire::Ipv4Addr;
use std::collections::HashSet;

/// Who an op of a plan's list is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Every neighbour of the failed switch. In the fabric that is every live
    /// switch of a shard: chains hop directly from switch to switch, so each
    /// of them is a potential neighbour.
    Neighbours,
    /// One switch.
    Switch(Ipv4Addr),
}

/// An ordered list of control ops and their targets. A transport delivers it
/// front to back; an op for a switch it cannot reach is skipped, never
/// re-numbered, because the session numbers are already in the list.
pub type OpList = Vec<(Target, ControlOp)>;

/// Takes the next session number off the controller's counter.
fn next(session: &mut u64) -> u64 {
    *session += 1;
    *session - 1
}

/// `rule` for traffic to `failed_ip`, installed at every neighbour.
fn install(failed_ip: Ipv4Addr, rule: FailoverRule) -> (Target, ControlOp) {
    (
        Target::Neighbours,
        ControlOp::InstallRule { failed_ip, rule },
    )
}

/// Algorithm 2 (fast failover), as data: the rule every neighbour of the
/// failed switch installs, plus the switches that just became acting chain
/// heads and therefore need a session bump (§5.2, NOPaxos-style ordering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverPlan {
    /// The failed switch the plan handles.
    pub failed_ip: Ipv4Addr,
    /// The rule to install at every neighbour of the failed switch (in the
    /// fabric, at every live switch — each shard sees all traffic for its
    /// keys, so "all live switches" is exactly "every neighbour programmed").
    pub rule: FailoverRule,
    /// Switches that became the acting head of at least one affected chain,
    /// in deterministic (sorted) order: [`Self::ops`] assigns `new_heads[i]`
    /// session `base + i`.
    pub new_heads: Vec<Ipv4Addr>,
}

impl FailoverPlan {
    /// Plans fast failover for `failed_ip` over `ring`, `failed` holding the
    /// switches already down. A chain's acting head is its first live switch,
    /// after a dead prefix; where `failed_ip` was in that prefix, the acting
    /// head is new. No dead switch is bumped.
    pub fn compute(ring: &HashRing, failed_ip: Ipv4Addr, failed: &HashSet<Ipv4Addr>) -> Self {
        let live = |ip: &Ipv4Addr| *ip != failed_ip && !failed.contains(ip);
        let mut new_heads: Vec<Ipv4Addr> = Vec::new();
        for &group in &ring.groups_involving(failed_ip) {
            let chain = ring.chain_for_group(group).switches;
            let acting = chain.iter().position(live).unwrap_or(chain.len());
            if chain[..acting].contains(&failed_ip) {
                new_heads.extend(chain.get(acting));
            }
        }
        new_heads.sort();
        new_heads.dedup();
        FailoverPlan {
            failed_ip,
            rule: FailoverRule {
                priority: 1,
                scope: RuleScope::All,
                action: FailoverAction::ChainFailover,
            },
            new_heads,
        }
    }

    /// Algorithm 2 as an op list: one session bump per new head, numbered
    /// from `*next_session` (advanced past the last one used), then the rule
    /// to every neighbour. The bumps go first because a switch that is not
    /// yet a head stamps nothing: once the rule reroutes writes to a new
    /// head, it already stamps its new session.
    pub fn ops(&self, next_session: &mut u64) -> OpList {
        let mut ops = OpList::new();
        for &head in &self.new_heads {
            let bump = ControlOp::SetSession(next(next_session));
            ops.push((Target::Switch(head), bump));
        }
        ops.push(install(self.failed_ip, self.rule));
        ops
    }
}

/// One virtual group's two-phase repair (Algorithm 3): block its traffic to
/// the failed switch, synchronise its state onto the replacement, then
/// activate the replacement with a redirect rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupRepair {
    /// The virtual group being repaired.
    pub group: u32,
    /// Phase 1: the block rule (priority 2, group-scoped).
    pub block: FailoverRule,
    /// The switches whose state is gathered for this group: every live ring
    /// switch other than the failed one and the replacement, in sorted
    /// (deterministic) order. The replacement imports the *union*; the
    /// per-key `(session, seq)` registers arbitrate, so the chain-suffix
    /// copy — the committed one — always wins. A group's keys can span many
    /// chains (especially with a coarse [`RecoveryPlan::modulus`] override),
    /// so a single per-chain donor would silently miss keys whose chain does
    /// not pass through it.
    pub donors: Vec<Ipv4Addr>,
    /// Phase 2: the redirect rule (priority 3, group-scoped) pointing at the
    /// replacement.
    pub redirect: FailoverRule,
}

/// Algorithm 3 (failure recovery), as data: the replacement switch and the
/// ordered per-group repair steps. Session numbers continue the failover
/// plan's sequence: the replacement is bumped once per activated group, in
/// step order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// The failed switch being replaced.
    pub failed_ip: Ipv4Addr,
    /// The switch absorbing the failed switch's virtual groups.
    pub replacement_ip: Ipv4Addr,
    /// The group modulus the rules are scoped by (the ring's virtual-node
    /// count, or the experiment's override).
    pub modulus: u32,
    /// Per-group repair steps, in execution order.
    pub steps: Vec<GroupRepair>,
}

impl RecoveryPlan {
    /// Plans recovery of `failed_ip` onto `replacement_ip`. `failed` is the
    /// full set of switches currently believed down (they cannot donate
    /// state).
    ///
    /// `recovery_groups` overrides the virtual-group granularity: `None`
    /// repairs the groups actually involving the failed switch at the ring's
    /// own granularity (the normal case); `Some(g)` repairs the whole key
    /// space in `g` equal hash groups, which is how the Figure 10 experiment
    /// compares "1 virtual group" against "100 virtual groups".
    pub fn compute(
        ring: &HashRing,
        failed_ip: Ipv4Addr,
        replacement_ip: Ipv4Addr,
        recovery_groups: Option<u32>,
        failed: &HashSet<Ipv4Addr>,
    ) -> Self {
        let modulus = recovery_groups
            .unwrap_or(ring.num_virtual_nodes() as u32)
            .max(1);
        let groups: Vec<u32> = match recovery_groups {
            Some(g) => (0..g.max(1)).collect(),
            None => ring.groups_involving(failed_ip),
        };
        let mut donors: Vec<Ipv4Addr> = ring
            .switches()
            .iter()
            .copied()
            .filter(|&ip| ip != failed_ip && ip != replacement_ip && !failed.contains(&ip))
            .collect();
        donors.sort();
        let steps = groups
            .into_iter()
            .map(|group| GroupRepair {
                group,
                block: FailoverRule {
                    priority: 2,
                    scope: RuleScope::Group { group, modulus },
                    action: FailoverAction::Block,
                },
                donors: donors.clone(),
                redirect: FailoverRule {
                    priority: 3,
                    scope: RuleScope::Group { group, modulus },
                    action: FailoverAction::Redirect(replacement_ip),
                },
            })
            .collect();
        RecoveryPlan {
            failed_ip,
            replacement_ip,
            modulus,
            steps,
        }
    }

    /// Phase 1 of step `step`: block the group's traffic to the failed
    /// switch at every neighbour, before any state moves.
    pub fn block_ops(&self, step: usize) -> OpList {
        vec![install(self.failed_ip, self.steps[step].block)]
    }

    /// Phase 2 of step `step`, once the group's state is on the replacement:
    /// activate it, stamp it with the next session, and switch the group over
    /// atomically (the redirect overrides the block it then replaces).
    pub fn activate_ops(&self, step: usize, next_session: &mut u64) -> OpList {
        let step = &self.steps[step];
        let failed_ip = self.failed_ip;
        let replacement = Target::Switch(self.replacement_ip);
        vec![
            (replacement, ControlOp::SetActive(true)),
            (replacement, ControlOp::SetSession(next(next_session))),
            install(failed_ip, step.redirect),
            (
                Target::Neighbours,
                ControlOp::RemoveRule {
                    failed_ip,
                    priority: step.block.priority,
                    scope: step.block.scope,
                },
            ),
        ]
    }

    /// Withdraws the redirects of the first `activated` steps, once the
    /// replacement they lead to is dead: the failed switch's traffic falls
    /// back to fast failover, and a later plan's blocks hold again.
    pub fn withdraw_ops(&self, activated: usize) -> OpList {
        let withdraw = |step: &GroupRepair| ControlOp::RemoveRule {
            failed_ip: self.failed_ip,
            priority: step.redirect.priority,
            scope: step.redirect.scope,
        };
        (self.steps[..activated].iter())
            .map(|step| (Target::Neighbours, withdraw(step)))
            .collect()
    }
}

/// Picks the replacement switch for `failed_ip`: the explicit choice while it
/// is alive, else the first live spare of `pool` (the pick leaves the pool),
/// else a live ring switch not already in the affected chains (to spread
/// load), else any live ring switch. A switch in `failed` is never picked.
pub fn pick_replacement(
    ring: &HashRing,
    failed_ip: Ipv4Addr,
    failed: &HashSet<Ipv4Addr>,
    explicit: Option<Ipv4Addr>,
    pool: &mut Vec<Ipv4Addr>,
) -> Option<Ipv4Addr> {
    let alive = |ip: &Ipv4Addr| *ip != failed_ip && !failed.contains(ip);
    let free = explicit
        .filter(alive)
        .or_else(|| pool.iter().copied().find(alive));
    if let Some(ip) = free {
        pool.retain(|p| *p != ip);
        return free;
    }
    let affected: HashSet<Ipv4Addr> = ring
        .groups_involving(failed_ip)
        .iter()
        .flat_map(|&g| ring.chain_for_group(g).switches)
        .collect();
    let mut live = ring.switches().iter().copied().filter(alive);
    let first = live.next();
    first
        .into_iter()
        .chain(live)
        .find(|ip| !affected.contains(ip))
        .or(first)
}

/// What a controller knows beyond the static ring, and the decisions that
/// follow from it. The one [`crate::Reactor`] every controller runs keeps
/// it, so a second kill or a dead replacement is handled alike by the
/// simulated controller, the live one and the replay fabric.
#[derive(Debug, Clone, Default)]
pub struct View {
    /// Switches that have failed: they neither donate state nor replace
    /// anyone, ever. A revived switch stays here, because rules keyed on its
    /// address (its failover rule, redirects away from it) still steer its
    /// traffic elsewhere.
    pub failed: HashSet<Ipv4Addr>,
    /// Spares free to take over a failed switch's groups, in order of
    /// preference.
    pub pool: Vec<Ipv4Addr>,
    /// `replacement → the ring switch whose groups it took over`.
    pub stands_for: Vec<(Ipv4Addr, Ipv4Addr)>,
    /// The next session number (head bumps and group activations share it).
    pub next_session: u64,
}

impl View {
    /// A healthy deployment with `spares` held out of the ring.
    pub fn new(spares: Vec<Ipv4Addr>) -> Self {
        View {
            pool: spares,
            next_session: 1,
            ..View::default()
        }
    }

    /// `ip` died. Returns Algorithm 2's op list, keyed on the dead device,
    /// and the ring switch whose chains now need Algorithm 3: `ip` itself,
    /// or, if `ip` was a replacement, the switch it stood in for (whose new
    /// heads need their sessions bumped again). `None` if `ip` held no chain
    /// role (a spare never used) or had already failed.
    pub fn kill(&mut self, ring: &HashRing, ip: Ipv4Addr) -> Option<(OpList, Ipv4Addr)> {
        if !self.failed.insert(ip) {
            return None;
        }
        self.pool.retain(|p| *p != ip);
        let stood_for = self.stands_for.iter().position(|&(r, _)| r == ip);
        let stood_for = stood_for.map(|i| self.stands_for.swap_remove(i).1);
        let role = if ring.switches().contains(&ip) {
            ip
        } else {
            stood_for?
        };
        let plan = FailoverPlan {
            failed_ip: ip,
            ..FailoverPlan::compute(ring, role, &self.failed)
        };
        Some((plan.ops(&mut self.next_session), role))
    }

    /// Plans Algorithm 3 for the chains of ring switch `victim`, onto the
    /// replacement [`pick_replacement`] chooses (which now stands for it).
    pub fn plan_recovery(
        &mut self,
        ring: &HashRing,
        victim: Ipv4Addr,
        explicit: Option<Ipv4Addr>,
        recovery_groups: Option<u32>,
    ) -> Option<RecoveryPlan> {
        let replacement = pick_replacement(ring, victim, &self.failed, explicit, &mut self.pool)?;
        self.stands_for.push((replacement, victim));
        let failed = &self.failed;
        Some(RecoveryPlan::compute(
            ring,
            victim,
            replacement,
            recovery_groups,
            failed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> HashRing {
        HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 25, 3, 11)
    }

    #[test]
    fn failover_plan_is_deterministic_and_sorted() {
        let ring = ring();
        let failed = Ipv4Addr::for_switch(1);
        let a = FailoverPlan::compute(&ring, failed, &HashSet::new());
        let b = FailoverPlan::compute(&ring, failed, &HashSet::from([failed]));
        assert_eq!(a, b);
        let mut sorted = a.new_heads.clone();
        sorted.sort();
        assert_eq!(a.new_heads, sorted);
        assert!(!a.new_heads.contains(&failed));
        assert_eq!(a.rule.priority, 1);
        assert_eq!(a.rule.action, FailoverAction::ChainFailover);
    }

    #[test]
    fn the_acting_head_behind_a_dead_prefix_is_bumped_and_no_dead_switch_is() {
        let ring = ring();
        let [x, y, z] = ring.chain_for_group(0).switches[..] else {
            panic!("chains are three long");
        };
        let mut view = View::new(vec![]);
        view.kill(&ring, x).expect("a ring switch");
        // Chain [x, y, z] runs from z now that x and y are dead; every chain
        // y acted as head for gets its first live switch bumped, and no other.
        let (ops, _) = view.kill(&ring, y).expect("a ring switch");
        let bumped: Vec<Ipv4Addr> = (ops.iter())
            .filter_map(|op| match op {
                (Target::Switch(ip), ControlOp::SetSession(_)) => Some(*ip),
                _ => None,
            })
            .collect();
        assert!(bumped.contains(&z), "{bumped:?}");
        assert!(
            !bumped.iter().any(|ip| view.failed.contains(ip)),
            "{bumped:?}"
        );
    }

    #[test]
    fn recovery_plan_covers_involved_groups_with_donors() {
        let ring = ring();
        let failed = Ipv4Addr::for_switch(2);
        let replacement = Ipv4Addr::for_switch(0);
        let plan = RecoveryPlan::compute(&ring, failed, replacement, None, &HashSet::new());
        assert_eq!(plan.modulus, ring.num_virtual_nodes() as u32);
        assert_eq!(plan.steps.len(), ring.groups_involving(failed).len());
        for step in &plan.steps {
            // Every live switch except the failed one and the replacement
            // donates; the union import lets the version registers arbitrate.
            assert_eq!(
                step.donors,
                vec![Ipv4Addr::for_switch(1), Ipv4Addr::for_switch(3)]
            );
            assert_eq!(
                step.redirect.action,
                FailoverAction::Redirect(replacement),
                "redirect must target the replacement"
            );
            assert_eq!(
                step.block.scope,
                RuleScope::Group {
                    group: step.group,
                    modulus: plan.modulus
                }
            );
        }
    }

    #[test]
    fn recovery_groups_override_partitions_whole_keyspace() {
        let ring = ring();
        let failed = Ipv4Addr::for_switch(1);
        let plan = RecoveryPlan::compute(
            &ring,
            failed,
            Ipv4Addr::for_switch(3),
            Some(10),
            &HashSet::from([failed]),
        );
        assert_eq!(plan.modulus, 10);
        let groups: Vec<u32> = plan.steps.iter().map(|s| s.group).collect();
        assert_eq!(groups, (0..10).collect::<Vec<u32>>());
        for step in &plan.steps {
            assert!(!step.donors.contains(&failed));
            assert!(!step.donors.contains(&Ipv4Addr::for_switch(3)));
        }
    }

    #[test]
    fn op_lists_keep_the_golden_order_and_number_sessions_inside() {
        let ring = ring();
        let failed = Ipv4Addr::for_switch(1);
        let plan = FailoverPlan::compute(&ring, failed, &HashSet::from([failed]));
        assert!(!plan.new_heads.is_empty(), "the ring makes S1 a head");
        let install = |rule| ControlOp::InstallRule {
            failed_ip: failed,
            rule,
        };

        // Algorithm 2: `new_heads[i]` gets session `base + i`, then the rule
        // goes to the neighbours. The bumps lead, so that no write rerouted
        // to a new head is stamped with its old session.
        let mut session = 7;
        let mut golden: OpList = (plan.new_heads.iter().enumerate())
            .map(|(i, &head)| (Target::Switch(head), ControlOp::SetSession(7 + i as u64)))
            .collect();
        golden.push((Target::Neighbours, install(plan.rule)));
        assert_eq!(plan.ops(&mut session), golden);
        assert_eq!(session, 7 + plan.new_heads.len() as u64);

        // Algorithm 3, step by step: block; then activate, session, redirect,
        // unblock, with the sessions continuing the same counter.
        let spare = Ipv4Addr::for_switch(9);
        let rplan = RecoveryPlan::compute(&ring, failed, spare, Some(3), &HashSet::from([failed]));
        for (i, step) in rplan.steps.iter().enumerate() {
            assert_eq!(
                rplan.block_ops(i),
                vec![(Target::Neighbours, install(step.block))]
            );
            let before = session;
            assert_eq!(
                rplan.activate_ops(i, &mut session),
                vec![
                    (Target::Switch(spare), ControlOp::SetActive(true)),
                    (Target::Switch(spare), ControlOp::SetSession(before)),
                    (Target::Neighbours, install(step.redirect)),
                    (
                        Target::Neighbours,
                        ControlOp::RemoveRule {
                            failed_ip: failed,
                            priority: step.block.priority,
                            scope: step.block.scope,
                        }
                    ),
                ]
            );
            assert_eq!(session, before + 1);
        }
    }

    #[test]
    fn replacement_picking_prefers_explicit_then_unaffected() {
        let ring = ring();
        let failed = Ipv4Addr::for_switch(1);
        let spare = Ipv4Addr::for_switch(9);
        let explicit = pick_replacement(&ring, failed, &HashSet::new(), Some(spare), &mut vec![]);
        assert_eq!(explicit, Some(spare));
        let down = HashSet::from([failed]);
        let picked = pick_replacement(&ring, failed, &down, None, &mut vec![])
            .expect("live switches remain");
        assert_ne!(picked, failed);
        // A dead explicit choice is passed over for the pool, in order, and
        // the pick leaves the pool.
        let mut pool = vec![Ipv4Addr::for_switch(7), Ipv4Addr::for_switch(8)];
        let down = HashSet::from([failed, spare, Ipv4Addr::for_switch(7)]);
        let picked = pick_replacement(&ring, failed, &down, Some(spare), &mut pool);
        assert_eq!(picked, Some(Ipv4Addr::for_switch(8)));
        assert_eq!(pool, [Ipv4Addr::for_switch(7)]);
    }

    #[test]
    fn the_view_follows_roles_through_a_dead_replacement_and_a_revival() {
        let ring = ring();
        let [a, b] = [1, 2].map(Ipv4Addr::for_switch);
        let [s1, s2] = [8, 9].map(Ipv4Addr::for_switch);
        let mut view = View::new(vec![s1, s2]);
        // An idle spare holds no chain role.
        let mut idle = view.clone();
        assert!(idle.kill(&ring, s2).is_none());
        assert_eq!(idle.pool, [s1]);

        let (ops, role) = view.kill(&ring, a).expect("a ring switch has chains");
        assert_eq!(role, a);
        assert_eq!(
            ops,
            FailoverPlan::compute(&ring, a, &view.failed).ops(&mut 1)
        );
        let plan = view
            .plan_recovery(&ring, a, None, Some(4))
            .expect("a spare is free");
        assert_eq!((plan.failed_ip, plan.replacement_ip), (a, s1));

        // The replacement dies: rules keyed on the dead device, the heads of
        // the switch it stood for bumped again, and that switch repaired anew.
        let before = view.next_session;
        let (ops, role) = view.kill(&ring, s1).expect("it stood for a");
        assert_eq!(role, a);
        let again = FailoverPlan {
            failed_ip: s1,
            ..FailoverPlan::compute(&ring, a, &view.failed)
        };
        assert_eq!(ops, again.ops(&mut { before }));
        let plan = view
            .plan_recovery(&ring, a, None, Some(4))
            .expect("a second spare");
        assert_eq!(plan.replacement_ip, s2);
        assert!(plan.steps.iter().all(|s| !s.donors.contains(&s1)));

        // `a` is revived. Rules keyed on its address still steer its traffic
        // to s2, so it stays failed: named as the replacement, and with the
        // spares used up, it is passed over for a live ring switch. Killed
        // again, it has no role, and nothing is sent.
        let (_, role) = view.kill(&ring, b).expect("a ring switch");
        let plan = view
            .plan_recovery(&ring, role, Some(a), None)
            .expect("a live ring switch");
        assert_eq!(plan.failed_ip, b);
        assert!(!view.failed.contains(&plan.replacement_ip));
        assert!(ring.switches().contains(&plan.replacement_ip));
        assert!(view.kill(&ring, a).is_none());
        assert!(view.kill(&ring, b).is_none());
    }
}
