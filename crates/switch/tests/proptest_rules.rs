//! The failover-rule index against the linear scan it replaced.
//!
//! `ForwardingTable` finds the rule for a `(destination, key hash)` through
//! a per-destination index — the first rule of the `All` scope and of every
//! group under each modulus in use — that install and remove keep up to
//! date in place. The model below is the table as it was before: per
//! destination, the rules in descending priority (ties in install order),
//! scanned front to back for the first whose scope matches. Random install
//! and remove sequences over mixed priorities, scopes and moduli must leave
//! the two giving the same answer for every destination and every residue
//! combination, and the same counts.

use netchain_switch::{FailoverAction, FailoverRule, ForwardingTable, RuleScope};
use netchain_wire::Ipv4Addr;
use proptest::prelude::*;

const DESTINATIONS: u32 = 3;
/// Moduli drawn for group scopes; 0 is a scope that matches nothing.
const MODULI: [u32; 5] = [0, 2, 3, 4, 6];
/// The least common multiple of the non-zero moduli: the hashes `0..HASHES`
/// meet every combination of residues.
const HASHES: u64 = 12;

/// Today's table before the index: a list per destination, scanned.
#[derive(Default)]
struct Model {
    rules: Vec<(Ipv4Addr, Vec<FailoverRule>)>,
}

impl Model {
    fn install(&mut self, dst: Ipv4Addr, rule: FailoverRule) {
        let at = match self.rules.iter().position(|(ip, _)| *ip == dst) {
            Some(at) => at,
            None => {
                self.rules.push((dst, Vec::new()));
                self.rules.len() - 1
            }
        };
        let list = &mut self.rules[at].1;
        match (list.iter_mut()).find(|r| r.priority == rule.priority && r.scope == rule.scope) {
            Some(existing) => *existing = rule,
            None => list.push(rule),
        }
        list.sort_by_key(|r| std::cmp::Reverse(r.priority));
    }

    fn remove(&mut self, dst: Ipv4Addr, priority: u8, scope: RuleScope) -> usize {
        let Some(at) = self.rules.iter().position(|(ip, _)| *ip == dst) else {
            return 0;
        };
        let list = &mut self.rules[at].1;
        let before = list.len();
        list.retain(|r| !(r.priority == priority && r.scope == scope));
        let removed = before - list.len();
        if list.is_empty() {
            self.rules.remove(at);
        }
        removed
    }

    fn list(&self, dst: Ipv4Addr) -> &[FailoverRule] {
        let found = self.rules.iter().find(|(ip, _)| *ip == dst);
        found.map_or(&[], |(_, list)| list)
    }

    fn action(&self, dst: Ipv4Addr, hash: u64) -> Option<FailoverAction> {
        let matches = |scope| match scope {
            RuleScope::All => true,
            RuleScope::Group { group, modulus } => {
                modulus > 0 && (hash % u64::from(modulus)) as u32 == group
            }
        };
        let first = self.list(dst).iter().find(|r| matches(r.scope));
        first.map(|r| r.action)
    }

    /// The moduli of the group scopes under `dst` that can match a key.
    fn moduli(&self, dst: Ipv4Addr) -> Vec<u32> {
        let mut moduli: Vec<u32> = (self.list(dst).iter())
            .filter_map(|r| match r.scope {
                RuleScope::Group { group, modulus } if group < modulus => Some(modulus),
                _ => None,
            })
            .collect();
        moduli.sort_unstable();
        moduli.dedup();
        moduli
    }
}

#[derive(Debug, Clone)]
enum RuleOp {
    Install(u32, FailoverRule),
    Remove(u32, u8, RuleScope),
}

fn arb_scope() -> impl Strategy<Value = RuleScope> {
    prop_oneof![
        Just(RuleScope::All),
        (0..6u32, (0..MODULI.len()).prop_map(|m| MODULI[m]))
            .prop_map(|(group, modulus)| RuleScope::Group { group, modulus }),
    ]
}

fn arb_action() -> impl Strategy<Value = FailoverAction> {
    prop_oneof![
        Just(FailoverAction::ChainFailover),
        Just(FailoverAction::Block),
        (7..9u32).prop_map(|s| FailoverAction::Redirect(Ipv4Addr::for_switch(s))),
    ]
}

fn arb_install() -> impl Strategy<Value = RuleOp> {
    // Three priorities, so same-priority ties across scopes are common.
    (0..DESTINATIONS, 1..4u8, arb_scope(), arb_action()).prop_map(
        |(dst, priority, scope, action)| {
            let rule = FailoverRule {
                priority,
                scope,
                action,
            };
            RuleOp::Install(dst, rule)
        },
    )
}

fn arb_op() -> impl Strategy<Value = RuleOp> {
    prop_oneof![
        arb_install(),
        arb_install(),
        (0..DESTINATIONS, 1..4u8, arb_scope())
            .prop_map(|(dst, priority, scope)| RuleOp::Remove(dst, priority, scope)),
    ]
}

fn dst(i: u32) -> Ipv4Addr {
    Ipv4Addr::for_switch(i)
}

/// Every answer `table` gives agrees with `model`'s.
fn assert_agree(table: &ForwardingTable, model: &Model) {
    assert_eq!(table.len(), model.rules.iter().map(|(_, l)| l.len()).sum());
    assert_eq!(table.is_empty(), model.rules.is_empty());
    for ip in (0..DESTINATIONS).map(dst) {
        assert_eq!(table.targets(ip), !model.list(ip).is_empty());
        let answers: Vec<_> = (0..HASHES).map(|h| model.action(ip, h)).collect();
        for (hash, &expected) in (0..HASHES).zip(&answers) {
            assert_eq!(table.action_for_hash(ip, hash), expected, "{ip:?}, {hash}");
        }
        // The one redirect every key meets, when there is one; rules under
        // a modulus that does not divide the largest answer nothing.
        let everywhere = match answers[0] {
            Some(FailoverAction::Redirect(to)) => (answers.iter())
                .all(|&a| a == Some(FailoverAction::Redirect(to)))
                .then_some(to),
            _ => None,
        };
        let moduli = model.moduli(ip);
        let answerable = moduli
            .iter()
            .all(|&m| moduli.last().unwrap().is_multiple_of(m));
        let expected = everywhere.filter(|_| answerable);
        assert_eq!(table.redirect_target(ip), expected, "{ip:?}");
    }
    // The index is a function of the rules: the same lists installed afresh,
    // in lookup order, compare equal.
    let mut fresh = ForwardingTable::new();
    for (ip, list) in &model.rules {
        for rule in list {
            fresh.install(*ip, *rule);
        }
    }
    assert_eq!(&fresh, table);
}

/// Applies `op` to both, checking that a removal removes as much.
fn apply(table: &mut ForwardingTable, model: &mut Model, op: RuleOp) {
    match op {
        RuleOp::Install(d, rule) => {
            table.install(dst(d), rule);
            model.install(dst(d), rule);
        }
        RuleOp::Remove(d, priority, scope) => assert_eq!(
            table.remove(dst(d), priority, scope),
            model.remove(dst(d), priority, scope)
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_index_answers_as_the_scan_did(ops in proptest::collection::vec(arb_op(), 1..48)) {
        let (mut table, mut model) = (ForwardingTable::new(), Model::default());
        for op in ops {
            apply(&mut table, &mut model, op);
            assert_agree(&table, &model);
        }
    }
}

#[test]
fn a_whole_repair_redirects_every_key_once_the_last_group_moves() {
    // Algorithm 3's rules for one victim over 100 groups: fast failover for
    // everything, then group by group a block and, once synchronised, a
    // redirect over it.
    const GROUPS: u32 = 100;
    let (victim, spare) = (dst(1), dst(9));
    let (mut table, mut model) = (ForwardingTable::new(), Model::default());
    let rule = |priority, scope, action| {
        RuleOp::Install(
            1,
            FailoverRule {
                priority,
                scope,
                action,
            },
        )
    };
    apply(
        &mut table,
        &mut model,
        rule(1, RuleScope::All, FailoverAction::ChainFailover),
    );
    let mut redirected = Vec::new();
    for group in 0..GROUPS {
        let scope = RuleScope::Group {
            group,
            modulus: GROUPS,
        };
        apply(
            &mut table,
            &mut model,
            rule(2, scope, FailoverAction::Block),
        );
        apply(
            &mut table,
            &mut model,
            rule(3, scope, FailoverAction::Redirect(spare)),
        );
        apply(&mut table, &mut model, RuleOp::Remove(1, 2, scope));
        redirected.push(table.redirect_target(victim));
        for hash in 0..u64::from(GROUPS) {
            assert_eq!(
                table.action_for_hash(victim, hash),
                model.action(victim, hash)
            );
        }
    }
    // Only the last group completes the set.
    assert!(redirected[..GROUPS as usize - 1]
        .iter()
        .all(Option::is_none));
    assert_eq!(redirected.last(), Some(&Some(spare)));
    // A block over any one group takes the address back.
    apply(
        &mut table,
        &mut model,
        rule(
            4,
            RuleScope::Group {
                group: 17,
                modulus: GROUPS,
            },
            FailoverAction::Block,
        ),
    );
    assert_eq!(table.redirect_target(victim), None);
}
