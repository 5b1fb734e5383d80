//! Failover and redirection rules installed by the controller in the
//! neighbours of a failed switch (Algorithms 2 and 3).
//!
//! These rules match on the packet's *destination IP* — they apply to traffic
//! merely transiting a neighbour switch on its way to the failed device, which
//! is exactly why updating only the neighbours is sufficient (§5.1).
//!
//! Rules carry a priority and an optional *virtual-group scope*. The scope is
//! how the model expresses "recover one virtual group at a time" (§5.2): in a
//! real deployment each virtual group is a distinct chain whose traffic is
//! distinguishable by its chain IPs, so the controller's per-group rules
//! naturally affect only that group's queries; the model keys the same
//! distinction off the key's group id, which every switch can compute from
//! the key hash it already has.

use netchain_wire::{Ipv4Addr, Key, FNV64_OFFSET, FNV64_PRIME, KEY_LEN};

/// Stage 2 of the staged batch pipeline: `Key::stable_hash` (FNV-1a 64) over
/// a whole batch of keys in one pass. The loop is lane-major — the outer
/// loop walks the 16 byte positions, the inner loop sweeps all lanes — so
/// the compiler can vectorise the independent u64 hash states instead of
/// chasing one key's bytes serially. Produces bit-identical results to
/// calling `stable_hash` per key (pinned by a unit test below).
pub fn stable_hash_batch(keys: &[[u8; KEY_LEN]], out: &mut [u64]) {
    assert!(out.len() >= keys.len(), "output must cover every lane");
    let out = &mut out[..keys.len()];
    for h in out.iter_mut() {
        *h = FNV64_OFFSET;
    }
    for pos in 0..KEY_LEN {
        for (h, key) in out.iter_mut().zip(keys) {
            *h = (*h ^ u64::from(key[pos])).wrapping_mul(FNV64_PRIME);
        }
    }
}

/// Which queries a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleScope {
    /// Every query destined to the failed switch.
    All,
    /// Only queries whose key falls in virtual group `group` out of
    /// `modulus` groups.
    Group {
        /// The virtual-group id the rule targets.
        group: u32,
        /// Total number of virtual groups.
        modulus: u32,
    },
}

/// What a neighbour switch does with a matching packet destined to a failed
/// switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverAction {
    /// Fast failover (Algorithm 2): skip the failed hop — pop the next chain
    /// IP into the destination, or reply to the client if the failed hop was
    /// the last one.
    ChainFailover,
    /// Failure recovery phase 1 (Algorithm 3, "stop and synchronisation"):
    /// drop queries destined to the failed switch so the replacement can
    /// catch up consistently.
    Block,
    /// Failure recovery phase 2 ("activation"): forward queries to the
    /// replacement switch instead.
    Redirect(Ipv4Addr),
}

/// One installed rule: match on destination IP (the map key in
/// [`ForwardingTable`]), refine by scope, act with `action`. Higher priority
/// wins; the controller uses priority 1 for fast failover, 2 for recovery
/// blocks and 3 for recovery redirects, mirroring "they override the rules of
/// fast failover by using higher rule priorities" (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverRule {
    /// Rule priority; larger values win.
    pub priority: u8,
    /// Which keys the rule applies to.
    pub scope: RuleScope,
    /// What to do with matching packets.
    pub action: FailoverAction,
}

const NO_RULE: u32 = u32::MAX;

/// The per-switch table of failover rules, keyed by the failed switch's IP.
///
/// Every packet a switch forwards onwards is matched against this table, so
/// the destinations are a short list compared by value (a handful of failed
/// switches at most), not a hash map; within one, an index finds the rule
/// that applies without walking the rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForwardingTable {
    destinations: Vec<(Ipv4Addr, Rules)>,
}

/// One failed IP's rules and their index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Rules {
    /// In lookup order: descending priority, ties in install order.
    list: Vec<FailoverRule>,
    /// Per modulus in use, ascending: each group's first rule in `list`, or
    /// `NO_RULE` (`All` is group 0 of modulus 1; a scope matching nothing is
    /// not indexed). A function of `list`, so tables compare by rules.
    moduli: Vec<(u32, Vec<u32>)>,
}

impl Rules {
    /// `scope`'s index entry, if it can match a key (adding its modulus).
    fn first_mut(&mut self, scope: RuleScope) -> Option<&mut u32> {
        let (group, modulus) = match scope {
            RuleScope::All => (0, 1),
            RuleScope::Group { group, modulus } if group < modulus => (group, modulus),
            RuleScope::Group { .. } => return None,
        };
        let at = self.moduli.partition_point(|m| m.0 < modulus);
        if self.moduli.get(at).is_none_or(|m| m.0 != modulus) {
            (self.moduli).insert(at, (modulus, vec![NO_RULE; modulus as usize]));
        }
        Some(&mut self.moduli[at].1[group as usize])
    }

    /// Adds `delta` (wrapping) to every indexed position from `from` on: the
    /// fix-up in place after `list` gains or loses a rule there.
    fn shift(&mut self, from: usize, delta: u32) {
        for (_, firsts) in &mut self.moduli {
            for first in firsts.iter_mut() {
                if *first >= from as u32 && *first != NO_RULE {
                    *first = first.wrapping_add(delta);
                }
            }
        }
    }

    /// Where the rule of `priority` and `scope` sits, among its priority's.
    fn find(&self, priority: u8, scope: RuleScope) -> Option<usize> {
        let from = self.list.partition_point(|r| r.priority > priority);
        let to = self.list.partition_point(|r| r.priority >= priority);
        Some(from + self.list[from..to].iter().position(|r| r.scope == scope)?)
    }

    /// The rule for a key of stable hash `hash`: the first of its scopes'.
    fn first_for(&self, hash: u64) -> Option<&FailoverRule> {
        let first = |(m, firsts): &(u32, Vec<u32>)| firsts[(hash % u64::from(*m)) as usize];
        self.list.get(self.moduli.iter().map(first).min()? as usize)
    }
}

impl ForwardingTable {
    /// Creates an empty rule table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a rule for packets destined to `failed_ip`. A rule with the
    /// same priority *and* scope replaces the previous one (the controller
    /// re-programs a rule slot); otherwise rules coexist and priority decides.
    pub fn install(&mut self, failed_ip: Ipv4Addr, rule: FailoverRule) {
        let at = self.position(failed_ip).unwrap_or_else(|| {
            self.destinations.push((failed_ip, Rules::default()));
            self.destinations.len() - 1
        });
        let rules = &mut self.destinations[at].1;
        if let Some(at) = rules.find(rule.priority, rule.scope) {
            rules.list[at] = rule;
            return;
        }
        let at = rules.list.partition_point(|r| r.priority >= rule.priority);
        rules.list.insert(at, rule);
        rules.shift(at, 1);
        if let Some(first) = rules.first_mut(rule.scope) {
            *first = (*first).min(at as u32);
        }
    }

    /// Convenience: installs the fast-failover rule (priority 1, all keys).
    pub fn install_chain_failover(&mut self, failed_ip: Ipv4Addr) {
        self.install(
            failed_ip,
            FailoverRule {
                priority: 1,
                scope: RuleScope::All,
                action: FailoverAction::ChainFailover,
            },
        );
    }

    /// Removes every rule matching `failed_ip` with the given priority and
    /// scope. Returns the number of rules removed.
    pub fn remove(&mut self, failed_ip: Ipv4Addr, priority: u8, scope: RuleScope) -> usize {
        let Some(d) = self.position(failed_ip) else {
            return 0;
        };
        let rules = &mut self.destinations[d].1;
        let Some(at) = rules.find(priority, scope) else {
            return 0;
        };
        rules.list.remove(at);
        rules.shift(at + 1, u32::MAX);
        // If it was its scope's first rule, the scope's next one follows it.
        let next = rules.list[at..].iter().position(|r| r.scope == scope);
        if let Some(first) = rules.first_mut(scope).filter(|first| **first == at as u32) {
            *first = next.map_or(NO_RULE, |n| (at + n) as u32);
        }
        (rules.moduli).retain(|(_, firsts)| firsts.iter().any(|&p| p != NO_RULE));
        if rules.list.is_empty() {
            self.destinations.remove(d);
        }
        1
    }

    fn position(&self, dst: Ipv4Addr) -> Option<usize> {
        self.destinations.iter().position(|(ip, _)| *ip == dst)
    }

    /// True if any rule, of any scope, targets packets destined to `dst`.
    pub fn targets(&self, dst: Ipv4Addr) -> bool {
        self.position(dst).is_some()
    }

    /// The action that applies to a query for `key` destined to `dst`, if any
    /// (highest priority rule whose scope matches).
    pub fn action_for(&self, dst: Ipv4Addr, key: &Key) -> Option<FailoverAction> {
        self.action_for_hash(dst, key.stable_hash())
    }

    /// [`Self::action_for`] for a key whose stable hash is already known:
    /// the first of its scopes' first rules.
    pub fn action_for_hash(&self, dst: Ipv4Addr, hash: u64) -> Option<FailoverAction> {
        let rules = &self.destinations[self.position(dst)?].1;
        Some(rules.first_for(hash)?.action)
    }

    /// The one address every query to `dst` is redirected to, whatever its
    /// key (every group of a repaired switch moved to one replacement);
    /// `None` otherwise, and under a modulus that does not divide the largest.
    pub fn redirect_target(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        let rules = &self.destinations[self.position(dst)?].1;
        let span = rules.moduli.last()?.0;
        let redirect = |hash| match rules.first_for(hash)?.action {
            FailoverAction::Redirect(ip) => Some(ip),
            _ => None,
        };
        // The last group first: a repair moves groups in ascending order, so
        // until its last group moves this answers at once.
        let target = redirect(u64::from(span) - 1)?;
        let divides = rules.moduli.iter().all(|&(m, _)| span.is_multiple_of(m));
        let everywhere = (0..u64::from(span)).all(|hash| redirect(hash) == Some(target));
        (divides && everywhere).then_some(target)
    }

    /// Number of installed rules (across all destinations).
    pub fn len(&self) -> usize {
        self.destinations.iter().map(|(_, d)| d.list.len()).sum()
    }

    /// True if no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.destinations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_hash_matches_scalar_stable_hash() {
        let keys: Vec<[u8; KEY_LEN]> = (0..37u64)
            .map(|i| Key::from_u64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).0)
            .collect();
        let mut hashes = vec![0u64; keys.len()];
        stable_hash_batch(&keys, &mut hashes);
        for (k, h) in keys.iter().zip(&hashes) {
            assert_eq!(Key::from_bytes(*k).stable_hash(), *h);
        }
        // Empty batch is a no-op.
        stable_hash_batch(&[], &mut []);
    }

    fn key_in_group(group: u32, modulus: u32) -> Key {
        (0..)
            .map(Key::from_u64)
            .find(|k| (k.stable_hash() % u64::from(modulus)) as u32 == group)
            .expect("some key falls in every group")
    }

    #[test]
    fn scopes_select_by_group_whatever_the_mix_of_moduli() {
        let failed = Ipv4Addr::for_switch(1);
        let key = Key::from_name("foo");
        let hash = key.stable_hash();
        let group = |modulus: u32, off: u32| RuleScope::Group {
            group: ((hash % u64::from(modulus)) as u32 + off) % modulus,
            modulus,
        };
        let spare = FailoverAction::Redirect(Ipv4Addr::for_switch(9));
        let mut t = ForwardingTable::new();
        // In descending priority: a scope of no group at all, another group
        // of 10, the key's group of 7, and everything.
        for (priority, scope, action) in [
            (
                5,
                RuleScope::Group {
                    group: 0,
                    modulus: 0,
                },
                FailoverAction::Block,
            ),
            (4, group(10, 1), FailoverAction::Block),
            (3, group(7, 0), spare),
            (1, RuleScope::All, FailoverAction::ChainFailover),
        ] {
            t.install(
                failed,
                FailoverRule {
                    priority,
                    scope,
                    action,
                },
            );
        }
        assert_eq!(t.action_for(failed, &key), Some(spare));
        assert_eq!(t.action_for_hash(failed, hash), Some(spare));
        assert_eq!(t.remove(failed, 3, group(7, 0)), 1);
        assert_eq!(
            t.action_for(failed, &key),
            Some(FailoverAction::ChainFailover)
        );
    }

    #[test]
    fn install_lookup_remove_roundtrip() {
        let mut t = ForwardingTable::new();
        let failed = Ipv4Addr::for_switch(1);
        let key = Key::from_name("foo");
        assert!(t.is_empty());
        assert_eq!(t.action_for(failed, &key), None);

        t.install_chain_failover(failed);
        assert_eq!(
            t.action_for(failed, &key),
            Some(FailoverAction::ChainFailover)
        );
        assert_eq!(t.len(), 1);

        assert_eq!(t.remove(failed, 1, RuleScope::All), 1);
        assert!(t.is_empty());
        assert_eq!(t.remove(failed, 1, RuleScope::All), 0);
    }

    #[test]
    fn higher_priority_rules_override() {
        let mut t = ForwardingTable::new();
        let failed = Ipv4Addr::for_switch(1);
        let key = Key::from_name("foo");
        let replacement = Ipv4Addr::for_switch(3);
        t.install_chain_failover(failed);
        t.install(
            failed,
            FailoverRule {
                priority: 2,
                scope: RuleScope::All,
                action: FailoverAction::Block,
            },
        );
        assert_eq!(t.action_for(failed, &key), Some(FailoverAction::Block));
        t.install(
            failed,
            FailoverRule {
                priority: 3,
                scope: RuleScope::All,
                action: FailoverAction::Redirect(replacement),
            },
        );
        assert_eq!(
            t.action_for(failed, &key),
            Some(FailoverAction::Redirect(replacement))
        );
        // Dropping the high-priority rules falls back to fast failover.
        t.remove(failed, 3, RuleScope::All);
        t.remove(failed, 2, RuleScope::All);
        assert_eq!(
            t.action_for(failed, &key),
            Some(FailoverAction::ChainFailover)
        );
    }

    #[test]
    fn group_scoped_rules_only_affect_their_group() {
        let mut t = ForwardingTable::new();
        let failed = Ipv4Addr::for_switch(1);
        t.install_chain_failover(failed);
        let blocked_key = key_in_group(3, 100);
        let other_key = key_in_group(4, 100);
        t.install(
            failed,
            FailoverRule {
                priority: 2,
                scope: RuleScope::Group {
                    group: 3,
                    modulus: 100,
                },
                action: FailoverAction::Block,
            },
        );
        assert_eq!(
            t.action_for(failed, &blocked_key),
            Some(FailoverAction::Block)
        );
        assert_eq!(
            t.action_for(failed, &other_key),
            Some(FailoverAction::ChainFailover)
        );
    }

    #[test]
    fn reinstalling_same_slot_replaces() {
        let mut t = ForwardingTable::new();
        let failed = Ipv4Addr::for_switch(2);
        let key = Key::from_name("x");
        t.install(
            failed,
            FailoverRule {
                priority: 3,
                scope: RuleScope::All,
                action: FailoverAction::Redirect(Ipv4Addr::for_switch(7)),
            },
        );
        t.install(
            failed,
            FailoverRule {
                priority: 3,
                scope: RuleScope::All,
                action: FailoverAction::Redirect(Ipv4Addr::for_switch(8)),
            },
        );
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.action_for(failed, &key),
            Some(FailoverAction::Redirect(Ipv4Addr::for_switch(8)))
        );
        assert_eq!(t.remove(failed, 3, RuleScope::All), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn rules_are_per_destination() {
        let mut t = ForwardingTable::new();
        let key = Key::from_name("k");
        t.install_chain_failover(Ipv4Addr::for_switch(1));
        t.install(
            Ipv4Addr::for_switch(2),
            FailoverRule {
                priority: 2,
                scope: RuleScope::All,
                action: FailoverAction::Block,
            },
        );
        assert_eq!(
            t.action_for(Ipv4Addr::for_switch(1), &key),
            Some(FailoverAction::ChainFailover)
        );
        assert_eq!(
            t.action_for(Ipv4Addr::for_switch(2), &key),
            Some(FailoverAction::Block)
        );
        assert_eq!(t.action_for(Ipv4Addr::for_switch(3), &key), None);
    }
}
