//! Consistent hashing with virtual nodes (§4.1, "data partitioning with
//! consistent hashing").
//!
//! The key space is divided into `V` equal segments — the *virtual nodes*,
//! which are also the *virtual groups* used to stage failure recovery (§5.2).
//! Each virtual node is owned by one physical switch (a seeded permutation
//! spreads ownership evenly), and the chain for a segment is the owner of
//! that segment followed by the owners of the next segments along the ring,
//! skipping duplicates, until `f + 1` *distinct* switches are collected —
//! exactly the assignment rule the paper describes.

use netchain_wire::{Ipv4Addr, Key};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The chain of switches responsible for one virtual group, head first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainDescriptor {
    /// Switch IPs from head to tail.
    pub switches: Vec<Ipv4Addr>,
}

impl ChainDescriptor {
    /// The head switch (sequences writes).
    pub fn head(&self) -> Ipv4Addr {
        self.switches[0]
    }

    /// The tail switch (serves reads, generates replies).
    pub fn tail(&self) -> Ipv4Addr {
        *self.switches.last().expect("chains are never empty")
    }

    /// Chain length (`f + 1`).
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// True if the chain has no switches (never produced by the ring).
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }

    /// True if `switch` participates in this chain.
    pub fn contains(&self, switch: Ipv4Addr) -> bool {
        self.switches.contains(&switch)
    }

    /// The position of `switch` in the chain, head = 0.
    pub fn position(&self, switch: Ipv4Addr) -> Option<usize> {
        self.switches.iter().position(|&s| s == switch)
    }

    /// The successor of `switch` along the chain (towards the tail).
    pub fn successor(&self, switch: Ipv4Addr) -> Option<Ipv4Addr> {
        let pos = self.position(switch)?;
        self.switches.get(pos + 1).copied()
    }

    /// The predecessor of `switch` along the chain (towards the head).
    pub fn predecessor(&self, switch: Ipv4Addr) -> Option<Ipv4Addr> {
        let pos = self.position(switch)?;
        pos.checked_sub(1).map(|i| self.switches[i])
    }

    /// The chain with `switch` removed (what fast failover degrades to).
    pub fn without(&self, switch: Ipv4Addr) -> ChainDescriptor {
        ChainDescriptor {
            switches: self
                .switches
                .iter()
                .copied()
                .filter(|&s| s != switch)
                .collect(),
        }
    }
}

/// The consistent-hash ring.
#[derive(Debug, Clone)]
pub struct HashRing {
    switches: Vec<Ipv4Addr>,
    /// `owner[v]` = index into `switches` of the owner of virtual node `v`.
    owner: Vec<usize>,
    replication: usize,
}

impl HashRing {
    /// Builds a ring over `switches` with `vnodes_per_switch` virtual nodes
    /// per switch and chains of `replication` (= `f + 1`) distinct switches.
    ///
    /// # Panics
    /// Panics if there are fewer switches than the replication factor, or if
    /// either parameter is zero.
    pub fn new(
        switches: Vec<Ipv4Addr>,
        vnodes_per_switch: usize,
        replication: usize,
        seed: u64,
    ) -> Self {
        assert!(!switches.is_empty(), "a ring needs at least one switch");
        assert!(
            vnodes_per_switch > 0,
            "need at least one virtual node per switch"
        );
        assert!(replication > 0, "replication factor must be at least 1");
        assert!(
            switches.len() >= replication,
            "cannot build chains of {} distinct switches out of {}",
            replication,
            switches.len()
        );
        let total = switches.len() * vnodes_per_switch;
        // Even ownership: each switch owns exactly `vnodes_per_switch` virtual
        // nodes, at positions shuffled by a seeded RNG so neighbouring
        // segments usually belong to different switches.
        let mut owner: Vec<usize> = (0..total).map(|v| v % switches.len()).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        owner.shuffle(&mut rng);
        HashRing {
            switches,
            owner,
            replication,
        }
    }

    /// The physical switches participating in the ring.
    pub fn switches(&self) -> &[Ipv4Addr] {
        &self.switches
    }

    /// Total number of virtual nodes (= virtual groups).
    pub fn num_virtual_nodes(&self) -> usize {
        self.owner.len()
    }

    /// The replication factor (`f + 1`).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The virtual group a key belongs to.
    pub fn group_of(&self, key: &Key) -> u32 {
        self.group_of_hash(key.stable_hash())
    }

    /// The virtual group of the key whose [`Key::stable_hash`] is `hash`:
    /// the one place the key → group decision is made.
    pub fn group_of_hash(&self, hash: u64) -> u32 {
        (hash % self.owner.len() as u64) as u32
    }

    /// The chain (head first) serving virtual group `group`: the owner of the
    /// group's segment plus the owners of subsequent segments, skipping
    /// switches already in the chain, until `f + 1` distinct switches are
    /// found.
    pub fn chain_for_group(&self, group: u32) -> ChainDescriptor {
        let total = self.owner.len();
        let mut switches = Vec::with_capacity(self.replication);
        let mut v = group as usize % total;
        for _ in 0..total {
            let candidate = self.switches[self.owner[v]];
            if !switches.contains(&candidate) {
                switches.push(candidate);
                if switches.len() == self.replication {
                    break;
                }
            }
            v = (v + 1) % total;
        }
        debug_assert_eq!(
            switches.len(),
            self.replication,
            "ring construction guarantees enough distinct switches"
        );
        ChainDescriptor { switches }
    }

    /// The chain serving `key`.
    pub fn chain_for_key(&self, key: &Key) -> ChainDescriptor {
        self.chain_for_group(self.group_of(key))
    }

    /// All virtual groups whose chain includes `switch` — the chains affected
    /// when that switch fails. A switch owning `m` virtual nodes sits in
    /// roughly `m (f + 1)` chains, matching the paper's `m(f+1)/n`-per-switch
    /// accounting.
    pub fn groups_involving(&self, switch: Ipv4Addr) -> Vec<u32> {
        (0..self.owner.len() as u32)
            .filter(|&g| self.chain_for_group(g).contains(switch))
            .collect()
    }

    /// The number of virtual nodes owned by `switch` (load-balance checks).
    pub fn vnodes_owned_by(&self, switch: Ipv4Addr) -> usize {
        let Some(idx) = self.switches.iter().position(|&s| s == switch) else {
            return 0;
        };
        self.owner.iter().filter(|&&o| o == idx).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ips(n: u32) -> Vec<Ipv4Addr> {
        (0..n).map(Ipv4Addr::for_switch).collect()
    }

    #[test]
    fn chains_have_distinct_switches_of_requested_length() {
        let ring = HashRing::new(ips(6), 10, 3, 7);
        assert_eq!(ring.num_virtual_nodes(), 60);
        for g in 0..60 {
            let chain = ring.chain_for_group(g);
            assert_eq!(chain.len(), 3);
            let mut unique = chain.switches.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), 3, "chain switches must be distinct");
        }
    }

    #[test]
    fn ownership_is_perfectly_balanced() {
        let ring = HashRing::new(ips(4), 25, 3, 1);
        for &sw in ring.switches() {
            assert_eq!(ring.vnodes_owned_by(sw), 25);
        }
        assert_eq!(ring.vnodes_owned_by(Ipv4Addr::for_switch(99)), 0);
    }

    #[test]
    fn key_to_chain_is_deterministic_and_stable() {
        let ring = HashRing::new(ips(8), 16, 3, 42);
        let ring2 = HashRing::new(ips(8), 16, 3, 42);
        for i in 0..100u64 {
            let k = Key::from_u64(i);
            assert_eq!(ring.chain_for_key(&k), ring2.chain_for_key(&k));
            assert_eq!(ring.group_of(&k), ring2.group_of(&k));
            assert_eq!(
                ring.chain_for_key(&k),
                ring.chain_for_group(ring.group_of(&k))
            );
        }
    }

    #[test]
    fn different_seeds_give_different_placements() {
        let a = HashRing::new(ips(8), 16, 3, 1);
        let b = HashRing::new(ips(8), 16, 3, 2);
        let differs = (0..128u32).any(|g| a.chain_for_group(g) != b.chain_for_group(g));
        assert!(differs);
    }

    #[test]
    fn chain_descriptor_navigation() {
        let chain = ChainDescriptor {
            switches: vec![
                Ipv4Addr::for_switch(0),
                Ipv4Addr::for_switch(1),
                Ipv4Addr::for_switch(2),
            ],
        };
        assert_eq!(chain.head(), Ipv4Addr::for_switch(0));
        assert_eq!(chain.tail(), Ipv4Addr::for_switch(2));
        assert_eq!(chain.position(Ipv4Addr::for_switch(1)), Some(1));
        assert_eq!(
            chain.successor(Ipv4Addr::for_switch(1)),
            Some(Ipv4Addr::for_switch(2))
        );
        assert_eq!(chain.successor(Ipv4Addr::for_switch(2)), None);
        assert_eq!(
            chain.predecessor(Ipv4Addr::for_switch(1)),
            Some(Ipv4Addr::for_switch(0))
        );
        assert_eq!(chain.predecessor(Ipv4Addr::for_switch(0)), None);
        assert!(chain.contains(Ipv4Addr::for_switch(2)));
        assert!(!chain.contains(Ipv4Addr::for_switch(9)));
        let degraded = chain.without(Ipv4Addr::for_switch(1));
        assert_eq!(degraded.len(), 2);
        assert_eq!(degraded.head(), Ipv4Addr::for_switch(0));
        assert_eq!(degraded.tail(), Ipv4Addr::for_switch(2));
    }

    #[test]
    fn groups_involving_matches_expected_count() {
        // 4 switches, 25 vnodes each, chains of 3: each switch participates in
        // roughly m(f+1) = 75 of the 100 groups.
        let ring = HashRing::new(ips(4), 25, 3, 11);
        for &sw in ring.switches() {
            let affected = ring.groups_involving(sw).len();
            assert!(
                (60..=90).contains(&affected),
                "expected roughly 75 affected groups, got {affected}"
            );
        }
    }

    #[test]
    fn keys_spread_over_groups() {
        let ring = HashRing::new(ips(4), 25, 3, 3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2000u64 {
            seen.insert(ring.group_of(&Key::from_u64(i)));
        }
        // 2000 keys over 100 groups: essentially every group should be hit.
        assert!(seen.len() > 95, "only {} groups hit", seen.len());
    }

    #[test]
    #[should_panic(expected = "cannot build chains")]
    fn too_few_switches_rejected() {
        HashRing::new(ips(2), 4, 3, 0);
    }
}
