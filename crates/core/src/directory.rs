//! The client-side directory: the small amount of state every NetChain agent
//! keeps to translate keys into chain routes (§4.2), plus the address map the
//! simulator adapters use to translate switch IPs into topology nodes.

use crate::hashring::{ChainDescriptor, HashRing};
use netchain_sim::NodeId;
use netchain_wire::{ChainList, Ipv4Addr, Key};
use std::collections::HashMap;
use std::sync::Arc;

/// Bidirectional mapping between IP addresses and simulator nodes.
#[derive(Debug, Clone, Default)]
pub struct AddressMap {
    ip_of_node: HashMap<NodeId, Ipv4Addr>,
    node_of_ip: HashMap<Ipv4Addr, NodeId>,
}

impl AddressMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a node's IP address.
    pub fn register(&mut self, node: NodeId, ip: Ipv4Addr) {
        self.ip_of_node.insert(node, ip);
        self.node_of_ip.insert(ip, node);
    }

    /// The IP address of a node, if registered.
    pub fn ip_of(&self, node: NodeId) -> Option<Ipv4Addr> {
        self.ip_of_node.get(&node).copied()
    }

    /// The node carrying an IP address, if registered.
    pub fn node_of(&self, ip: Ipv4Addr) -> Option<NodeId> {
        self.node_of_ip.get(&ip).copied()
    }

    /// Number of registered addresses.
    pub fn len(&self) -> usize {
        self.ip_of_node.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.ip_of_node.is_empty()
    }
}

/// The route a client agent uses for one query: the first hop to address the
/// packet to, plus the remaining chain hops to embed in the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRoute {
    /// Destination IP of the first chain hop.
    pub first_hop: Ipv4Addr,
    /// Remaining hops carried in the NetChain header.
    pub remaining: ChainList,
}

/// Where a key lives: its stable hash and the virtual group that hash falls
/// in. Computed once per query by [`ChainDirectory::locate`]; everything
/// downstream (route lookup, shard steering, the agent's version table)
/// reuses it instead of hashing the key again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyLocus {
    /// [`Key::stable_hash`] of the key.
    pub hash: u64,
    /// The key's virtual group.
    pub group: u32,
}

/// Both routes of one virtual group, built once per directory.
#[derive(Debug)]
struct GroupRoutes {
    write: QueryRoute,
    read: QueryRoute,
}

/// The key → chain directory a client agent consults. Thanks to consistent
/// hashing this is just the ring itself plus the two routes of every virtual
/// group, precomputed at construction — a few kilobytes of state rather than
/// a per-key table, exactly as the paper argues. Clones share the route
/// table.
#[derive(Debug, Clone)]
pub struct ChainDirectory {
    ring: HashRing,
    routes: Arc<[GroupRoutes]>,
}

impl ChainDirectory {
    /// Wraps a hash ring, precomputing the read and write route of every
    /// virtual group.
    pub fn new(ring: HashRing) -> Self {
        let routes = (0..ring.num_virtual_nodes() as u32)
            .map(|group| {
                let chain = ring.chain_for_group(group);
                let route = |first_hop, rest: Vec<Ipv4Addr>| QueryRoute {
                    first_hop,
                    remaining: ChainList::new(rest)
                        .expect("chains are far shorter than the header limit"),
                };
                let mut towards_head = chain.switches[..chain.len() - 1].to_vec();
                towards_head.reverse();
                GroupRoutes {
                    write: route(chain.head(), chain.switches[1..].to_vec()),
                    read: route(chain.tail(), towards_head),
                }
            })
            .collect();
        ChainDirectory { ring, routes }
    }

    /// The underlying ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The chain (head first) serving `key`.
    pub fn chain_for(&self, key: &Key) -> ChainDescriptor {
        self.ring.chain_for_key(key)
    }

    /// The virtual group of `key`.
    pub fn group_of(&self, key: &Key) -> u32 {
        self.ring.group_of(key)
    }

    /// Hashes `key` once and places it in its virtual group.
    pub fn locate(&self, key: &Key) -> KeyLocus {
        let hash = key.stable_hash();
        KeyLocus {
            hash,
            group: self.ring.group_of_hash(hash),
        }
    }

    /// The route for *write/mutation* queries of virtual group `group`:
    /// addressed to the head, with the rest of the chain (head → tail order)
    /// in the header (Figure 4).
    pub fn write_route_of(&self, group: u32) -> &QueryRoute {
        &self.routes[group as usize].write
    }

    /// The route for *read* queries of virtual group `group`: addressed to
    /// the tail, with the other chain switches in reverse order in the
    /// header — they are only used for failure handling (§4.2).
    pub fn read_route_of(&self, group: u32) -> &QueryRoute {
        &self.routes[group as usize].read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directory() -> ChainDirectory {
        let switches: Vec<Ipv4Addr> = (0..4).map(Ipv4Addr::for_switch).collect();
        ChainDirectory::new(HashRing::new(switches, 25, 3, 9))
    }

    #[test]
    fn address_map_roundtrip() {
        let mut map = AddressMap::new();
        assert!(map.is_empty());
        map.register(NodeId(3), Ipv4Addr::for_switch(3));
        map.register(NodeId(7), Ipv4Addr::for_host(0));
        assert_eq!(map.len(), 2);
        assert_eq!(map.ip_of(NodeId(3)), Some(Ipv4Addr::for_switch(3)));
        assert_eq!(map.node_of(Ipv4Addr::for_host(0)), Some(NodeId(7)));
        assert_eq!(map.ip_of(NodeId(99)), None);
        assert_eq!(map.node_of(Ipv4Addr::for_switch(9)), None);
    }

    #[test]
    fn write_route_is_head_first() {
        let dir = directory();
        let key = Key::from_name("foo");
        let chain = dir.chain_for(&key);
        let route = dir.write_route_of(dir.group_of(&key));
        assert_eq!(route.first_hop, chain.head());
        assert_eq!(route.remaining.len(), chain.len() - 1);
        assert_eq!(route.remaining.hops(), &chain.switches[1..]);
    }

    #[test]
    fn read_route_is_tail_with_reverse_rest() {
        let dir = directory();
        let key = Key::from_name("foo");
        let chain = dir.chain_for(&key);
        let route = dir.read_route_of(dir.group_of(&key));
        assert_eq!(route.first_hop, chain.tail());
        let mut expected: Vec<Ipv4Addr> = chain.switches[..chain.len() - 1].to_vec();
        expected.reverse();
        assert_eq!(route.remaining.hops(), expected.as_slice());
    }

    #[test]
    fn routes_are_consistent_with_groups() {
        let dir = directory();
        for i in 0..50u64 {
            let key = Key::from_u64(i);
            let group = dir.group_of(&key);
            assert_eq!(dir.chain_for(&key), dir.ring().chain_for_group(group));
            let locus = dir.locate(&key);
            assert_eq!(locus.hash, key.stable_hash());
            assert_eq!(locus.group, group);
        }
    }
}
