//! # netchain-core
//!
//! The NetChain system proper: everything above the switch data plane and the
//! network substrate.
//!
//! * [`hashring`] — consistent hashing with virtual nodes: partitions the key
//!   space over switches and assigns every key a chain of `f + 1` distinct
//!   switches (§4.1).
//! * [`directory`] — the mapping every client agent keeps from keys to chains
//!   and from switch IPs to simulator nodes.
//! * [`agent`] — the client agent: a sans-IO core that builds query packets
//!   (write queries carry the chain head-to-tail, read queries the reverse
//!   order, §4.2), matches replies, and drives timeouts/retries (§4.3).
//! * [`loadgen`] — the one load client, [`ClientState`]: the agent plus a
//!   seeded read/write/CAS op mix, driven closed loop by the fabric and open
//!   loop by the net mode and the simulator.
//! * [`client`] — simulator nodes wrapping the agent: [`LoadHost`], which
//!   runs a [`ClientState`] on Poisson arrivals, and a scripted client for
//!   tests and examples.
//! * [`switch_node`] — the simulator adapter that hosts a
//!   [`netchain_switch::NetChainSwitch`] on a topology node and performs
//!   underlay L3 forwarding.
//! * [`failplan`] — what the controller sends: Algorithms 2 and 3 as ordered
//!   op lists, and the `View` that decides who replaces whom.
//! * [`reactor`] — when it sends it: one sans-IO agenda of the schedule's
//!   faults and the reactions to them (fast failover, Algorithm 2; failure
//!   recovery with two-phase atomic switching and virtual groups, Algorithm
//!   3, §5), which the simulated, live and replay controllers only deliver.
//! * [`controller`] — the network controller node (the reconfiguration half
//!   of Vertical Paxos): the reactor's transport in the simulator.
//! * [`fault`] — the one fault vocabulary: a seeded [`Schedule`] of
//!   [`FaultOp`]s every execution mode delivers, and the link-fault filter.
//! * [`cluster`] — glue that assembles complete deployments (the Figure 8
//!   testbed or arbitrary spine–leaf fabrics) ready to run experiments on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod client;
pub mod cluster;
pub mod controller;
pub mod directory;
pub mod evidence;
pub mod failplan;
pub mod fault;
pub mod hashring;
pub mod loadgen;
pub mod message;
pub mod reactor;
pub mod switch_node;
pub mod types;

pub use agent::{AgentConfig, AgentCore, AgentStats};
pub use client::{LoadHost, ScriptedClient};
pub use cluster::{ClusterConfig, ClusterLayout, NetChainCluster};
pub use controller::Controller;
pub use directory::{AddressMap, ChainDirectory, KeyLocus, QueryRoute};
pub use evidence::{evidence_op, query_evidence, query_evidence_hashed};
pub use failplan::{FailoverPlan, GroupRepair, RecoveryPlan};
pub use fault::{FaultOp, LinkFilter, Schedule};
pub use hashring::{ChainDescriptor, HashRing};
pub use loadgen::{ClientState, DrawnOp, WorkloadSpec};
pub use message::{ControlMsg, NetMsg};
pub use reactor::{Action, FailoverTimeline, GroupCopy, Reactions, Reactor};
pub use switch_node::SwitchNode;
pub use types::{ClientReport, CompletedQuery, Completion, KvOp, NetChainError, OpRef};
