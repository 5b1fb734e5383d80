//! # netchain
//!
//! Umbrella crate for the NetChain reproduction (NSDI 2018, "NetChain:
//! Scale-Free Sub-RTT Coordination"). It re-exports the workspace crates so
//! applications and examples can depend on a single crate:
//!
//! * [`wire`] — packet formats (Ethernet/IPv4/UDP/NetChain header).
//! * [`sim`] — the deterministic discrete-event network simulator.
//! * [`switch`] — the programmable-switch data-plane model and the NetChain
//!   program (Algorithm 1, failover rules).
//! * [`core`] — consistent hashing, the client agent, the controller
//!   (fast failover + failure recovery) and cluster assembly.
//! * [`apps`] — exclusive locks and the 2PL transactions of Figure 11.
//! * [`net`] — the real-socket (UDP loopback) mode.
//! * [`fabric`] — the in-process multi-core switch fabric (real throughput:
//!   lock-free SPSC rings, batched zero-copy processing).
//! * [`livectl`] — the live control plane for the fabric (fault injection,
//!   fast failover, measured chain repair).
//! * [`telemetry`] — the observability layer: metrics, latency histograms,
//!   in-band per-hop tracing, event journal, JSON-lines export.
//! * [`experiments`] — the per-figure reproduction harness, the ZooKeeper
//!   baseline as a closed-form model (`experiments::zk`), and the table of
//!   subcommands behind the `netchain` binary (`src/main.rs`).
//!
//! See `examples/` for runnable walkthroughs and the README for the system
//! inventory ("Three execution modes", "Crate map"). The reproduction results
//! are what `cargo run --release -- all` prints; `-- help` lists the single
//! experiments.

#![forbid(unsafe_code)]

pub use netchain_apps as apps;
pub use netchain_core as core;
pub use netchain_experiments as experiments;
pub use netchain_fabric as fabric;
pub use netchain_livectl as livectl;
pub use netchain_net as net;
pub use netchain_sim as sim;
pub use netchain_switch as switch;
pub use netchain_telemetry as telemetry;
pub use netchain_wire as wire;
