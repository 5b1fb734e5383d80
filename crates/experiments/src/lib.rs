//! # netchain-experiments
//!
//! The reproduction harness: one module per table and figure of the NetChain
//! evaluation (§8), each a subcommand of the one `netchain` binary ([`cli`]
//! holds the table; the README's "Crate map" places the crate). Each
//! experiment returns plain data series that its subcommand prints as an
//! aligned table and a JSON line.
//!
//! Two measurement methods are used, mirroring how the paper itself was
//! evaluated:
//!
//! * **Packet-level discrete-event simulation** (`netchain-sim` +
//!   `netchain-core`) wherever NetChain's protocol dynamics matter:
//!   latency, loss and retries, lock contention. Rates are scaled down
//!   where the paper's absolute rates (tens of MQPS) would be
//!   computationally meaningless to simulate packet by packet; scaling
//!   factors are reported alongside the results.
//! * **A flow-level capacity model** ([`capacity`]) wherever the paper itself
//!   reasons analytically (the §8.3 scalability simulation and the saturation
//!   throughput of the testbed): it counts how many times each switch must
//!   process a packet per query and divides the per-switch packet budget by
//!   that load.
//!
//! The ZooKeeper baseline, which the paper measures as a black box, is not
//! simulated: [`zk`] derives every ZooKeeper line in closed form from those
//! measurements and the figure's deployment.
//!
//! Figure 10 is neither: [`fig10`] measures failure handling on the live
//! fabric (`netchain-livectl`) on the machine at hand, so its time series
//! are measured, not simulated. [`net_scale`] measures the socket dataplane
//! the same way. The fabric's throughput and latency are measured by the
//! separate `benchmark/` crate only.
//!
//! Calibration constants taken from the paper's own measurements (server
//! rates, client stack delays, ZooKeeper reference points) are concentrated
//! in [`calib`] and clearly labelled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_gate;
pub mod calib;
pub mod capacity;
pub mod chain_audit;
pub mod cli;
pub mod fig10;
pub mod fig11;
pub mod fig9;
pub mod net_scale;
pub mod ops_top;
pub mod series;
pub mod table1;
pub mod zk;

pub use capacity::CapacityModel;
pub use series::{print_series, Series};
