//! # netchain-apps
//!
//! The coordination application the paper evaluates in §8.5, built on the
//! NetChain key-value API:
//!
//! * [`lock`] — exclusive locks: a lock is a key whose value is the
//!   holder's client id (0 = free), and its acquire and release are the
//!   switch compare-and-swap primitive.
//! * [`twopl`] — the distributed-transaction benchmark of Figure 11: each
//!   transaction acquires ten locks under two-phase locking, one drawn from a
//!   small hot set controlled by the *contention index* and nine from a large
//!   cold set (a generalisation of TPC-C new-order). [`TxnClient`] is a
//!   [`netchain_core::client::Script`]: the simulator's sequential client,
//!   `ScriptedClient`, runs it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lock;
pub mod twopl;

pub use lock::lock_key;
pub use twopl::{TxnClient, TxnStats, TxnWorkload};
