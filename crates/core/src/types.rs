//! Shared application-level types: key-value operations as clients see them,
//! completed-query records, and error types.

use netchain_sim::SimDuration;
use netchain_wire::{Key, OpCode, QueryStatus, Value};
use std::fmt;

/// A key-value operation in wire form, borrowed: the query opcode, the key,
/// and the value bytes the query carries (the 16-byte `(expected, new)` pair
/// for a CAS, nothing for reads and deletes). The allocation-free twin of
/// [`KvOp`] that the agent's hot path takes; [`KvOp::with_wire`] converts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRef<'a> {
    /// Query opcode.
    pub op: OpCode,
    /// The key operated on.
    pub key: Key,
    /// Value bytes carried by the query.
    pub value: &'a [u8],
}

/// A key-value operation as issued by an application through the client
/// agent. This is the NetChain API surface (§3, "NetChain client").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Read the value of a key.
    Read(Key),
    /// Write the value of an existing key.
    Write(Key, Value),
    /// Compare-and-swap: replace the stored 8-byte value with `new` only if
    /// it currently equals `expected`. The primitive behind exclusive locks
    /// (§8.5).
    Cas {
        /// The key to operate on.
        key: Key,
        /// Expected current value.
        expected: u64,
        /// Replacement value.
        new: u64,
    },
    /// Delete (invalidate) a key.
    Delete(Key),
}

impl KvOp {
    /// The key this operation touches.
    pub fn key(&self) -> Key {
        match self {
            KvOp::Read(k) | KvOp::Delete(k) | KvOp::Write(k, _) => *k,
            KvOp::Cas { key, .. } => *key,
        }
    }

    /// True for operations that mutate state (and therefore traverse the
    /// whole chain head to tail).
    pub fn is_mutation(&self) -> bool {
        !matches!(self, KvOp::Read(_))
    }

    /// Runs `f` on this operation's wire form.
    pub fn with_wire<R>(&self, f: impl FnOnce(OpRef<'_>) -> R) -> R {
        let cas;
        let (op, value): (OpCode, &[u8]) = match self {
            KvOp::Read(_) => (OpCode::Read, &[]),
            KvOp::Delete(_) => (OpCode::Delete, &[]),
            KvOp::Write(_, v) => (OpCode::Write, v.as_bytes()),
            KvOp::Cas { expected, new, .. } => {
                cas = netchain_switch::cas_bytes(*expected, *new);
                (OpCode::Cas, &cas)
            }
        };
        f(OpRef {
            op,
            key: self.key(),
            value,
        })
    }

    /// Rebuilds the operation from its wire form (the inverse of
    /// [`Self::with_wire`]; opcodes clients never issue read back as a
    /// write of the carried bytes).
    pub fn from_wire(wire: OpRef<'_>) -> KvOp {
        match wire.op {
            OpCode::Read => KvOp::Read(wire.key),
            OpCode::Delete => KvOp::Delete(wire.key),
            OpCode::Cas if wire.value.len() == 16 => {
                let word = |at: usize| {
                    u64::from_be_bytes(wire.value[at..at + 8].try_into().expect("8 bytes"))
                };
                KvOp::Cas {
                    key: wire.key,
                    expected: word(0),
                    new: word(8),
                }
            }
            _ => KvOp::Write(
                wire.key,
                Value::new(wire.value).expect("wire values are bounded"),
            ),
        }
    }
}

/// What a matched reply told the agent, without the value: the hot-path
/// counterpart of [`CompletedQuery`] (nothing on the heap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request id the agent assigned.
    pub request_id: u64,
    /// Opcode of the query that completed.
    pub op: OpCode,
    /// Status returned by the chain.
    pub status: QueryStatus,
    /// Sequence number of the replied version.
    pub seq: u64,
    /// Session number of the replied version.
    pub session: u64,
    /// Time from first transmission to completion.
    pub latency: SimDuration,
    /// Number of retransmissions that were needed.
    pub retries: u32,
}

/// The outcome of one completed (replied or abandoned) query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedQuery {
    /// The request id the agent assigned.
    pub request_id: u64,
    /// The operation that was issued.
    pub op: KvOp,
    /// Status returned by the chain (or `None` if the query was abandoned
    /// after exhausting retries).
    pub status: Option<QueryStatus>,
    /// Value carried in the reply (current value for reads, applied value for
    /// writes, stored value for failed CAS).
    pub value: Value,
    /// Sequence number of the replied version (version monotonicity checks).
    pub seq: u64,
    /// Session number of the replied version.
    pub session: u64,
    /// Time from first transmission to completion.
    pub latency: SimDuration,
    /// Number of retransmissions that were needed.
    pub retries: u32,
}

impl CompletedQuery {
    /// True if the chain reported success.
    pub fn is_ok(&self) -> bool {
        self.status == Some(QueryStatus::Ok)
    }

    /// True if the query was abandoned (all retries timed out).
    pub fn is_abandoned(&self) -> bool {
        self.status.is_none()
    }
}

/// Per-client load-generator counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Queries issued.
    pub issued: u64,
    /// Replies matched to an outstanding query.
    pub completed: u64,
    /// Replies with `Ok` status.
    pub ok: u64,
    /// Replies with `CasFailed` status (expected under CAS contention).
    pub cas_failed: u64,
    /// Retransmissions sent (zero on the failure-free fabric, which never
    /// drops).
    pub retries: u64,
    /// Queries abandoned after exhausting the retry budget (must stay zero
    /// in any healthy run, including across failover and repair).
    pub abandoned: u64,
    /// Replies whose version regressed (must stay zero — the chain is
    /// strongly consistent per key).
    pub version_regressions: u64,
}

/// Errors surfaced by the NetChain client-side machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetChainError {
    /// The directory has no chain for the key (no switches registered).
    NoChain,
    /// The value is too large for the wire format / pipeline.
    ValueTooLarge(usize),
    /// An internal wire-format error (should not happen for well-formed ops).
    Wire(netchain_wire::WireError),
}

impl fmt::Display for NetChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetChainError::NoChain => write!(f, "no chain is assigned for the key"),
            NetChainError::ValueTooLarge(n) => write!(f, "value of {n} bytes is too large"),
            NetChainError::Wire(e) => write!(f, "wire format error: {e}"),
        }
    }
}

impl std::error::Error for NetChainError {}

impl From<netchain_wire::WireError> for NetChainError {
    fn from(e: netchain_wire::WireError) -> Self {
        NetChainError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_key_and_mutation_classification() {
        let k = Key::from_name("a");
        assert_eq!(KvOp::Read(k).key(), k);
        assert_eq!(KvOp::Write(k, Value::empty()).key(), k);
        assert_eq!(KvOp::Delete(k).key(), k);
        assert_eq!(
            KvOp::Cas {
                key: k,
                expected: 0,
                new: 1
            }
            .key(),
            k
        );
        assert!(!KvOp::Read(k).is_mutation());
        assert!(KvOp::Write(k, Value::empty()).is_mutation());
        assert!(KvOp::Delete(k).is_mutation());
    }

    #[test]
    fn wire_form_round_trips() {
        let k = Key::from_name("a");
        for op in [
            KvOp::Read(k),
            KvOp::Delete(k),
            KvOp::Write(k, Value::from_u64(9)),
            KvOp::Cas {
                key: k,
                expected: 3,
                new: 4,
            },
        ] {
            assert_eq!(op.with_wire(KvOp::from_wire), op);
        }
        let cas = KvOp::Cas {
            key: k,
            expected: 3,
            new: 4,
        };
        cas.with_wire(|w| {
            assert_eq!(w.op, OpCode::Cas);
            assert_eq!(w.value, netchain_switch::cas_value(3, 4).as_bytes());
        });
    }

    #[test]
    fn completed_query_predicates() {
        let done = CompletedQuery {
            request_id: 1,
            op: KvOp::Read(Key::from_u64(1)),
            status: Some(QueryStatus::Ok),
            value: Value::empty(),
            seq: 0,
            session: 0,
            latency: SimDuration::from_micros(10),
            retries: 0,
        };
        assert!(done.is_ok());
        assert!(!done.is_abandoned());
        let abandoned = CompletedQuery {
            status: None,
            ..done
        };
        assert!(abandoned.is_abandoned());
        assert!(!abandoned.is_ok());
    }

    #[test]
    fn error_display_and_from() {
        let e: NetChainError = netchain_wire::WireError::ValueTooLong(500).into();
        assert!(e.to_string().contains("wire format"));
        assert!(NetChainError::NoChain.to_string().contains("chain"));
    }
}
