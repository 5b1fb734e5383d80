//! The NetChain query header (Figure 2(b)).
//!
//! A NetChain query is a UDP datagram whose destination port is
//! [`NETCHAIN_UDP_PORT`]. The payload begins with a fixed-size header carrying
//! the operation, the (session, sequence) ordering tuple, the 16-byte key and
//! the remaining-chain hop count, followed by the variable-length chain IP
//! list and value.
//!
//! Layout of the payload (all multi-byte fields big-endian):
//!
//! ```text
//! offset  size  field
//! 0       1     OP          operation / reply code
//! 1       1     STATUS      result status (meaningful in replies)
//! 2       2     SESSION     session number (head replacement ordering, §5.2)
//! 4       8     SEQ         per-key sequence number assigned by the head
//! 12      8     REQUEST-ID  client-chosen id used to match replies
//! 20      16    KEY         fixed-length key
//! 36      1     SC          number of remaining chain hops in the IP list
//! 37      2     VALUE-LEN   length of the value in bytes
//! 39      4*SC  CHAIN       IPv4 addresses of the remaining chain hops
//! ...     V     VALUE       value bytes
//! ```

use crate::error::{WireError, WireResult};
use crate::ipv4::Ipv4Addr;
use std::fmt;

/// Reserved UDP destination port that invokes NetChain processing in a switch.
pub const NETCHAIN_UDP_PORT: u16 = 50000;

/// Length of a NetChain key in bytes (the Tofino prototype uses 16-byte keys).
pub const KEY_LEN: usize = 16;

/// Maximum value length processed at line rate: 8 pipeline stages × 16 bytes
/// per stage (§6 / §7). Larger values require recirculation, which the switch
/// model charges for separately; the wire format itself caps values here.
pub const MAX_VALUE_LEN: usize = 128;

/// Maximum number of chain hops carried in a query. Chains have `f + 1`
/// switches; tolerating up to 15 simultaneous switch failures per key is far
/// beyond any deployment in the paper, so 16 hops is a generous bound that
/// still keeps headers small.
pub const MAX_CHAIN_LEN: usize = 16;

/// Length of the fixed portion of the NetChain header.
pub const NETCHAIN_FIXED_HEADER_LEN: usize = 39;

/// A fixed-length 16-byte key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Key(pub [u8; KEY_LEN]);

impl Key {
    /// Builds a key directly from 16 bytes.
    pub const fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        Key(bytes)
    }

    /// Builds a key from a human-readable name.
    ///
    /// Names up to 16 bytes are used verbatim (zero padded); longer names are
    /// mixed down with an FNV-1a-style hash so that distinct long names remain
    /// overwhelmingly likely to map to distinct keys. This mirrors how the
    /// paper's client agent exposes a small fixed key to applications that
    /// think in terms of paths like `/locks/order-17`.
    pub fn from_name(name: &str) -> Self {
        let bytes = name.as_bytes();
        let mut out = [0u8; KEY_LEN];
        if bytes.len() <= KEY_LEN {
            out[..bytes.len()].copy_from_slice(bytes);
        } else {
            // Two independent 64-bit FNV-1a passes (forward and reversed input)
            // fill the 16 bytes.
            out[..8].copy_from_slice(&fnv1a64(bytes.iter().copied()).to_be_bytes());
            out[8..].copy_from_slice(&fnv1a64(bytes.iter().rev().copied()).to_be_bytes());
        }
        Key(out)
    }

    /// Builds a key from a `u64`, useful for synthetic workloads.
    pub fn from_u64(v: u64) -> Self {
        let mut out = [0u8; KEY_LEN];
        out[8..].copy_from_slice(&v.to_be_bytes());
        Key(out)
    }

    /// Interprets the low 8 bytes as a `u64` (inverse of [`Key::from_u64`]).
    pub fn low_u64(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.0[8..]);
        u64::from_be_bytes(b)
    }

    /// A stable 64-bit hash of the key, used for consistent hashing.
    pub fn stable_hash(&self) -> u64 {
        fnv1a64(self.0.iter().copied())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// FNV-1a 64-bit offset basis. Public so batched implementations of
/// [`Key::stable_hash`] (lane-parallel hashing in the staged fabric path)
/// can share the exact constants instead of re-deriving them.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime (see [`FNV64_OFFSET`]).
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut hash: u64 = FNV64_OFFSET;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV64_PRIME);
    }
    hash
}

/// A bounded, variable-length value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Value(Vec<u8>);

impl Value {
    /// An empty value.
    pub fn empty() -> Self {
        Value(Vec::new())
    }

    /// Builds a value, rejecting anything longer than [`MAX_VALUE_LEN`].
    pub fn new(bytes: impl Into<Vec<u8>>) -> WireResult<Self> {
        let bytes = bytes.into();
        if bytes.len() > MAX_VALUE_LEN {
            return Err(WireError::ValueTooLong(bytes.len()));
        }
        Ok(Value(bytes))
    }

    /// Builds a value of `len` copies of `byte` (for synthetic workloads).
    pub fn filled(byte: u8, len: usize) -> WireResult<Self> {
        Self::new(vec![byte; len])
    }

    /// Builds a value holding a big-endian `u64` (used by locks and counters).
    pub fn from_u64(v: u64) -> Self {
        Value(v.to_be_bytes().to_vec())
    }

    /// Interprets the value as a big-endian `u64` if it is exactly 8 bytes.
    pub fn as_u64(&self) -> Option<u64> {
        if self.0.len() == 8 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&self.0);
            Some(u64::from_be_bytes(b))
        } else {
            None
        }
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Replaces the value's bytes in place, keeping the existing allocation
    /// (the hot-path alternative to building a fresh [`Value`] per packet).
    pub fn set_bytes(&mut self, bytes: &[u8]) -> WireResult<()> {
        if bytes.len() > MAX_VALUE_LEN {
            return Err(WireError::ValueTooLong(bytes.len()));
        }
        self.0.clear();
        self.0.extend_from_slice(bytes);
        Ok(())
    }

    /// Resizes the value to `len` bytes and lets `fill` write them where they
    /// lie, keeping the existing allocation (how a switch copies a stored
    /// value out of its registers into the packet it is answering).
    pub fn fill_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> WireResult<()> {
        if len > MAX_VALUE_LEN {
            return Err(WireError::ValueTooLong(len));
        }
        self.0.clear();
        self.0.resize(len, 0);
        fill(&mut self.0);
        Ok(())
    }

    /// Empties the value, keeping its allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the value is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// NetChain operations and replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCode {
    /// Read the value of a key (served by the chain tail).
    Read,
    /// Write the value of an existing key (head assigns the sequence number).
    Write,
    /// Insert a new key-value item (involves the control plane, §4.1).
    Insert,
    /// Delete (invalidate) a key-value item.
    Delete,
    /// Compare-and-swap: write only if the stored value equals the expected
    /// value carried in the query. Used to build exclusive locks (§8.5).
    Cas,
    /// In-band stat probe: the addressed switch answers with a compact
    /// telemetry snapshot ([`crate::stat::StatSnapshot`]) in the reply value,
    /// without pausing query processing. Probes never touch the key-value
    /// registers and never traverse the chain.
    Stat,
    /// Reply to a [`OpCode::Read`].
    ReadReply,
    /// Reply to a [`OpCode::Write`].
    WriteReply,
    /// Reply to an [`OpCode::Insert`].
    InsertReply,
    /// Reply to a [`OpCode::Delete`].
    DeleteReply,
    /// Reply to a [`OpCode::Cas`].
    CasReply,
    /// Reply to a [`OpCode::Stat`] probe, carrying the encoded snapshot.
    StatReply,
}

impl OpCode {
    /// Numeric value as carried on the wire.
    pub fn to_u8(self) -> u8 {
        match self {
            OpCode::Read => 1,
            OpCode::Write => 2,
            OpCode::Insert => 3,
            OpCode::Delete => 4,
            OpCode::Cas => 5,
            OpCode::Stat => 6,
            OpCode::ReadReply => 17,
            OpCode::WriteReply => 18,
            OpCode::InsertReply => 19,
            OpCode::DeleteReply => 20,
            OpCode::CasReply => 21,
            OpCode::StatReply => 22,
        }
    }

    /// Decodes the opcode byte.
    pub fn from_u8(v: u8) -> WireResult<Self> {
        Ok(match v {
            1 => OpCode::Read,
            2 => OpCode::Write,
            3 => OpCode::Insert,
            4 => OpCode::Delete,
            5 => OpCode::Cas,
            6 => OpCode::Stat,
            17 => OpCode::ReadReply,
            18 => OpCode::WriteReply,
            19 => OpCode::InsertReply,
            20 => OpCode::DeleteReply,
            21 => OpCode::CasReply,
            22 => OpCode::StatReply,
            other => return Err(WireError::UnknownOpCode(other)),
        })
    }

    /// True for query opcodes (client → chain).
    pub fn is_query(self) -> bool {
        !self.is_reply()
    }

    /// True for reply opcodes (chain tail → client).
    pub fn is_reply(self) -> bool {
        matches!(
            self,
            OpCode::ReadReply
                | OpCode::WriteReply
                | OpCode::InsertReply
                | OpCode::DeleteReply
                | OpCode::CasReply
                | OpCode::StatReply
        )
    }

    /// True for operations that mutate switch state and therefore traverse
    /// the whole chain (write, insert, delete, CAS).
    pub fn is_mutation(self) -> bool {
        matches!(
            self,
            OpCode::Write | OpCode::Insert | OpCode::Delete | OpCode::Cas
        )
    }

    /// The reply opcode corresponding to a query opcode. Replies map to
    /// themselves so the conversion is idempotent.
    pub fn reply(self) -> Self {
        match self {
            OpCode::Read => OpCode::ReadReply,
            OpCode::Write => OpCode::WriteReply,
            OpCode::Insert => OpCode::InsertReply,
            OpCode::Delete => OpCode::DeleteReply,
            OpCode::Cas => OpCode::CasReply,
            OpCode::Stat => OpCode::StatReply,
            reply => reply,
        }
    }
}

/// Result status carried in replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryStatus {
    /// The operation was applied (or the read found the key).
    Ok,
    /// The key does not exist (read/write/delete of an absent key).
    NotFound,
    /// A CAS found a stored value different from the expected value.
    CasFailed,
    /// The switch declined the query (e.g. a stale write dropped by the
    /// sequence check, surfaced only in diagnostics — the data plane normally
    /// just drops such packets, Algorithm 1 line 13).
    Declined,
    /// The chain is being reconfigured and the query should be retried.
    Retry,
}

impl QueryStatus {
    /// Numeric value as carried on the wire.
    pub fn to_u8(self) -> u8 {
        match self {
            QueryStatus::Ok => 0,
            QueryStatus::NotFound => 1,
            QueryStatus::CasFailed => 2,
            QueryStatus::Declined => 3,
            QueryStatus::Retry => 4,
        }
    }

    /// Decodes the status byte.
    pub fn from_u8(v: u8) -> WireResult<Self> {
        Ok(match v {
            0 => QueryStatus::Ok,
            1 => QueryStatus::NotFound,
            2 => QueryStatus::CasFailed,
            3 => QueryStatus::Declined,
            4 => QueryStatus::Retry,
            other => return Err(WireError::UnknownStatus(other)),
        })
    }
}

/// The ordered list of remaining chain hops carried in a query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChainList(Vec<Ipv4Addr>);

impl ChainList {
    /// An empty chain list (the query is at its last hop).
    pub fn empty() -> Self {
        ChainList(Vec::new())
    }

    /// Builds a chain list, rejecting more than [`MAX_CHAIN_LEN`] hops.
    pub fn new(hops: impl Into<Vec<Ipv4Addr>>) -> WireResult<Self> {
        let hops = hops.into();
        if hops.len() > MAX_CHAIN_LEN {
            return Err(WireError::ChainTooLong(hops.len()));
        }
        Ok(ChainList(hops))
    }

    /// Number of remaining hops (the `SC` field).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no hops remain.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The next hop, if any, without removing it.
    pub fn peek(&self) -> Option<Ipv4Addr> {
        self.0.first().copied()
    }

    /// Removes and returns the next hop.
    pub fn pop_front(&mut self) -> Option<Ipv4Addr> {
        if self.0.is_empty() {
            None
        } else {
            Some(self.0.remove(0))
        }
    }

    /// All remaining hops in order.
    pub fn hops(&self) -> &[Ipv4Addr] {
        &self.0
    }

    /// Drops every remaining hop, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Replaces the hop list in place, keeping the existing allocation (the
    /// hot-path alternative to building a fresh [`ChainList`] per packet).
    /// `len` must already be validated against [`MAX_CHAIN_LEN`].
    pub fn refill(&mut self, hops: impl IntoIterator<Item = Ipv4Addr>) -> WireResult<()> {
        self.0.clear();
        self.0.extend(hops);
        if self.0.len() > MAX_CHAIN_LEN {
            let len = self.0.len();
            self.0.clear();
            return Err(WireError::ChainTooLong(len));
        }
        Ok(())
    }
}

/// Emits a NetChain header from borrowed fields into `out`, returning the
/// number of bytes written. The one place that knows the field layout on the
/// emit side: [`NetChainHeader::emit`] and the header-direct query encoder
/// ([`crate::packet::encode_query`]) both go through it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_header(
    out: &mut [u8],
    op: OpCode,
    status: QueryStatus,
    session: u16,
    seq: u64,
    request_id: u64,
    key: &Key,
    hops: &[Ipv4Addr],
    value: &[u8],
) -> WireResult<usize> {
    let needed = NETCHAIN_FIXED_HEADER_LEN + hops.len() * 4 + value.len();
    if out.len() < needed {
        return Err(WireError::BufferTooSmall {
            needed,
            available: out.len(),
        });
    }
    out[0] = op.to_u8();
    out[1] = status.to_u8();
    out[2..4].copy_from_slice(&session.to_be_bytes());
    out[4..12].copy_from_slice(&seq.to_be_bytes());
    out[12..20].copy_from_slice(&request_id.to_be_bytes());
    out[20..36].copy_from_slice(&key.0);
    out[36] = hops.len() as u8;
    out[37..39].copy_from_slice(&(value.len() as u16).to_be_bytes());
    let mut off = NETCHAIN_FIXED_HEADER_LEN;
    for hop in hops {
        out[off..off + 4].copy_from_slice(&hop.0);
        off += 4;
    }
    out[off..off + value.len()].copy_from_slice(value);
    Ok(off + value.len())
}

/// The parsed NetChain query/reply header plus payload fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetChainHeader {
    /// Operation or reply code.
    pub op: OpCode,
    /// Result status (meaningful in replies; `Ok` in queries).
    pub status: QueryStatus,
    /// Session number, bumped by the controller whenever a chain head is
    /// replaced. Ordering of writes is by `(session, seq)` lexicographically.
    pub session: u16,
    /// Per-key sequence number. Zero in client-issued writes; assigned by the
    /// chain head (Algorithm 1 lines 6–9).
    pub seq: u64,
    /// Client-chosen identifier echoed in the reply, used by the client agent
    /// to match responses to outstanding requests and to deduplicate retries.
    pub request_id: u64,
    /// The key.
    pub key: Key,
    /// Remaining chain hops after the current destination.
    pub chain: ChainList,
    /// The value (empty for reads and deletes).
    pub value: Value,
}

impl NetChainHeader {
    /// Builds a client-issued query with no sequence number assigned yet.
    pub fn query(op: OpCode, key: Key, value: Value, chain: ChainList, request_id: u64) -> Self {
        NetChainHeader {
            op,
            status: QueryStatus::Ok,
            session: 0,
            seq: 0,
            request_id,
            key,
            chain,
            value,
        }
    }

    /// Serialized length of this header in bytes.
    pub fn wire_len(&self) -> usize {
        NETCHAIN_FIXED_HEADER_LEN + self.chain.len() * 4 + self.value.len()
    }

    /// Emits the header into `out`, returning the number of bytes written.
    pub fn emit(&self, out: &mut [u8]) -> WireResult<usize> {
        emit_header(
            out,
            self.op,
            self.status,
            self.session,
            self.seq,
            self.request_id,
            &self.key,
            self.chain.hops(),
            self.value.as_bytes(),
        )
    }

    /// Parses a header from the front of `buf`, returning it plus the number
    /// of bytes consumed.
    pub fn parse(buf: &[u8]) -> WireResult<(Self, usize)> {
        if buf.len() < NETCHAIN_FIXED_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "netchain",
                needed: NETCHAIN_FIXED_HEADER_LEN,
                available: buf.len(),
            });
        }
        let op = OpCode::from_u8(buf[0])?;
        let status = QueryStatus::from_u8(buf[1])?;
        let session = u16::from_be_bytes([buf[2], buf[3]]);
        let mut seq_bytes = [0u8; 8];
        seq_bytes.copy_from_slice(&buf[4..12]);
        let seq = u64::from_be_bytes(seq_bytes);
        let mut rid_bytes = [0u8; 8];
        rid_bytes.copy_from_slice(&buf[12..20]);
        let request_id = u64::from_be_bytes(rid_bytes);
        let mut key = [0u8; KEY_LEN];
        key.copy_from_slice(&buf[20..36]);
        let sc = usize::from(buf[36]);
        if sc > MAX_CHAIN_LEN {
            return Err(WireError::ChainTooLong(sc));
        }
        let value_len = usize::from(u16::from_be_bytes([buf[37], buf[38]]));
        if value_len > MAX_VALUE_LEN {
            return Err(WireError::ValueTooLong(value_len));
        }
        let needed = NETCHAIN_FIXED_HEADER_LEN + sc * 4 + value_len;
        if buf.len() < needed {
            return Err(WireError::Truncated {
                layer: "netchain",
                needed,
                available: buf.len(),
            });
        }
        let mut off = NETCHAIN_FIXED_HEADER_LEN;
        let mut hops = Vec::with_capacity(sc);
        for _ in 0..sc {
            hops.push(Ipv4Addr([
                buf[off],
                buf[off + 1],
                buf[off + 2],
                buf[off + 3],
            ]));
            off += 4;
        }
        let value = Value::new(buf[off..off + value_len].to_vec())?;
        off += value_len;
        Ok((
            NetChainHeader {
                op,
                status,
                session,
                seq,
                request_id,
                key: Key(key),
                chain: ChainList(hops),
                value,
            },
            off,
        ))
    }

    /// Turns this query in place into the corresponding reply with the given
    /// status, clearing the chain list (its allocation stays, so a pooled
    /// packet remains warm). The reply carries whatever `value` holds; the
    /// sequence and session numbers are preserved so a client can observe
    /// version monotonicity.
    pub fn make_reply(&mut self, status: QueryStatus) {
        self.op = self.op.reply();
        self.status = status;
        self.chain.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> NetChainHeader {
        NetChainHeader {
            op: OpCode::Write,
            status: QueryStatus::Ok,
            session: 3,
            seq: 42,
            request_id: 0xdead_beef,
            key: Key::from_name("foo"),
            chain: ChainList::new(vec![Ipv4Addr::for_switch(1), Ipv4Addr::for_switch(2)]).unwrap(),
            value: Value::new(b"hello".to_vec()).unwrap(),
        }
    }

    #[test]
    fn key_from_name_short_and_long() {
        let short = Key::from_name("foo");
        assert_eq!(&short.0[..3], b"foo");
        assert_eq!(short.0[3..], [0u8; 13]);
        let long_a = Key::from_name("a-rather-long-key-name-aaaa");
        let long_b = Key::from_name("a-rather-long-key-name-aaab");
        assert_ne!(long_a, long_b);
    }

    #[test]
    fn key_u64_roundtrip_and_hash_stability() {
        let k = Key::from_u64(123456);
        assert_eq!(k.low_u64(), 123456);
        assert_eq!(k.stable_hash(), Key::from_u64(123456).stable_hash());
        assert_ne!(k.stable_hash(), Key::from_u64(123457).stable_hash());
    }

    #[test]
    fn value_limits_and_u64() {
        assert!(Value::new(vec![0u8; MAX_VALUE_LEN]).is_ok());
        assert!(matches!(
            Value::new(vec![0u8; MAX_VALUE_LEN + 1]).unwrap_err(),
            WireError::ValueTooLong(_)
        ));
        let v = Value::from_u64(99);
        assert_eq!(v.as_u64(), Some(99));
        assert_eq!(Value::empty().as_u64(), None);
    }

    #[test]
    fn opcode_roundtrip_and_classification() {
        for op in [
            OpCode::Read,
            OpCode::Write,
            OpCode::Insert,
            OpCode::Delete,
            OpCode::Cas,
            OpCode::Stat,
            OpCode::ReadReply,
            OpCode::WriteReply,
            OpCode::InsertReply,
            OpCode::DeleteReply,
            OpCode::CasReply,
            OpCode::StatReply,
        ] {
            assert_eq!(OpCode::from_u8(op.to_u8()).unwrap(), op);
            assert_eq!(op.is_query(), !op.is_reply());
            assert!(op.reply().is_reply());
        }
        assert!(OpCode::Write.is_mutation());
        assert!(OpCode::Cas.is_mutation());
        assert!(!OpCode::Read.is_mutation());
        assert!(!OpCode::Stat.is_mutation());
        assert_eq!(OpCode::Stat.reply(), OpCode::StatReply);
        assert!(matches!(
            OpCode::from_u8(0).unwrap_err(),
            WireError::UnknownOpCode(0)
        ));
    }

    #[test]
    fn status_roundtrip() {
        for s in [
            QueryStatus::Ok,
            QueryStatus::NotFound,
            QueryStatus::CasFailed,
            QueryStatus::Declined,
            QueryStatus::Retry,
        ] {
            assert_eq!(QueryStatus::from_u8(s.to_u8()).unwrap(), s);
        }
        assert!(QueryStatus::from_u8(77).is_err());
    }

    #[test]
    fn chain_list_operations() {
        let mut chain =
            ChainList::new(vec![Ipv4Addr::for_switch(1), Ipv4Addr::for_switch(2)]).unwrap();
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.peek(), Some(Ipv4Addr::for_switch(1)));
        assert_eq!(chain.pop_front(), Some(Ipv4Addr::for_switch(1)));
        assert_eq!(chain.pop_front(), Some(Ipv4Addr::for_switch(2)));
        assert_eq!(chain.pop_front(), None);
        assert!(ChainList::new(vec![Ipv4Addr::UNSPECIFIED; MAX_CHAIN_LEN + 1]).is_err());
    }

    #[test]
    fn header_roundtrip() {
        let hdr = sample_header();
        let mut buf = vec![0u8; hdr.wire_len()];
        let written = hdr.emit(&mut buf).unwrap();
        assert_eq!(written, hdr.wire_len());
        let (parsed, consumed) = NetChainHeader::parse(&buf).unwrap();
        assert_eq!(consumed, written);
        assert_eq!(parsed, hdr);
    }

    #[test]
    fn header_rejects_truncation() {
        let hdr = sample_header();
        let mut buf = vec![0u8; hdr.wire_len()];
        hdr.emit(&mut buf).unwrap();
        assert!(NetChainHeader::parse(&buf[..10]).is_err());
        assert!(NetChainHeader::parse(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn reply_conversion_clears_chain_and_sets_status() {
        let mut reply = sample_header();
        reply.value = Value::from_u64(7);
        reply.make_reply(QueryStatus::Ok);
        assert_eq!(reply.op, OpCode::WriteReply);
        assert!(reply.chain.is_empty());
        assert_eq!(reply.value.as_u64(), Some(7));
        assert_eq!(reply.seq, 42);
    }

    #[test]
    fn display_key_is_hex() {
        let k = Key::from_bytes([0xab; 16]);
        assert_eq!(k.to_string(), "ab".repeat(16));
    }
}
