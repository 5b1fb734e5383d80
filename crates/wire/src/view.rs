//! Zero-copy borrowed views over serialized NetChain packets, and a batch
//! encoder that emits many packets into one contiguous buffer.
//!
//! The owned parsers ([`NetChainHeader::parse`], `NetChainPacket::from_bytes`)
//! allocate for every packet: the chain hop list and the value each land in a
//! fresh `Vec`. That is fine for the discrete-event simulator, whose cost
//! model is virtual time, but it dominates the profile of the real-throughput
//! fabric (`netchain-fabric`), which parses millions of packets per second.
//! This module provides the fast path:
//!
//! * [`NetChainView`] / [`PacketView`] — validate-once, read-in-place
//!   decoders. All accessors are O(1) reads of big-endian fields from the
//!   borrowed byte slice; nothing is copied to the heap. The views perform
//!   exactly the same validation as the owned parsers (including the IPv4
//!   checksum), so `parse-view then to_owned` and `parse-owned` accept the
//!   same byte strings and produce equal headers — a property pinned down by
//!   `tests/proptest_view.rs`. [`PacketView::parse`] decodes layer by layer
//!   and is the reference for the readers that run one [`validate_frame`] and
//!   then read at fixed offsets: [`BatchView`] and [`NetChainView::of_frame`].
//! * [`BatchEncoder`] — appends whole packets back-to-back into one reusable
//!   buffer, so a burst of replies costs at most one (amortised) allocation
//!   instead of one `Vec` per packet.

use crate::error::{WireError, WireResult};
use crate::ethernet::{EtherType, EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
use crate::ipv4::{Ipv4Addr, Ipv4Header, Protocol, IPV4_HEADER_LEN};
use crate::netchain::{
    ChainList, Key, NetChainHeader, OpCode, QueryStatus, Value, KEY_LEN, MAX_CHAIN_LEN,
    MAX_VALUE_LEN, NETCHAIN_FIXED_HEADER_LEN, NETCHAIN_UDP_PORT,
};
use crate::packet::NetChainPacket;
use crate::udp::{UdpHeader, UDP_HEADER_LEN};

/// A borrowed, validated view of a serialized NetChain header.
///
/// Construction validates every fixed field plus the overall length, so the
/// accessors cannot fail and perform no further checks.
#[derive(Debug, Clone, Copy)]
pub struct NetChainView<'a> {
    /// Exactly the header's bytes: fixed part + chain + value.
    buf: &'a [u8],
    chain_len: usize,
    value_len: usize,
}

impl<'a> NetChainView<'a> {
    /// Parses a view from the front of `buf`, returning it plus the number of
    /// bytes consumed. Accepts exactly the inputs [`NetChainHeader::parse`]
    /// accepts.
    pub fn parse(buf: &'a [u8]) -> WireResult<(Self, usize)> {
        if buf.len() < NETCHAIN_FIXED_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "netchain",
                needed: NETCHAIN_FIXED_HEADER_LEN,
                available: buf.len(),
            });
        }
        // Validate the enum bytes once so accessors are infallible.
        OpCode::from_u8(buf[0])?;
        QueryStatus::from_u8(buf[1])?;
        let chain_len = usize::from(buf[36]);
        if chain_len > MAX_CHAIN_LEN {
            return Err(WireError::ChainTooLong(chain_len));
        }
        let value_len = usize::from(u16::from_be_bytes([buf[37], buf[38]]));
        if value_len > MAX_VALUE_LEN {
            return Err(WireError::ValueTooLong(value_len));
        }
        let needed = NETCHAIN_FIXED_HEADER_LEN + chain_len * 4 + value_len;
        if buf.len() < needed {
            return Err(WireError::Truncated {
                layer: "netchain",
                needed,
                available: buf.len(),
            });
        }
        Ok((
            NetChainView {
                buf: &buf[..needed],
                chain_len,
                value_len,
            },
            needed,
        ))
    }

    /// The NetChain header of a whole frame: one [`validate_frame`], then the
    /// header where it lies, with no L2–L4 decode. Equal to
    /// `PacketView::parse(frame).ok().map(|v| v.netchain)`.
    #[inline]
    pub fn of_frame(frame: &'a [u8]) -> Option<Self> {
        validate_frame(frame).then(|| Self::in_valid_frame(frame))
    }

    /// The header of a frame [`validate_frame`] admitted, read unchecked.
    #[inline]
    fn in_valid_frame(frame: &'a [u8]) -> Self {
        let chain_len = usize::from(frame[NC_OFF + 36]);
        let value_len = usize::from(u16::from_be_bytes([frame[NC_OFF + 37], frame[NC_OFF + 38]]));
        let needed = NETCHAIN_FIXED_HEADER_LEN + chain_len * 4 + value_len;
        NetChainView {
            buf: &frame[NC_OFF..NC_OFF + needed],
            chain_len,
            value_len,
        }
    }

    /// The operation / reply code.
    pub fn op(&self) -> OpCode {
        OpCode::from_u8(self.buf[0]).expect("validated by parse")
    }

    /// The reply status.
    pub fn status(&self) -> QueryStatus {
        QueryStatus::from_u8(self.buf[1]).expect("validated by parse")
    }

    /// The session number.
    pub fn session(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    /// The per-key sequence number.
    pub fn seq(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[4..12]);
        u64::from_be_bytes(b)
    }

    /// The client-chosen request id.
    pub fn request_id(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[12..20]);
        u64::from_be_bytes(b)
    }

    /// The key (a 16-byte copy on the stack, never on the heap).
    pub fn key(&self) -> Key {
        let mut k = [0u8; KEY_LEN];
        k.copy_from_slice(&self.buf[20..36]);
        Key::from_bytes(k)
    }

    /// Number of remaining chain hops.
    pub fn chain_len(&self) -> usize {
        self.chain_len
    }

    /// The `i`-th remaining chain hop (0 = next hop after the current
    /// destination). Returns `None` past the end.
    pub fn hop(&self, i: usize) -> Option<Ipv4Addr> {
        if i >= self.chain_len {
            return None;
        }
        let off = NETCHAIN_FIXED_HEADER_LEN + i * 4;
        Some(Ipv4Addr([
            self.buf[off],
            self.buf[off + 1],
            self.buf[off + 2],
            self.buf[off + 3],
        ]))
    }

    /// Iterates the remaining chain hops in order.
    pub fn hops(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        (0..self.chain_len).map(move |i| self.hop(i).expect("index bounded by chain_len"))
    }

    /// The value bytes, borrowed from the underlying buffer.
    pub fn value(&self) -> &'a [u8] {
        let start = NETCHAIN_FIXED_HEADER_LEN + self.chain_len * 4;
        &self.buf[start..start + self.value_len]
    }

    /// Serialized length of the viewed header.
    pub fn wire_len(&self) -> usize {
        self.buf.len()
    }

    /// The raw bytes the view covers.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.buf
    }

    /// Converts the view into an owned [`NetChainHeader`]. The only heap
    /// allocations are the chain list and (if non-empty) the value — for the
    /// read-query fast path both are empty and this allocates nothing.
    pub fn to_owned(&self) -> NetChainHeader {
        NetChainHeader {
            op: self.op(),
            status: self.status(),
            session: self.session(),
            seq: self.seq(),
            request_id: self.request_id(),
            key: self.key(),
            chain: ChainList::new(self.hops().collect::<Vec<_>>())
                .expect("chain length validated by parse"),
            value: Value::new(self.value().to_vec()).expect("value length validated by parse"),
        }
    }

    /// Writes the view into an existing [`NetChainHeader`], reusing its chain
    /// and value allocations. Steady state allocates nothing at all, even for
    /// writes — this is how the fabric's packet slab refills a retired slot.
    /// The result is identical to [`Self::to_owned`].
    pub fn write_into(&self, out: &mut NetChainHeader) {
        out.op = self.op();
        out.status = self.status();
        out.session = self.session();
        out.seq = self.seq();
        out.request_id = self.request_id();
        out.key = self.key();
        out.chain
            .refill(self.hops())
            .expect("chain length validated by parse");
        out.value
            .set_bytes(self.value())
            .expect("value length validated by parse");
    }
}

/// A borrowed, validated view of a full serialized NetChain packet
/// (Ethernet + IPv4 + UDP + NetChain header).
///
/// The L2–L4 headers are tiny fixed-size structs, so the view decodes them
/// eagerly (stack copies, no heap); the variable-length NetChain payload
/// stays borrowed behind a [`NetChainView`].
#[derive(Debug, Clone, Copy)]
pub struct PacketView<'a> {
    /// Decoded Ethernet header.
    pub eth: EthernetHeader,
    /// Decoded IPv4 header (checksum verified).
    pub ip: Ipv4Header,
    /// Decoded UDP header.
    pub udp: UdpHeader,
    /// Borrowed view of the NetChain payload.
    pub netchain: NetChainView<'a>,
}

impl<'a> PacketView<'a> {
    /// Parses a packet view, performing the same validation as
    /// `NetChainPacket::from_bytes`.
    pub fn parse(buf: &'a [u8]) -> WireResult<Self> {
        let (eth, mut off) = EthernetHeader::parse(buf)?;
        let (ip, used) = Ipv4Header::parse(&buf[off..])?;
        off += used;
        let (udp, used) = UdpHeader::parse(&buf[off..])?;
        off += used;
        let (netchain, _) = NetChainView::parse(&buf[off..])?;
        Ok(PacketView {
            eth,
            ip,
            udp,
            netchain,
        })
    }

    /// True if this is a NetChain query or reply (reserved port either way).
    pub fn is_netchain(&self) -> bool {
        self.udp.dst_port == NETCHAIN_UDP_PORT || self.udp.src_port == NETCHAIN_UDP_PORT
    }

    /// Converts to a fully owned [`NetChainPacket`].
    pub fn to_owned(&self) -> NetChainPacket {
        NetChainPacket {
            eth: self.eth,
            ip: self.ip,
            udp: self.udp,
            netchain: self.netchain.to_owned(),
        }
    }

    /// Writes the view into an existing [`NetChainPacket`], reusing its heap
    /// allocations (see [`NetChainView::write_into`]). Equal to
    /// [`Self::to_owned`] in every field.
    pub fn to_owned_into(&self, out: &mut NetChainPacket) {
        out.eth = self.eth;
        out.ip = self.ip;
        out.udp = self.udp;
        self.netchain.write_into(&mut out.netchain);
    }
}

/// Minimum length in bytes of any frame [`PacketView::parse`] can accept:
/// Ethernet (14) + IPv4 with IHL 5 (20) + UDP (8) + the fixed NetChain
/// header (39). Shorter inputs are rejected by some layer unconditionally,
/// which is what lets [`validate_frame`] replace the per-layer length checks
/// with this single gate.
pub const MIN_FRAME_LEN: usize =
    ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + NETCHAIN_FIXED_HEADER_LEN;

/// Lanes per staged parse batch: the burst size of the fabric's shards.
pub const BATCH_WIDTH: usize = 32;

// Frame-absolute offsets of the fields stage 1 touches. The IPv4 header
// starts at 14, UDP at 34 and the NetChain payload at 42; all NetChain
// payload offsets below are those of `NetChainView` plus 42.
const IP_OFF: usize = ETHERNET_HEADER_LEN;
const UDP_OFF: usize = IP_OFF + IPV4_HEADER_LEN;
const NC_OFF: usize = UDP_OFF + UDP_HEADER_LEN;

/// 256-entry opcode-byte validity table (`OpCode::from_u8` as a lookup, so
/// stage 1 validates without a branch).
const OP_VALID: [bool; 256] = {
    let mut t = [false; 256];
    // Queries 1–6, replies 17–22 — exactly the bytes OpCode::from_u8 accepts
    // (6/22 are the in-band Stat probe and its reply).
    let mut v = 1;
    while v <= 6 {
        t[v] = true;
        t[v + 16] = true;
        v += 1;
    }
    t
};

/// 256-entry status-byte validity table (`QueryStatus::from_u8` as a lookup).
const STATUS_VALID: [bool; 256] = {
    let mut t = [false; 256];
    let mut v = 0;
    while v <= 4 {
        t[v] = true;
        v += 1;
    }
    t
};

/// Validates one frame against exactly the accept set of
/// [`PacketView::parse`], replacing the per-layer, per-field early returns
/// with a single length gate plus one accumulated error mask: every check
/// contributes a bit and the frame is valid iff the mask stays zero. The
/// equivalence (including the IPv4 checksum comparison and the trailing
/// chain+value length check) is pinned by `tests/proptest_view.rs`.
#[inline]
pub fn validate_frame(buf: &[u8]) -> bool {
    if buf.len() < MIN_FRAME_LEN {
        return false;
    }
    // IPv4: version 4 + IHL 5 means the first header byte must be 0x45.
    let mut bad = u32::from(buf[IP_OFF] != 0x45);
    bad |= u32::from(u16::from_be_bytes([buf[IP_OFF + 2], buf[IP_OFF + 3]]) < 20);
    // Internet checksum of the header with its checksum field zeroed — the
    // nine non-checksum words at fixed offsets — compared for exact
    // equality with the carried field, as Ipv4Header::parse does.
    const IP_WORDS: [usize; 9] = [
        IP_OFF,
        IP_OFF + 2,
        IP_OFF + 4,
        IP_OFF + 6,
        IP_OFF + 8,
        IP_OFF + 12,
        IP_OFF + 14,
        IP_OFF + 16,
        IP_OFF + 18,
    ];
    let mut sum: u32 = 0;
    for off in IP_WORDS {
        sum += u32::from(u16::from_be_bytes([buf[off], buf[off + 1]]));
    }
    // Two folds suffice: nine 16-bit words sum to at most 0x8fff7.
    sum = (sum & 0xffff) + (sum >> 16);
    sum = (sum & 0xffff) + (sum >> 16);
    let computed = !(sum as u16);
    let carried = u16::from_be_bytes([buf[IP_OFF + 10], buf[IP_OFF + 11]]);
    bad |= u32::from(computed != carried);
    // UDP: the length field must cover its own header.
    bad |= u32::from(u16::from_be_bytes([buf[UDP_OFF + 4], buf[UDP_OFF + 5]]) < 8);
    // NetChain: enum bytes via lookup, bounded chain and value, and the one
    // data-dependent length check.
    bad |= u32::from(!OP_VALID[usize::from(buf[NC_OFF])]);
    bad |= u32::from(!STATUS_VALID[usize::from(buf[NC_OFF + 1])]);
    let chain_len = usize::from(buf[NC_OFF + 36]);
    bad |= u32::from(chain_len > MAX_CHAIN_LEN);
    let value_len = usize::from(u16::from_be_bytes([buf[NC_OFF + 37], buf[NC_OFF + 38]]));
    bad |= u32::from(value_len > MAX_VALUE_LEN);
    bad |= u32::from(buf.len() < NC_OFF + NETCHAIN_FIXED_HEADER_LEN + chain_len * 4 + value_len);
    bad == 0
}

/// Structure-of-arrays scratch filled by the stage-1 batch parse: one lane
/// per frame, parallel arrays so the later pipeline stages (batched key
/// hashing, index probing) sweep a single field across all lanes instead of
/// hopping between per-packet structs.
#[derive(Debug, Clone)]
pub struct ParsedBatch {
    len: usize,
    /// Bit `i` set ⇔ frame `i` passed [`validate_frame`].
    valid: u32,
    /// Bit `i` set ⇔ frame `i` is valid **and** carries the NetChain UDP
    /// port (either direction), i.e. `PacketView::is_netchain` holds.
    netchain: u32,
    ops: [u8; BATCH_WIDTH],
    srcs: [u32; BATCH_WIDTH],
    dsts: [u32; BATCH_WIDTH],
    seqs: [u64; BATCH_WIDTH],
    request_ids: [u64; BATCH_WIDTH],
    vlens: [u16; BATCH_WIDTH],
    keys: [[u8; KEY_LEN]; BATCH_WIDTH],
}

impl ParsedBatch {
    /// Number of lanes (frames) in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if lane `i` passed validation.
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.valid & (1 << i) != 0
    }

    /// True if lane `i` is valid and addressed to/from the NetChain port.
    pub fn is_netchain(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.netchain & (1 << i) != 0
    }

    /// Lanes that failed validation (the scalar path's `parse_errors`).
    pub fn invalid_count(&self) -> usize {
        self.len - (self.valid.count_ones() as usize)
    }

    /// The opcode byte of lane `i` (zero for invalid lanes).
    pub fn op(&self, i: usize) -> u8 {
        self.ops[i]
    }

    /// The source IP of lane `i` as a big-endian u32.
    pub fn src(&self, i: usize) -> u32 {
        self.srcs[i]
    }

    /// The destination IP of lane `i` as a big-endian u32.
    pub fn dst(&self, i: usize) -> u32 {
        self.dsts[i]
    }

    /// The sequence number of lane `i`.
    pub fn seq(&self, i: usize) -> u64 {
        self.seqs[i]
    }

    /// The request id of lane `i`.
    pub fn request_id(&self, i: usize) -> u64 {
        self.request_ids[i]
    }

    /// The carried value length of lane `i` in bytes (zero for invalid
    /// lanes and for pure read queries).
    pub fn value_len(&self, i: usize) -> usize {
        usize::from(self.vlens[i])
    }

    /// The key bytes of lane `i`.
    pub fn key(&self, i: usize) -> Key {
        Key::from_bytes(self.keys[i])
    }

    /// All key lanes as one dense array slice — the input of the batched
    /// hash stage (invalid lanes hold zeroed keys; harmless to hash).
    pub fn keys(&self) -> &[[u8; KEY_LEN]] {
        &self.keys[..self.len]
    }
}

/// Validates and field-extracts up to [`BATCH_WIDTH`] frames into a
/// [`ParsedBatch`] — stage 1 of the staged shard pipeline.
pub fn validate_batch(frames: &[&[u8]]) -> ParsedBatch {
    assert!(frames.len() <= BATCH_WIDTH, "batch wider than BATCH_WIDTH");
    let mut batch = ParsedBatch {
        len: frames.len(),
        valid: 0,
        netchain: 0,
        ops: [0; BATCH_WIDTH],
        srcs: [0; BATCH_WIDTH],
        dsts: [0; BATCH_WIDTH],
        seqs: [0; BATCH_WIDTH],
        request_ids: [0; BATCH_WIDTH],
        vlens: [0; BATCH_WIDTH],
        keys: [[0; KEY_LEN]; BATCH_WIDTH],
    };
    for (i, buf) in frames.iter().enumerate() {
        if !validate_frame(buf) {
            continue;
        }
        batch.valid |= 1 << i;
        let nc_port = NETCHAIN_UDP_PORT.to_be_bytes();
        if buf[UDP_OFF..UDP_OFF + 2] == nc_port || buf[UDP_OFF + 2..UDP_OFF + 4] == nc_port {
            batch.netchain |= 1 << i;
        }
        batch.ops[i] = buf[NC_OFF];
        batch.srcs[i] = u32::from_be_bytes(buf[IP_OFF + 12..IP_OFF + 16].try_into().unwrap());
        batch.dsts[i] = u32::from_be_bytes(buf[IP_OFF + 16..IP_OFF + 20].try_into().unwrap());
        batch.seqs[i] = u64::from_be_bytes(buf[NC_OFF + 4..NC_OFF + 12].try_into().unwrap());
        batch.request_ids[i] =
            u64::from_be_bytes(buf[NC_OFF + 12..NC_OFF + 20].try_into().unwrap());
        batch.vlens[i] = u16::from_be_bytes([buf[NC_OFF + 37], buf[NC_OFF + 38]]);
        batch.keys[i].copy_from_slice(&buf[NC_OFF + 20..NC_OFF + 36]);
    }
    batch
}

/// A batch of frames validated branch-free into a structure-of-arrays
/// scratch, with on-demand zero-copy [`PacketView`]s for the lanes that need
/// the full packet (mutations, transits — anything off the fast read lane).
#[derive(Debug)]
pub struct BatchView<'s, 'a> {
    frames: &'s [&'a [u8]],
    batch: ParsedBatch,
}

impl<'s, 'a> BatchView<'s, 'a> {
    /// Runs stage 1 ([`validate_batch`]) over up to [`BATCH_WIDTH`] frames.
    pub fn parse(frames: &'s [&'a [u8]]) -> Self {
        BatchView {
            frames,
            batch: validate_batch(frames),
        }
    }

    /// The structure-of-arrays parse results.
    pub fn batch(&self) -> &ParsedBatch {
        &self.batch
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// True if the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// True if lane `i` passed validation.
    pub fn is_valid(&self, i: usize) -> bool {
        self.batch.is_valid(i)
    }

    /// The raw bytes of lane `i`.
    pub fn frame(&self, i: usize) -> &'a [u8] {
        self.frames[i]
    }

    /// Constructs the full [`PacketView`] of a **valid** lane without
    /// re-validating: the field decodes are plain fixed-offset reads, legal
    /// because [`validate_frame`] already admitted the frame. Produces
    /// exactly what `PacketView::parse` would (pinned by the proptest
    /// differential).
    ///
    /// # Panics
    /// If lane `i` failed validation.
    pub fn view(&self, i: usize) -> PacketView<'a> {
        assert!(self.batch.is_valid(i), "lane {i} failed validation");
        let b = self.frames[i];
        let eth = EthernetHeader {
            dst: MacAddr(b[0..6].try_into().unwrap()),
            src: MacAddr(b[6..12].try_into().unwrap()),
            ethertype: EtherType::from_u16(u16::from_be_bytes([b[12], b[13]])),
        };
        let ip = Ipv4Header {
            dscp_ecn: b[IP_OFF + 1],
            total_len: u16::from_be_bytes([b[IP_OFF + 2], b[IP_OFF + 3]]),
            identification: u16::from_be_bytes([b[IP_OFF + 4], b[IP_OFF + 5]]),
            ttl: b[IP_OFF + 8],
            protocol: Protocol::from_u8(b[IP_OFF + 9]),
            src: Ipv4Addr(b[IP_OFF + 12..IP_OFF + 16].try_into().unwrap()),
            dst: Ipv4Addr(b[IP_OFF + 16..IP_OFF + 20].try_into().unwrap()),
        };
        let udp = UdpHeader {
            src_port: u16::from_be_bytes([b[UDP_OFF], b[UDP_OFF + 1]]),
            dst_port: u16::from_be_bytes([b[UDP_OFF + 2], b[UDP_OFF + 3]]),
            length: u16::from_be_bytes([b[UDP_OFF + 4], b[UDP_OFF + 5]]),
            checksum: u16::from_be_bytes([b[UDP_OFF + 6], b[UDP_OFF + 7]]),
        };
        PacketView {
            eth,
            ip,
            udp,
            netchain: NetChainView::in_valid_frame(b),
        }
    }
}

/// Emits many packets back-to-back into one reusable contiguous buffer.
///
/// `clear()` + repeated `push()` per burst keeps the buffer's capacity, so a
/// steady-state shard produces entire reply bursts without touching the
/// allocator (the `Vec` grows to the high-water mark once and stays there).
#[derive(Debug, Default)]
pub struct BatchEncoder {
    buf: Vec<u8>,
    /// Frame boundaries: `ends[i]` is the exclusive end of frame `i`.
    ends: Vec<usize>,
}

impl BatchEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with buffer capacity for roughly `frames` packets
    /// of `bytes_per_frame` bytes.
    pub fn with_capacity(frames: usize, bytes_per_frame: usize) -> Self {
        BatchEncoder {
            buf: Vec::with_capacity(frames * bytes_per_frame),
            ends: Vec::with_capacity(frames),
        }
    }

    /// Appends one packet, returning its frame index.
    pub fn push(&mut self, pkt: &NetChainPacket) -> WireResult<usize> {
        let start = self.buf.len();
        let size = pkt.wire_size();
        self.buf.resize(start + size, 0);
        let written = pkt.emit_into(&mut self.buf[start..])?;
        debug_assert_eq!(written, size);
        self.ends.push(start + written);
        Ok(self.ends.len() - 1)
    }

    /// Appends one frame of exactly `len` bytes, handing the caller a zeroed
    /// slice to fill in place. Returns the frame index. This is the
    /// header-direct emission path of the staged pipeline: no owned packet is
    /// ever constructed.
    pub fn push_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> usize {
        let start = self.buf.len();
        self.buf.resize(start + len, 0);
        fill(&mut self.buf[start..]);
        self.ends.push(start + len);
        self.ends.len() - 1
    }

    /// Emits the reply to a validated read-**query** frame straight from the
    /// query's bytes plus the stored `(status, session, seq, value)`, without
    /// constructing an owned packet. `fill_value` receives exactly
    /// `value_len` bytes to fill (it is not called when `value_len` is 0).
    ///
    /// Byte-for-byte identical to the scalar path's
    /// `NetChainPacket::make_reply` + `BatchEncoder::push`: the Ethernet
    /// header, IP dscp/identification/ttl/protocol, and the UDP checksum are
    /// echoed from the query; IP src/dst and the UDP ports are swapped in;
    /// lengths and the IP checksum are recomputed; the NetChain header
    /// carries the reply opcode, cleared chain, and the stored ordering
    /// state. The caller must pass a frame whose opcode is a query.
    #[allow(clippy::too_many_arguments)]
    pub fn push_read_reply(
        &mut self,
        query: &[u8],
        responder: Ipv4Addr,
        status: QueryStatus,
        session: u16,
        seq: u64,
        value_len: usize,
        fill_value: impl FnOnce(&mut [u8]),
    ) -> usize {
        debug_assert!(validate_frame(query), "query frame must be validated");
        debug_assert!(value_len <= MAX_VALUE_LEN);
        self.push_with(MIN_FRAME_LEN + value_len, |out| {
            // L2 echoed verbatim (make_reply never touches it).
            out[..ETHERNET_HEADER_LEN].copy_from_slice(&query[..ETHERNET_HEADER_LEN]);
            // IPv4: addresses swapped (responder → querying client), flags
            // and fragment offset zeroed as Ipv4Header::emit always does.
            out[IP_OFF] = 0x45;
            out[IP_OFF + 1] = query[IP_OFF + 1];
            let total_len =
                (IPV4_HEADER_LEN + UDP_HEADER_LEN + NETCHAIN_FIXED_HEADER_LEN + value_len) as u16;
            out[IP_OFF + 2..IP_OFF + 4].copy_from_slice(&total_len.to_be_bytes());
            out[IP_OFF + 4..IP_OFF + 6].copy_from_slice(&query[IP_OFF + 4..IP_OFF + 6]);
            out[IP_OFF + 6] = 0;
            out[IP_OFF + 7] = 0;
            out[IP_OFF + 8] = query[IP_OFF + 8];
            out[IP_OFF + 9] = query[IP_OFF + 9];
            out[IP_OFF + 10] = 0;
            out[IP_OFF + 11] = 0;
            out[IP_OFF + 12..IP_OFF + 16].copy_from_slice(&responder.0);
            out[IP_OFF + 16..IP_OFF + 20].copy_from_slice(&query[IP_OFF + 12..IP_OFF + 16]);
            let csum = Ipv4Header::checksum(&out[IP_OFF..IP_OFF + IPV4_HEADER_LEN]);
            out[IP_OFF + 10..IP_OFF + 12].copy_from_slice(&csum.to_be_bytes());
            // UDP: ports swapped, length recomputed, checksum echoed.
            out[UDP_OFF..UDP_OFF + 2].copy_from_slice(&query[UDP_OFF + 2..UDP_OFF + 4]);
            out[UDP_OFF + 2..UDP_OFF + 4].copy_from_slice(&query[UDP_OFF..UDP_OFF + 2]);
            let udp_len = (UDP_HEADER_LEN + NETCHAIN_FIXED_HEADER_LEN + value_len) as u16;
            out[UDP_OFF + 4..UDP_OFF + 6].copy_from_slice(&udp_len.to_be_bytes());
            out[UDP_OFF + 6..UDP_OFF + 8].copy_from_slice(&query[UDP_OFF + 6..UDP_OFF + 8]);
            // NetChain: reply opcode, stored ordering, echoed request id and
            // key, empty chain, stored value.
            out[NC_OFF] = OpCode::from_u8(query[NC_OFF])
                .expect("validated opcode")
                .reply()
                .to_u8();
            out[NC_OFF + 1] = status.to_u8();
            out[NC_OFF + 2..NC_OFF + 4].copy_from_slice(&session.to_be_bytes());
            out[NC_OFF + 4..NC_OFF + 12].copy_from_slice(&seq.to_be_bytes());
            out[NC_OFF + 12..NC_OFF + 36].copy_from_slice(&query[NC_OFF + 12..NC_OFF + 36]);
            out[NC_OFF + 36] = 0;
            out[NC_OFF + 37..NC_OFF + 39].copy_from_slice(&(value_len as u16).to_be_bytes());
            if value_len > 0 {
                fill_value(&mut out[NC_OFF + 39..NC_OFF + 39 + value_len]);
            }
        })
    }

    /// Number of frames currently buffered.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if no frames are buffered.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The bytes of frame `i`.
    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.buf[start..self.ends[i]]
    }

    /// Iterates all buffered frames in push order.
    pub fn frames(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(move |i| self.frame(i))
    }

    /// Total buffered bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Clears the frames while keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.ends.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netchain::{ChainList, OpCode, Value};

    fn sample_packet(value_len: usize, hops: usize) -> NetChainPacket {
        NetChainPacket::query(
            Ipv4Addr::for_host(3),
            40_000,
            Ipv4Addr::for_switch(0),
            OpCode::Write,
            Key::from_name("view/key"),
            Value::filled(0x5a, value_len).unwrap(),
            ChainList::new(
                (1..=hops as u32)
                    .map(Ipv4Addr::for_switch)
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
            77,
        )
    }

    #[test]
    fn view_matches_owned_parser() {
        let pkt = sample_packet(32, 2);
        let bytes = pkt.to_bytes();
        let view = PacketView::parse(&bytes).unwrap();
        assert!(view.is_netchain());
        assert_eq!(view.ip.dst, pkt.ip.dst);
        assert_eq!(view.netchain.op(), OpCode::Write);
        assert_eq!(view.netchain.key(), pkt.netchain.key);
        assert_eq!(view.netchain.seq(), pkt.netchain.seq);
        assert_eq!(view.netchain.request_id(), 77);
        assert_eq!(view.netchain.chain_len(), 2);
        assert_eq!(
            view.netchain.hops().collect::<Vec<_>>(),
            pkt.netchain.chain.hops()
        );
        assert_eq!(view.netchain.value(), pkt.netchain.value.as_bytes());
        assert_eq!(view.to_owned(), pkt);
    }

    #[test]
    fn view_rejects_truncation_like_owned_parser() {
        let pkt = sample_packet(16, 1);
        let payload = pkt.payload_bytes();
        for cut in 0..payload.len() {
            let view_err = NetChainView::parse(&payload[..cut]).is_err();
            let owned_err = NetChainHeader::parse(&payload[..cut]).is_err();
            assert_eq!(view_err, owned_err, "divergence at cut {cut}");
            assert!(view_err, "truncated input accepted at cut {cut}");
        }
    }

    #[test]
    fn view_rejects_bad_enum_bytes() {
        let pkt = sample_packet(0, 0);
        let mut payload = pkt.payload_bytes();
        payload[0] = 0xfe;
        assert!(matches!(
            NetChainView::parse(&payload).unwrap_err(),
            WireError::UnknownOpCode(0xfe)
        ));
        let mut payload = pkt.payload_bytes();
        payload[1] = 0x77;
        assert!(matches!(
            NetChainView::parse(&payload).unwrap_err(),
            WireError::UnknownStatus(0x77)
        ));
    }

    #[test]
    fn batch_encoder_roundtrips_frames() {
        let mut enc = BatchEncoder::with_capacity(8, 128);
        let pkts: Vec<NetChainPacket> = (0..5).map(|i| sample_packet(i * 8, i % 3)).collect();
        for p in &pkts {
            enc.push(p).unwrap();
        }
        assert_eq!(enc.len(), 5);
        for (frame, pkt) in enc.frames().zip(&pkts) {
            assert_eq!(&PacketView::parse(frame).unwrap().to_owned(), pkt);
        }
        let cap = enc.byte_len();
        enc.clear();
        assert!(enc.is_empty());
        assert_eq!(enc.byte_len(), 0);
        let _ = cap;
    }
}
