//! The two loops every live driver runs, once: a shard's *pump* (borrow a
//! burst out of an ingress ring → [`Shard::process_burst`] → write the
//! replies into the egress ring) and a client's (re-offer parked frames →
//! fill the window, encoding each query straight into its ring slot → match
//! the replies where they lie). [`crate::run_live`] and the live-controlled
//! runner in `netchain-livectl` both drive these; what differs between them
//! — control commands, deadlines, retransmission timers, slice accounting —
//! stays in their own loops, around the pump calls.
//!
//! A packet's bytes are written once per hop: the query by
//! [`ClientState::issue_drawn`] into the query ring's slot, where the shard
//! parses it; the reply by the shard's batch encoder, then once more into
//! the reply ring's slot, where the client matches it. Each side publishes
//! its ring once per pass, not per frame, and a frame is two cache lines of
//! its slot ([`Frame`] is line-aligned), so an op moves eight lines between
//! the cores. The client finds a reply's query by indexing, not hashing
//! (`netchain_core::agent`), and reads its clock twice per pass for what it
//! issues, not once per query: a fabric latency starts at a stamp spread
//! between those two readings ([`ClientPort::pump`]). Nothing here
//! allocates in steady state.

use crate::fabric::FabricConfig;
use crate::frame::Frame;
use crate::ring::{ring, Consumer, Producer};
use crate::shard::{shard_of_group, Shard};
use netchain_core::{ClientState, LinkFilter, Schedule};
use netchain_sim::SimTime;
use netchain_wire::{BatchEncoder, Ipv4Addr};
use std::collections::VecDeque;
use std::time::Duration;

/// Builds the rings of a fabric — one per (client, shard) pair and
/// direction, each holding `config.ring_capacity` frames — and hands every
/// client and every shard its ends.
pub fn connect(config: &FabricConfig) -> (Vec<ClientPort>, Vec<ShardPort>) {
    let mut clients: Vec<ClientPort> = (0..config.num_clients)
        .map(|_| ClientPort {
            tx: Vec::with_capacity(config.num_shards),
            rx: Vec::with_capacity(config.num_shards),
            parked: VecDeque::new(),
            burst: config.burst,
            filter: None,
        })
        .collect();
    let mut shards: Vec<ShardPort> = (0..config.num_shards)
        .map(|_| ShardPort {
            ingress: Vec::with_capacity(config.num_clients),
            egress: Vec::with_capacity(config.num_clients),
            replies: BatchEncoder::with_capacity(config.burst, 128),
            burst: config.burst,
        })
        .collect();
    for client in &mut clients {
        for shard in &mut shards {
            let (query_tx, query_rx) = ring::<Frame>(config.ring_capacity);
            let (reply_tx, reply_rx) = ring::<Frame>(config.ring_capacity);
            client.tx.push(query_tx);
            client.rx.push(reply_rx);
            shard.ingress.push(query_rx);
            shard.egress.push(reply_tx);
        }
    }
    (clients, shards)
}

/// A shard's ends of the rings: per client, the query ring it consumes and
/// the reply ring it produces.
pub struct ShardPort {
    ingress: Vec<Consumer<Frame>>,
    egress: Vec<Producer<Frame>>,
    replies: BatchEncoder,
    burst: usize,
}

impl ShardPort {
    /// One round over every client: processes up to a burst of queries out
    /// of each ingress ring, in place, and writes the replies into the
    /// matching egress ring, published once per burst. While an egress ring
    /// is full the pump yields and retries, unless `reader_gone(client)`
    /// says nobody will drain it any more, in which case the rest of that
    /// burst's replies are dropped. Returns the query frames it took.
    pub fn pump(&mut self, shard: &mut Shard, mut reader_gone: impl FnMut(usize) -> bool) -> u64 {
        let mut frames = 0;
        for (c, (ingress, egress)) in self.ingress.iter_mut().zip(&mut self.egress).enumerate() {
            let queries = ingress.run(self.burst);
            let got = queries.len();
            if got == 0 {
                continue;
            }
            self.replies.clear();
            shard.process_burst(queries.iter().map(|f| f.as_bytes()), &mut self.replies);
            // The burst is fully executed: give the slots back before
            // (possibly) waiting on the reply ring.
            ingress.release(got);
            frames += got as u64;
            'replies: for reply in self.replies.frames() {
                let slot = loop {
                    if let Some(slot) = egress.reserve() {
                        break slot;
                    }
                    // Full: let the client see what is already written, so
                    // that draining it makes room. The reply ring is sized
                    // for a full window, so this terminates once it does.
                    egress.publish();
                    if reader_gone(c) {
                        break 'replies;
                    }
                    std::thread::yield_now();
                };
                slot.set_bytes(reply).expect("replies fit in a frame");
                egress.commit();
            }
            egress.publish();
        }
        frames
    }

    /// True if every ingress ring is empty at the moment of the check.
    pub fn is_drained(&mut self) -> bool {
        self.ingress.iter_mut().all(|r| r.is_empty_now())
    }
}

/// A client's ends of the rings: per shard, the query ring it produces and
/// the reply ring it consumes, plus the frames that found their ring full.
pub struct ClientPort {
    tx: Vec<Producer<Frame>>,
    rx: Vec<Consumer<Frame>>,
    /// Frames waiting for room in their shard's ring, oldest first. Only
    /// retransmissions can put more than a window into a ring, so in a
    /// failure-free run this stays empty.
    parked: VecDeque<(usize, Frame)>,
    burst: usize,
    /// The link faults on this client's edges, if a schedule holds any
    /// ([`Self::impair`]). `None` costs a pass one branch.
    filter: Option<Box<LinkFilter>>,
}

/// What one [`ClientPort::pump`] pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientPass {
    /// Something moved: a frame went into a ring or replies came out.
    pub progressed: bool,
    /// Replies that matched an outstanding query.
    pub completed: u64,
}

impl ClientPort {
    /// Arms the port of client `id` with its part of a fault schedule: the
    /// `Link` ops on the edges between `Ipv4Addr::for_host(id)` and the
    /// shards (`Ipv4Addr::for_shard(s)`), either direction. They come into
    /// force by the clock [`Self::pump`] is handed, read as the offset from
    /// run start.
    pub fn impair(&mut self, id: u32, schedule: &Schedule) {
        let filter = LinkFilter::new(schedule, Ipv4Addr::for_host(id), |_| false);
        self.filter = Some(Box::new(filter)).filter(|f| !f.is_empty());
    }

    /// Hands `frame` to shard `s`: through the link filter while one is in
    /// force, into the ring if nothing is parked and it has room, behind the
    /// parked frames otherwise. Returns whether a frame went into the ring.
    fn offer(&mut self, s: usize, frame: Frame) -> bool {
        let ClientPort {
            tx, parked, filter, ..
        } = self;
        let mut pushed = false;
        let mut push = |frame: Frame| {
            if !parked.is_empty() {
                parked.push_back((s, frame));
            } else if let Err(back) = tx[s].push(frame) {
                parked.push_back((s, back));
            } else {
                pushed = true;
            }
        };
        match filter {
            Some(filter) if filter.active() => {
                filter.send(Ipv4Addr::for_shard(s as u32), frame.as_bytes(), |bytes| {
                    push(Frame::from_bytes(bytes).expect("it was a frame"));
                });
            }
            _ => push(frame),
        }
        pushed
    }

    /// One pass: re-offers parked frames, then — if `may_issue`, nothing is
    /// parked and the window is open — draws and issues queries, each
    /// encoded in its ring slot and all published together, then matches
    /// every reply waiting in the reply rings. `clock` is read once per reply
    /// run and twice for the issues, before the first draw and before the
    /// publish; the queries' stamps are spread evenly between the two, in
    /// issue order ([`ClientState::restamp_issued`]), so a latency starts no
    /// earlier than the pass began and no later than the shard can see it.
    pub fn pump(
        &mut self,
        client: &mut ClientState,
        may_issue: bool,
        mut clock: impl FnMut() -> SimTime,
    ) -> ClientPass {
        let mut pass = ClientPass::default();
        // Link faults: bring what is due into force once a pass; frames take
        // the filtered path only while an edge is impaired.
        let mut shaped = false;
        if let Some(filter) = &mut self.filter {
            filter.advance(Duration::from_nanos(clock().as_nanos()));
            shaped = filter.active();
        }
        while let Some((s, frame)) = self.parked.pop_front() {
            match self.tx[s].push(frame) {
                Ok(()) => pass.progressed = true,
                Err(back) => {
                    self.parked.push_front((s, back));
                    break;
                }
            }
        }
        let num_shards = self.tx.len();
        let (mut issued, mut from) = (0, None);
        while may_issue && self.parked.is_empty() && client.can_issue() {
            let stamp = *from.get_or_insert_with(&mut clock);
            let op = client.draw();
            let s = shard_of_group(op.group(), num_shards);
            match self.tx[s].reserve().filter(|_| !shaped) {
                Some(slot) => {
                    slot.encode_with(|buf| client.issue_drawn(stamp, &op, buf));
                    self.tx[s].commit();
                    pass.progressed = true;
                }
                None => {
                    let mut frame = Frame::default();
                    frame.encode_with(|buf| client.issue_drawn(stamp, &op, buf));
                    pass.progressed |= self.offer(s, frame);
                }
            }
            issued += 1;
        }
        if let Some(from) = from {
            client.restamp_issued(issued, from, clock());
        }
        for tx in &mut self.tx {
            tx.publish();
        }
        for (s, rx) in self.rx.iter_mut().enumerate() {
            let replies = rx.run(self.burst);
            let got = replies.len();
            if got == 0 {
                continue;
            }
            pass.progressed = true;
            let now = clock();
            let mut absorb = |bytes: &[u8]| u64::from(client.absorb_reply_at(now, bytes));
            match &mut self.filter {
                Some(filter) if shaped => {
                    let from = Ipv4Addr::for_shard(s as u32);
                    for reply in replies.iter() {
                        filter.recv(from, reply.as_bytes(), |b| pass.completed += absorb(b));
                    }
                }
                _ => {
                    for reply in replies.iter() {
                        pass.completed += absorb(reply.as_bytes());
                    }
                }
            }
            rx.release(got);
        }
        pass
    }

    /// Polls the client's retransmission timers at `now` and queues what is
    /// due behind anything already parked. Returns whether a frame went
    /// into a ring.
    pub fn retransmit(&mut self, client: &mut ClientState, now: SimTime) -> bool {
        let num_shards = self.tx.len();
        let mut pushed = false;
        for pkt in client.poll_retries_at(now) {
            let s = shard_of_group(client.group_of(&pkt.netchain.key), num_shards);
            let frame = Frame::from_packet(&pkt).expect("queries fit in a frame");
            pushed |= self.offer(s, frame);
        }
        pushed
    }

    /// True if frames are waiting for room in a ring.
    pub fn has_parked(&self) -> bool {
        !self.parked.is_empty()
    }
}
