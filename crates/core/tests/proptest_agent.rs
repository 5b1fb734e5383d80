//! The agent's outstanding-query table against a plain-`HashMap` model.
//!
//! The agent indexes its in-flight queries by `request_id & mask` in a table
//! that sizes itself from its concurrency, and moves a live entry that a
//! newer id lands on — a straggler — to a side map. Random interleavings of
//! issues (owned and in place), replies, duplicate replies, replies to ids
//! never issued and retry polls short of and past the timeout and the retry
//! budget, and a client pass's restamp of its last few issues, must leave it
//! indistinguishable from the obvious model: same completions and latencies,
//! same counters, same retransmissions in ascending id order, same deadline.
//! A restamp moves only the ids it covers, so no query is retransmitted
//! before its new stamp plus the timeout, a reply's latency runs from the new
//! stamp, and every other id, a straggler included, keeps its own. Every case
//! also holds its first query back while the ids go round the table at least
//! four times, so the straggler path retires, retransmits and abandons under
//! the same scrutiny.

use netchain_core::{AgentConfig, AgentCore, ChainDirectory, CompletedQuery, HashRing, KvOp};
use netchain_sim::{SimDuration, SimTime};
use netchain_wire::{
    Ipv4Addr, Key, NetChainPacket, NetChainView, PacketView, QueryStatus, Value, MAX_FRAME_LEN,
    MAX_VALUE_LEN,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::ops::Range;

const TIMEOUT_NS: u64 = 1_000;
const MAX_RETRIES: u32 = 2;
/// The most queries a case keeps in flight, the held one included: the
/// table then has at most `2 * MAX_WINDOW` slots.
const MAX_WINDOW: usize = 8;
/// Ids that must pass the held query before it is released: four times
/// round the largest table a case can grow.
const HELD_FOR_IDS: u64 = 4 * 2 * MAX_WINDOW as u64;
/// The first id of every case is the one held back.
const HELD: u64 = 1;
/// While it is, the clock moves by this much per issue and not otherwise:
/// two and a half timeouts over the hold, so the held query is retransmitted
/// twice from wherever the table keeps it and abandoned, if nobody answers
/// it, only once it is fair game again.
const HOLD_TICK_NS: u64 = 5 * TIMEOUT_NS / 2 / HELD_FOR_IDS;

#[derive(Debug, Clone)]
enum Move {
    /// Issue an op with a value of `len` bytes salted `salt`, through
    /// `begin_into` if `in_place`, else through `begin`.
    Begin {
        key: u64,
        len: usize,
        salt: u8,
        in_place: bool,
    },
    /// Answer the `pick`-th oldest outstanding query, from the borrowed
    /// view if `view`, else as an owned packet.
    Reply {
        pick: usize,
        status: u8,
        seq: u64,
        session: u16,
        view: bool,
    },
    /// Answer a query that has already completed or been abandoned.
    Duplicate { pick: usize },
    /// Answer an id the agent never issued (0 included).
    Unknown { ahead: u64 },
    /// Let `dt` nanoseconds pass, then poll the retry timers.
    Poll { dt: u64 },
    /// Stamp the last `n` queries issued from two readings, now and `span`
    /// nanoseconds later, as a client pass does, and let the time pass.
    Restamp { n: usize, span: u64 },
}

fn arb_step() -> impl Strategy<Value = Move> {
    let begin = || {
        (0..32u64, 0..=MAX_VALUE_LEN, any::<u8>(), any::<bool>()).prop_map(
            |(key, len, salt, in_place)| Move::Begin {
                key,
                len,
                salt,
                in_place,
            },
        )
    };
    let reply = || {
        (0..MAX_WINDOW, 0..3u8, 0..50u64, 0..3u16, any::<bool>()).prop_map(
            |(pick, status, seq, session, view)| Move::Reply {
                pick,
                status,
                seq,
                session,
                view,
            },
        )
    };
    prop_oneof![
        begin(),
        begin(),
        begin(),
        reply(),
        reply(),
        reply(),
        (0..64usize).prop_map(|pick| Move::Duplicate { pick }),
        (0..3u64).prop_map(|ahead| Move::Unknown { ahead }),
        // Mostly short of the timeout, sometimes well past it.
        (0..TIMEOUT_NS / 2).prop_map(|dt| Move::Poll { dt }),
        (0..TIMEOUT_NS * 3).prop_map(|dt| Move::Poll { dt }),
        (1..=2 * MAX_WINDOW, 0..TIMEOUT_NS).prop_map(|(n, span)| Move::Restamp { n, span }),
    ]
}

/// `len` bytes, none zero and no two neighbours equal, so a byte left over
/// from a slot's previous, longer value would show.
fn value(len: usize, salt: u8) -> Value {
    let bytes: Vec<u8> = (0..len)
        .map(|i| salt.wrapping_add(i as u8) | 0x80)
        .collect();
    Value::new(bytes).unwrap()
}

/// What the model keeps per in-flight query.
#[derive(Debug, Clone)]
struct Live {
    op: KvOp,
    first_sent: SimTime,
    last_sent: SimTime,
    retries: u32,
}

/// The agent's bookkeeping, done the obvious way.
#[derive(Debug, Default)]
struct Model {
    live: HashMap<u64, Live>,
    stale_replies: u64,
    retries: u64,
    abandoned: u64,
    completed: u64,
}

impl Model {
    /// The outcome of a reply to `id`: latency and retries, if it matches.
    fn reply(&mut self, now: SimTime, id: u64) -> Option<(Live, SimDuration)> {
        match self.live.remove(&id) {
            Some(entry) => {
                self.completed += 1;
                let latency = now.since(entry.first_sent);
                Some((entry, latency))
            }
            None => {
                self.stale_replies += 1;
                None
            }
        }
    }

    /// Ids retransmitted and ids abandoned at `now`, each ascending.
    fn poll(&mut self, now: SimTime) -> (Vec<u64>, Vec<u64>) {
        let mut expired: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, e)| now.since(e.last_sent).as_nanos() >= TIMEOUT_NS)
            .map(|(&id, _)| id)
            .collect();
        expired.sort_unstable();
        let (mut again, mut gone) = (Vec::new(), Vec::new());
        for id in expired {
            let entry = self.live.get_mut(&id).unwrap();
            if entry.retries >= MAX_RETRIES {
                self.live.remove(&id);
                self.abandoned += 1;
                gone.push(id);
            } else {
                entry.retries += 1;
                entry.last_sent = now;
                self.retries += 1;
                again.push(id);
            }
        }
        (again, gone)
    }

    /// The stamps a pass's two readings give the ids in `ids` still in
    /// flight and never retransmitted: the `i`-th of the range gets
    /// `from + (to − from)·i / n`.
    fn restamp(&mut self, ids: Range<u64>, from: SimTime, to: SimTime) -> Vec<(u64, SimTime)> {
        let n = ids.end - ids.start;
        let mut restamped = Vec::new();
        for (i, id) in ids.enumerate() {
            let Some(entry) = self.live.get_mut(&id).filter(|e| e.retries == 0) else {
                continue;
            };
            let at = from + SimDuration::from_nanos((to - from).as_nanos() * i as u64 / n);
            entry.first_sent = at;
            entry.last_sent = at;
            restamped.push((id, at));
        }
        restamped
    }

    fn deadline(&self) -> Option<SimTime> {
        self.live
            .values()
            .map(|e| e.last_sent + SimDuration::from_nanos(TIMEOUT_NS))
            .min()
    }

    /// The `pick`-th oldest id in flight, the held one left out while
    /// `holding`.
    fn pick(&self, pick: usize, holding: bool) -> Option<u64> {
        let mut ids: Vec<u64> = self
            .live
            .keys()
            .copied()
            .filter(|&id| !(holding && id == HELD))
            .collect();
        ids.sort_unstable();
        (!ids.is_empty()).then(|| ids[pick % ids.len()])
    }
}

fn agent() -> AgentCore {
    let switches: Vec<Ipv4Addr> = (0..4).map(Ipv4Addr::for_switch).collect();
    let dir = ChainDirectory::new(HashRing::new(switches, 25, 3, 5));
    let config = AgentConfig::new(Ipv4Addr::for_host(0))
        .with_timeout(SimDuration::from_nanos(TIMEOUT_NS))
        .with_max_retries(MAX_RETRIES);
    AgentCore::new(config, dir)
}

/// The reply a tail would send to `query`.
fn reply_to(query: &NetChainPacket, status: QueryStatus, seq: u64, session: u16) -> NetChainPacket {
    let mut pkt = query.clone();
    let tail = pkt.ip.dst;
    pkt.netchain.seq = seq;
    pkt.netchain.session = session;
    pkt.make_reply(tail, status);
    pkt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn outstanding_table_matches_a_hashmap(
        window in 2..=MAX_WINDOW,
        steps in proptest::collection::vec(arb_step(), 500..700),
    ) {
        let mut agent = agent();
        let mut model = Model::default();
        // Every query ever sent, by id, for replies and duplicates.
        let mut sent: HashMap<u64, NetChainPacket> = HashMap::new();
        let mut ops: HashMap<u64, KvOp> = HashMap::new();
        let mut held_resent = 0;
        let mut retired: Vec<u64> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut next_id = HELD;
        let mut held_through = 0u64;

        for step in steps {
            // While the first query is held back nobody answers it.
            let holding = next_id <= HELD + HELD_FOR_IDS;
            if model.live.contains_key(&HELD) {
                held_through = next_id - 1 - HELD;
            }
            match step {
                Move::Begin { key, len, salt, in_place } => {
                    if model.live.len() >= window {
                        continue;
                    }
                    let op = match len % 4 {
                        0 => KvOp::Read(Key::from_u64(key)),
                        1 => KvOp::Cas { key: Key::from_u64(key), expected: key, new: u64::from(salt) },
                        _ => KvOp::Write(Key::from_u64(key), value(len, salt)),
                    };
                    let (id, pkt) = if in_place {
                        let mut buf = [0u8; MAX_FRAME_LEN];
                        let locus = agent.directory().locate(&op.key());
                        let (id, n) = op.with_wire(|w| agent.begin_into(now, w, locus, &mut buf));
                        (id, PacketView::parse(&buf[..n]).unwrap().to_owned())
                    } else {
                        agent.begin(now, op.clone())
                    };
                    prop_assert_eq!(id, next_id);
                    next_id += 1;
                    ops.insert(id, op.clone());
                    model.live.insert(id, Live { op, first_sent: now, last_sent: now, retries: 0 });
                    if holding {
                        now += SimDuration::from_nanos(HOLD_TICK_NS);
                    }
                    sent.insert(id, pkt);
                }
                Move::Reply { pick, status, seq, session, view } => {
                    let Some(id) = model.pick(pick, holding) else { continue };
                    let status = [QueryStatus::Ok, QueryStatus::NotFound, QueryStatus::CasFailed]
                        [usize::from(status)];
                    let reply = reply_to(&sent[&id], status, seq, session);
                    let (entry, latency) = model.reply(now, id).expect("picked from the model");
                    retired.push(id);
                    if view {
                        let bytes = reply.payload_bytes();
                        let (parsed, _) = NetChainView::parse(&bytes).unwrap();
                        let done = agent.on_reply_view(now, &parsed).expect("in flight");
                        prop_assert_eq!(
                            (done.request_id, done.status, done.seq, done.session),
                            (id, status, seq, u64::from(session))
                        );
                        prop_assert_eq!((done.latency, done.retries), (latency, entry.retries));
                    } else {
                        let done = agent.on_reply(now, &reply).expect("in flight");
                        prop_assert_eq!(done, CompletedQuery {
                            request_id: id,
                            op: entry.op,
                            status: Some(status),
                            value: reply.netchain.value.clone(),
                            seq,
                            session: u64::from(session),
                            latency,
                            retries: entry.retries,
                        });
                    }
                }
                Move::Duplicate { pick } => {
                    if retired.is_empty() {
                        continue;
                    }
                    let id = retired[pick % retired.len()];
                    prop_assert!(model.reply(now, id).is_none());
                    let reply = reply_to(&sent[&id], QueryStatus::Ok, 1, 0);
                    prop_assert!(agent.on_reply(now, &reply).is_none(), "duplicate of {}", id);
                }
                Move::Unknown { ahead } => {
                    // 0, the next id to be issued, or one far beyond it.
                    let id = [0, next_id, next_id + 1_000_003][ahead as usize];
                    let Some(mut query) = sent.get(&HELD).cloned() else { continue };
                    query.netchain.request_id = id;
                    prop_assert!(model.reply(now, id).is_none());
                    let reply = reply_to(&query, QueryStatus::Ok, 1, 0);
                    prop_assert!(agent.on_reply(now, &reply).is_none(), "never issued: {}", id);
                }
                Move::Poll { dt } => {
                    if !holding {
                        now += SimDuration::from_nanos(dt);
                    }
                    let (again, gone) = model.poll(now);
                    held_resent += again.iter().filter(|&&id| id == HELD).count();
                    retired.extend(&gone);
                    let outcome = agent.poll_retries(now);
                    let resent: Vec<u64> =
                        outcome.retransmit.iter().map(|p| p.netchain.request_id).collect();
                    // Oldest first, whatever part of the table holds them.
                    prop_assert_eq!(&resent, &again);
                    for pkt in &outcome.retransmit {
                        prop_assert_eq!(pkt, &sent[&pkt.netchain.request_id]);
                    }
                    let abandoned: Vec<u64> =
                        outcome.abandoned.iter().map(|q| q.request_id).collect();
                    prop_assert_eq!(&abandoned, &gone);
                    for q in &outcome.abandoned {
                        prop_assert!(q.is_abandoned() && q.retries == MAX_RETRIES);
                        prop_assert_eq!(&q.op, &ops[&q.request_id]);
                    }
                }
                Move::Restamp { n, span } => {
                    let n = n.min((next_id - HELD) as usize);
                    // While the first query is held back, time moves only
                    // with issues.
                    let to = if holding { now } else { now + SimDuration::from_nanos(span) };
                    let expected = model.restamp(next_id - n as u64..next_id, now, to);
                    let mut restamped = Vec::new();
                    agent.restamp_last(n, now, to, |id, at| restamped.push((id, at)));
                    prop_assert_eq!(restamped, expected);
                    now = to;
                }
            }
            let stats = agent.stats();
            prop_assert_eq!(agent.outstanding(), model.live.len());
            prop_assert_eq!(
                (stats.stale_replies, stats.retries, stats.abandoned, stats.completed),
                (model.stale_replies, model.retries, model.abandoned, model.completed)
            );
            prop_assert_eq!(agent.next_retry_deadline(), model.deadline());
        }
        prop_assert!(
            held_through >= HELD_FOR_IDS && held_resent >= 1,
            "the held query saw {} newer ids and {} retransmissions",
            held_through,
            held_resent
        );
    }
}
