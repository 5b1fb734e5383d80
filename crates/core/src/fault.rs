//! The one fault vocabulary: *what* breaks and *when*, as data.
//!
//! A [`Schedule`] is a seed and a time-ordered list of [`FaultOp`]s. Like the
//! op lists of [`crate::failplan`] it has no opinion on how it is carried
//! out; four executors only *deliver* it: `NetChainCluster::inject` lowers
//! it onto simulator events; the replay fabric applies one op at a time
//! (`ReplayFabric::apply`, or off a reactor's agenda); the live runner's
//! controller sends `Kill`, `Revive` and `Stall` down the shards' control
//! rings when their time comes, while every client port filters its own
//! edges; a net worker stalls itself and filters its socket's datagrams. The
//! reactions to a kill, and when they come, are [`crate::reactor`]'s.
//!
//! Every random decision (drop, duplicate, reorder) is drawn from a generator
//! seeded by [`Schedule::seed`] and owned by the executor: the simulator's
//! own, one per [`LinkFilter`] elsewhere. Same schedule, same verdicts.

use netchain_wire::Ipv4Addr;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// One fault. Switches, hosts and shards are all named by address
/// (`Ipv4Addr::for_switch` / `for_host` / `for_shard`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultOp {
    /// Fail-stop (§5): the switch stops serving and its state freezes. The
    /// controller notices after its detection delay and reacts with
    /// Algorithm 2, then Algorithm 3, once per kill.
    Kill(Ipv4Addr),
    /// The switch comes back **empty and inactive** (`NetChainSwitch::wipe` +
    /// `SetActive(false)`): it serves nothing, and traffic addressed to it
    /// keeps following its neighbours' rules, until Algorithm 3 activates it.
    /// It is free to be picked as a replacement.
    Revive(Ipv4Addr),
    /// Slow but alive: the target keeps its state and its queues and accepts
    /// and emits nothing for the duration. In the simulator the target is a
    /// node; on the fabric and in the net mode what stalls is the hosting
    /// thread, so a switch address stalls every shard (each hosts a slice of
    /// it) and a shard address that one.
    Stall(Ipv4Addr, Duration),
    /// From now on the directed edge `from → to` drops, duplicates and
    /// reorders (holds a frame back behind its successor) with these
    /// probabilities; all zero heals it, `drop: 1.0` one way is an asymmetric
    /// partition. In the simulator an edge is a link between adjacent nodes;
    /// on the fabric and in the net mode it is a client ↔ shard edge (a ring,
    /// a socket), because in-shard chain hops are waves, not links.
    #[allow(missing_docs)]
    Link {
        from: Ipv4Addr,
        to: Ipv4Addr,
        drop: f64,
        dup: f64,
        reorder: f64,
    },
}

impl std::fmt::Display for FaultOp {
    /// `kill 10.0.0.1`, `link 10.1.0.0>10.2.0.0`: the op's name in a journal.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultOp::Kill(ip) => write!(f, "kill {ip}"),
            FaultOp::Revive(ip) => write!(f, "revive {ip}"),
            FaultOp::Stall(ip, dur) => write!(f, "stall {ip} {dur:?}"),
            FaultOp::Link { from, to, .. } => write!(f, "link {from}>{to}"),
        }
    }
}

/// Inserts `item` at `at` into a time-ordered agenda, behind whatever is
/// already there for the same instant.
pub fn insert_at<T>(agenda: &mut Vec<(Duration, T)>, at: Duration, item: T) {
    let i = agenda.partition_point(|(t, _)| *t <= at);
    agenda.insert(i, (at, item));
}

/// A seeded, time-ordered fault schedule. Times are offsets from run start.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// Seeds every random verdict drawn while delivering the schedule.
    pub seed: u64,
    /// The ops, ascending in time (ties in insertion order).
    pub ops: Vec<(Duration, FaultOp)>,
}

impl Schedule {
    /// An empty schedule with the given seed.
    pub fn new(seed: u64) -> Self {
        let ops = Vec::new();
        Schedule { seed, ops }
    }

    /// Adds `op` at offset `at`, keeping the list ordered.
    pub fn at(mut self, at: Duration, op: FaultOp) -> Self {
        insert_at(&mut self.ops, at, op);
        self
    }

    /// The kills, in order: what a controller reacts to.
    pub fn kills(&self) -> impl Iterator<Item = (Duration, Ipv4Addr)> + '_ {
        self.ops.iter().filter_map(|&(at, op)| match op {
            FaultOp::Kill(ip) => Some((at, ip)),
            _ => None,
        })
    }

    /// Refuses (panics on) a schedule naming something the executor does not
    /// have: `switch(ip)` for a kill or revive, `node(ip)` for a stall,
    /// `edge(from, to)` for a link. Called when a run starts, so a fault is
    /// never silently skipped.
    pub fn check(
        &self,
        switch: impl Fn(Ipv4Addr) -> bool,
        node: impl Fn(Ipv4Addr) -> bool,
        edge: impl Fn(Ipv4Addr, Ipv4Addr) -> bool,
    ) {
        for (at, op) in &self.ops {
            let known = match *op {
                FaultOp::Kill(ip) | FaultOp::Revive(ip) => switch(ip),
                FaultOp::Stall(ip, _) => node(ip),
                FaultOp::Link { from, to, .. } => edge(from, to),
            };
            assert!(known, "{op:?} at {at:?} names nothing this executor has");
        }
    }
}

/// The link-fault filter of one endpoint (a client port, a net worker, the
/// replay fabric's client): the schedule's `Link` ops on its edges and, for
/// an endpoint that hosts switches, the `Stall`s of its thread, brought into
/// force by the endpoint's clock, with the one generator every verdict is
/// drawn from. An executor drops a filter that [is empty](Self::is_empty),
/// so a fault-free run pays one branch per pump round or receive burst.
#[derive(Debug)]
pub struct LinkFilter {
    me: Ipv4Addr,
    rng: ChaCha8Rng,
    /// Ops not yet in force, latest first.
    pending: Vec<(Duration, FaultOp)>,
    /// Impaired edges in force: `(from, to, [drop, dup, reorder])`.
    edges: Vec<(Ipv4Addr, Ipv4Addr, [f64; 3])>,
    /// Frames held back for reordering, at most one an edge.
    held: Vec<(Ipv4Addr, Ipv4Addr, Vec<u8>)>,
}

impl LinkFilter {
    /// The filter of endpoint `me`: the `Link` ops with `me` at either end
    /// and the `Stall`s of what it `hosts` (nothing, for a client).
    pub fn new(schedule: &Schedule, me: Ipv4Addr, hosts: impl Fn(Ipv4Addr) -> bool) -> Self {
        let mut pending = schedule.ops.clone();
        pending.retain(|(_, op)| match *op {
            FaultOp::Stall(ip, _) => hosts(ip),
            FaultOp::Link { from, to, .. } => from == me || to == me,
            _ => false,
        });
        pending.reverse();
        LinkFilter {
            me,
            rng: ChaCha8Rng::seed_from_u64(schedule.seed ^ u64::from(me.to_u32())),
            pending,
            edges: Vec::new(),
            held: Vec::new(),
        }
    }

    /// True if the schedule held nothing for this endpoint (and nothing was
    /// [applied](Self::apply) by hand): the filter may be dropped.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty() && !self.active()
    }

    /// Brings into force every op due by `now` and returns how long the
    /// endpoint must stall from `now` (zero almost always): one compare per
    /// call while nothing is due.
    pub fn advance(&mut self, now: Duration) -> Duration {
        let mut stall = Duration::ZERO;
        while self.pending.last().is_some_and(|(at, _)| *at <= now) {
            let (_, op) = self.pending.pop().expect("checked");
            stall = stall.max(self.apply(&op));
        }
        stall
    }

    /// Brings one op into force now: a `Link` replaces the edge's rates, a
    /// `Stall` is returned as the time to stall, anything else is not a
    /// filter's business.
    pub fn apply(&mut self, op: &FaultOp) -> Duration {
        match *op {
            FaultOp::Stall(_, dur) => return dur,
            FaultOp::Link {
                from,
                to,
                drop,
                dup,
                reorder,
            } => {
                self.edges.retain(|&(f, t, _)| (f, t) != (from, to));
                if drop + dup + reorder > 0.0 {
                    self.edges.push((from, to, [drop, dup, reorder]));
                }
            }
            _ => {}
        }
        Duration::ZERO
    }

    /// True while an edge is impaired or a held frame waits: frames must go
    /// through [`Self::send`] / [`Self::recv`].
    pub fn active(&self) -> bool {
        !self.edges.is_empty() || !self.held.is_empty()
    }

    /// Passes `frame` along `me → to`: `deliver` is called as by [`Self::recv`].
    pub fn send(&mut self, to: Ipv4Addr, frame: &[u8], deliver: impl FnMut(&[u8])) {
        self.cross(self.me, to, frame, deliver);
    }

    /// Passes `frame` along `from → me`, calling `deliver` for whatever comes
    /// out the other end, in order: nothing (dropped, or held back), the
    /// frame once or twice, and after it the frame held back before it. One
    /// draw on an impaired edge, none on a healthy one.
    pub fn recv(&mut self, from: Ipv4Addr, frame: &[u8], deliver: impl FnMut(&[u8])) {
        self.cross(from, self.me, frame, deliver);
    }

    fn cross(
        &mut self,
        from: Ipv4Addr,
        to: Ipv4Addr,
        frame: &[u8],
        mut deliver: impl FnMut(&[u8]),
    ) {
        let rates = self.edges.iter().find(|e| (e.0, e.1) == (from, to));
        let [drop, dup, reorder] = rates.map_or([0.0; 3], |e| e.2);
        let draw: f64 = rates.map_or(1.0, |_| self.rng.gen_range(0.0..1.0));
        if draw < drop {
            return; // lost; a frame held before it stays held
        }
        let overtaken = self.held.iter().position(|h| (h.0, h.1) == (from, to));
        let overtaken = overtaken.map(|i| self.held.swap_remove(i).2);
        if draw >= drop + dup && draw < drop + dup + reorder {
            self.held.push((from, to, frame.to_vec()));
        } else {
            deliver(frame);
            if draw < drop + dup {
                deliver(frame);
            }
        }
        if let Some(held) = overtaken {
            deliver(&held);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(seed: u64) -> (Schedule, Ipv4Addr, Ipv4Addr) {
        let (c, s) = (Ipv4Addr::for_host(0), Ipv4Addr::for_shard(0));
        let link = |drop, dup, reorder| FaultOp::Link {
            from: c,
            to: s,
            drop,
            dup,
            reorder,
        };
        let ms = Duration::from_millis;
        let schedule = Schedule::new(seed)
            .at(ms(20), link(0.0, 0.0, 0.0))
            .at(ms(10), link(0.3, 0.2, 0.1))
            .at(ms(10), FaultOp::Stall(s, ms(5)))
            .at(ms(5), FaultOp::Kill(Ipv4Addr::for_switch(1)));
        (schedule, c, s)
    }

    #[test]
    fn empty_plan() {
        assert!(Schedule::new(3).ops.is_empty());
        assert_eq!(Schedule::new(3).kills().count(), 0);
        assert_eq!(Schedule::default(), Schedule::new(0));
    }

    #[test]
    fn plan_orders_events_by_time() {
        let (schedule, ..) = lossy(1);
        let times: Vec<u128> = schedule.ops.iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, [5, 10, 10, 20]);
        // Ties keep insertion order.
        assert!(matches!(schedule.ops[1].1, FaultOp::Link { .. }));
        let kills: Vec<_> = schedule.kills().collect();
        assert_eq!(kills, [(Duration::from_millis(5), Ipv4Addr::for_switch(1))]);
    }

    #[test]
    #[should_panic(expected = "names nothing this executor has")]
    fn an_unknown_edge_is_refused() {
        let (schedule, c, _) = lossy(1);
        schedule.check(|_| true, |_| true, |from, _| from != c);
    }

    #[test]
    fn the_same_schedule_gives_the_same_verdicts_twice() {
        let ms = Duration::from_millis;
        let run = |seed| {
            let (schedule, c, s) = lossy(seed);
            let mut filter = LinkFilter::new(&schedule, s, |ip| ip == s);
            let mut out = Vec::new();
            assert_eq!(filter.advance(ms(9)), Duration::ZERO);
            filter.recv(c, &[255], |f| out.push(f[0]));
            assert_eq!(out, [255], "not in force yet");
            assert_eq!(filter.advance(ms(10)), ms(5), "its own stall came due");
            assert!(filter.active());
            for i in 0..200u8 {
                filter.recv(c, &[i], |f| out.push(f[0]));
                filter.send(c, &[i], |f| assert_eq!(f, [i], "the way back is healthy"));
            }
            // All-zero heals the edge: the next frame passes and takes the
            // last held one with it.
            filter.advance(ms(20));
            filter.recv(c, &[254], |f| out.push(f[0]));
            assert!(!filter.active());
            out
        };
        let out = run(7);
        assert_eq!(out, run(7));
        assert_ne!(out, run(8), "the seed is part of the schedule");
        let count = |i: u8| out.iter().filter(|&&f| f == i).count();
        assert!((0..200).any(|i| count(i) == 0), "nothing dropped");
        assert!((0..200).any(|i| count(i) == 2), "nothing duplicated");
        assert!(out.windows(2).any(|w| w[0] > w[1]), "nothing reordered");
        // Nothing in the schedule for this endpoint: no filter at all.
        let (schedule, ..) = lossy(7);
        assert!(LinkFilter::new(&schedule, Ipv4Addr::for_shard(1), |_| false).is_empty());
    }
}
