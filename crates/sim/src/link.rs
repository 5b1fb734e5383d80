//! Link model: latency, bandwidth, loss, reordering and a bounded FIFO
//! transmission queue per direction.
//!
//! Every (ordered) pair of adjacent nodes has an independent [`LinkState`], so
//! the two directions of a physical cable never contend with each other, just
//! like full-duplex Ethernet.

use crate::time::{SimDuration, SimTime};

/// Static parameters of one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Bandwidth in bits per second. Serialization delay of a packet of `n`
    /// bytes is `8n / bandwidth`.
    pub bandwidth_bps: u64,
    /// Independent probability that a packet is dropped in flight.
    pub loss_rate: f64,
    /// Maximum extra random delay added to each packet. A non-zero jitter
    /// allows packets to overtake each other — the out-of-order delivery that
    /// §4.3 of the paper has to defend against.
    pub jitter: SimDuration,
    /// Maximum queueing delay tolerated at the transmitter before tail drop.
    /// Models shallow datacenter switch buffers.
    pub max_queue_delay: SimDuration,
}

impl LinkParams {
    /// A typical 40 Gbps datacenter server-to-ToR / switch-to-switch link with
    /// ~1 µs propagation delay and no loss. These are the defaults the
    /// experiments start from; individual figures override loss and jitter.
    pub fn datacenter_40g() -> Self {
        LinkParams {
            latency: SimDuration::from_micros(1),
            bandwidth_bps: 40_000_000_000,
            loss_rate: 0.0,
            jitter: SimDuration::ZERO,
            max_queue_delay: SimDuration::from_millis(1),
        }
    }

    /// A 100 Gbps fabric link (spine–leaf experiments).
    pub fn datacenter_100g() -> Self {
        LinkParams {
            bandwidth_bps: 100_000_000_000,
            ..Self::datacenter_40g()
        }
    }

    /// An ideal link: zero latency, effectively infinite bandwidth, no loss.
    /// Useful for unit tests that want to exercise protocol logic only.
    pub fn ideal() -> Self {
        LinkParams {
            latency: SimDuration::ZERO,
            bandwidth_bps: u64::MAX,
            loss_rate: 0.0,
            jitter: SimDuration::ZERO,
            max_queue_delay: SimDuration::from_secs(3600),
        }
    }

    /// Returns a copy with the given loss rate.
    pub fn with_loss(mut self, loss_rate: f64) -> Self {
        self.loss_rate = loss_rate;
        self
    }

    /// Returns a copy with the given jitter bound.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Serialization delay for a packet of `bytes` bytes.
    pub fn serialization_delay(&self, bytes: usize) -> SimDuration {
        if self.bandwidth_bps == u64::MAX {
            return SimDuration::ZERO;
        }
        let bits = bytes as u128 * 8;
        let ns = bits * 1_000_000_000 / self.bandwidth_bps as u128;
        SimDuration::from_nanos(ns as u64)
    }
}

/// Per-direction counters, readable after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets handed to the link by the sender.
    pub offered: u64,
    /// Packets delivered to the receiver.
    pub delivered: u64,
    /// Packets dropped by the random-loss process.
    pub lost: u64,
    /// Packets dropped because the transmission queue was full.
    pub tail_dropped: u64,
    /// Total bytes delivered.
    pub bytes_delivered: u64,
}

/// Dynamic state of one link direction.
#[derive(Debug, Clone)]
pub struct LinkState {
    /// Static parameters.
    pub params: LinkParams,
    /// `[drop, dup, reorder]` probabilities laid over the static parameters
    /// by an [`crate::Event::LinkFault`]; all zero on a healthy link.
    pub fault: [f64; 3],
    /// Time at which the transmitter becomes free.
    next_free: SimTime,
    /// Counters.
    pub stats: LinkStats,
}

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// The packet will arrive at the receiver at the given time.
    Deliver(SimTime),
    /// The packet was dropped by the loss process or the queue bound.
    Dropped,
}

impl LinkState {
    /// Creates a fresh link direction with the given parameters.
    pub fn new(params: LinkParams) -> Self {
        LinkState {
            params,
            fault: [0.0; 3],
            next_free: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// Offers a packet of `bytes` bytes for transmission at time `now`.
    ///
    /// `loss_draw` and `jitter_draw` are uniform `[0,1)` samples supplied by
    /// the caller (the simulator), keeping all randomness in one PRNG.
    pub fn transmit(
        &mut self,
        now: SimTime,
        bytes: usize,
        loss_draw: f64,
        jitter_draw: f64,
    ) -> TransmitOutcome {
        self.stats.offered += 1;
        let start = self.next_free.max(now);
        let queue_delay = start - now;
        if queue_delay > self.params.max_queue_delay {
            self.stats.tail_dropped += 1;
            return TransmitOutcome::Dropped;
        }
        let tx = self.params.serialization_delay(bytes);
        self.next_free = start + tx;
        if loss_draw < self.params.loss_rate {
            self.stats.lost += 1;
            return TransmitOutcome::Dropped;
        }
        let jitter =
            SimDuration::from_nanos((self.params.jitter.as_nanos() as f64 * jitter_draw) as u64);
        let arrival = start + tx + self.params.latency + jitter;
        self.stats.delivered += 1;
        self.stats.bytes_delivered += bytes as u64;
        TransmitOutcome::Deliver(arrival)
    }

    /// Time at which the transmitter becomes idle (for tests/diagnostics).
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_matches_bandwidth() {
        let p = LinkParams::datacenter_40g();
        // 1500 bytes at 40 Gbps = 12000 bits / 40e9 bps = 300 ns.
        assert_eq!(p.serialization_delay(1500), SimDuration::from_nanos(300));
        assert_eq!(
            LinkParams::ideal().serialization_delay(1500),
            SimDuration::ZERO
        );
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut link = LinkState::new(LinkParams::datacenter_40g());
        let a = link.transmit(SimTime(0), 1500, 1.0, 0.0);
        let b = link.transmit(SimTime(0), 1500, 1.0, 0.0);
        let (ta, tb) = match (a, b) {
            (TransmitOutcome::Deliver(ta), TransmitOutcome::Deliver(tb)) => (ta, tb),
            other => panic!("unexpected outcomes: {other:?}"),
        };
        // Second packet waits for the first to serialize: 300 ns later.
        assert_eq!(tb - ta, SimDuration::from_nanos(300));
        assert_eq!(link.stats.delivered, 2);
        assert_eq!(link.stats.bytes_delivered, 3000);
    }

    #[test]
    fn loss_draw_below_rate_drops() {
        let mut link = LinkState::new(LinkParams::datacenter_40g().with_loss(0.5));
        assert_eq!(
            link.transmit(SimTime(0), 100, 0.4, 0.0),
            TransmitOutcome::Dropped
        );
        assert!(matches!(
            link.transmit(SimTime(0), 100, 0.6, 0.0),
            TransmitOutcome::Deliver(_)
        ));
        assert_eq!(link.stats.lost, 1);
        assert_eq!(link.stats.offered, 2);
    }

    #[test]
    fn queue_overflow_tail_drops() {
        let mut params = LinkParams::datacenter_40g();
        params.max_queue_delay = SimDuration::from_nanos(500);
        let mut link = LinkState::new(params);
        // Each 1500-byte packet takes 300 ns to serialize. The third packet
        // would wait 600 ns > 500 ns and must be dropped.
        assert!(matches!(
            link.transmit(SimTime(0), 1500, 1.0, 0.0),
            TransmitOutcome::Deliver(_)
        ));
        assert!(matches!(
            link.transmit(SimTime(0), 1500, 1.0, 0.0),
            TransmitOutcome::Deliver(_)
        ));
        assert_eq!(
            link.transmit(SimTime(0), 1500, 1.0, 0.0),
            TransmitOutcome::Dropped
        );
        assert_eq!(link.stats.tail_dropped, 1);
    }

    #[test]
    fn jitter_adds_bounded_delay() {
        let params = LinkParams::datacenter_40g().with_jitter(SimDuration::from_micros(10));
        let mut link = LinkState::new(params);
        let base = match link.transmit(SimTime(0), 100, 1.0, 0.0) {
            TransmitOutcome::Deliver(t) => t,
            _ => panic!(),
        };
        let mut link2 = LinkState::new(params);
        let jittered = match link2.transmit(SimTime(0), 100, 1.0, 0.999) {
            TransmitOutcome::Deliver(t) => t,
            _ => panic!(),
        };
        let extra = jittered - base;
        assert!(extra > SimDuration::from_micros(9));
        assert!(extra <= SimDuration::from_micros(10));
    }
}
