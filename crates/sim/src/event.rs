//! The event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence)`, where the sequence number is the
//! order of insertion. Ties in time are therefore resolved deterministically,
//! which is what makes whole-simulation runs reproducible bit-for-bit for a
//! fixed seed.

use crate::node::{NodeId, TimerToken};
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled occurrence. The node-down / node-up / notify / stall /
/// link-fault variants are the simulator's fault primitives: whoever owns a
/// fault schedule lowers it onto them with [`crate::Simulator::schedule`],
/// and decides when the survivors learn of a failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<M> {
    /// A message finishes arriving at `to`.
    Deliver {
        /// Sender (the adjacent node, or the control-channel source).
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// A timer armed by `node` fires.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// Token the node supplied when arming the timer.
        token: TimerToken,
    },
    /// `node` fail-stops: it receives nothing and its timers no longer fire.
    NodeDown {
        /// The failing node.
        node: NodeId,
    },
    /// `node` comes back up and is told so ([`crate::Node::on_restart`]).
    NodeUp {
        /// The recovering node.
        node: NodeId,
    },
    /// `node` stalls for `dur`: it stays alive, but every delivery and timer
    /// due meanwhile waits, in order, until the stall is over.
    Stall {
        /// The stalling node.
        node: NodeId,
        /// How long it accepts and emits nothing.
        dur: SimDuration,
    },
    /// From now on the link direction `from → to` loses, duplicates and
    /// delays-past-its-successor packets with these probabilities (on top of
    /// its static [`crate::LinkParams`]); all zero heals it.
    LinkFault {
        /// Transmitting end.
        from: NodeId,
        /// Receiving end.
        to: NodeId,
        /// `[drop, dup, reorder]` probabilities.
        rates: [f64; 3],
    },
    /// All nodes that are still alive are notified that `node` failed
    /// (failure detection completed).
    NotifyDown {
        /// The failed node being reported.
        node: NodeId,
    },
    /// All nodes that are still alive are notified that `node` recovered.
    NotifyUp {
        /// The recovered node being reported.
        node: NodeId,
    },
    /// End of simulation.
    Stop,
}

#[derive(Debug)]
struct Scheduled<M> {
    time: SimTime,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}

impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic priority queue of [`Event`]s.
#[derive(Debug)]
pub struct EventQueue<M> {
    heap: BinaryHeap<Scheduled<M>>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: Event<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event<M>)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Tag(u32);

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<Tag> = EventQueue::new();
        q.push(
            SimTime(30),
            Event::Timer {
                node: NodeId(0),
                token: 3,
            },
        );
        q.push(
            SimTime(10),
            Event::Timer {
                node: NodeId(0),
                token: 1,
            },
        );
        q.push(
            SimTime(20),
            Event::Timer {
                node: NodeId(0),
                token: 2,
            },
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_resolve_by_insertion_order() {
        let mut q: EventQueue<Tag> = EventQueue::new();
        for token in 0..100 {
            q.push(
                SimTime(5),
                Event::Timer {
                    node: NodeId(1),
                    token,
                },
            );
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<Tag> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(7), Event::Stop);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        q.pop();
        assert!(q.is_empty());
    }
}
