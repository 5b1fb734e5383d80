//! Node abstraction: everything attached to the simulated network — switches,
//! hosts, servers, the controller — implements [`Node`].
//!
//! Node callbacks never touch the simulator directly; they record their
//! intents (send a message, arm a timer) in a [`Context`], and the simulator
//! applies those intents after the callback returns. This keeps the borrow
//! structure trivial and the execution order explicit and deterministic.

use crate::time::{SimDuration, SimTime};
use rand::RngCore;
use std::any::Any;
use std::fmt;

/// Dense integer identifier of a node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Coarse role of a node, used by topology builders and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A network switch (possibly running the NetChain program).
    Switch,
    /// An end host: a client agent or an application server.
    Host,
    /// The logically centralised network controller.
    Controller,
}

/// Opaque token identifying a timer to the node that armed it.
pub type TimerToken = u64;

/// Messages carried by the simulator.
///
/// The simulator never inspects message contents; it only needs the wire size
/// to charge serialization delay against link bandwidth.
pub trait Message: Clone + fmt::Debug + 'static {
    /// Size of the message on the wire, in bytes.
    fn wire_size(&self) -> usize;
}

/// Intents recorded by a node callback, applied by the simulator afterwards.
#[derive(Debug)]
pub(crate) enum Action<M> {
    /// Transmit `msg` to an adjacent node over the connecting link.
    Send { to: NodeId, msg: M },
    /// Deliver `msg` to any node after a fixed delay, bypassing the data-plane
    /// topology (management/control network).
    SendControl {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: M,
        /// One-way delay of the control channel.
        latency: SimDuration,
    },
    /// Arm a timer that fires `delay` from now with the given token.
    SetTimer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Token passed back to [`Node::on_timer`].
        token: TimerToken,
    },
}

/// Execution context handed to every node callback.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) neighbors: &'a [NodeId],
    pub(crate) rng: &'a mut dyn RngCore,
    pub(crate) actions: Vec<Action<M>>,
}

impl<'a, M: Message> Context<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this callback runs on.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The nodes directly connected to this node by a link.
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// True if `other` is directly connected to this node.
    pub fn is_neighbor(&self, other: NodeId) -> bool {
        self.neighbors.contains(&other)
    }

    /// Transmits `msg` to the adjacent node `to` over the connecting link.
    /// Sending to a non-neighbor is a programming error in the node logic;
    /// the simulator will drop the message and count it in
    /// [`crate::SimStats::invalid_sends`].
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Delivers `msg` to an arbitrary node after `latency`, bypassing the
    /// data-plane links. Models the out-of-band management network the
    /// controller uses to program switches (§5).
    pub fn send_control(&mut self, to: NodeId, msg: M, latency: SimDuration) {
        self.actions.push(Action::SendControl { to, msg, latency });
    }

    /// Arms a timer that calls [`Node::on_timer`] with `token` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.actions.push(Action::SetTimer { delay, token });
    }

    /// Draws a uniform float in `[0, 1)` from the simulation PRNG.
    pub fn random_f64(&mut self) -> f64 {
        // 53 random mantissa bits, the standard uniform construction.
        (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a uniform integer in `[0, bound)` (bound must be non-zero).
    pub fn random_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "random_below requires a non-zero bound");
        // Rejection-free modulo is fine here: bounds are tiny relative to 2^64
        // and the bias is far below anything an experiment could observe.
        self.rng.next_u64() % bound
    }

    /// Samples an exponential inter-arrival time with the given mean. Used by
    /// workload generators for Poisson query arrivals.
    pub fn random_exponential(&mut self, mean: SimDuration) -> SimDuration {
        let u = self.random_f64().max(1e-12);
        SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }
}

/// A participant in the simulation.
///
/// All callbacks run on the simulator thread; `&mut self` access is exclusive
/// by construction. `as_any`/`as_any_mut` let experiment harnesses recover the
/// concrete node type after a run to read out its recorded metrics.
pub trait Node<M: Message>: 'static {
    /// Called once, at time zero, before any message is delivered.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Called when a message arrives on one of this node's links (or over the
    /// control channel; `from` identifies the sender either way).
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<M>);

    /// Called when a timer armed with [`Context::set_timer`] fires.
    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Context<M>) {}

    /// Called when the survivors are told another node failed
    /// ([`crate::Event::NotifyDown`], scheduled by whoever lowers the fault:
    /// its detection delay is theirs).
    fn on_node_down(&mut self, _node: NodeId, _ctx: &mut Context<M>) {}

    /// Called when the survivors are told another node is back up
    /// ([`crate::Event::NotifyUp`]).
    fn on_node_up(&mut self, _node: NodeId, _ctx: &mut Context<M>) {}

    /// Called on the node itself when it comes back up after a failure:
    /// whatever it held does not survive a restart unless it says so.
    fn on_restart(&mut self, _ctx: &mut Context<M>) {}

    /// Human-readable name for logs and reports.
    fn name(&self) -> String {
        "node".to_string()
    }

    /// Upcast for post-run inspection.
    fn as_any(&self) -> &dyn Any;

    /// Upcast for post-run mutation/extraction.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::mock::StepRng;

    #[derive(Debug, Clone)]
    struct Ping(usize);
    impl Message for Ping {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn context_records_actions_in_order() {
        let mut rng = StepRng::new(0, 1);
        let neighbors = [NodeId(1), NodeId(2)];
        let mut ctx: Context<'_, Ping> = Context {
            now: SimTime(5),
            node: NodeId(0),
            neighbors: &neighbors,
            rng: &mut rng,
            actions: Vec::new(),
        };
        assert_eq!(ctx.now(), SimTime(5));
        assert_eq!(ctx.id(), NodeId(0));
        assert!(ctx.is_neighbor(NodeId(2)));
        assert!(!ctx.is_neighbor(NodeId(3)));
        ctx.send(NodeId(1), Ping(10));
        ctx.set_timer(SimDuration::from_micros(3), 42);
        ctx.send_control(NodeId(2), Ping(1), SimDuration::from_millis(1));
        assert_eq!(ctx.actions.len(), 3);
        assert!(matches!(ctx.actions[0], Action::Send { to: NodeId(1), .. }));
        assert!(matches!(ctx.actions[1], Action::SetTimer { token: 42, .. }));
        assert!(matches!(
            ctx.actions[2],
            Action::SendControl { to: NodeId(2), .. }
        ));
    }

    #[test]
    fn random_helpers_are_in_range() {
        let mut rng = rand::rngs::mock::StepRng::new(0x9e3779b97f4a7c15, 0x9e3779b97f4a7c15);
        let neighbors: [NodeId; 0] = [];
        let mut ctx: Context<'_, Ping> = Context {
            now: SimTime::ZERO,
            node: NodeId(0),
            neighbors: &neighbors,
            rng: &mut rng,
            actions: Vec::new(),
        };
        for _ in 0..100 {
            let f = ctx.random_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(ctx.random_below(7) < 7);
            let exp = ctx.random_exponential(SimDuration::from_micros(10));
            assert!(exp.as_nanos() < 10_000_000); // far tail is astronomically unlikely
        }
    }

    #[test]
    #[should_panic(expected = "non-zero bound")]
    fn random_below_zero_bound_panics() {
        let mut rng = StepRng::new(0, 1);
        let neighbors: [NodeId; 0] = [];
        let mut ctx: Context<'_, Ping> = Context {
            now: SimTime::ZERO,
            node: NodeId(0),
            neighbors: &neighbors,
            rng: &mut rng,
            actions: Vec::new(),
        };
        ctx.random_below(0);
    }
}
