//! The simulation engine: owns the topology, the nodes, the link states, the
//! event queue and the PRNG, and advances simulated time deterministically.

use crate::event::{Event, EventQueue};
use crate::link::{LinkState, LinkStats, TransmitOutcome};
use crate::node::{Action, Context, Message, Node, NodeId};
use crate::routing::RoutingTables;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Simulator-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Seed for the single PRNG that drives loss, jitter and node randomness.
    pub seed: u64,
    /// One-way latency of the out-of-band control channel
    /// ([`crate::Context::send_control`]) for nodes that do not choose their
    /// own.
    pub control_latency: SimDuration,
    /// Hard cap on processed events, as a runaway-simulation guard.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x6e65_7463_6861_696e, // "netchain"
            control_latency: SimDuration::from_millis(1),
            max_events: 500_000_000,
        }
    }
}

impl SimConfig {
    /// Returns a copy with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Counters describing a finished (or in-progress) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events processed by the main loop.
    pub events_processed: u64,
    /// Messages delivered to a node callback.
    pub messages_delivered: u64,
    /// Messages dropped by links (loss or queue overflow).
    pub messages_dropped: u64,
    /// Messages addressed to a failed node and discarded on arrival.
    pub messages_to_dead_nodes: u64,
    /// Sends to non-adjacent nodes (a bug in node logic), discarded.
    pub invalid_sends: u64,
    /// Timers that fired.
    pub timers_fired: u64,
}

/// The discrete-event simulator.
pub struct Simulator<M: Message> {
    topology: Topology,
    routing: RoutingTables,
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    alive: Vec<bool>,
    /// Until when each node is stalled (in the past for a node that is not).
    stalled_until: Vec<SimTime>,
    links: HashMap<(usize, usize), LinkState>,
    queue: EventQueue<M>,
    now: SimTime,
    rng: ChaCha8Rng,
    config: SimConfig,
    stats: SimStats,
    started: bool,
    stopped: bool,
}

impl<M: Message> Simulator<M> {
    /// Creates a simulator over `topology`. Every node slot must be populated
    /// with [`Simulator::install_node`] before the first call to a `run_*`
    /// method.
    pub fn new(topology: Topology, config: SimConfig) -> Self {
        let routing = RoutingTables::compute(&topology);
        let n = topology.num_nodes();
        let links = topology
            .directed_links()
            .map(|(a, b, params)| ((a.index(), b.index()), LinkState::new(params)))
            .collect();
        Simulator {
            topology,
            routing,
            nodes: (0..n).map(|_| None).collect(),
            alive: vec![true; n],
            stalled_until: vec![SimTime::ZERO; n],
            links,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            config,
            stats: SimStats::default(),
            started: false,
            stopped: false,
        }
    }

    /// Installs the behaviour of node `id`.
    pub fn install_node(&mut self, id: NodeId, node: Box<dyn Node<M>>) {
        self.nodes[id.index()] = Some(node);
    }

    /// The topology the simulator runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The underlay routing tables computed from the topology.
    pub fn routing(&self) -> &RoutingTables {
        &self.routing
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Whether a node is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive[id.index()]
    }

    /// Per-direction link statistics, if the nodes are adjacent.
    pub fn link_stats(&self, from: NodeId, to: NodeId) -> Option<LinkStats> {
        self.links.get(&(from.index(), to.index())).map(|l| l.stats)
    }

    /// Borrow a node's behaviour (panics if the slot was never installed).
    pub fn node(&self, id: NodeId) -> &dyn Node<M> {
        self.nodes[id.index()]
            .as_deref()
            .expect("node not installed")
    }

    /// Downcasts a node to its concrete type for post-run inspection.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id.index()]
            .as_deref()
            .and_then(|n| n.as_any().downcast_ref::<T>())
    }

    /// Downcasts a node to its concrete type, mutably.
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.index()]
            .as_deref_mut()
            .and_then(|n| n.as_any_mut().downcast_mut::<T>())
    }

    /// Schedules `event` at `at`: how a fault schedule's owner lowers it onto
    /// the simulator's node-down / node-up / stall / link-fault primitives.
    pub fn schedule(&mut self, at: SimTime, event: Event<M>) {
        self.queue.push(at, event);
    }

    /// Restarts the one generator from `seed` (a fault schedule brings its
    /// own, so that the schedule alone replays its run).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
    }

    /// Runs until the event queue drains, `deadline` is reached, or the event
    /// cap is hit, and returns the final simulated time.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.ensure_started();
        while !self.stopped && self.stats.events_processed < self.config.max_events {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    let (time, event) = self.queue.pop().expect("peeked event exists");
                    self.now = time;
                    self.process(event);
                    self.stats.events_processed += 1;
                }
                _ => break,
            }
        }
        // Time always advances to the deadline even if the queue drained early,
        // so back-to-back run_until calls compose predictably.
        if self.now < deadline {
            self.now = deadline;
        }
        self.now
    }

    /// Runs for `duration` of simulated time past the current instant.
    pub fn run_for(&mut self, duration: SimDuration) -> SimTime {
        let deadline = self.now + duration;
        self.run_until(deadline)
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for idx in 0..self.nodes.len() {
            assert!(
                self.nodes[idx].is_some(),
                "node {idx} was never installed; install_node every topology node before running"
            );
            self.invoke(NodeId(idx), |node, ctx| node.on_start(ctx));
        }
    }

    fn process(&mut self, event: Event<M>) {
        // A stalled node's deliveries and timers wait for it, in order.
        let target = match &event {
            Event::Deliver { to, .. } => Some(*to),
            Event::Timer { node, .. } => Some(*node),
            _ => None,
        };
        if let Some(until) = target.map(|n| self.stalled_until[n.index()]) {
            if until > self.now {
                return self.queue.push(until, event);
            }
        }
        match event {
            Event::Deliver { from, to, msg } => {
                if !self.alive[to.index()] {
                    self.stats.messages_to_dead_nodes += 1;
                    return;
                }
                self.stats.messages_delivered += 1;
                self.invoke(to, |node, ctx| node.on_message(from, msg, ctx));
            }
            Event::Timer { node, token } => {
                if !self.alive[node.index()] {
                    return;
                }
                self.stats.timers_fired += 1;
                self.invoke(node, |n, ctx| n.on_timer(token, ctx));
            }
            Event::NodeDown { node } => self.alive[node.index()] = false,
            Event::NodeUp { node } => {
                self.alive[node.index()] = true;
                self.invoke(node, |n, ctx| n.on_restart(ctx));
            }
            Event::NotifyDown { node } => {
                for idx in 0..self.nodes.len() {
                    if idx != node.index() && self.alive[idx] {
                        self.invoke(NodeId(idx), |n, ctx| n.on_node_down(node, ctx));
                    }
                }
            }
            Event::NotifyUp { node } => {
                for idx in 0..self.nodes.len() {
                    if idx != node.index() && self.alive[idx] {
                        self.invoke(NodeId(idx), |n, ctx| n.on_node_up(node, ctx));
                    }
                }
            }
            Event::Stall { node, dur } => self.stalled_until[node.index()] = self.now + dur,
            Event::LinkFault { from, to, rates } => {
                if let Some(link) = self.links.get_mut(&(from.index(), to.index())) {
                    link.fault = rates;
                }
            }
            Event::Stop => {
                self.stopped = true;
            }
        }
    }

    /// Runs a node callback with a fresh [`Context`] and applies the actions
    /// it recorded.
    fn invoke<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node<M>, &mut Context<M>),
    {
        let mut node = self.nodes[id.index()].take().expect("node installed");
        let actions = {
            let mut ctx = Context {
                now: self.now,
                node: id,
                neighbors: self.topology.neighbors(id),
                rng: &mut self.rng,
                actions: Vec::new(),
            };
            f(node.as_mut(), &mut ctx);
            ctx.actions
        };
        self.nodes[id.index()] = Some(node);
        for action in actions {
            self.apply_action(id, action);
        }
    }

    fn apply_action(&mut self, from: NodeId, action: Action<M>) {
        match action {
            Action::Send { to, msg } => {
                let key = (from.index(), to.index());
                let Some(link) = self.links.get_mut(&key) else {
                    self.stats.invalid_sends += 1;
                    return;
                };
                let loss_draw = uniform_f64(&mut self.rng);
                let jitter_draw = uniform_f64(&mut self.rng);
                // A faulted link costs one more draw; a healthy one draws as
                // it always did, so fault-free runs replay bit for bit.
                let [drop, dup, reorder] = link.fault;
                let fault_draw = if drop + dup + reorder > 0.0 {
                    uniform_f64(&mut self.rng)
                } else {
                    1.0
                };
                match link.transmit(self.now, msg.wire_size(), loss_draw, jitter_draw) {
                    TransmitOutcome::Deliver(_) if fault_draw < drop => {
                        self.stats.messages_dropped += 1;
                    }
                    TransmitOutcome::Deliver(mut at) => {
                        if fault_draw < drop + dup {
                            let msg = msg.clone();
                            self.queue.push(at, Event::Deliver { from, to, msg });
                        } else if fault_draw < drop + dup + reorder {
                            // Late by twice its flight: what leaves within
                            // the next two flight times overtakes it.
                            at = at + (at - self.now) + (at - self.now);
                        }
                        self.queue.push(at, Event::Deliver { from, to, msg });
                    }
                    TransmitOutcome::Dropped => {
                        self.stats.messages_dropped += 1;
                    }
                }
            }
            Action::SendControl { to, msg, latency } => {
                self.queue
                    .push(self.now + latency, Event::Deliver { from, to, msg });
            }
            Action::SetTimer { delay, token } => {
                self.queue
                    .push(self.now + delay, Event::Timer { node: from, token });
            }
        }
    }
}

fn uniform_f64(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::node::NodeKind;
    use crate::topology::TopologyBuilder;
    use std::any::Any;

    /// A message counting its own size.
    #[derive(Debug, Clone)]
    struct Ping {
        hop_budget: u32,
    }
    impl Message for Ping {
        fn wire_size(&self) -> usize {
            100
        }
    }

    /// Bounces every received ping back to the sender until the hop budget is
    /// exhausted, counting what it saw.
    struct Bouncer {
        received: u64,
        start_pings: Vec<NodeId>,
        downs_seen: Vec<NodeId>,
        ups_seen: Vec<NodeId>,
    }

    impl Bouncer {
        fn new(start_pings: Vec<NodeId>) -> Self {
            Bouncer {
                received: 0,
                start_pings,
                downs_seen: Vec::new(),
                ups_seen: Vec::new(),
            }
        }
    }

    impl Node<Ping> for Bouncer {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            for &to in &self.start_pings.clone() {
                ctx.send(to, Ping { hop_budget: 5 });
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
            self.received += 1;
            if msg.hop_budget > 0 {
                ctx.send(
                    from,
                    Ping {
                        hop_budget: msg.hop_budget - 1,
                    },
                );
            }
        }
        fn on_node_down(&mut self, node: NodeId, _ctx: &mut Context<Ping>) {
            self.downs_seen.push(node);
        }
        fn on_node_up(&mut self, node: NodeId, _ctx: &mut Context<Ping>) {
            self.ups_seen.push(node);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_sim() -> (Simulator<Ping>, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node(NodeKind::Host, "a");
        let c = b.add_node(NodeKind::Host, "c");
        b.add_link(a, c, LinkParams::datacenter_40g());
        let topo = b.build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install_node(a, Box::new(Bouncer::new(vec![c])));
        sim.install_node(c, Box::new(Bouncer::new(vec![])));
        (sim, a, c)
    }

    #[test]
    fn ping_pong_exchanges_expected_messages() {
        let (mut sim, a, c) = two_node_sim();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        // a sends budget 5 -> c(5 recv) replies 4 -> a(recv) replies 3 -> ... total 6 deliveries.
        let a_node = sim.node_as::<Bouncer>(a).unwrap();
        let c_node = sim.node_as::<Bouncer>(c).unwrap();
        assert_eq!(a_node.received + c_node.received, 6);
        assert_eq!(sim.stats().messages_delivered, 6);
        assert_eq!(sim.stats().messages_dropped, 0);
        assert_eq!(sim.link_stats(a, c).unwrap().delivered, 3);
        assert_eq!(sim.link_stats(c, a).unwrap().delivered, 3);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let mut b = TopologyBuilder::new();
            let a = b.add_node(NodeKind::Host, "a");
            let c = b.add_node(NodeKind::Host, "c");
            b.add_link(a, c, LinkParams::datacenter_40g().with_loss(0.3));
            let topo = b.build();
            let mut sim = Simulator::new(topo, SimConfig::default().with_seed(seed));
            sim.install_node(a, Box::new(Bouncer::new(vec![c; 50])));
            sim.install_node(c, Box::new(Bouncer::new(vec![])));
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
            (sim.stats().messages_delivered, sim.stats().messages_dropped)
        };
        assert_eq!(run(42), run(42));
        // With 30 % loss and 300 transmissions, two different seeds producing
        // exactly the same counts is possible but vanishingly unlikely; accept
        // either but require determinism above.
        let _ = run(43);
    }

    #[test]
    fn dead_nodes_do_not_receive() {
        let (mut sim, a, c) = two_node_sim();
        sim.schedule(SimTime::ZERO, Event::NodeDown { node: c });
        let detected = SimTime::ZERO + SimDuration::from_millis(10);
        sim.schedule(detected, Event::NotifyDown { node: c });
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(sim.node_as::<Bouncer>(c).unwrap().received, 0);
        assert!(sim.stats().messages_to_dead_nodes >= 1);
        assert!(!sim.is_alive(c));
        // a is notified of the failure after the detection delay.
        assert_eq!(sim.node_as::<Bouncer>(a).unwrap().downs_seen, vec![c]);
    }

    #[test]
    fn recovery_notifies_survivors() {
        let (mut sim, a, c) = two_node_sim();
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        sim.schedule(ms(1), Event::NodeDown { node: c });
        sim.schedule(ms(11), Event::NotifyDown { node: c });
        sim.schedule(ms(100), Event::NodeUp { node: c });
        sim.schedule(ms(110), Event::NotifyUp { node: c });
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(sim.is_alive(c));
        let a_node = sim.node_as::<Bouncer>(a).unwrap();
        assert_eq!(a_node.downs_seen, vec![c]);
        assert_eq!(a_node.ups_seen, vec![c]);
    }

    #[test]
    fn a_stalled_node_keeps_its_queue_and_serves_it_afterwards() {
        let (mut sim, a, c) = two_node_sim();
        let ms = SimDuration::from_millis;
        sim.schedule(
            SimTime::ZERO,
            Event::Stall {
                node: c,
                dur: ms(5),
            },
        );
        sim.run_until(SimTime::ZERO + ms(4));
        // Alive, but the ping waits: nothing received, nothing bounced back.
        assert!(sim.is_alive(c));
        assert_eq!(sim.stats().messages_delivered, 0);
        assert_eq!(sim.stats().messages_to_dead_nodes, 0);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(sim.stats().messages_delivered, 6, "the exchange resumed");
        assert_eq!(sim.node_as::<Bouncer>(a).unwrap().received, 3);
    }

    #[test]
    fn a_link_fault_drops_duplicates_and_delays_from_the_one_seeded_generator() {
        let run = |seed: u64, rates: [f64; 3]| {
            let (mut sim, a, c) = two_node_sim();
            sim = Simulator::new(sim.topology().clone(), SimConfig::default().with_seed(seed));
            sim.install_node(a, Box::new(Bouncer::new(vec![c; 200])));
            sim.install_node(c, Box::new(Bouncer::new(vec![])));
            sim.schedule(
                SimTime::ZERO,
                Event::LinkFault {
                    from: a,
                    to: c,
                    rates,
                },
            );
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
            (sim.stats(), sim.node_as::<Bouncer>(c).unwrap().received)
        };
        // 200 pings a -> c, each bounced five more times over the healthy
        // direction and the faulted one.
        let (clean, _) = run(1, [0.0; 3]);
        assert_eq!(
            (clean.messages_delivered, clean.messages_dropped),
            (1200, 0)
        );
        let (lossy, _) = run(1, [0.5, 0.0, 0.0]);
        assert!(
            lossy.messages_dropped > 50 && lossy.messages_delivered < 1000,
            "{lossy:?}"
        );
        let (dup, at_c) = run(1, [0.0, 1.0, 0.0]);
        assert_eq!(dup.messages_dropped, 0);
        assert!(at_c >= 400, "every ping a -> c arrives twice: {at_c}");
        // Reordering delays, never loses; and a seed is a run.
        let (late, _) = run(1, [0.0, 0.0, 0.5]);
        assert_eq!((late.messages_delivered, late.messages_dropped), (1200, 0));
        assert_eq!(run(9, [0.3, 0.2, 0.1]), run(9, [0.3, 0.2, 0.1]));
    }

    #[test]
    fn invalid_send_is_counted_not_delivered() {
        struct BadSender;
        impl Node<Ping> for BadSender {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                ctx.send(NodeId(1), Ping { hop_budget: 0 });
            }
            fn on_message(&mut self, _: NodeId, _: Ping, _: &mut Context<Ping>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        // Two nodes, NO link between them.
        let mut b = TopologyBuilder::new();
        let a = b.add_node(NodeKind::Host, "a");
        let _c = b.add_node(NodeKind::Host, "c");
        let topo = b.build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install_node(a, Box::new(BadSender));
        sim.install_node(NodeId(1), Box::new(Bouncer::new(vec![])));
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(sim.stats().invalid_sends, 1);
        assert_eq!(sim.stats().messages_delivered, 0);
    }

    #[test]
    fn control_messages_bypass_topology() {
        struct ControlSender;
        impl Node<Ping> for ControlSender {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                ctx.send_control(
                    NodeId(1),
                    Ping { hop_budget: 0 },
                    SimDuration::from_millis(5),
                );
            }
            fn on_message(&mut self, _: NodeId, _: Ping, _: &mut Context<Ping>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut b = TopologyBuilder::new();
        let a = b.add_node(NodeKind::Controller, "ctrl");
        let c = b.add_node(NodeKind::Switch, "sw");
        let topo = b.build(); // no links at all
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install_node(a, Box::new(ControlSender));
        sim.install_node(c, Box::new(Bouncer::new(vec![])));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(sim.node_as::<Bouncer>(c).unwrap().received, 1);
        assert_eq!(sim.stats().invalid_sends, 0);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node<Ping> for TimerNode {
            fn on_start(&mut self, ctx: &mut Context<Ping>) {
                ctx.set_timer(SimDuration::from_micros(30), 3);
                ctx.set_timer(SimDuration::from_micros(10), 1);
                ctx.set_timer(SimDuration::from_micros(20), 2);
            }
            fn on_message(&mut self, _: NodeId, _: Ping, _: &mut Context<Ping>) {}
            fn on_timer(&mut self, token: u64, _: &mut Context<Ping>) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut b = TopologyBuilder::new();
        let a = b.add_node(NodeKind::Host, "a");
        let topo = b.build();
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install_node(a, Box::new(TimerNode { fired: Vec::new() }));
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(sim.node_as::<TimerNode>(a).unwrap().fired, vec![1, 2, 3]);
        assert_eq!(sim.stats().timers_fired, 3);
    }

    #[test]
    #[should_panic(expected = "never installed")]
    fn running_with_missing_node_panics() {
        let mut b = TopologyBuilder::new();
        let _a = b.add_node(NodeKind::Host, "a");
        let topo = b.build();
        let mut sim: Simulator<Ping> = Simulator::new(topo, SimConfig::default());
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(1));
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node(NodeKind::Host, "a");
        let topo = b.build();
        let mut sim: Simulator<Ping> = Simulator::new(topo, SimConfig::default());
        sim.install_node(a, Box::new(Bouncer::new(vec![])));
        let end = sim.run_for(SimDuration::from_secs(3));
        assert_eq!(end, SimTime::ZERO + SimDuration::from_secs(3));
        assert_eq!(sim.now(), end);
    }
}
