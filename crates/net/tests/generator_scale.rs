//! What a pass of the open-loop generator costs must not depend on how many
//! agents it multiplexes. Alone in its test binary: the measure is a count of
//! passes over a fixed window, and a second polling test on the same cores
//! would take passes away from one side or the other.

use netchain_core::{FaultOp, HashRing, Schedule, WorkloadSpec};
use netchain_net::{run_open_loop, NetConfig, NetDataplane, OpenLoopConfig};
use netchain_sim::SimDuration;
use netchain_switch::PipelineConfig;
use netchain_wire::{Ipv4Addr, Key, Value};
use std::time::Duration;

/// Passes of the generator over a lossy trickle with `agents` agents: half
/// the queries are dropped (one `Link` op per agent's edge to the worker,
/// one seed: the k-th datagram meets the k-th verdict whoever sent it) and
/// wait 20 ms for their retransmission, so the generator spends the run
/// polling with one query out and its next event far off.
fn passes_while_waiting(agents: usize) -> u64 {
    let ring = HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7);
    let net_config = NetConfig::new(ring, 1, PipelineConfig::tiny(64));
    let mut lossy = Schedule::new(5);
    for agent in 0..agents as u32 {
        let drop_half = FaultOp::Link {
            from: Ipv4Addr::for_host(agent),
            to: Ipv4Addr::for_shard(0),
            drop: 0.5,
            dup: 0.0,
            reorder: 0.0,
        };
        lossy.ops.push((Duration::ZERO, drop_half));
    }
    let populate = [(Key::from_u64(0), Value::from_u64(0))];
    let plane = NetDataplane::start_under(net_config, &populate, &lossy).expect("start plane");
    let spec = WorkloadSpec::uniform_read(1, u64::MAX);
    let mut config = OpenLoopConfig::new(agents, 1, 100.0, Duration::from_millis(200));
    config.agent_timeout = SimDuration::from_millis(20);
    let report = run_open_loop(&plane, spec, config);
    plane.shutdown();
    assert!(report.retries > 0, "nothing waited: {report:?}");
    assert_eq!(report.completed, report.issued);
    report.passes
}

#[test]
fn a_waiting_pass_costs_the_same_with_two_thousand_agents() {
    // How many passes fit the window says what one costs. Looking for the
    // outstanding query by asking every agent, pass after pass, halved the
    // count with 2 048 agents (a debug build; the walk stops at the agent
    // that has it, half way on average); a running count leaves it level.
    // The windows are equal (the schedule and the drop pattern do not depend
    // on the agent count); best of three a side, the sides taken in turn,
    // because whoever else has the cores only ever takes passes away.
    let (mut few, mut many) = (0, 0);
    for _ in 0..3 {
        few = few.max(passes_while_waiting(16));
        many = many.max(passes_while_waiting(2048));
    }
    assert!(
        many * 3 >= few * 2,
        "{many} passes with 2 048 agents, {few} with 16"
    );
}
