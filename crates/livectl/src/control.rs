//! The per-shard control channel of the live fabric: what travels on it and
//! the one function that applies it to a [`Shard`].
//!
//! What a controller tells a switch to do is a `ControlOp`, the vocabulary
//! every transport in the repo shares (see `netchain_core::failplan`, which
//! builds the ordered op lists of Algorithms 2 and 3); what breaks is a
//! `FaultOp`, the vocabulary every fault executor shares
//! (`netchain_core::fault`). [`ControlCmd`] carries either, and adds only
//! what is particular to this transport: state export as a command answered
//! by an event.
//!
//! Commands travel over the same bounded lock-free SPSC rings the dataplane
//! uses for frames (`netchain_fabric::ring`), one pair per shard. The shard
//! worker drains its command ring **between bursts**, so a command takes
//! effect at a burst boundary — the software analogue of a switch OS
//! updating match-action tables between pipeline passes. Every command
//! travels beside a token ([`Tagged`]) and is acknowledged under it, which
//! is what lets the controller (a) measure rule-installation latency
//! honestly and (b) sequence the two-phase repair: phase 2 of a group never
//! starts before every shard has acknowledged phase 1.

use netchain_core::failplan::Target;
use netchain_core::FaultOp;
use netchain_fabric::Shard;
use netchain_switch::kv::ExportedEntry;
use netchain_switch::ControlOp;
use netchain_wire::Ipv4Addr;
use std::time::Duration;

/// A controller → shard command.
#[derive(Debug, Clone)]
pub enum ControlCmd {
    /// Fault injection: one op of the run's schedule. A kill or a revive is
    /// the shard's to apply ([`Shard::fault`]); a stall is served by the
    /// thread hosting it ([`stall_of`]), after the acknowledgement.
    Fault(FaultOp),
    /// One op of a plan's list (or a state import), for the shard to deliver
    /// to `Target` ([`Shard::apply`]).
    Op(Target, ControlOp),
    /// Export switch `ip`'s entries for one virtual group (the donor side of
    /// chain repair). Answered with [`ControlEvt::Export`].
    ExportGroup {
        /// Donor switch.
        ip: Ipv4Addr,
        /// Virtual group to export.
        group: u32,
        /// Total number of virtual groups.
        modulus: u32,
    },
}

/// A shard → controller event.
#[derive(Debug, Clone)]
pub enum ControlEvt {
    /// The command has been applied.
    Ack,
    /// The entries requested by [`ControlCmd::ExportGroup`].
    Export(Vec<ExportedEntry>),
}

/// What a control ring carries: a command or event beside its ack token.
/// `None` is what an unused ring slot holds; it is never sent.
pub type Tagged<T> = Option<(u64, T)>;

/// Applies one command to a shard, producing the event to send back.
pub fn apply(shard: &mut Shard, cmd: ControlCmd) -> ControlEvt {
    match cmd {
        ControlCmd::Fault(op) => shard.fault(&op),
        ControlCmd::Op(target, op) => shard.apply(target, &op),
        ControlCmd::ExportGroup { ip, group, modulus } => {
            return ControlEvt::Export(shard.export_group(ip, group, modulus));
        }
    }
    ControlEvt::Ack
}

/// How long the thread hosting `shard` must stall once it has acknowledged
/// `cmd`: the length of a `Stall` naming the shard or a switch it hosts, zero
/// for anything else.
pub fn stall_of(shard: &Shard, cmd: &ControlCmd) -> Duration {
    match *cmd {
        ControlCmd::Fault(FaultOp::Stall(ip, dur)) if shard.named_by(ip) => dur,
        _ => Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_core::failplan::FailoverPlan;
    use netchain_core::HashRing;
    use netchain_switch::PipelineConfig;
    use netchain_wire::{Key, Value};

    #[test]
    fn commands_apply_and_ack() {
        let ring = HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7);
        let spare = Ipv4Addr::for_switch(9);
        let mut shard = Shard::with_spares(0, 1, ring.clone(), PipelineConfig::tiny(64), &[spare]);
        let key = Key::from_name("ctl/key");
        shard.populate(key, &Value::from_u64(4));
        let victim = ring.chain_for_key(&key).head();

        let evt = apply(&mut shard, ControlCmd::Fault(FaultOp::Kill(victim)));
        assert!(matches!(evt, ControlEvt::Ack));
        assert!(shard.is_failed(victim));
        // A stall is the hosting thread's: by shard address or by a switch
        // the shard hosts a slice of, and of nobody else.
        let ms = Duration::from_millis(3);
        let stall = |ip| stall_of(&shard, &ControlCmd::Fault(FaultOp::Stall(ip, ms)));
        assert_eq!(stall(Ipv4Addr::for_shard(0)), ms);
        assert_eq!(stall(spare), ms);
        assert_eq!(stall(Ipv4Addr::for_shard(1)), Duration::ZERO);

        // Algorithm 2's list, one command per op: every live replica gets the
        // rule, the dead one is left as it froze.
        let mut session = 5;
        let failover = FailoverPlan::compute(&ring, victim, &[victim].into());
        for (target, op) in failover.ops(&mut session) {
            let evt = apply(&mut shard, ControlCmd::Op(target, op));
            assert!(matches!(evt, ControlEvt::Ack));
        }
        for &ip in ring.switches() {
            let programmed = shard.switch(ip).unwrap().forwarding().targets(victim);
            assert_eq!(programmed, ip != victim, "switch {ip}");
        }
        let new_head = ring.chain_for_key(&key).switches[1];
        assert!((5..session).contains(&shard.switch(new_head).unwrap().session()));

        let modulus = ring.num_virtual_nodes() as u32;
        let group = ring.group_of(&key);
        let evt = apply(
            &mut shard,
            ControlCmd::ExportGroup {
                ip: new_head,
                group,
                modulus,
            },
        );
        let ControlEvt::Export(entries) = evt else {
            panic!("export must answer with entries");
        };
        assert!(entries.iter().any(|e| e.key == key));

        let import = ControlOp::Import(entries);
        let evt = apply(&mut shard, ControlCmd::Op(Target::Switch(spare), import));
        assert!(matches!(evt, ControlEvt::Ack));
        assert!(shard.switch(spare).unwrap().kv().lookup(&key).is_some());
    }
}
