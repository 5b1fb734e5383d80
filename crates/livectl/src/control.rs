//! The control-plane vocabulary: the commands a controller sends to a shard
//! and the events a shard sends back, plus the single function that applies
//! a command to a [`Shard`].
//!
//! Commands travel over the same bounded lock-free SPSC rings the dataplane
//! uses for frames (`netchain_fabric::ring`), one pair per shard. The shard
//! worker drains its command ring **between bursts**, so a command takes
//! effect at a burst boundary — the software analogue of a switch OS
//! updating match-action tables between pipeline passes. Every command
//! carries a token and is acknowledged, which is what lets the controller
//! (a) measure rule-installation latency honestly and (b) sequence the
//! two-phase repair: phase 2 of a group never starts before every shard has
//! acknowledged phase 1.

use netchain_core::failplan::{FailoverPlan, GroupRepair};
use netchain_fabric::Shard;
use netchain_switch::kv::ExportedEntry;
use netchain_switch::{FailoverRule, RuleScope};
use netchain_wire::Ipv4Addr;

/// A controller → shard command. All commands are idempotent, so a cautious
/// controller may re-send.
#[derive(Debug, Clone)]
pub enum ControlCmd {
    /// Fault injection: fail-stop switch `ip` on this shard.
    KillSwitch {
        /// Switch to kill.
        ip: Ipv4Addr,
        /// Ack token.
        token: u64,
    },
    /// Install a failover/recovery rule for traffic destined to `failed_ip`
    /// into every live switch replica of the shard.
    InstallRule {
        /// The failed switch the rule is keyed on.
        failed_ip: Ipv4Addr,
        /// The rule.
        rule: FailoverRule,
        /// Ack token.
        token: u64,
    },
    /// Remove a previously installed rule (matched by priority and scope).
    RemoveRule {
        /// The failed switch the rule is keyed on.
        failed_ip: Ipv4Addr,
        /// Priority of the rule to remove.
        priority: u8,
        /// Scope of the rule to remove.
        scope: RuleScope,
        /// Ack token.
        token: u64,
    },
    /// Set the session number switch `ip` stamps on writes it sequences.
    SetSession {
        /// Target switch.
        ip: Ipv4Addr,
        /// New session number.
        session: u64,
        /// Ack token.
        token: u64,
    },
    /// Activate or deactivate query processing on switch `ip`.
    SetActive {
        /// Target switch.
        ip: Ipv4Addr,
        /// Whether the switch processes queries addressed to it.
        active: bool,
        /// Ack token.
        token: u64,
    },
    /// Export switch `ip`'s entries for one virtual group (the donor side of
    /// chain repair). Answered with [`ControlEvt::Export`].
    ExportGroup {
        /// Donor switch.
        ip: Ipv4Addr,
        /// Virtual group to export.
        group: u32,
        /// Total number of virtual groups.
        modulus: u32,
        /// Token echoed in the export event.
        token: u64,
    },
    /// Import entries into switch `ip`'s store (the replacement side of
    /// chain repair).
    ImportEntries {
        /// Replacement switch.
        ip: Ipv4Addr,
        /// Entries to import.
        entries: Vec<ExportedEntry>,
        /// Ack token.
        token: u64,
    },
}

/// What an unused control-ring slot holds; never sent.
impl Default for ControlCmd {
    fn default() -> Self {
        ControlCmd::ImportEntries {
            ip: Ipv4Addr::default(),
            entries: Vec::new(),
            token: 0,
        }
    }
}

impl ControlCmd {
    /// The command's ack token.
    pub fn token(&self) -> u64 {
        match *self {
            ControlCmd::KillSwitch { token, .. }
            | ControlCmd::InstallRule { token, .. }
            | ControlCmd::RemoveRule { token, .. }
            | ControlCmd::SetSession { token, .. }
            | ControlCmd::SetActive { token, .. }
            | ControlCmd::ExportGroup { token, .. }
            | ControlCmd::ImportEntries { token, .. } => token,
        }
    }
}

/// A shard → controller event.
#[derive(Debug, Clone)]
pub enum ControlEvt {
    /// The command with this token has been applied.
    Ack {
        /// Token of the acknowledged command.
        token: u64,
    },
    /// The entries requested by [`ControlCmd::ExportGroup`].
    Export {
        /// Token of the export request.
        token: u64,
        /// The exported entries.
        entries: Vec<ExportedEntry>,
    },
}

/// What an unused control-ring slot holds; never sent.
impl Default for ControlEvt {
    fn default() -> Self {
        ControlEvt::Ack { token: 0 }
    }
}

impl ControlEvt {
    /// The event's token.
    pub fn token(&self) -> u64 {
        match *self {
            ControlEvt::Ack { token } | ControlEvt::Export { token, .. } => token,
        }
    }
}

/// A command with its ack token left open (the runner stamps fresh tokens
/// per shard; the replay driver stamps zero).
pub type CmdBuilder = Box<dyn Fn(u64) -> ControlCmd + Send>;

/// The ordered broadcast sequence of Algorithm 2 (fast failover): the
/// ChainFailover rule, then one session bump per new chain head, in plan
/// order (`new_heads[i]` gets `base_session + i`). The threaded runner and
/// the replay driver both execute exactly this list, so their command
/// streams cannot drift apart; after executing it the caller advances its
/// session counter by `plan.new_heads.len()`.
pub fn failover_sequence(plan: &FailoverPlan, base_session: u64) -> Vec<CmdBuilder> {
    let failed_ip = plan.failed_ip;
    let rule = plan.rule;
    let mut cmds: Vec<CmdBuilder> = vec![Box::new(move |token| ControlCmd::InstallRule {
        failed_ip,
        rule,
        token,
    })];
    for (i, &head) in plan.new_heads.iter().enumerate() {
        let session = base_session + i as u64;
        cmds.push(Box::new(move |token| ControlCmd::SetSession {
            ip: head,
            session,
            token,
        }));
    }
    cmds
}

/// The ordered broadcast sequence of Algorithm 3 phase 2 for one repaired
/// group: activate the replacement, stamp its fresh session, install the
/// redirect, and drop the block it overrides — shared between the runner
/// and the replay driver for the same reason as [`failover_sequence`].
pub fn activation_sequence(
    failed_ip: Ipv4Addr,
    replacement: Ipv4Addr,
    session: u64,
    step: &GroupRepair,
) -> Vec<CmdBuilder> {
    let redirect = step.redirect;
    let block = step.block;
    vec![
        Box::new(move |token| ControlCmd::SetActive {
            ip: replacement,
            active: true,
            token,
        }),
        Box::new(move |token| ControlCmd::SetSession {
            ip: replacement,
            session,
            token,
        }),
        Box::new(move |token| ControlCmd::InstallRule {
            failed_ip,
            rule: redirect,
            token,
        }),
        Box::new(move |token| ControlCmd::RemoveRule {
            failed_ip,
            priority: block.priority,
            scope: block.scope,
            token,
        }),
    ]
}

/// Applies one command to a shard, producing the event to send back. This is
/// the only place commands are interpreted — the threaded runner and the
/// deterministic replay driver both call it, so they cannot drift apart.
pub fn apply(shard: &mut Shard, cmd: ControlCmd) -> ControlEvt {
    match cmd {
        ControlCmd::KillSwitch { ip, token } => {
            shard.kill_switch(ip);
            ControlEvt::Ack { token }
        }
        ControlCmd::InstallRule {
            failed_ip,
            rule,
            token,
        } => {
            shard.install_rule(failed_ip, rule);
            ControlEvt::Ack { token }
        }
        ControlCmd::RemoveRule {
            failed_ip,
            priority,
            scope,
            token,
        } => {
            shard.remove_rule(failed_ip, priority, scope);
            ControlEvt::Ack { token }
        }
        ControlCmd::SetSession { ip, session, token } => {
            shard.set_session(ip, session);
            ControlEvt::Ack { token }
        }
        ControlCmd::SetActive { ip, active, token } => {
            shard.set_active(ip, active);
            ControlEvt::Ack { token }
        }
        ControlCmd::ExportGroup {
            ip,
            group,
            modulus,
            token,
        } => ControlEvt::Export {
            token,
            entries: shard.export_group(ip, group, modulus),
        },
        ControlCmd::ImportEntries { ip, entries, token } => {
            shard.import_entries(ip, &entries);
            ControlEvt::Ack { token }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_core::HashRing;
    use netchain_switch::{FailoverAction, PipelineConfig};
    use netchain_wire::{Key, Value};

    #[test]
    fn commands_apply_and_ack() {
        let ring = HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7);
        let spare = Ipv4Addr::for_switch(9);
        let mut shard = Shard::with_spares(0, 1, ring.clone(), PipelineConfig::tiny(64), &[spare]);
        let key = Key::from_name("ctl/key");
        shard.populate(key, &Value::from_u64(4));
        let victim = ring.chain_for_key(&key).head();

        let evt = apply(
            &mut shard,
            ControlCmd::KillSwitch {
                ip: victim,
                token: 1,
            },
        );
        assert!(matches!(evt, ControlEvt::Ack { token: 1 }));
        assert!(shard.is_failed(victim));

        let evt = apply(
            &mut shard,
            ControlCmd::InstallRule {
                failed_ip: victim,
                rule: FailoverRule {
                    priority: 1,
                    scope: RuleScope::All,
                    action: FailoverAction::ChainFailover,
                },
                token: 2,
            },
        );
        assert_eq!(evt.token(), 2);

        let modulus = ring.num_virtual_nodes() as u32;
        let group = ring.group_of(&key);
        let donor = ring.chain_for_key(&key).switches[1];
        let evt = apply(
            &mut shard,
            ControlCmd::ExportGroup {
                ip: donor,
                group,
                modulus,
                token: 3,
            },
        );
        let ControlEvt::Export { token: 3, entries } = evt else {
            panic!("export must answer with entries");
        };
        assert!(entries.iter().any(|e| e.key == key));

        let evt = apply(
            &mut shard,
            ControlCmd::ImportEntries {
                ip: spare,
                entries,
                token: 4,
            },
        );
        assert_eq!(evt.token(), 4);
        assert!(shard.switch(spare).unwrap().kv().lookup(&key).is_some());
    }
}
