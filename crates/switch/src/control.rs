//! The control-plane vocabulary of a switch: the operations a controller
//! programs it with during failure handling (Algorithms 2 and 3), and the
//! one function that interprets them.
//!
//! Every executor in the repo — the simulator's switch node, a fabric shard,
//! the replay fabric — receives these ops over its own transport and hands
//! them to [`NetChainSwitch::apply`], so what an op *means* is decided here
//! and nowhere else.

use crate::forward::{FailoverRule, RuleScope};
use crate::kv::ExportedEntry;
use crate::program::NetChainSwitch;
use netchain_wire::Ipv4Addr;

/// One controller → switch operation. All are idempotent, so a cautious
/// controller may re-send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlOp {
    /// Install a failover/recovery rule for packets destined to `failed_ip`.
    InstallRule {
        /// The failed switch whose traffic the rule captures.
        failed_ip: Ipv4Addr,
        /// The rule to install.
        rule: FailoverRule,
    },
    /// Remove a previously installed rule (matched by priority and scope).
    RemoveRule {
        /// The failed switch the rule is keyed on.
        failed_ip: Ipv4Addr,
        /// Priority of the rule to remove.
        priority: u8,
        /// Scope of the rule to remove.
        scope: RuleScope,
    },
    /// Set the session number the switch stamps on writes it sequences
    /// (head replacement, §5.2).
    SetSession(u64),
    /// Activate or deactivate query processing (Algorithm 3 phase 2
    /// activates a replacement switch).
    SetActive(bool),
    /// Load entries into the store (state synchronisation onto a replacement
    /// switch). Stale entries never clobber newer local state, so Invariant 1
    /// holds if synchronisation races a live write.
    Import(Vec<ExportedEntry>),
}

impl NetChainSwitch {
    /// Applies one control-plane operation.
    pub fn apply(&mut self, op: &ControlOp) {
        match op {
            ControlOp::InstallRule { failed_ip, rule } => {
                self.forwarding_mut().install(*failed_ip, *rule);
            }
            ControlOp::RemoveRule {
                failed_ip,
                priority,
                scope,
            } => {
                self.forwarding_mut().remove(*failed_ip, *priority, *scope);
            }
            ControlOp::SetSession(session) => self.set_session(*session),
            ControlOp::SetActive(active) => self.set_active(*active),
            ControlOp::Import(entries) => {
                self.kv_mut().reserve(entries.len());
                for entry in entries {
                    let _ = self.kv_mut().import_entry(entry);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailoverAction, PipelineConfig};
    use netchain_wire::{Key, Value};

    #[test]
    fn every_op_programs_what_it_names() {
        let mut sw = NetChainSwitch::new(Ipv4Addr::for_switch(0), PipelineConfig::tiny(8));
        let failed_ip = Ipv4Addr::for_switch(1);
        let rule = FailoverRule {
            priority: 2,
            scope: RuleScope::All,
            action: FailoverAction::Block,
        };
        sw.apply(&ControlOp::InstallRule { failed_ip, rule });
        let key = Key::from_name("k");
        assert_eq!(
            sw.forwarding().action_for(failed_ip, &key),
            Some(FailoverAction::Block)
        );
        sw.apply(&ControlOp::RemoveRule {
            failed_ip,
            priority: 2,
            scope: RuleScope::All,
        });
        assert!(sw.forwarding().is_empty());

        sw.apply(&ControlOp::SetSession(6));
        sw.apply(&ControlOp::SetActive(false));
        assert_eq!((sw.session(), sw.is_active()), (6, false));

        let entry = ExportedEntry {
            key,
            value: Value::from_u64(3),
            seq: 4,
            session: 5,
            valid: true,
        };
        sw.apply(&ControlOp::Import(vec![entry.clone()]));
        // A second, staler copy of the key leaves the newer one in place.
        let stale = ExportedEntry {
            value: Value::from_u64(1),
            seq: 2,
            ..entry.clone()
        };
        sw.apply(&ControlOp::Import(vec![stale]));
        assert_eq!(sw.kv().export_entries(), vec![entry]);
    }
}
