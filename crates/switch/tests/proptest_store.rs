//! The register store and its key index against plain-`HashMap` models.
//!
//! The store writes only the value stages the longer of the old and new
//! value occupies, keeps every slot's length / ordering / validity in one
//! record, and hands slots out lazily; the index is a single open-addressed
//! array that shifts runs back on removal and grows with its entries. Random
//! control-plane and data-plane sequences must leave both indistinguishable
//! from the obvious models, and no byte of a longer previous value may
//! survive a shrink — in particular across a stage boundary.

use netchain_switch::{ExportedEntry, KvError, MatchTable, PipelineConfig, SwitchKvStore};
use netchain_wire::{Key, Value, MAX_VALUE_LEN};
use proptest::prelude::*;
use std::collections::HashMap;

const SLOTS: usize = 12;
const KEYS: u64 = 16;
const GROUPS: u32 = 3;

/// The paper's stage shape (8 × 16 bytes) over a handful of slots, so the
/// store fills up and slots are recycled.
fn geometry() -> PipelineConfig {
    PipelineConfig {
        value_stages: 8,
        bytes_per_stage: 16,
        slots_per_stage: SLOTS,
        sram_budget_bytes: usize::MAX / 2,
    }
}

/// `len` bytes, none of them zero and no two neighbours equal, so a byte
/// left behind or put in the wrong place shows.
fn value(len: usize, salt: u8) -> Value {
    let bytes: Vec<u8> = (0..len)
        .map(|i| salt.wrapping_add(i as u8) | 0x80)
        .collect();
    Value::new(bytes).unwrap()
}

#[derive(Debug, Clone)]
enum StoreOp {
    Insert(u64, usize, u8),
    Write(u64, usize, u8),
    Invalidate(u64),
    Revalidate(u64),
    SetOrdering(u64, u64, u64),
    GarbageCollect(u64),
    Import(u64, usize, u8, u64, u64, bool),
}

fn arb_store_op() -> impl Strategy<Value = StoreOp> {
    let key = || 0..KEYS;
    let len = || 0..=MAX_VALUE_LEN;
    prop_oneof![
        (key(), len(), any::<u8>()).prop_map(|(k, l, s)| StoreOp::Insert(k, l, s)),
        (key(), len(), any::<u8>()).prop_map(|(k, l, s)| StoreOp::Write(k, l, s)),
        (key(), len(), any::<u8>()).prop_map(|(k, l, s)| StoreOp::Write(k, l, s)),
        key().prop_map(StoreOp::Invalidate),
        key().prop_map(StoreOp::Revalidate),
        (key(), 0..3u64, 0..50u64).prop_map(|(k, se, sq)| StoreOp::SetOrdering(k, se, sq)),
        key().prop_map(StoreOp::GarbageCollect),
        (key(), len(), any::<u8>(), 0..3u64, 0..50u64, any::<bool>())
            .prop_map(|(k, l, s, se, sq, v)| StoreOp::Import(k, l, s, se, sq, v)),
    ]
}

/// What the model remembers of one installed key.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    value: Value,
    seq: u64,
    session: u64,
    valid: bool,
}

fn exported(model: &HashMap<Key, Entry>, keep: impl Fn(&Key) -> bool) -> Vec<ExportedEntry> {
    let mut out: Vec<ExportedEntry> = model
        .iter()
        .filter(|(key, _)| keep(key))
        .map(|(key, e)| ExportedEntry {
            key: *key,
            value: e.value.clone(),
            seq: e.seq,
            session: e.session,
            valid: e.valid,
        })
        .collect();
    out.sort_by_key(|e| e.key);
    out
}

proptest! {
    #[test]
    fn store_agrees_with_the_model(steps in proptest::collection::vec(arb_store_op(), 1..120)) {
        let mut kv = SwitchKvStore::new(geometry());
        let mut model: HashMap<Key, Entry> = HashMap::new();
        for step in steps {
            match step {
                StoreOp::Insert(k, len, salt) => {
                    let key = Key::from_u64(k);
                    let expect = if model.contains_key(&key) {
                        Some(KvError::KeyExists)
                    } else if model.len() == SLOTS {
                        Some(KvError::Full)
                    } else {
                        None
                    };
                    let v = value(len, salt);
                    prop_assert_eq!(kv.insert(key, &v).err(), expect);
                    if expect.is_none() {
                        model.insert(key, Entry { value: v, seq: 0, session: 0, valid: true });
                    }
                }
                StoreOp::Write(k, len, salt) => {
                    let key = Key::from_u64(k);
                    if let Some(slot) = kv.lookup(&key) {
                        let v = value(len, salt);
                        kv.write_value(slot, &v);
                        model.get_mut(&key).expect("lookup hit").value = v;
                    }
                }
                StoreOp::Invalidate(k) | StoreOp::Revalidate(k) => {
                    let key = Key::from_u64(k);
                    if let Some(slot) = kv.lookup(&key) {
                        let valid = matches!(step, StoreOp::Revalidate(_));
                        if valid { kv.revalidate(slot) } else { kv.invalidate(slot) }
                        model.get_mut(&key).expect("lookup hit").valid = valid;
                    }
                }
                StoreOp::SetOrdering(k, session, seq) => {
                    let key = Key::from_u64(k);
                    if let Some(slot) = kv.lookup(&key) {
                        kv.set_session(slot, session);
                        kv.set_seq(slot, seq);
                        let e = model.get_mut(&key).expect("lookup hit");
                        (e.session, e.seq) = (session, seq);
                    }
                }
                StoreOp::GarbageCollect(k) => {
                    let key = Key::from_u64(k);
                    let expect = model.remove(&key).map(|_| ()).ok_or(KvError::KeyNotFound);
                    prop_assert_eq!(kv.garbage_collect(&key), expect);
                }
                StoreOp::Import(k, len, salt, session, seq, valid) => {
                    let key = Key::from_u64(k);
                    let incoming = Entry { value: value(len, salt), seq, session, valid };
                    let full = !model.contains_key(&key) && model.len() == SLOTS;
                    let stale = model
                        .get(&key)
                        .is_some_and(|e| (session, seq) < (e.session, e.seq));
                    let entry = exported(&HashMap::from([(key, incoming.clone())]), |_| true);
                    prop_assert_eq!(
                        kv.import_entry(&entry[0]).err(),
                        full.then_some(KvError::Full)
                    );
                    if !full && !stale {
                        model.insert(key, incoming);
                    }
                }
            }

            prop_assert_eq!(kv.store_size(), model.len());
            prop_assert_eq!(kv.free_slots(), SLOTS - model.len());
            for k in 0..KEYS {
                let key = Key::from_u64(k);
                let slot = kv.lookup(&key);
                prop_assert_eq!(kv.lookup_with_hash(key.stable_hash(), &key), slot);
                let Some(e) = model.get(&key) else {
                    prop_assert_eq!(slot, None);
                    continue;
                };
                let slot = slot.expect("the model holds the key");
                prop_assert_eq!(kv.read_value(slot), e.value.clone());
                prop_assert_eq!(kv.value_len(slot), e.value.len());
                prop_assert_eq!(kv.ordering(slot), (e.session, e.seq));
                prop_assert_eq!(kv.is_valid(slot), e.valid);
                // All 128 bytes the stages hold for the slot: the value, then
                // zeroes — whatever longer value was there before.
                let mut registers = [0xffu8; MAX_VALUE_LEN];
                prop_assert_eq!(kv.copy_value_into(slot, &mut registers), MAX_VALUE_LEN);
                let (stored, past) = registers.split_at(e.value.len());
                prop_assert_eq!(stored, e.value.as_bytes());
                prop_assert!(past.iter().all(|&b| b == 0), "bytes past the length survive");
            }
            prop_assert_eq!(kv.export_entries(), exported(&model, |_| true));
            for group in 0..GROUPS {
                let in_group =
                    |key: &Key| (key.stable_hash() % u64::from(GROUPS)) as u32 == group;
                prop_assert_eq!(kv.export_group(group, GROUPS), exported(&model, in_group));
            }
        }
    }

    #[test]
    fn index_agrees_with_the_model_under_churn(
        steps in proptest::collection::vec((any::<bool>(), 0..40u64, 0..1000usize), 1..300),
    ) {
        const CAPACITY: usize = 24;
        let mut table = MatchTable::new(CAPACITY);
        let mut model: HashMap<Key, usize> = HashMap::new();
        for (insert, k, index) in steps {
            let key = Key::from_u64(k);
            if insert {
                let fits = !model.contains_key(&key) && model.len() < CAPACITY;
                prop_assert_eq!(table.insert(key, index), fits);
                if fits {
                    model.insert(key, index);
                }
            } else {
                prop_assert_eq!(table.remove(&key), model.remove(&key));
            }

            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_full(), model.len() == CAPACITY);
            for k in 0..40 {
                let key = Key::from_u64(k);
                prop_assert_eq!(table.lookup(&key), model.get(&key).copied());
                prop_assert_eq!(
                    table.lookup_with_hash(key.stable_hash(), &key),
                    model.get(&key).copied()
                );
            }
            let sorted = |pairs: &mut dyn Iterator<Item = (&Key, usize)>| {
                let mut pairs: Vec<(Key, usize)> = pairs.map(|(k, i)| (*k, i)).collect();
                pairs.sort();
                pairs
            };
            prop_assert_eq!(
                sorted(&mut table.entries()),
                sorted(&mut model.iter().map(|(k, &i)| (k, i)))
            );
            for group in 0..5u32 {
                let in_group = |key: &Key| key.stable_hash() % 5 == u64::from(group);
                prop_assert_eq!(
                    sorted(&mut table.entries_in_group(group, 5)),
                    sorted(&mut model.iter().filter(|(k, _)| in_group(k)).map(|(k, &i)| (k, i)))
                );
            }
        }
    }
}
