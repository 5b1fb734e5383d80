//! The register store and its key index against plain-`HashMap` models.
//!
//! The store writes only the value stages the longer of the old and new
//! value occupies, keeps every slot's length / ordering / validity in one
//! record, and hands slots out lazily; the index is a single open-addressed
//! array that shifts runs back on removal and grows with its entries. Random
//! control-plane and data-plane sequences must leave both indistinguishable
//! from the obvious models, and no byte of a longer previous value may
//! survive a shrink — in particular across a stage boundary.
//!
//! A stage is backed only once a value reaches it, for the slots backed so
//! far, and every read of all 128 register bytes must see zeroes past the
//! value whether or not the stage is backed. So the cases that hand slots out
//! some other way than `insert` — an import of an absent key, a slot recycled
//! after garbage collection, a store sized up front and filled in index
//! order — each have a case of their own, as does a slot whose value grows
//! from one stage to all eight and back.

use netchain_switch::{ExportedEntry, KvError, MatchTable, PipelineConfig, SwitchKvStore};
use netchain_wire::{Key, Value, MAX_VALUE_LEN};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

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

    #[test]
    fn importing_absent_keys_installs_them(
        entries in proptest::collection::vec(
            (0..KEYS, 0..=MAX_VALUE_LEN, any::<u8>(), 0..3u64, 0..50u64, any::<bool>()),
            1..30,
        ),
    ) {
        let mut kv = SwitchKvStore::new(geometry());
        let mut model: HashMap<Key, Entry> = HashMap::new();
        for (k, len, salt, session, seq, valid) in entries {
            let key = Key::from_u64(k);
            if model.contains_key(&key) {
                continue;
            }
            let incoming = Entry { value: value(len, salt), seq, session, valid };
            let entry = exported(&HashMap::from([(key, incoming.clone())]), |_| true);
            let full = model.len() == SLOTS;
            prop_assert_eq!(kv.import_entry(&entry[0]).err(), full.then_some(KvError::Full));
            if full {
                prop_assert_eq!(kv.lookup(&key), None);
                continue;
            }
            model.insert(key, incoming);
            let slot = kv.lookup(&key).expect("the import installed the key");
            prop_assert_eq!(kv.read_value(slot), entry[0].value.clone());
            prop_assert_eq!(kv.ordering(slot), (session, seq));
            prop_assert_eq!(kv.is_valid(slot), valid);
            prop_assert_eq!(kv.free_slots(), SLOTS - model.len());
        }
        prop_assert_eq!(kv.export_entries(), exported(&model, |_| true));
    }

    #[test]
    fn a_recycled_slot_reads_back_only_its_new_value(
        old in 0..=MAX_VALUE_LEN,
        new in 0..=MAX_VALUE_LEN,
        salt in any::<u8>(),
        victim in 0..SLOTS as u64,
    ) {
        let mut kv = SwitchKvStore::new(geometry());
        for k in 0..SLOTS as u64 {
            kv.insert(Key::from_u64(k), &value(old, salt)).unwrap();
        }
        let gone = Key::from_u64(victim);
        let slot = kv.lookup(&gone).unwrap();
        kv.set_seq(slot, 9);
        kv.invalidate(slot);
        kv.garbage_collect(&gone).unwrap();
        prop_assert_eq!(kv.free_slots(), 1);
        // The only slot left is the collected one: the new key must get it,
        // with none of what the old key left in any stage.
        let fresh = Key::from_u64(KEYS + victim);
        let v = value(new, salt.wrapping_add(1));
        prop_assert_eq!(kv.insert(fresh, &v), Ok(slot));
        prop_assert_eq!(kv.free_slots(), 0);
        prop_assert_eq!(kv.read_value(slot), v.clone());
        prop_assert_eq!((kv.ordering(slot), kv.is_valid(slot)), ((0, 0), true));
        let mut registers = [0xffu8; MAX_VALUE_LEN];
        prop_assert_eq!(kv.copy_value_into(slot, &mut registers), MAX_VALUE_LEN);
        prop_assert_eq!(&registers[..new], v.as_bytes());
        prop_assert!(registers[new..].iter().all(|&b| b == 0), "the old value survives");
        prop_assert_eq!(kv.insert(gone, &v), Err(KvError::Full));
    }

    #[test]
    fn an_eight_byte_slot_grows_to_every_stage_and_shrinks_back(
        salt in any::<u8>(),
        back in 0..=8usize,
    ) {
        let mut kv = SwitchKvStore::new(geometry());
        let key = Key::from_u64(3);
        let slot = kv.insert(key, &Value::from_u64(7)).unwrap();
        let stages = |kv: &SwitchKvStore| {
            let mut registers = [0xffu8; MAX_VALUE_LEN];
            assert_eq!(kv.copy_value_into(slot, &mut registers), MAX_VALUE_LEN);
            registers
        };
        let long = value(MAX_VALUE_LEN, salt);
        kv.write_value(slot, &long);
        prop_assert_eq!(kv.read_value(slot), long.clone());
        // Stages 2-8 hold exactly their sixteen bytes of the long value.
        prop_assert_eq!(&stages(&kv)[16..], &long.as_bytes()[16..]);
        let short = value(back, salt.wrapping_add(1));
        kv.write_value(slot, &short);
        prop_assert_eq!(kv.read_value(slot), short.clone());
        let registers = stages(&kv);
        prop_assert_eq!(&registers[..back], short.as_bytes());
        prop_assert!(registers[back..].iter().all(|&b| b == 0), "the long value survives");
    }

    #[test]
    fn a_batch_install_equals_one_by_one_installs(
        before in proptest::collection::vec((0..KEYS, any::<bool>()), 0..10),
        batch in proptest::collection::vec((0..KEYS, 0..=MAX_VALUE_LEN, any::<u8>()), 1..20),
    ) {
        // The same history on both sides: some keys installed, some of them
        // collected again, so the batch takes recycled slots and fresh ones.
        let (mut sized, mut single) = (SwitchKvStore::new(geometry()), SwitchKvStore::new(geometry()));
        for kv in [&mut sized, &mut single] {
            for &(k, collect) in &before {
                let key = Key::from_u64(k);
                let _ = kv.insert(key, &value(MAX_VALUE_LEN, k as u8));
                if collect {
                    kv.garbage_collect(&key).unwrap();
                }
            }
        }
        let mut seen = HashSet::new();
        let mut batch: Vec<(u64, Key, Value)> = batch
            .into_iter()
            .filter(|&(k, ..)| seen.insert(k))
            .map(|(k, len, salt)| (Key::from_u64(KEYS + k), value(len, salt)))
            .map(|(key, v)| (key.stable_hash(), key, v))
            .collect();
        batch.truncate(single.free_slots());
        for (_, key, v) in &batch {
            single.insert(*key, v).unwrap();
        }
        sized.reserve(batch.len());
        for (hash, key, v) in &batch {
            sized.insert_hashed(*hash, *key, v).unwrap();
        }
        prop_assert_eq!(sized.free_slots(), single.free_slots());
        prop_assert_eq!(sized.store_size(), single.store_size());
        for k in 0..2 * KEYS {
            let key = Key::from_u64(k);
            let (a, b) = (sized.lookup(&key), single.lookup(&key));
            prop_assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                prop_assert_eq!(sized.read_value(a), single.read_value(b));
                prop_assert_eq!(sized.ordering(a), single.ordering(b));
                prop_assert_eq!(sized.is_valid(a), single.is_valid(b));
            }
        }
        prop_assert_eq!(sized.export_entries(), single.export_entries());
    }
}
