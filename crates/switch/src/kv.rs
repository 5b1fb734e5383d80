//! The on-chip key-value store: a match table for the key index plus register
//! arrays for values, sequence numbers and session numbers (Figure 3).
//!
//! Values are stored the way the prototype stores them: split across the
//! value stages, `bytes_per_stage` bytes per stage, with a length register so
//! variable-length values round-trip exactly. The length, sequence, session
//! and validity registers of a slot — everything Algorithm 1 checks before it
//! touches the value — sit side by side in one per-slot record, so the
//! ordering check costs one cache line.
//!
//! **Invariant:** in every value stage, the bytes of a slot past its stored
//! length are zero. [`SwitchKvStore::write_value`] and garbage collection
//! therefore touch only the stages the longer of the old and new value
//! occupies, never all of them.
//!
//! Each stage is backed only up to the highest slot handed out, never by the
//! data path; accounting and [`KvError::Full`] count the provisioned slots.

use crate::pipeline::{PipelineConfig, ResourceUsage};
use crate::register::RegisterArray;
use crate::table::{MatchTable, Vacant};
use netchain_wire::{Key, Value};

/// Errors returned by control-plane operations on the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// No free value slot remains.
    Full,
    /// The key is already installed.
    KeyExists,
    /// The key is not installed.
    KeyNotFound,
    /// The value exceeds what the provisioned stages can hold even with
    /// recirculation disabled.
    ValueTooLarge,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Full => write!(f, "no free slots in the on-chip store"),
            KvError::KeyExists => write!(f, "key already installed"),
            KvError::KeyNotFound => write!(f, "key not installed"),
            KvError::ValueTooLarge => write!(f, "value exceeds provisioned stage capacity"),
        }
    }
}

impl std::error::Error for KvError {}

/// One exported key-value entry, used for state synchronisation during
/// failure recovery (§5.2 pre-synchronisation / synchronisation steps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportedEntry {
    /// The key.
    pub key: Key,
    /// Current value.
    pub value: Value,
    /// Stored sequence number.
    pub seq: u64,
    /// Stored session number.
    pub session: u64,
    /// Whether the entry is live (false = invalidated by a `Delete` awaiting
    /// garbage collection).
    pub valid: bool,
}

/// The non-value registers of one slot. On the ASIC these are three 8-byte
/// register arrays and a flag sharing the value arrays' index space; here
/// they share a record so one cache line answers "is it live, how long, how
/// new".
#[derive(Debug, Clone, Copy, Default)]
struct SlotMeta {
    /// Per-key sequence number (Algorithm 1).
    seq: u64,
    /// Per-key session number (§5.2, NOPaxos-style head replacement).
    session: u64,
    /// Value length in bytes.
    len: u32,
    /// Validity flag (a `Delete` invalidates; the controller garbage
    /// collects later).
    valid: bool,
}

/// SRAM the sequence, session and length registers of one slot occupy.
const META_REGISTER_BYTES: usize = 3 * 8;

/// The switch-resident key-value store.
#[derive(Debug, Clone)]
pub struct SwitchKvStore {
    config: PipelineConfig,
    index: MatchTable,
    /// One register array per value stage.
    value_stages: Vec<RegisterArray>,
    /// The records of the slots handed out so far: slots are first used in
    /// index order, so the next never-used slot is `meta.len()`.
    meta: Vec<SlotMeta>,
    /// Slots garbage collection gave back, reused before any fresh one.
    free: Vec<usize>,
}

impl SwitchKvStore {
    /// Creates an empty store with the given pipeline geometry.
    pub fn new(config: PipelineConfig) -> Self {
        let slots = config.slots_per_stage;
        let value_stages = (0..config.value_stages)
            .map(|_| RegisterArray::new(slots, config.bytes_per_stage))
            .collect();
        SwitchKvStore {
            config,
            index: MatchTable::new(slots),
            value_stages,
            meta: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Sizes the store once for `keys` more installs, backing their slots.
    pub fn reserve(&mut self, keys: usize) {
        self.index.reserve(keys);
        let slots = self.meta.len() + keys.saturating_sub(self.free.len());
        self.meta.reserve(slots - self.meta.len());
        for stage in &mut self.value_stages {
            stage.back(slots);
        }
    }

    /// The pipeline geometry this store was built for.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Number of installed keys.
    pub fn store_size(&self) -> usize {
        self.index.len()
    }

    /// Number of slots still available.
    pub fn free_slots(&self) -> usize {
        self.free.len() + self.config.slots_per_stage - self.meta.len()
    }

    /// Looks up the slot index of a key (data-plane match, Algorithm 1 line 1).
    pub fn lookup(&self, key: &Key) -> Option<usize> {
        self.index.lookup(key)
    }

    /// [`Self::lookup`] with the key's stable hash already in hand — the
    /// per-hop match of a packet that was hashed once on arrival.
    pub fn lookup_with_hash(&self, hash: u64, key: &Key) -> Option<usize> {
        self.index.lookup_with_hash(hash, key)
    }

    /// True if the slot currently holds a live (not invalidated) entry.
    pub fn is_valid(&self, slot: usize) -> bool {
        self.meta[slot].valid
    }

    /// Installs a new key with an initial value (control-plane `Insert`).
    pub fn insert(&mut self, key: Key, value: &Value) -> Result<usize, KvError> {
        self.insert_hashed(key.stable_hash(), key, value)
    }

    /// [`Self::insert`] for a key whose stable hash the caller already has.
    pub fn insert_hashed(&mut self, hash: u64, key: Key, value: &Value) -> Result<usize, KvError> {
        match self.index.probe(hash, &key) {
            Ok(_) => Err(KvError::KeyExists),
            Err(vacant) => self.install(vacant, key, value),
        }
    }

    /// The index cell a probe for `hash` starts at.
    pub fn home(&self, hash: u64) -> usize {
        self.index.home(hash)
    }

    /// Hands an absent `key` a slot and the index cell its probe found.
    fn install(&mut self, vacant: Vacant, key: Key, value: &Value) -> Result<usize, KvError> {
        if value.len() > self.config.max_line_rate_value() {
            return Err(KvError::ValueTooLarge);
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None if self.meta.len() < self.config.slots_per_stage => {
                self.reserve(1);
                self.meta.push(SlotMeta::default());
                self.meta.len() - 1
            }
            None => return Err(KvError::Full),
        };
        self.index.fill(vacant, key, slot);
        // A never-used or collected slot's ordering registers are zero.
        self.write_value(slot, value);
        self.meta[slot].valid = true;
        Ok(slot)
    }

    /// Invalidates a key's entry (data-plane effect of `Delete`): the slot
    /// stays allocated until [`Self::garbage_collect`] reclaims it.
    pub fn invalidate(&mut self, slot: usize) {
        self.meta[slot].valid = false;
    }

    /// Re-validates a slot (a `Write` to an invalidated but not yet collected
    /// key resurrects it, matching register-array semantics).
    pub fn revalidate(&mut self, slot: usize) {
        self.meta[slot].valid = true;
    }

    /// Removes a key entirely and frees its slot (control-plane garbage
    /// collection after a `Delete`).
    pub fn garbage_collect(&mut self, key: &Key) -> Result<(), KvError> {
        let slot = self.index.remove(key).ok_or(KvError::KeyNotFound)?;
        self.write_value(slot, &Value::empty());
        self.meta[slot] = SlotMeta::default();
        self.free.push(slot);
        Ok(())
    }

    /// Reads the value stored in `slot`, reassembled across stages.
    pub fn read_value(&self, slot: usize) -> Value {
        let mut value = Value::empty();
        self.read_value_into(slot, &mut value);
        value
    }

    /// [`Self::read_value`] into an existing [`Value`], reusing its
    /// allocation (how the switch answers a query inside the query's own
    /// packet).
    pub fn read_value_into(&self, slot: usize, out: &mut Value) {
        let len = self.value_len(slot).min(self.config.max_line_rate_value());
        out.fill_with(len, |buf| {
            self.copy_value_into(slot, buf);
        })
        .expect("stored values never exceed the wire maximum");
    }

    /// The stored value as a big-endian `u64` if it is exactly 8 bytes (the
    /// compare half of compare-and-swap, read straight from the registers).
    pub fn value_u64(&self, slot: usize) -> Option<u64> {
        let mut bytes = [0u8; 8];
        (self.value_len(slot) == 8 && self.copy_value_into(slot, &mut bytes) == 8)
            .then(|| u64::from_be_bytes(bytes))
    }

    /// Length in bytes of the value stored in `slot`, without reassembling
    /// it (the staged read path sizes its in-place reply emission with this).
    pub fn value_len(&self, slot: usize) -> usize {
        self.meta[slot].len as usize
    }

    /// Copies the value stored in `slot` into `out` (at most
    /// [`Self::value_len`] bytes), reassembling across stages without the
    /// `Vec` allocation [`Self::read_value`] pays. Returns the bytes copied.
    pub fn copy_value_into(&self, slot: usize, out: &mut [u8]) -> usize {
        let mut copied = 0;
        for (stage, chunk) in self
            .value_stages
            .iter()
            .zip(out.chunks_mut(self.config.bytes_per_stage))
        {
            chunk.copy_from_slice(&stage.read(slot)[..chunk.len()]);
            copied += chunk.len();
        }
        copied
    }

    /// Stage 3 of the staged batch pipeline, for one lane: resolves `key`'s
    /// slot through the index with its **precomputed** stable hash (see
    /// `stable_hash_batch`), and touches a hit's ordering and length
    /// registers so the slot state stage 4 executes against is cache-hot —
    /// the software analogue of a hardware prefetch. Stage 4 re-reads the
    /// registers at execution time, so interleaved mutations in the same
    /// burst observe and produce exactly the scalar path's state.
    pub fn probe_slot(&self, key: &Key, hash: u64) -> Option<usize> {
        let slot = self.index.lookup_with_hash(hash, key);
        if let Some(s) = slot {
            let meta = &self.meta[s];
            std::hint::black_box(meta.seq ^ meta.session ^ u64::from(meta.len));
        }
        slot
    }

    /// [`Self::probe_slot`] for every lane of `keys`, appending to `out`.
    pub fn probe_slots(&self, keys: &[Key], hashes: &[u64], out: &mut Vec<Option<usize>>) {
        debug_assert_eq!(keys.len(), hashes.len());
        out.extend(
            keys.iter()
                .zip(hashes)
                .map(|(key, &hash)| self.probe_slot(key, hash)),
        );
    }

    /// Writes a value into `slot`, splitting it across stages. Only the
    /// stages the old or the new value reaches are written (see the module
    /// invariant); bytes the stages cannot hold are dropped, the length
    /// register still records what was asked.
    pub fn write_value(&mut self, slot: usize, value: &Value) {
        let bytes = value.as_bytes();
        let width = self.config.bytes_per_stage;
        let old_len = std::mem::replace(&mut self.meta[slot].len, bytes.len() as u32) as usize;
        let touched = old_len.max(bytes.len()).div_ceil(width);
        for (i, stage) in self.value_stages.iter_mut().take(touched).enumerate() {
            let end = bytes.len().min((i + 1) * width);
            // A stage wholly past the new value gets the empty slice, which
            // zeroes what the old value left there.
            stage.write(slot, bytes.get(i * width..end).unwrap_or(&[]));
        }
    }

    /// The stored sequence number of `slot`.
    pub fn seq(&self, slot: usize) -> u64 {
        self.meta[slot].seq
    }

    /// Sets the stored sequence number of `slot`.
    pub fn set_seq(&mut self, slot: usize, seq: u64) {
        self.meta[slot].seq = seq;
    }

    /// The stored session number of `slot`.
    pub fn session(&self, slot: usize) -> u64 {
        self.meta[slot].session
    }

    /// Sets the stored session number of `slot`.
    pub fn set_session(&mut self, slot: usize, session: u64) {
        self.meta[slot].session = session;
    }

    /// The `(session, seq)` ordering tuple of `slot`.
    pub fn ordering(&self, slot: usize) -> (u64, u64) {
        (self.meta[slot].session, self.meta[slot].seq)
    }

    /// The given index entries with their register state, in key order.
    fn export<'a>(&self, entries: impl Iterator<Item = (&'a Key, usize)>) -> Vec<ExportedEntry> {
        let mut out: Vec<ExportedEntry> = entries
            .map(|(key, slot)| ExportedEntry {
                key: *key,
                value: self.read_value(slot),
                seq: self.seq(slot),
                session: self.session(slot),
                valid: self.is_valid(slot),
            })
            .collect();
        out.sort_by_key(|e| e.key);
        out
    }

    /// Exports every installed entry in key order, for state
    /// synchronisation.
    pub fn export_entries(&self) -> Vec<ExportedEntry> {
        self.export(self.index.entries())
    }

    /// Exports, in key order, the entries of virtual group `group` out of
    /// `modulus` (the unit chain repair moves). The index selects them by
    /// their stored hashes, so no other entry's value is read or sorted.
    pub fn export_group(&self, group: u32, modulus: u32) -> Vec<ExportedEntry> {
        self.export(self.index.entries_in_group(group, modulus))
    }

    /// Imports one entry (used on a replacement switch during recovery).
    /// Existing entries are overwritten only if the imported ordering tuple
    /// is at least as new, preserving Invariant 1 when synchronisation races
    /// with live writes.
    pub fn import_entry(&mut self, entry: &ExportedEntry) -> Result<(), KvError> {
        let slot = match self.index.probe(entry.key.stable_hash(), &entry.key) {
            Ok(slot) => {
                if (entry.session, entry.seq) < self.ordering(slot) {
                    return Ok(());
                }
                self.write_value(slot, &entry.value);
                slot
            }
            Err(vacant) => self.install(vacant, entry.key, &entry.value)?,
        };
        self.meta[slot] = SlotMeta {
            seq: entry.seq,
            session: entry.session,
            valid: entry.valid,
            ..self.meta[slot]
        };
        Ok(())
    }

    /// Wipes every entry (a recovered switch starts empty, with nothing
    /// backed, before being resynchronised).
    pub fn clear_all(&mut self) {
        *self = SwitchKvStore::new(self.config);
    }

    /// SRAM consumption snapshot.
    pub fn resource_usage(&self) -> ResourceUsage {
        ResourceUsage {
            index_bytes: self.index.memory_bytes(),
            value_register_bytes: self
                .value_stages
                .iter()
                .map(RegisterArray::memory_bytes)
                .sum(),
            ordering_register_bytes: self.config.slots_per_stage * META_REGISTER_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SwitchKvStore {
        SwitchKvStore::new(PipelineConfig::tiny(8))
    }

    #[test]
    fn insert_read_write_roundtrip() {
        let mut kv = store();
        let key = Key::from_name("foo");
        let slot = kv
            .insert(key, &Value::new(b"hello".to_vec()).unwrap())
            .unwrap();
        assert_eq!(kv.lookup(&key), Some(slot));
        assert_eq!(kv.read_value(slot).as_bytes(), b"hello");
        assert!(kv.is_valid(slot));
        kv.write_value(
            slot,
            &Value::new(b"a longer value spanning stages!".to_vec()).unwrap(),
        );
        assert_eq!(
            kv.read_value(slot).as_bytes(),
            b"a longer value spanning stages!"
        );
        assert_eq!(kv.store_size(), 1);
    }

    #[test]
    fn values_span_multiple_stages_exactly() {
        let mut kv = store(); // 2 stages × 16 bytes
        let key = Key::from_u64(9);
        let v32 = Value::filled(0x5a, 32).unwrap();
        let slot = kv.insert(key, &v32).unwrap();
        assert_eq!(kv.read_value(slot), v32);
        // Shrinking the value must not leak old bytes.
        let v3 = Value::new(b"abc".to_vec()).unwrap();
        kv.write_value(slot, &v3);
        assert_eq!(kv.read_value(slot), v3);
    }

    #[test]
    fn insert_rejects_duplicates_oversize_and_overflow() {
        let mut kv = store();
        let key = Key::from_u64(1);
        kv.insert(key, &Value::empty()).unwrap();
        assert_eq!(kv.insert(key, &Value::empty()), Err(KvError::KeyExists));
        assert_eq!(
            kv.insert(Key::from_u64(2), &Value::filled(0, 33).unwrap()),
            Err(KvError::ValueTooLarge),
            "2 stages x 16B = 32B maximum for the tiny config"
        );
        for i in 3..10u64 {
            let r = kv.insert(Key::from_u64(i), &Value::empty());
            if kv.free_slots() == 0 && r == Err(KvError::Full) {
                return; // overflow observed
            }
        }
        assert_eq!(
            kv.insert(Key::from_u64(99), &Value::empty()),
            Err(KvError::Full)
        );
    }

    #[test]
    fn delete_invalidate_and_gc_cycle() {
        let mut kv = store();
        let key = Key::from_name("k");
        let slot = kv.insert(key, &Value::from_u64(1)).unwrap();
        kv.invalidate(slot);
        assert!(!kv.is_valid(slot));
        kv.revalidate(slot);
        assert!(kv.is_valid(slot));
        kv.invalidate(slot);
        let before = kv.free_slots();
        kv.garbage_collect(&key).unwrap();
        assert_eq!(kv.free_slots(), before + 1);
        assert_eq!(kv.lookup(&key), None);
        assert_eq!(kv.garbage_collect(&key), Err(KvError::KeyNotFound));
    }

    #[test]
    fn ordering_registers() {
        let mut kv = store();
        let slot = kv.insert(Key::from_u64(5), &Value::empty()).unwrap();
        assert_eq!(kv.ordering(slot), (0, 0));
        kv.set_seq(slot, 7);
        kv.set_session(slot, 2);
        assert_eq!(kv.ordering(slot), (2, 7));
    }

    #[test]
    fn export_import_preserves_state_and_respects_ordering() {
        let mut a = store();
        let key = Key::from_name("cfg");
        let slot = a.insert(key, &Value::from_u64(10)).unwrap();
        a.set_seq(slot, 5);
        a.set_session(slot, 1);

        let mut b = store();
        for entry in a.export_entries() {
            b.import_entry(&entry).unwrap();
        }
        let bslot = b.lookup(&key).unwrap();
        assert_eq!(b.read_value(bslot).as_u64(), Some(10));
        assert_eq!(b.ordering(bslot), (1, 5));

        // A stale import must not clobber newer local state.
        b.set_seq(bslot, 9);
        b.write_value(bslot, &Value::from_u64(99));
        for entry in a.export_entries() {
            b.import_entry(&entry).unwrap();
        }
        assert_eq!(b.read_value(bslot).as_u64(), Some(99));
        assert_eq!(b.seq(bslot), 9);
    }

    #[test]
    fn clear_all_frees_everything() {
        let mut kv = store();
        for i in 0..5u64 {
            kv.insert(Key::from_u64(i), &Value::from_u64(i)).unwrap();
        }
        kv.clear_all();
        assert_eq!(kv.store_size(), 0);
        assert_eq!(kv.free_slots(), 8);
    }

    #[test]
    fn resource_usage_reflects_geometry() {
        let kv = SwitchKvStore::new(PipelineConfig::tofino_prototype());
        let usage = kv.resource_usage();
        assert_eq!(usage.value_register_bytes, 8 * 1024 * 1024);
        assert!(usage.fits(&PipelineConfig::tofino_prototype()));
        assert_eq!(usage.index_bytes, 0);
    }
}
