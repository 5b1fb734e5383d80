//! Exact-match tables.
//!
//! The NetChain key index (Figure 3) is an exact-match table whose action
//! returns the register-array location of the matched key. Entries are
//! installed and removed by the control plane (`Insert`/`Delete` queries go
//! through the controller, §4.1); the data plane only performs lookups.

use netchain_wire::Key;

/// One cell of the open-addressed table: 32 bytes, two to a cache line.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// The key's stable hash, kept so probes compare eight bytes before
    /// sixteen and group scans never re-hash.
    hash: u64,
    key: Key,
    /// The register index, or [`VACANT`].
    index: u32,
}

const VACANT: u32 = u32::MAX;

/// The vacant cell a [`MatchTable::probe`] ended at, and the hash it probed.
pub(crate) struct Vacant(usize, u64);

const VACANT_CELL: Cell = Cell {
    hash: 0,
    key: Key([0; netchain_wire::KEY_LEN]),
    index: VACANT,
};

/// An exact-match table from [`Key`] to a register-array index, with a fixed
/// capacity (the number of value slots provisioned in the pipeline).
///
/// The table is one open-addressed array keyed by the key's *stable* FNV hash
/// — the hash a packet is matched on once and then carries through every hop.
/// [`MatchTable::lookup_with_hash`] probes with that precomputed hash;
/// [`MatchTable::lookup`] hashes and calls it. Removal shifts the following
/// run back instead of leaving a tombstone, so a probe always ends at the
/// first vacant cell. The array is sized for the entries installed, not for
/// the capacity, so a store provisioned for many more keys than it holds
/// still probes a table that fits the cache.
#[derive(Debug, Clone)]
pub struct MatchTable {
    capacity: usize,
    len: usize,
    cells: Vec<Cell>,
    /// `cells.len() - 1`; the array is a power of two at least twice the
    /// number of entries, keeping the load factor at or below one half.
    mask: usize,
}

impl MatchTable {
    /// Creates an empty table that can hold at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity < VACANT as usize, "register indexes are 32-bit");
        MatchTable {
            capacity,
            len: 0,
            cells: vec![VACANT_CELL; 2],
            mask: 1,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if no further entries can be installed.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Looks up the register index of `key` (the match-action lookup of
    /// Algorithm 1 line 1). Returns `None` on a table miss, in which case the
    /// switch drops the query or replies "not found".
    pub fn lookup(&self, key: &Key) -> Option<usize> {
        self.lookup_with_hash(key.stable_hash(), key)
    }

    /// [`MatchTable::lookup`] for a key whose stable hash
    /// (`key.stable_hash()`) the caller already has.
    pub fn lookup_with_hash(&self, hash: u64, key: &Key) -> Option<usize> {
        let cell = &self.cells[self.find(hash, key)];
        (cell.index != VACANT).then_some(cell.index as usize)
    }

    /// The cell holding `key`, or the vacant cell that ends its probe run.
    fn find(&self, hash: u64, key: &Key) -> usize {
        let mut i = (hash as usize) & self.mask;
        loop {
            let cell = &self.cells[i];
            if cell.index == VACANT || (cell.hash == hash && cell.key == *key) {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Installs an entry (control-plane operation). Returns `false` if the
    /// table is full or the key already exists.
    pub fn insert(&mut self, key: Key, index: usize) -> bool {
        let vacant = self.probe(key.stable_hash(), &key).err();
        let vacant = vacant.filter(|_| !self.is_full());
        vacant.map(|vacant| self.fill(vacant, key, index)).is_some()
    }

    /// The one probe an install makes, after growing if one more entry would
    /// pass half load: `Ok` with an installed `key`'s index, else the cell
    /// to [`Self::fill`].
    pub(crate) fn probe(&mut self, hash: u64, key: &Key) -> Result<usize, Vacant> {
        if 2 * (self.len + 1) > self.cells.len() {
            self.reserve(1);
        }
        let cell = self.find(hash, key);
        match self.cells[cell].index {
            VACANT => Err(Vacant(cell, hash)),
            index => Ok(index as usize),
        }
    }

    /// Installs `key` where its probe ended, with nothing changed since.
    pub(crate) fn fill(&mut self, Vacant(cell, hash): Vacant, key: Key, index: usize) {
        let index = u32::try_from(index).expect("register indexes are 32-bit");
        self.cells[cell] = Cell { hash, key, index };
        self.len += 1;
    }

    /// Sizes the array once for `additional` more entries at half load,
    /// re-seating every entry by its stored hash.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let cells = (2 * (self.len + additional).min(self.capacity)).next_power_of_two();
        if cells > self.cells.len() {
            self.mask = cells - 1;
            for cell in std::mem::replace(&mut self.cells, vec![VACANT_CELL; cells]) {
                if cell.index != VACANT {
                    let i = self.find(cell.hash, &cell.key);
                    self.cells[i] = cell;
                }
            }
        }
    }

    /// The cell a probe for `hash` starts at.
    pub(crate) fn home(&self, hash: u64) -> usize {
        hash as usize & self.mask
    }

    /// Removes an entry (control-plane operation), returning the index it
    /// pointed at.
    pub fn remove(&mut self, key: &Key) -> Option<usize> {
        let mut hole = self.find(key.stable_hash(), key);
        let removed = self.cells[hole].index;
        if removed == VACANT {
            return None;
        }
        // Backward-shift deletion: pull every later cell of the run whose
        // home position is not past the hole into it, so no probe for a
        // surviving key crosses a vacant cell.
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            let cell = self.cells[i];
            if cell.index == VACANT {
                break;
            }
            let home = self.home(cell.hash);
            if (i.wrapping_sub(home) & self.mask) >= (i.wrapping_sub(hole) & self.mask) {
                self.cells[hole] = cell;
                hole = i;
            }
        }
        self.cells[hole].index = VACANT;
        self.len -= 1;
        Some(removed as usize)
    }

    /// Iterates over all `(key, index)` pairs (used by state synchronisation
    /// during failure recovery).
    pub fn entries(&self) -> impl Iterator<Item = (&Key, usize)> {
        self.occupied().map(|c| (&c.key, c.index as usize))
    }

    /// The `(key, index)` pairs of virtual group `group` out of `modulus`,
    /// selected by the **stored** hash: nothing is hashed or read to reject
    /// an entry of another group.
    pub fn entries_in_group(
        &self,
        group: u32,
        modulus: u32,
    ) -> impl Iterator<Item = (&Key, usize)> {
        let modulus = u64::from(modulus.max(1));
        self.occupied()
            .filter(move |c| (c.hash % modulus) as u32 == group)
            .map(|c| (&c.key, c.index as usize))
    }

    fn occupied(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().filter(|c| c.index != VACANT)
    }

    /// Approximate SRAM footprint: each entry stores the 16-byte key plus a
    /// 4-byte action parameter (the index), which is how the paper's 8 MB
    /// storage figure accounts for keys.
    pub fn memory_bytes(&self) -> usize {
        self.len * (netchain_wire::KEY_LEN + 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut t = MatchTable::new(4);
        let k = Key::from_name("x");
        assert!(t.is_empty());
        assert!(t.insert(k, 7));
        assert!(!t.insert(k, 8), "duplicate insert must be rejected");
        assert_eq!(t.lookup(&k), Some(7));
        assert_eq!(t.len(), 1);
        assert_eq!(t.memory_bytes(), 20);
        assert_eq!(t.remove(&k), Some(7));
        assert_eq!(t.lookup(&k), None);
        assert!(t.is_empty());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = MatchTable::new(2);
        assert!(t.insert(Key::from_u64(1), 0));
        assert!(t.insert(Key::from_u64(2), 1));
        assert!(t.is_full());
        assert!(!t.insert(Key::from_u64(3), 2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn entries_iterates_everything() {
        let mut t = MatchTable::new(8);
        for i in 0..5u64 {
            t.insert(Key::from_u64(i), i as usize);
        }
        let mut pairs: Vec<(u64, usize)> = t.entries().map(|(k, v)| (k.low_u64(), v)).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
    }
}
