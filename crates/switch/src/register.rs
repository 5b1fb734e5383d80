//! Register arrays: the on-chip SRAM word arrays a P4 program can read and
//! modify per packet at line rate.
//!
//! NetChain stores values in register arrays (one array per pipeline stage,
//! each stage contributing up to 16 bytes of the value); the sequence,
//! session and length registers share the same index space (§4.1, §4.3) and
//! are modelled as one record per slot in [`crate::kv`].
//! An array is *provisioned* for its whole geometry, which accounting reads,
//! but *backed* only as far as the store has asked (`RegisterArray::back`).

use std::fmt;

/// A fixed-geometry array of fixed-width registers.
///
/// Geometry is chosen at construction: `slots` registers of `width` bytes
/// each. Reads and writes are per-slot; a write shorter than the width zero
/// pads, which matches how a P4 action writes a header field into a wider
/// register.
#[derive(Clone)]
pub struct RegisterArray {
    width: usize,
    backed: Vec<u8>,
    slots: usize,
}

impl fmt::Debug for RegisterArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegisterArray")
            .field("slots", &self.slots)
            .field("width", &self.width)
            .finish()
    }
}

impl RegisterArray {
    /// Provisions `slots` registers, each `width` bytes wide, backing none.
    pub fn new(slots: usize, width: usize) -> Self {
        assert!(width > 0, "register width must be non-zero");
        RegisterArray {
            width,
            backed: Vec::new(),
            slots,
        }
    }

    /// Backs registers `0..slots`, at most the provisioned ones, with zeroes.
    pub(crate) fn back(&mut self, slots: usize) {
        let len = slots.min(self.slots) * self.width;
        self.backed.resize(len.max(self.backed.len()), 0);
    }

    /// Total SRAM footprint in bytes, as provisioned.
    pub fn memory_bytes(&self) -> usize {
        self.slots * self.width
    }

    /// Reads the register at `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range or not backed — the store backs a
    /// slot before the match table can produce it, so either is a logic bug.
    pub fn read(&self, index: usize) -> &[u8] {
        assert!(index < self.slots, "register index {index} out of range");
        &self.backed[index * self.width..(index + 1) * self.width]
    }

    /// Writes `value` to the register at `index`, zero-padding or truncating
    /// to the register width (truncation cannot happen for NetChain because
    /// the stage geometry is sized for the maximum value). Panics as
    /// [`Self::read`] does.
    pub fn write(&mut self, index: usize, value: &[u8]) {
        assert!(index < self.slots, "register index {index} out of range");
        let slot = &mut self.backed[index * self.width..(index + 1) * self.width];
        let n = value.len().min(slot.len());
        slot[..n].copy_from_slice(&value[..n]);
        for byte in slot[n..].iter_mut() {
            *byte = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_and_memory() {
        let arr = RegisterArray::new(64, 16);
        assert_eq!((arr.slots, arr.width), (64, 16));
        assert_eq!(arr.memory_bytes(), 1024);
    }

    #[test]
    fn backing_is_zeroed_capped_and_never_shrinks() {
        let mut arr = RegisterArray::new(4, 2);
        assert!(arr.backed.is_empty(), "nothing is backed up front");
        arr.back(2);
        arr.write(1, &[7, 7]);
        arr.back(1);
        arr.back(9);
        assert_eq!(arr.backed, [0, 0, 7, 7, 0, 0, 0, 0]);
        assert_eq!(arr.memory_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range for slice of length 0")]
    fn unbacked_write_panics() {
        RegisterArray::new(4, 2).write(0, &[1]);
    }

    #[test]
    fn write_pads_and_truncates() {
        let mut arr = RegisterArray::new(4, 4);
        arr.back(4);
        arr.write(1, &[0xaa, 0xbb]);
        assert_eq!(arr.read(1), &[0xaa, 0xbb, 0, 0]);
        arr.write(1, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(arr.read(1), &[1, 2, 3, 4]);
        arr.write(1, &[]);
        assert_eq!(arr.read(1), &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        RegisterArray::new(2, 2).read(2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_width_rejected() {
        RegisterArray::new(2, 0);
    }
}
