//! Sparse simulated physical memory for page-table pages.

use crate::PtFrame;
use asap_pt::Pte;
use asap_types::FastMap;
use asap_types::{PhysAddr, PhysFrameNum, PTE_SIZE};

/// Simulated machine memory, materializing only the frames that hold
/// page-table pages.
///
/// Data pages never need backing store: the cache and TLB models operate on
/// addresses alone. Page-table pages, in contrast, hold the pointer chains
/// the walker traverses, so they are stored — sparsely — here.
///
/// # Examples
///
/// ```
/// use asap_pt::{Pte, PteFlags};
/// use asap_pt_test_util::SimPhysMem;
/// use asap_types::{PhysAddr, PhysFrameNum};
///
/// let mut mem = SimPhysMem::new();
/// let frame = PhysFrameNum::new(0x80);
/// mem.install_table_frame(frame);
/// let entry_addr = PhysAddr::new((0x80 << 12) + 8 * 5); // entry index 5
/// mem.write_entry(entry_addr, Pte::new(PhysFrameNum::new(9), PteFlags::user_data()));
/// assert!(mem.read_entry(entry_addr).is_present());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimPhysMem {
    frames: FastMap<u64, PtFrame>,
}

impl SimPhysMem {
    /// Creates empty physical memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `frame` as a page-table page (zero-filled).
    ///
    /// Installing an already-installed frame is a no-op (the OS model may
    /// re-derive placements idempotently).
    pub fn install_table_frame(&mut self, frame: PhysFrameNum) {
        self.frames.entry(frame.raw()).or_default();
    }

    /// Removes a page-table page, returning whether it existed.
    pub fn remove_table_frame(&mut self, frame: PhysFrameNum) -> bool {
        self.frames.remove(&frame.raw()).is_some()
    }

    /// Whether `frame` is a registered page-table page.
    #[must_use]
    pub fn is_table_frame(&self, frame: PhysFrameNum) -> bool {
        self.frames.contains_key(&frame.raw())
    }

    /// Reads the 8-byte entry at physical address `addr`.
    ///
    /// Reads from non-table frames (or unmaterialized memory) return the
    /// not-present entry, mirroring zero-filled RAM.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    #[must_use]
    pub fn read_entry(&self, addr: PhysAddr) -> Pte {
        assert!(addr.is_aligned(PTE_SIZE), "unaligned PTE read at {addr}");
        let frame = addr.frame_number();
        let index = addr.frame_offset() / PTE_SIZE;
        self.frames
            .get(&frame.raw())
            .map_or(Pte::not_present(), |f| f.read(index))
    }

    /// Writes the 8-byte entry at physical address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unaligned or its frame was never installed as a
    /// table frame — writing page-table entries into unregistered memory is
    /// a simulator bug worth failing loudly on.
    pub fn write_entry(&mut self, addr: PhysAddr, pte: Pte) {
        assert!(addr.is_aligned(PTE_SIZE), "unaligned PTE write at {addr}");
        let frame = addr.frame_number();
        let index = addr.frame_offset() / PTE_SIZE;
        #[expect(clippy::panic, reason = "unregistered PTE frame (# Panics)")]
        let f = self
            .frames
            .get_mut(&frame.raw())
            .unwrap_or_else(|| panic!("PTE write to non-table frame {frame}"));
        f.write(index, pte);
    }

    /// Direct access to a table frame's contents.
    #[must_use]
    pub fn table_frame(&self, frame: PhysFrameNum) -> Option<&PtFrame> {
        self.frames.get(&frame.raw())
    }

    /// Number of materialized table frames.
    #[must_use]
    pub fn table_frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Iterates over all table frames in unspecified order.
    pub fn iter_table_frames(&self) -> impl Iterator<Item = (PhysFrameNum, &PtFrame)> {
        self.frames
            .iter()
            .map(|(&raw, f)| (PhysFrameNum::new(raw), f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_pt::PteFlags;

    #[test]
    fn read_from_void_is_not_present() {
        let mem = SimPhysMem::new();
        assert!(!mem.read_entry(PhysAddr::new(0x5000)).is_present());
    }

    #[test]
    fn entry_addressing_within_frame() {
        let mut mem = SimPhysMem::new();
        let frame = PhysFrameNum::new(2);
        mem.install_table_frame(frame);
        for index in [0u64, 1, 511] {
            let addr = frame.base_addr().add(index * PTE_SIZE);
            let pte = Pte::new(PhysFrameNum::new(100 + index), PteFlags::user_data());
            mem.write_entry(addr, pte);
            assert_eq!(mem.read_entry(addr), pte);
        }
        assert_eq!(mem.table_frame(frame).unwrap().populated(), 3);
    }

    #[test]
    #[should_panic(expected = "non-table frame")]
    fn write_outside_tables_panics() {
        let mut mem = SimPhysMem::new();
        mem.write_entry(
            PhysAddr::new(0x9000),
            Pte::new(PhysFrameNum::new(1), PteFlags::user_data()),
        );
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        let mem = SimPhysMem::new();
        let _ = mem.read_entry(PhysAddr::new(0x5001));
    }

    #[test]
    fn install_is_idempotent() {
        let mut mem = SimPhysMem::new();
        let frame = PhysFrameNum::new(7);
        mem.install_table_frame(frame);
        let addr = frame.base_addr();
        mem.write_entry(addr, Pte::new(PhysFrameNum::new(3), PteFlags::user_data()));
        mem.install_table_frame(frame); // must not wipe contents
        assert!(mem.read_entry(addr).is_present());
        assert_eq!(mem.table_frame_count(), 1);
    }

    #[test]
    fn remove_table_frame_works() {
        let mut mem = SimPhysMem::new();
        let frame = PhysFrameNum::new(7);
        mem.install_table_frame(frame);
        assert!(mem.remove_table_frame(frame));
        assert!(!mem.remove_table_frame(frame));
        assert!(!mem.is_table_frame(frame));
    }
}
