//! Page-table levels and virtual-address index extraction.

use crate::{VirtAddr, INDEX_BITS, PAGE_SHIFT};

/// One level of the radix-tree page table, named as in the paper (Fig. 1):
/// `PL1` is the leaf level holding PTEs, `PL4` is the root of the classic
/// x86-64 four-level table, and `PL5` is the additional root level of the
/// five-level format (§3.5).
///
/// # Examples
///
/// ```
/// use asap_types::{PtLevel, VirtAddr};
/// let va = VirtAddr::new(0x0000_7fff_ffff_f000).unwrap();
/// assert_eq!(PtLevel::Pl4.index_of(va), 0xff);
/// assert_eq!(PtLevel::Pl1.index_of(va), 0x1ff);
/// assert_eq!(PtLevel::Pl2.child(), Some(PtLevel::Pl1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PtLevel {
    /// Leaf level; entries are PTEs mapping 4 KiB pages.
    Pl1,
    /// Second level; entries point to PL1 tables or map 2 MiB pages.
    Pl2,
    /// Third level; entries point to PL2 tables or map 1 GiB pages.
    Pl3,
    /// Fourth level; the root under 4-level paging.
    Pl4,
    /// Fifth level; the root under 5-level paging.
    Pl5,
}

impl PtLevel {
    /// All levels, leaf first.
    pub const ALL: [PtLevel; 5] = [
        PtLevel::Pl1,
        PtLevel::Pl2,
        PtLevel::Pl3,
        PtLevel::Pl4,
        PtLevel::Pl5,
    ];

    /// The level's depth number: 1 for PL1 (leaf) through 5 for PL5.
    #[must_use]
    pub const fn depth(self) -> u32 {
        match self {
            PtLevel::Pl1 => 1,
            PtLevel::Pl2 => 2,
            PtLevel::Pl3 => 3,
            PtLevel::Pl4 => 4,
            PtLevel::Pl5 => 5,
        }
    }

    /// Builds a level from its depth number (1..=5).
    #[must_use]
    pub const fn from_depth(depth: u32) -> Option<Self> {
        match depth {
            1 => Some(PtLevel::Pl1),
            2 => Some(PtLevel::Pl2),
            3 => Some(PtLevel::Pl3),
            4 => Some(PtLevel::Pl4),
            5 => Some(PtLevel::Pl5),
            _ => None,
        }
    }

    /// Lowest virtual-address bit of this level's index field.
    ///
    /// PL1 indexes bits 12..21, PL2 bits 21..30, PL3 bits 30..39,
    /// PL4 bits 39..48, PL5 bits 48..57.
    #[must_use]
    pub const fn index_shift(self) -> u32 {
        PAGE_SHIFT + (self.depth() - 1) * INDEX_BITS
    }

    /// Extracts this level's 9-bit table index from a virtual address.
    #[must_use]
    pub const fn index_of(self, va: VirtAddr) -> u64 {
        (va.raw() >> self.index_shift()) & ((1 << INDEX_BITS) - 1)
    }

    /// Bytes of virtual address space covered by **one entry** at this level.
    ///
    /// 4 KiB for PL1 entries, 2 MiB for PL2, 1 GiB for PL3, 512 GiB for PL4,
    /// 256 TiB for PL5.
    #[must_use]
    pub const fn entry_coverage(self) -> u64 {
        1 << self.index_shift()
    }

    /// Bytes of virtual address space covered by one **table page** (512
    /// entries) at this level.
    #[must_use]
    pub const fn table_coverage(self) -> u64 {
        self.entry_coverage() << INDEX_BITS
    }

    /// The next level toward the leaves, or `None` for PL1.
    #[must_use]
    pub const fn child(self) -> Option<Self> {
        match self {
            PtLevel::Pl1 => None,
            PtLevel::Pl2 => Some(PtLevel::Pl1),
            PtLevel::Pl3 => Some(PtLevel::Pl2),
            PtLevel::Pl4 => Some(PtLevel::Pl3),
            PtLevel::Pl5 => Some(PtLevel::Pl4),
        }
    }

    /// The next level toward the root, or `None` for PL5.
    #[must_use]
    pub const fn parent(self) -> Option<Self> {
        match self {
            PtLevel::Pl1 => Some(PtLevel::Pl2),
            PtLevel::Pl2 => Some(PtLevel::Pl3),
            PtLevel::Pl3 => Some(PtLevel::Pl4),
            PtLevel::Pl4 => Some(PtLevel::Pl5),
            PtLevel::Pl5 => None,
        }
    }

    /// The amount by which the paper's prefetcher shifts the VMA byte offset
    /// to obtain the byte offset of the target node *within the reserved,
    /// sorted region* for this level (the `s1`/`s2` labels of Fig. 6).
    ///
    /// One table page at level L holds 512 entries, each covering
    /// `entry_coverage(L)` bytes; a node (one 8-byte entry's worth of
    /// resolution at the *table-page* granularity) for a VA offset `off`
    /// lives at `(off >> table_coverage.log2()) * 4096 +
    /// ((off >> entry_coverage.log2()) % 512) * 8`. Because the region is
    /// contiguous and sorted, this simplifies to
    /// `(off >> entry_coverage.log2()) * 8` — i.e. shift right by
    /// `index_shift()`, multiply by the PTE size. `prefetch_shift` returns
    /// the right-shift amount.
    #[must_use]
    pub const fn prefetch_shift(self) -> u32 {
        self.index_shift()
    }
}

impl core::fmt::Display for PtLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PL{}", self.depth())
    }
}

/// Paging format: the classic four-level x86-64 radix tree, or the
/// five-level extension ("la57") the paper's §3.5 anticipates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagingMode {
    /// 48-bit virtual addresses, PL4 root (default).
    #[default]
    FourLevel,
    /// 57-bit virtual addresses, PL5 root.
    FiveLevel,
}

impl PagingMode {
    /// The root level of the radix tree under this mode.
    #[must_use]
    pub const fn root_level(self) -> PtLevel {
        match self {
            PagingMode::FourLevel => PtLevel::Pl4,
            PagingMode::FiveLevel => PtLevel::Pl5,
        }
    }

    /// Number of radix-tree levels.
    #[must_use]
    pub const fn depth(self) -> u32 {
        self.root_level().depth()
    }

    /// Number of valid virtual-address bits.
    #[must_use]
    pub const fn va_bits(self) -> u32 {
        match self {
            PagingMode::FourLevel => crate::VA_BITS_4LEVEL,
            PagingMode::FiveLevel => crate::VA_BITS_5LEVEL,
        }
    }

    /// Whether `va` is representable under this mode.
    #[must_use]
    pub const fn contains(self, va: VirtAddr) -> bool {
        va.raw() >> self.va_bits() == 0
    }

    /// Iterates the levels of a walk in traversal order (root to leaf).
    pub fn levels(self) -> impl DoubleEndedIterator<Item = PtLevel> + Clone {
        let root = self.root_level().depth();
        #[expect(clippy::expect_used, reason = "each depth names a level")]
        (1..=root)
            .rev()
            .map(|d| PtLevel::from_depth(d).expect("depth in range"))
    }
}

impl core::fmt::Display for PagingMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PagingMode::FourLevel => f.write_str("4-level"),
            PagingMode::FiveLevel => f.write_str("5-level"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_shift_values() {
        assert_eq!(PtLevel::Pl1.index_shift(), 12);
        assert_eq!(PtLevel::Pl2.index_shift(), 21);
        assert_eq!(PtLevel::Pl3.index_shift(), 30);
        assert_eq!(PtLevel::Pl4.index_shift(), 39);
        assert_eq!(PtLevel::Pl5.index_shift(), 48);
    }

    #[test]
    fn coverage_values() {
        assert_eq!(PtLevel::Pl1.entry_coverage(), 4096);
        assert_eq!(PtLevel::Pl2.entry_coverage(), 2 << 20);
        assert_eq!(PtLevel::Pl3.entry_coverage(), 1 << 30);
        assert_eq!(PtLevel::Pl1.table_coverage(), 2 << 20);
        assert_eq!(PtLevel::Pl2.table_coverage(), 1 << 30);
    }

    #[test]
    fn index_extraction_composes_va() {
        let va = VirtAddr::new(0x0000_5a5a_5a5a_5a5a & ((1 << 48) - 1)).unwrap();
        let reconstructed = (PtLevel::Pl4.index_of(va) << 39)
            | (PtLevel::Pl3.index_of(va) << 30)
            | (PtLevel::Pl2.index_of(va) << 21)
            | (PtLevel::Pl1.index_of(va) << 12)
            | va.page_offset();
        assert_eq!(reconstructed, va.raw());
    }

    #[test]
    fn child_parent_chain() {
        assert_eq!(PtLevel::Pl5.child(), Some(PtLevel::Pl4));
        assert_eq!(PtLevel::Pl1.child(), None);
        assert_eq!(PtLevel::Pl1.parent(), Some(PtLevel::Pl2));
        assert_eq!(PtLevel::Pl5.parent(), None);
        // depth/from_depth roundtrip
        for l in PtLevel::ALL {
            assert_eq!(PtLevel::from_depth(l.depth()), Some(l));
        }
        assert_eq!(PtLevel::from_depth(0), None);
        assert_eq!(PtLevel::from_depth(6), None);
    }

    #[test]
    fn mode_walk_order() {
        let four: Vec<_> = PagingMode::FourLevel.levels().collect();
        assert_eq!(
            four,
            [PtLevel::Pl4, PtLevel::Pl3, PtLevel::Pl2, PtLevel::Pl1]
        );
        let five: Vec<_> = PagingMode::FiveLevel.levels().collect();
        assert_eq!(five.len(), 5);
        assert_eq!(five[0], PtLevel::Pl5);
        assert_eq!(*five.last().unwrap(), PtLevel::Pl1);
    }

    #[test]
    fn mode_va_limits() {
        let hi48 = VirtAddr::new((1 << 48) - 1).unwrap();
        let over48 = VirtAddr::new(1 << 48).unwrap();
        assert!(PagingMode::FourLevel.contains(hi48));
        assert!(!PagingMode::FourLevel.contains(over48));
        assert!(PagingMode::FiveLevel.contains(over48));
    }

    #[test]
    fn display() {
        assert_eq!(PtLevel::Pl2.to_string(), "PL2");
        assert_eq!(PagingMode::FiveLevel.to_string(), "5-level");
    }
}
