//! Page-table operation errors.

use asap_types::{PtLevel, VirtAddr};

/// Errors returned by page-table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtError {
    /// The virtual address is outside the paging mode's address width.
    OutOfRange(VirtAddr),
    /// The address or frame is not aligned to the requested page size.
    Misaligned(VirtAddr),
    /// A mapping already exists for the page containing the address.
    AlreadyMapped(VirtAddr),
    /// No mapping exists for the page containing the address.
    NotMapped(VirtAddr),
    /// The walk ran into a large-page leaf at the given level while needing
    /// to descend further (e.g. mapping a 4 KiB page inside an existing
    /// 2 MiB mapping).
    LargePageConflict {
        /// The faulting virtual address.
        va: VirtAddr,
        /// The level holding the conflicting large-page leaf.
        level: PtLevel,
    },
}

impl core::fmt::Display for PtError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PtError::OutOfRange(va) => write!(f, "virtual address {va} exceeds paging mode"),
            PtError::Misaligned(va) => write!(f, "address {va} not aligned to page size"),
            PtError::AlreadyMapped(va) => write!(f, "page containing {va} is already mapped"),
            PtError::NotMapped(va) => write!(f, "page containing {va} is not mapped"),
            PtError::LargePageConflict { va, level } => {
                write!(f, "large-page leaf at {level} conflicts with mapping {va}")
            }
        }
    }
}

impl std::error::Error for PtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let va = VirtAddr::new(0x1000).unwrap();
        assert!(PtError::OutOfRange(va).to_string().contains("exceeds"));
        assert!(PtError::Misaligned(va).to_string().contains("aligned"));
        assert!(PtError::AlreadyMapped(va).to_string().contains("already"));
        assert!(PtError::NotMapped(va).to_string().contains("not mapped"));
        let e = PtError::LargePageConflict {
            va,
            level: PtLevel::Pl2,
        };
        assert!(e.to_string().contains("PL2"));
    }
}
