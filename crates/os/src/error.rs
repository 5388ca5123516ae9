//! OS-model errors.

use asap_pt::PtError;
use asap_types::VirtAddr;

/// Errors from address-space and paging operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// The requested range overlaps an existing VMA.
    Overlap,
    /// A range bound is not page-aligned.
    Misaligned,
    /// The range is empty or would shrink.
    EmptyRange,
    /// No VMA with the given id.
    UnknownVma,
    /// The address lies outside every VMA (a true segmentation fault).
    Segfault(VirtAddr),
    /// Physical memory was exhausted.
    OutOfMemory,
    /// A page-table update failed (e.g. a fault mapping an already-mapped
    /// page).
    PageTable(PtError),
}

impl core::fmt::Display for OsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OsError::Overlap => f.write_str("range overlaps an existing VMA"),
            OsError::Misaligned => f.write_str("range is not page-aligned"),
            OsError::EmptyRange => f.write_str("range is empty or shrinking"),
            OsError::UnknownVma => f.write_str("no such VMA"),
            OsError::Segfault(va) => write!(f, "access to unmapped address {va}"),
            OsError::OutOfMemory => f.write_str("physical memory exhausted"),
            OsError::PageTable(e) => write!(f, "page-table update failed: {e}"),
        }
    }
}

impl std::error::Error for OsError {}

impl From<PtError> for OsError {
    fn from(e: PtError) -> Self {
        OsError::PageTable(e)
    }
}

impl From<asap_alloc::AllocError> for OsError {
    fn from(_: asap_alloc::AllocError) -> Self {
        OsError::OutOfMemory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(OsError::Overlap.to_string().contains("overlaps"));
        let va = VirtAddr::new(0x1234000).unwrap();
        assert!(OsError::Segfault(va).to_string().contains("unmapped"));
    }

    #[test]
    fn pt_error_converts() {
        let va = VirtAddr::new(0x5000).unwrap();
        let e: OsError = PtError::AlreadyMapped(va).into();
        assert_eq!(e, OsError::PageTable(PtError::AlreadyMapped(va)));
        assert!(e.to_string().contains("already mapped"));
    }

    #[test]
    fn alloc_error_converts() {
        let e: OsError = asap_alloc::AllocError::OutOfMemory { order: 0 }.into();
        assert_eq!(e, OsError::OutOfMemory);
    }
}
