//! Page-table node placement.

use asap_types::{PhysFrameNum, PtLevel, VirtAddr};

/// Chooses physical frames for new page-table nodes.
///
/// This is the policy hook at the heart of the reproduction: the paper's OS
/// extension (§3.3) is *exactly* a page-table node placement policy. The
/// baseline implementation scatters nodes like the Linux buddy allocator;
/// the ASAP implementation places PL1/PL2 nodes in reserved, contiguous,
/// virtually-sorted regions. Both live in `asap-os`; this crate only defines
/// the interface plus a trivial bump allocator for tests and examples.
pub trait PtNodeAllocator {
    /// Returns a fresh, zeroed frame for a node at `level` that will map the
    /// virtual region containing `va`.
    fn alloc_node(&mut self, level: PtLevel, va: VirtAddr) -> PhysFrameNum;
}

/// A sequential node allocator for tests, examples and micro-benchmarks.
#[derive(Debug, Clone)]
pub struct BumpNodeAllocator {
    next: u64,
}

impl BumpNodeAllocator {
    /// Creates an allocator handing out frames from `start` upward.
    #[must_use]
    pub fn new(start: PhysFrameNum) -> Self {
        Self { next: start.raw() }
    }
}

impl PtNodeAllocator for BumpNodeAllocator {
    fn alloc_node(&mut self, _level: PtLevel, _va: VirtAddr) -> PhysFrameNum {
        let f = PhysFrameNum::new(self.next);
        self.next += 1;
        f
    }
}
