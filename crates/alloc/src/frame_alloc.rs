//! The frame-allocator interface shared by OS-level consumers.

use crate::AllocError;
use asap_types::PhysFrameNum;

/// A source of single 4 KiB physical frames (data pages, baseline PT pages).
pub trait FrameAllocator {
    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfMemory`] when exhausted.
    fn alloc_frame(&mut self) -> Result<PhysFrameNum, AllocError>;
}
