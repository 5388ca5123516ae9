//! Allocator errors.

/// Errors from physical-memory allocators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No free frame is left.
    OutOfMemory,
}

impl core::fmt::Display for AllocError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AllocError::OutOfMemory => f.write_str("out of physical frames"),
        }
    }
}

impl std::error::Error for AllocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(AllocError::OutOfMemory
            .to_string()
            .contains("out of physical frames"));
    }
}
