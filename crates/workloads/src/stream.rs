//! The access-stream abstraction.

use asap_types::VirtAddr;

/// A deterministic generator of virtual addresses — one application's
/// memory reference stream as seen by the MMU.
///
/// Streams are infinite: simulations decide how many references to draw
/// (warmup + measurement windows).
pub trait AccessStream {
    /// The next memory reference.
    fn next_va(&mut self) -> VirtAddr;

    /// A short label for reports.
    fn name(&self) -> &'static str;
}

/// A boxed stream, as produced by workload factories.
pub type BoxedStream = Box<dyn AccessStream + Send>;

impl AccessStream for BoxedStream {
    fn next_va(&mut self) -> VirtAddr {
        (**self).next_va()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The ranges a stream draws addresses from: the process' large data VMAs
/// with proportional weights.
#[derive(Debug, Clone, Default)]
pub struct Ranges {
    pub(crate) spans: Vec<(u64, u64)>, // (start, len_bytes)
    total: u64,
}

impl Ranges {
    /// Builds from (start, len) pairs.
    ///
    /// # Panics
    ///
    /// Panics if empty or any span has zero length.
    #[must_use]
    pub fn new(spans: Vec<(u64, u64)>) -> Self {
        assert!(!spans.is_empty(), "a stream needs at least one range");
        assert!(spans.iter().all(|(_, l)| *l > 0), "zero-length range");
        let total = spans.iter().map(|(_, l)| l).sum();
        Self { spans, total }
    }

    /// Total bytes across all ranges.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Total 4 KiB pages.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.total / asap_types::PAGE_SIZE
    }

    /// Maps a global page index in `[0, total_pages)` to a virtual address
    /// (page base).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    #[expect(clippy::panic, reason = "an out-of-range index (# Panics)")]
    pub fn page(&self, index: u64) -> VirtAddr {
        let mut remaining = index;
        for (start, len) in &self.spans {
            let pages = len / asap_types::PAGE_SIZE;
            if remaining < pages {
                return VirtAddr::new_unchecked(start + remaining * asap_types::PAGE_SIZE);
            }
            remaining -= pages;
        }
        panic!("page index {index} out of range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_indexing_spans_ranges() {
        let r = Ranges::new(vec![(0x10000, 2 * 4096), (0x90000, 4096)]);
        assert_eq!(r.total_pages(), 3);
        assert_eq!(r.page(0).raw(), 0x10000);
        assert_eq!(r.page(1).raw(), 0x11000);
        assert_eq!(r.page(2).raw(), 0x90000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_page_panics() {
        let r = Ranges::new(vec![(0x10000, 4096)]);
        let _ = r.page(1);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_ranges_rejected() {
        let _ = Ranges::new(vec![]);
    }
}
