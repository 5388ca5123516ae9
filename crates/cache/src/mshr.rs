//! Miss-status-holding registers (MSHRs).
//!
//! ASAP prefetches are buffered in the L1-D's MSHRs and are *best-effort*: a
//! prefetch is dropped when no MSHR is available (paper §3.4). A later demand
//! access to a line with an in-flight prefetch merges with the MSHR entry and
//! completes when the prefetch does — this is what turns the page walker's
//! serialized misses into overlapped ones.

use crate::ServedBy;
use asap_types::CacheLineAddr;

/// Outcome of attempting to register a prefetch in the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the miss completes at the given cycle.
    Issued {
        /// Absolute cycle at which the fill completes.
        completion: u64,
    },
    /// The line already had an in-flight entry; the request merged with it.
    Merged {
        /// Absolute cycle at which the existing fill completes.
        completion: u64,
    },
    /// No MSHR was free; the request must be dropped (best-effort prefetch).
    Full,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: CacheLineAddr,
    completion: u64,
    source: ServedBy,
}

/// A fixed-capacity file of in-flight misses.
///
/// # Examples
///
/// ```
/// use asap_cache::{MshrFile, MshrOutcome, ServedBy};
/// use asap_types::CacheLineAddr;
///
/// let mut mshrs = MshrFile::new(2);
/// let line = CacheLineAddr::new(1);
/// let out = mshrs.allocate(line, 100, 291, ServedBy::Memory);
/// assert_eq!(out, MshrOutcome::Issued { completion: 291 });
/// // The same line merges rather than taking a second entry.
/// let again = mshrs.allocate(line, 120, 400, ServedBy::Memory);
/// assert_eq!(again, MshrOutcome::Merged { completion: 291 });
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
}

impl MshrFile {
    /// Creates an empty file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one register");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Retires every entry whose fill completed at or before `now`.
    pub fn retire(&mut self, now: u64) {
        self.entries.retain(|e| e.completion > now);
    }

    /// Looks up an in-flight entry for `line`, retiring stale entries first.
    ///
    /// Returns the completion cycle and the hierarchy level the fill is
    /// coming from.
    pub fn in_flight(&mut self, line: CacheLineAddr, now: u64) -> Option<(u64, ServedBy)> {
        self.retire(now);
        self.entries
            .iter()
            .find(|e| e.line == line)
            .map(|e| (e.completion, e.source))
    }

    /// Attempts to allocate an entry for a miss on `line` completing at
    /// `completion`, sourced from `source`.
    pub fn allocate(
        &mut self,
        line: CacheLineAddr,
        now: u64,
        completion: u64,
        source: ServedBy,
    ) -> MshrOutcome {
        self.retire(now);
        if let Some(e) = self.entries.iter().find(|e| e.line == line) {
            return MshrOutcome::Merged {
                completion: e.completion,
            };
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.entries.push(Entry {
            line,
            completion,
            source,
        });
        MshrOutcome::Issued { completion }
    }

    /// Number of occupied registers (without retiring).
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full() {
        let mut m = MshrFile::new(2);
        assert!(matches!(
            m.allocate(CacheLineAddr::new(1), 0, 191, ServedBy::Memory),
            MshrOutcome::Issued { .. }
        ));
        assert!(matches!(
            m.allocate(CacheLineAddr::new(2), 0, 191, ServedBy::Memory),
            MshrOutcome::Issued { .. }
        ));
        assert_eq!(
            m.allocate(CacheLineAddr::new(3), 0, 191, ServedBy::Memory),
            MshrOutcome::Full
        );
        assert_eq!(m.occupied(), 2);
    }

    #[test]
    fn retirement_frees_registers() {
        let mut m = MshrFile::new(1);
        m.allocate(CacheLineAddr::new(1), 0, 50, ServedBy::L3);
        assert_eq!(
            m.allocate(CacheLineAddr::new(2), 10, 60, ServedBy::L3),
            MshrOutcome::Full
        );
        // At cycle 50 the first fill has completed.
        assert!(matches!(
            m.allocate(CacheLineAddr::new(2), 50, 100, ServedBy::L3),
            MshrOutcome::Issued { .. }
        ));
    }

    #[test]
    fn in_flight_lookup() {
        let mut m = MshrFile::new(4);
        let line = CacheLineAddr::new(7);
        m.allocate(line, 0, 191, ServedBy::Memory);
        assert_eq!(m.in_flight(line, 100), Some((191, ServedBy::Memory)));
        assert_eq!(m.in_flight(line, 191), None, "retired at completion");
        assert_eq!(m.in_flight(CacheLineAddr::new(8), 0), None);
    }

    #[test]
    fn merge_preserves_original_completion() {
        let mut m = MshrFile::new(4);
        let line = CacheLineAddr::new(3);
        m.allocate(line, 0, 191, ServedBy::Memory);
        let out = m.allocate(line, 50, 300, ServedBy::Memory);
        assert_eq!(out, MshrOutcome::Merged { completion: 191 });
        assert_eq!(m.occupied(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }
}
