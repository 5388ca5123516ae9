//! Cache statistics counters.

use asap_telemetry::{Collect, MetricSet};

/// Hit/miss/fill counters for a single cache level, kept by the
/// hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub hits: u64,
    /// Demand lookups that missed.
    pub misses: u64,
    /// Lines installed: demand and prefetch fills and Victima's L2 block
    /// installs. Refilling a resident line only refreshes its recency and
    /// is not counted.
    pub fills: u64,
    /// Valid lines those installs displaced.
    pub evictions: u64,
}

impl CacheStats {
    pub(crate) fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Total demand lookups.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in [0, 1]; zero when no accesses were made.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// Statistics for the whole hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Per-level stats: L1, L2, L3.
    pub levels: [CacheStats; 3],
    /// Accesses ultimately served by DRAM.
    pub memory_accesses: u64,
    /// Prefetch fills requested.
    pub prefetch_fills: u64,
    /// Prefetches dropped for lack of a free MSHR (§3.4: best-effort).
    pub prefetches_dropped: u64,
    /// Demand accesses that merged with an in-flight prefetch MSHR.
    pub mshr_merges: u64,
}

impl Collect for CacheStats {
    fn collect(&self, prefix: &str, out: &mut MetricSet) {
        out.counter(
            format!("{prefix}hits_total"),
            "demand lookups that hit",
            self.hits,
        );
        out.counter(
            format!("{prefix}misses_total"),
            "demand lookups that missed",
            self.misses,
        );
        out.counter(
            format!("{prefix}fills_total"),
            "lines installed",
            self.fills,
        );
        out.counter(
            format!("{prefix}evictions_total"),
            "lines evicted by fills",
            self.evictions,
        );
    }
}

impl Collect for HierarchyStats {
    fn collect(&self, prefix: &str, out: &mut MetricSet) {
        for (stats, level) in self.levels.iter().zip(["l1", "l2", "l3"]) {
            stats.collect(&format!("{prefix}{level}_"), out);
        }
        out.counter(
            format!("{prefix}memory_accesses_total"),
            "accesses ultimately served by DRAM",
            self.memory_accesses,
        );
        out.counter(
            format!("{prefix}prefetch_fills_total"),
            "prefetch fills requested",
            self.prefetch_fills,
        );
        out.counter(
            format!("{prefix}prefetches_dropped_total"),
            "prefetches dropped for lack of a free MSHR",
            self.prefetches_dropped,
        );
        out.counter(
            format!("{prefix}mshr_merges_total"),
            "demand accesses merged with an in-flight prefetch MSHR",
            self.mshr_merges,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.record(true);
        s.record(true);
        s.record(false);
        assert_eq!(s.accesses(), 3);
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
