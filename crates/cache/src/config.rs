//! Cache and hierarchy configuration.

use asap_types::CACHE_LINE_SIZE;

/// Geometry and timing of a single cache level.
///
/// # Examples
///
/// ```
/// use asap_cache::CacheConfig;
/// // The paper's L1-D: 32 KiB, 8-way, 4 cycles (Table 5).
/// let l1 = CacheConfig::from_capacity("L1-D", 32 * 1024, 8, 4);
/// assert_eq!(l1.num_sets, 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// Number of sets (must be a power of two; the set index is taken from
    /// the low line-address bits as in real hardware).
    pub num_sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in cycles, measured from the start of the access.
    pub latency: u64,
}

impl CacheConfig {
    /// Builds a config from total capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the derived set count is not a power of two or capacity is
    /// not an exact multiple of `ways * 64`.
    #[must_use]
    pub fn from_capacity(name: &'static str, bytes: u64, ways: usize, latency: u64) -> Self {
        let lines = bytes / CACHE_LINE_SIZE;
        assert_eq!(
            lines * CACHE_LINE_SIZE,
            bytes,
            "{name}: capacity must be a multiple of the line size"
        );
        let num_sets = (lines as usize) / ways;
        assert_eq!(
            num_sets * ways,
            lines as usize,
            "{name}: capacity/ways mismatch"
        );
        assert!(
            num_sets.is_power_of_two(),
            "{name}: set count must be a power of two"
        );
        Self {
            name,
            num_sets,
            ways,
            latency,
        }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.num_sets as u64 * self.ways as u64 * CACHE_LINE_SIZE
    }
}

/// Configuration of the full memory hierarchy (Table 5 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub l3: CacheConfig,
    /// Main-memory access latency in cycles.
    pub memory_latency: u64,
    /// Number of L1-D miss-status-holding registers; ASAP prefetches are
    /// dropped (best-effort) when none are free (§3.4).
    pub mshr_entries: usize,
}

impl HierarchyConfig {
    /// The paper's simulated Intel Broadwell-like hierarchy (Table 5):
    /// L1-D 32 KiB/8-way/4 cycles, L2 256 KiB/8-way/12 cycles,
    /// L3 20 MiB/20-way/40 cycles, memory 191 cycles.
    #[must_use]
    pub fn broadwell_like() -> Self {
        Self {
            l1: CacheConfig::from_capacity("L1-D", 32 * 1024, 8, 4),
            l2: CacheConfig::from_capacity("L2", 256 * 1024, 8, 12),
            l3: CacheConfig::from_capacity("L3", 20 * 1024 * 1024, 20, 40),
            memory_latency: 191,
            mshr_entries: 10,
        }
    }

    /// A tiny hierarchy for fast unit tests (64-line L1, 256-line L2,
    /// 1024-line L3, same latencies as Broadwell).
    #[must_use]
    pub fn tiny_for_tests() -> Self {
        Self {
            l1: CacheConfig::from_capacity("L1-D", 64 * 64, 4, 4),
            l2: CacheConfig::from_capacity("L2", 256 * 64, 4, 12),
            l3: CacheConfig::from_capacity("L3", 1024 * 64, 4, 40),
            memory_latency: 191,
            mshr_entries: 10,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::broadwell_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadwell_geometry_matches_table5() {
        let h = HierarchyConfig::broadwell_like();
        assert_eq!(h.l1.capacity_bytes(), 32 * 1024);
        assert_eq!(h.l1.ways, 8);
        assert_eq!(h.l1.latency, 4);
        assert_eq!(h.l2.capacity_bytes(), 256 * 1024);
        assert_eq!(h.l2.latency, 12);
        assert_eq!(h.l3.capacity_bytes(), 20 * 1024 * 1024);
        assert_eq!(h.l3.ways, 20);
        assert_eq!(h.l3.latency, 40);
        assert_eq!(h.memory_latency, 191);
    }

    #[test]
    fn from_capacity_derives_sets() {
        let c = CacheConfig::from_capacity("x", 64 * 1024, 16, 10);
        assert_eq!(c.num_sets, 64);
        assert_eq!(c.capacity_bytes(), 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_capacity_rejects_bad_sets() {
        // 20 MiB with 32 ways -> 10240 sets: not a power of two.
        let _ = CacheConfig::from_capacity("bad", 20 * 1024 * 1024, 32, 1);
    }
}
