//! TLB and page-walk-cache configurations (paper Table 5).

/// Geometry of one TLB structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbConfig {
    /// Name used in reports.
    pub name: &'static str,
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl TlbConfig {
    /// The paper's L1 D-TLB: 64 entries, 8-way (Table 5).
    #[must_use]
    pub fn l1_dtlb() -> Self {
        Self {
            name: "L1 D-TLB",
            entries: 64,
            ways: 8,
        }
    }

    /// The paper's L2 S-TLB: 1536 entries, 6-way (Table 5).
    #[must_use]
    pub fn l2_stlb() -> Self {
        Self {
            name: "L2 S-TLB",
            entries: 1536,
            ways: 6,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if entries is not divisible by ways or sets is not a power of
    /// two (required by the index function).
    #[must_use]
    pub fn num_sets(&self) -> usize {
        let sets = self.entries / self.ways;
        assert_eq!(
            sets * self.ways,
            self.entries,
            "{}: entries/ways mismatch",
            self.name
        );
        assert!(
            sets.is_power_of_two(),
            "{}: set count must be a power of two",
            self.name
        );
        sets
    }
}

/// Geometry of the split page-walk caches (Table 5: "3-level Split PWC:
/// 2 cycles, PL4 - 2 entries, fully assoc.; PL3 - 4 entries, fully assoc.;
/// PL2 - 32 entries, 4-way assoc.").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PwcConfig {
    /// Entries in the PL4 (PML4E) cache, fully associative.
    pub pl4_entries: usize,
    /// Entries in the PL3 (PDPTE) cache, fully associative.
    pub pl3_entries: usize,
    /// Entries in the PL2 (PDE) cache.
    pub pl2_entries: usize,
    /// Associativity of the PL2 cache.
    pub pl2_ways: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

impl PwcConfig {
    /// The paper's default split PWC.
    #[must_use]
    pub fn split_default() -> Self {
        Self {
            pl4_entries: 2,
            pl3_entries: 4,
            pl2_entries: 32,
            pl2_ways: 4,
            latency: 2,
        }
    }

    /// The doubled-capacity variant used for the §5.1.1 sensitivity claim
    /// ("doubling the capacity of each PWC ... provides a negligible page
    /// walk latency reduction").
    #[must_use]
    pub fn split_doubled() -> Self {
        Self {
            pl4_entries: 4,
            pl3_entries: 8,
            pl2_entries: 64,
            pl2_ways: 4,
            latency: 2,
        }
    }
}

impl Default for PwcConfig {
    fn default() -> Self {
        Self::split_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_geometries() {
        let l1 = TlbConfig::l1_dtlb();
        assert_eq!((l1.entries, l1.ways, l1.num_sets()), (64, 8, 8));
        let l2 = TlbConfig::l2_stlb();
        assert_eq!((l2.entries, l2.ways, l2.num_sets()), (1536, 6, 256));
        let pwc = PwcConfig::split_default();
        assert_eq!(pwc.pl4_entries, 2);
        assert_eq!(pwc.pl3_entries, 4);
        assert_eq!(pwc.pl2_entries, 32);
        assert_eq!(pwc.latency, 2);
    }

    #[test]
    fn doubled_pwc_doubles() {
        let a = PwcConfig::split_default();
        let b = PwcConfig::split_doubled();
        assert_eq!(b.pl4_entries, 2 * a.pl4_entries);
        assert_eq!(b.pl3_entries, 2 * a.pl3_entries);
        assert_eq!(b.pl2_entries, 2 * a.pl2_entries);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let c = TlbConfig {
            name: "bad",
            entries: 96,
            ways: 8, // 12 sets: not a power of two
        };
        let _ = c.num_sets();
    }
}
