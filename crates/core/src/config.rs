//! Hardware-side ASAP and MMU configuration.

use asap_cache::HierarchyConfig;
use asap_tlb::{ClusteredTlbConfig, PwcConfig, TlbConfig};
use asap_types::PtLevel;

/// Which PT levels the hardware prefetcher targets — the paper's `P1` /
/// `P1+P2` knob (§5.1). Empty = ASAP off (the baseline).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AsapHwConfig {
    /// Levels to prefetch on every TLB miss.
    pub levels: Vec<PtLevel>,
}

impl AsapHwConfig {
    /// ASAP disabled.
    #[must_use]
    pub fn off() -> Self {
        Self::default()
    }

    /// Prefetch PL1 only (`P1`).
    #[must_use]
    pub fn p1() -> Self {
        Self {
            levels: vec![PtLevel::Pl1],
        }
    }

    /// Prefetch PL1 and PL2 (`P1 + P2`).
    #[must_use]
    pub fn p1_p2() -> Self {
        Self {
            levels: vec![PtLevel::Pl1, PtLevel::Pl2],
        }
    }

    /// Whether any prefetch is configured.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.levels.is_empty()
    }
}

/// Full native-MMU configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MmuConfig {
    /// L1 D-TLB geometry.
    pub l1_tlb: TlbConfig,
    /// L2 S-TLB geometry.
    pub l2_tlb: TlbConfig,
    /// Split page-walk caches.
    pub pwc: PwcConfig,
    /// Cache hierarchy (Table 5).
    pub hierarchy: HierarchyConfig,
    /// Hardware prefetch levels.
    pub asap: AsapHwConfig,
    /// Range registers available to the prefetcher.
    pub range_registers: usize,
    /// Clustered TLB (§5.4.1), looked up after the L2 S-TLB misses.
    pub clustered_tlb: Option<ClusteredTlbConfig>,
    /// The run's seed. Every structure of the engine is deterministic
    /// (exact LRU), so no state depends on it.
    pub seed: u64,
}

impl Default for MmuConfig {
    /// The paper's Table 5 baseline (no ASAP, no clustered TLB).
    fn default() -> Self {
        Self {
            l1_tlb: TlbConfig::l1_dtlb(),
            l2_tlb: TlbConfig::l2_stlb(),
            pwc: PwcConfig::split_default(),
            hierarchy: HierarchyConfig::broadwell_like(),
            asap: AsapHwConfig::off(),
            range_registers: 16,
            clustered_tlb: None,
            seed: 0,
        }
    }
}

impl MmuConfig {
    /// Enables ASAP prefetching.
    #[must_use]
    pub fn with_asap(mut self, asap: AsapHwConfig) -> Self {
        self.asap = asap;
        self
    }

    /// Enables the clustered TLB.
    #[must_use]
    pub fn with_clustered_tlb(mut self) -> Self {
        self.clustered_tlb = Some(ClusteredTlbConfig::default_eval());
        self
    }

    /// Swaps the PWC geometry (capacity ablation, §5.1.1).
    #[must_use]
    pub fn with_pwc(mut self, pwc: PwcConfig) -> Self {
        self.pwc = pwc;
        self
    }

    /// Swaps the cache hierarchy.
    #[must_use]
    pub fn with_hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-dimension ASAP configuration for virtualized translation — the
/// paper's Fig. 10 sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NestedAsapConfig {
    /// Guest-dimension prefetch levels (`P1g`, `P2g`).
    pub guest: Vec<PtLevel>,
    /// Host-dimension prefetch levels (`P1h`, `P2h`).
    pub host: Vec<PtLevel>,
}

impl NestedAsapConfig {
    /// Baseline: no prefetching in either dimension.
    #[must_use]
    pub fn off() -> Self {
        Self::default()
    }

    /// `P1g`: guest PL1 only.
    #[must_use]
    pub fn p1g() -> Self {
        Self {
            guest: vec![PtLevel::Pl1],
            host: vec![],
        }
    }

    /// `P1g + P2g`: both guest levels.
    #[must_use]
    pub fn p1g_p2g() -> Self {
        Self {
            guest: vec![PtLevel::Pl1, PtLevel::Pl2],
            host: vec![],
        }
    }

    /// `P1g + P1h`: PL1 in both dimensions.
    #[must_use]
    pub fn p1g_p1h() -> Self {
        Self {
            guest: vec![PtLevel::Pl1],
            host: vec![PtLevel::Pl1],
        }
    }

    /// `P1g + P1h + P2g + P2h`: everything (the paper's best).
    #[must_use]
    pub fn all() -> Self {
        Self {
            guest: vec![PtLevel::Pl1, PtLevel::Pl2],
            host: vec![PtLevel::Pl1, PtLevel::Pl2],
        }
    }

    /// The Fig. 12 configuration: guest PL1+PL2, host PL2 only (the host
    /// uses 2 MiB pages, so its PT has no PL1 level).
    #[must_use]
    pub fn host_2m() -> Self {
        Self {
            guest: vec![PtLevel::Pl1, PtLevel::Pl2],
            host: vec![PtLevel::Pl2],
        }
    }

    /// Whether any prefetch is configured.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.guest.is_empty() || !self.host.is_empty()
    }
}

/// Full nested-MMU configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NestedMmuConfig {
    /// L1 D-TLB geometry (caches gVA → hPA).
    pub l1_tlb: TlbConfig,
    /// L2 S-TLB geometry.
    pub l2_tlb: TlbConfig,
    /// Guest-dimension PWC ("one dedicated PWC for guest PT", Table 5).
    pub guest_pwc: PwcConfig,
    /// Host-dimension PWC.
    pub host_pwc: PwcConfig,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Per-dimension prefetch levels.
    pub asap: NestedAsapConfig,
    /// Range registers for guest VMA descriptors.
    pub range_registers: usize,
    /// The run's seed. Every structure of the engine is deterministic
    /// (exact LRU), so no state depends on it.
    pub seed: u64,
}

impl Default for NestedMmuConfig {
    fn default() -> Self {
        Self {
            l1_tlb: TlbConfig::l1_dtlb(),
            l2_tlb: TlbConfig::l2_stlb(),
            guest_pwc: PwcConfig::split_default(),
            host_pwc: PwcConfig::split_default(),
            hierarchy: HierarchyConfig::broadwell_like(),
            asap: NestedAsapConfig::off(),
            range_registers: 16,
            seed: 0,
        }
    }
}

impl NestedMmuConfig {
    /// Sets the per-dimension ASAP levels.
    #[must_use]
    pub fn with_asap(mut self, asap: NestedAsapConfig) -> Self {
        self.asap = asap;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_configs() {
        assert!(!AsapHwConfig::off().is_enabled());
        assert_eq!(AsapHwConfig::p1().levels, vec![PtLevel::Pl1]);
        assert_eq!(
            AsapHwConfig::p1_p2().levels,
            vec![PtLevel::Pl1, PtLevel::Pl2]
        );
        let all = NestedAsapConfig::all();
        assert_eq!(all.guest.len(), 2);
        assert_eq!(all.host.len(), 2);
        assert!(NestedAsapConfig::p1g().host.is_empty());
        assert_eq!(NestedAsapConfig::host_2m().host, vec![PtLevel::Pl2]);
        assert!(!NestedAsapConfig::off().is_enabled());
    }

    #[test]
    fn default_mmu_is_baseline() {
        let c = MmuConfig::default();
        assert!(!c.asap.is_enabled());
        assert!(c.clustered_tlb.is_none());
        assert_eq!(c.range_registers, 16);
        let c = c.with_asap(AsapHwConfig::p1()).with_clustered_tlb();
        assert!(c.asap.is_enabled());
        assert!(c.clustered_tlb.is_some());
    }
}
