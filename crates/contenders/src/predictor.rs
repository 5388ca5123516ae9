//! The page-table-walk cost predictor gating TLB-block insertion.
//!
//! Victima only spends L2 capacity on translations that are *expensive* to
//! recover by walking: a page whose walks are PWC-covered L1 hits would
//! gain nothing from a cache-resident block, while one whose walks go to
//! DRAM saves hundreds of cycles. The predictor tracks an exponentially
//! weighted average of observed walk latencies per 2 MiB region (the PL1
//! table granularity — pages sharing a PL1 table share locality and walk
//! cost) and approves insertion only above a threshold.

use asap_cache::SetAssoc;
use asap_types::{Asid, VirtPageNum};

/// Geometry and policy of the cost predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PtwCostPredictorConfig {
    /// Tracked regions (total entries).
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Minimum predicted walk latency (cycles) for a block to be worth
    /// inserting. The default is twice the L2 hit latency: below that, a
    /// block probe costs about as much as the walk it would save.
    pub threshold: u64,
}

impl Default for PtwCostPredictorConfig {
    fn default() -> Self {
        Self {
            entries: 512,
            ways: 4,
            threshold: 24,
        }
    }
}

/// Per-region EWMA of observed walk latency.
#[derive(Debug, Clone, Copy)]
struct CostEntry {
    avg: u64,
}

/// The PTW cost predictor: a small set-associative table keyed by
/// `(Asid, 2 MiB region)`.
///
/// # Examples
///
/// ```
/// use asap_contenders::{PtwCostPredictor, PtwCostPredictorConfig};
/// use asap_types::{Asid, VirtPageNum};
///
/// let mut p = PtwCostPredictor::new(PtwCostPredictorConfig::default());
/// let vpn = VirtPageNum::new(0x4000);
/// // No history: conservatively assume the walk is costly.
/// assert!(p.predicts_costly(Asid(1), vpn));
/// // Cheap observed walks flip the prediction.
/// for _ in 0..8 { p.record(Asid(1), vpn, 6); }
/// assert!(!p.predicts_costly(Asid(1), vpn));
/// ```
#[derive(Debug)]
pub struct PtwCostPredictor {
    table: SetAssoc<(Asid, u64), CostEntry>,
    num_sets: usize,
    threshold: u64,
}

/// 4 KiB pages per 2 MiB region (one PL1 table).
const REGION_SHIFT: u32 = 9;

impl PtwCostPredictor {
    /// Creates an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two set count.
    #[must_use]
    pub fn new(config: PtwCostPredictorConfig) -> Self {
        let num_sets = (config.entries / config.ways).max(1);
        assert!(
            num_sets.is_power_of_two(),
            "predictor set count must be a power of two"
        );
        Self {
            table: SetAssoc::new(num_sets, config.ways),
            num_sets,
            threshold: config.threshold,
        }
    }

    fn key(asid: Asid, vpn: VirtPageNum) -> (Asid, u64) {
        (asid, vpn.raw() >> REGION_SHIFT)
    }

    fn set_for(&self, region: u64) -> usize {
        (region as usize) & (self.num_sets - 1)
    }

    /// Records one observed walk latency for the region containing `vpn`.
    pub fn record(&mut self, asid: Asid, vpn: VirtPageNum, latency: u64) {
        let key = Self::key(asid, vpn);
        let set = self.set_for(key.1);
        if let Some(e) = self.table.lookup_mut(set, &key) {
            // EWMA with alpha = 1/4: stable under noise, still adapts.
            e.avg = (3 * e.avg + latency) / 4;
        } else {
            self.table.insert(set, key, CostEntry { avg: latency });
        }
    }

    /// Whether a future walk for `vpn` is predicted costly enough to
    /// justify a TLB block. Unknown regions predict costly: a region with
    /// no recent history has no PWC/cache footprint either, so its next
    /// walk is long.
    #[must_use]
    pub fn predicts_costly(&mut self, asid: Asid, vpn: VirtPageNum) -> bool {
        let key = Self::key(asid, vpn);
        let set = self.set_for(key.1);
        !self
            .table
            .lookup(set, &key)
            .is_some_and(|e| e.avg < self.threshold)
    }

    /// The insertion threshold in cycles.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> PtwCostPredictor {
        PtwCostPredictor::new(PtwCostPredictorConfig::default())
    }

    #[test]
    fn unknown_regions_default_to_costly() {
        let mut p = predictor();
        assert!(p.predicts_costly(Asid(1), VirtPageNum::new(123)));
    }

    #[test]
    fn ewma_converges_down_and_up() {
        let mut p = predictor();
        let vpn = VirtPageNum::new(0x800);
        for _ in 0..12 {
            p.record(Asid(1), vpn, 6);
        }
        assert!(!p.predicts_costly(Asid(1), vpn));
        for _ in 0..12 {
            p.record(Asid(1), vpn, 700);
        }
        assert!(p.predicts_costly(Asid(1), vpn));
    }

    #[test]
    fn pages_share_their_region_history() {
        let mut p = predictor();
        let a = VirtPageNum::new(0x1200); // region 0x9
        let b = VirtPageNum::new(0x13FF); // same region
        for _ in 0..12 {
            p.record(Asid(1), a, 4);
        }
        assert!(!p.predicts_costly(Asid(1), b));
        // A different region is untouched.
        assert!(p.predicts_costly(Asid(1), VirtPageNum::new(0x1400)));
    }

    #[test]
    fn asids_are_isolated() {
        let mut p = predictor();
        let vpn = VirtPageNum::new(0x2000);
        for _ in 0..12 {
            p.record(Asid(1), vpn, 4);
        }
        assert!(p.predicts_costly(Asid(2), vpn));
    }
}
