//! Results of one run.

use asap_core::{ServedByMatrix, WalkLatencyStats};
use asap_telemetry::RunTelemetry;

/// Everything a paper table/figure needs from one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The workload's name ("mcf", "mc80", ...). Owned: per-core rows of a
    /// multi-core run stamp composed names ("mc80@core0") without leaking.
    pub workload: String,
    /// The configuration label ("Baseline", "P1+P2 coloc", ...).
    pub label: String,
    /// Walk-latency statistics over the measurement window.
    pub walks: WalkLatencyStats,
    /// Per-level serving sources (Fig. 9). For virtualized runs this is the
    /// guest dimension.
    pub served: ServedByMatrix,
    /// Host-dimension serving sources (virtualized runs only).
    pub host_served: Option<ServedByMatrix>,
    /// L2 S-TLB misses in the window.
    pub l2_tlb_misses: u64,
    /// L2 S-TLB accesses in the window.
    pub l2_tlb_accesses: u64,
    /// Instructions retired (the MPKI denominator).
    pub instructions: u64,
    /// Total cycles in the window.
    pub cycles: u64,
    /// Cycles spent in page walks.
    pub walk_cycles: u64,
    /// ASAP prefetches issued.
    pub prefetches_issued: u64,
    /// ASAP prefetches dropped (MSHRs full).
    pub prefetches_dropped: u64,
    /// Walks that ended in page faults (should be 0: the driver pre-touches
    /// pages).
    pub faults: u64,
}

impl RunResult {
    /// Mean page-walk latency in cycles — the headline metric.
    #[must_use]
    pub fn avg_walk_latency(&self) -> f64 {
        self.walks.mean()
    }

    /// L2-TLB misses per kilo-instruction (Table 7 metric).
    #[must_use]
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_tlb_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Fraction of execution cycles spent in walks (Fig. 2 metric).
    #[must_use]
    pub fn walk_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.walk_cycles as f64 / self.cycles as f64
        }
    }

    /// Relative walk-latency reduction versus a baseline run
    /// (`1 - this/base`), the paper's headline percentage.
    #[must_use]
    pub fn reduction_vs(&self, baseline: &RunResult) -> f64 {
        let base = baseline.avg_walk_latency();
        if base == 0.0 {
            0.0
        } else {
            1.0 - self.avg_walk_latency() / base
        }
    }

    /// Relative reduction in *total walk cycles* versus a baseline
    /// (Fig. 11's metric, which also credits eliminated walks).
    #[must_use]
    pub fn walk_cycles_reduction_vs(&self, baseline: &RunResult) -> f64 {
        if baseline.walk_cycles == 0 {
            0.0
        } else {
            1.0 - self.walk_cycles as f64 / baseline.walk_cycles as f64
        }
    }
}

/// What one executed [`RunSpec`](crate::RunSpec) produces: the aggregate
/// measurements plus, for multi-core runs, every core's own row.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The whole-machine measurements. For a single-core run this IS the
    /// run's result; for N cores it merges walk/TLB/prefetch counters
    /// across cores and takes the longest core window as the cycle count.
    pub aggregate: RunResult,
    /// Per-core rows ("mc80@core0", "corunner@core1", ...), in core order.
    /// Empty for single-core runs.
    pub per_core: Vec<RunResult>,
    /// Telemetry harvested from the run — `Some` only when the spec
    /// enabled tracing, metrics or profiling.
    pub telemetry: Option<RunTelemetry>,
}

impl RunOutput {
    /// Wraps a single-core result (no per-core breakdown).
    #[must_use]
    pub fn single(aggregate: RunResult) -> Self {
        Self {
            aggregate,
            per_core: Vec::new(),
            telemetry: None,
        }
    }

    /// Attaches harvested telemetry.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Option<RunTelemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builds the aggregate row of a multi-core run by merging `per_core`.
    ///
    /// Counters (walks, TLB misses, walk cycles, prefetches, faults,
    /// instructions) sum across cores; `cycles` is the longest per-core
    /// measurement window (the machine's wall-clock for the run). Note
    /// that derived `walk_fraction` on the aggregate therefore measures
    /// walker-busy *core*-cycles per machine wall cycle — a concurrency
    /// number that legitimately exceeds 1 when several walkers overlap.
    /// The label is the first core's (empty for an empty `per_core`).
    #[must_use]
    pub fn aggregate_of(workload: &str, per_core: Vec<RunResult>) -> Self {
        let mut walks = asap_core::WalkLatencyStats::new();
        let mut served = asap_core::ServedByMatrix::new();
        let mut host_served: Option<asap_core::ServedByMatrix> = None;
        let mut aggregate = RunResult {
            workload: workload.to_string(),
            label: per_core
                .first()
                .map(|core| core.label.clone())
                .unwrap_or_default(),
            walks: asap_core::WalkLatencyStats::new(),
            served,
            host_served: None,
            l2_tlb_misses: 0,
            l2_tlb_accesses: 0,
            instructions: 0,
            cycles: 0,
            walk_cycles: 0,
            prefetches_issued: 0,
            prefetches_dropped: 0,
            faults: 0,
        };
        for core in &per_core {
            walks.merge(&core.walks);
            served.merge(&core.served);
            if let Some(h) = &core.host_served {
                host_served
                    .get_or_insert_with(asap_core::ServedByMatrix::new)
                    .merge(h);
            }
            aggregate.l2_tlb_misses += core.l2_tlb_misses;
            aggregate.l2_tlb_accesses += core.l2_tlb_accesses;
            aggregate.instructions += core.instructions;
            aggregate.cycles = aggregate.cycles.max(core.cycles);
            aggregate.walk_cycles += core.walk_cycles;
            aggregate.prefetches_issued += core.prefetches_issued;
            aggregate.prefetches_dropped += core.prefetches_dropped;
            aggregate.faults += core.faults;
        }
        aggregate.walks = walks;
        aggregate.served = served;
        aggregate.host_served = host_served;
        Self {
            aggregate,
            per_core,
            telemetry: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(walk_cycles: u64, cycles: u64) -> RunResult {
        let mut walks = WalkLatencyStats::new();
        walks.record(walk_cycles);
        RunResult {
            workload: "test".into(),
            label: "x".into(),
            walks,
            served: ServedByMatrix::new(),
            host_served: None,
            l2_tlb_misses: 10,
            l2_tlb_accesses: 100,
            instructions: 1000,
            cycles,
            walk_cycles,
            prefetches_issued: 0,
            prefetches_dropped: 0,
            faults: 0,
        }
    }

    #[test]
    fn derived_metrics() {
        let base = result(200, 1000);
        let asap = result(100, 900);
        assert!((base.mpki() - 10.0).abs() < 1e-12);
        assert!((base.walk_fraction() - 0.2).abs() < 1e-12);
        assert!((asap.reduction_vs(&base) - 0.5).abs() < 1e-12);
        assert!((asap.walk_cycles_reduction_vs(&base) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_merges_counters_and_takes_the_longest_window() {
        let mut a = result(200, 1000);
        a.workload = "w@core0".into();
        let mut b = result(100, 900);
        b.workload = "w@core1".into();
        let out = RunOutput::aggregate_of("w", vec![a, b]);
        assert_eq!(out.aggregate.workload, "w");
        assert_eq!(out.aggregate.walks.count(), 2);
        assert_eq!(out.aggregate.walk_cycles, 300);
        assert_eq!(out.aggregate.cycles, 1000, "longest core window wins");
        assert_eq!(out.aggregate.l2_tlb_misses, 20);
        assert_eq!(out.aggregate.instructions, 2000);
        assert_eq!(out.per_core.len(), 2);
        assert_eq!(out.per_core[0].workload, "w@core0");

        let single = RunOutput::single(result(5, 50));
        assert!(single.per_core.is_empty());

        let empty = RunOutput::aggregate_of("w", Vec::new());
        assert_eq!(empty.aggregate.label, "");
        assert_eq!(empty.aggregate.walks.count(), 0);
        assert_eq!(empty.aggregate.cycles, 0);
    }
}
