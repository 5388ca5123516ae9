//! Walk statistics: latency distributions and the Fig. 9 served-by matrix.

use asap_cache::ServedBy;
use asap_telemetry::{Collect, HistogramSnapshot, MetricSet};
use asap_types::PtLevel;

/// Where one page-walk request was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedSource {
    /// The request was elided by a page-walk-cache hit.
    Pwc,
    /// Served by the given cache-hierarchy level.
    Cache(ServedBy),
    /// Merged with an in-flight ASAP prefetch sourced from the given level
    /// (latency partially hidden).
    Merged(ServedBy),
}

impl ServedSource {
    /// Report column index: PWC, L1, L2, LLC, Mem.
    #[must_use]
    pub fn column(self) -> usize {
        match self {
            ServedSource::Pwc => 0,
            ServedSource::Cache(l) | ServedSource::Merged(l) => match l {
                ServedBy::L1 => 1,
                ServedBy::L2 => 2,
                ServedBy::L3 => 3,
                ServedBy::Memory => 4,
            },
        }
    }
}

impl core::fmt::Display for ServedSource {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServedSource::Pwc => f.write_str("PWC"),
            ServedSource::Cache(l) => write!(f, "{l}"),
            ServedSource::Merged(l) => write!(f, "{l}*"),
        }
    }
}

/// Counts of walk requests per (PT level, serving source) — the data behind
/// the paper's Figure 9.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServedByMatrix {
    /// `counts[level_depth - 1][column]`.
    counts: [[u64; 5]; 5],
}

impl ServedByMatrix {
    /// Creates an empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request.
    pub fn record(&mut self, level: PtLevel, source: ServedSource) {
        self.counts[(level.depth() - 1) as usize][source.column()] += 1;
    }

    /// Raw count for (level, column).
    #[must_use]
    pub fn count(&self, level: PtLevel, column: usize) -> u64 {
        self.counts[(level.depth() - 1) as usize][column]
    }

    /// Total requests recorded for `level`.
    #[must_use]
    pub fn total(&self, level: PtLevel) -> u64 {
        self.counts[(level.depth() - 1) as usize].iter().sum()
    }

    /// The per-column fractions for `level` (each row of Fig. 9).
    #[must_use]
    pub fn fractions(&self, level: PtLevel) -> [f64; 5] {
        let total = self.total(level);
        if total == 0 {
            return [0.0; 5];
        }
        let row = self.counts[(level.depth() - 1) as usize];
        core::array::from_fn(|i| row[i] as f64 / total as f64)
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &Self) {
        for (row, orow) in self.counts.iter_mut().zip(other.counts.iter()) {
            for (c, oc) in row.iter_mut().zip(orow.iter()) {
                *c += oc;
            }
        }
    }

    /// The raw `counts[level_depth - 1][column]` grid, for byte-exact
    /// serialization of result rows.
    #[must_use]
    pub fn raw_counts(&self) -> &[[u64; 5]; 5] {
        &self.counts
    }
}

impl Collect for ServedByMatrix {
    fn collect(&self, prefix: &str, out: &mut MetricSet) {
        // Only levels that saw requests get metrics: a 4-level run emits
        // no pl5 rows, a native run no host rows, keeping snapshots tight.
        for level in [
            PtLevel::Pl5,
            PtLevel::Pl4,
            PtLevel::Pl3,
            PtLevel::Pl2,
            PtLevel::Pl1,
        ] {
            if self.total(level) == 0 {
                continue;
            }
            let depth = level.depth();
            for (column, name) in ["pwc", "l1", "l2", "llc", "mem"].iter().enumerate() {
                out.counter(
                    format!("{prefix}served_pl{depth}_{name}_total"),
                    "walk requests served per (PT level, source)",
                    self.count(level, column),
                );
            }
        }
    }
}

/// Aggregate walk-latency statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalkLatencyStats {
    count: u64,
    total_cycles: u64,
    min: u64,
    max: u64,
    /// Power-of-two latency histogram: bucket i counts walks with
    /// latency in `[2^i, 2^(i+1))`.
    buckets: [u64; 16],
}

impl WalkLatencyStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> Self {
        Self {
            min: u64::MAX,
            ..Self::default()
        }
    }

    /// Records one walk.
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.total_cycles += latency;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
        let bucket = (64 - latency.max(1).leading_zeros() - 1).min(15) as usize;
        self.buckets[bucket] += 1;
    }

    /// Number of walks recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total walk cycles (the Fig. 11 numerator).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Mean walk latency in cycles (the Fig. 3/8/10/12 metric).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.count as f64
        }
    }

    /// Minimum observed latency (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Maximum observed latency.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate latency percentile from the power-of-two histogram
    /// (upper bucket bound; good enough for reporting tails).
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count as f64 * p.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return 1 << (i + 1);
            }
        }
        self.max
    }

    /// The raw power-of-two bucket counts (bucket `i` covers
    /// `[2^i, 2^(i+1))`).
    #[must_use]
    pub fn buckets(&self) -> &[u64; 16] {
        &self.buckets
    }

    /// Merges another set of statistics.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.total_cycles += other.total_cycles;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, ob) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += ob;
        }
    }
}

impl Collect for WalkLatencyStats {
    fn collect(&self, prefix: &str, out: &mut MetricSet) {
        out.histogram(
            format!("{prefix}latency_cycles"),
            "page-walk latency distribution (power-of-two buckets)",
            HistogramSnapshot {
                count: self.count(),
                total: self.total_cycles(),
                min: self.min(),
                max: self.max(),
                buckets: self.buckets().to_vec(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_fractions() {
        let mut m = ServedByMatrix::new();
        m.record(PtLevel::Pl1, ServedSource::Cache(ServedBy::Memory));
        m.record(PtLevel::Pl1, ServedSource::Cache(ServedBy::L1));
        m.record(PtLevel::Pl1, ServedSource::Merged(ServedBy::Memory));
        m.record(PtLevel::Pl4, ServedSource::Pwc);
        let f1 = m.fractions(PtLevel::Pl1);
        assert!((f1[1] - 1.0 / 3.0).abs() < 1e-12); // L1
        assert!((f1[4] - 2.0 / 3.0).abs() < 1e-12); // Mem (incl. merged)
        assert_eq!(m.fractions(PtLevel::Pl4)[0], 1.0);
        assert_eq!(m.fractions(PtLevel::Pl3), [0.0; 5]);
        assert_eq!(m.total(PtLevel::Pl1), 3);
    }

    #[test]
    fn matrix_merge() {
        let mut a = ServedByMatrix::new();
        a.record(PtLevel::Pl2, ServedSource::Pwc);
        let mut b = ServedByMatrix::new();
        b.record(PtLevel::Pl2, ServedSource::Pwc);
        b.record(PtLevel::Pl2, ServedSource::Cache(ServedBy::L2));
        a.merge(&b);
        assert_eq!(a.total(PtLevel::Pl2), 3);
        assert_eq!(a.count(PtLevel::Pl2, 0), 2);
    }

    #[test]
    fn latency_stats_basics() {
        let mut s = WalkLatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0);
        for l in [10u64, 20, 30] {
            s.record(l);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.total_cycles(), 60);
        assert!((s.mean() - 20.0).abs() < 1e-12);
        assert_eq!(s.min(), 10);
        assert_eq!(s.max(), 30);
    }

    #[test]
    fn latency_percentiles_monotone() {
        let mut s = WalkLatencyStats::new();
        for l in 1..=1000u64 {
            s.record(l);
        }
        let p50 = s.percentile(0.5);
        let p99 = s.percentile(0.99);
        assert!(p50 <= p99);
        assert!(p99 >= 512);
    }

    #[test]
    fn latency_merge() {
        let mut a = WalkLatencyStats::new();
        a.record(5);
        let mut b = WalkLatencyStats::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 100);
        // Merging an empty never corrupts min.
        a.merge(&WalkLatencyStats::new());
        assert_eq!(a.min(), 5);
    }

    #[test]
    fn source_columns() {
        assert_eq!(ServedSource::Pwc.column(), 0);
        assert_eq!(ServedSource::Cache(ServedBy::L1).column(), 1);
        assert_eq!(ServedSource::Merged(ServedBy::Memory).column(), 4);
        assert_eq!(ServedSource::Merged(ServedBy::Memory).to_string(), "Mem*");
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let s = WalkLatencyStats::new();
        assert_eq!(s.percentile(0.0), 0);
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.percentile(1.0), 0);
    }

    #[test]
    fn percentile_extremes_on_a_single_bucket() {
        // All samples land in bucket 6 ([64, 128)); every percentile —
        // including the degenerate p=0.0, whose ceil-target of 0 is
        // satisfied by the first bucket scanned with `seen >= target` —
        // reports that bucket's upper bound.
        let mut s = WalkLatencyStats::new();
        for _ in 0..10 {
            s.record(100);
        }
        assert_eq!(s.percentile(1.0), 128);
        assert_eq!(s.percentile(0.5), 128);
        assert_eq!(s.percentile(0.0), 2, "p=0 hits the first bucket bound");
        // Out-of-range p clamps rather than panicking or overshooting.
        assert_eq!(s.percentile(-1.0), s.percentile(0.0));
        assert_eq!(s.percentile(2.0), s.percentile(1.0));
    }

    #[test]
    fn percentile_p1_spans_to_the_top_bucket() {
        let mut s = WalkLatencyStats::new();
        s.record(3); // bucket 1: [2, 4)
        s.record(1000); // bucket 9: [512, 1024)
        assert_eq!(s.percentile(0.5), 4);
        assert_eq!(s.percentile(1.0), 1024);
        // A sample beyond the last bucket range still lands in bucket 15,
        // so the reported tail is that bucket's upper bound.
        s.record(1 << 20);
        assert_eq!(s.percentile(1.0), 1 << 16);
    }

    #[test]
    fn collect_emits_histogram_and_served_rows() {
        use asap_telemetry::MetricValue;
        let mut s = WalkLatencyStats::new();
        s.record(100);
        let mut out = MetricSet::new();
        s.collect("walk_", &mut out);
        let m = out.get("walk_latency_cycles").expect("registered");
        match &m.value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.total, 100);
                assert_eq!(h.buckets.len(), 16);
                assert_eq!(h.buckets[6], 1);
            }
            other => panic!("expected histogram, got {other:?}"),
        }

        let mut matrix = ServedByMatrix::new();
        matrix.record(PtLevel::Pl2, ServedSource::Merged(ServedBy::Memory));
        let mut out = MetricSet::new();
        matrix.collect("engine_", &mut out);
        assert!(out.get("engine_served_pl2_mem_total").is_some());
        assert!(
            out.get("engine_served_pl1_mem_total").is_none(),
            "levels without requests stay out of the snapshot"
        );
    }
}
