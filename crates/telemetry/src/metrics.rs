//! The unified metrics registry: typed metric values collected from every
//! `*Stats` struct under stable, prefix-scoped names.
//!
//! Naming scheme (documented in ARCHITECTURE.md): `snake_case`, counters
//! end in `_total`, histograms name their unit (`…_cycles`), and every
//! collector is handed a caller-chosen prefix (`engine_`, `cache_`,
//! `tlb_l2_`, …) so the same stats type can appear more than once in a
//! snapshot without colliding.

use crate::json::escape;

/// A point-in-time snapshot of a power-of-two histogram (the shape of
/// `WalkLatencyStats` in `asap-core`): bucket `i` counts samples in
/// `[2^i, 2^(i+1))`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub total: u64,
    /// Minimum sample (0 when empty).
    pub min: u64,
    /// Maximum sample.
    pub max: u64,
    /// Power-of-two bucket counts.
    pub buckets: Vec<u64>,
}

/// One metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically accumulated count.
    Counter(u64),
    /// A point-in-time ratio or level.
    Gauge(f64),
    /// A distribution.
    Histogram(HistogramSnapshot),
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable snake_case name (`engine_walks_total`, …).
    pub name: String,
    /// One-line human description.
    pub help: &'static str,
    /// The value.
    pub value: MetricValue,
}

/// An ordered collection of metrics; insertion order is emission order,
/// so snapshots are deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

/// Anything that can contribute metrics to a snapshot. Implemented by the
/// workspace's stats structs in their owning crates.
pub trait Collect {
    /// Appends this value's metrics to `out`, each name starting with
    /// `prefix`.
    fn collect(&self, prefix: &str, out: &mut MetricSet);
}

impl MetricSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter.
    pub fn counter(&mut self, name: impl Into<String>, help: &'static str, value: u64) {
        self.push(name.into(), help, MetricValue::Counter(value));
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: impl Into<String>, help: &'static str, value: f64) {
        self.push(name.into(), help, MetricValue::Gauge(value));
    }

    /// Registers a histogram.
    pub fn histogram(
        &mut self,
        name: impl Into<String>,
        help: &'static str,
        value: HistogramSnapshot,
    ) {
        self.push(name.into(), help, MetricValue::Histogram(value));
    }

    fn push(&mut self, name: String, help: &'static str, value: MetricValue) {
        debug_assert!(self.get(&name).is_none(), "duplicate metric name: {name}");
        self.metrics.push(Metric { name, help, value });
    }

    /// Looks a metric up by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Number of metrics registered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterates metrics in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// Emits the set as a JSON array (one object per metric, registration
    /// order), indented for embedding at `indent` spaces.
    #[must_use]
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut s = String::from("[");
        for (i, m) in self.metrics.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&pad);
            s.push_str("  ");
            s.push_str(&metric_json(m));
        }
        if !self.metrics.is_empty() {
            s.push('\n');
            s.push_str(&pad);
        }
        s.push(']');
        s
    }
}

fn metric_json(m: &Metric) -> String {
    let head = format!(
        "{{\"name\": \"{}\", \"help\": \"{}\", ",
        escape(&m.name),
        escape(m.help)
    );
    match &m.value {
        MetricValue::Counter(v) => format!("{head}\"type\": \"counter\", \"value\": {v}}}"),
        MetricValue::Gauge(v) => format!("{head}\"type\": \"gauge\", \"value\": {v:.4}}}"),
        MetricValue::Histogram(h) => {
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            format!(
                "{head}\"type\": \"histogram\", \"count\": {}, \"total\": {}, \
                 \"min\": {}, \"max\": {}, \"buckets\": [{}]}}",
                h.count,
                h.total,
                h.min,
                h.max,
                buckets.join(", ")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_order_and_lookup() {
        let mut set = MetricSet::new();
        set.counter("a_total", "a", 1);
        set.gauge("b_ratio", "b", 0.5);
        set.histogram(
            "c_cycles",
            "c",
            HistogramSnapshot {
                count: 2,
                total: 10,
                min: 4,
                max: 6,
                buckets: vec![0, 0, 2],
            },
        );
        assert_eq!(set.len(), 3);
        assert!(matches!(
            set.get("a_total").unwrap().value,
            MetricValue::Counter(1)
        ));
        let names: Vec<&str> = set.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a_total", "b_ratio", "c_cycles"]);
    }

    #[test]
    fn json_shape() {
        let mut set = MetricSet::new();
        assert_eq!(set.to_json(0), "[]");
        set.counter("walks_total", "total walks", 42);
        set.gauge("accuracy", "hit ratio", 0.25);
        let json = set.to_json(2);
        assert!(json.starts_with("[\n    {\"name\": \"walks_total\""));
        assert!(json.contains("\"type\": \"counter\", \"value\": 42}"));
        assert!(json.contains("\"type\": \"gauge\", \"value\": 0.2500}"));
        assert!(json.ends_with("\n  ]"));
    }

    #[test]
    fn histogram_json_carries_buckets() {
        let mut set = MetricSet::new();
        set.histogram(
            "lat",
            "latency",
            HistogramSnapshot {
                count: 3,
                total: 30,
                min: 8,
                max: 12,
                buckets: vec![0, 1, 2],
            },
        );
        let json = set.to_json(0);
        assert!(json.contains("\"buckets\": [0, 1, 2]"));
        assert!(json.contains("\"count\": 3, \"total\": 30, \"min\": 8, \"max\": 12"));
    }
}
