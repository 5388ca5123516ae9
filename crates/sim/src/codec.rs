//! Byte-exact serialization of one [`RunResult`] row.
//!
//! Every field of a [`RunResult`] is an integer or a string, so the
//! single-line JSON row carries no float formatting: equal rows always
//! serialize to equal bytes. perfbench hashes these bytes into its rows
//! digests, so the golden test below pins the exact layout.

use crate::RunResult;
use asap_core::ServedByMatrix;
use asap_telemetry::json::escape;
use std::fmt::Write as _;

/// Serializes one result row as a single-line JSON object.
#[must_use]
pub fn result_to_json(r: &RunResult) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"label\":\"{}\"",
        escape(&r.workload),
        escape(&r.label)
    );
    for (name, value) in [
        ("l2_tlb_misses", r.l2_tlb_misses),
        ("l2_tlb_accesses", r.l2_tlb_accesses),
        ("instructions", r.instructions),
        ("cycles", r.cycles),
        ("walk_cycles", r.walk_cycles),
        ("prefetches_issued", r.prefetches_issued),
        ("prefetches_dropped", r.prefetches_dropped),
        ("faults", r.faults),
    ] {
        let _ = write!(out, ",\"{name}\":{value}");
    }
    let _ = write!(
        out,
        ",\"walks\":{{\"count\":{},\"total_cycles\":{},\"min\":{},\"max\":{},\"buckets\":{}}}",
        r.walks.count(),
        r.walks.total_cycles(),
        r.walks.min(),
        r.walks.max(),
        u64_array(r.walks.buckets())
    );
    let _ = write!(out, ",\"served\":{}", matrix(&r.served));
    match &r.host_served {
        Some(h) => {
            let _ = write!(out, ",\"host_served\":{}", matrix(h));
        }
        None => out.push_str(",\"host_served\":null"),
    }
    out.push('}');
    out
}

fn u64_array(values: &[u64]) -> String {
    let mut out = String::with_capacity(values.len() * 4 + 2);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// A served-by matrix as a flat 25-element row-major array (depth 1..=5
/// rows, PWC/L1/L2/LLC/Mem columns).
fn matrix(m: &ServedByMatrix) -> String {
    let rows = m.raw_counts();
    let flat: Vec<u64> = rows.iter().flat_map(|row| row.iter().copied()).collect();
    u64_array(&flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_cache::ServedBy;
    use asap_core::{ServedSource, WalkLatencyStats};
    use asap_types::PtLevel;

    fn sample(host: bool) -> RunResult {
        let mut walks = WalkLatencyStats::new();
        for l in [12u64, 80, 300] {
            walks.record(l);
        }
        let mut served = ServedByMatrix::new();
        served.record(PtLevel::Pl1, ServedSource::Pwc);
        served.record(PtLevel::Pl2, ServedSource::Cache(ServedBy::Memory));
        let mut host_served = None;
        if host {
            let mut h = ServedByMatrix::new();
            h.record(PtLevel::Pl3, ServedSource::Cache(ServedBy::L2));
            host_served = Some(h);
        }
        RunResult {
            workload: "mc80".into(),
            label: "P1+P2 coloc".into(),
            walks,
            served,
            host_served,
            l2_tlb_misses: 11,
            l2_tlb_accesses: 222,
            instructions: 3333,
            cycles: 44444,
            walk_cycles: 555,
            prefetches_issued: 66,
            prefetches_dropped: 7,
            faults: 0,
        }
    }

    #[test]
    fn golden_row_bytes() {
        let json = result_to_json(&sample(false));
        let golden = concat!(
            "{\"workload\":\"mc80\",\"label\":\"P1+P2 coloc\",",
            "\"l2_tlb_misses\":11,\"l2_tlb_accesses\":222,\"instructions\":3333,",
            "\"cycles\":44444,\"walk_cycles\":555,\"prefetches_issued\":66,",
            "\"prefetches_dropped\":7,\"faults\":0,",
            "\"walks\":{\"count\":3,\"total_cycles\":392,\"min\":12,\"max\":300,",
            "\"buckets\":[0,0,0,1,0,0,1,0,1,0,0,0,0,0,0,0]},",
            "\"served\":[1,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],",
            "\"host_served\":null}"
        );
        assert_eq!(json, golden);
        let nested = result_to_json(&sample(true));
        let host_row = "\"host_served\":[0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0]}";
        assert!(nested.ends_with(host_row), "{nested}");
    }

    #[test]
    fn escaped_labels_survive() {
        let mut row = sample(false);
        row.label = "odd \"label\"\nwith\tescapes\r".into();
        let json = result_to_json(&row);
        assert!(
            json.contains(r#""label":"odd \"label\"\nwith\u0009escapes\u000d","#),
            "{json}"
        );
    }
}
