//! Byte-exact serialization of [`RunResult`] / [`RunOutput`] for the
//! result cache.
//!
//! Every field of a [`RunResult`] is an integer or a string, so a
//! decimal re-emit is lossless by construction — there is no float
//! formatting anywhere in this codec, which is what makes "cached rows
//! can never drift from fresh ones" a structural guarantee rather than a
//! rounding promise. The golden test below pins the exact byte layout;
//! `parse(serialize(x)) == x` and `serialize(parse(s)) == s` both hold.
//!
//! The cache payload wraps the [`RunOutput`] rows with a codec version
//! (decoders reject unknown versions, which the cache treats as a miss)
//! and the observed wall-clock of the producing run (the executor's
//! cost hint — advisory, never part of any reported statistic).

use crate::json::{JsonParseError, Parser};
use crate::{RunOutput, RunResult};
use asap_core::{ServedByMatrix, WalkLatencyStats};
use asap_telemetry::metrics::escape;
use std::fmt::Write as _;

/// Version stamp of the payload layout; bump on any byte-layout change.
pub const CODEC_VERSION: u64 = 1;

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

/// Parses a row serialized by [`result_to_json`].
///
/// # Errors
///
/// [`JsonParseError`] on malformed input or schema drift.
pub fn result_from_json(input: &str) -> Result<RunResult, JsonParseError> {
    let mut p = Parser::new(input);
    let row = parse_result(&mut p)?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing content after result row"));
    }
    Ok(row)
}

/// Serializes a cache payload: codec version, observed wall-clock of the
/// producing run, and the output's aggregate + per-core rows.
#[must_use]
pub fn encode_payload(output: &RunOutput, elapsed_nanos: u64) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"codec_version\":{CODEC_VERSION},\"elapsed_nanos\":{elapsed_nanos},\"aggregate\":{},\"per_core\":[",
        result_to_json(&output.aggregate)
    );
    for (i, core) in output.per_core.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&result_to_json(core));
    }
    out.push_str("]}");
    out
}

/// Decodes a payload produced by [`encode_payload`] back into a
/// [`RunOutput`] (telemetry is `None` — cached entries never carry live
/// artifacts) plus the stored wall-clock cost hint.
///
/// # Errors
///
/// [`JsonParseError`] on malformed input, schema drift, or an unknown
/// codec version — callers treat any error as a cache miss.
pub fn decode_payload(input: &str) -> Result<(RunOutput, u64), JsonParseError> {
    let mut p = Parser::new(input);
    p.expect_char('{')?;
    p.key("codec_version")?;
    let version = p.u64_value()?;
    if version != CODEC_VERSION {
        return Err(p.err(format!("unknown codec version {version}")));
    }
    p.expect_char(',')?;
    p.key("elapsed_nanos")?;
    let elapsed_nanos = p.u64_value()?;
    p.expect_char(',')?;
    p.key("aggregate")?;
    let aggregate = parse_result(&mut p)?;
    p.expect_char(',')?;
    p.key("per_core")?;
    p.expect_char('[')?;
    let mut per_core = Vec::new();
    if !p.eat(']') {
        loop {
            per_core.push(parse_result(&mut p)?);
            if !p.eat(',') {
                break;
            }
        }
        p.expect_char(']')?;
    }
    p.expect_char('}')?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing content after payload"));
    }
    Ok((
        RunOutput {
            aggregate,
            per_core,
            telemetry: None,
        },
        elapsed_nanos,
    ))
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

fn parse_u64_array<const N: usize>(p: &mut Parser<'_>) -> Result<[u64; N], JsonParseError> {
    p.expect_char('[')?;
    let mut out = [0u64; N];
    for (i, slot) in out.iter_mut().enumerate() {
        if i > 0 {
            p.expect_char(',')?;
        }
        *slot = p.u64_value()?;
    }
    p.expect_char(']')?;
    Ok(out)
}

fn parse_matrix(p: &mut Parser<'_>) -> Result<ServedByMatrix, JsonParseError> {
    let flat: [u64; 25] = parse_u64_array(p)?;
    let mut counts = [[0u64; 5]; 5];
    for (i, v) in flat.iter().enumerate() {
        counts[i / 5][i % 5] = *v;
    }
    Ok(ServedByMatrix::from_raw_counts(counts))
}

fn parse_result(p: &mut Parser<'_>) -> Result<RunResult, JsonParseError> {
    p.expect_char('{')?;
    p.key("workload")?;
    let workload = p.string()?;
    p.expect_char(',')?;
    p.key("label")?;
    let label = p.string()?;
    let mut counters = [0u64; 8];
    for (name, slot) in [
        "l2_tlb_misses",
        "l2_tlb_accesses",
        "instructions",
        "cycles",
        "walk_cycles",
        "prefetches_issued",
        "prefetches_dropped",
        "faults",
    ]
    .iter()
    .zip(counters.iter_mut())
    {
        p.expect_char(',')?;
        p.key(name)?;
        *slot = p.u64_value()?;
    }
    p.expect_char(',')?;
    p.key("walks")?;
    p.expect_char('{')?;
    p.key("count")?;
    let count = p.u64_value()?;
    p.expect_char(',')?;
    p.key("total_cycles")?;
    let total_cycles = p.u64_value()?;
    p.expect_char(',')?;
    p.key("min")?;
    let min = p.u64_value()?;
    p.expect_char(',')?;
    p.key("max")?;
    let max = p.u64_value()?;
    p.expect_char(',')?;
    p.key("buckets")?;
    let buckets: [u64; 16] = parse_u64_array(p)?;
    p.expect_char('}')?;
    let walks = WalkLatencyStats::from_raw(count, total_cycles, min, max, buckets);
    p.expect_char(',')?;
    p.key("served")?;
    let served = parse_matrix(p)?;
    p.expect_char(',')?;
    p.key("host_served")?;
    let host_served = if p.eat_keyword("null") {
        None
    } else {
        Some(parse_matrix(p)?)
    };
    p.expect_char('}')?;
    let [l2_tlb_misses, l2_tlb_accesses, instructions, cycles, walk_cycles, prefetches_issued, prefetches_dropped, faults] =
        counters;
    Ok(RunResult {
        workload,
        label,
        walks,
        served,
        host_served,
        l2_tlb_misses,
        l2_tlb_accesses,
        instructions,
        cycles,
        walk_cycles,
        prefetches_issued,
        prefetches_dropped,
        faults,
    })
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
    }

    #[test]
    fn roundtrip_both_directions() {
        for host in [false, true] {
            let row = sample(host);
            let json = result_to_json(&row);
            let back = result_from_json(&json).unwrap();
            assert_eq!(back, row);
            assert_eq!(result_to_json(&back), json, "re-emit is byte-identical");
        }
    }

    #[test]
    fn empty_stats_roundtrip() {
        let mut row = sample(false);
        row.walks = WalkLatencyStats::new();
        let back = result_from_json(&result_to_json(&row)).unwrap();
        assert_eq!(back, row, "empty-min sentinel survives the round trip");
    }

    #[test]
    fn payload_roundtrip_and_version_gate() {
        let output = RunOutput {
            aggregate: sample(true),
            per_core: vec![sample(false), sample(false)],
            telemetry: None,
        };
        let payload = encode_payload(&output, 123_456);
        let (back, elapsed) = decode_payload(&payload).unwrap();
        assert_eq!(elapsed, 123_456);
        assert_eq!(back.aggregate, output.aggregate);
        assert_eq!(back.per_core, output.per_core);
        assert!(back.telemetry.is_none());
        assert_eq!(encode_payload(&back, elapsed), payload);

        let future = payload.replacen("\"codec_version\":1", "\"codec_version\":2", 1);
        assert!(decode_payload(&future).is_err(), "unknown version rejected");
        assert!(decode_payload("{\"codec_version\":1").is_err());
    }

    #[test]
    fn escaped_labels_survive() {
        let mut row = sample(false);
        row.label = "odd \"label\"\nwith\tescapes\r".into();
        let back = result_from_json(&result_to_json(&row)).unwrap();
        assert_eq!(back.label, row.label);
    }
}
