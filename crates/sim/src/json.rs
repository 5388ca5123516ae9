//! Machine-readable benchmark results: the `BENCH_results.json`
//! emitter/parser.
//!
//! The workspace is offline (no serde); this hand-rolled writer and
//! reader cover exactly the flat schema `BENCH_results.json` needs. Runs
//! are fully deterministic (seeded simulation), so the emitted file is
//! byte-stable across hosts — diffing it between commits IS the
//! perf-trajectory check, and [`BenchDoc`] round-trips it byte-identically
//! (emit → parse → re-emit reproduces the input, pinned by the golden
//! round-trip test).

use crate::scenarios::ScenarioResults;
use crate::RunResult;
use asap_telemetry::metrics::escape;
use std::fmt::Write as _;

/// Formats an `f64` as a JSON number (finite values only; the metrics
/// emitted here are ratios and means, never NaN/inf).
fn num(x: f64) -> String {
    debug_assert!(x.is_finite());
    format!("{x:.4}")
}

/// One run's emitted metrics — a parsed `BENCH_results.json` row.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// The workload's name.
    pub workload: String,
    /// The variant key within the scenario.
    pub variant: String,
    /// The spec's configuration label.
    pub label: String,
    /// Page walks performed in the measurement window.
    pub walks: u64,
    /// Mean walk latency in cycles (4 decimal places).
    pub avg_walk_latency: f64,
    /// Total cycles spent in walks.
    pub walk_cycles: u64,
    /// Total execution cycles of the measurement window.
    pub cycles: u64,
    /// Fraction of execution time spent walking (4 decimal places).
    pub walk_fraction: f64,
    /// Walks per kilo-instruction (4 decimal places).
    pub mpki: f64,
    /// L2 S-TLB misses.
    pub l2_tlb_misses: u64,
    /// L2 S-TLB accesses.
    pub l2_tlb_accesses: u64,
    /// Instructions modeled for the window.
    pub instructions: u64,
    /// Prefetches issued by the engine.
    pub prefetches_issued: u64,
    /// Prefetches dropped (MSHR pressure).
    pub prefetches_dropped: u64,
    /// Translation faults (always 0 in a healthy run).
    pub faults: u64,
}

impl BenchRun {
    fn from_result(r: &RunResult, workload: &str, variant: &str) -> Self {
        Self {
            workload: workload.into(),
            variant: variant.into(),
            label: r.label.clone(),
            walks: r.walks.count(),
            avg_walk_latency: r.avg_walk_latency(),
            walk_cycles: r.walk_cycles,
            cycles: r.cycles,
            walk_fraction: r.walk_fraction(),
            mpki: r.mpki(),
            l2_tlb_misses: r.l2_tlb_misses,
            l2_tlb_accesses: r.l2_tlb_accesses,
            instructions: r.instructions,
            prefetches_issued: r.prefetches_issued,
            prefetches_dropped: r.prefetches_dropped,
            faults: r.faults,
        }
    }

    fn emit(&self, out: &mut String, indent: &str) {
        let _ = write!(
            out,
            "{indent}{{\"workload\": \"{}\", \"variant\": \"{}\", \"label\": \"{}\", ",
            escape(&self.workload),
            escape(&self.variant),
            escape(&self.label)
        );
        let _ = write!(
            out,
            "\"walks\": {}, \"avg_walk_latency\": {}, \"walk_cycles\": {}, \"cycles\": {}, ",
            self.walks,
            num(self.avg_walk_latency),
            self.walk_cycles,
            self.cycles
        );
        let _ = write!(
            out,
            "\"walk_fraction\": {}, \"mpki\": {}, \"l2_tlb_misses\": {}, \"l2_tlb_accesses\": {}, ",
            num(self.walk_fraction),
            num(self.mpki),
            self.l2_tlb_misses,
            self.l2_tlb_accesses
        );
        let _ = write!(
            out,
            "\"instructions\": {}, \"prefetches_issued\": {}, \"prefetches_dropped\": {}, \"faults\": {}}}",
            self.instructions, self.prefetches_issued, self.prefetches_dropped, self.faults
        );
    }
}

/// One run the driver refused to execute, as emitted into the document —
/// machine-readable fan-out failures (satellite of the telemetry layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchError {
    /// The workload's name.
    pub workload: String,
    /// The variant key within the scenario.
    pub variant: String,
    /// The driver's error, rendered.
    pub error: String,
}

impl BenchError {
    fn emit(&self, out: &mut String, indent: &str) {
        let _ = write!(
            out,
            "{indent}{{\"workload\": \"{}\", \"variant\": \"{}\", \"error\": \"{}\"}}",
            escape(&self.workload),
            escape(&self.variant),
            escape(&self.error)
        );
    }
}

/// One scenario's parsed rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchScenario {
    /// The scenario's registry key.
    pub scenario: String,
    /// The emitted runs, in registry order.
    pub runs: Vec<BenchRun>,
    /// Runs the driver rejected with a typed error, in registry order.
    /// Emitted (and parsed) only when non-empty, so documents of healthy
    /// sweeps are byte-identical to the pre-`errors` schema.
    pub errors: Vec<BenchError>,
}

/// A parsed (or about-to-be-emitted) `BENCH_results.json` document.
///
/// # Schema
///
/// The file is a single JSON object:
///
/// ```json
/// {
///   "schema_version": 1,
///   "tier": "smoke" | "quick" | "full",
///   "scenarios": [
///     {"scenario": "<registry key>", "runs": [
///       {"workload": "<name>", "variant": "<key>", "label": "<spec label>",
///        "walks": u64, "avg_walk_latency": f64(4dp), "walk_cycles": u64,
///        "cycles": u64, "walk_fraction": f64(4dp), "mpki": f64(4dp),
///        "l2_tlb_misses": u64, "l2_tlb_accesses": u64, "instructions": u64,
///        "prefetches_issued": u64, "prefetches_dropped": u64, "faults": u64}
///     ]}
///   ]
/// }
/// ```
///
/// `tier` records the window scale the numbers were produced at so
/// trajectory diffs never compare across scales. Float metrics carry
/// exactly four decimal places; [`BenchDoc::to_json`] re-emits a parsed
/// document byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Schema version (currently 1).
    pub schema_version: u64,
    /// Window-scale tag ("full", "quick" or "smoke").
    pub tier: String,
    /// Per-scenario result rows.
    pub scenarios: Vec<BenchScenario>,
}

impl BenchDoc {
    /// Builds the document from executed scenario results. A multi-core
    /// run contributes its per-core rows (workload "mc80@core0", ...)
    /// followed by its aggregate row, named by the aggregate result
    /// itself (the plain workload name, or "mc80+corunner" for colocated
    /// SMP runs whose counters blend the neighbor's); a single-core run
    /// contributes only the aggregate row, so documents for single-core
    /// scenarios are unchanged by the cores axis.
    #[must_use]
    pub fn from_results(results: &[ScenarioResults], tier: &str) -> Self {
        Self {
            schema_version: 1,
            tier: tier.into(),
            scenarios: results
                .iter()
                .map(|sc| BenchScenario {
                    scenario: sc.name.into(),
                    runs: sc
                        .runs
                        .iter()
                        .flat_map(|r| {
                            r.per_core
                                .iter()
                                .chain(std::iter::once(&r.result))
                                .map(|row| BenchRun::from_result(row, &row.workload, &r.variant))
                        })
                        .collect(),
                    errors: sc
                        .errors
                        .iter()
                        .map(|e| BenchError {
                            workload: e.workload.into(),
                            variant: e.variant.clone(),
                            error: e.error.to_string(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Renders the document in the canonical `BENCH_results.json` layout.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(s, "  \"tier\": \"{}\",", escape(&self.tier));
        s.push_str("  \"scenarios\": [\n");
        for (i, sc) in self.scenarios.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"scenario\": \"{}\", \"runs\": [",
                escape(&sc.scenario)
            );
            for (j, r) in sc.runs.iter().enumerate() {
                r.emit(&mut s, "      ");
                s.push_str(if j + 1 < sc.runs.len() { ",\n" } else { "\n" });
            }
            if sc.errors.is_empty() {
                s.push_str("    ]}");
            } else {
                s.push_str("    ], \"errors\": [\n");
                for (j, e) in sc.errors.iter().enumerate() {
                    e.emit(&mut s, "      ");
                    s.push_str(if j + 1 < sc.errors.len() { ",\n" } else { "\n" });
                }
                s.push_str("    ]}");
            }
            s.push_str(if i + 1 < self.scenarios.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a `BENCH_results.json` document.
    ///
    /// # Errors
    ///
    /// [`JsonParseError`] (with a byte offset) on malformed JSON or a
    /// document that does not match the schema above.
    pub fn parse(input: &str) -> Result<Self, JsonParseError> {
        let mut p = Parser::new(input);
        let doc = p.document()?;
        p.skip_ws();
        if !p.at_end() {
            return Err(p.err("trailing content after document"));
        }
        Ok(doc)
    }
}

/// A `BENCH_results.json` parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl core::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

/// A minimal schema-directed JSON parser (whitespace-tolerant; strings,
/// unsigned integers and decimal floats — all this schema contains).
struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Self { input, pos: 0 }
    }

    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start_matches([' ', '\t', '\n', '\r']);
        self.pos = self.input.len() - trimmed.len();
    }

    fn expect_char(&mut self, token: char) -> Result<(), JsonParseError> {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len_utf8();
            Ok(())
        } else {
            Err(self.err(format!("expected {token:?}")))
        }
    }

    /// Consumes `token` if present (after whitespace).
    fn eat(&mut self, token: char) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len_utf8();
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect_char('"')?;
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => {
                    let Some((_, esc)) = chars.next() else { break };
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let Some((_, h)) = chars.next() else {
                                    return Err(self.err("truncated \\u escape"));
                                };
                                let Some(d) = h.to_digit(16) else {
                                    return Err(self.err("invalid \\u escape digit"));
                                };
                                code = code * 16 + d;
                            }
                            let Some(c) = char::from_u32(code) else {
                                return Err(self.err("\\u escape is not a scalar value"));
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("unknown escape \\{other}")));
                        }
                    }
                }
                c => out.push(c),
            }
        }
        Err(self.err("unterminated string"))
    }

    /// The raw lexeme of a number (sign, digits, optional fraction).
    fn number_lexeme(&mut self) -> Result<&'a str, JsonParseError> {
        self.skip_ws();
        let rest = self.rest();
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.err("expected a number"));
        }
        self.pos += len;
        Ok(&rest[..len])
    }

    fn u64_value(&mut self) -> Result<u64, JsonParseError> {
        let lexeme = self.number_lexeme()?;
        lexeme
            .parse()
            .map_err(|_| self.err(format!("expected an unsigned integer, got {lexeme:?}")))
    }

    fn f64_value(&mut self) -> Result<f64, JsonParseError> {
        let lexeme = self.number_lexeme()?;
        lexeme
            .parse()
            .map_err(|_| self.err(format!("expected a number, got {lexeme:?}")))
    }

    fn key(&mut self, expected: &str) -> Result<(), JsonParseError> {
        let k = self.string()?;
        if k != expected {
            return Err(self.err(format!("expected key {expected:?}, got {k:?}")));
        }
        self.expect_char(':')
    }

    fn document(&mut self) -> Result<BenchDoc, JsonParseError> {
        self.expect_char('{')?;
        self.key("schema_version")?;
        let schema_version = self.u64_value()?;
        self.expect_char(',')?;
        self.key("tier")?;
        let tier = self.string()?;
        self.expect_char(',')?;
        self.key("scenarios")?;
        self.expect_char('[')?;
        let mut scenarios = Vec::new();
        if !self.eat(']') {
            loop {
                scenarios.push(self.scenario()?);
                if !self.eat(',') {
                    break;
                }
            }
            self.expect_char(']')?;
        }
        self.expect_char('}')?;
        Ok(BenchDoc {
            schema_version,
            tier,
            scenarios,
        })
    }

    fn scenario(&mut self) -> Result<BenchScenario, JsonParseError> {
        self.expect_char('{')?;
        self.key("scenario")?;
        let scenario = self.string()?;
        self.expect_char(',')?;
        self.key("runs")?;
        self.expect_char('[')?;
        let mut runs = Vec::new();
        if !self.eat(']') {
            loop {
                runs.push(self.run()?);
                if !self.eat(',') {
                    break;
                }
            }
            self.expect_char(']')?;
        }
        let mut errors = Vec::new();
        if self.eat(',') {
            self.key("errors")?;
            self.expect_char('[')?;
            if !self.eat(']') {
                loop {
                    errors.push(self.error_entry()?);
                    if !self.eat(',') {
                        break;
                    }
                }
                self.expect_char(']')?;
            }
        }
        self.expect_char('}')?;
        Ok(BenchScenario {
            scenario,
            runs,
            errors,
        })
    }

    fn error_entry(&mut self) -> Result<BenchError, JsonParseError> {
        self.expect_char('{')?;
        self.key("workload")?;
        let workload = self.string()?;
        self.expect_char(',')?;
        self.key("variant")?;
        let variant = self.string()?;
        self.expect_char(',')?;
        self.key("error")?;
        let error = self.string()?;
        self.expect_char('}')?;
        Ok(BenchError {
            workload,
            variant,
            error,
        })
    }

    fn run(&mut self) -> Result<BenchRun, JsonParseError> {
        self.expect_char('{')?;
        self.key("workload")?;
        let workload = self.string()?;
        self.expect_char(',')?;
        self.key("variant")?;
        let variant = self.string()?;
        self.expect_char(',')?;
        self.key("label")?;
        let label = self.string()?;
        self.expect_char(',')?;
        self.key("walks")?;
        let walks = self.u64_value()?;
        self.expect_char(',')?;
        self.key("avg_walk_latency")?;
        let avg_walk_latency = self.f64_value()?;
        self.expect_char(',')?;
        self.key("walk_cycles")?;
        let walk_cycles = self.u64_value()?;
        self.expect_char(',')?;
        self.key("cycles")?;
        let cycles = self.u64_value()?;
        self.expect_char(',')?;
        self.key("walk_fraction")?;
        let walk_fraction = self.f64_value()?;
        self.expect_char(',')?;
        self.key("mpki")?;
        let mpki = self.f64_value()?;
        self.expect_char(',')?;
        self.key("l2_tlb_misses")?;
        let l2_tlb_misses = self.u64_value()?;
        self.expect_char(',')?;
        self.key("l2_tlb_accesses")?;
        let l2_tlb_accesses = self.u64_value()?;
        self.expect_char(',')?;
        self.key("instructions")?;
        let instructions = self.u64_value()?;
        self.expect_char(',')?;
        self.key("prefetches_issued")?;
        let prefetches_issued = self.u64_value()?;
        self.expect_char(',')?;
        self.key("prefetches_dropped")?;
        let prefetches_dropped = self.u64_value()?;
        self.expect_char(',')?;
        self.key("faults")?;
        let faults = self.u64_value()?;
        self.expect_char('}')?;
        Ok(BenchRun {
            workload,
            variant,
            label,
            walks,
            avg_walk_latency,
            walk_cycles,
            cycles,
            walk_fraction,
            mpki,
            l2_tlb_misses,
            l2_tlb_accesses,
            instructions,
            prefetches_issued,
            prefetches_dropped,
            faults,
        })
    }
}

/// Renders a full scenario-results set as the `BENCH_results.json` schema
/// (see [`BenchDoc`]).
///
/// `tier` records the window scale the numbers were produced at ("full",
/// "quick" or "smoke") so trajectory diffs never compare across scales.
///
/// # Examples
///
/// ```
/// use asap_sim::scenarios::find;
/// use asap_sim::{results_to_json, BenchDoc, SimConfig};
///
/// let results = [find("smoke").unwrap().run(SimConfig::smoke_test())];
/// let json = results_to_json(&results, "smoke");
/// assert!(json.starts_with('{'));
/// assert!(json.contains("\"scenario\": \"smoke\""));
/// // The emitter round-trips byte-identically.
/// assert_eq!(BenchDoc::parse(&json).unwrap().to_json(), json);
/// ```
#[must_use]
pub fn results_to_json(results: &[ScenarioResults], tier: &str) -> String {
    BenchDoc::from_results(results, tier).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{ScenarioResults, ScenarioRunResult};
    use asap_core::{ServedByMatrix, WalkLatencyStats};

    fn result() -> RunResult {
        let mut walks = WalkLatencyStats::new();
        walks.record(100);
        RunResult {
            workload: "mc80".into(),
            label: "Baseline \"quoted\"".into(),
            walks,
            served: ServedByMatrix::new(),
            host_served: None,
            l2_tlb_misses: 5,
            l2_tlb_accesses: 10,
            instructions: 1000,
            cycles: 400,
            walk_cycles: 100,
            prefetches_issued: 2,
            prefetches_dropped: 1,
            faults: 0,
        }
    }

    fn sample() -> [ScenarioResults; 1] {
        [ScenarioResults {
            name: "smoke",
            runs: vec![ScenarioRunResult {
                workload: "mc80",
                variant: "native/baseline".into(),
                result: result(),
                per_core: Vec::new(),
                telemetry: None,
            }],
            errors: Vec::new(),
        }]
    }

    #[test]
    fn multi_core_runs_emit_per_core_rows_before_the_aggregate() {
        let mut core0 = result();
        core0.workload = "mc80@core0".into();
        let mut core1 = result();
        core1.workload = "mc80@core1".into();
        let results = [ScenarioResults {
            name: "smp_smoke",
            runs: vec![ScenarioRunResult {
                workload: "mc80",
                variant: "Baseline+2c".into(),
                result: result(),
                per_core: vec![core0, core1],
                telemetry: None,
            }],
            errors: Vec::new(),
        }];
        let doc = BenchDoc::from_results(&results, "smoke");
        let rows: Vec<&str> = doc.scenarios[0]
            .runs
            .iter()
            .map(|r| r.workload.as_str())
            .collect();
        assert_eq!(rows, ["mc80@core0", "mc80@core1", "mc80"]);
        assert!(doc.scenarios[0]
            .runs
            .iter()
            .all(|r| r.variant == "Baseline+2c"));
        let json = doc.to_json();
        assert_eq!(BenchDoc::parse(&json).unwrap().to_json(), json);
    }

    #[test]
    fn renders_escaped_valid_shape() {
        let json = results_to_json(&sample(), "smoke");
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"tier\": \"smoke\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"avg_walk_latency\": 100.0000"));
        assert!(json.contains("\"walk_fraction\": 0.2500"));
        // Balanced braces/brackets (a cheap structural sanity check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_scenarios_render() {
        let results = [ScenarioResults {
            name: "table2",
            runs: Vec::new(),
            errors: Vec::new(),
        }];
        let json = results_to_json(&results, "full");
        assert!(json.contains("\"scenario\": \"table2\", \"runs\": [\n    ]}"));
        assert_eq!(BenchDoc::parse(&json).unwrap().to_json(), json);
    }

    #[test]
    fn parse_round_trips_byte_identically() {
        let json = results_to_json(&sample(), "smoke");
        let doc = BenchDoc::parse(&json).unwrap();
        assert_eq!(doc.schema_version, 1);
        assert_eq!(doc.tier, "smoke");
        assert_eq!(doc.scenarios.len(), 1);
        let run = &doc.scenarios[0].runs[0];
        assert_eq!(run.label, "Baseline \"quoted\"");
        assert_eq!(run.walks, 1);
        assert!((run.avg_walk_latency - 100.0).abs() < 1e-12);
        assert_eq!(doc.to_json(), json, "re-emit must be byte-identical");
    }

    #[test]
    fn failed_runs_surface_in_an_errors_array() {
        use crate::scenarios::ScenarioRunError;
        use crate::DriverError;
        let mut results = sample();
        results[0].errors.push(ScenarioRunError {
            workload: "mc80",
            variant: "Baseline+99c".into(),
            error: DriverError::incompatible_spec("cores exceed MAX_CORES"),
        });
        let json = results_to_json(&results, "smoke");
        assert!(json.contains("], \"errors\": [\n"));
        assert!(json.contains("\"variant\": \"Baseline+99c\""));
        let doc = BenchDoc::parse(&json).unwrap();
        assert_eq!(doc.scenarios[0].errors.len(), 1);
        assert_eq!(doc.scenarios[0].errors[0].workload, "mc80");
        assert_eq!(doc.to_json(), json, "re-emit must be byte-identical");
        // A healthy sweep emits no errors key at all, so pre-`errors`
        // documents (and the committed BENCH_results.json) are unchanged.
        let clean = results_to_json(&sample(), "smoke");
        assert!(!clean.contains("errors"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"schema_version\": 1}",
            "{\"schema_version\": \"x\", \"tier\": \"t\", \"scenarios\": []}",
            "{\"schema_version\": 1, \"tier\": \"t\", \"scenarios\": []} trailing",
        ] {
            let err = BenchDoc::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_handles_escapes_and_whitespace() {
        let json = results_to_json(&sample(), "smoke");
        // Whitespace-insensitivity: collapse the layout entirely.
        let squashed: String = json.split('\n').map(str::trim).collect::<Vec<_>>().join("");
        let a = BenchDoc::parse(&json).unwrap();
        let b = BenchDoc::parse(&squashed).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.to_json(), json, "canonical layout is restored");
    }
}
