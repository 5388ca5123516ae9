//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§5) from the simulator.
//!
//! Every experiment's runs are resolved through the scenario registry
//! ([`asap_sim::scenarios`]); this crate only owns the *rendering* — how a
//! scenario's [`RunResult`]s become the paper's tables. Which renderer a
//! scenario gets is selected by its [`RendererKind`] metadata, so a new
//! registry entry needs no harness change (the default renderer prints one
//! row per run). The single `asap` CLI (`src/bin/asap.rs`) fronts it all:
//!
//! ```text
//! cargo run --release -p asap-bench --bin asap -- list
//! cargo run --release -p asap-bench --bin asap -- run fig3 fig8
//! cargo run --release -p asap-bench --bin asap -- smoke   # committed BENCH_results.json
//! cargo run --release -p asap-bench --bin asap -- all     # BENCH_results_full.json
//! ```
//!
//! `--quick` (or `ASAP_QUICK=1`) shrinks the measurement windows for a
//! fast pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use asap_sim::scenarios::{registry, run_scenarios, RendererKind, Scenario, ScenarioResults};
use asap_sim::{fmt_cycles, fmt_pct, fmt_ratio, parallel_map, RunResult, SimConfig, Table};
use asap_types::PtLevel;
use asap_workloads::WorkloadSpec;

/// The shared window configuration: `quick` (the CLI flag) or
/// `ASAP_QUICK=1` selects reduced windows.
#[must_use]
pub fn sim_config(quick: bool) -> SimConfig {
    if quick || quick_mode() {
        SimConfig {
            warmup_accesses: 5_000,
            measure_accesses: 20_000,
            seed: 42,
            ..SimConfig::default()
        }
    } else {
        SimConfig::default()
    }
}

/// Whether `ASAP_QUICK=1` is set.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var("ASAP_QUICK").is_ok_and(|v| v == "1")
}

/// The tier tag stamped into results JSON for the current windows.
#[must_use]
pub fn tier(quick: bool) -> &'static str {
    if quick || quick_mode() {
        "quick"
    } else {
        "full"
    }
}

/// The tier tag for a concrete scenario set: scenarios with pinned
/// windows run at those windows regardless of `quick`, so the tag must
/// follow the windows the numbers were actually produced at. All-pinned
/// smoke windows → `"smoke"`; no pinned windows → [`tier`]; anything
/// else → `"mixed"` (never comparable to a committed baseline).
#[must_use]
pub fn results_tier(set: &[Scenario], quick: bool) -> &'static str {
    let smoke_windows = SimConfig::smoke_test();
    let pinned = set.iter().filter(|s| s.default_windows().is_some()).count();
    if pinned == 0 {
        tier(quick)
    } else if pinned == set.len()
        && set
            .iter()
            .all(|s| s.default_windows() == Some(smoke_windows))
    {
        "smoke"
    } else {
        "mixed"
    }
}

/// The registry minus the CI-only smoke scenarios, in paper order — the
/// set `asap all` regenerates.
#[must_use]
pub fn paper_scenarios() -> Vec<Scenario> {
    registry().into_iter().filter(|s| !s.smoke).collect()
}

/// The experiments `asap all` regenerates, in paper order.
#[must_use]
pub fn experiment_names() -> Vec<&'static str> {
    paper_scenarios().into_iter().map(|s| s.name).collect()
}

/// Executes a scenario set, honouring each scenario's own declared
/// windows ([`Scenario::default_windows`]) and falling back to `fallback`
/// for the rest. Scenarios sharing windows run as one flattened parallel
/// fan-out; results come back in the input order.
#[must_use]
pub fn execute_scenarios(set: &[Scenario], fallback: SimConfig) -> Vec<ScenarioResults> {
    let mut groups: Vec<(SimConfig, Vec<usize>)> = Vec::new();
    for (i, s) in set.iter().enumerate() {
        let sim = s.windows_or(fallback);
        match groups.iter_mut().find(|(g, _)| *g == sim) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((sim, vec![i])),
        }
    }
    let mut out: Vec<Option<ScenarioResults>> = set.iter().map(|_| None).collect();
    for (sim, idxs) in groups {
        let subset: Vec<Scenario> = idxs.iter().map(|&i| set[i].clone()).collect();
        for (results, &i) in run_scenarios(&subset, sim).into_iter().zip(&idxs) {
            out[i] = Some(results);
        }
    }
    #[expect(clippy::expect_used, reason = "the loop fills every slot once")]
    out.into_iter()
        .map(|r| r.expect("every scenario lands in exactly one group"))
        .collect()
}

/// Prints every collected driver error to stderr and returns how many
/// there were — the CLI exits non-zero when this is not 0, so a failed
/// run in a fan-out can never hide behind a green exit.
///
/// Diagnostics are lint-style — `file:line: error: …` — where the anchor
/// is the source line that raised the [`DriverError`](asap_sim::DriverError)
/// (captured with `#[track_caller]`), so a violation in a terminal or CI
/// log is clickable straight into the driver/spec code that rejected the
/// run.
pub fn report_errors<'a>(all: impl IntoIterator<Item = &'a ScenarioResults>) -> usize {
    let mut count = 0;
    for results in all {
        for e in &results.errors {
            eprintln!(
                "{}: error: {}/{}/{}: {}",
                e.error.anchor(),
                results.name,
                e.workload,
                e.variant,
                e.error
            );
            count += 1;
        }
    }
    count
}

/// Writes results as `BENCH_results.json`-schema JSON to `path`.
///
/// # Errors
///
/// Propagates the I/O error; callers (the CLI) must treat it as fatal — a
/// missing results file would silently skip the CI perf-trajectory check.
pub fn write_results_json(
    path: &str,
    results: &[ScenarioResults],
    tier: &str,
) -> std::io::Result<()> {
    std::fs::write(path, asap_sim::results_to_json(results, tier))
}

/// Renders a scenario's results into the paper's tables, selected by the
/// scenario's [`RendererKind`] metadata. A scenario with driver errors
/// renders nothing — the errors ride along in `results.errors` for
/// [`report_errors`] instead of the renderer panicking on missing runs.
#[must_use]
pub fn render(scenario: &Scenario, results: &ScenarioResults) -> Vec<Table> {
    if !results.is_complete() {
        return Vec::new();
    }
    let suite = scenario.workload_specs();
    match scenario.renderer {
        RendererKind::RunMatrix => vec![render_run_matrix(scenario, results)],
        RendererKind::Table1 => vec![render_table1(results)],
        RendererKind::WalkFractionGrid => vec![render_four_scenarios(
            results,
            suite,
            "Figure 2: fraction of execution time spent in page walks",
            RunResult::walk_fraction,
            fmt_pct,
        )],
        RendererKind::WalkLatencyGrid => vec![render_four_scenarios(
            results,
            suite,
            "Figure 3: average page-walk latency (cycles)",
            RunResult::avg_walk_latency,
            fmt_cycles,
        )],
        RendererKind::PtCensus => vec![render_pt_census(suite)],
        RendererKind::AsapSweep => vec![
            asap_sweep_table(results, suite, false),
            asap_sweep_table(results, suite, true),
        ],
        RendererKind::ServedBy => vec![render_served_by(results)],
        RendererKind::NestedAsapSweep => vec![
            nested_sweep_table(results, suite, false),
            nested_sweep_table(results, suite, true),
        ],
        RendererKind::Projection => vec![render_projection(results, suite)],
        RendererKind::ClusteredSynergy => render_clustered_synergy(results, suite),
        RendererKind::HostHugePages => vec![render_host_huge_pages(results, suite)],
        RendererKind::PwcAblation => vec![render_pwc_ablation(results, suite)],
        RendererKind::ScatterAblation => vec![render_scatter_ablation(results)],
        RendererKind::FiveLevelAblation => vec![render_five_level(results)],
        RendererKind::HeadToHead => render_head_to_head(results),
        RendererKind::SmpScaling => vec![render_smp_scaling(scenario, results)],
    }
}

/// SMP scaling: every run contributes its per-core rows ("mc80@core0",
/// ...) followed by its whole-machine aggregate row, so both per-core
/// skew and the scaling trend across core counts are visible in one
/// table.
fn render_smp_scaling(scenario: &Scenario, r: &ScenarioResults) -> Table {
    let mut t = Table::new(
        scenario.title,
        vec![
            "workload",
            "variant",
            "walks",
            "avg walk latency (cycles)",
            "cycles",
            "walk frac",
        ],
    );
    let mut row = |workload: String, variant: &str, result: &RunResult, frac: f64| {
        t.row(vec![
            workload,
            variant.into(),
            result.walks.count().to_string(),
            fmt_cycles(result.avg_walk_latency()),
            result.cycles.to_string(),
            fmt_pct(frac),
        ]);
    };
    for run in &r.runs {
        for core in &run.per_core {
            row(
                core.workload.clone(),
                &run.variant,
                core,
                core.walk_fraction(),
            );
        }
        if run.per_core.is_empty() {
            let result = &run.result;
            row(
                run.workload.to_string(),
                &run.variant,
                result,
                result.walk_fraction(),
            );
        } else {
            // Aggregate fraction per *core*-cycle (summed walk cycles over
            // summed per-core windows), not per wall cycle — the wall-clock
            // ratio exceeds 1 as soon as several walkers run concurrently.
            let core_cycles: u64 = run.per_core.iter().map(|c| c.cycles).sum();
            let frac = if core_cycles == 0 {
                0.0
            } else {
                run.result.walk_cycles as f64 / core_cycles as f64
            };
            row(
                format!("{} (all cores)", run.result.workload),
                &run.variant,
                &run.result,
                frac,
            );
        }
    }
    t
}

/// The default renderer: one row per run, engine-matrix style.
fn render_run_matrix(scenario: &Scenario, r: &ScenarioResults) -> Table {
    let mut t = Table::new(
        scenario.title,
        vec![
            "workload",
            "variant",
            "walks",
            "avg walk latency (cycles)",
            "cycles",
            "prefetches",
            "faults",
        ],
    );
    for run in &r.runs {
        t.row(vec![
            run.workload.into(),
            run.variant.clone(),
            run.result.walks.count().to_string(),
            fmt_cycles(run.result.avg_walk_latency()),
            run.result.cycles.to_string(),
            run.result.prefetches_issued.to_string(),
            run.result.faults.to_string(),
        ]);
    }
    t
}

fn render_table1(r: &ScenarioResults) -> Table {
    let rows: [(&str, &RunResult); 5] = [
        ("native mc80 (reference)", r.get("mc80", "native")),
        ("5x larger dataset (mc400)", r.get("mc400", "native")),
        ("SMT colocation", r.get("mc80", "native+coloc")),
        ("Virtualization", r.get("mc80", "virt")),
        (
            "Virtualization + SMT colocation",
            r.get("mc80", "virt+coloc"),
        ),
    ];
    let reference = rows[0].1.avg_walk_latency();
    let mut t = Table::new(
        "Table 1: memcached page-walk latency growth (normalized to native mc80 isolation)",
        vec![
            "scenario",
            "avg walk latency (cycles)",
            "vs reference",
            "paper",
        ],
    );
    let paper = ["1.0x", "1.2x", "2.7x", "5.3x", "12.0x"];
    for ((name, run), paper_ratio) in rows.iter().zip(paper) {
        t.row(vec![
            (*name).into(),
            fmt_cycles(run.avg_walk_latency()),
            fmt_ratio(run.avg_walk_latency() / reference),
            paper_ratio.into(),
        ]);
    }
    t
}

/// Shared renderer for the Figs. 2/3 four-scenario layout.
fn render_four_scenarios(
    r: &ScenarioResults,
    suite: &[WorkloadSpec],
    title: &str,
    metric: fn(&RunResult) -> f64,
    fmt: fn(f64) -> String,
) -> Table {
    let mut t = Table::new(
        title,
        vec![
            "workload",
            "native",
            "native+coloc",
            "virtualized",
            "virt+coloc",
        ],
    );
    let variants = ["native", "native+coloc", "virt", "virt+coloc"];
    let mut sums = [0.0f64; 4];
    for w in suite {
        let mut cells = vec![w.name.to_string()];
        for (s, v) in sums.iter_mut().zip(variants.iter()) {
            let x = metric(r.get(w.name, v));
            cells.push(fmt(x));
            *s += x;
        }
        t.row(cells);
    }
    let n = suite.len() as f64;
    let mut cells = vec!["Average".to_string()];
    for s in sums {
        cells.push(fmt(s / n));
    }
    t.row(cells);
    t
}

/// Table 2 is analytic (a page-table census, no simulation runs), so its
/// renderer builds the processes itself from the scenario's workloads.
fn render_pt_census(suite: &[WorkloadSpec]) -> Table {
    use asap_os::AsapOsConfig;
    use asap_types::Asid;
    use asap_workloads::AccessStream;
    let mut t = Table::new(
        "Table 2: VMAs, PT pages and contiguous physical regions",
        vec![
            "workload",
            "total VMAs",
            "VMAs for 99%",
            "contig regions (touched)",
            "PT pages (touched)",
            "PT pages (full dataset)",
            "mean run (frames)",
        ],
    );
    let rows = parallel_map(suite.to_vec(), |w| {
        let mut p = w.build_process(Asid(1), AsapOsConfig::disabled(), 7);
        let mut stream = w.build_stream(&p, 9);
        // Touch enough of the dataset that the PT's statistical layout is
        // representative.
        for _ in 0..150_000 {
            let va = stream.next_va();
            let _ = p.touch(va);
        }
        let census = p.census();
        let contig = census.contiguity_total();
        // Analytic full-dataset PT size: one PL1 page per 2 MiB, one PL2
        // per 1 GiB, one PL3 per 512 GiB, plus the root.
        let bytes = w.footprint.bytes();
        let analytic =
            bytes.div_ceil(2 << 20) + bytes.div_ceil(1 << 30) + bytes.div_ceil(1 << 39) + 1;
        (
            w.name,
            p.vmas().len(),
            p.vmas().vmas_covering(0.99),
            contig.regions,
            census.total_pages(),
            analytic,
            contig.mean_run(),
        )
    });
    for (name, vmas, cover, regions, touched, analytic, run) in rows {
        t.row(vec![
            name.into(),
            vmas.to_string(),
            cover.to_string(),
            regions.to_string(),
            touched.to_string(),
            analytic.to_string(),
            format!("{run:.1}"),
        ]);
    }
    t
}

fn asap_sweep_table(r: &ScenarioResults, suite: &[WorkloadSpec], colocated: bool) -> Table {
    let title = if colocated {
        "Figure 8b: native walk latency under SMT colocation (cycles)"
    } else {
        "Figure 8a: native walk latency in isolation (cycles)"
    };
    let mut t = Table::new(
        title,
        vec![
            "workload",
            "Baseline",
            "P1",
            "P1+P2",
            "P1 red.",
            "P1+P2 red.",
        ],
    );
    let key = |base: &str| {
        if colocated {
            format!("{base}+coloc")
        } else {
            base.to_string()
        }
    };
    let mut acc = [0.0f64; 3];
    for w in suite {
        let base = r.get(w.name, &key("Baseline"));
        let p1 = r.get(w.name, &key("P1"));
        let p12 = r.get(w.name, &key("P1+P2"));
        t.row(vec![
            w.name.into(),
            fmt_cycles(base.avg_walk_latency()),
            fmt_cycles(p1.avg_walk_latency()),
            fmt_cycles(p12.avg_walk_latency()),
            fmt_pct(p1.reduction_vs(base)),
            fmt_pct(p12.reduction_vs(base)),
        ]);
        acc[0] += base.avg_walk_latency();
        acc[1] += p1.avg_walk_latency();
        acc[2] += p12.avg_walk_latency();
    }
    let n = suite.len() as f64;
    t.row(vec![
        "Average".into(),
        fmt_cycles(acc[0] / n),
        fmt_cycles(acc[1] / n),
        fmt_cycles(acc[2] / n),
        fmt_pct(1.0 - acc[1] / acc[0]),
        fmt_pct(1.0 - acc[2] / acc[0]),
    ]);
    t
}

fn render_served_by(r: &ScenarioResults) -> Table {
    let mut t = Table::new(
        "Figure 9: walk requests served by each level (baseline, native)",
        vec![
            "workload", "scenario", "PT level", "PWC", "L1", "L2", "LLC", "Mem",
        ],
    );
    for run in &r.runs {
        for level in [PtLevel::Pl4, PtLevel::Pl3, PtLevel::Pl2, PtLevel::Pl1] {
            let f = run.result.served.fractions(level);
            t.row(vec![
                run.workload.into(),
                run.variant.clone(),
                level.to_string(),
                fmt_pct(f[0]),
                fmt_pct(f[1]),
                fmt_pct(f[2]),
                fmt_pct(f[3]),
                fmt_pct(f[4]),
            ]);
        }
    }
    t
}

fn nested_sweep_table(r: &ScenarioResults, suite: &[WorkloadSpec], colocated: bool) -> Table {
    let title = if colocated {
        "Figure 10b: virtualized walk latency under SMT colocation (cycles)"
    } else {
        "Figure 10a: virtualized walk latency in isolation (cycles)"
    };
    let configs = ["Baseline", "P1g", "P1g+P2g", "P1g+P1h", "All"];
    let mut t = Table::new(
        title,
        vec![
            "workload", "Baseline", "P1g", "P1g+P2g", "P1g+P1h", "All", "All red.",
        ],
    );
    let key = |base: &str| {
        if colocated {
            format!("{base}+coloc")
        } else {
            base.to_string()
        }
    };
    let mut acc = [0.0f64; 5];
    for w in suite {
        let rs: Vec<&RunResult> = configs.iter().map(|c| r.get(w.name, &key(c))).collect();
        let mut cells = vec![w.name.to_string()];
        for (i, run) in rs.iter().enumerate() {
            cells.push(fmt_cycles(run.avg_walk_latency()));
            acc[i] += run.avg_walk_latency();
        }
        cells.push(fmt_pct(rs[4].reduction_vs(rs[0])));
        t.row(cells);
    }
    let n = suite.len() as f64;
    let mut cells = vec!["Average".to_string()];
    for a in acc {
        cells.push(fmt_cycles(a / n));
    }
    cells.push(fmt_pct(1.0 - acc[4] / acc[0]));
    t.row(cells);
    t
}

fn render_projection(r: &ScenarioResults, suite: &[WorkloadSpec]) -> Table {
    let mut t = Table::new(
        "Table 6: conservative projection of ASAP's performance improvement",
        vec![
            "workload",
            "walk cycles on critical path",
            "ASAP walk-latency reduction (virt)",
            "estimated speedup",
        ],
    );
    let mut est_sum = 0.0;
    for w in suite {
        let normal = r.get(w.name, "native");
        let perfect = r.get(w.name, "native-perfect");
        let fraction = 1.0 - perfect.cycles as f64 / normal.cycles as f64;
        let vbase = r.get(w.name, "virt");
        let vasap = r.get(w.name, "virt+asap");
        let reduction = vasap.reduction_vs(vbase);
        let est = fraction * reduction;
        est_sum += est;
        t.row(vec![
            w.name.into(),
            fmt_pct(fraction),
            fmt_pct(reduction),
            fmt_pct(est),
        ]);
    }
    t.row(vec![
        "Average".into(),
        String::new(),
        String::new(),
        fmt_pct(est_sum / suite.len() as f64),
    ]);
    t
}

fn render_clustered_synergy(r: &ScenarioResults, suite: &[WorkloadSpec]) -> Vec<Table> {
    let mut t7 = Table::new(
        "Table 7: TLB MPKI reduction with the clustered TLB",
        vec![
            "workload",
            "baseline MPKI",
            "clustered MPKI",
            "reduction",
            "paper",
        ],
    );
    let paper7 = ["58%", "48%", "10%", "16%", "4%", "9%", "12%"];
    let mut t11 = Table::new(
        "Figure 11: reduction in page-walk cycles (native isolation)",
        vec!["workload", "Clustered TLB", "ASAP", "Clustered + ASAP"],
    );
    let mut acc = [0.0f64; 3];
    for (w, paper) in suite.iter().zip(paper7) {
        let base = r.get(w.name, "Baseline");
        let clustered = r.get(w.name, "Clustered");
        let asap = r.get(w.name, "ASAP");
        let both = r.get(w.name, "Clustered+ASAP");
        // Clustered-TLB hits eliminate walks; MPKI here counts *walks
        // performed* per kilo-instruction so the coalescing effect shows.
        let base_mpki = base.walks.count() as f64 * 1000.0 / base.instructions as f64;
        let cl_mpki = clustered.walks.count() as f64 * 1000.0 / clustered.instructions as f64;
        t7.row(vec![
            w.name.into(),
            format!("{base_mpki:.2}"),
            format!("{cl_mpki:.2}"),
            fmt_pct(1.0 - cl_mpki / base_mpki),
            paper.into(),
        ]);
        let reductions = [
            clustered.walk_cycles_reduction_vs(base),
            asap.walk_cycles_reduction_vs(base),
            both.walk_cycles_reduction_vs(base),
        ];
        for (a, red) in acc.iter_mut().zip(reductions.iter()) {
            *a += red;
        }
        t11.row(vec![
            w.name.into(),
            fmt_pct(reductions[0]),
            fmt_pct(reductions[1]),
            fmt_pct(reductions[2]),
        ]);
    }
    let n = suite.len() as f64;
    t11.row(vec![
        "Average".into(),
        fmt_pct(acc[0] / n),
        fmt_pct(acc[1] / n),
        fmt_pct(acc[2] / n),
    ]);
    vec![t11, t7]
}

fn render_host_huge_pages(r: &ScenarioResults, suite: &[WorkloadSpec]) -> Table {
    let mut t = Table::new(
        "Figure 12: virtualized walk latency with 2 MiB host pages (cycles)",
        vec![
            "workload",
            "Baseline",
            "ASAP",
            "Baseline+coloc",
            "ASAP+coloc",
            "red. iso",
            "red. coloc",
        ],
    );
    let variants = ["Baseline", "ASAP", "Baseline+coloc", "ASAP+coloc"];
    let mut acc = [0.0f64; 4];
    for w in suite {
        let rs: Vec<&RunResult> = variants.iter().map(|v| r.get(w.name, v)).collect();
        t.row(vec![
            w.name.into(),
            fmt_cycles(rs[0].avg_walk_latency()),
            fmt_cycles(rs[1].avg_walk_latency()),
            fmt_cycles(rs[2].avg_walk_latency()),
            fmt_cycles(rs[3].avg_walk_latency()),
            fmt_pct(rs[1].reduction_vs(rs[0])),
            fmt_pct(rs[3].reduction_vs(rs[2])),
        ]);
        for (a, run) in acc.iter_mut().zip(rs.iter()) {
            *a += run.avg_walk_latency();
        }
    }
    let n = suite.len() as f64;
    t.row(vec![
        "Average".into(),
        fmt_cycles(acc[0] / n),
        fmt_cycles(acc[1] / n),
        fmt_cycles(acc[2] / n),
        fmt_cycles(acc[3] / n),
        fmt_pct(1.0 - acc[1] / acc[0]),
        fmt_pct(1.0 - acc[3] / acc[2]),
    ]);
    t
}

fn render_pwc_ablation(r: &ScenarioResults, suite: &[WorkloadSpec]) -> Table {
    let mut t = Table::new(
        "Ablation (§5.1.1): PWC capacity doubling (native isolation)",
        vec!["workload", "default PWC", "doubled PWC", "reduction"],
    );
    let (mut b, mut d) = (0.0f64, 0.0f64);
    for w in suite {
        let base = r.get(w.name, "default");
        let doubled = r.get(w.name, "doubled");
        t.row(vec![
            w.name.into(),
            fmt_cycles(base.avg_walk_latency()),
            fmt_cycles(doubled.avg_walk_latency()),
            fmt_pct(doubled.reduction_vs(base)),
        ]);
        b += base.avg_walk_latency();
        d += doubled.avg_walk_latency();
    }
    t.row(vec![
        "Average".into(),
        fmt_cycles(b / suite.len() as f64),
        fmt_cycles(d / suite.len() as f64),
        fmt_pct(1.0 - d / b),
    ]);
    t
}

fn render_scatter_ablation(r: &ScenarioResults) -> Table {
    let mut t = Table::new(
        "Ablation: baseline sensitivity to PT physical layout (mc80, native isolation)",
        vec!["PT scatter mean run (frames)", "avg walk latency (cycles)"],
    );
    for run in &r.runs {
        t.row(vec![
            run.variant
                .strip_prefix("run=")
                .unwrap_or(&run.variant)
                .to_string(),
            fmt_cycles(run.result.avg_walk_latency()),
        ]);
    }
    t
}

fn render_five_level(r: &ScenarioResults) -> Table {
    let mut t = Table::new(
        "Extension (§3.5): five-level page table (mc400, native isolation)",
        vec!["config", "avg walk latency (cycles)", "vs 4-level baseline"],
    );
    let base = r.runs.first().map_or(0.0, |r| r.result.avg_walk_latency());
    for run in &r.runs {
        t.row(vec![
            run.variant.clone(),
            fmt_cycles(run.result.avg_walk_latency()),
            fmt_ratio(run.result.avg_walk_latency() / base),
        ]);
    }
    t
}

/// The contender comparison: walk latency, walks performed, and total
/// execution cycles for baseline vs ASAP vs Victima vs Revelator. Victima
/// wins by *eliminating* walks (cache-resident TLB blocks), Revelator by
/// *overlapping* the data fetch with the walk — so neither shows up fully
/// in walk latency alone, and the cycles table is the decisive one.
fn render_head_to_head(r: &ScenarioResults) -> Vec<Table> {
    let backends = ["Baseline", "ASAP", "Victima", "Revelator"];
    let mut workloads: Vec<&str> = Vec::new();
    for run in &r.runs {
        if !workloads.contains(&run.workload) {
            workloads.push(run.workload);
        }
    }
    let mut lat = Table::new(
        "Head-to-head: average page-walk latency (cycles; walks in parentheses)",
        vec!["workload", "Baseline", "ASAP", "Victima", "Revelator"],
    );
    let mut cyc = Table::new(
        "Head-to-head: execution cycles (speedup vs baseline)",
        vec!["workload", "Baseline", "ASAP", "Victima", "Revelator"],
    );
    for w in &workloads {
        let runs: Vec<&RunResult> = backends.iter().map(|b| r.get(w, b)).collect();
        let mut lat_cells = vec![(*w).to_string()];
        let mut cyc_cells = vec![(*w).to_string()];
        for (i, run) in runs.iter().enumerate() {
            lat_cells.push(format!(
                "{} ({})",
                fmt_cycles(run.avg_walk_latency()),
                run.walks.count()
            ));
            if i == 0 {
                cyc_cells.push(run.cycles.to_string());
            } else {
                cyc_cells.push(format!(
                    "{} ({:.2}x)",
                    run.cycles,
                    runs[0].cycles as f64 / run.cycles as f64
                ));
            }
        }
        lat.row(lat_cells);
        cyc.row(cyc_cells);
    }
    vec![lat, cyc]
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_sim::scenarios::{find, run_scenarios};

    #[test]
    fn sim_config_honours_quick_flag() {
        assert!(sim_config(false).measure_accesses >= 20_000);
        assert_eq!(sim_config(true).measure_accesses, 20_000);
        assert_eq!(tier(true), "quick");
    }

    #[test]
    fn results_tier_follows_the_actual_windows() {
        let smoke: Vec<Scenario> = registry().into_iter().filter(|s| s.smoke).collect();
        let paper = paper_scenarios();
        let mixed: Vec<Scenario> = registry()
            .into_iter()
            .filter(|s| s.name == "smoke" || s.name == "fig3")
            .collect();
        assert_eq!(results_tier(&smoke, false), "smoke");
        assert_eq!(
            results_tier(&smoke, true),
            "smoke",
            "--quick can't change pinned windows"
        );
        assert_eq!(results_tier(&paper, false), "full");
        assert_eq!(results_tier(&paper, true), "quick");
        assert_eq!(results_tier(&mixed, false), "mixed");
    }

    #[test]
    fn experiment_names_cover_the_paper_and_exclude_ci_smoke() {
        let names = experiment_names();
        assert!(names.contains(&"fig3"));
        assert!(!names.contains(&"smoke"), "smoke is CI-only");
    }

    #[test]
    fn every_registry_entry_runs_and_renders() {
        // Micro windows: enough to drive every scenario builder AND every
        // renderer arm end-to-end, so a renderer/registry variant-key
        // mismatch fails here instead of at `asap all` runtime.
        let sim = SimConfig {
            warmup_accesses: 100,
            measure_accesses: 300,
            seed: 42,
            ..SimConfig::default()
        };
        let scenarios = registry();
        let all = run_scenarios(&scenarios, sim);
        for (scenario, results) in scenarios.iter().zip(&all) {
            assert!(results.is_complete(), "{} had errors", scenario.name);
            let tables = render(scenario, results);
            assert!(!tables.is_empty(), "{} rendered nothing", scenario.name);
            for t in &tables {
                assert!(!t.render().is_empty());
            }
        }
    }

    #[test]
    fn smoke_scenario_renders_a_table_per_run() {
        let scenario = find("smoke").unwrap();
        let results = scenario.run(SimConfig::smoke_test());
        let tables = render(&scenario, &results);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), results.runs.len());
    }

    #[test]
    fn execute_scenarios_honours_declared_windows() {
        // smoke declares miniature windows; table2 enumerates no runs. The
        // grouped execution must keep input order and use the declared
        // windows (the committed smoke numbers pin the window size).
        let set: Vec<Scenario> = registry()
            .into_iter()
            .filter(|s| s.name == "table2" || s.name == "smoke")
            .collect();
        let results = execute_scenarios(&set, SimConfig::default());
        assert_eq!(results[0].name, "table2");
        assert_eq!(results[1].name, "smoke");
        let direct = find("smoke").unwrap().run(SimConfig::smoke_test());
        for (a, b) in results[1].runs.iter().zip(direct.runs.iter()) {
            assert_eq!(a.variant, b.variant);
            assert_eq!(a.result.cycles, b.result.cycles);
        }
    }

    #[test]
    fn render_skips_incomplete_results_and_reports_their_errors() {
        use asap_sim::scenarios::{ScenarioResults, ScenarioRunError};
        use asap_sim::DriverError;
        let scenario = find("smoke").unwrap();
        let complete = ScenarioResults {
            name: "smoke",
            runs: Vec::new(),
            errors: Vec::new(),
        };
        // Complete-but-empty renders an (empty) matrix…
        assert_eq!(render(&scenario, &complete).len(), 1);
        // …but a scenario with driver errors renders nothing, and the
        // errors are countable for the CLI's non-zero exit.
        let failed = ScenarioResults {
            errors: vec![ScenarioRunError {
                workload: "mc80",
                variant: "native/baseline".into(),
                error: DriverError::incompatible_spec("test error"),
            }],
            ..complete
        };
        assert!(render(&scenario, &failed).is_empty());
        assert_eq!(report_errors([&failed]), 1);
    }
}
