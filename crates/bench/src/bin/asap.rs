//! `asap` — the ONE experiment CLI for the reproduction.
//!
//! Replaces the old per-figure binaries: every experiment is a scenario in
//! the registry, rendered by its metadata-selected renderer.
//!
//! ```text
//! asap list                    # what's in the registry
//! asap run fig3 fig8           # run named scenarios, print their tables
//! asap smoke                   # CI smoke set -> committed BENCH_results.json
//! asap all                     # every paper scenario -> BENCH_results_full.json
//!
//! options:
//!   --json <path>              # override the results JSON path
//!   --quick                    # reduced windows (tier "quick"; ASAP_QUICK=1 also works)
//!   --filter <substr>          # keep only scenarios whose name contains <substr>
//!   --cores <n>                # run every spec at n cores (run command only)
//!   --numa <n>                 # run every spec across n NUMA nodes (run command only)
//! ```
//!
//! Exit status: 0 on success, 1 when any run reported a driver error (the
//! errors are printed to stderr — a failed run in a fan-out never hides
//! behind a green exit), 2 on usage errors.

use asap_bench::{
    execute_scenarios, paper_scenarios, render, report_errors, results_tier, sim_config,
    write_results_json,
};
use asap_core::NestedAsapConfig;
use asap_sim::scenarios::{find, registry, smoke_set, Scenario, ScenarioResults};
use asap_sim::{EngineSelect, RunSpec, SimConfig, Table, TelemetryConfig};
use asap_telemetry::{chrome, ChromeEvent, PhaseProfile};
use asap_workloads::WorkloadSpec;
use std::process::ExitCode;

const USAGE: &str = "\
asap — drive the ASAP-reproduction experiment registry

USAGE:
    asap <COMMAND> [OPTIONS]

COMMANDS:
    list                 list registered scenarios
    run <scenario>...    run the named scenarios and print their tables
    smoke                run the CI smoke set and write BENCH_results.json
    all                  run every paper scenario and write BENCH_results_full.json
    trace-check <path>   validate a --trace file: parse + byte-identical re-emit
    metrics-manifest [path]
                         regenerate the committed metric-name manifest
                         (default METRICS.json) from live runs of every
                         backend; --check verifies instead of writing

OPTIONS:
    --json <path>        override the results JSON path
                         (run: none unless given; smoke: BENCH_results.json;
                          all: BENCH_results_full.json)
    --quick              reduced simulation windows (tier \"quick\")
    --filter <substr>    keep only scenarios whose name contains <substr>
    --cores <n>          force every spec of a `run` command to n cores
                         sharing the memory fabric (1..=64; smoke/all keep
                         their registered core counts so committed
                         baselines stay comparable)
    --numa <n>           force every spec of a `run` command across n NUMA
                         nodes (1..=8, native multi-core runs only;
                         smoke/all keep their registered topology)
    --trace <path>       record per-access events and write a Chrome
                         trace-event JSON (open at ui.perfetto.dev; `run`
                         only — the committed smoke baseline must stay
                         telemetry-free)
    --metrics <path>     write a metrics snapshot covering every run's
                         engine/hierarchy/NUMA counters (`run` only)
    --profile            print the simulator self-profile phase table
                         (`run` only)
    --check              with metrics-manifest: fail (exit 1) if the
                         committed manifest differs from a regeneration
                         instead of rewriting it
    -h, --help           print this help
";

struct Cli {
    command: String,
    names: Vec<String>,
    json: Option<String>,
    quick: bool,
    filter: Option<String>,
    cores: Option<usize>,
    numa: Option<usize>,
    trace: Option<String>,
    metrics: Option<String>,
    profile: bool,
    check: bool,
}

impl Cli {
    fn telemetry(&self) -> TelemetryConfig {
        TelemetryConfig {
            trace: self.trace.is_some(),
            metrics: self.metrics.is_some(),
            profile: self.profile,
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("asap: {message}\n\n{USAGE}");
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::new(),
        names: Vec::new(),
        json: None,
        quick: false,
        filter: None,
        cores: None,
        numa: None,
        trace: None,
        metrics: None,
        profile: false,
        check: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                cli.json = Some(
                    it.next()
                        .ok_or_else(|| "--json needs a path".to_string())?
                        .clone(),
                );
            }
            "--quick" => cli.quick = true,
            "--cores" => {
                let n = it
                    .next()
                    .ok_or_else(|| "--cores needs a count".to_string())?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--cores needs a number, got {n:?}"))?;
                if n == 0 || n > asap_sim::MAX_CORES {
                    return Err(format!(
                        "--cores must be 1..={}, got {n}",
                        asap_sim::MAX_CORES
                    ));
                }
                cli.cores = Some(n);
            }
            "--numa" => {
                let n = it
                    .next()
                    .ok_or_else(|| "--numa needs a count".to_string())?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--numa needs a number, got {n:?}"))?;
                if n == 0 || n > asap_sim::MAX_NUMA_NODES {
                    return Err(format!(
                        "--numa must be 1..={}, got {n}",
                        asap_sim::MAX_NUMA_NODES
                    ));
                }
                cli.numa = Some(n);
            }
            "--trace" => {
                cli.trace = Some(
                    it.next()
                        .ok_or_else(|| "--trace needs a path".to_string())?
                        .clone(),
                );
            }
            "--metrics" => {
                cli.metrics = Some(
                    it.next()
                        .ok_or_else(|| "--metrics needs a path".to_string())?
                        .clone(),
                );
            }
            "--profile" => cli.profile = true,
            "--check" => cli.check = true,
            "--filter" => {
                cli.filter = Some(
                    it.next()
                        .ok_or_else(|| "--filter needs a substring".to_string())?
                        .clone(),
                );
            }
            "-h" | "--help" | "help" => {
                cli.command = "help".into();
                return Ok(cli);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option {flag}"));
            }
            positional => {
                if cli.command.is_empty() {
                    cli.command = positional.into();
                } else {
                    cli.names.push(positional.into());
                }
            }
        }
    }
    if cli.command.is_empty() {
        return Err("a command is required".into());
    }
    Ok(cli)
}

fn apply_filter(set: Vec<Scenario>, filter: Option<&str>) -> Vec<Scenario> {
    match filter {
        Some(f) => set.into_iter().filter(|s| s.name.contains(f)).collect(),
        None => set,
    }
}

/// Summarizes a scenario's run axes as `cores × numa-nodes × engines`
/// (e.g. `1c 1n 5e`, or `1-8c` when a sweep spans several core counts).
fn axis_summary(runs: &[asap_sim::scenarios::ScenarioRun]) -> String {
    if runs.is_empty() {
        return "analytic".into();
    }
    let span = |values: Vec<usize>| {
        let lo = values.iter().copied().min().unwrap_or(1);
        let hi = values.iter().copied().max().unwrap_or(1);
        if lo == hi {
            hi.to_string()
        } else {
            format!("{lo}-{hi}")
        }
    };
    let cores = span(runs.iter().map(|r| r.spec.cores).collect());
    let numa = span(runs.iter().map(|r| r.spec.numa_nodes).collect());
    let mut engines: Vec<String> = Vec::new();
    for r in runs {
        let e = format!("{:?}", r.spec.engine);
        if !engines.contains(&e) {
            engines.push(e);
        }
    }
    format!("{cores}c {numa}n {}e", engines.len())
}

fn cmd_list(cli: &Cli) -> ExitCode {
    let set = apply_filter(registry(), cli.filter.as_deref());
    if set.is_empty() {
        eprintln!("asap: no scenario matches the filter");
        return ExitCode::from(1);
    }
    for s in &set {
        let runs = s.runs(s.windows_or(sim_config(cli.quick)));
        let tag = if s.smoke { "smoke" } else { "     " };
        println!(
            "{:<18} {:>3} runs  [{:>9}]  {}  {}",
            s.name,
            runs.len(),
            axis_summary(&runs),
            tag,
            s.title
        );
    }
    ExitCode::SUCCESS
}

/// Flattens every traced run into Chrome trace events: one process per
/// run (named `scenario/workload/variant`), tid 0 the scheduler
/// arbitration track, tid `core + 1` each simulated core's timeline.
fn chrome_events(results: &[ScenarioResults]) -> Vec<ChromeEvent> {
    let mut out = Vec::new();
    let mut pid = 0u32;
    for res in results {
        for run in &res.runs {
            let Some(t) = &run.telemetry else { continue };
            if t.cores.is_empty() && t.sched.is_empty() {
                continue;
            }
            pid += 1;
            out.push(ChromeEvent::process_name(
                pid,
                &format!("{}/{}/{}", res.name, run.workload, run.variant),
            ));
            if !t.sched.is_empty() {
                out.push(ChromeEvent::thread_name(pid, 0, "scheduler"));
                for e in &t.sched {
                    out.push(ChromeEvent::from_trace(pid, 0, e));
                }
            }
            for core in &t.cores {
                let tid = core.core + 1;
                out.push(ChromeEvent::thread_name(pid, tid, &core.label));
                if core.dropped > 0 {
                    eprintln!(
                        "trace: {}/{}/{} core {} dropped {} events (ring full)",
                        res.name, run.workload, run.variant, core.core, core.dropped
                    );
                }
                for e in &core.events {
                    out.push(ChromeEvent::from_trace(pid, tid, e));
                }
            }
        }
    }
    out
}

/// Renders every collected metrics snapshot as one JSON document:
/// `{"runs": [{"scenario", "workload", "variant", "metrics": [...]}]}`.
fn metrics_json(results: &[ScenarioResults]) -> String {
    use asap_telemetry::metrics::escape;
    use std::fmt::Write as _;
    let mut entries = Vec::new();
    for res in results {
        for run in &res.runs {
            let Some(t) = &run.telemetry else { continue };
            if t.metrics.is_empty() {
                continue;
            }
            let mut s = String::new();
            let _ = write!(
                s,
                "    {{\"scenario\": \"{}\", \"workload\": \"{}\", \"variant\": \"{}\", \
                 \"metrics\": {}}}",
                escape(res.name),
                escape(run.workload),
                escape(&run.variant),
                t.metrics.to_json(4)
            );
            entries.push(s);
        }
    }
    format!("{{\n  \"runs\": [\n{}\n  ]\n}}\n", entries.join(",\n"))
}

/// The `--profile` phase table: wall-clock split per run plus a totals
/// row, with the measure-window simulation rate (accesses/s).
fn profile_table(results: &[ScenarioResults]) -> Table {
    let ms = |d: std::time::Duration| format!("{:.1}ms", d.as_secs_f64() * 1e3);
    let mut t = Table::new(
        "Simulator self-profile (wall clock per phase)",
        vec!["run", "setup", "warmup", "measure", "flush", "accesses/s"],
    );
    let mut total = PhaseProfile::default();
    for res in results {
        for run in &res.runs {
            let Some(p) = run.telemetry.as_ref().and_then(|t| t.profile) else {
                continue;
            };
            total.merge(&p);
            t.row(vec![
                format!("{}/{}/{}", res.name, run.workload, run.variant),
                ms(p.setup),
                ms(p.warmup),
                ms(p.measure),
                ms(p.flush),
                format!("{:.0}", p.accesses_per_sec()),
            ]);
        }
    }
    t.row(vec![
        "TOTAL".into(),
        ms(total.setup),
        ms(total.warmup),
        ms(total.measure),
        ms(total.flush),
        format!("{:.0}", total.accesses_per_sec()),
    ]);
    t
}

/// Writes the telemetry artifacts the CLI flags asked for. Only `run`
/// accepts the flags, so this is a no-op for `smoke`/`all`.
fn emit_telemetry(cli: &Cli, results: &[ScenarioResults]) -> Result<(), String> {
    if let Some(path) = cli.trace.as_deref() {
        let json = chrome::to_json(&chrome_events(results));
        std::fs::write(path, &json).map_err(|e| format!("failed to write {path}: {e}"))?;
        eprintln!("wrote {path} (open at ui.perfetto.dev)");
    }
    if let Some(path) = cli.metrics.as_deref() {
        std::fs::write(path, metrics_json(results))
            .map_err(|e| format!("failed to write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if cli.profile {
        println!("{}", profile_table(results).render());
    }
    Ok(())
}

/// Runs a scenario set, prints every rendered table, reports errors, and
/// optionally writes the results JSON. The shared tail of `run`, `smoke`
/// and `all`. The JSON tier follows the windows the set actually ran at
/// ([`results_tier`]), and nothing is written when any run failed — a
/// partial document must never overwrite a results baseline.
fn execute_and_report(set: &[Scenario], cli: &Cli, default_json: Option<&str>) -> ExitCode {
    if set.is_empty() {
        eprintln!("asap: no scenario matches the filter");
        return ExitCode::from(2);
    }
    #[expect(clippy::disallowed_methods, reason = "command wall time")]
    let start = std::time::Instant::now();
    let results = execute_scenarios(set, sim_config(cli.quick));
    for (scenario, result) in set.iter().zip(&results) {
        for t in render(scenario, result) {
            println!("{}", t.render());
        }
    }
    let mut failures = report_errors(results.iter());
    for r in &results {
        for run in &r.runs {
            if run.result.faults > 0 {
                eprintln!(
                    "{}/{}/{}: {} translation faults",
                    r.name, run.workload, run.variant, run.result.faults
                );
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} run(s) failed; results JSON not written");
        return ExitCode::from(1);
    }
    if let Err(message) = emit_telemetry(cli, &results) {
        eprintln!("{message}");
        return ExitCode::from(1);
    }
    if let Some(path) = cli.json.as_deref().or(default_json) {
        match write_results_json(path, &results, results_tier(set, cli.quick)) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    eprintln!("wall time: {:?}", start.elapsed());
    ExitCode::SUCCESS
}

fn cmd_run(cli: &Cli) -> ExitCode {
    if cli.names.is_empty() {
        return usage_error("`run` needs at least one scenario name");
    }
    let mut set = Vec::new();
    for name in &cli.names {
        match find(name) {
            Some(s) => set.push(s),
            None => {
                eprintln!("asap: unknown scenario {name:?}; try `asap list`");
                return ExitCode::from(2);
            }
        }
    }
    let mut set = apply_filter(set, cli.filter.as_deref());
    if let Some(n) = cli.cores {
        set = set.into_iter().map(|s| s.with_forced_cores(n)).collect();
    }
    if let Some(n) = cli.numa {
        set = set.into_iter().map(|s| s.with_forced_numa(n)).collect();
    }
    let telemetry = cli.telemetry();
    if telemetry.any() {
        set = set
            .into_iter()
            .map(|s| s.with_telemetry(telemetry))
            .collect();
    }
    execute_and_report(&set, cli, None)
}

/// `asap trace-check <path>`: the CI round-trip gate. A valid trace file
/// parses under the canonical Chrome-trace grammar and re-emits
/// byte-identically.
fn cmd_trace_check(cli: &Cli) -> ExitCode {
    let [path] = cli.names.as_slice() else {
        return usage_error("`trace-check` needs exactly one path");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("asap: failed to read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let events = match chrome::parse(&text) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("asap: {path} is not canonical Chrome trace JSON: {e}");
            return ExitCode::from(1);
        }
    };
    if chrome::to_json(&events) != text {
        eprintln!("asap: {path} parsed but did not re-emit byte-identically");
        return ExitCode::from(1);
    }
    println!(
        "{path}: {} events, round-trips byte-identically",
        events.len()
    );
    ExitCode::SUCCESS
}

fn cmd_smoke(cli: &Cli) -> ExitCode {
    // The smoke scenarios pin their own miniature windows, so the emitted
    // file is byte-stable across hosts (and across `--quick`): `ci.sh`
    // regenerates it and fails on a git diff — that diff IS the
    // behaviour/perf-trajectory check. A filtered subset must never
    // overwrite the committed full-set baseline, so `--filter` drops the
    // default path (pass `--json` explicitly to keep a partial file).
    if cli.cores.is_some() || cli.numa.is_some() {
        return usage_error(
            "--cores/--numa apply to `run` only (smoke baselines pin their topology)",
        );
    }
    if cli.telemetry().any() {
        return usage_error(
            "--trace/--metrics/--profile apply to `run` only (the committed smoke \
             baseline is produced with telemetry off)",
        );
    }
    let set = apply_filter(smoke_set(), cli.filter.as_deref());
    let default_json = if cli.filter.is_none() {
        Some("BENCH_results.json")
    } else {
        None
    };
    execute_and_report(&set, cli, default_json)
}

fn cmd_all(cli: &Cli) -> ExitCode {
    if cli.cores.is_some() || cli.numa.is_some() {
        return usage_error(
            "--cores/--numa apply to `run` only (paper scenarios pin their topology)",
        );
    }
    if cli.telemetry().any() {
        return usage_error("--trace/--metrics/--profile apply to `run` only");
    }
    println!("# ASAP reproduction: all experiments\n");
    let set = apply_filter(paper_scenarios(), cli.filter.as_deref());
    // The default path deliberately differs from the committed smoke-tier
    // BENCH_results.json: the two tiers use different windows and must
    // never overwrite each other. A filtered subset keeps the default
    // (the full-tier file is git-ignored scratch, not a CI baseline).
    execute_and_report(&set, cli, Some("BENCH_results_full.json"))
}

/// The covering spec matrix for the metric-name manifest: every backend
/// and machine shape that composes a distinct metric namespace. Windows
/// are tiny — metric *names* do not depend on how long the run was, only
/// on which collectors the machine assembly wires up.
fn manifest_specs() -> Vec<RunSpec> {
    let metrics_on = TelemetryConfig {
        trace: false,
        metrics: true,
        profile: false,
    };
    let spec = |engine| {
        RunSpec::new(WorkloadSpec::mcf())
            .with_engine(engine)
            .with_sim(SimConfig::smoke_test())
            .with_telemetry(metrics_on)
    };
    vec![
        // Native baseline: the core engine/walk/TLB/hierarchy namespaces.
        spec(EngineSelect::Baseline),
        // Native ASAP: adds the served-by-prefetch-depth breakdown.
        spec(EngineSelect::asap_p1_p2()),
        // Five-level paging: extends that breakdown to `served_pl5_*`.
        spec(EngineSelect::asap_p1_p2()).five_level(),
        // Virtualized 2D walks: the `host_*` namespace.
        spec(EngineSelect::NestedAsap(NestedAsapConfig::all())).virt(),
        // Contenders: `victima_*` / `revelator_*`.
        spec(EngineSelect::Victima),
        spec(EngineSelect::Revelator),
        // Multi-core over two NUMA nodes: `core{i}_*` and `numa_*`.
        spec(EngineSelect::Baseline)
            .with_cores(2)
            .with_numa_nodes(2),
    ]
}

/// `asap metrics-manifest [path] [--check]`: regenerate (or verify) the
/// committed manifest of every metric name the backends can emit.
/// `ci.sh` runs the `--check` form, so a metric added to or renamed in
/// any `Collect` impl that [`manifest_specs`] reaches fails CI until the
/// regenerated manifest is committed.
fn cmd_metrics_manifest(cli: &Cli) -> ExitCode {
    let path = match cli.names.as_slice() {
        [] => "METRICS.json",
        [path] => path.as_str(),
        _ => return usage_error("`metrics-manifest` takes at most one path"),
    };
    let mut names: Vec<String> = Vec::new();
    for spec in manifest_specs() {
        let output = match spec.run_split() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("asap: manifest spec {} failed: {e}", spec.label());
                return ExitCode::from(1);
            }
        };
        let Some(telemetry) = output.telemetry else {
            eprintln!("asap: manifest spec {} produced no telemetry", spec.label());
            return ExitCode::from(1);
        };
        names.extend(telemetry.metrics.iter().map(|m| m.name.clone()));
    }
    names.sort();
    names.dedup();
    let mut rendered = String::from("[\n");
    for (i, name) in names.iter().enumerate() {
        rendered.push_str("  \"");
        rendered.push_str(name);
        rendered.push('"');
        if i + 1 != names.len() {
            rendered.push(',');
        }
        rendered.push('\n');
    }
    rendered.push_str("]\n");
    if cli.check {
        match std::fs::read_to_string(path) {
            Ok(committed) if committed == rendered => {
                println!("{path}: {} metric names, matches live runs", names.len());
                ExitCode::SUCCESS
            }
            Ok(_) => {
                eprintln!(
                    "asap: {path} differs from a live regeneration — \
                     run `asap metrics-manifest` and commit the result"
                );
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("asap: failed to read {path}: {e}");
                ExitCode::from(1)
            }
        }
    } else {
        match std::fs::write(path, &rendered) {
            Ok(()) => {
                eprintln!("wrote {path} ({} metric names)", names.len());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("asap: failed to write {path}: {e}");
                ExitCode::from(1)
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(message) => return usage_error(&message),
    };
    match cli.command.as_str() {
        "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        "list" => cmd_list(&cli),
        "run" => cmd_run(&cli),
        "smoke" => cmd_smoke(&cli),
        "all" => cmd_all(&cli),
        "trace-check" => cmd_trace_check(&cli),
        "metrics-manifest" => cmd_metrics_manifest(&cli),
        other => usage_error(&format!("unknown command {other:?}")),
    }
}
