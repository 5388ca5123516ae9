//! Simulator-throughput benchmark for the ASAP reproduction.
//!
//! ```text
//! asap-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload's specs one after another on one thread through the
//! public `RunSpec::run_split` entry point, checks every run, and prints
//! one JSON object as its last line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` drives the same specs through timing decorators
//! and reports per-layer metrics. `perfbench/README.md` explains the
//! workloads and metrics; `perfbench/run.py` builds and runs this binary.

#![forbid(unsafe_code)]

mod assemble;
mod host;
mod specs;
mod stats;
mod trace;

use asap_sim::{result_to_json, DriverError, RunOutput, RunResult, RunSpec, SIM_SEMVER};
use stats::{median, ratio};
use std::time::{Duration, Instant};
use trace::{Layer, Spans};

/// Fewest assembly repetitions behind `setup_s` (the median is reported).
const SETUP_REPS: usize = 7;
/// Host time spent repeating assembly for `setup_s`, at least.
const SETUP_SECONDS: f64 = 1.0;
/// Fewest timed runs of each spec in a throughput run.
const MIN_RUNS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One core's rows of a run: `run_split`'s per-core rows, or the single
/// row of a one-core run.
fn rows_of(out: RunOutput) -> Vec<RunResult> {
    if out.per_core.is_empty() {
        vec![out.aggregate]
    } else {
        out.per_core
    }
}

/// Per-operation correctness: an operation is one spec run. It fails on a
/// driver error, a nonzero fault count, or rows that differ from the
/// spec's first successful run.
struct Checker {
    reference: Vec<Option<(Vec<String>, Vec<RunResult>)>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(specs: usize) -> Self {
        Self {
            reference: vec![None; specs],
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one operation of spec `i`; true when it succeeded.
    fn check(
        &mut self,
        i: usize,
        spec: &RunSpec,
        out: Result<Vec<RunResult>, DriverError>,
    ) -> bool {
        self.attempted += 1;
        let problem = match out {
            Err(e) => Some(format!("driver error: {e}")),
            Ok(rows) => {
                let json: Vec<String> = rows.iter().map(result_to_json).collect();
                let faults: u64 = rows.iter().map(|r| r.faults).sum();
                match &self.reference[i] {
                    _ if faults != 0 => Some(format!("{faults} walk faults")),
                    Some((expected, _)) if *expected != json => {
                        Some("rows differ from this spec's earlier run".into())
                    }
                    Some(_) => None,
                    None => {
                        self.reference[i] = Some((json, rows));
                        None
                    }
                }
            }
        };
        if let Some(p) = &problem {
            self.failed += 1;
            eprintln!(
                "FAILED {} {} seed {}: {p}",
                spec.workload.name,
                spec.label(),
                spec.sim.seed
            );
        }
        problem.is_none()
    }

    fn rows(&self, i: usize) -> Option<&(Vec<String>, Vec<RunResult>)> {
        self.reference[i].as_ref()
    }

    /// FNV-1a over every spec's rows, in spec order.
    fn digest(&self) -> u64 {
        self.reference
            .iter()
            .flatten()
            .flat_map(|(json, _)| json)
            .fold(stats::FNV_OFFSET, |h, row| {
                stats::fnv1a(row.as_bytes(), h) ^ 0x0a
            })
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median, over repeated assemblies, of the time to assemble every spec's
/// machine: at least `SETUP_REPS` repetitions, and more until
/// `SETUP_SECONDS` have passed.
fn measure_setup(specs: &[RunSpec]) -> f64 {
    let started = Instant::now();
    let mut totals = Vec::new();
    while totals.len() < SETUP_REPS || secs(started.elapsed()) < SETUP_SECONDS {
        let mut t = assemble::SetupTimes::default();
        for spec in specs {
            drop(assemble::assemble(spec, &mut t));
        }
        totals.push(secs(t.total()));
    }
    median(&mut totals)
}

/// The untraced run: end-to-end metrics.
fn run_untraced(args: &Args, specs: &[RunSpec], checker: &mut Checker) -> Vec<Metric> {
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut peak_rss = 0.0;
    let started = Instant::now();
    // Round-robin over the specs until time is up, stopping after any spec
    // once each has run `MIN_RUNS` times, so a run overshoots `--seconds`
    // by at most one spec.
    'passes: for pass in 0.. {
        if pass == 1 {
            // Peak memory of one run of every spec. Read here, where the
            // allocation sequence is fixed by the seed: later passes and
            // the time-bounded set-up repetitions only add allocator
            // fragmentation, which varies with how many of them fit.
            peak_rss = host::peak_rss_mib().unwrap_or(0.0);
        }
        for (i, spec) in specs.iter().enumerate() {
            if pass >= MIN_RUNS && secs(started.elapsed()) >= args.seconds {
                break 'passes;
            }
            let t0 = Instant::now();
            let out = spec.run_split().map(rows_of);
            let dt = secs(t0.elapsed());
            if checker.check(i, spec, out) {
                times[i].push(dt);
            }
        }
    }
    for (spec, t) in specs.iter().zip(&mut times) {
        let med = median(t); // sorts `t`
        if let (Some(lo), Some(hi)) = (t.first(), t.last()) {
            println!(
                "spec {} {}: {} runs, median {:.1} ms, min {:.1} ms, max {:.1} ms",
                spec.workload.name,
                spec.label(),
                t.len(),
                med * 1e3,
                lo * 1e3,
                hi * 1e3
            );
        }
    }
    // Median host time per spec; the workload's rate is its accesses over
    // the sum of those medians.
    let (accesses, host_s) = specs
        .iter()
        .zip(&mut times)
        .filter(|(_, t)| !t.is_empty())
        .fold((0u64, 0.0), |(a, s), (spec, t)| {
            (a + specs::accesses(spec), s + median(t))
        });
    println!(
        "throughput: {} spec runs over {} specs in {:.2} s",
        checker.attempted,
        specs.len(),
        secs(started.elapsed())
    );
    let setup_s = measure_setup(specs);
    // Host drift diagnostics, taken after the peak-RSS reading so the
    // chase buffer does not count as the simulator's memory.
    let mut probe = host::HostProbe::default();
    probe.sample(&host::Chase::new(args.seed), 3);
    let (spin, chase) = probe.medians();
    println!("host spin_ns {spin:.4} chase_ns {chase:.3}");
    vec![
        metric("accesses_per_s", ratio(accesses as f64, host_s), "1/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mib", peak_rss, "MiB"),
    ]
}

/// The traced run: per-layer metrics.
fn run_traced(args: &Args, specs: &[RunSpec], checker: &mut Checker) -> Vec<Metric> {
    let chase = host::Chase::new(args.seed);
    let mut probe = host::HostProbe::default();
    probe.sample(&chase, 3);
    let clock_ns = trace::clock_overhead_ns();
    let spans = Spans::new(args.seed);
    let mut setups: [Vec<f64>; 4] = Default::default();
    let (mut untraced_wall, mut traced_wall, mut drive_wall) = (0.0, 0.0, 0.0);
    let mut accesses = 0u64;
    let started = Instant::now();
    let mut passes = 0;
    // Like the untraced loop, but one full pass is the least: every layer
    // metric then covers every spec. Set-up medians use full passes only.
    'passes: loop {
        let mut setup = assemble::SetupTimes::default();
        for (i, spec) in specs.iter().enumerate() {
            if passes >= 1 && secs(started.elapsed()) >= args.seconds {
                break 'passes;
            }
            let t0 = Instant::now();
            let out = spec.run_split().map(rows_of);
            untraced_wall += secs(t0.elapsed());
            if !checker.check(i, spec, out) {
                continue;
            }
            let t1 = Instant::now();
            let machine = assemble::assemble(spec, &mut setup);
            let t2 = Instant::now();
            let traced = assemble::drive_traced(spec, machine, &spans);
            drive_wall += secs(t2.elapsed());
            traced_wall += secs(t1.elapsed());
            accesses += specs::accesses(spec);
            checker.attempted += 1;
            let expected = &checker.rows(i).expect("checked above").0;
            let same = traced
                .as_ref()
                .is_ok_and(|rows| rows.iter().map(result_to_json).eq(expected.iter().cloned()));
            if !same {
                checker.failed += 1;
                eprintln!(
                    "TRACED RUN DIVERGED {} {} seed {}: the decorated run's rows differ \
                     from run_split's ({:?})",
                    spec.workload.name,
                    spec.label(),
                    spec.sim.seed,
                    traced.err()
                );
            }
        }
        for (v, d) in setups
            .iter_mut()
            .zip([setup.process, setup.vm, setup.stream, setup.engine])
        {
            v.push(secs(d));
        }
        passes += 1;
    }
    probe.sample(&chase, 3);
    let (spin, chase_ns) = probe.medians();

    let totals = spans.totals();
    let drive_ns = drive_wall * 1e9;
    let children_ns: f64 = totals.iter().map(|t| t.est_ns(clock_ns)).sum();
    // The residual is signed: timing a call perturbs it (a clock read can
    // serialise overlapping cache misses), so the sampled spans can add up
    // to more than the untimed calls took.
    let self_ns = drive_ns - children_ns;
    println!(
        "trace: {passes} passes, clock read {clock_ns:.1} ns, 1 access in {} timed",
        trace::SAMPLE_EVERY
    );
    println!(
        "{:<28} {:>12} {:>10} {:>8}",
        "layer", "calls", "ns/call", "share"
    );
    let mut metrics = Vec::new();
    for (layer, t) in Layer::ALL.iter().zip(&totals) {
        let share = ratio(t.est_ns(clock_ns), drive_ns);
        println!(
            "{:<28} {:>12} {:>10.1} {:>8.4}",
            layer.stem(),
            t.calls,
            t.ns_per_call(clock_ns),
            share
        );
        metrics.push(metric(
            format!("{}_ns", layer.stem()),
            t.ns_per_call(clock_ns),
            "ns",
        ));
        metrics.push(metric(format!("{}.share", layer.stem()), share, "ratio"));
    }
    println!(
        "layer sum {:.1} ms of {:.1} ms traced drive wall; residual (sim.driver_self) {:.1} ms = {:.4}",
        children_ns / 1e6,
        drive_ns / 1e6,
        self_ns / 1e6,
        ratio(self_ns, drive_ns)
    );
    metrics.push(metric(
        "sim.driver_self_ns",
        ratio(self_ns, accesses as f64),
        "ns",
    ));
    metrics.push(metric(
        "sim.driver_self.share",
        ratio(self_ns, drive_ns),
        "ratio",
    ));
    metrics.push(metric(
        "trace.layer_sum_share",
        ratio(children_ns, drive_ns),
        "ratio",
    ));
    for (name, v) in [
        "os.process_new_s",
        "virt.vm_new_s",
        "workloads.build_stream_s",
        "core.engine_new_s",
    ]
    .into_iter()
    .zip(&mut setups)
    {
        metrics.push(metric(name, median(v), "s"));
    }

    let rows: Vec<&RunResult> = (0..specs.len())
        .filter_map(|i| checker.rows(i))
        .flat_map(|(_, rows)| rows)
        .collect();
    let sum = |f: &dyn Fn(&RunResult) -> u64| rows.iter().map(|r| f(r)).sum::<u64>() as f64;
    let walks = sum(&|r| r.walks.count());
    let issued = sum(&|r| r.prefetches_issued);
    let measured = sum(&|r| r.instructions) / asap_sim::INSTRUCTIONS_PER_ACCESS as f64;
    metrics.extend([
        metric(
            "tlb.l2_miss_ratio",
            ratio(sum(&|r| r.l2_tlb_misses), sum(&|r| r.l2_tlb_accesses)),
            "ratio",
        ),
        metric(
            "core.walks_per_access",
            ratio(walks, measured),
            "walks/access",
        ),
        metric(
            "core.prefetch_drop_ratio",
            ratio(sum(&|r| r.prefetches_dropped), issued),
            "ratio",
        ),
        metric(
            "core.prefetches_per_walk",
            ratio(issued, walks),
            "prefetches/walk",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(traced_wall, untraced_wall),
            "ratio",
        ),
        metric("host.spin_ns", spin, "ns"),
        metric("host.chase_ns", chase_ns, "ns"),
    ]);
    metrics
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asap-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(specs) = specs::specs(&args.workload, args.seed) else {
        eprintln!(
            "asap-perfbench: unknown workload {:?} (known: {})",
            args.workload,
            specs::WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    let mut checker = Checker::new(specs.len());
    let metrics = if args.trace {
        run_traced(&args, &specs, &mut checker)
    } else {
        run_untraced(&args, &specs, &mut checker)
    };
    println!(
        "rows workload={} seed={} sim_semver={} specs={} digest={:016x}",
        args.workload,
        args.seed,
        SIM_SEMVER,
        specs.len(),
        checker.digest()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        body.join(", ")
    );
}
