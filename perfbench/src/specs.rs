//! The benchmark's workloads: each is a fixed list of [`RunSpec`]s run one
//! after another. Why each workload exists is in `perfbench/README.md`.

use asap_core::{AsapHwConfig, NestedAsapConfig};
use asap_sim::{EngineSelect, RunSpec, SimConfig};
use asap_workloads::WorkloadSpec;

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["native_1c", "coloc_smt", "virt_2d", "smp_64c"];

/// The specs of workload `name` at `seed`, or `None` for an unknown name.
pub fn specs(name: &str, seed: u64) -> Option<Vec<RunSpec>> {
    // A quarter of the registry's default windows (40k warmup + 160k
    // measured accesses): a spec then takes a tenth to half a second, so a
    // run times each spec 10-20 times and its medians settle. At full
    // windows a run held 4-5 samples per spec and the run-to-run spread of
    // `native_1c` was twice as large.
    let windows = SimConfig {
        warmup_accesses: 10_000,
        measure_accesses: 40_000,
        ..SimConfig::default().with_seed(seed)
    };
    let cross =
        |workloads: Vec<WorkloadSpec>, engines: &[EngineSelect], f: fn(RunSpec) -> RunSpec| {
            workloads
                .iter()
                .flat_map(|w| {
                    engines.iter().map(|e| {
                        f(RunSpec::new(w.clone())
                            .with_engine(e.clone())
                            .with_sim(windows))
                    })
                })
                .collect::<Vec<_>>()
        };
    let four = || {
        vec![
            WorkloadSpec::mcf(),
            WorkloadSpec::redis(),
            WorkloadSpec::mc80(),
            WorkloadSpec::bfs(),
        ]
    };
    let native = [
        EngineSelect::Baseline,
        EngineSelect::Asap(AsapHwConfig::p1_p2()),
    ];
    Some(match name {
        "native_1c" => cross(
            four(),
            &[
                EngineSelect::Baseline,
                EngineSelect::Asap(AsapHwConfig::p1_p2()),
                EngineSelect::Victima,
                EngineSelect::Revelator,
            ],
            |s| s,
        ),
        "coloc_smt" => cross(
            vec![WorkloadSpec::mcf(), WorkloadSpec::mc80()],
            &native,
            RunSpec::colocated,
        ),
        "virt_2d" => cross(
            four(),
            &[
                EngineSelect::Baseline,
                EngineSelect::NestedAsap(NestedAsapConfig::all()),
            ],
            RunSpec::virt,
        ),
        // Small per-core windows: 64 cores x 2.5k accesses keeps a spec
        // near half a second of host time.
        "smp_64c" => cross(
            vec![WorkloadSpec::mc80(), WorkloadSpec::redis()],
            &native,
            |s| {
                let sim = SimConfig {
                    warmup_accesses: 500,
                    measure_accesses: 2_000,
                    ..s.sim
                };
                s.with_cores(64).with_sim(sim)
            },
        ),
        _ => return None,
    })
}

/// Simulated application accesses one run of `spec` drives: warmup plus
/// measured window, on every core. The single-core co-runner's injected
/// lines are cache pressure, not application accesses, and do not count.
pub fn accesses(spec: &RunSpec) -> u64 {
    (spec.sim.warmup_accesses + spec.sim.measure_accesses) * spec.cores as u64
}
