//! Native machine assembly: builds `spec.cores` per-core engines —
//! Baseline, ASAP, Victima or Revelator — over ONE shared cache hierarchy
//! (one [`SharedFabric`] handle per core) for a unified [`RunSpec`] whose
//! machine axis is native, and hands them to the cycle-interleaved driver
//! through [`drive`], which the virtualized assembly shares. Reached only
//! through [`RunSpec::run_split`]'s internal dispatch.
//!
//! One core is the classic paper machine: core 0 keeps the run seed and
//! ASID 1, its row carries the plain workload name, and a colocated spec
//! gets the legacy SMT line-injection shim (see [`CoreSlot::corunner`]).
//! On N cores, cores 1..N run workload copies (isolation — the
//! homogeneous-scaling question) or, when the spec is colocated, the
//! [`WorkloadSpec::corunner`] preset as a *real* core: the neighbor takes
//! its own TLB misses and walks on the shared hierarchy.
//!
//! Every core gets its own process (distinct ASID, hence a disjoint
//! physical window — see `asap_os::PhysMap`), its own derived seed, and
//! the same engine configuration; only the fabric is shared.
//!
//! When the spec's `numa_nodes` axis exceeds one, this module also lays
//! the NUMA topology: cores go to nodes round-robin by index, and every
//! process window registers a DRAM home node round-robin in core-major
//! order, so each core ends up with a deterministic mix of local and
//! remote windows. The engines stay topology-oblivious — each one simply
//! receives a [`SharedFabric::for_node`] handle stamped with its core's
//! node.

use crate::driver::{run_cores_observed, CoreSlot, DriverError, RunMeta};
use crate::observe::RunObserver;
use crate::{EngineSelect, RunOutput, RunResult, RunSpec};
use asap_cache::{HierarchyConfig, NumaConfig, SharedFabric};
use asap_contenders::{RevelatorConfig, RevelatorMmu, VictimaConfig, VictimaMmu};
use asap_core::{AsapHwConfig, Mmu, MmuConfig, TranslationEngine};
use asap_os::{AsapOsConfig, PhysMap, Process};
use asap_types::{Asid, CacheLineAddr, PtLevel};
use asap_workloads::{BoxedStream, WorkloadSpec};

/// The hardware prefetch levels the engine axis selects (Baseline and the
/// contenders = off).
fn hw_asap(spec: &RunSpec) -> AsapHwConfig {
    match &spec.engine {
        EngineSelect::Asap(cfg) => cfg.clone(),
        _ => AsapHwConfig::off(),
    }
}

/// The OS-side ASAP configuration for the levels hardware prefetches: the
/// OS reserves sorted regions for exactly those levels, and none at all
/// when hardware prefetches nothing. A guest OS derives its configuration
/// from the guest-dimension levels the same way.
pub(crate) fn os_asap(levels: &[PtLevel]) -> AsapOsConfig {
    if levels.is_empty() {
        AsapOsConfig::disabled()
    } else {
        AsapOsConfig {
            levels: levels.to_vec(),
            max_descriptors: 16,
            extension_failure_rate: 0.0,
        }
    }
}

/// The Baseline/ASAP MMU configuration the spec's knobs select.
fn mmu_config(spec: &RunSpec) -> MmuConfig {
    let config = MmuConfig::default()
        .with_asap(hw_asap(spec))
        .with_pwc(spec.pwc.clone());
    if spec.clustered_tlb {
        config.with_clustered_tlb()
    } else {
        config
    }
}

/// Derives core `i`'s seed from the run seed. Core 0 keeps the run seed
/// unchanged, so its process and stream are the same on every core count —
/// scaling comparisons vary only the contention.
fn core_seed(seed: u64, core: usize) -> u64 {
    seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Core `i`'s ASID: the kernel keeps ASID 0, cores count up from 1.
/// `RunSpec::validate` bounds the core count by [`crate::MAX_CORES`].
fn core_asid(core: usize) -> Asid {
    Asid(1 + core as u16)
}

/// The first cache line of a physical frame (a 4 KiB frame spans 64
/// lines).
fn frame_line(frame: asap_types::PhysFrameNum) -> CacheLineAddr {
    CacheLineAddr::new(frame.raw() << 6)
}

/// Builds the machine's one fabric from `hierarchy` — the same hierarchy
/// config the engine's own constructor would use, so every core count
/// simulates the same memory system — lays the NUMA topology over it, and
/// attaches one engine per core, core `i` on node `i % numa_nodes`.
fn attach_cores<E>(
    spec: &RunSpec,
    hierarchy: HierarchyConfig,
    attach: impl Fn(SharedFabric) -> E,
) -> Vec<E> {
    let nodes = spec.numa_nodes;
    let fabric = SharedFabric::new(hierarchy);
    if nodes > 1 {
        // Every process window registers a home node round-robin in
        // core-major order (core 0's four windows first, then core 1's,
        // ...), so window k lands on node k % N — a deterministic model of
        // allocation classes spreading across sockets rather than
        // following their core. Each core therefore sees a fixed mix of
        // local and remote windows (half remote at 2 nodes, three quarters
        // at 4), and page-table windows land remote for most cores —
        // exactly the traffic that stresses walk latency at rack scale.
        let windows = (0..spec.cores).flat_map(|i| PhysMap::new(core_asid(i)).windows());
        fabric.configure_numa(
            NumaConfig::symmetric(nodes),
            windows.map(|(base, frames)| (frame_line(base), frames << 6)),
        );
    }
    (0..spec.cores)
        .map(|i| attach(fabric.for_node(i % nodes)))
        .collect()
}

/// Runs one native configuration: `spec.cores` cores over one fabric.
pub(crate) fn run_native(spec: &RunSpec) -> Result<RunOutput, DriverError> {
    let obs = RunObserver::begin(spec.telemetry);
    let n = spec.cores;
    let nodes = spec.numa_nodes;
    let base = spec.effective_workload();
    let corunner = WorkloadSpec::corunner();
    // Every core runs the same OS policy (a machine has one kernel).
    let os = os_asap(&hw_asap(spec).levels);
    let mut processes: Vec<Process> = Vec::with_capacity(n);
    let mut streams: Vec<BoxedStream> = Vec::with_capacity(n);
    let mut names: Vec<String> = Vec::with_capacity(n);
    for i in 0..n {
        let w = if i > 0 && spec.colocated {
            &corunner
        } else {
            &base
        };
        let seed = core_seed(spec.sim.seed, i);
        let process = Process::new(
            w.process_config(core_asid(i), os.clone(), seed)
                .with_paging_mode(spec.paging_mode),
        );
        streams.push(w.build_stream(&process, seed ^ 0x11));
        processes.push(process);
        names.push(match (n, nodes) {
            (1, _) => w.name.to_string(),
            (_, 1) => format!("{}@core{i}", w.name),
            _ => format!("{}@core{i}n{}", w.name, i % nodes),
        });
    }
    match &spec.engine {
        EngineSelect::Victima => {
            let cfg = VictimaConfig::default();
            let engines = attach_cores(spec, cfg.hierarchy.clone(), |f| {
                VictimaMmu::with_fabric(cfg.clone(), f)
            });
            drive(spec, engines, processes, streams, names, obs)
        }
        EngineSelect::Revelator => {
            let cfg = RevelatorConfig::default();
            let engines = attach_cores(spec, cfg.hierarchy.clone(), |f| {
                RevelatorMmu::with_fabric(cfg.clone(), f)
            });
            drive(spec, engines, processes, streams, names, obs)
        }
        // Baseline / ASAP (validation keeps nested engines off native
        // machines).
        _ => {
            let cfg = mmu_config(spec);
            let engines = attach_cores(spec, cfg.hierarchy.clone(), |f| {
                Mmu::with_fabric(cfg.clone(), f)
            });
            drive(spec, engines, processes, streams, names, obs)
        }
    }
}

/// Context-loads every engine, zips the per-core pieces into driver
/// slots, runs the interleaved loop, and harvests the machine's
/// telemetry — the tail every machine assembly shares.
///
/// One core yields [`RunOutput::single`], and a colocated one carries the
/// legacy SMT shim; N cores yield per-core rows plus their aggregate.
pub(crate) fn drive<E: TranslationEngine>(
    spec: &RunSpec,
    mut engines: Vec<E>,
    mut machines: Vec<E::Machine>,
    mut streams: Vec<BoxedStream>,
    names: Vec<String>,
    mut obs: RunObserver,
) -> Result<RunOutput, DriverError> {
    for (engine, machine) in engines.iter_mut().zip(&machines) {
        TranslationEngine::load_context(engine, machine);
    }
    let meta = RunMeta {
        workload: spec.workload.name.into(),
        label: spec.label(),
        sim: spec.sim,
        colocated: spec.colocated,
        perfect_tlb: spec.perfect_tlb,
    };
    obs.arm(&mut engines);
    let mut slots: Vec<CoreSlot<'_, E>> = engines
        .iter_mut()
        .zip(&mut machines)
        .zip(&mut streams)
        .zip(&names)
        .map(|(((engine, machine), stream), name)| CoreSlot {
            engine,
            machine,
            stream: stream.as_mut(),
            workload: name.clone(),
            corunner: None,
        })
        .collect();
    // Only a one-core machine injects the co-runner; on N cores it runs as
    // a real core.
    if let [only] = slots.as_mut_slice() {
        only.corunner = meta.smt_shim();
    }
    let per_core = run_cores_observed(&mut slots, &meta, obs.driver_mut())?;
    drop(slots);
    // Every core runs its own measure window.
    let measure_accesses = meta.sim.measure_accesses * engines.len() as u64;
    let telemetry = obs.finish(&mut engines, &names, measure_accesses);
    let output = match <[RunResult; 1]>::try_from(per_core) {
        Ok([only]) => RunOutput::single(only),
        // A colocated aggregate blends the neighbor's counters into the
        // row; compose the name so nobody reads the blend as the workload
        // alone.
        Err(per_core) if spec.colocated => {
            RunOutput::aggregate_of(&format!("{}+corunner", meta.workload), per_core)
        }
        Err(per_core) => RunOutput::aggregate_of(&meta.workload, per_core),
    };
    Ok(output.with_telemetry(telemetry))
}

#[cfg(test)]
mod tests {
    use crate::scenarios::smoke_workload as small;
    use crate::{EngineSelect, RunSpec, SimConfig};
    use asap_core::AsapHwConfig;

    #[test]
    fn baseline_run_produces_walks() {
        let spec = RunSpec::new(small()).with_sim(SimConfig::smoke_test());
        let r = spec.run().unwrap();
        assert!(r.walks.count() > 100, "uniform random must miss TLBs");
        assert!(r.avg_walk_latency() > 0.0);
        assert_eq!(r.faults, 0);
        assert!(r.cycles > 0);
        assert!(r.walk_fraction() > 0.0 && r.walk_fraction() < 1.0);
    }

    #[test]
    fn asap_reduces_walk_latency() {
        let sim = SimConfig::smoke_test();
        let base = RunSpec::new(small()).with_sim(sim).run().unwrap();
        let p12 = RunSpec::new(small())
            .with_asap(AsapHwConfig::p1_p2())
            .with_sim(sim)
            .run()
            .unwrap();
        assert!(p12.prefetches_issued > 0);
        assert!(
            p12.avg_walk_latency() < base.avg_walk_latency(),
            "ASAP {} !< baseline {}",
            p12.avg_walk_latency(),
            base.avg_walk_latency()
        );
    }

    #[test]
    fn colocation_increases_walk_latency() {
        let sim = SimConfig::smoke_test();
        let iso = RunSpec::new(small()).with_sim(sim).run().unwrap();
        let coloc = RunSpec::new(small())
            .colocated()
            .with_sim(sim)
            .run()
            .unwrap();
        assert!(
            coloc.avg_walk_latency() > iso.avg_walk_latency(),
            "coloc {} !> iso {}",
            coloc.avg_walk_latency(),
            iso.avg_walk_latency()
        );
    }

    #[test]
    fn perfect_tlb_run_has_no_walks() {
        let spec = RunSpec::new(small())
            .perfect_tlb()
            .with_sim(SimConfig::smoke_test());
        let r = spec.run().unwrap();
        assert_eq!(r.walks.count(), 0);
        assert_eq!(r.walk_cycles, 0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn five_level_paging_threads_through_one_build() {
        let spec = RunSpec::new(small())
            .five_level()
            .with_sim(SimConfig::smoke_test());
        let r = spec.run().unwrap();
        assert!(r.walks.count() > 100);
        assert_eq!(r.faults, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = RunSpec::new(small()).with_sim(SimConfig::smoke_test());
        let a = spec.run().unwrap();
        let b = spec.run().unwrap();
        assert_eq!(a.walks, b.walks);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn victima_run_produces_walks_and_no_faults() {
        let spec = RunSpec::new(small())
            .with_engine(EngineSelect::Victima)
            .with_sim(SimConfig::smoke_test());
        let r = spec.run().unwrap();
        assert!(r.walks.count() > 100);
        assert_eq!(r.faults, 0);
        assert_eq!(r.label, "Victima");
    }

    #[test]
    fn victima_eliminates_walks_versus_baseline() {
        // A zipfian workload whose hot set exceeds S-TLB reach but fits the
        // L2's block capacity — the regime Victima targets. Uniform sweeps
        // (stock mc80) have too little page reuse for blocks to matter.
        let w = asap_workloads::WorkloadSpec {
            footprint: asap_types::ByteSize::mib(256),
            ..asap_workloads::WorkloadSpec::redis()
        };
        let sim = SimConfig::smoke_test();
        let base = RunSpec::new(w.clone()).with_sim(sim).run().unwrap();
        let victima = RunSpec::new(w)
            .with_engine(EngineSelect::Victima)
            .with_sim(sim)
            .run()
            .unwrap();
        assert!(
            victima.walks.count() < base.walks.count(),
            "Victima blocks must absorb misses: {} !< {}",
            victima.walks.count(),
            base.walks.count()
        );
    }

    #[test]
    fn revelator_speculates_and_beats_baseline_cycles() {
        // A high-contiguity variant: hash speculation verifies ~80% of the
        // time, so the overlapped data fetches must show up as fewer total
        // cycles. (On fragmented workloads like stock mc80 the mechanism
        // degrades gracefully — covered by the scenario matrix.)
        let w = asap_workloads::WorkloadSpec {
            data_cluster_fraction: 0.8,
            ..small()
        };
        let sim = SimConfig::smoke_test();
        let base = RunSpec::new(w.clone()).with_sim(sim).run().unwrap();
        let rev = RunSpec::new(w)
            .with_engine(EngineSelect::Revelator)
            .with_sim(sim)
            .run()
            .unwrap();
        assert!(rev.prefetches_issued > 0, "speculative fetches must issue");
        // Walk latencies are untouched; the win is overlapped data fetch.
        assert!(
            rev.cycles < base.cycles,
            "Revelator {} !< baseline {} cycles",
            rev.cycles,
            base.cycles
        );
    }

    #[test]
    fn contender_runs_are_deterministic() {
        let spec = RunSpec::new(small())
            .with_engine(EngineSelect::Victima)
            .with_sim(SimConfig::smoke_test());
        let a = spec.run().unwrap();
        let b = spec.run().unwrap();
        assert_eq!(a.walks, b.walks);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn smp_run_yields_per_core_and_aggregate_rows() {
        let out = RunSpec::new(small())
            .with_cores(2)
            .with_sim(SimConfig::smoke_test())
            .run_split()
            .unwrap();
        assert_eq!(out.per_core.len(), 2);
        assert_eq!(out.per_core[0].workload, "mc80@core0");
        assert_eq!(out.per_core[1].workload, "mc80@core1");
        assert_eq!(out.aggregate.workload, "mc80");
        assert_eq!(out.aggregate.label, "Baseline 2c");
        for core in &out.per_core {
            assert!(core.walks.count() > 100, "{} never walked", core.workload);
            assert_eq!(core.faults, 0);
            assert!(core.cycles > 0);
        }
        assert_eq!(
            out.aggregate.walks.count(),
            out.per_core.iter().map(|c| c.walks.count()).sum::<u64>()
        );
        assert_eq!(
            out.aggregate.cycles,
            out.per_core.iter().map(|c| c.cycles).max().unwrap()
        );
    }

    #[test]
    fn multi_core_profile_counts_every_core_s_accesses() {
        let sim = SimConfig::smoke_test();
        let profile = RunSpec::new(small())
            .with_cores(4)
            .with_sim(sim)
            .with_telemetry(asap_telemetry::TelemetryConfig {
                trace: false,
                metrics: false,
                profile: true,
            })
            .run_split()
            .unwrap()
            .telemetry
            .and_then(|t| t.profile)
            .unwrap();
        assert_eq!(profile.measure_accesses, 4 * sim.measure_accesses);
    }

    #[test]
    fn shared_fabric_contention_inflates_walk_latency() {
        let sim = SimConfig::smoke_test();
        let solo = RunSpec::new(small()).with_sim(sim).run().unwrap();
        let quad = RunSpec::new(small())
            .with_cores(4)
            .with_sim(sim)
            .run()
            .unwrap();
        assert!(
            quad.avg_walk_latency() > solo.avg_walk_latency(),
            "4-core {} !> 1-core {}",
            quad.avg_walk_latency(),
            solo.avg_walk_latency()
        );
    }

    #[test]
    fn smp_colocation_runs_the_corunner_as_a_real_core() {
        let out = RunSpec::new(small())
            .with_cores(2)
            .colocated()
            .with_sim(SimConfig::smoke_test())
            .run_split()
            .unwrap();
        assert_eq!(out.per_core[0].workload, "mc80@core0");
        assert_eq!(out.per_core[1].workload, "corunner@core1");
        assert_eq!(
            out.aggregate.workload, "mc80+corunner",
            "a blended aggregate must not masquerade as the workload alone"
        );
        assert!(
            out.per_core[1].walks.count() > 0,
            "a real neighbor core takes real walks"
        );
    }

    /// The NUMA axis end-to-end: per-core rows name their nodes, the
    /// label gains the node fragment, and interconnect hops inflate both
    /// walk latency and cycles against the uniform-memory run of the same
    /// core count.
    #[test]
    fn numa_hops_inflate_walk_latency() {
        let sim = SimConfig::smoke_test();
        let uma = RunSpec::new(small())
            .with_cores(4)
            .with_sim(sim)
            .run_split()
            .unwrap();
        let spec = RunSpec::new(small())
            .with_cores(4)
            .with_numa_nodes(2)
            .with_sim(sim);
        let numa = spec.run_split().unwrap();
        assert_eq!(numa.per_core[0].workload, "mc80@core0n0");
        assert_eq!(numa.per_core[1].workload, "mc80@core1n1");
        assert_eq!(numa.per_core[2].workload, "mc80@core2n0");
        assert_eq!(numa.aggregate.label, "Baseline 4c 2n");
        assert!(
            numa.aggregate.avg_walk_latency() > uma.aggregate.avg_walk_latency(),
            "2-node walk latency {} !> uniform {}",
            numa.aggregate.avg_walk_latency(),
            uma.aggregate.avg_walk_latency()
        );
        assert!(numa.aggregate.cycles > uma.aggregate.cycles);
        // Same seed, same topology: bit-identical on a re-run.
        let again = spec.run_split().unwrap();
        assert_eq!(numa.aggregate.walks, again.aggregate.walks);
        assert_eq!(numa.aggregate.cycles, again.aggregate.cycles);
    }

    /// More nodes, more remote windows: walk latency grows monotonically
    /// across the node-count axis at a fixed core count.
    #[test]
    fn walk_latency_grows_with_node_count() {
        let sim = SimConfig::smoke_test();
        let at = |nodes: usize| {
            RunSpec::new(small())
                .with_cores(4)
                .with_numa_nodes(nodes)
                .with_sim(sim)
                .run()
                .unwrap()
                .avg_walk_latency()
        };
        let (n1, n2, n4) = (at(1), at(2), at(4));
        assert!(n2 > n1, "{n2} !> {n1}");
        assert!(n4 > n2, "{n4} !> {n2}");
    }

    #[test]
    fn smp_runs_are_deterministic() {
        let spec = RunSpec::new(small())
            .with_cores(2)
            .with_sim(SimConfig::smoke_test());
        let a = spec.run_split().unwrap();
        let b = spec.run_split().unwrap();
        assert_eq!(a.aggregate.walks, b.aggregate.walks);
        assert_eq!(a.aggregate.cycles, b.aggregate.cycles);
        for (x, y) in a.per_core.iter().zip(&b.per_core) {
            assert_eq!(x.walks, y.walks);
            assert_eq!(x.cycles, y.cycles);
        }
    }

    #[test]
    fn contender_engines_run_multi_core() {
        let sim = SimConfig::smoke_test();
        for engine in [
            EngineSelect::Victima,
            EngineSelect::Revelator,
            EngineSelect::Asap(AsapHwConfig::p1_p2()),
        ] {
            let out = RunSpec::new(small())
                .with_engine(engine.clone())
                .with_cores(2)
                .with_sim(sim)
                .run_split()
                .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
            assert_eq!(out.per_core.len(), 2);
            assert_eq!(out.aggregate.faults, 0, "{engine:?}");
            assert!(out.aggregate.walks.count() > 0, "{engine:?}");
        }
    }

    /// `run_scenario` over a hand-assembled core reproduces the assembly's
    /// colocated one-core row, SMT co-runner shim included — the contract
    /// external harnesses that assemble engines themselves rely on.
    #[test]
    fn run_scenario_matches_the_one_core_assembly() {
        use crate::{run_scenario, RunMeta};
        use asap_core::{Mmu, MmuConfig, TranslationEngine};
        use asap_os::{AsapOsConfig, Process};
        use asap_types::Asid;

        let spec = RunSpec::new(small())
            .colocated()
            .with_sim(SimConfig::smoke_test());
        let seed = spec.sim.seed;
        let mut process =
            Process::new(small().process_config(Asid(1), AsapOsConfig::disabled(), seed));
        let mut stream = small().build_stream(&process, seed ^ 0x11);
        let mut mmu = Mmu::new(MmuConfig::default());
        TranslationEngine::load_context(&mut mmu, &process);
        let meta = RunMeta {
            workload: spec.workload.name.into(),
            label: spec.label(),
            sim: spec.sim,
            colocated: true,
            perfect_tlb: false,
        };
        let by_hand = run_scenario(&mut mmu, &mut process, stream.as_mut(), &meta).unwrap();
        assert_eq!(by_hand, spec.run().unwrap());
    }
}
