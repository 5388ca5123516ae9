//! Observer-effect benchmarks: proves the telemetry layer's disabled
//! path costs nothing measurable.
//!
//! The `disabled/` row repeats the `components/driver/batched_epoch` body
//! verbatim on a build that carries the telemetry hooks — if the hooks
//! were not compiling to never-taken branches, this row would drift from
//! its `components/` twin. The `enabled/` rows are the contrast: the same
//! epoch with a tracer installed, showing what turning the layer ON costs.

use asap_core::{Mmu, MmuConfig, TranslationEngine};
use asap_os::AsapOsConfig;
use asap_sim::{run_cores_observed, run_scenario, CoreSlot, RunMeta, SimConfig};
use asap_telemetry::TraceSink;
use asap_types::{Asid, ByteSize};
use asap_workloads::WorkloadSpec;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn disabled_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry/disabled");

    // Twin of components/driver/batched_epoch: every per-access tracer
    // hook in the engine evaluates `None` here.
    g.sample_size(10);
    let w = WorkloadSpec {
        footprint: ByteSize::mib(64),
        ..WorkloadSpec::mc80()
    };
    let sim = SimConfig::smoke_test();
    let mut process = w.build_process(Asid(9), AsapOsConfig::disabled(), sim.seed);
    let mut mmu = Mmu::new(MmuConfig::default().with_seed(sim.seed));
    TranslationEngine::load_context(&mut mmu, &process);
    let meta = RunMeta {
        workload: "bench".into(),
        label: "bench".into(),
        sim,
        colocated: false,
        perfect_tlb: false,
    };
    g.bench_function("batched_epoch", |b| {
        b.iter(|| {
            let mut stream = w.build_stream(&process, sim.seed ^ 0x11);
            run_scenario(&mut mmu, &mut process, stream.as_mut(), &meta).unwrap()
        })
    });
    g.finish();
}

fn enabled_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry/enabled");
    g.sample_size(10);
    let w = WorkloadSpec {
        footprint: ByteSize::mib(64),
        ..WorkloadSpec::mc80()
    };
    let sim = SimConfig::smoke_test();
    let mut process = w.build_process(Asid(9), AsapOsConfig::disabled(), sim.seed);
    let mut mmu = Mmu::new(MmuConfig::default().with_seed(sim.seed));
    TranslationEngine::load_context(&mut mmu, &process);
    let meta = RunMeta {
        workload: "bench".into(),
        label: "bench".into(),
        sim,
        colocated: false,
        perfect_tlb: false,
    };
    // One epoch with a live ring buffer: the honest price of `--trace`.
    g.bench_function("batched_epoch_traced", |b| {
        b.iter(|| {
            mmu.set_tracer(TraceSink::default());
            let mut stream = w.build_stream(&process, sim.seed ^ 0x11);
            let mut slots = [CoreSlot {
                engine: &mut mmu,
                machine: &mut process,
                stream: stream.as_mut(),
                workload: meta.workload.clone(),
                corunner: None,
            }];
            let r = run_cores_observed(&mut slots, &meta, None).unwrap();
            black_box(mmu.take_tracer());
            r
        })
    });
    g.finish();
}

criterion_group!(telemetry, disabled_path, enabled_path);
criterion_main!(telemetry);
