//! Component microbenchmarks: the hot structures of the simulator.

use asap_alloc::{FrameAllocator, ScatterAllocator, ScatterConfig};
use asap_cache::{CacheHierarchy, HierarchyConfig};
use asap_os::feistel_permute;
use asap_pt::{BumpNodeAllocator, FlatMirror, PteFlags, WalkSource};
use asap_tlb::{PageWalkCaches, PwcConfig, Tlb, TlbConfig, TlbEntry};
use asap_types::{Asid, CacheLineAddr, PageSize, PagingMode, PhysFrameNum, VirtAddr, VirtPageNum};
use asap_workloads::{AccessStream, CoRunner, UniformStream};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn cache_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/cache");
    // Each case below runs its own access pattern 2^20 times before it is
    // timed: a cold hierarchy makes the calibration probe and the first
    // samples pay for the first touches of the cache arrays.
    let warm = |step: &mut dyn FnMut()| (0..1 << 20).for_each(|_| step());

    // One core's demand accesses, each issued when the previous returns.
    let mut hier = CacheHierarchy::new(HierarchyConfig::broadwell_like());
    let (mut i, mut t) = (0u64, 0u64);
    let mut access = || {
        i = i.wrapping_add(0x9e37_79b9);
        let r = hier.access(CacheLineAddr::new(i % (1 << 20)), t, 0);
        t += r.latency;
        black_box(r);
    };
    warm(&mut access);
    g.bench_function("hierarchy_access", |b| b.iter(&mut access));

    // The SMP driver's inner step: min-clock core arbitration plus one
    // explicitly-timed access through the shared fabric handle — the hot
    // path every multi-core cycle goes through.
    let fabric = asap_cache::SharedFabric::new(HierarchyConfig::broadwell_like());
    let mut clocks = [0u64; 4];
    let mut j = 0u64;
    let mut arbitrate = || {
        let port = clocks
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (**t, *i))
            .map(|(i, _)| i)
            .expect("four ports");
        j = j.wrapping_add(0x9e37_79b9);
        let r = fabric.access_at(
            CacheLineAddr::new((j % (1 << 20)) | (port as u64) << 40),
            clocks[port],
        );
        clocks[port] += r.latency + 3;
        black_box(r);
    };
    warm(&mut arbitrate);
    g.bench_function("fabric_arbitration", |b| b.iter(&mut arbitrate));

    // One line of the §4 SMT co-runner: uniform over a 32 GiB footprint,
    // so nearly every access misses all three levels and fills them —
    // the path single-core colocated runs spend most of their time on.
    // `hierarchy_access` stays within 2^20 lines and never shows it.
    let fabric = asap_cache::SharedFabric::new(HierarchyConfig::broadwell_like());
    let mut co = CoRunner::memory_intensive(0xC0);
    // A co-located run spends its whole measure window warm.
    warm(&mut || {
        fabric.access_at(co.next_line(), 0);
    });
    g.bench_function("corunner_access", |b| {
        b.iter(|| black_box(fabric.access_at(co.next_line(), 0)))
    });

    // One ASAP prefetch into the same warmed hierarchy: the MSHR check and
    // one probe of each level, then the fills. The lines are uniform over
    // 256 MiB, so most come from the LLC or DRAM, and the clock advances
    // 40 cycles per prefetch, so the 10 MSHRs are sometimes all busy and
    // the prefetch drops, as on a walk that issues several at once.
    let mut hier = CacheHierarchy::new(HierarchyConfig::broadwell_like());
    let mut t = 0;
    warm(&mut || t += hier.access(co.next_line(), t, 0).latency);
    let (mut k, mut now) = (0u64, 0u64);
    g.bench_function("prefetch_at", |b| {
        b.iter(|| {
            k = k.wrapping_add(0x9e37_79b9);
            now += 40;
            black_box(hier.prefetch_at(CacheLineAddr::new(k % (1 << 22)), now))
        })
    });
    g.finish();
}

fn arbitration_scaling(c: &mut Criterion) {
    use asap_sim::sched::{linear_scan, EventQueue};

    // The scheduler's per-epoch cost as the core count grows: one
    // arbitration round = pick the minimum-clock core, advance it by a
    // pseudo-random burst, reinsert. The heap rows should stay near-flat
    // (O(log n)); the linear_scan rows are the O(n) contrast — the cost
    // the old driver paid at every epoch.
    let mut g = c.benchmark_group("components/arbitration");
    let burst = |clock: u64, i: usize| clock + 40 + ((clock >> 3) ^ i as u64) % 191;
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut queue = EventQueue::with_capacity(n);
        for i in 0..n {
            queue.push((i as u64, i));
        }
        g.bench_function(format!("event_queue/{n}"), |b| {
            b.iter(|| {
                let (clock, i) = queue.pop().expect("queue stays full");
                queue.push((burst(clock, i), i));
                black_box(queue.peek())
            })
        });

        let mut clocks: Vec<u64> = (0..n as u64).collect();
        g.bench_function(format!("linear_scan/{n}"), |b| {
            b.iter(|| {
                let (best, _) = linear_scan(clocks.iter().enumerate().map(|(i, t)| (*t, i)));
                let (clock, i) = best.expect("at least one core");
                clocks[i] = burst(clock, i);
                black_box(clocks[i])
            })
        });
    }
    g.finish();
}

fn tlb_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/tlb");
    let mut tlb = Tlb::new(TlbConfig::l2_stlb());
    for i in 0..1536u64 {
        tlb.insert(
            Asid(0),
            VirtPageNum::new(i),
            TlbEntry::new(PhysFrameNum::new(i), PageSize::Size4K),
        );
    }
    let mut i = 0u64;
    g.bench_function("l2_stlb_lookup", |b| {
        b.iter(|| {
            i = i.wrapping_add(7);
            tlb.lookup(Asid(0), VirtPageNum::new(i % 2048))
        })
    });
    let mut pwc = PageWalkCaches::new(PwcConfig::split_default());
    pwc.fill(
        Asid(0),
        VirtAddr::new(0x1000).unwrap(),
        asap_types::PtLevel::Pl2,
        PhysFrameNum::new(1),
    );
    g.bench_function("pwc_lookup", |b| {
        b.iter(|| pwc.lookup(Asid(0), VirtAddr::new(black_box(0x1000)).unwrap()))
    });
    g.finish();
}

fn page_walk(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/walk");
    let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x1000));
    let mut table = FlatMirror::new(PagingMode::FourLevel, &mut alloc);
    for i in 0..4096u64 {
        table
            .map(
                &mut alloc,
                VirtAddr::new(i << 12).unwrap(),
                PhysFrameNum::new(i + 10),
                PageSize::Size4K,
                PteFlags::user_data(),
            )
            .unwrap();
    }
    // The walk the timing model runs on a TLB miss: the full node trace.
    let mut i = 0u64;
    g.bench_function("flat_walk_fixed", |b| {
        b.iter(|| {
            i = (i + 97) % 4096;
            table.walk_fixed(VirtAddr::new(i << 12).unwrap())
        })
    });

    // The same descent without the trace. Same stride as
    // `flat_walk_fixed`, so the two rows are directly comparable.
    let mut k = 0u64;
    g.bench_function("flat_translate", |b| {
        b.iter(|| {
            k = (k + 97) % 4096;
            table.translate(VirtAddr::new(k << 12).unwrap())
        })
    });
    g.finish();
}

/// Demand paging: one `Process::touch` of a page the process has not
/// faulted yet, the OS half of every first access in a measure window.
fn demand_fault(c: &mut Criterion) {
    use asap_os::{AsapOsConfig, Process, VmaKind};
    use asap_types::ByteSize;
    use asap_workloads::WorkloadSpec;

    /// Deterministic Fisher-Yates shuffle (xorshift64), so faults do not
    /// walk the heap in address order.
    fn shuffled(mut v: Vec<VirtAddr>, mut x: u64) -> Vec<VirtAddr> {
        for i in (1..v.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.swap(i, (x % (i as u64 + 1)) as usize);
        }
        v
    }

    /// A fresh baseline process of `spec` plus a shuffled pool of heap pages
    /// it has not faulted. `dense`: the first page of every 2 MiB region is
    /// faulted up front, so every PL1 node exists and the pool is all the
    /// other pages. Otherwise the pool is one page per 2 MiB region, so
    /// nearly every fault creates a PL1 node.
    fn fresh(spec: &WorkloadSpec, dense: bool) -> (Process, Vec<VirtAddr>) {
        let mut p = spec.build_process(Asid(1), AsapOsConfig::disabled(), 7);
        let heap = *p.vma_of_kind(VmaKind::Heap).expect("layout has a heap");
        let pages = heap.len() >> 12;
        let page = |i: u64| VirtAddr::new(heap.start().raw() + (i << 12)).unwrap();
        let pool = if dense {
            for i in (0..pages).step_by(512) {
                p.touch(page(i)).unwrap();
            }
            (0..pages).filter(|i| i % 512 != 0).map(page).collect()
        } else {
            (0..pages)
                .step_by(512)
                .map(|i| page(i + (i >> 9) * 0x9e37 % 512))
                .collect()
        };
        (p, shuffled(pool, 0x2545_f491_4f6c_dd1d))
    }

    let mut g = c.benchmark_group("components/os/demand_fault");
    // Fault cost swings with host memory traffic; more samples steady the
    // median.
    g.sample_size(60);
    // mcf's 1.7 GB heap: ~434k faults per process under existing PL1
    // nodes. redis-shaped, scaled to a 400 GB heap so one process holds
    // ~205k node-creating faults. An exhausted pool is replaced by a fresh
    // process inside the timed loop, amortised over the whole pool.
    let cases = [
        ("dense_mcf", WorkloadSpec::mcf(), true),
        (
            "sparse_redis",
            WorkloadSpec {
                footprint: ByteSize::gib(400),
                ..WorkloadSpec::redis()
            },
            false,
        ),
    ];
    for (name, spec, dense) in cases {
        let (mut process, mut pool) = fresh(&spec, dense);
        let mut next = 0;
        g.bench_function(name, |b| {
            b.iter(|| {
                if next == pool.len() {
                    (process, pool) = fresh(&spec, dense);
                    next = 0;
                }
                next += 1;
                process.touch(pool[next - 1])
            })
        });
    }
    g.finish();
}

fn driver_loop(c: &mut Criterion) {
    use asap_core::{Mmu, MmuConfig, TranslationEngine};
    use asap_os::AsapOsConfig;
    use asap_sim::{run_scenario, RunMeta, SimConfig};
    use asap_types::ByteSize;
    use asap_workloads::WorkloadSpec;

    let mut g = c.benchmark_group("components/driver");
    g.sample_size(10);

    // One full batched smoke-window epoch (warmup + measure) through the
    // single-core driver: the end-to-end per-access cost of the inner loop.
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

    // Snapshot-and-reset of the engine's plain-counter statistics — the
    // bulk "flush" the driver performs once per measurement window.
    g.bench_function("stats_flush", |b| {
        b.iter(|| {
            let snap = mmu.stats_snapshot();
            mmu.reset_stats();
            black_box(snap)
        })
    });
    g.finish();
}

/// OS run-ahead: `run_cores` on a 64-core and a one-core mc80 ASAP machine
/// (perfbench `smp_64c`'s 500 + 2,000-access windows per core), once as
/// is and once over the `Coupled` backend, which keeps the coupled order
/// (each access demand-paged right before its translation).
/// The shim times one case at a time, so this group times whole runs
/// itself, on a fresh machine each, and alternates the two cases in ABBA
/// order so host drift hits both alike.
fn os_run_ahead(c: &mut Criterion) {
    use asap_cache::SharedFabric;
    use asap_core::{
        AsapHwConfig, Backend, CoreConfig, Engine, EngineCore, EngineOutcome, Mmu, MmuConfig,
        Native, TranslationEngine,
    };
    use asap_os::{AsapOsConfig, Process};
    use asap_sim::{run_cores, CoreSlot, RunMeta, SimConfig};
    use asap_workloads::WorkloadSpec;
    use std::time::{Duration, Instant};

    /// The native backend with path locality declared off, so the driver
    /// keeps the coupled order.
    struct Coupled(Native);

    impl Backend for Coupled {
        type Machine = Process;
        type Config = MmuConfig;
        fn build(config: MmuConfig) -> (CoreConfig, Self) {
            let (parts, native) = Native::build(config);
            (parts, Coupled(native))
        }
        fn load_context(&mut self, machine: &Process) {
            self.0.load_context(machine);
        }
        fn translate_miss(
            &mut self,
            core: &mut EngineCore,
            machine: &mut Process,
            asid: Asid,
            va: VirtAddr,
        ) -> EngineOutcome {
            self.0.translate_miss(core, machine, asid, va)
        }
        fn translation_is_path_local(&self) -> bool {
            false
        }
        fn reset_stats(&mut self) {
            self.0.reset_stats();
        }
    }

    /// Loads each engine's context, then times one `run_cores` alone.
    fn drive<E: TranslationEngine<Machine = Process>>(
        mut engines: Vec<E>,
        processes: &mut [Process],
        streams: &mut [asap_workloads::BoxedStream],
        meta: &RunMeta,
    ) -> Duration {
        for (e, p) in engines.iter_mut().zip(processes.iter()) {
            e.load_context(p);
        }
        let mut slots: Vec<CoreSlot<'_, E>> = engines
            .iter_mut()
            .zip(processes.iter_mut())
            .zip(streams.iter_mut())
            .map(|((engine, machine), stream)| CoreSlot {
                engine,
                machine,
                stream: stream.as_mut(),
                workload: "bench".into(),
                corunner: None,
            })
            .collect();
        let t0 = Instant::now();
        black_box(run_cores(&mut slots, meta).unwrap());
        t0.elapsed()
    }

    /// Builds a fresh `cores`-core machine and drives it once.
    fn timed_run(cores: usize, coupled: bool) -> Duration {
        let w = WorkloadSpec::mc80();
        let asap = AsapHwConfig::p1_p2();
        let os = AsapOsConfig {
            levels: asap.levels.clone(),
            max_descriptors: 16,
            extension_failure_rate: 0.0,
        };
        let meta = RunMeta {
            workload: w.name.into(),
            label: "bench".into(),
            sim: SimConfig {
                warmup_accesses: 500,
                measure_accesses: 2_000,
                ..SimConfig::default()
            },
            colocated: false,
            perfect_tlb: false,
        };
        let seed = meta.sim.seed;
        let mut processes: Vec<Process> = (0..cores as u16)
            .map(|i| w.build_process(Asid(1 + i), os.clone(), seed ^ u64::from(i)))
            .collect();
        let mut streams: Vec<_> = processes
            .iter()
            .enumerate()
            .map(|(i, p)| w.build_stream(p, seed ^ 0x11 ^ ((i as u64) << 8)))
            .collect();
        let fabric = SharedFabric::new(HierarchyConfig::broadwell_like());
        let config = MmuConfig::default().with_asap(asap);
        if coupled {
            let engines: Vec<Engine<Coupled>> = (0..cores)
                .map(|_| Engine::with_fabric(config.clone(), fabric.clone()))
                .collect();
            drive(engines, &mut processes, &mut streams, &meta)
        } else {
            let engines: Vec<Mmu> = (0..cores)
                .map(|_| Mmu::with_fabric(config.clone(), fabric.clone()))
                .collect();
            drive(engines, &mut processes, &mut streams, &meta)
        }
    }

    fn median(mut v: Vec<f64>) -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    let g = c.benchmark_group("components/driver/os_run_ahead");
    for (cores, rounds) in [(64usize, 10usize), (1, 40)] {
        let (mut ahead, mut coupled, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..rounds {
            // ABBA order: neither case always runs first.
            let first = round % 2 == 1;
            let x = timed_run(cores, first).as_secs_f64() * 1e3;
            let y = timed_run(cores, !first).as_secs_f64() * 1e3;
            let (a, c) = if first { (y, x) } else { (x, y) };
            ahead.push(a);
            coupled.push(c);
            ratio.push(c / a);
        }
        let id = format!("components/driver/os_run_ahead/{cores}c");
        println!(
            "{:<44} median {:>9.2} ms  ({rounds} runs)",
            format!("{id}/run_ahead"),
            median(ahead)
        );
        println!(
            "{:<44} median {:>9.2} ms  ({rounds} runs)",
            format!("{id}/coupled"),
            median(coupled)
        );
        println!(
            "{id:<44} coupled / run-ahead {:.3} (median of paired rounds)",
            median(ratio)
        );
    }
    g.finish();
}

fn allocators(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/alloc");
    g.bench_function("scatter_alloc", |b| {
        let mut sc = ScatterAllocator::new(ScatterConfig {
            mean_run_len: 8.0,
            phys_frames: 1 << 24,
            seed: 1,
        });
        b.iter(|| sc.alloc_frame().unwrap())
    });
    g.bench_function("feistel_permute", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = (x + 1) & ((1 << 28) - 1);
            feistel_permute(x, 0xfeed, 28)
        })
    });
    g.finish();
}

fn contender_hot_paths(c: &mut Criterion) {
    use asap_contenders::{PtwCostPredictor, PtwCostPredictorConfig, VictimaConfig, VictimaMmu};
    use asap_core::TranslationEngine;
    use asap_os::{Process, ProcessConfig, VmaKind};
    use asap_types::ByteSize;

    let mut g = c.benchmark_group("components/contenders");

    // Revelator's hash unit: the speculative VA -> PA computation.
    let p = Process::new(
        ProcessConfig::new(Asid(3))
            .with_heap(ByteSize::mib(64))
            .with_data_cluster_fraction(1.0),
    );
    let hint = p.speculation_hint();
    let heap = p.vma_of_kind(VmaKind::Heap).unwrap().start().raw();
    let mut i = 0u64;
    g.bench_function("speculative_hash", |b| {
        b.iter(|| {
            i = (i + 97) % 16_384;
            hint.predict(VirtAddr::new(black_box(heap + i * 4096)).unwrap())
        })
    });

    // Victima's TLB-block lookup: L2 probe + shadow payload, warmed by a
    // pass whose tiny S-TLB evicts every fill straight into blocks.
    let mut process = Process::new(
        ProcessConfig::new(Asid(4))
            .with_heap(ByteSize::mib(256))
            .with_seed(5),
    );
    let heap = process.vma_of_kind(VmaKind::Heap).unwrap().start().raw();
    // 128 pages, one per 2 MiB region, staying inside the 256 MiB heap.
    let vas: Vec<VirtAddr> = (0..128u64)
        .map(|i| VirtAddr::new(heap + i * 513 * 4096).unwrap())
        .collect();
    for va in &vas {
        process.touch(*va).unwrap();
    }
    let mut mmu = VictimaMmu::new(VictimaConfig {
        l2_tlb: asap_tlb::TlbConfig {
            name: "tiny S-TLB",
            entries: 8,
            ways: 2,
        },
        ..VictimaConfig::default()
    });
    TranslationEngine::load_context(&mut mmu, &process);
    for va in &vas {
        let _ = mmu.translate_access(&mut process, *va);
    }
    let mut i = 0usize;
    g.bench_function("tlb_block_lookup", |b| {
        b.iter(|| {
            i = (i + 31) % vas.len();
            mmu.translate_access(&mut process, vas[i])
        })
    });

    // The PTW cost predictor's record/predict pair.
    let mut predictor = PtwCostPredictor::new(PtwCostPredictorConfig::default());
    let mut j = 0u64;
    g.bench_function("ptw_cost_predict", |b| {
        b.iter(|| {
            j = (j + 511) % (1 << 20);
            predictor.record(Asid(1), VirtPageNum::new(j), 100 + (j & 0xFF));
            predictor.predicts_costly(Asid(1), VirtPageNum::new(j))
        })
    });
    g.finish();
}

fn workload_gen(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/workloads");
    let ranges = asap_workloads::WorkloadSpec::mcf();
    let p = ranges.build_process(Asid(1), asap_os::AsapOsConfig::disabled(), 3);
    let mut stream = ranges.build_stream(&p, 3);
    g.bench_function("pointer_chase_next", |b| b.iter(|| stream.next_va()));
    let r = asap_workloads::WorkloadSpec::mc80();
    let p2 = r.build_process(Asid(2), asap_os::AsapOsConfig::disabled(), 3);
    let mut uniform = UniformStream::new(r.dataset_ranges(&p2), 1.0, 4, 9);
    g.bench_function("uniform_next", |b| b.iter(|| uniform.next_va()));
    g.finish();
}

criterion_group!(
    components,
    cache_hierarchy,
    arbitration_scaling,
    tlb_lookup,
    page_walk,
    demand_fault,
    driver_loop,
    os_run_ahead,
    allocators,
    contender_hot_paths,
    workload_gen
);
criterion_main!(components);
