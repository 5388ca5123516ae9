//! Component microbenchmarks: the hot structures of the simulator.

use asap_alloc::{BuddyAllocator, FrameAllocator, ScatterAllocator, ScatterConfig};
use asap_cache::{CacheHierarchy, HierarchyConfig};
use asap_os::feistel_permute;
use asap_pt::{BumpNodeAllocator, PageTable, PteFlags, SimPhysMem, Walker};
use asap_tlb::{PageWalkCaches, PwcConfig, Tlb, TlbConfig, TlbEntry};
use asap_types::{Asid, CacheLineAddr, PageSize, PagingMode, PhysFrameNum, VirtAddr, VirtPageNum};
use asap_workloads::{AccessStream, CoRunner, UniformStream};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn cache_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/cache");
    let mut hier = CacheHierarchy::new(HierarchyConfig::broadwell_like());
    let mut i = 0u64;
    g.bench_function("hierarchy_access", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            hier.access(CacheLineAddr::new(i % (1 << 20)))
        })
    });

    // The SMP driver's inner step: min-clock core arbitration plus one
    // explicitly-timed access through the shared fabric handle — the hot
    // path every multi-core cycle goes through.
    let fabric = asap_cache::SharedFabric::new(HierarchyConfig::broadwell_like());
    let mut clocks = [0u64; 4];
    let mut j = 0u64;
    g.bench_function("fabric_arbitration", |b| {
        b.iter(|| {
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
            black_box(r)
        })
    });

    // One line of the §4 SMT co-runner: uniform over a 32 GiB footprint,
    // so nearly every access misses all three levels and fills them —
    // the path single-core colocated runs spend most of their time on.
    // `hierarchy_access` stays within 2^20 lines and never shows it.
    let fabric = asap_cache::SharedFabric::new(HierarchyConfig::broadwell_like());
    let mut co = CoRunner::memory_intensive(0xC0);
    // Fill the caches (and fault in their arrays) first: a co-located
    // run spends its whole measure window in that steady state.
    for _ in 0..1 << 20 {
        fabric.access_at(co.next_line(), 0);
    }
    g.bench_function("corunner_access", |b| {
        b.iter(|| black_box(fabric.access_at(co.next_line(), 0)))
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
    let mut mem = SimPhysMem::new();
    let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x1000));
    let mut pt = PageTable::new(PagingMode::FourLevel, &mut mem, &mut alloc);
    for i in 0..4096u64 {
        pt.map(
            &mut mem,
            &mut alloc,
            VirtAddr::new(i << 12).unwrap(),
            PhysFrameNum::new(i + 10),
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
    }
    let mut i = 0u64;
    g.bench_function("software_walk", |b| {
        b.iter(|| {
            i = (i + 97) % 4096;
            Walker::walk(&mem, &pt, VirtAddr::new(i << 12).unwrap())
        })
    });

    // The same table through the flat arena mirror — the descent the hot
    // loop actually runs. Same stride as `software_walk`, so the two rows
    // are directly comparable.
    let mut mirror = asap_pt::FlatMirror::new(&pt);
    mirror.rebuild(&mem, &pt);
    let mut k = 0u64;
    g.bench_function("flat_translate", |b| {
        b.iter(|| {
            k = (k + 97) % 4096;
            mirror.translate(VirtAddr::new(k << 12).unwrap())
        })
    });
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

fn allocators(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/alloc");
    g.bench_function("buddy_alloc_free", |b| {
        let mut buddy = BuddyAllocator::new(PhysFrameNum::new(0), 1 << 16);
        b.iter(|| {
            let f = buddy.alloc(0).unwrap();
            buddy.free(f, 0);
        })
    });
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
        let _ = mmu.translate(&process, *va);
    }
    let mut i = 0usize;
    g.bench_function("tlb_block_lookup", |b| {
        b.iter(|| {
            i = (i + 31) % vas.len();
            mmu.translate(&process, vas[i])
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
    driver_loop,
    allocators,
    contender_hot_paths,
    workload_gen
);
criterion_main!(components);
