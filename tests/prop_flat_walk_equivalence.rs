//! The differential harness gating the flat page table: for ANY table
//! layout, [`FlatMirror`] — the simulator's only page-table store — and the
//! radix oracle in `asap-pt-test-util` ([`PageTable`] over [`SimPhysMem`],
//! walked by [`Walker`]) must agree on every probe: the same translation
//! (pa, level via page size, pte flags), the same step-by-step walk trace
//! (levels, entry addresses, observed entries), the same node frames and
//! the same census.
//!
//! Random map sequences run through [`FlatMirror::map`] on one side and
//! [`PageTable::map`] on the other; demand-paged processes and nested
//! tables are compared with an oracle rebuilt from their translations in
//! their own node frames ([`radix_of`]).

use asap::core::{AsapHwConfig, Mmu, MmuConfig, TranslationEngine};
use asap::os::{AsapOsConfig, Process, ProcessConfig, VmaKind};
use asap::pt::{BumpNodeAllocator, FlatMirror, PtCensus, PtNodeAllocator, PteFlags, WalkSource};
use asap::types::{Asid, ByteSize, PageSize, PagingMode, PhysFrameNum, PtLevel, VirtAddr};
use asap::virt::{Ept, EptConfig, VirtualMachine};
use asap_pt_test_util::{mirror_of, radix_of, sync_va, PageTable, RadixSource, SimPhysMem, Walker};
use proptest::prelude::*;

/// One mapping request, built from per-level radix indices so arbitrary
/// fragmentation (shared vs fresh node chains) arises naturally.
#[derive(Debug, Clone, Copy)]
struct MapReq {
    pl4: u64,
    pl3: u64,
    pl2: u64,
    pl1: u64,
    size: PageSize,
}

impl MapReq {
    fn va(&self) -> VirtAddr {
        let (pl2, pl1) = match self.size {
            PageSize::Size4K => (self.pl2, self.pl1),
            PageSize::Size2M => (self.pl2, 0),
            PageSize::Size1G => (0, 0),
        };
        let raw = (((self.pl4 << 9 | self.pl3) << 9 | pl2) << 9 | pl1) << 12;
        VirtAddr::new(raw).unwrap()
    }
}

fn map_req() -> impl Strategy<Value = MapReq> {
    ((0u64..4, 0u64..4), (0u64..4, 0u64..8), 0u32..12).prop_map(|((pl4, pl3), (pl2, pl1), pick)| {
        // 4K-heavy mix: 8/12 small, 3/12 2M, 1/12 1G.
        let size = match pick {
            0..=7 => PageSize::Size4K,
            8..=10 => PageSize::Size2M,
            _ => PageSize::Size1G,
        };
        MapReq {
            pl4,
            pl3,
            pl2,
            pl1,
            size,
        }
    })
}

/// Probe addresses derived from a mapped VA: the page itself, interior
/// offsets, unmapped cousins at each level, and a far out-of-range address.
fn probes_for(va: VirtAddr) -> Vec<VirtAddr> {
    let mut out = vec![va];
    for delta in [0xabcu64, 0x1000, 0x3f_f000, 0x20_0000] {
        if let Ok(p) = VirtAddr::new(va.raw() ^ delta) {
            out.push(p);
        }
    }
    out.push(VirtAddr::new(1 << 50).unwrap_or(va));
    out
}

/// Asserts flat == radix on translation AND full walk trace for `va`.
fn assert_equivalent(
    mem: &SimPhysMem,
    pt: &PageTable,
    mirror: &FlatMirror,
    va: VirtAddr,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        mirror.translate(va),
        pt.translate(mem, va),
        "translate diverged at {}",
        va
    );
    prop_assert_eq!(
        mirror.is_mapped(va),
        pt.translate(mem, va).is_some(),
        "residency diverged at {}",
        va
    );
    let radix = RadixSource { mem, pt };
    let flat_walk = mirror.walk_fixed(va);
    let radix_walk = radix.walk_fixed(va);
    prop_assert_eq!(flat_walk, radix_walk, "walk trace diverged at {}", va);
    // The fixed walk itself must agree with the Vec-backed walker.
    let legacy = Walker::walk(mem, pt, va);
    prop_assert_eq!(
        flat_walk.to_trace(),
        legacy,
        "fixed/legacy diverged at {}",
        va
    );
    Ok(())
}

/// Asserts the flat table holds the oracle's nodes: as many, in the same
/// frames per level, with the same present entries per level.
fn assert_same_nodes(
    mem: &SimPhysMem,
    pt: &PageTable,
    mirror: &FlatMirror,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(mirror.node_count(), mem.table_frame_count());
    prop_assert_eq!(PtCensus::collect(mirror), pt.census(mem));
    Ok(())
}

/// How a generated map request is perturbed before it is issued.
#[derive(Debug, Clone, Copy)]
enum Perturb {
    /// Issued as built: aligned, in range.
    None,
    /// The VA is moved off its page-size alignment.
    MisalignedVa,
    /// The frame is moved off its page-size alignment.
    MisalignedFrame,
    /// The VA gets a bit above the paging mode's width.
    OutOfRange,
}

fn perturb() -> impl Strategy<Value = Perturb> {
    (0u32..16).prop_map(|pick| match pick {
        0..=12 => Perturb::None,
        13 => Perturb::MisalignedVa,
        14 => Perturb::MisalignedFrame,
        _ => Perturb::OutOfRange,
    })
}

/// A node placer shaped like the OS's ASAP policy: PL1 and PL2 nodes sit in
/// reserved regions at `base + (VA >> coverage)` — sorted by the VA they
/// map — and every other node comes from a bump allocator.
#[derive(Debug, Clone)]
struct AsapLikePlacer {
    scatter: BumpNodeAllocator,
}

impl AsapLikePlacer {
    const PL1_BASE: u64 = 0x40_0000_0000;
    const PL2_BASE: u64 = 0x80_0000_0000;
}

impl PtNodeAllocator for AsapLikePlacer {
    fn alloc_node(&mut self, level: PtLevel, va: VirtAddr) -> PhysFrameNum {
        let index = va.raw() >> (level.index_shift() + 9);
        match level {
            PtLevel::Pl1 => PhysFrameNum::new(Self::PL1_BASE + index),
            PtLevel::Pl2 => PhysFrameNum::new(Self::PL2_BASE + index),
            _ => self.scatter.alloc_node(level, va),
        }
    }
}

/// Either node allocator, so one table and its twin can draw identical
/// frames from two clones.
#[derive(Debug, Clone)]
enum Placer {
    Bump(BumpNodeAllocator),
    AsapLike(AsapLikePlacer),
}

impl PtNodeAllocator for Placer {
    fn alloc_node(&mut self, level: PtLevel, va: VirtAddr) -> PhysFrameNum {
        match self {
            Placer::Bump(a) => a.alloc_node(level, va),
            Placer::AsapLike(a) => a.alloc_node(level, va),
        }
    }
}

/// Asserts two simulated memories hold the same table frames with the same
/// present entries.
fn assert_same_mem(a: &SimPhysMem, b: &SimPhysMem) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.table_frame_count(), b.table_frame_count());
    for (frame, fa) in a.iter_table_frames() {
        let Some(fb) = b.table_frame(frame) else {
            return Err(TestCaseError::fail(format!("table frame {frame} missing")));
        };
        let ea: Vec<_> = fa.iter_present().collect();
        let eb: Vec<_> = fb.iter_present().collect();
        prop_assert_eq!(ea, eb, "entries of table frame {} differ", frame);
    }
    Ok(())
}

/// Asserts two mirrors answer `translate`, `walk_fixed` and `is_mapped`
/// alike at `va`, and that the residency bitmap agrees with translation.
fn assert_same_answers(
    a: &FlatMirror,
    b: &FlatMirror,
    va: VirtAddr,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        a.translate(va),
        b.translate(va),
        "{} translate at {}",
        what,
        va
    );
    prop_assert_eq!(
        a.walk_fixed(va),
        b.walk_fixed(va),
        "{} walk at {}",
        what,
        va
    );
    prop_assert_eq!(
        a.is_mapped(va),
        b.is_mapped(va),
        "{} is_mapped at {}",
        what,
        va
    );
    prop_assert_eq!(
        a.is_mapped(va),
        a.translate(va).is_some(),
        "{} residency vs translate at {}",
        what,
        va
    );
    Ok(())
}

/// The request's frame: page-size aligned, distinct per request index.
fn frame_for(i: usize, size: PageSize) -> PhysFrameNum {
    PhysFrameNum::new((0x100_000 + i as u64 * 0x4_0000) & !(size.base_pages() - 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The flat table's one-descent map is the radix map, step by step:
    /// random 4K/2M/1G maps (overlapping, misaligned and out-of-range ones
    /// included) under the bump allocator or an ASAP-shaped placer, through
    /// `FlatMirror::map` on one side and `PageTable::map` on the oracle,
    /// return the same results and leave the same nodes, entries and
    /// answers. A second flat table synced from the oracle after each map
    /// (`sync_va`), and one rebuilt from it (`mirror_of`), answer alike.
    #[test]
    fn flat_map_matches_radix_map_then_sync(
        ops in proptest::collection::vec((map_req(), perturb()), 1..24),
        five_level in (0u32..2).prop_map(|b| b == 1),
        asap_like in (0u32..2).prop_map(|b| b == 1),
    ) {
        let mode = if five_level { PagingMode::FiveLevel } else { PagingMode::FourLevel };
        let scatter = BumpNodeAllocator::new(PhysFrameNum::new(0x10_000));
        let mut alloc_a = if asap_like {
            Placer::AsapLike(AsapLikePlacer { scatter })
        } else {
            Placer::Bump(scatter)
        };
        let mut alloc_b = alloc_a.clone();
        // Side A: the flat table, as demand paging writes it.
        let mut flat_a = FlatMirror::new(mode, &mut alloc_a);
        // Side B: the radix oracle, and a flat table synced from it.
        let mut mem_b = SimPhysMem::new();
        let mut pt_b = PageTable::new(mode, &mut mem_b, &mut alloc_b);
        let mut flat_b = mirror_of(&mem_b, &pt_b);
        let mut probes = Vec::new();
        for (i, (req, how)) in ops.iter().enumerate() {
            let mut va = req.va();
            let align = req.size.base_pages();
            let mut frame = frame_for(i, req.size);
            match how {
                Perturb::None => {}
                Perturb::MisalignedVa => {
                    let off = if req.size == PageSize::Size4K { 0x8 } else { 0x1000 };
                    va = VirtAddr::new(va.raw() + off).unwrap();
                }
                Perturb::MisalignedFrame if align > 1 => frame = frame.add(1),
                Perturb::MisalignedFrame => {}
                Perturb::OutOfRange => {
                    va = VirtAddr::new_unchecked(va.raw() | 1 << mode.va_bits());
                }
            }
            let flags = PteFlags::user_data();
            let got = flat_a.map(&mut alloc_a, va, frame, req.size, flags);
            let want = pt_b.map(&mut mem_b, &mut alloc_b, va, frame, req.size, flags);
            sync_va(&mut flat_b, &mem_b, &pt_b, va);
            prop_assert_eq!(got, want, "map #{} of {:?} at {}", i, req.size, va);
            assert_same_nodes(&mem_b, &pt_b, &flat_a)?;
            assert_same_nodes(&mem_b, &pt_b, &flat_b)?;
            let rebuilt = mirror_of(&mem_b, &pt_b);
            prop_assert_eq!(rebuilt.node_count(), flat_a.node_count());
            probes.extend(probes_for(va));
            // The oracle rebuilt from side A's translations, in side A's
            // node frames, is the oracle built by the maps, entry for entry.
            let (mem_a, _) = radix_of(&flat_a, probes.iter().copied());
            assert_same_mem(&mem_a, &mem_b)?;
            for &probe in &probes {
                assert_same_answers(&flat_a, &flat_b, probe, "map vs map+sync")?;
                assert_same_answers(&flat_a, &rebuilt, probe, "map vs rebuild")?;
                assert_equivalent(&mem_b, &pt_b, &flat_a, probe)?;
            }
        }
    }

    /// Arbitrary mixes of 4K/2M/1G mappings with arbitrary sharing of node
    /// chains, under both paging modes, conflicting maps included: a flat
    /// table synced from the oracle map by map, and one rebuilt from it
    /// wholesale, stay exact.
    #[test]
    fn flat_matches_radix_for_arbitrary_layouts(
        reqs in proptest::collection::vec(map_req(), 1..24),
        five_level in (0u32..2).prop_map(|b| b == 1),
    ) {
        let mode = if five_level { PagingMode::FiveLevel } else { PagingMode::FourLevel };
        let mut mem = SimPhysMem::new();
        let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x10_000));
        let mut pt = PageTable::new(mode, &mut mem, &mut alloc);
        let mut mirror = mirror_of(&mem, &pt);
        let mut mapped = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            let va = req.va();
            // Conflicts with earlier large pages are part of the generated
            // layout space — a failed map must leave both tables coherent.
            let _ = pt.map(&mut mem, &mut alloc, va, frame_for(i, req.size), req.size,
                           PteFlags::user_data());
            sync_va(&mut mirror, &mem, &pt, va);
            mapped.push(va);
        }
        for va in &mapped {
            for probe in probes_for(*va) {
                assert_equivalent(&mem, &pt, &mirror, probe)?;
            }
        }
        assert_same_nodes(&mem, &pt, &mirror)?;
        // A wholesale rebuild reaches the same table.
        let rebuilt = mirror_of(&mem, &pt);
        for va in &mapped {
            assert_equivalent(&mem, &pt, &rebuilt, *va)?;
        }
        assert_same_nodes(&mem, &pt, &rebuilt)?;
    }

    /// The census read from the flat table equals the oracle's census —
    /// table pages, present entries and node frames per level — on random
    /// map sequences with 2 MiB and 1 GiB leaves, under both placers.
    #[test]
    fn flat_census_matches_radix_census(
        reqs in proptest::collection::vec(map_req(), 1..48),
        five_level in (0u32..2).prop_map(|b| b == 1),
        asap_like in (0u32..2).prop_map(|b| b == 1),
    ) {
        let mode = if five_level { PagingMode::FiveLevel } else { PagingMode::FourLevel };
        let scatter = BumpNodeAllocator::new(PhysFrameNum::new(0x10_000));
        let mut alloc_a = if asap_like {
            Placer::AsapLike(AsapLikePlacer { scatter })
        } else {
            Placer::Bump(scatter)
        };
        let mut alloc_b = alloc_a.clone();
        let mut flat = FlatMirror::new(mode, &mut alloc_a);
        let mut mem = SimPhysMem::new();
        let mut pt = PageTable::new(mode, &mut mem, &mut alloc_b);
        for (i, req) in reqs.iter().enumerate() {
            let flags = PteFlags::user_data();
            let frame = frame_for(i, req.size);
            let got = flat.map(&mut alloc_a, req.va(), frame, req.size, flags);
            let want = pt.map(&mut mem, &mut alloc_b, req.va(), frame, req.size, flags);
            prop_assert_eq!(got, want);
        }
        let census = PtCensus::collect(&flat);
        let oracle = pt.census(&mem);
        prop_assert_eq!(&census, &oracle);
        for level in PtLevel::ALL {
            prop_assert_eq!(census.contiguity_at(level), oracle.contiguity_at(level));
        }
        prop_assert_eq!(census.contiguity_total(), oracle.contiguity_total());
    }

    /// Real demand-paged layouts: a process touching arbitrary heap pages
    /// (buddy-scattered node placement, ASAP on and off) holds exactly the
    /// oracle built from its translations in its node frames.
    #[test]
    fn flat_matches_radix_for_process_layouts(
        offsets in proptest::collection::btree_set(0u64..16_384, 1..32),
        seed in 0u64..500,
        asap in (0u32..2).prop_map(|b| b == 1),
    ) {
        let asap_cfg = if asap { AsapOsConfig::pl1_and_pl2() } else { AsapOsConfig::disabled() };
        let mut p = Process::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(128))
                .with_asap(asap_cfg)
                .with_seed(seed),
        );
        let heap = *p.vma_of_kind(VmaKind::Heap).unwrap();
        let vas: Vec<VirtAddr> = offsets
            .iter()
            .map(|o| VirtAddr::new(heap.start().raw() + o * 4096).unwrap())
            .collect();
        for va in &vas {
            p.touch(*va).unwrap();
        }
        let (mem, pt) = radix_of(p.flat_mirror(), vas.iter().copied());
        assert_same_nodes(&mem, &pt, p.flat_mirror())?;
        prop_assert_eq!(p.census(), pt.census(&mem));
        for va in &vas {
            for probe in probes_for(*va) {
                assert_equivalent(&mem, &pt, p.flat_mirror(), probe)?;
            }
        }
    }

    /// Virt nested mode: the host-dimension (EPT) table — identity-backed,
    /// 4K or 2M host pages — holds exactly the oracle built from its
    /// translations for every gPA the guest's node chain and data pages
    /// produce.
    #[test]
    fn flat_matches_radix_for_nested_layouts(
        offsets in proptest::collection::btree_set(0u64..4_096, 1..16),
        seed in 0u64..500,
        host_2m in (0u32..2).prop_map(|b| b == 1),
    ) {
        let ept_cfg = if host_2m { EptConfig::default().host_2m_pages() } else { EptConfig::default() };
        let mut vm = VirtualMachine::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(64))
                .with_compact_phys()
                .with_seed(seed),
            ept_cfg,
        );
        let heap = *vm.guest().vma_of_kind(VmaKind::Heap).unwrap();
        let vas: Vec<VirtAddr> = offsets
            .iter()
            .map(|o| VirtAddr::new(heap.start().raw() + o * 4096).unwrap())
            .collect();
        for va in &vas {
            vm.touch(*va).unwrap();
        }
        // Every gPA the host table backs: each data page, and every guest
        // PT node address (itself a walked gPA).
        let mut gpas = Vec::new();
        for va in &vas {
            let gpa = vm.guest().translate(*va).unwrap().phys_addr(*va);
            gpas.push(Ept::gpa_as_va(gpa));
            for step in &vm.guest().walk(*va).steps {
                gpas.push(Ept::gpa_as_va(step.entry_addr));
            }
        }
        let ept = vm.ept().flat_mirror();
        let (mem, pt) = radix_of(ept, gpas.iter().copied());
        assert_same_nodes(&mem, &pt, ept)?;
        prop_assert_eq!(vm.ept().census(), pt.census(&mem));
        for &gpa in &gpas {
            for probe in probes_for(gpa) {
                assert_equivalent(&mem, &pt, ept, probe)?;
            }
        }
    }
}

/// The timing model cannot tell the tables apart: an ASAP MMU walking the
/// oracle (rebuilt from a demand-paged process's translations in its node
/// frames) and one walking the process's flat table report identical
/// outcomes — paths, latencies, per-level sources and prefetch counts —
/// over a cold-then-warm access sequence.
#[test]
fn mmu_walks_radix_and_flat_alike() {
    let mut p = Process::new(
        ProcessConfig::new(Asid(1))
            .with_heap(ByteSize::mib(128))
            .with_asap(AsapOsConfig::pl1_and_pl2())
            .with_seed(5),
    );
    let heap = p.vma_of_kind(VmaKind::Heap).unwrap().start();
    let vas: Vec<VirtAddr> = (0..64u64)
        .map(|i| VirtAddr::new(heap.raw() + (i * 0x9e37 % 32_768) * 4096).unwrap())
        .collect();
    for va in &vas {
        p.touch(*va).unwrap();
    }
    let (mem, pt) = radix_of(p.flat_mirror(), vas.iter().copied());
    let radix = RadixSource { mem: &mem, pt: &pt };
    let mmu = || {
        let mut m = Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1_p2()));
        m.load_context(&p);
        m
    };
    let (mut on_radix, mut on_flat) = (mmu(), mmu());
    for va in vas.iter().chain(&vas) {
        let a = on_radix.translate(&radix, p.asid(), *va, None);
        let b = on_flat.translate(p.flat_mirror(), p.asid(), *va, None);
        assert_eq!(a, b, "outcomes diverged at {va}");
    }
}
