//! Quickstart: watch one TLB miss become one overlapped walk.
//!
//! Builds an ASAP-enabled process, walks a cold address with and without
//! prefetching, and prints the per-level timing — the paper's Fig. 4 in
//! miniature.
//!
//! Run with: `cargo run --release --example quickstart`

use asap::core::{AsapHwConfig, Mmu, MmuConfig, TranslationEngine};
use asap::os::{AsapOsConfig, Process, ProcessConfig, VmaKind};
use asap::types::{Asid, ByteSize, VirtAddr};

fn main() {
    // One process, ASAP enabled: the OS reserves contiguous, sorted
    // physical regions for the PL1 and PL2 page-table levels of each VMA.
    let mut process = Process::new(
        ProcessConfig::new(Asid(1))
            .with_heap(ByteSize::mib(256))
            .with_asap(AsapOsConfig::pl1_and_pl2())
            .with_seed(7),
    );
    let heap = process.vma_of_kind(VmaKind::Heap).expect("heap exists");
    println!("process has {} VMAs; heap = {heap}", process.vmas().len());

    // Touch a few pages (demand paging builds the page table).
    let vas: Vec<VirtAddr> = (0..4u64)
        .map(|i| VirtAddr::new(heap.start().raw() + i * (2 << 20)).unwrap())
        .collect();
    for va in &vas {
        process.touch(*va).unwrap();
    }
    println!(
        "OS descriptors exposed to hardware: {}",
        process.vma_descriptors().len()
    );

    // Two identical machines, one with ASAP prefetching.
    let mut baseline = Mmu::new(MmuConfig::default());
    let mut asap = Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1_p2()));
    asap.load_context(&process);

    for (name, mmu) in [("baseline", &mut baseline), ("ASAP P1+P2", &mut asap)] {
        // The walker reads the process's page table, a flat arena of nodes
        // that each record the physical frame the OS placed them in.
        let out = mmu.translate(process.flat_mirror(), process.asid(), vas[0], None);
        let walk = out.walk.expect("cold access walks");
        println!("\n{name}: cold walk took {} cycles", walk.latency);
        for (level, src) in &walk.sources {
            println!("  {level} served by {src}");
        }
        if walk.prefetches_issued > 0 {
            println!("  ({} prefetches issued)", walk.prefetches_issued);
        }
    }
    println!(
        "\nThe PL4/PL3 fetches serialize either way; with ASAP the PL2/PL1\n\
         lines were prefetched at walk start and wait in the L1-D — the\n\
         walk exposes roughly a single memory access (paper §3.1)."
    );
}
