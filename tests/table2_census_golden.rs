//! Golden rows for Table 2's page-table census.
//!
//! Table 2 (VMAs, PT pages and contiguous physical regions) is analytic: no
//! simulation runs, so no `BENCH_results.json` row guards it. This test
//! builds each paper workload's process the way the Table 2 renderer does
//! (`render_pt_census` in `crates/bench/src/lib.rs`: ASID 1, ASAP off,
//! process seed 7, stream seed 9, 150,000 accesses) and pins the census:
//! per level the table pages, present entries and contiguity of the node
//! frames, the all-level contiguity the table prints, and a digest of each
//! level's node-frame set as the walks of the touched pages see it.

use asap::os::AsapOsConfig;
use asap::pt::PtCensus;
use asap::types::{Asid, PtLevel, VirtAddr};
use asap::workloads::{AccessStream, WorkloadSpec};
use std::collections::BTreeSet;

/// Accesses drawn per workload, as in the renderer.
const TOUCHES: usize = 150_000;

/// One workload's census, as printed by [`snapshot`].
#[rustfmt::skip]
const GOLDEN: &[&str] = &[
    "mcf vmas=16 cover99=8 pages=854 regions=157 frames=854 max_run=44 PL4=1/1/1/1/81bc96fedf01368c PL3=1/2/1/1/66b605df799e9d93 PL2=2/850/2/1/58deb04dc72a5e65 PL1=850/91126/157/44/6bc708cc53677e6b",
    "canneal vmas=18 cover99=14 pages=456 regions=73 frames=456 max_run=44 PL4=1/2/1/1/81bc96fedf01368c PL3=2/2/2/1/49bba1b8adef3e77 PL2=2/451/2/1/72e30054cbc82e77 PL1=451/70953/73/44/3b24122821c9526b",
    "bfs vmas=14 cover99=1 pages=7245 regions=469 frames=7245 max_run=86 PL4=1/1/1/1/99bacf9cf42a89fa PL3=1/60/1/1/8c6e50f52dda3a59 PL2=60/7183/60/1/4f62ff08d880c1ca PL1=7183/11497/520/75/ea7a6806fcd5d4f5",
    "pagerank vmas=18 cover99=1 pages=12548 regions=666 frames=12548 max_run=114 PL4=1/1/1/1/99bacf9cf42a89fa PL3=1/60/1/1/8c6e50f52dda3a59 PL2=60/12486/60/1/669dee2de5e10416 PL1=12486/18072/717/114/34d1b2d3ba2721ec",
    "mc80 vmas=26 cover99=6 pages=12771 regions=547 frames=12771 max_run=114 PL4=1/2/1/1/99bacf9cf42a89fa PL3=2/81/2/1/c4c82aaa35f8107f PL2=81/12687/81/1/052fd9a365f987ec PL1=12687/71624/615/114/9078775904dd241c",
    "mc400 vmas=33 cover99=13 pages=15011 regions=382 frames=15011 max_run=240 PL4=1/2/1/1/9a31aa26bc466f7a PL3=2/401/2/1/3ff236c2ec169ddf PL2=401/14607/401/1/bc3cbae4971be2ea PL1=14607/71719/763/213/9ab85c4c306a3411",
    "redis vmas=7 cover99=1 pages=24073 regions=1897 frames=24073 max_run=81 PL4=1/1/1/1/99bacf9cf42a89fa PL3=1/50/1/1/8c6e50f52dda3a59 PL2=50/24021/50/1/88465e132be19168 PL1=24021/70774/1935/81/1d5ff9331ff7555d",
];

/// FNV-1a over the little-endian bytes of `frames` (sorted, so the digest
/// names the set, not a traversal order).
fn digest(frames: &BTreeSet<u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in frames {
        for b in f.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One line per workload: VMA counts, the all-level contiguity, and per
/// level `pages/entries/regions/max_run/frame digest`.
fn snapshot(w: &WorkloadSpec) -> String {
    let mut p = w.build_process(Asid(1), AsapOsConfig::disabled(), 7);
    let mut stream = w.build_stream(&p, 9);
    let mut touched: BTreeSet<u64> = BTreeSet::new();
    for _ in 0..TOUCHES {
        let va = stream.next_va();
        if p.touch(va).is_ok() {
            touched.insert(va.page_base().raw());
        }
    }
    let census: PtCensus = p.census();
    // Node frames per level (index = depth - 1), from the walks of every
    // touched page: each table node lies on some touched page's path.
    let mut walked: [BTreeSet<u64>; 5] = Default::default();
    for &raw in &touched {
        let trace = p.walk(VirtAddr::new(raw).unwrap());
        assert!(
            !trace.is_fault(),
            "{}: touched page {raw:#x} unmapped",
            w.name
        );
        for step in &trace.steps {
            walked[(step.level.depth() - 1) as usize].insert(step.entry_addr.frame_number().raw());
        }
    }
    let total = census.contiguity_total();
    let mut line = format!(
        "{} vmas={} cover99={} pages={} regions={} frames={} max_run={}",
        w.name,
        p.vmas().len(),
        p.vmas().vmas_covering(0.99),
        census.total_pages(),
        total.regions,
        total.frames,
        total.max_run,
    );
    for level in [PtLevel::Pl4, PtLevel::Pl3, PtLevel::Pl2, PtLevel::Pl1] {
        let c = census.contiguity_at(level);
        let frames = &walked[(level.depth() - 1) as usize];
        assert_eq!(
            census.pages_at(level),
            frames.len() as u64,
            "{}: census and walks disagree on {level} node count",
            w.name
        );
        line.push_str(&format!(
            " {level}={}/{}/{}/{}/{:016x}",
            census.pages_at(level),
            census.entries_at(level),
            c.regions,
            c.max_run,
            digest(frames),
        ));
    }
    line
}

/// Every paper workload's census equals its golden line.
#[test]
fn table2_census_matches_golden() {
    let got: Vec<String> = WorkloadSpec::paper_suite().iter().map(snapshot).collect();
    for line in &got {
        println!("    \"{line}\",");
    }
    assert_eq!(
        got, GOLDEN,
        "Table 2 census drifted (actual lines printed above)"
    );
}
