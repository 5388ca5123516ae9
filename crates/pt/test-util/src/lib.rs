//! Test oracles for the page-table crates.
//!
//! * [`contiguity`] — runs of consecutive frames in a frame set, for
//!   assertions on physical layout (the census computes the same metric on
//!   live page tables).
//! * The radix page-table model: [`PageTable`] over [`SimPhysMem`], sparse
//!   simulated physical memory holding page-table pages ([`PtFrame`]), and
//!   [`Walker`], a software page walker that reads every entry from that
//!   memory by address. It was the simulator's page-table store until
//!   [`asap_pt::FlatMirror`] became the only one, and stays as the
//!   independent reference the differential tests compare the flat table
//!   against: [`RadixSource`] puts it behind the same
//!   [`asap_pt::WalkSource`] seam, [`mirror_of`] copies it into a flat
//!   table (and [`sync_va`] one new leaf at a time), and [`radix_of`]
//!   copies a flat table's translations into it, each keeping every node
//!   in its frame.
//!
//! Only tests, benches and examples may depend on this crate: `ci.sh` fails
//! when a library or binary crate has a normal dependency on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flat;
mod frame;
mod phys_mem;
mod table;
mod walker;

pub use flat::{mirror_of, radix_of, sync_va, RadixSource};
pub use frame::PtFrame;
pub use phys_mem::SimPhysMem;
pub use table::PageTable;
pub use walker::Walker;

/// Returns `(contiguous_regions, mean_run_length)` for a set of frame
/// numbers: the number of maximal runs of consecutive frames, and the
/// average frames per run. Duplicates are ignored; an empty slice yields
/// `(0, 0.0)`.
#[must_use]
pub fn contiguity(frames: &[u64]) -> (usize, f64) {
    let mut sorted = frames.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.is_empty() {
        return (0, 0.0);
    }
    let mut regions = 1;
    for pair in sorted.windows(2) {
        if pair[1] != pair[0] + 1 {
            regions += 1;
        }
    }
    (regions, sorted.len() as f64 / regions as f64)
}

#[cfg(test)]
mod tests {
    use super::contiguity;

    #[test]
    fn empty_is_zero() {
        assert_eq!(contiguity(&[]), (0, 0.0));
    }

    #[test]
    fn single_run() {
        let (regions, mean) = contiguity(&[5, 6, 7, 8]);
        assert_eq!(regions, 1);
        assert!((mean - 4.0).abs() < 1e-12);
    }

    #[test]
    fn split_runs_and_duplicates() {
        // {1,2} and {10}: two regions, 3 unique frames, mean 1.5.
        let (regions, mean) = contiguity(&[2, 1, 10, 2]);
        assert_eq!(regions, 2);
        assert!((mean - 1.5).abs() < 1e-12);
    }
}
