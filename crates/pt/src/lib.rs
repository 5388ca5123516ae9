//! A bit-accurate x86-64 page table for the ASAP reproduction.
//!
//! The paper (§2.1, Fig. 1) builds on the standard Linux/x86 four-level page
//! table; its §3.5 extension anticipates five-level tables. This crate
//! implements that substrate:
//!
//! * [`Pte`] — 64-bit page-table entries with the architectural flag bits
//!   (present, writable, user, accessed, dirty, page-size, no-execute);
//! * [`FlatMirror`] — the page table itself: map and translate with 4 KiB,
//!   2 MiB and 1 GiB pages under both [`PagingMode`]s, stored as one arena
//!   of nodes that each record their physical frame. Node placement is
//!   delegated to a [`PtNodeAllocator`] (the hook through which the OS crate
//!   implements the paper's contiguous, sorted ASAP regions — or the
//!   scattered buddy baseline). Data pages need no backing store: the
//!   simulator cares about *addresses*, not contents;
//! * [`WalkSource::walk_fixed`] — the hardware page walk, recording the
//!   physical address of every node it visits ([`FixedWalk`]), which is
//!   exactly the input the walk-timing model needs;
//! * [`PtCensus`] — per-level page counts, footprints and physical
//!   contiguous-region counts (the paper's Table 2).
//!
//! A hash-keyed radix model of the same table (`PageTable` over simulated
//! physical memory, with a software walker) lives in the
//! `asap-pt-test-util` crate as the oracle the differential tests compare
//! [`FlatMirror`] against. No library or binary depends on it.
//!
//! # Examples
//!
//! ```
//! use asap_pt::{BumpNodeAllocator, FlatMirror, PteFlags, WalkSource};
//! use asap_types::{PageSize, PagingMode, PhysFrameNum, VirtAddr};
//!
//! let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x100));
//! let mut pt = FlatMirror::new(PagingMode::FourLevel, &mut alloc);
//!
//! let va = VirtAddr::new(0x7000_0000_0000).unwrap();
//! pt.map(&mut alloc, va, PhysFrameNum::new(0x42), PageSize::Size4K,
//!        PteFlags::user_data()).unwrap();
//!
//! let t = pt.translate(va).unwrap();
//! assert_eq!(t.frame, PhysFrameNum::new(0x42));
//! // The walk reads PL4, PL3, PL2 and PL1, each in its node's frame.
//! let walk = pt.walk_fixed(va);
//! assert_eq!(walk.steps().len(), 4);
//! assert_eq!(walk.steps()[0].entry_addr.frame_number(), PhysFrameNum::new(0x100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod census;
mod entry;
mod error;
mod flat;
mod node_alloc;
mod walk;

pub use census::{ContigStats, PtCensus};
pub use entry::{Pte, PteFlags};
pub use error::PtError;
// The deterministic hasher moved to `asap-types` (its shared home, so
// allocator/OS/contender crates use the same maps); re-exported here for
// the pre-existing `asap_pt::FastMap` import paths.
pub use asap_types::{FastBuildHasher, FastHasher, FastMap};
pub use flat::{FlatMirror, WalkSource};
pub use node_alloc::{BumpNodeAllocator, PtNodeAllocator};
pub use walk::{FixedWalk, Translation, WalkOutcome, WalkStep, WalkTrace, MAX_WALK_DEPTH};

pub use asap_types::PagingMode;
