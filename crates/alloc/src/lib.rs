//! Physical-memory allocation for the ASAP reproduction: the scatter
//! allocator and contiguous PT reservations.
//!
//! The paper's mechanism hinges on *where* page-table pages land in physical
//! memory:
//!
//! * Baseline Linux scatters PT pages via the buddy allocator, leaving "a
//!   complete lack of correspondence between the order of virtual pages
//!   within a VMA and the physical pages containing PT nodes" (§3.3).
//!   [`ScatterAllocator`] reproduces the *statistical* layout the paper
//!   measured (Table 2's contiguous-region counts) and itself adopted for
//!   its host-side methodology ("mimicking the Linux buddy allocator's
//!   behavior by randomly scattering the PT pages", §4).
//! * ASAP requires each prefetched PT level of a VMA to live in one
//!   contiguous, virtually-sorted region. [`ContiguousReservation`] models
//!   that reservation, including §3.7.2's "holes": when a region cannot be
//!   extended, individual nodes are placed out-of-line and simply lose
//!   acceleration — never correctness.
//!
//! # Examples
//!
//! ```
//! use asap_alloc::{FrameAllocator, ScatterAllocator, ScatterConfig};
//!
//! // memcached-80GB's Table 2 row: 45878 PT pages in 1976 regions.
//! let config = ScatterConfig::from_table2(45878, 1976, 1 << 24, 7);
//! let mut pt_pool = ScatterAllocator::new(config);
//! let a = pt_pool.alloc_frame().unwrap();
//! let b = pt_pool.alloc_frame().unwrap();
//! assert_ne!(a, b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod frame_alloc;
mod region;
mod scatter;

pub use error::AllocError;
pub use frame_alloc::FrameAllocator;
pub use region::{ContiguousReservation, RegionExtendOutcome};
pub use scatter::{ScatterAllocator, ScatterConfig};
