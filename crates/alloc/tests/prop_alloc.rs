//! Property tests: scatter-allocator and reservation invariants.

use asap_alloc::{ContiguousReservation, FrameAllocator, ScatterAllocator, ScatterConfig};
use asap_types::PhysFrameNum;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scatterer never hands out the same frame twice and stays within
    /// the configured physical space.
    #[test]
    fn scatter_unique_and_bounded(seed in 0u64..1000, mean in 1.0f64..32.0) {
        let space = 1u64 << 18;
        let mut alloc = ScatterAllocator::new(ScatterConfig {
            mean_run_len: mean,
            phys_frames: space,
            seed,
        });
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let f = alloc.alloc_frame().unwrap().raw();
            prop_assert!(f < space);
            prop_assert!(seen.insert(f), "duplicate frame {f}");
        }
    }

    /// Reservation indexing: in-line indices are base-plus-offset; holes
    /// resolve to their fallback frames; prefetchability is exactly
    /// "in-line".
    #[test]
    fn reservation_resolution(len in 1u64..256,
                              holes in proptest::collection::btree_set(0u64..256, 0..10)) {
        let base = PhysFrameNum::new(0x4_0000);
        let mut r = ContiguousReservation::new(base, len);
        for (i, &h) in holes.iter().enumerate() {
            r.punch_hole(h, PhysFrameNum::new(0x9_0000 + i as u64));
        }
        for idx in 0..r.len() {
            match r.frame_for_index(idx) {
                Some(f) if holes.contains(&idx) => {
                    prop_assert!(f.raw() >= 0x9_0000);
                    prop_assert!(!r.is_prefetchable(idx));
                }
                Some(f) => {
                    prop_assert_eq!(f.raw(), base.raw() + idx);
                    prop_assert!(r.is_prefetchable(idx));
                }
                None => prop_assert!(false, "index {idx} inside len must resolve"),
            }
        }
    }
}
