//! A binary buddy allocator in the style of Linux's page allocator.

use crate::AllocError;
use asap_types::{FastMap, PhysFrameNum};
use std::collections::BTreeSet;

/// Largest supported order: an order-10 block is 1024 frames = 4 MiB, the
/// Linux `MAX_ORDER` for most configurations of the era the paper targets.
pub const MAX_ORDER: u32 = 10;

/// A binary buddy allocator over a contiguous physical frame range.
///
/// Free blocks are kept per order in address-sorted sets; allocation takes
/// the lowest-addressed block of the smallest sufficient order and splits it
/// down, and frees eagerly coalesce with their buddies — the behaviour that
/// produces the partial contiguity (short runs, many regions) of the paper's
/// Table 2.
///
/// # Examples
///
/// ```
/// use asap_alloc::BuddyAllocator;
/// use asap_types::PhysFrameNum;
///
/// let mut buddy = BuddyAllocator::new(PhysFrameNum::new(0), 1024);
/// // First-fit is lowest-address: two single frames come out adjacent.
/// let a = buddy.alloc(0).unwrap();
/// let b = buddy.alloc(0).unwrap();
/// assert_eq!(b.raw(), a.raw() + 1);
/// // An order-4 block (16 frames) is 16-frame aligned.
/// let big = buddy.alloc(4).unwrap();
/// assert_eq!(big.raw() % 16, 0);
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    base: u64,
    num_frames: u64,
    /// Free block start offsets (relative to `base`), per order.
    free_lists: Vec<BTreeSet<u64>>,
    /// Currently allocated blocks: start offset -> order.
    allocated: FastMap<u64, u32>,
    free_frames: u64,
}

impl BuddyAllocator {
    /// Creates an allocator managing `num_frames` frames starting at `base`.
    ///
    /// The range is seeded with the maximal aligned blocks that tile it, so
    /// non-power-of-two ranges are supported.
    ///
    /// # Panics
    ///
    /// Panics if `num_frames` is zero.
    #[must_use]
    pub fn new(base: PhysFrameNum, num_frames: u64) -> Self {
        assert!(num_frames > 0, "cannot manage an empty range");
        let mut a = Self {
            base: base.raw(),
            num_frames,
            free_lists: vec![BTreeSet::new(); (MAX_ORDER + 1) as usize],
            allocated: FastMap::default(),
            free_frames: num_frames,
        };
        // Tile the range greedily with the largest aligned blocks.
        let mut off = 0u64;
        while off < num_frames {
            let align_order = if off == 0 {
                MAX_ORDER
            } else {
                off.trailing_zeros().min(MAX_ORDER)
            };
            let mut order = align_order;
            while (1u64 << order) > num_frames - off {
                order -= 1;
            }
            a.free_lists[order as usize].insert(off);
            off += 1 << order;
        }
        a
    }

    /// Number of frames in one block of `order`.
    #[must_use]
    pub const fn block_frames(order: u32) -> u64 {
        1 << order
    }

    /// Allocates a block of `2^order` frames.
    ///
    /// # Errors
    ///
    /// [`AllocError::OrderTooLarge`] if `order > MAX_ORDER`;
    /// [`AllocError::OutOfMemory`] if no block of sufficient size is free.
    pub fn alloc(&mut self, order: u32) -> Result<PhysFrameNum, AllocError> {
        if order > MAX_ORDER {
            return Err(AllocError::OrderTooLarge { order });
        }
        // Find the smallest order with a free block.
        let mut found = None;
        for o in order..=MAX_ORDER {
            if let Some(&off) = self.free_lists[o as usize].iter().next() {
                found = Some((o, off));
                break;
            }
        }
        let (mut o, off) = found.ok_or(AllocError::OutOfMemory { order })?;
        self.free_lists[o as usize].remove(&off);
        // Split down to the requested order, freeing the upper halves.
        while o > order {
            o -= 1;
            let buddy = off + (1 << o);
            self.free_lists[o as usize].insert(buddy);
        }
        self.allocated.insert(off, order);
        self.free_frames -= 1 << order;
        Ok(PhysFrameNum::new(self.base + off))
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc`].
    ///
    /// Coalesces with free buddies up to `MAX_ORDER`.
    ///
    /// # Panics
    ///
    /// Panics on double free or order mismatch — these are simulator bugs.
    pub fn free(&mut self, frame: PhysFrameNum, order: u32) {
        let off = frame.raw() - self.base;
        #[expect(clippy::panic, reason = "a double or wild free (# Panics)")]
        match self.allocated.remove(&off) {
            Some(recorded) => assert_eq!(
                recorded, order,
                "free with wrong order: allocated {recorded}, freed {order}"
            ),
            None => panic!("double free or wild free at {frame}"),
        }
        self.free_frames += 1 << order;
        let mut off = off;
        let mut o = order;
        while o < MAX_ORDER {
            let buddy = off ^ (1 << o);
            // Coalescing is only possible if the buddy lies inside the range
            // and is currently free at exactly this order.
            if buddy + (1 << o) <= self.num_frames && self.free_lists[o as usize].remove(&buddy) {
                off = off.min(buddy);
                o += 1;
            } else {
                break;
            }
        }
        self.free_lists[o as usize].insert(off);
    }

    /// Total free frames.
    #[must_use]
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Total frames under management.
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.num_frames
    }

    /// Currently outstanding allocations.
    #[must_use]
    pub fn allocated_blocks(&self) -> usize {
        self.allocated.len()
    }

    /// Number of free blocks at each order — the classic buddy fragmentation
    /// picture.
    #[must_use]
    pub fn free_blocks_per_order(&self) -> [usize; (MAX_ORDER + 1) as usize] {
        let mut out = [0usize; (MAX_ORDER + 1) as usize];
        for (o, list) in self.free_lists.iter().enumerate() {
            out[o] = list.len();
        }
        out
    }

    /// The largest order that currently has a free block, if any.
    #[must_use]
    pub fn largest_free_order(&self) -> Option<u32> {
        (0..=MAX_ORDER)
            .rev()
            .find(|&o| !self.free_lists[o as usize].is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_range_starts_free() {
        let b = BuddyAllocator::new(PhysFrameNum::new(100), 2048);
        assert_eq!(b.free_frames(), 2048);
        assert_eq!(b.largest_free_order(), Some(MAX_ORDER));
    }

    #[test]
    fn non_power_of_two_range_tiles() {
        let b = BuddyAllocator::new(PhysFrameNum::new(0), 1000);
        assert_eq!(b.free_frames(), 1000);
        let blocks = b.free_blocks_per_order();
        let total: u64 = blocks
            .iter()
            .enumerate()
            .map(|(o, n)| (*n as u64) << o)
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn alloc_respects_alignment() {
        let mut b = BuddyAllocator::new(PhysFrameNum::new(0), 4096);
        for order in 0..=MAX_ORDER {
            let f = b.alloc(order).unwrap();
            assert_eq!(f.raw() % (1 << order), 0, "order {order} misaligned");
        }
    }

    #[test]
    fn alloc_is_lowest_address_first() {
        let mut b = BuddyAllocator::new(PhysFrameNum::new(0), 1024);
        let a = b.alloc(0).unwrap();
        let c = b.alloc(0).unwrap();
        let d = b.alloc(0).unwrap();
        assert_eq!((a.raw(), c.raw(), d.raw()), (0, 1, 2));
    }

    #[test]
    fn free_coalesces_back_to_max() {
        let mut b = BuddyAllocator::new(PhysFrameNum::new(0), 1024);
        let mut frames = Vec::new();
        for _ in 0..1024 {
            frames.push(b.alloc(0).unwrap());
        }
        assert_eq!(b.free_frames(), 0);
        assert!(b.alloc(0).is_err());
        for f in frames {
            b.free(f, 0);
        }
        assert_eq!(b.free_frames(), 1024);
        assert_eq!(b.largest_free_order(), Some(MAX_ORDER));
        assert_eq!(b.free_blocks_per_order()[MAX_ORDER as usize], 1);
    }

    #[test]
    fn interleaved_frees_leave_fragmentation() {
        let mut b = BuddyAllocator::new(PhysFrameNum::new(0), 64);
        let frames: Vec<_> = (0..64).map(|_| b.alloc(0).unwrap()).collect();
        // Free every other frame: nothing can coalesce.
        for f in frames.iter().step_by(2) {
            b.free(*f, 0);
        }
        assert_eq!(b.free_frames(), 32);
        assert_eq!(b.largest_free_order(), Some(0));
        // An order-1 request must fail despite 32 free frames.
        assert_eq!(b.alloc(1), Err(AllocError::OutOfMemory { order: 1 }));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(PhysFrameNum::new(0), 64);
        let f = b.alloc(0).unwrap();
        b.free(f, 0);
        b.free(f, 0);
    }

    #[test]
    #[should_panic(expected = "wrong order")]
    fn mismatched_order_free_panics() {
        let mut b = BuddyAllocator::new(PhysFrameNum::new(0), 64);
        let f = b.alloc(2).unwrap();
        b.free(f, 1);
    }

    #[test]
    fn order_too_large_rejected() {
        let mut b = BuddyAllocator::new(PhysFrameNum::new(0), 64);
        assert_eq!(
            b.alloc(MAX_ORDER + 1),
            Err(AllocError::OrderTooLarge {
                order: MAX_ORDER + 1
            })
        );
    }

    #[test]
    fn base_offset_is_applied() {
        let mut b = BuddyAllocator::new(PhysFrameNum::new(5000), 64);
        let f = b.alloc(0).unwrap();
        assert_eq!(f.raw(), 5000);
        b.free(f, 0);
        assert_eq!(b.free_frames(), 64);
    }
}
