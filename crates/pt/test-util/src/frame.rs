//! Sparse storage for one page-table page (512 entries).

use asap_pt::Pte;
use asap_types::ENTRIES_PER_TABLE;

/// Threshold (in populated entries) at which a frame's representation is
/// promoted from a sorted vector to a dense 512-entry array.
const DENSE_THRESHOLD: usize = 64;

#[derive(Debug, Clone)]
enum Repr {
    /// Few populated entries: `(index, raw)` pairs sorted by index. Binary
    /// search over one or two contiguous cache lines beats a pointer-chasing
    /// tree at these sizes, and the demand-fault path reads/writes entries
    /// constantly while datasets page in.
    Sparse(Vec<(u16, u64)>),
    /// Densely populated: full array (absent entries are raw zero, i.e.
    /// not-present, exactly as on hardware).
    Dense(Box<[u64; 512]>),
}

/// One 4 KiB page of page-table entries.
///
/// Real page tables are mostly sparse — a PL1 page whose 2 MiB of virtual
/// coverage has only a handful of faulted-in pages holds mostly zero
/// entries. `PtFrame` stores such pages as maps and transparently promotes
/// to a dense array when they fill up, so a simulated 400 GB memcached page
/// table fits comfortably in host memory.
///
/// # Examples
///
/// ```
/// use asap_pt::{Pte, PteFlags};
/// use asap_pt_test_util::PtFrame;
/// use asap_types::PhysFrameNum;
///
/// let mut frame = PtFrame::new();
/// assert!(!frame.read(7).is_present());
/// frame.write(7, Pte::new(PhysFrameNum::new(1), PteFlags::user_data()));
/// assert!(frame.read(7).is_present());
/// assert_eq!(frame.populated(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PtFrame {
    repr: Repr,
}

impl PtFrame {
    /// Creates a frame of all-zero (not-present) entries.
    #[must_use]
    pub fn new() -> Self {
        Self {
            repr: Repr::Sparse(Vec::new()),
        }
    }

    /// Reads the entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 512`.
    #[must_use]
    pub fn read(&self, index: u64) -> Pte {
        assert!(index < ENTRIES_PER_TABLE, "table index out of range");
        let raw = match &self.repr {
            Repr::Sparse(pairs) => pairs
                .binary_search_by_key(&(index as u16), |&(i, _)| i)
                .map_or(0, |pos| pairs[pos].1),
            Repr::Dense(arr) => arr[index as usize],
        };
        Pte::from_raw(raw)
    }

    /// Writes the entry at `index`.
    ///
    /// Writing a not-present (zero) entry removes the slot from the sparse
    /// representation.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 512`.
    pub fn write(&mut self, index: u64, pte: Pte) {
        assert!(index < ENTRIES_PER_TABLE, "table index out of range");
        match &mut self.repr {
            Repr::Sparse(pairs) => {
                let key = index as u16;
                match pairs.binary_search_by_key(&key, |&(i, _)| i) {
                    Ok(pos) => {
                        if pte.raw() == 0 {
                            pairs.remove(pos);
                        } else {
                            pairs[pos].1 = pte.raw();
                        }
                    }
                    Err(pos) => {
                        if pte.raw() != 0 {
                            pairs.insert(pos, (key, pte.raw()));
                            if pairs.len() > DENSE_THRESHOLD {
                                self.promote();
                            }
                        }
                    }
                }
            }
            Repr::Dense(arr) => arr[index as usize] = pte.raw(),
        }
    }

    fn promote(&mut self) {
        if let Repr::Sparse(pairs) = &self.repr {
            let mut arr = Box::new([0u64; 512]);
            for &(i, raw) in pairs {
                arr[i as usize] = raw;
            }
            self.repr = Repr::Dense(arr);
        }
    }

    /// Number of present (non-zero) entries.
    #[must_use]
    pub fn populated(&self) -> usize {
        match &self.repr {
            Repr::Sparse(pairs) => pairs.len(),
            Repr::Dense(arr) => arr.iter().filter(|raw| **raw != 0).count(),
        }
    }

    /// Whether every entry is not-present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.populated() == 0
    }

    /// Iterates `(index, pte)` over present entries in index order.
    pub fn iter_present(&self) -> Box<dyn Iterator<Item = (u64, Pte)> + '_> {
        match &self.repr {
            Repr::Sparse(pairs) => Box::new(
                pairs
                    .iter()
                    .map(|&(i, raw)| (u64::from(i), Pte::from_raw(raw))),
            ),
            Repr::Dense(arr) => Box::new(
                arr.iter()
                    .enumerate()
                    .filter(|(_, raw)| **raw != 0)
                    .map(|(i, &raw)| (i as u64, Pte::from_raw(raw))),
            ),
        }
    }
}

impl Default for PtFrame {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_pt::PteFlags;
    use asap_types::PhysFrameNum;

    fn pte(n: u64) -> Pte {
        Pte::new(PhysFrameNum::new(n), PteFlags::user_data())
    }

    #[test]
    fn fresh_frame_is_all_not_present() {
        let f = PtFrame::new();
        for i in [0, 1, 255, 511] {
            assert!(!f.read(i).is_present());
        }
        assert!(f.is_empty());
    }

    #[test]
    fn write_read_roundtrip() {
        let mut f = PtFrame::new();
        f.write(42, pte(0x1000));
        assert_eq!(f.read(42), pte(0x1000));
        assert_eq!(f.populated(), 1);
    }

    #[test]
    fn write_zero_clears() {
        let mut f = PtFrame::new();
        f.write(3, pte(5));
        f.write(3, Pte::not_present());
        assert!(f.is_empty());
    }

    #[test]
    fn promotion_preserves_contents() {
        let mut f = PtFrame::new();
        for i in 0..200u64 {
            f.write(i, pte(i + 1));
        }
        assert_eq!(f.populated(), 200);
        for i in 0..200u64 {
            assert_eq!(f.read(i), pte(i + 1), "entry {i} after promotion");
        }
        assert!(!f.read(300).is_present());
        // Dense representation still supports clears.
        f.write(0, Pte::not_present());
        assert_eq!(f.populated(), 199);
    }

    #[test]
    fn iter_present_in_order() {
        let mut f = PtFrame::new();
        for i in [9u64, 2, 500] {
            f.write(i, pte(i));
        }
        let got: Vec<u64> = f.iter_present().map(|(i, _)| i).collect();
        assert_eq!(got, vec![2, 9, 500]);
    }

    #[test]
    fn iter_present_dense_in_order() {
        let mut f = PtFrame::new();
        for i in (0..512u64).step_by(4) {
            f.write(i, pte(i + 7));
        }
        let got: Vec<u64> = f.iter_present().map(|(i, _)| i).collect();
        let expected: Vec<u64> = (0..512u64).step_by(4).collect();
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_out_of_range_panics() {
        let _ = PtFrame::new().read(512);
    }
}
