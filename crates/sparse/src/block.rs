use crate::SparseError;

/// The sparsity block granularity of a block-sparse matrix.
///
/// The paper selects 128 after benchmarking CUTLASS tile shapes (§5.1.2,
/// Figure 4): blocks this large have enough arithmetic intensity to keep
/// matrix units busy while making metadata costs negligible (one column
/// index per 16384 values). [`BlockSize::PAPER`] is that default; tests and
/// ablations construct other sizes with [`BlockSize::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockSize(usize);

impl BlockSize {
    /// The 128x128 block size selected by the paper.
    pub const PAPER: BlockSize = BlockSize(128);

    /// Creates a block size.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ZeroBlockSize`] if `size == 0`.
    pub fn new(size: usize) -> Result<Self, SparseError> {
        if size == 0 {
            return Err(SparseError::ZeroBlockSize);
        }
        Ok(BlockSize(size))
    }

    /// The block edge length.
    pub fn get(self) -> usize {
        self.0
    }

    /// Number of elements in one block (`size * size`).
    pub fn area(self) -> usize {
        self.0 * self.0
    }

    /// Rounds `n` up to the nearest multiple of the block size.
    ///
    /// This is the padding rule from §5.2: each expert's token group is
    /// padded to a multiple of the block size.
    pub fn round_up(self, n: usize) -> usize {
        n.div_ceil(self.0) * self.0
    }
}

impl Default for BlockSize {
    fn default() -> Self {
        BlockSize::PAPER
    }
}

impl std::fmt::Display for BlockSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{0}x{0}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero() {
        assert_eq!(BlockSize::new(0), Err(SparseError::ZeroBlockSize));
    }

    #[test]
    fn paper_default_is_128() {
        assert_eq!(BlockSize::default(), BlockSize::PAPER);
        assert_eq!(BlockSize::PAPER.get(), 128);
        assert_eq!(BlockSize::PAPER.area(), 16384);
    }

    #[test]
    fn round_up_and_blocks_for() {
        let bs = BlockSize::new(128).unwrap();
        assert_eq!(bs.round_up(0), 0);
        assert_eq!(bs.round_up(1), 128);
        assert_eq!(bs.round_up(128), 128);
        assert_eq!(bs.round_up(129), 256);
        // The blocks needed for `n` elements: two for 129, none for 0.
        assert_eq!(bs.round_up(129) / bs.get(), 2);
        assert_eq!(bs.round_up(0) / bs.get(), 0);
    }

    #[test]
    fn display_is_square() {
        assert_eq!(BlockSize::new(64).unwrap().to_string(), "64x64");
    }
}
