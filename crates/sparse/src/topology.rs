//! Sparsity topology in the hybrid blocked-CSR-COO encoding (§5.1.3) with
//! transpose indices (§5.1.4).
//!
//! A [`Topology`] is constructed once per MoE layer invocation from the
//! router's expert assignments (the `make_topology` step in the paper's
//! Figure 6 pseudo-code) and then shared by all six matrix products of the
//! layer's forward and backward passes, amortizing its construction cost
//! exactly as §5.2 describes.

use std::sync::Arc;

use megablocks_telemetry as telemetry;

use crate::{BlockSize, SparseError};

/// Coordinates of one nonzero block inside the block grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockCoord {
    /// Block row (row index divided by block size).
    pub row: usize,
    /// Block column (column index divided by block size).
    pub col: usize,
}

/// The sparsity pattern of a block-sparse matrix.
///
/// Encodes which blocks of the block grid are nonzero using the paper's
/// hybrid format:
///
/// * **BCSR half** — `row_offsets` (length `block_rows + 1`) and
///   `col_indices` (one per nonzero block, ordered row-major). This makes
///   row-wise iteration (needed by DSD and DDS^T) trivial.
/// * **COO half** — `row_indices`, the materialized block-row of every
///   nonzero block. With it a parallel worker assigned block `k` finds its
///   output coordinates with two O(1) loads instead of a search through
///   `row_offsets`; the paper adds this so SDD launches exactly one
///   threadblock per nonzero block (§5.1.3).
/// * **Transpose indices** — `transpose_indices` lists the storage positions
///   of the nonzero blocks in column-major order and `col_offsets` delimits
///   each block column. Together they let kernels iterate the matrix in
///   transposed order through one layer of indirection without transposing
///   any values (§5.1.4) — the "secondary index" of the paper's database
///   analogy.
/// * **Valid rows** — `rows_valid[r] <= block size` rows of block row `r`
///   are inside the matrix, a prefix down every block column (an expert's
///   tokens fill its padded group from the top). The rest is padding of
///   the *format*: stored, and counted by [`Topology::nnz`] and
///   [`Topology::shape`], but never read or written by a product — it
///   stays the `+0.0` it was created as and costs memory, not FLOPs. No
///   bit depends on skipping it: on finite data a padded row only adds
///   `±0.0` terms to accumulators that start at `+0.0`.
///
/// Topologies are immutable and cheaply cloneable (`Arc` internals), so one
/// topology built from the router output is shared across all products in a
/// training step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    pub(crate) inner: Arc<TopologyInner>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TopologyInner {
    pub(crate) block_size: BlockSize,
    pub(crate) block_rows: usize,
    pub(crate) block_cols: usize,
    pub(crate) row_offsets: Vec<usize>,
    pub(crate) col_indices: Vec<usize>,
    pub(crate) row_indices: Vec<usize>,
    pub(crate) col_offsets: Vec<usize>,
    pub(crate) transpose_indices: Vec<usize>,
    pub(crate) rows_valid: Vec<usize>,
}

impl Topology {
    /// Builds a topology from an explicit list of nonzero block coordinates.
    ///
    /// The coordinate list does not need to be sorted; storage order is
    /// normalized to row-major (BCSR order). Every row is valid.
    ///
    /// # Errors
    ///
    /// Returns an error if any coordinate is out of range or duplicated.
    pub fn from_blocks(
        block_rows: usize,
        block_cols: usize,
        blocks: impl IntoIterator<Item = BlockCoord>,
        block_size: BlockSize,
    ) -> Result<Self, SparseError> {
        // Every construction path (block_diagonal, for_moe) funnels through
        // here, so this one span times all topology builds.
        let _span = telemetry::span("sparse.topology_build");
        let mut coords: Vec<BlockCoord> = blocks.into_iter().collect();
        telemetry::counter("sparse.topology_blocks").add(coords.len() as u64);
        for c in &coords {
            if c.row >= block_rows || c.col >= block_cols {
                return Err(SparseError::CoordOutOfRange {
                    row: c.row,
                    col: c.col,
                    block_rows,
                    block_cols,
                });
            }
        }
        coords.sort_unstable();
        if let Some(w) = coords.windows(2).find(|w| w[0] == w[1]) {
            return Err(SparseError::DuplicateBlock {
                row: w[0].row,
                col: w[0].col,
            });
        }

        // BCSR half: row offsets + column indices in row-major order.
        let mut row_offsets = vec![0usize; block_rows + 1];
        for c in &coords {
            row_offsets[c.row + 1] += 1;
        }
        for r in 0..block_rows {
            row_offsets[r + 1] += row_offsets[r];
        }
        let col_indices: Vec<usize> = coords.iter().map(|c| c.col).collect();
        // COO half: materialized row index per block (paper §5.1.3).
        let row_indices: Vec<usize> = coords.iter().map(|c| c.row).collect();

        // Transpose indices (paper §5.1.4): storage positions sorted
        // column-major, plus per-column offsets.
        let mut col_offsets = vec![0usize; block_cols + 1];
        for c in &coords {
            col_offsets[c.col + 1] += 1;
        }
        for c in 0..block_cols {
            col_offsets[c + 1] += col_offsets[c];
        }
        let mut order: Vec<usize> = (0..coords.len()).collect();
        order.sort_unstable_by_key(|&k| (coords[k].col, coords[k].row));
        let transpose_indices = order;

        Ok(Self {
            inner: Arc::new(TopologyInner {
                block_size,
                block_rows,
                block_cols,
                row_offsets,
                col_indices,
                row_indices,
                col_offsets,
                transpose_indices,
                rows_valid: vec![block_size.get(); block_rows],
            }),
        })
    }

    /// Builds the block-diagonal topology of Figure 3C: expert `e` owns a
    /// rectangle of `rows_blocks[e]` x `cols_blocks[e]` nonzero blocks, with
    /// experts laid out corner-to-corner down the diagonal.
    ///
    /// For a dMoE FFN layer, `rows_blocks[e]` is the number of (padded)
    /// token blocks routed to expert `e` and `cols_blocks[e]` is
    /// `ffn_hidden_size / block_size` (equal across experts today; the
    /// variable-sized-expert generalization the paper mentions falls out for
    /// free).
    ///
    /// # Errors
    ///
    /// Returns an error if the slice lengths differ.
    pub fn block_diagonal(
        rows_blocks: &[usize],
        cols_blocks: &[usize],
        block_size: BlockSize,
    ) -> Result<Self, SparseError> {
        if rows_blocks.len() != cols_blocks.len() {
            return Err(SparseError::Mismatch(format!(
                "block_diagonal needs one column count per expert: got {} row counts, {} col counts",
                rows_blocks.len(),
                cols_blocks.len()
            )));
        }
        let block_rows: usize = rows_blocks.iter().sum();
        let block_cols: usize = cols_blocks.iter().sum();
        let mut blocks = Vec::new();
        let mut r0 = 0usize;
        let mut c0 = 0usize;
        for (&rb, &cb) in rows_blocks.iter().zip(cols_blocks) {
            for r in r0..r0 + rb {
                for c in c0..c0 + cb {
                    blocks.push(BlockCoord { row: r, col: c });
                }
            }
            r0 += rb;
            c0 += cb;
        }
        Self::from_blocks(block_rows, block_cols, blocks, block_size)
    }

    /// Builds the MoE topology from per-expert token counts — the
    /// `make_topology(indices)` step of the paper's Figure 6.
    ///
    /// Expert `e` owns `tokens_per_expert[e]` rounded up to whole blocks
    /// (the layout `padded_gather` in `megablocks-core` produces), of which
    /// the first `tokens_per_expert[e]` rows are valid; already padded
    /// counts therefore mean "all rows valid". `ffn_hidden_size` must be a
    /// multiple of the block size.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::Unaligned`] if `ffn_hidden_size` violates
    /// block alignment.
    pub fn for_moe(
        tokens_per_expert: &[usize],
        ffn_hidden_size: usize,
        block_size: BlockSize,
    ) -> Result<Self, SparseError> {
        let bs = block_size.get();
        if !ffn_hidden_size.is_multiple_of(bs) {
            return Err(SparseError::Unaligned {
                what: "ffn_hidden_size",
                value: ffn_hidden_size,
                block_size: bs,
            });
        }
        let rows_blocks: Vec<usize> = tokens_per_expert.iter().map(|t| t.div_ceil(bs)).collect();
        let cols_blocks = vec![ffn_hidden_size / bs; tokens_per_expert.len()];
        let mut topo = Self::block_diagonal(&rows_blocks, &cols_blocks, block_size)?;
        Arc::make_mut(&mut topo.inner).rows_valid = tokens_per_expert
            .iter()
            .flat_map(|&t| (0..t.div_ceil(bs)).map(move |b| (t - b * bs).min(bs)))
            .collect();
        Ok(topo)
    }

    /// Narrows the matrix to the first `rows_valid[r]` rows of each block
    /// row `r` — for layouts whose experts own more block rows than their
    /// tokens fill, as a capacity-padded layer's do.
    ///
    /// # Errors
    ///
    /// [`SparseError::Mismatch`] unless `rows_valid` has one entry per
    /// block row, none above the block size, and its valid rows form a
    /// prefix down every block column (no valid row below a block row
    /// that is not full).
    pub fn with_rows_valid(mut self, rows_valid: Vec<usize>) -> Result<Self, SparseError> {
        let bs = self.inner.block_size.get();
        if rows_valid.len() != self.inner.block_rows {
            return Err(SparseError::Mismatch(format!(
                "rows_valid has {} entries for {} block rows",
                rows_valid.len(),
                self.inner.block_rows
            )));
        }
        if let Some(row) = rows_valid.iter().position(|&v| v > bs) {
            return Err(SparseError::Mismatch(format!(
                "rows_valid[{row}] = {} exceeds the block size {bs}",
                rows_valid[row]
            )));
        }
        for col in 0..self.inner.block_cols {
            let mut open = true;
            for slot in self.col_blocks(col) {
                let row = self.inner.row_indices[slot];
                if !open && rows_valid[row] > 0 {
                    return Err(SparseError::Mismatch(format!(
                        "rows_valid: block row {row} holds valid rows below a block row \
                         of block column {col} that is not full"
                    )));
                }
                open &= rows_valid[row] == bs;
            }
        }
        Arc::make_mut(&mut self.inner).rows_valid = rows_valid;
        Ok(self)
    }

    /// The block size.
    pub fn block_size(&self) -> BlockSize {
        self.inner.block_size
    }

    /// Number of block rows.
    pub fn block_rows(&self) -> usize {
        self.inner.block_rows
    }

    /// Number of block columns.
    pub fn block_cols(&self) -> usize {
        self.inner.block_cols
    }

    /// Element-level shape `(rows, cols)` of matrices over this topology.
    pub fn shape(&self) -> (usize, usize) {
        let bs = self.inner.block_size.get();
        (self.inner.block_rows * bs, self.inner.block_cols * bs)
    }

    /// Number of nonzero blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.inner.col_indices.len()
    }

    /// Number of nonzero elements (`nnz_blocks * block area`).
    pub fn nnz(&self) -> usize {
        self.nnz_blocks() * self.inner.block_size.area()
    }

    /// Fraction of the block grid that is nonzero (0.0 for an empty grid).
    pub fn density(&self) -> f64 {
        let total = self.inner.block_rows * self.inner.block_cols;
        if total == 0 {
            return 0.0;
        }
        self.nnz_blocks() as f64 / total as f64
    }

    /// BCSR row offsets (length `block_rows + 1`).
    pub fn row_offsets(&self) -> &[usize] {
        &self.inner.row_offsets
    }

    /// Block-column index of each nonzero block, in storage (row-major)
    /// order.
    pub fn col_indices(&self) -> &[usize] {
        &self.inner.col_indices
    }

    /// Materialized block-row index of each nonzero block (the COO half of
    /// the hybrid encoding, §5.1.3).
    pub fn row_indices(&self) -> &[usize] {
        &self.inner.row_indices
    }

    /// Per-block-column offsets into [`Topology::transpose_indices`]
    /// (length `block_cols + 1`).
    pub fn col_offsets(&self) -> &[usize] {
        &self.inner.col_offsets
    }

    /// Storage positions of the nonzero blocks in column-major order — the
    /// transpose secondary index of §5.1.4.
    pub fn transpose_indices(&self) -> &[usize] {
        &self.inner.transpose_indices
    }

    /// Rows of each block row that are inside the matrix (length
    /// `block_rows`, each at most the block size).
    pub fn rows_valid(&self) -> &[usize] {
        &self.inner.rows_valid
    }

    /// Coordinates of the block stored at position `k`.
    ///
    /// This is the O(1) lookup the hybrid encoding exists for: a worker
    /// assigned storage slot `k` reads `row_indices[k]` and
    /// `col_indices[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.nnz_blocks()`.
    pub fn coord(&self, k: usize) -> BlockCoord {
        BlockCoord {
            row: self.inner.row_indices[k],
            col: self.inner.col_indices[k],
        }
    }

    /// Looks up the storage position of block `(row, col)` via binary search
    /// within the row, or `None` if that block is zero.
    pub fn find(&self, row: usize, col: usize) -> Option<usize> {
        if row >= self.inner.block_rows {
            return None;
        }
        let lo = self.inner.row_offsets[row];
        let hi = self.inner.row_offsets[row + 1];
        self.inner.col_indices[lo..hi]
            .binary_search(&col)
            .ok()
            .map(|i| lo + i)
    }

    /// Iterates the storage positions of the nonzero blocks in block row
    /// `row`, in ascending column order.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.block_rows()`.
    pub fn row_blocks(&self, row: usize) -> std::ops::Range<usize> {
        assert!(row < self.inner.block_rows, "block row {row} out of range");
        self.inner.row_offsets[row]..self.inner.row_offsets[row + 1]
    }

    /// Iterates the storage positions of the nonzero blocks in block column
    /// `col`, in ascending row order, through the transpose index.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.block_cols()`.
    pub fn col_blocks(&self, col: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(
            col < self.inner.block_cols,
            "block column {col} out of range"
        );
        let lo = self.inner.col_offsets[col];
        let hi = self.inner.col_offsets[col + 1];
        self.inner.transpose_indices[lo..hi].iter().copied()
    }

    /// The topology of the transposed matrix, with every row valid: the
    /// mirrored block list through [`Topology::from_blocks`], so its
    /// storage order is this topology's column-major order. Used by the
    /// explicit-transposition ablation.
    pub fn transposed(&self) -> Topology {
        let blocks = (0..self.nnz_blocks()).map(|k| {
            let c = self.coord(k);
            BlockCoord {
                row: c.col,
                col: c.row,
            }
        });
        let (rows, cols) = (self.inner.block_cols, self.inner.block_rows);
        Topology::from_blocks(rows, cols, blocks, self.inner.block_size)
            .expect("the mirror of distinct in-range blocks is distinct and in range")
    }

    /// Bytes of metadata this topology stores (for the paper's claim that
    /// metadata overhead is negligible at large block sizes).
    pub fn metadata_bytes(&self) -> usize {
        (self.inner.row_offsets.len()
            + self.inner.col_indices.len()
            + self.inner.row_indices.len()
            + self.inner.col_offsets.len()
            + self.inner.transpose_indices.len()
            + self.inner.rows_valid.len())
            * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(n: usize) -> BlockSize {
        BlockSize::new(n).unwrap()
    }

    #[test]
    fn from_blocks_normalizes_order() {
        let topo = Topology::from_blocks(
            2,
            3,
            [
                BlockCoord { row: 1, col: 0 },
                BlockCoord { row: 0, col: 2 },
                BlockCoord { row: 0, col: 0 },
            ],
            bs(4),
        )
        .unwrap();
        assert_eq!(topo.nnz_blocks(), 3);
        assert_eq!(topo.row_offsets(), &[0, 2, 3]);
        assert_eq!(topo.col_indices(), &[0, 2, 0]);
        assert_eq!(topo.row_indices(), &[0, 0, 1]);
    }

    #[test]
    fn duplicate_blocks_rejected() {
        let err = Topology::from_blocks(
            2,
            2,
            [BlockCoord { row: 0, col: 1 }, BlockCoord { row: 0, col: 1 }],
            bs(2),
        );
        assert_eq!(err, Err(SparseError::DuplicateBlock { row: 0, col: 1 }));
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Topology::from_blocks(1, 1, [BlockCoord { row: 0, col: 1 }], bs(2));
        assert!(matches!(err, Err(SparseError::CoordOutOfRange { .. })));
    }

    #[test]
    fn transpose_indices_enumerate_column_major() {
        // Pattern (x = nonzero):
        //   x . x
        //   x x .
        let topo = Topology::from_blocks(
            2,
            3,
            [
                BlockCoord { row: 0, col: 0 },
                BlockCoord { row: 0, col: 2 },
                BlockCoord { row: 1, col: 0 },
                BlockCoord { row: 1, col: 1 },
            ],
            bs(2),
        )
        .unwrap();
        // Storage (row-major): (0,0)=0, (0,2)=1, (1,0)=2, (1,1)=3.
        // Column-major order: (0,0), (1,0), (1,1), (0,2) -> storage 0,2,3,1.
        assert_eq!(topo.transpose_indices(), &[0, 2, 3, 1]);
        assert_eq!(topo.col_offsets(), &[0, 2, 3, 4]);
        assert_eq!(topo.col_blocks(0).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(topo.col_blocks(2).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn find_and_coord_agree() {
        let topo = Topology::block_diagonal(&[2, 1], &[1, 2], bs(4)).unwrap();
        for k in 0..topo.nnz_blocks() {
            let c = topo.coord(k);
            assert_eq!(topo.find(c.row, c.col), Some(k));
        }
        assert_eq!(topo.find(0, 2), None); // off-diagonal block is zero
        assert_eq!(topo.find(99, 0), None);
    }

    #[test]
    fn block_diagonal_shapes() {
        let topo = Topology::block_diagonal(&[3, 1, 2], &[2, 2, 2], bs(8)).unwrap();
        assert_eq!(topo.block_rows(), 6);
        assert_eq!(topo.block_cols(), 6);
        assert_eq!(topo.nnz_blocks(), 3 * 2 + 2 + 2 * 2);
        assert_eq!(topo.shape(), (48, 48));
        let density = topo.density();
        assert!(density > 0.0 && density < 1.0);
    }

    #[test]
    fn for_moe_rounds_token_counts_up_and_validates_ffn_alignment() {
        let padded = Topology::for_moe(&[128, 256], 512, bs(128)).unwrap();
        assert_eq!(padded.rows_valid(), [128, 128, 128]);
        // Real counts get the padded layout; only `rows_valid` differs.
        let real = Topology::for_moe(&[100, 129], 512, bs(128)).unwrap();
        assert_eq!(real.rows_valid(), [100, 128, 1]);
        assert_eq!(real.row_offsets(), padded.row_offsets());
        assert_eq!(real.col_indices(), padded.col_indices());
        assert_eq!(real.shape(), padded.shape());
        assert_ne!(real, padded);
        assert!(matches!(
            Topology::for_moe(&[128], 500, bs(128)),
            Err(SparseError::Unaligned { .. })
        ));
    }

    #[test]
    fn with_rows_valid_checks_what_it_is_given() {
        let topo = Topology::for_moe(&[8, 8], 4, bs(4)).unwrap();
        let narrowed = topo.clone().with_rows_valid(vec![4, 3, 0, 0]).unwrap();
        assert_eq!(narrowed.rows_valid(), [4, 3, 0, 0]);
        assert_eq!(narrowed.transposed().rows_valid(), [4, 4]);
        for (bad, why) in [
            (vec![4, 4, 4], "3 entries for 4 block rows"),
            (
                vec![4, 5, 4, 4],
                "rows_valid[1] = 5 exceeds the block size 4",
            ),
            (vec![3, 1, 4, 4], "block row 1 holds valid rows below"),
        ] {
            let err = topo.clone().with_rows_valid(bad).unwrap_err();
            assert!(matches!(err, SparseError::Mismatch(_)), "{err}");
            assert!(err.to_string().contains(why), "{err}");
        }
    }

    #[test]
    fn for_moe_allows_zero_token_experts() {
        let topo = Topology::for_moe(&[128, 0, 256], 256, bs(128)).unwrap();
        assert_eq!(topo.block_rows(), 3);
        assert_eq!(topo.block_cols(), 6);
        assert_eq!(topo.nnz_blocks(), 2 + 2 * 2);
    }

    #[test]
    fn transposed_roundtrip() {
        let topo = Topology::block_diagonal(&[2, 1], &[1, 3], bs(2)).unwrap();
        let t = topo.transposed();
        assert_eq!(t.block_rows(), topo.block_cols());
        assert_eq!(t.block_cols(), topo.block_rows());
        assert_eq!(t.nnz_blocks(), topo.nnz_blocks());
        assert_eq!(t.transposed(), topo);
    }

    #[test]
    fn metadata_is_small_relative_to_values() {
        let topo = Topology::for_moe(&[1024; 8], 1024, bs(128)).unwrap();
        assert!(topo.metadata_bytes() * 10 < topo.nnz() * 4);
    }

    #[test]
    fn empty_topology_is_fine() {
        let topo = Topology::from_blocks(3, 3, [], bs(4)).unwrap();
        assert_eq!(topo.nnz_blocks(), 0);
        assert_eq!(topo.density(), 0.0);
        assert_eq!(topo.row_blocks(2), 0..0);
    }
}
