//! Block-sparse matrix values over a shared [`Topology`].

use megablocks_exec::workspace::{self, Buffer};
use megablocks_tensor::Matrix;

use crate::{SparseError, Topology};

/// A block-sparse `f32` matrix.
///
/// Values are stored as dense `block_size x block_size` tiles, one per
/// nonzero block, in the topology's storage (row-major / BCSR) order. Each
/// tile is itself row-major. The topology — including the transpose
/// secondary index — is shared, so cloning or transposed iteration never
/// copies values.
///
/// # Example
///
/// ```
/// use megablocks_sparse::{BlockSize, BlockSparseMatrix, Topology};
/// use megablocks_tensor::Matrix;
///
/// let topo = Topology::block_diagonal(&[1, 1], &[1, 1], BlockSize::new(2)?)?;
/// let dense = Matrix::from_fn(4, 4, |i, j| if i / 2 == j / 2 { 1.0 } else { 0.0 });
/// let sparse = BlockSparseMatrix::from_dense(&dense, &topo)?;
/// assert_eq!(sparse.to_dense(), dense);
/// # Ok::<(), megablocks_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSparseMatrix {
    topo: Topology,
    data: Buffer,
}

impl BlockSparseMatrix {
    /// Creates a zero-valued matrix over `topo`.
    pub fn zeros(topo: &Topology) -> Self {
        Self {
            topo: topo.clone(),
            data: vec![0.0; topo.nnz()].into(),
        }
    }

    /// Creates a zero-valued matrix over `topo` backed by the execution
    /// runtime's per-thread workspace arena, which gets the storage back
    /// when the matrix is dropped on this thread, so kernels reuse storage
    /// across calls.
    pub fn pooled_zeros(topo: &Topology) -> Self {
        Self {
            topo: topo.clone(),
            data: workspace::take_zeroed(topo.nnz()),
        }
    }

    /// Creates a matrix over `topo` from raw block data in storage order.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::Mismatch`] if `data.len() != topo.nnz()`.
    pub fn from_raw(topo: &Topology, data: Vec<f32>) -> Result<Self, SparseError> {
        if data.len() != topo.nnz() {
            return Err(SparseError::Mismatch(format!(
                "data length {} does not match topology nnz {}",
                data.len(),
                topo.nnz()
            )));
        }
        Ok(Self {
            topo: topo.clone(),
            data: data.into(),
        })
    }

    /// Extracts the blocks of `dense` selected by `topo`.
    ///
    /// Values of `dense` outside the topology are discarded (they are
    /// structurally zero in the result).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::Mismatch`] if `dense.shape() != topo.shape()`.
    pub fn from_dense(dense: &Matrix, topo: &Topology) -> Result<Self, SparseError> {
        if dense.shape() != topo.shape() {
            return Err(SparseError::Mismatch(format!(
                "dense shape {:?} does not match topology shape {:?}",
                dense.shape(),
                topo.shape()
            )));
        }
        let bs = topo.block_size().get();
        let mut out = Self::zeros(topo);
        for k in 0..topo.nnz_blocks() {
            let c = topo.coord(k);
            let block = out.block_mut(k);
            for bi in 0..bs {
                let src = dense.row(c.row * bs + bi);
                block[bi * bs..(bi + 1) * bs].copy_from_slice(&src[c.col * bs..(c.col + 1) * bs]);
            }
        }
        Ok(out)
    }

    /// Materializes the full dense matrix (zeros outside the topology).
    pub fn to_dense(&self) -> Matrix {
        let (rows, cols) = self.topo.shape();
        let bs = self.topo.block_size().get();
        let mut out = Matrix::zeros(rows, cols);
        for k in 0..self.topo.nnz_blocks() {
            let c = self.topo.coord(k);
            let block = self.block(k);
            for bi in 0..bs {
                let dst = out.row_mut(c.row * bs + bi);
                dst[c.col * bs..(c.col + 1) * bs].copy_from_slice(&block[bi * bs..(bi + 1) * bs]);
            }
        }
        out
    }

    /// The shared sparsity topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Element-level shape.
    pub fn shape(&self) -> (usize, usize) {
        self.topo.shape()
    }

    /// Values of block `k` (storage order), row-major within the block.
    ///
    /// # Panics
    ///
    /// Panics if `k >= topology().nnz_blocks()`.
    pub fn block(&self, k: usize) -> &[f32] {
        let area = self.topo.block_size().area();
        &self.data[k * area..(k + 1) * area]
    }

    /// Mutable values of block `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= topology().nnz_blocks()`.
    pub fn block_mut(&mut self, k: usize) -> &mut [f32] {
        let area = self.topo.block_size().area();
        &mut self.data[k * area..(k + 1) * area]
    }

    /// All block values in storage order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of all block values in storage order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Applies `f` to every stored value in place (structural zeros are
    /// untouched — beware of activations with `f(0) != 0`, which are only
    /// correct on stored blocks, matching the paper's kernels).
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every stored value.
    pub fn map(&self, f: impl FnMut(f32) -> f32) -> Self {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Element-wise `self += alpha * other`. Both operands must share a
    /// topology.
    ///
    /// # Panics
    ///
    /// Panics if the topologies differ.
    pub fn axpy(&mut self, alpha: f32, other: &BlockSparseMatrix) {
        assert_eq!(self.topo, other.topo, "axpy requires identical topologies");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Reads element `(i, j)`, returning 0.0 for structural zeros.
    ///
    /// This is a convenience for tests — kernels never use element access.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is outside the matrix.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        let (rows, cols) = self.shape();
        assert!(i < rows && j < cols, "index ({i},{j}) out of bounds");
        let bs = self.topo.block_size().get();
        match self.topo.find(i / bs, j / bs) {
            None => 0.0,
            Some(k) => self.block(k)[(i % bs) * bs + (j % bs)],
        }
    }

    /// Explicitly materializes the transposed matrix: transposed topology
    /// and transposed (copied) block values.
    ///
    /// This is the *expensive* alternative that transpose indices avoid
    /// (§5.1.4); it exists for the ablation benchmark and as a correctness
    /// oracle for the transposed-iteration kernels.
    pub fn explicit_transpose(&self) -> BlockSparseMatrix {
        let bs = self.topo.block_size().get();
        let mut out = BlockSparseMatrix::zeros(&self.topo.transposed());
        // The transpose stores its blocks in this matrix's column-major
        // order, which `transpose_indices` lists.
        for (kt, &k) in self.topo.transpose_indices().iter().enumerate() {
            let src = self.block(k);
            let dst = out.block_mut(kt);
            for bi in 0..bs {
                for bj in 0..bs {
                    dst[bj * bs + bi] = src[bi * bs + bj];
                }
            }
        }
        out
    }

    /// The largest absolute stored value.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockCoord, BlockSize};

    fn topo_2x3() -> Topology {
        Topology::from_blocks(
            2,
            3,
            [
                BlockCoord { row: 0, col: 0 },
                BlockCoord { row: 0, col: 2 },
                BlockCoord { row: 1, col: 1 },
            ],
            BlockSize::new(2).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn dense_roundtrip_preserves_topology_values() {
        let topo = topo_2x3();
        let dense = Matrix::from_fn(4, 6, |i, j| (i * 6 + j) as f32);
        let sparse = BlockSparseMatrix::from_dense(&dense, &topo).unwrap();
        let back = sparse.to_dense();
        // On-topology values survive; off-topology are zeroed.
        for i in 0..4 {
            for j in 0..6 {
                let on = topo.find(i / 2, j / 2).is_some();
                assert_eq!(back[(i, j)], if on { dense[(i, j)] } else { 0.0 });
            }
        }
    }

    #[test]
    fn get_reads_through_blocks() {
        let topo = topo_2x3();
        let dense = Matrix::from_fn(4, 6, |i, j| (i + 10 * j) as f32);
        let sparse = BlockSparseMatrix::from_dense(&dense, &topo).unwrap();
        assert_eq!(sparse.get(0, 0), 0.0 + 0.0);
        assert_eq!(sparse.get(1, 5), 1.0 + 50.0);
        assert_eq!(sparse.get(0, 3), 0.0); // structural zero
    }

    #[test]
    fn from_raw_checks_length() {
        let topo = topo_2x3();
        assert!(BlockSparseMatrix::from_raw(&topo, vec![0.0; 5]).is_err());
        assert!(BlockSparseMatrix::from_raw(&topo, vec![0.0; topo.nnz()]).is_ok());
    }

    #[test]
    fn from_dense_rejects_wrong_shape() {
        let topo = topo_2x3();
        assert!(BlockSparseMatrix::from_dense(&Matrix::zeros(4, 4), &topo).is_err());
    }

    #[test]
    fn explicit_transpose_matches_dense_transpose() {
        let topo = topo_2x3();
        let dense = Matrix::from_fn(4, 6, |i, j| ((i * 7 + j * 3) as f32).sin());
        let sparse = BlockSparseMatrix::from_dense(&dense, &topo).unwrap();
        let t = sparse.explicit_transpose();
        assert!(t.to_dense().approx_eq(&sparse.to_dense().transpose(), 1e-6));
    }

    #[test]
    fn map_and_axpy() {
        let topo = topo_2x3();
        let mut a = BlockSparseMatrix::from_raw(&topo, vec![1.0; topo.nnz()]).unwrap();
        let b = a.map(|v| v * 3.0);
        a.axpy(2.0, &b);
        assert!(a.as_slice().iter().all(|&v| (v - 7.0).abs() < 1e-6));
    }
}
