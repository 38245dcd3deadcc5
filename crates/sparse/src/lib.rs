//! Block-sparse matrix formats and kernels for MegaBlocks-RS.
//!
//! This crate implements the kernel-level contribution of the MegaBlocks
//! paper (§5.1):
//!
//! * [`BlockSize`] — the sparsity block granularity. The paper selects
//!   128x128 after the CUTLASS tile study (Figure 4); here the size is a
//!   checked parameter so tests and ablations can sweep it.
//! * [`Topology`] — the sparsity pattern of a block matrix, stored in the
//!   paper's *hybrid blocked-CSR-COO* encoding (§5.1.3): BCSR row offsets +
//!   column indices, plus materialized per-block row indices so a kernel can
//!   look up a block's coordinates in O(1), plus *transpose indices*
//!   (§5.1.4) — a secondary index that enumerates the blocks in column-major
//!   order without moving any nonzero values.
//! * [`BlockSparseMatrix`] — block values laid over a shared topology.
//! * [`ops`] — the matrix products needed for dMoE training: SDD, DSD and
//!   DDS in every transposed/non-transposed combination the paper lists
//!   (SDD, DSD for forward; SDD^T, DS^TD, DSD^T, DD^TS for backward).
//!
//! Sparse-product naming follows Triton: a three-character string gives the
//! output, left input, and right input as **S**parse or **D**ense, with a
//! superscript T marking a transposed operand (here spelled `sdd_t`,
//! `dst_d`, …).
//!
//! A [`Topology`] is valid by construction: every constructor derives the
//! BCSR, COO and transpose views from one block list, and the one that
//! takes metadata from its caller ([`Topology::with_rows_valid`]) checks
//! it. The products therefore re-check nothing at entry, and their bands
//! cannot alias: each band is a disjoint `&mut` slice of the output. The
//! invariant catalogue the views satisfy lives in this crate's tests, as
//! an oracle over every constructor's output.
//!
//! # Example
//!
//! ```
//! use megablocks_sparse::{BlockSize, Topology, ops};
//! use megablocks_tensor::Matrix;
//!
//! // Two experts, one 4x4 block of tokens each (block_size = 4).
//! let topo = Topology::block_diagonal(&[1, 1], &[1, 1], BlockSize::new(4)?)?;
//! let x = Matrix::from_fn(8, 3, |i, j| (i + j) as f32);
//! let w = Matrix::from_fn(3, 8, |i, j| (i * 8 + j) as f32 * 0.1);
//! let h = ops::sdd(&x, &w, &topo); // sparse output on the topology
//! let y = ops::dsd(&h, &Matrix::eye(8)); // back to dense
//! assert_eq!(y.shape(), (8, 8));
//! # Ok::<(), megablocks_sparse::SparseError>(())
//! ```

#![deny(missing_docs)]

mod block;
mod error;
mod matrix;
pub mod ops;
mod topology;

pub use block::BlockSize;
pub use error::SparseError;
pub use matrix::BlockSparseMatrix;
pub use topology::{BlockCoord, Topology};
