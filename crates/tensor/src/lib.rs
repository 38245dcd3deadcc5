//! Dense matrix substrate for MegaBlocks-RS.
//!
//! This crate provides the dense building blocks that the rest of the
//! reproduction is built on:
//!
//! * [`Matrix`] — a row-major `f32` matrix with shape-checked construction.
//! * [`gemm`] / [`matmul`] — general matrix multiplication with all
//!   transpose combinations, parallelized across output-row tiles. This is
//!   the stand-in for a device GEMM (cuBLAS in the paper).
//! * [`kernel`] — the tiled-microkernel dispatch layer every product
//!   (dense *and* block-sparse, via `megablocks-sparse`) funnels through:
//!   a [`GemmMicrokernel`] backend trait with bit-identical `scalar` and
//!   `tiled` implementations, selected by [`configure_kernel_backend`] or
//!   the `MEGABLOCKS_KERNEL` environment variable.
//! * [`ops`] — neural-network forward/backward primitives: softmax,
//!   layer norm, GeLU, bias, cross-entropy.
//! * [`init`] — deterministic weight initializers.
//!
//! # Example
//!
//! ```
//! use megablocks_tensor::{Matrix, matmul};
//!
//! let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
//! let b = Matrix::eye(3);
//! let c = matmul(&a, &b);
//! assert_eq!(c, a);
//! ```

#![deny(missing_docs)]

mod error;
pub mod init;
pub mod kernel;
mod matmul;
mod matrix;
pub mod ops;
#[cfg(test)]
mod testutil;

pub use error::ShapeError;
pub use kernel::{
    block_gemm, configure_kernel_backend, kernel_backend, tiled_variant, Axis, GemmMicrokernel,
    KernelBackend, OutView, PanelView,
};
pub use matmul::{gemm, matmul, matmul_nt, pooled_matmul, Trans};
pub use matrix::Matrix;
