//! Block-sparse matrix products: SDD, DSD and DDS with all transpose
//! variants.
//!
//! These are the six products an MoE FFN layer needs (paper §5.1): the
//! forward pass computes SDD then DSD; the backward pass computes SDD^T and
//! DS^TD for the second layer and DSD^T and DD^TS for the first layer.
//!
//! Implementation notes, mirroring the paper's kernel design:
//!
//! * **SDD** parallelizes over nonzero output blocks. Each worker finds its
//!   block's coordinates with two O(1) metadata loads (`row_indices[k]`,
//!   `col_indices[k]`) — the hybrid blocked-CSR-COO encoding of §5.1.3 —
//!   instead of launching a dense grid of mostly-idle workers or searching
//!   `row_offsets`.
//! * **DSD / DDS with a transposed sparse operand** iterate the sparse
//!   matrix in column-major order through the *transpose indices* secondary
//!   index (§5.1.4); no nonzero values are moved. The explicit-transpose
//!   alternative ([`dst_d_explicit`]) exists as the ablation baseline.
//! * Every kernel launches through the shared execution runtime
//!   ([`megablocks_exec::LaunchPlan`]): disjoint output bands dispatched to
//!   a persistent worker pool, standing in for threadblocks over output
//!   tiles.
//! * Within a band, each op reduces to topology iteration plus
//!   [`block_gemm`] calls on strided [`PanelView`]s — the arithmetic lives
//!   in `megablocks_tensor::kernel`'s microkernel backends, shared with
//!   dense GEMM, so sparse and dense products are bit-identical per element
//!   regardless of the selected backend (`MEGABLOCKS_KERNEL`).

use megablocks_exec as exec;
use megablocks_telemetry as telemetry;
use megablocks_tensor::{block_gemm, Matrix, PanelView, Trans};

use crate::{BlockSparseMatrix, SparseError, Topology};

/// Sanitizer hooks, auto-invoked at every op entry under
/// `--features sanitize` (metadata validation, write-disjointness proof of
/// the launch plan, NaN/Inf output poisoning). Without the feature each
/// hook is an inlined `Ok(())`, so the hot paths carry no cost — mirroring
/// the telemetry design.
#[cfg(feature = "sanitize")]
mod sanitize {
    use crate::{audit, SparseError, Topology};

    pub(super) fn topology(topo: &Topology) -> Result<(), SparseError> {
        topo.validate().map_err(SparseError::Audit)
    }

    pub(super) fn sdd_partition(
        topo: &Topology,
        threads: usize,
        blocks_per_thread: usize,
    ) -> Result<(), SparseError> {
        audit::verify_sdd_partition(topo, threads, blocks_per_thread).map_err(SparseError::Audit)
    }

    pub(super) fn dsd_partition(
        topo: &Topology,
        transposed: bool,
        threads: usize,
        groups_per_thread: usize,
    ) -> Result<(), SparseError> {
        audit::verify_dsd_partition(topo, transposed, threads, groups_per_thread)
            .map_err(SparseError::Audit)
    }

    pub(super) fn output(op: &'static str, data: &[f32]) -> Result<(), SparseError> {
        audit::check_finite(op, data).map_err(SparseError::Audit)
    }
}

#[cfg(not(feature = "sanitize"))]
mod sanitize {
    use crate::{SparseError, Topology};

    #[inline(always)]
    pub(super) fn topology(_topo: &Topology) -> Result<(), SparseError> {
        Ok(())
    }

    #[inline(always)]
    pub(super) fn sdd_partition(
        _topo: &Topology,
        _threads: usize,
        _blocks_per_thread: usize,
    ) -> Result<(), SparseError> {
        Ok(())
    }

    #[inline(always)]
    pub(super) fn dsd_partition(
        _topo: &Topology,
        _transposed: bool,
        _threads: usize,
        _groups_per_thread: usize,
    ) -> Result<(), SparseError> {
        Ok(())
    }

    #[inline(always)]
    pub(super) fn output(_op: &'static str, _data: &[f32]) -> Result<(), SparseError> {
        Ok(())
    }
}

/// Work below this many f32 multiply-adds stays single-banded: even a
/// pooled launch costs a queue round-trip per band.
const PARALLEL_THRESHOLD: usize = 1 << 16;

/// Telemetry name for an SDD transpose combination. The named public
/// wrappers cover `sdd` / `sdd_t`; the remaining combinations get a
/// two-letter op suffix.
fn sdd_variant(op_a: Trans, op_b: Trans) -> &'static str {
    match (op_a, op_b) {
        (Trans::N, Trans::N) => "sparse.sdd",
        (Trans::N, Trans::T) => "sparse.sdd_t",
        (Trans::T, Trans::N) => "sparse.sdd_tn",
        (Trans::T, Trans::T) => "sparse.sdd_tt",
    }
}

/// Telemetry name for a DSD transpose combination.
fn dsd_variant(op_s: Trans, op_d: Trans) -> &'static str {
    match (op_s, op_d) {
        (Trans::N, Trans::N) => "sparse.dsd",
        (Trans::N, Trans::T) => "sparse.dsd_t",
        (Trans::T, Trans::N) => "sparse.dst_d",
        (Trans::T, Trans::T) => "sparse.dst_d_t",
    }
}

/// Telemetry name for a DDS transpose combination.
fn dds_variant(op_d: Trans, op_s: Trans) -> &'static str {
    match (op_d, op_s) {
        (Trans::N, Trans::N) => "sparse.dds",
        (Trans::N, Trans::T) => "sparse.dds_t",
        (Trans::T, Trans::N) => "sparse.ddt_s",
        (Trans::T, Trans::T) => "sparse.ddt_s_t",
    }
}

/// Generates a named product wrapper and its `try_` twin: each pair fixes
/// the transpositions of one of the generic fallible kernels
/// ([`try_sdd_op`] / [`try_dsd_op`] / [`try_dds_op`]) and differs only in
/// whether a shape mismatch panics or surfaces as a [`SparseError`].
macro_rules! product_wrappers {
    ($(
        $(#[$meta:meta])*
        $name:ident / $try_name:ident: ($($arg:ident: $ty:ty),*) -> $ret:ty
            = $target:ident($($call:expr),*);
    )*) => {$(
        $(#[$meta])*
        ///
        /// # Panics
        ///
        /// Panics if the logical shapes are incompatible.
        pub fn $name($($arg: $ty),*) -> $ret {
            $target($($call),*).unwrap_or_else(|e| panic!("{e}"))
        }

        #[doc = concat!("Fallible form of [`", stringify!($name), "`].")]
        ///
        /// # Errors
        ///
        /// Returns [`SparseError::Mismatch`] on incompatible shapes,
        /// [`SparseError::Cancelled`] when the thread's ambient context
        /// trips (and [`SparseError::Audit`] on sanitizer violations under
        /// `sanitize`).
        pub fn $try_name($($arg: $ty),*) -> Result<$ret, SparseError> {
            $target($($call),*)
        }
    )*};
}

// ---------------------------------------------------------------------------
// SDD: sparse output = dense x dense
// ---------------------------------------------------------------------------

product_wrappers! {
    /// SDD: computes `out = a * b` restricted to the nonzero blocks of
    /// `topo`.
    ///
    /// This is the first product in the dMoE forward pass (Figure 6, line
    /// 22): `a` holds the permuted tokens, `b` the concatenated expert
    /// weights, and the output's block-diagonal topology assigns each token
    /// block to its expert's weight columns.
    sdd / try_sdd: (a: &Matrix, b: &Matrix, topo: &Topology) -> BlockSparseMatrix
        = try_sdd_op(a, Trans::N, b, Trans::N, topo);

    /// SDD^T: computes `out = a * b^T` restricted to `topo` — the
    /// second-layer data gradient of a dMoE FFN (paper §5.1).
    sdd_t / try_sdd_t: (a: &Matrix, b: &Matrix, topo: &Topology) -> BlockSparseMatrix
        = try_sdd_op(a, Trans::N, b, Trans::T, topo);
}

/// General SDD with transpose control over both dense inputs:
/// `out = op_a(a) * op_b(b)` restricted to the nonzero blocks of `topo`.
///
/// Like every product here it launches under the calling thread's ambient
/// context ([`megablocks_exec::cancel::enter`]), checked before launch, at
/// every band boundary and inside the tiled microkernel's panel loop.
///
/// # Errors
///
/// Returns [`SparseError::Mismatch`] if `op_a(a)` is not `M x K` or
/// `op_b(b)` is not `K x N`, where `(M, N) = topo.shape()`, and
/// [`SparseError::Cancelled`] when the ambient context trips (or the
/// launch is shed under overload).
pub fn try_sdd_op(
    a: &Matrix,
    op_a: Trans,
    b: &Matrix,
    op_b: Trans,
    topo: &Topology,
) -> Result<BlockSparseMatrix, SparseError> {
    let (m, n) = topo.shape();
    let (am, ak) = logical(a, op_a);
    let (bk, bn) = logical(b, op_b);
    if am != m {
        return Err(SparseError::Mismatch(format!(
            "sdd: op_a(a) has {am} rows, topology expects {m}"
        )));
    }
    if bn != n {
        return Err(SparseError::Mismatch(format!(
            "sdd: op_b(b) has {bn} cols, topology expects {n}"
        )));
    }
    if ak != bk {
        return Err(SparseError::Mismatch(format!(
            "sdd: inner dimensions differ ({ak} vs {bk})"
        )));
    }
    let k = ak;
    let bs = topo.block_size().get();

    let variant = sdd_variant(op_a, op_b);
    let _span = telemetry::span(variant);
    sanitize::topology(topo)?;

    let mut out = BlockSparseMatrix::pooled_zeros(topo);
    let nnz = topo.nnz_blocks();
    telemetry::counter_with("sparse.blocks", variant).add(nnz as u64);
    telemetry::counter_with("sparse.flops", variant)
        .add(2 * nnz as u64 * bs as u64 * bs as u64 * k as u64);
    if nnz == 0 || k == 0 {
        return Ok(out);
    }

    let threads = exec::parallelism_for(nnz * bs * bs * k, PARALLEL_THRESHOLD).min(nnz);
    let area = topo.block_size().area();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let (_, a_cols) = a.shape();
    let (_, b_cols) = b.shape();
    let row_indices = topo.row_indices();
    let col_indices = topo.col_indices();

    // Each worker owns a contiguous range of nonzero blocks; coordinates
    // come straight from the COO metadata (no row-offset search). A block
    // at (r, c) is the `bs x bs` product of A's row panel `r` and B's
    // column panel `c` — transposition is a stride swap on the views, and
    // the selected microkernel backend does the arithmetic.
    let compute = |blocks: &mut [f32], k0: usize| {
        for (slot, block) in blocks.chunks_mut(area).enumerate() {
            let kk = k0 + slot;
            debug_assert!(kk < nnz, "sdd: worker block index {kk} out of range {nnz}");
            debug_assert_eq!(block.len(), area, "sdd: worker got a partial block");
            let r = row_indices[kk];
            let c = col_indices[kk];
            let a_view = match op_a {
                Trans::N => PanelView::new(&a_data[r * bs * a_cols..], a_cols, 1),
                Trans::T => PanelView::new(&a_data[r * bs..], 1, a_cols),
            };
            let b_view = match op_b {
                Trans::N => PanelView::new(&b_data[c * bs..], b_cols, 1),
                Trans::T => PanelView::new(&b_data[c * bs * b_cols..], 1, b_cols),
            };
            block_gemm(bs, bs, k, 1.0, a_view, b_view, block, bs);
        }
    };

    let blocks_per_thread = nnz.div_ceil(threads);
    if threads > 1 {
        sanitize::sdd_partition(topo, threads, blocks_per_thread)?;
    }
    exec::LaunchPlan::over_items(
        variant,
        out.as_mut_slice(),
        area,
        blocks_per_thread,
        &compute,
    )
    .try_launch()?;
    sanitize::output(variant, out.as_slice())?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// DSD: dense output = sparse x dense
// ---------------------------------------------------------------------------

product_wrappers! {
    /// DSD: computes `out = s * d` — the second product of the dMoE forward
    /// pass (Figure 6, line 23).
    dsd / try_dsd: (s: &BlockSparseMatrix, d: &Matrix) -> Matrix
        = try_dsd_op(s, Trans::N, d, Trans::N);

    /// DSD^T: computes `out = s * d^T` — the first-layer data gradient.
    dsd_t / try_dsd_t: (s: &BlockSparseMatrix, d: &Matrix) -> Matrix
        = try_dsd_op(s, Trans::N, d, Trans::T);

    /// DS^TD: computes `out = s^T * d` — the second-layer weight gradient.
    ///
    /// The sparse operand is traversed in column-major order through the
    /// transpose-index secondary index; no values are copied or transposed.
    dst_d / try_dst_d: (s: &BlockSparseMatrix, d: &Matrix) -> Matrix
        = try_dsd_op(s, Trans::T, d, Trans::N);
}

/// DS^TD via explicit transposition — the ablation baseline for §5.1.4.
///
/// Materializes `s^T` (copying every nonzero value) and then runs a plain
/// DSD. Produces bit-identical results to [`dst_d`] up to float summation
/// order.
///
/// # Panics
///
/// Panics if `s.shape().0 != d.rows()`.
pub fn dst_d_explicit(s: &BlockSparseMatrix, d: &Matrix) -> Matrix {
    try_dst_d_explicit(s, d).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`dst_d_explicit`].
///
/// # Errors
///
/// Returns [`SparseError::Mismatch`] on incompatible shapes (and
/// [`SparseError::Audit`] on sanitizer violations under `sanitize`).
pub fn try_dst_d_explicit(s: &BlockSparseMatrix, d: &Matrix) -> Result<Matrix, SparseError> {
    // The span covers the materialized transpose plus the inner DSD (which
    // records its own nested "sparse.dsd" span), so the ablation's extra
    // cost shows up as this span's exclusive time.
    let _span = telemetry::span("sparse.dst_d_explicit");
    try_dsd(&s.try_explicit_transpose()?, d)
}

/// General DSD: `out = op_s(s) * op_d(d)`.
///
/// # Errors
///
/// Returns [`SparseError::Mismatch`] if the inner dimensions of `op_s(s)`
/// and `op_d(d)` differ, and [`SparseError::Cancelled`] as [`try_sdd_op`].
pub fn try_dsd_op(
    s: &BlockSparseMatrix,
    op_s: Trans,
    d: &Matrix,
    op_d: Trans,
) -> Result<Matrix, SparseError> {
    let topo = s.topology();
    let bs = topo.block_size().get();
    let (sm, sk) = match op_s {
        Trans::N => topo.shape(),
        Trans::T => {
            let (r, c) = topo.shape();
            (c, r)
        }
    };
    let (dk, dn) = logical(d, op_d);
    if sk != dk {
        return Err(SparseError::Mismatch(format!(
            "dsd: inner dimensions differ ({sk} vs {dk})"
        )));
    }
    let n = dn;

    let variant = dsd_variant(op_s, op_d);
    let _span = telemetry::span(variant);
    sanitize::topology(topo)?;
    telemetry::counter_with("sparse.blocks", variant).add(topo.nnz_blocks() as u64);
    telemetry::counter_with("sparse.flops", variant).add(2 * topo.nnz() as u64 * n as u64);

    let mut out = Matrix::pooled_zeros(sm, n);
    if topo.nnz_blocks() == 0 || n == 0 {
        return Ok(out);
    }

    let d_data = d.as_slice();
    let (_, d_cols) = d.shape();
    let col_indices = topo.col_indices();
    let row_indices = topo.row_indices();

    // Output rows are grouped by block row (op_s = N) or block column
    // (op_s = T); each group of `bs` output rows is written by exactly one
    // worker, so bands can be handed out with chunks_mut.
    let groups = match op_s {
        Trans::N => topo.block_rows(),
        Trans::T => topo.block_cols(),
    };
    let threads = exec::parallelism_for(topo.nnz() * n, PARALLEL_THRESHOLD).min(groups);

    // A group's band is the product of the sparse operand's block row
    // (op_s = N) or block column (op_s = T, traversed column-major through
    // the transpose indices, §5.1.4) with the matching dense row panels:
    // one microkernel call per nonzero block, accumulating into the band.
    let compute_group = |band: &mut [f32], g: usize| {
        debug_assert_eq!(band.len(), bs * n, "dsd: worker band has wrong length");
        let mut run_block = |k_idx: usize| {
            let block = s.block(k_idx);
            // `other` is the sparse block's coordinate along the reduction
            // dimension: its block column under N, its block row under T
            // (where the logical block is the stored block transposed —
            // again just a stride swap).
            let (other, s_view) = match op_s {
                Trans::N => (col_indices[k_idx], PanelView::new(block, bs, 1)),
                Trans::T => (row_indices[k_idx], PanelView::new(block, 1, bs)),
            };
            let d_view = match op_d {
                Trans::N => PanelView::new(&d_data[other * bs * d_cols..], d_cols, 1),
                Trans::T => PanelView::new(&d_data[other * bs..], 1, d_cols),
            };
            block_gemm(bs, n, bs, 1.0, s_view, d_view, band, n);
        };
        // row_blocks returns a contiguous range, col_blocks walks the
        // transpose index — different iterator types, same treatment.
        match op_s {
            Trans::N => topo.row_blocks(g).for_each(&mut run_block),
            Trans::T => topo.col_blocks(g).for_each(&mut run_block),
        }
    };

    let groups_per_thread = groups.div_ceil(threads);
    if threads > 1 {
        sanitize::dsd_partition(topo, op_s == Trans::T, threads, groups_per_thread)?;
    }
    let body = |bands: &mut [f32], g0: usize| {
        for (off, band) in bands.chunks_mut(bs * n).enumerate() {
            compute_group(band, g0 + off);
        }
    };
    exec::LaunchPlan::over_items(
        variant,
        out.as_mut_slice(),
        bs * n,
        groups_per_thread,
        &body,
    )
    .try_launch()?;
    sanitize::output(variant, out.as_slice())?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// DDS: dense output = dense x sparse
// ---------------------------------------------------------------------------

product_wrappers! {
    /// DD^TS: computes `out = d^T * s` — the first-layer weight gradient of
    /// a dMoE FFN (paper §5.1).
    ddt_s / try_ddt_s: (d: &Matrix, s: &BlockSparseMatrix) -> Matrix
        = try_dds_op(d, Trans::T, s, Trans::N);
}

/// General DDS: `out = op_d(d) * op_s(s)`.
///
/// # Errors
///
/// Returns [`SparseError::Mismatch`] if the inner dimensions of `op_d(d)`
/// and `op_s(s)` differ, and [`SparseError::Cancelled`] as [`try_sdd_op`].
pub fn try_dds_op(
    d: &Matrix,
    op_d: Trans,
    s: &BlockSparseMatrix,
    op_s: Trans,
) -> Result<Matrix, SparseError> {
    let topo = s.topology();
    let bs = topo.block_size().get();
    let (dm, dk) = logical(d, op_d);
    let (sk, sn) = match op_s {
        Trans::N => topo.shape(),
        Trans::T => {
            let (r, c) = topo.shape();
            (c, r)
        }
    };
    if dk != sk {
        return Err(SparseError::Mismatch(format!(
            "dds: inner dimensions differ ({dk} vs {sk})"
        )));
    }
    let m = dm;
    let n = sn;

    let variant = dds_variant(op_d, op_s);
    let _span = telemetry::span(variant);
    sanitize::topology(topo)?;
    telemetry::counter_with("sparse.blocks", variant).add(topo.nnz_blocks() as u64);
    telemetry::counter_with("sparse.flops", variant).add(2 * topo.nnz() as u64 * m as u64);

    let mut out = Matrix::pooled_zeros(m, n);
    if topo.nnz_blocks() == 0 || m == 0 {
        return Ok(out);
    }

    let d_data = d.as_slice();
    let (_, d_cols) = d.shape();
    let col_indices = topo.col_indices();
    let row_indices = topo.row_indices();
    let threads = exec::parallelism_for(topo.nnz() * m, PARALLEL_THRESHOLD).min(m);

    // Workers own bands of output rows; every worker walks all nonzero
    // blocks (each block touches a disjoint output column stripe). Per
    // block: out[band rows, oc*bs..] += op_d(d)[band rows, ic*bs..] * blk,
    // one microkernel call with the band's stride carrying the column
    // offset.
    let compute_band = |band: &mut [f32], i0: usize, rows: usize| {
        debug_assert_eq!(band.len(), rows * n, "dds: worker band has wrong length");
        for k_idx in 0..topo.nnz_blocks() {
            let block = s.block(k_idx);
            // `ic` indexes the reduction dimension, `oc` the output column
            // stripe; a transposed sparse operand swaps both the block
            // coordinates and the block-local strides.
            let (ic, oc, s_view) = match op_s {
                Trans::N => (
                    row_indices[k_idx],
                    col_indices[k_idx],
                    PanelView::new(block, bs, 1),
                ),
                Trans::T => (
                    col_indices[k_idx],
                    row_indices[k_idx],
                    PanelView::new(block, 1, bs),
                ),
            };
            let d_view = match op_d {
                Trans::N => PanelView::new(&d_data[i0 * d_cols + ic * bs..], d_cols, 1),
                Trans::T => PanelView::new(&d_data[ic * bs * d_cols + i0..], 1, d_cols),
            };
            block_gemm(rows, bs, bs, 1.0, d_view, s_view, &mut band[oc * bs..], n);
        }
    };

    let rows_per_thread = m.div_ceil(threads);
    let body = |band: &mut [f32], i0: usize| compute_band(band, i0, band.len() / n);
    exec::LaunchPlan::over_items(variant, out.as_mut_slice(), n, rows_per_thread, &body)
        .try_launch()?;
    sanitize::output(variant, out.as_slice())?;
    Ok(out)
}

fn logical(m: &Matrix, op: Trans) -> (usize, usize) {
    match op {
        Trans::N => m.shape(),
        Trans::T => (m.cols(), m.rows()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockCoord, BlockSize};
    use megablocks_tensor::matmul;

    fn bs(n: usize) -> BlockSize {
        BlockSize::new(n).unwrap()
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }

    /// An irregular (non-block-diagonal) topology to stress generality.
    fn irregular_topo(block: usize) -> Topology {
        Topology::from_blocks(
            3,
            4,
            [
                BlockCoord { row: 0, col: 0 },
                BlockCoord { row: 0, col: 3 },
                BlockCoord { row: 1, col: 1 },
                BlockCoord { row: 1, col: 2 },
                BlockCoord { row: 2, col: 0 },
                BlockCoord { row: 2, col: 2 },
                BlockCoord { row: 2, col: 3 },
            ],
            bs(block),
        )
        .unwrap()
    }

    fn mask_dense(m: &Matrix, topo: &Topology) -> Matrix {
        let b = topo.block_size().get();
        Matrix::from_fn(m.rows(), m.cols(), |i, j| {
            if topo.find(i / b, j / b).is_some() {
                m[(i, j)]
            } else {
                0.0
            }
        })
    }

    #[test]
    fn sdd_all_variants_match_masked_dense() {
        let block = 4;
        let topo = irregular_topo(block);
        let (m, n) = topo.shape();
        let k = 10;
        for (op_a, op_b) in [
            (Trans::N, Trans::N),
            (Trans::N, Trans::T),
            (Trans::T, Trans::N),
            (Trans::T, Trans::T),
        ] {
            let a = match op_a {
                Trans::N => rand_matrix(m, k, 1),
                Trans::T => rand_matrix(k, m, 1),
            };
            let b = match op_b {
                Trans::N => rand_matrix(k, n, 2),
                Trans::T => rand_matrix(n, k, 2),
            };
            let got = try_sdd_op(&a, op_a, &b, op_b, &topo).unwrap().to_dense();
            let ad = if op_a == Trans::T {
                a.transpose()
            } else {
                a.clone()
            };
            let bd = if op_b == Trans::T {
                b.transpose()
            } else {
                b.clone()
            };
            let want = mask_dense(&matmul(&ad, &bd), &topo);
            assert!(
                got.approx_eq(&want, 1e-4),
                "sdd ({op_a:?},{op_b:?}) diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn dsd_all_variants_match_dense() {
        let block = 4;
        let topo = irregular_topo(block);
        let (rows, cols) = topo.shape();
        let s = crate::BlockSparseMatrix::from_dense(
            &mask_dense(&rand_matrix(rows, cols, 3), &topo),
            &topo,
        )
        .unwrap();
        let sd = s.to_dense();
        let n = 9;
        for (op_s, op_d) in [
            (Trans::N, Trans::N),
            (Trans::N, Trans::T),
            (Trans::T, Trans::N),
            (Trans::T, Trans::T),
        ] {
            let inner = match op_s {
                Trans::N => cols,
                Trans::T => rows,
            };
            let d = match op_d {
                Trans::N => rand_matrix(inner, n, 4),
                Trans::T => rand_matrix(n, inner, 4),
            };
            let got = try_dsd_op(&s, op_s, &d, op_d).unwrap();
            let sm = if op_s == Trans::T {
                sd.transpose()
            } else {
                sd.clone()
            };
            let dm = if op_d == Trans::T {
                d.transpose()
            } else {
                d.clone()
            };
            let want = matmul(&sm, &dm);
            assert!(
                got.approx_eq(&want, 1e-4),
                "dsd ({op_s:?},{op_d:?}) diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn dds_all_variants_match_dense() {
        let block = 4;
        let topo = irregular_topo(block);
        let (rows, cols) = topo.shape();
        let s = crate::BlockSparseMatrix::from_dense(
            &mask_dense(&rand_matrix(rows, cols, 5), &topo),
            &topo,
        )
        .unwrap();
        let sd = s.to_dense();
        let m = 7;
        for (op_d, op_s) in [
            (Trans::N, Trans::N),
            (Trans::N, Trans::T),
            (Trans::T, Trans::N),
            (Trans::T, Trans::T),
        ] {
            let inner = match op_s {
                Trans::N => rows,
                Trans::T => cols,
            };
            let d = match op_d {
                Trans::N => rand_matrix(m, inner, 6),
                Trans::T => rand_matrix(inner, m, 6),
            };
            let got = try_dds_op(&d, op_d, &s, op_s).unwrap();
            let dm = if op_d == Trans::T {
                d.transpose()
            } else {
                d.clone()
            };
            let sm = if op_s == Trans::T {
                sd.transpose()
            } else {
                sd.clone()
            };
            let want = matmul(&dm, &sm);
            assert!(
                got.approx_eq(&want, 1e-4),
                "dds ({op_d:?},{op_s:?}) diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn transpose_index_path_matches_explicit_transpose() {
        let topo = irregular_topo(4);
        let (rows, cols) = topo.shape();
        let s = crate::BlockSparseMatrix::from_dense(
            &mask_dense(&rand_matrix(rows, cols, 7), &topo),
            &topo,
        )
        .unwrap();
        let d = rand_matrix(rows, 6, 8);
        let fast = dst_d(&s, &d);
        let slow = dst_d_explicit(&s, &d);
        assert!(
            fast.approx_eq(&slow, 1e-4),
            "diff {}",
            fast.max_abs_diff(&slow)
        );
    }

    #[test]
    fn moe_forward_backward_product_chain_shapes() {
        // Mimic a 2-expert dMoE FFN: hidden=6, ffn=8, block=4,
        // expert 0 gets 1 token block, expert 1 gets 2.
        let block = 4;
        let hidden = 6;
        let ffn = 8;
        let topo = Topology::for_moe(&[4, 8], ffn, bs(block)).unwrap();
        let tokens = 12;
        assert_eq!(topo.shape(), (tokens, 2 * ffn));

        let x = rand_matrix(tokens, hidden, 10);
        let w1 = rand_matrix(hidden, 2 * ffn, 11);
        let w2 = rand_matrix(2 * ffn, hidden, 12);

        // forward: SDD then DSD
        let h = sdd(&x, &w1, &topo);
        let y = dsd(&h, &w2);
        assert_eq!(y.shape(), (tokens, hidden));

        // backward: SDD^T, DS^TD, DSD^T, DD^TS
        let dy = rand_matrix(tokens, hidden, 13);
        let dh = sdd_t(&dy, &w2, &topo);
        assert_eq!(dh.shape(), topo.shape());
        let dw2 = dst_d(&h, &dy);
        assert_eq!(dw2.shape(), (2 * ffn, hidden));
        let dx = dsd_t(&dh, &w1);
        assert_eq!(dx.shape(), (tokens, hidden));
        let dw1 = ddt_s(&x, &dh);
        assert_eq!(dw1.shape(), (hidden, 2 * ffn));

        // Cross-check against dense math with an explicit mask.
        let hd = h.to_dense();
        let want_y = matmul(&hd, &w2);
        assert!(y.approx_eq(&want_y, 1e-4));
        let want_dh = mask_dense(&matmul(&dy, &w2.transpose()), &topo);
        assert!(dh.to_dense().approx_eq(&want_dh, 1e-4));
        let want_dw2 = matmul(&hd.transpose(), &dy);
        assert!(dw2.approx_eq(&want_dw2, 1e-4));
        let want_dx = matmul(&dh.to_dense(), &w1.transpose());
        assert!(dx.approx_eq(&want_dx, 1e-4));
        let want_dw1 = matmul(&x.transpose(), &dh.to_dense());
        assert!(dw1.approx_eq(&want_dw1, 1e-4));
    }

    #[test]
    fn empty_topology_products_are_zero() {
        let topo = Topology::from_blocks(2, 2, [], bs(4)).unwrap();
        let a = rand_matrix(8, 3, 20);
        let b = rand_matrix(3, 8, 21);
        let s = sdd(&a, &b, &topo);
        assert!(s.as_slice().is_empty());
        let d = rand_matrix(8, 5, 22);
        assert_eq!(dsd(&s, &d).max_abs(), 0.0);
        let d2 = rand_matrix(5, 8, 23);
        assert_eq!(
            try_dds_op(&d2, Trans::N, &s, Trans::N).unwrap().max_abs(),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn sdd_shape_mismatch_panics() {
        let topo = irregular_topo(4);
        let (m, n) = topo.shape();
        let a = Matrix::zeros(m, 5);
        let b = Matrix::zeros(6, n);
        let _ = sdd(&a, &b, &topo);
    }

    #[test]
    fn try_entry_points_return_mismatch_errors() {
        let topo = irregular_topo(4);
        let (m, n) = topo.shape();

        let err = try_sdd_op(
            &Matrix::zeros(m, 5),
            Trans::N,
            &Matrix::zeros(6, n),
            Trans::N,
            &topo,
        )
        .unwrap_err();
        assert!(matches!(err, SparseError::Mismatch(_)));
        assert!(err.to_string().contains("sdd: inner dimensions differ"));
        let err = try_sdd_op(
            &Matrix::zeros(m + 4, 5),
            Trans::N,
            &Matrix::zeros(5, n),
            Trans::N,
            &topo,
        )
        .unwrap_err();
        assert!(err.to_string().contains("rows"));

        let s = BlockSparseMatrix::zeros(&topo);
        let err = try_dsd_op(&s, Trans::N, &Matrix::zeros(n + 1, 3), Trans::N).unwrap_err();
        assert!(err.to_string().contains("dsd: inner dimensions differ"));
        let err = try_dds_op(&Matrix::zeros(3, m + 1), Trans::N, &s, Trans::N).unwrap_err();
        assert!(err.to_string().contains("dds: inner dimensions differ"));

        // The happy path matches the panicking entry points bit-for-bit.
        let a = rand_matrix(m, 5, 40);
        let b = rand_matrix(5, n, 41);
        let via_try = try_sdd_op(&a, Trans::N, &b, Trans::N, &topo).unwrap();
        let via_panic = sdd(&a, &b, &topo);
        assert_eq!(via_try.as_slice(), via_panic.as_slice());
    }

    #[test]
    fn large_blocks_parallel_path() {
        // Big enough to cross PARALLEL_THRESHOLD and exercise threading.
        let topo = Topology::for_moe(&[64, 128], 64, bs(32)).unwrap();
        let (m, n) = topo.shape();
        let k = 48;
        let a = rand_matrix(m, k, 30);
        let b = rand_matrix(k, n, 31);
        let s = sdd(&a, &b, &topo);
        let want = mask_dense(&matmul(&a, &b), &topo);
        assert!(s.to_dense().approx_eq(&want, 1e-3));

        let d = rand_matrix(n, 64, 32);
        let y = dsd(&s, &d);
        assert!(y.approx_eq(&matmul(&s.to_dense(), &d), 1e-3));

        let dd = rand_matrix(m, 64, 33);
        let g = dst_d(&s, &dd);
        assert!(g.approx_eq(&matmul(&s.to_dense().transpose(), &dd), 1e-3));
    }
}
