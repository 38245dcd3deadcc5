//! Block-sparse matrix products: SDD, DSD and DDS with all transpose
//! variants.
//!
//! These are the six products an MoE FFN layer needs (paper §5.1): the
//! forward pass computes SDD then DSD; the backward pass computes SDD^T and
//! DS^TD for the second layer and DSD^T and DD^TS for the first layer.
//!
//! Implementation notes, mirroring the paper's kernel design:
//!
//! * **One kernel call per rectangle of nonzero blocks, never one per
//!   block.** Each product lowers its share of the topology into
//!   *rectangles* — maximal runs of consecutive block rows with identical
//!   column lists, or of consecutive block columns with identical row
//!   lists — and issues one [`block_gemm`] per rectangle, reading the
//!   sparse blocks, gathering the matching dense row/column panels and
//!   (for SDD) writing the output blocks in place through separable
//!   views ([`Axis`]). On the block-diagonal topology an MoE layer
//!   produces ([`Topology::for_moe`]) a rectangle is an expert, so every
//!   product is one grouped GEMM per expert per band — the packed
//!   operands are reused across the whole expert, and the DSD/DDS
//!   reduction runs over all of the expert's blocks at once. An irregular
//!   topology degrades to one call per block row (column) with an
//!   `nnz_row * bs`-long gathered reduction. `kernel.calls` therefore
//!   counts rectangles.
//! * **Row-exact.** Rows past the topology's `rows_valid` are outside
//!   the matrix (see [`Topology`]): a row run ends at its first non-full
//!   block row and the kernel gets the tokens an expert holds — as `m`,
//!   `n` or `k` — as do `sparse.flops`, the band count and the band cuts.
//! * **Which way the topology is walked.** SDD, DSD with `op_s = N` and
//!   DDS with `op_s = T` group block rows through the BCSR half
//!   (`row_offsets`/`col_indices`). DSD with `op_s = T` and DDS with
//!   `op_s = N` group block columns through the *transpose indices*
//!   secondary index (§5.1.4): a run of columns shares one rectangle when
//!   their row lists are identical, which puts each block one storage slot
//!   after its left neighbour, so the rectangle is addressed in place and
//!   no nonzero values are moved. The explicit-transpose alternative
//!   ([`dst_d_explicit`]) exists as the ablation baseline.
//! * **Accumulation order.** An SDD element is one `f32` accumulator over
//!   ascending `k`. A DSD/DDS element is **one** accumulator over its
//!   block row's (column's) nonzero blocks in ascending block index and
//!   ascending `k` inside each block — the order a dense GEMM over
//!   [`BlockSparseMatrix::to_dense`] uses, so on finite data the two are
//!   bit-identical. A row's value depends only on its own nonzeros, never
//!   on which rectangle or band it was computed in.
//! * Every kernel launches through the shared execution runtime
//!   ([`megablocks_exec::LaunchPlan`]): disjoint output bands dispatched to
//!   a persistent worker pool, standing in for threadblocks over output
//!   tiles. SDD and DSD bands are cut on block-row (block-column)
//!   boundaries balanced by real rows; a rectangle that straddles a
//!   cut is simply computed as two. DDS bands are rows of the dense
//!   output, and every band walks all rectangles.
//! * The arithmetic lives in `megablocks_tensor::kernel`, shared with
//!   dense GEMM, so sparse and dense products are bit-identical per
//!   element, and equal to `kernel::scalar` over the densified operands
//!   on every CPU variant.

// A kernel hot path: propagate an error instead of panicking on one.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::ops::Range;

use megablocks_exec as exec;
use megablocks_telemetry as telemetry;
use megablocks_tensor::{block_gemm, Axis, Matrix, OutView, PanelView, Trans};

use crate::{BlockSparseMatrix, SparseError, Topology};

/// Work below this many f32 multiply-adds stays single-banded: even a
/// pooled launch costs a queue round-trip per band.
const PARALLEL_THRESHOLD: usize = 1 << 16;

/// Which way a product walks the sparse operand's topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Walk {
    /// Group consecutive block rows (BCSR half).
    Rows,
    /// Group consecutive block columns (transpose indices, §5.1.4).
    Cols,
}

/// One rectangle of nonzero blocks: `span` consecutive block rows
/// ([`Walk::Rows`]) or block columns ([`Walk::Cols`]) that all hold
/// exactly the blocks `cross` along the other dimension, lowered to the
/// tile offsets the kernel's views need.
#[derive(Debug)]
struct Rect<'s> {
    walk: Walk,
    bs: usize,
    /// The grouped block rows (columns).
    span: Range<usize>,
    /// The block columns (rows) every member of `span` holds, ascending.
    cross: &'s [usize],
    /// Rows (columns) of `span` and of `cross` inside the matrix.
    span_len: usize,
    cross_len: usize,
    /// Storage slot of the rectangle's first block; the two offset tables
    /// are relative to it.
    first: usize,
    /// Offset (floats) of each `span` member's first block.
    span_off: &'s [usize],
    /// Offset (floats) of each `cross` block within its `span` member.
    cross_off: &'s [usize],
}

impl Rect<'_> {
    /// The block storage along `span` (rows of blocks under
    /// [`Walk::Rows`], columns under [`Walk::Cols`]).
    fn span_axis(&self) -> Axis<'_> {
        let inner = match self.walk {
            Walk::Rows => self.bs,
            Walk::Cols => 1,
        };
        Axis::tiled(self.span_off, self.bs, inner)
    }

    /// The block storage along `cross`.
    fn cross_axis(&self) -> Axis<'_> {
        let inner = match self.walk {
            Walk::Rows => 1,
            Walk::Cols => self.bs,
        };
        Axis::tiled(self.cross_off, self.bs, inner)
    }
}

/// Lowers block rows (columns) `groups` of `topo` into rectangles, in
/// ascending order, calling `f` once per rectangle. Rows (columns)
/// without blocks, or with no valid row, produce none.
///
/// A run of block rows is one rectangle when their column lists are
/// identical and all but the last are full: row-major storage then puts
/// block `(r0 + t, cross[j])` at slot `first + t * cross.len() + j`, and
/// the run's valid rows are its first `span_len`. A run of block columns
/// is one rectangle when their row lists are identical: row-major storage
/// sorts each row's columns and no column lies between two neighbours, so
/// every block then sits exactly one slot after its left neighbour and
/// block `(cross[j], c0 + t)` is at slot `slot(cross[j], c0) + t`.
fn for_each_rect(topo: &Topology, walk: Walk, groups: Range<usize>, mut f: impl FnMut(&Rect<'_>)) {
    let bs = topo.block_size().get();
    let area = topo.block_size().area();
    let row_indices = topo.row_indices();
    let col_indices = topo.col_indices();
    let transpose = topo.transpose_indices();
    let rows_valid = topo.rows_valid();
    let offsets = match walk {
        Walk::Rows => topo.row_offsets(),
        Walk::Cols => topo.col_offsets(),
    };
    let mut cross = Vec::new();
    let mut span_off = Vec::new();
    let mut cross_off = Vec::new();

    let mut g0 = groups.start;
    while g0 < groups.end {
        let (lo, hi) = (offsets[g0], offsets[g0 + 1]);
        let width = hi - lo;
        let extends = |g: usize| {
            let at = offsets[g];
            if offsets[g + 1] - at != width {
                return false;
            }
            match walk {
                Walk::Rows => {
                    rows_valid[g - 1] == bs && col_indices[at..at + width] == col_indices[lo..hi]
                }
                Walk::Cols => (0..width).all(|j| {
                    let (left, here) = (transpose[offsets[g - 1] + j], transpose[at + j]);
                    row_indices[here] == row_indices[left]
                }),
            }
        };
        let mut g1 = g0 + 1;
        while g1 < groups.end && extends(g1) {
            g1 += 1;
        }
        // Valid rows are a prefix of the run (of the column's row list).
        let (span_len, cross_len) = match walk {
            Walk::Rows => ((g1 - g0 - 1) * bs + rows_valid[g1 - 1], width * bs),
            Walk::Cols => {
                let held = |&slot: &usize| rows_valid[row_indices[slot]];
                ((g1 - g0) * bs, transpose[lo..hi].iter().map(held).sum())
            }
        };
        if span_len > 0 && cross_len > 0 {
            let first = match walk {
                Walk::Rows => lo,
                Walk::Cols => transpose[lo],
            };
            cross.clear();
            cross_off.clear();
            match walk {
                Walk::Rows => {
                    cross.extend_from_slice(&col_indices[lo..hi]);
                    cross_off.extend((0..width).map(|j| j * area));
                }
                Walk::Cols => {
                    cross.extend(transpose[lo..hi].iter().map(|&slot| row_indices[slot]));
                    // Ascending rows are ascending slots: `first` is the
                    // smallest.
                    cross_off.extend(transpose[lo..hi].iter().map(|&slot| (slot - first) * area));
                }
            }
            let pitch = match walk {
                Walk::Rows => width * area,
                Walk::Cols => area,
            };
            span_off.clear();
            span_off.extend((0..g1 - g0).map(|t| t * pitch));
            f(&Rect {
                walk,
                bs,
                span: g0..g1,
                cross: &cross,
                span_len,
                cross_len,
                first,
                span_off: &span_off,
                cross_off: &cross_off,
            });
        }
        g0 = g1;
    }
}

/// Tile offsets that gather the `bs`-wide panels `blocks` of a dense
/// operand along an axis whose logical stride is `stride`.
fn gather_panels(blocks: &[usize], bs: usize, stride: usize, tile_off: &mut Vec<usize>) {
    tile_off.clear();
    tile_off.extend(blocks.iter().map(|&g| g * bs * stride));
}

/// Running total, over the block rows (columns) of `walk`, of the valid
/// rows their blocks hold: the work a product issues up to each group, in
/// units of `bs` multiply-adds per element of its free dimension.
fn real_rows(topo: &Topology, walk: Walk) -> Vec<usize> {
    let (offsets, order) = match walk {
        Walk::Rows => (topo.row_offsets(), None),
        Walk::Cols => (topo.col_offsets(), Some(topo.transpose_indices())),
    };
    let held = |p: usize| topo.rows_valid()[topo.row_indices()[order.map_or(p, |o| o[p])]];
    let mut total = vec![0usize; offsets.len()];
    for g in 1..offsets.len() {
        total[g] = total[g - 1] + (offsets[g - 1]..offsets[g]).map(held).sum::<usize>();
    }
    total
}

/// Cuts the block rows (columns) whose running work is `work`
/// ([`real_rows`]) into at most `bands` consecutive ranges of about equal
/// work; returns the boundaries (`cuts[0] = 0`, last = number of groups).
/// Every band but possibly the only one holds work.
fn band_cuts(work: &[usize], bands: usize) -> Vec<usize> {
    let groups = work.len() - 1;
    let all = work[groups];
    let mut cuts = vec![0usize];
    for b in 1..bands {
        let target = all * b / bands;
        let g = work.partition_point(|&w| w < target);
        if g > cuts[cuts.len() - 1] && g < groups && work[g] < all {
            cuts.push(g);
        }
    }
    cuts.push(groups);
    cuts
}

/// Logical `(row, column)` strides of `op(m)` over `m`'s row-major
/// storage: transposition is a stride swap.
fn strides(m: &Matrix, op: Trans) -> (usize, usize) {
    match op {
        Trans::N => (m.cols(), 1),
        Trans::T => (1, m.cols()),
    }
}

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
        /// Returns [`SparseError::Mismatch`] on incompatible shapes. A
        /// tripped ambient context unwinds as [`try_sdd_op`] describes.
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
/// `op_b(b)` is not `K x N`, where `(M, N) = topo.shape()`.
///
/// # Panics
///
/// Unwinds with a [`megablocks_exec::ExecError`] payload when the ambient
/// context trips or the launch is shed under overload, like every kernel
/// launch ([`megablocks_exec::LaunchPlan::launch`]).
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

    let mut out = BlockSparseMatrix::pooled_zeros(topo);
    let work = real_rows(topo, Walk::Rows);
    let real = work[topo.block_rows()] * bs;
    telemetry::counter_with("sparse.blocks", variant).add(topo.nnz_blocks() as u64);
    telemetry::counter_with("sparse.flops", variant).add(2 * (real * k) as u64);
    if real == 0 || k == 0 {
        return Ok(out);
    }

    let threads = exec::parallelism_for(real * k, PARALLEL_THRESHOLD).min(topo.block_rows());
    let area = topo.block_size().area();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let (a_rs, a_cs) = strides(a, op_a);
    let (b_rs, b_cs) = strides(b, op_b);
    let row_offsets = topo.row_offsets();

    // Each band owns a run of block rows, hence a contiguous range of
    // output blocks. A rectangle of output blocks is the product of A's
    // row panels `span` with B's column panels `cross`, written in place
    // into block storage.
    let cuts = band_cuts(&work, threads);
    let body = |band: &mut [f32], b: usize| {
        let band_first = row_offsets[cuts[b]];
        let mut b_cols = Vec::new();
        for_each_rect(topo, Walk::Rows, cuts[b]..cuts[b + 1], |rect| {
            gather_panels(rect.cross, bs, b_cs, &mut b_cols);
            block_gemm(
                rect.span_len,
                rect.cross_len,
                k,
                1.0,
                PanelView::new(&a_data[rect.span.start * bs * a_rs..], a_rs, a_cs),
                PanelView::with_axes(b_data, Axis::Strided(b_rs), Axis::tiled(&b_cols, bs, b_cs)),
                OutView::with_axes(
                    &mut band[(rect.first - band_first) * area..],
                    rect.span_axis(),
                    rect.cross_axis(),
                ),
            );
        });
    };

    let band_lens = cuts
        .windows(2)
        .map(|w| (row_offsets[w[1]] - row_offsets[w[0]]) * area)
        .collect();
    exec::LaunchPlan::over_bands(variant, out.as_mut_slice(), band_lens, &body).launch();
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
    // The span covers the materialized transpose plus the inner DSD (which
    // records its own nested "sparse.dsd" span), so the ablation's extra
    // cost shows up as this span's exclusive time.
    let _span = telemetry::span("sparse.dst_d_explicit");
    try_dsd(&s.explicit_transpose(), d).unwrap_or_else(|e| panic!("{e}"))
}

/// DS^TD accumulated into a caller's matrix: `out += s^T * d` — the
/// second-layer weight gradient added straight into a parameter's
/// gradient, with no temporary and no second pass. The same bits as
/// adding a separately computed [`dst_d`]: each element of `out` is
/// written by one [`block_gemm`], which adds the element's finished sum
/// once, and a sum that starts at `+0` is never `-0`.
///
/// # Panics
///
/// Panics if the logical shapes are incompatible or `out` is not the
/// product's shape.
pub fn dst_d_accumulate(s: &BlockSparseMatrix, d: &Matrix, out: &mut Matrix) {
    dsd_into(s, Trans::T, d, Trans::N, out).unwrap_or_else(|e| panic!("{e}"))
}

/// General DSD: `out = op_s(s) * op_d(d)`.
///
/// # Errors
///
/// Returns [`SparseError::Mismatch`] if the inner dimensions of `op_s(s)`
/// and `op_d(d)` differ. A tripped ambient context unwinds as
/// [`try_sdd_op`] describes.
pub fn try_dsd_op(
    s: &BlockSparseMatrix,
    op_s: Trans,
    d: &Matrix,
    op_d: Trans,
) -> Result<Matrix, SparseError> {
    let (rows, cols) = s.topology().shape();
    let rows = if op_s == Trans::N { rows } else { cols };
    let mut out = Matrix::pooled_zeros(rows, logical(d, op_d).1);
    dsd_into(s, op_s, d, op_d, &mut out)?;
    Ok(out)
}

/// The body of every DSD: `out += op_s(s) * op_d(d)`.
fn dsd_into(
    s: &BlockSparseMatrix,
    op_s: Trans,
    d: &Matrix,
    op_d: Trans,
    out: &mut Matrix,
) -> Result<(), SparseError> {
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
    if out.shape() != (sm, n) {
        return Err(SparseError::Mismatch(format!(
            "dsd: output is {:?}, the product is {sm}x{n}",
            out.shape()
        )));
    }

    let variant = dsd_variant(op_s, op_d);
    let _span = telemetry::span(variant);
    // Output rows are grouped by block row (op_s = N) or block column
    // (op_s = T, walked through the transpose indices, §5.1.4); each group
    // of `bs` output rows belongs to exactly one band.
    let walk = match op_s {
        Trans::N => Walk::Rows,
        Trans::T => Walk::Cols,
    };
    let work = real_rows(topo, walk);
    let groups = work.len() - 1;
    let real = work[groups] * bs;
    telemetry::counter_with("sparse.blocks", variant).add(topo.nnz_blocks() as u64);
    telemetry::counter_with("sparse.flops", variant).add(2 * (real * n) as u64);
    if real == 0 || n == 0 {
        return Ok(());
    }

    let area = topo.block_size().area();
    let s_data = s.as_slice();
    let d_data = d.as_slice();
    let (d_rs, d_cs) = strides(d, op_d);

    let threads = exec::parallelism_for(real * n, PARALLEL_THRESHOLD).min(groups);

    // A rectangle's output rows are the product of its sparse blocks —
    // `span` along the output rows, `cross` along the reduction — with the
    // dense row panels `cross`, gathered in place: one accumulator per
    // element over all of the row's nonzero blocks.
    let cuts = band_cuts(&work, threads);
    let body = |band: &mut [f32], b: usize| {
        let mut d_rows = Vec::new();
        for_each_rect(topo, walk, cuts[b]..cuts[b + 1], |rect| {
            gather_panels(rect.cross, bs, d_rs, &mut d_rows);
            block_gemm(
                rect.span_len,
                n,
                rect.cross_len,
                1.0,
                PanelView::with_axes(
                    &s_data[rect.first * area..],
                    rect.span_axis(),
                    rect.cross_axis(),
                ),
                PanelView::with_axes(d_data, Axis::tiled(&d_rows, bs, d_rs), Axis::Strided(d_cs)),
                OutView::new(&mut band[(rect.span.start - cuts[b]) * bs * n..], n),
            );
        });
    };

    let band_lens = cuts.windows(2).map(|w| (w[1] - w[0]) * bs * n).collect();
    exec::LaunchPlan::over_bands(variant, out.as_mut_slice(), band_lens, &body).launch();
    Ok(())
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

/// DD^TS accumulated into a caller's matrix: `out += d^T * s` — the
/// first-layer weight gradient added straight into a parameter's
/// gradient, with the same bits as adding a separately computed
/// [`ddt_s`] (see [`dst_d_accumulate`]).
///
/// # Panics
///
/// Panics if the logical shapes are incompatible or `out` is not the
/// product's shape.
pub fn ddt_s_accumulate(d: &Matrix, s: &BlockSparseMatrix, out: &mut Matrix) {
    dds_into(d, Trans::T, s, Trans::N, out).unwrap_or_else(|e| panic!("{e}"))
}

/// General DDS: `out = op_d(d) * op_s(s)`.
///
/// # Errors
///
/// Returns [`SparseError::Mismatch`] if the inner dimensions of `op_d(d)`
/// and `op_s(s)` differ. A tripped ambient context unwinds as
/// [`try_sdd_op`] describes.
pub fn try_dds_op(
    d: &Matrix,
    op_d: Trans,
    s: &BlockSparseMatrix,
    op_s: Trans,
) -> Result<Matrix, SparseError> {
    let (rows, cols) = s.topology().shape();
    let cols = if op_s == Trans::N { cols } else { rows };
    let mut out = Matrix::pooled_zeros(logical(d, op_d).0, cols);
    dds_into(d, op_d, s, op_s, &mut out)?;
    Ok(out)
}

/// The body of every DDS: `out += op_d(d) * op_s(s)`.
fn dds_into(
    d: &Matrix,
    op_d: Trans,
    s: &BlockSparseMatrix,
    op_s: Trans,
    out: &mut Matrix,
) -> Result<(), SparseError> {
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
    if out.shape() != (m, n) {
        return Err(SparseError::Mismatch(format!(
            "dds: output is {:?}, the product is {m}x{n}",
            out.shape()
        )));
    }

    let variant = dds_variant(op_d, op_s);
    let _span = telemetry::span(variant);
    let real = real_rows(topo, Walk::Rows)[topo.block_rows()] * bs;
    telemetry::counter_with("sparse.blocks", variant).add(topo.nnz_blocks() as u64);
    telemetry::counter_with("sparse.flops", variant).add(2 * (real * m) as u64);
    if real == 0 || m == 0 {
        return Ok(());
    }

    let area = topo.block_size().area();
    let s_data = s.as_slice();
    let d_data = d.as_slice();
    let (d_rs, d_cs) = strides(d, op_d);
    let threads = exec::parallelism_for(real * m, PARALLEL_THRESHOLD).min(m);

    // Bands are rows of the dense output; every band walks all rectangles.
    // A rectangle owns the output column stripe `span` — block columns of
    // `s` under op_s = N (transpose indices), block rows under op_s = T —
    // and reduces over `cross`: out[band rows, span] += op_d(d)[band rows,
    // cross panels] * op_s(s)[cross, span], one accumulator per element
    // over all of the column's nonzero blocks.
    let (walk, groups) = match op_s {
        Trans::N => (Walk::Cols, topo.block_cols()),
        Trans::T => (Walk::Rows, topo.block_rows()),
    };
    let body = |band: &mut [f32], i0: usize| {
        let rows = band.len() / n;
        let mut d_cols = Vec::new();
        for_each_rect(topo, walk, 0..groups, |rect| {
            gather_panels(rect.cross, bs, d_cs, &mut d_cols);
            block_gemm(
                rows,
                rect.span_len,
                rect.cross_len,
                1.0,
                PanelView::with_axes(
                    &d_data[i0 * d_rs..],
                    Axis::Strided(d_rs),
                    Axis::tiled(&d_cols, bs, d_cs),
                ),
                PanelView::with_axes(
                    &s_data[rect.first * area..],
                    rect.cross_axis(),
                    rect.span_axis(),
                ),
                OutView::new(&mut band[rect.span.start * bs..], n),
            );
        });
    };

    let rows_per_thread = m.div_ceil(threads);
    exec::LaunchPlan::over_items(variant, out.as_mut_slice(), n, rows_per_thread, &body).launch();
    Ok(())
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

    /// `(span, cross)` of every rectangle `groups` lowers to.
    fn rects(topo: &Topology, walk: Walk, groups: Range<usize>) -> Vec<(Range<usize>, Vec<usize>)> {
        let mut out = Vec::new();
        for_each_rect(topo, walk, groups, |r| {
            out.push((r.span.clone(), r.cross.to_vec()))
        });
        out
    }

    #[test]
    fn moe_topology_lowers_to_one_rectangle_per_expert() {
        // Experts of 2, 0 and 3 token blocks over 2 ffn blocks each.
        let topo = Topology::for_moe(&[8, 0, 12], 8, bs(4)).unwrap();
        assert_eq!(
            rects(&topo, Walk::Rows, 0..5),
            [(0..2, vec![0, 1]), (2..5, vec![4, 5])]
        );
        // The empty expert's two block columns group into nothing.
        assert_eq!(
            rects(&topo, Walk::Cols, 0..6),
            [(0..2, vec![0, 1]), (4..6, vec![2, 3, 4])]
        );
        // A band boundary inside an expert cuts its rectangle in two.
        assert_eq!(
            rects(&topo, Walk::Rows, 0..3),
            [(0..2, vec![0, 1]), (2..3, vec![4, 5])]
        );
        assert_eq!(rects(&topo, Walk::Rows, 3..5), [(3..5, vec![4, 5])]);
    }

    #[test]
    fn irregular_topology_lowers_to_one_rectangle_per_row_or_column() {
        let topo = irregular_topo(4);
        assert_eq!(
            rects(&topo, Walk::Rows, 0..3),
            [
                (0..1, vec![0, 3]),
                (1..2, vec![1, 2]),
                (2..3, vec![0, 2, 3])
            ]
        );
        assert_eq!(
            rects(&topo, Walk::Cols, 0..4),
            [
                (0..1, vec![0, 2]),
                (1..2, vec![1]),
                (2..3, vec![1, 2]),
                (3..4, vec![0, 2])
            ]
        );
    }

    /// `(span_len, cross_len)` of every rectangle `groups` lowers to.
    fn extents(topo: &Topology, walk: Walk) -> Vec<(usize, usize)> {
        let groups = match walk {
            Walk::Rows => topo.block_rows(),
            Walk::Cols => topo.block_cols(),
        };
        let mut out = Vec::new();
        for_each_rect(topo, walk, 0..groups, |r| {
            out.push((r.span_len, r.cross_len))
        });
        out
    }

    #[test]
    fn rectangles_carry_real_rows_and_skip_empty_block_rows() {
        // Experts of 6, 0, 1 and 8 tokens over 2 ffn blocks: a partial
        // block, no block, one row of one block, two full blocks.
        let topo = Topology::for_moe(&[6, 0, 1, 8], 8, bs(4)).unwrap();
        assert_eq!(topo.rows_valid(), [4, 2, 1, 4, 4]);
        assert_eq!(
            rects(&topo, Walk::Rows, 0..5),
            [(0..2, vec![0, 1]), (2..3, vec![4, 5]), (3..5, vec![6, 7])]
        );
        assert_eq!(extents(&topo, Walk::Rows), [(6, 8), (1, 8), (8, 8)]);
        assert_eq!(extents(&topo, Walk::Cols), [(8, 6), (8, 1), (8, 8)]);
        assert_eq!(real_rows(&topo, Walk::Rows), [0, 8, 12, 14, 22, 30]);
        assert_eq!(real_rows(&topo, Walk::Cols)[8], 30);

        // A capacity layout: three block rows per expert, 5 and 0 kept.
        let topo = Topology::for_moe(&[12, 12], 4, bs(4))
            .unwrap()
            .with_rows_valid(vec![4, 1, 0, 0, 0, 0])
            .unwrap();
        assert_eq!(rects(&topo, Walk::Rows, 0..6), [(0..2, vec![0])]);
        assert_eq!(extents(&topo, Walk::Rows), [(5, 4)]);
        assert_eq!(extents(&topo, Walk::Cols), [(4, 5)]);
        // No band is cut over the empty block rows.
        assert_eq!(band_cuts(&real_rows(&topo, Walk::Rows), 4), [0, 1, 6]);
    }

    #[test]
    fn band_cuts_balance_work_on_group_boundaries() {
        // Block rows holding 4, 0, 1, 1, 2 units of work.
        let offsets = [0, 4, 4, 5, 6, 8];
        assert_eq!(band_cuts(&offsets, 1), [0, 5]);
        assert_eq!(band_cuts(&offsets, 2), [0, 1, 5]);
        // Never an empty band, however many are asked for.
        assert_eq!(band_cuts(&offsets, 8), [0, 1, 3, 4, 5]);
        assert_eq!(band_cuts(&[0, 3], 4), [0, 1]);
        assert_eq!(band_cuts(&[0, 0, 0], 2), [0, 2]);
    }

    /// The bands of a launch own disjoint runs of groups that cover them
    /// all: the cuts start at 0, end at the last group and ascend, and
    /// every band of a multi-band launch holds work.
    #[test]
    fn band_cuts_tile_the_groups() {
        let mut state = 7u64;
        let mut held = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 62) as usize // 0..=3 units, empty groups included
        };
        for groups in 1..12 {
            for _ in 0..8 {
                let mut work = vec![0usize];
                for g in 0..groups {
                    work.push(work[g] + held());
                }
                for bands in 1..10 {
                    let cuts = band_cuts(&work, bands);
                    assert_eq!(cuts.first(), Some(&0), "{work:?} into {bands}");
                    assert_eq!(cuts.last(), Some(&groups), "{work:?} into {bands}");
                    assert!(cuts.len() <= bands + 1, "{work:?} into {bands}: {cuts:?}");
                    if cuts.len() > 2 {
                        let holds = cuts.windows(2).all(|w| work[w[0]] < work[w[1]]);
                        assert!(holds, "{work:?} into {bands}: {cuts:?}");
                    }
                }
            }
        }
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

    /// Accumulating a weight gradient in place has the bits of adding the
    /// separately computed product, and an empty expert's rows (`dst_d`)
    /// and columns (`ddt_s`) keep the gradient's values.
    #[test]
    fn accumulate_forms_match_adding_the_product() {
        let (block, hidden, ffn) = (4, 6, 8);
        let topo = Topology::for_moe(&[4, 0, 7], ffn, bs(block)).unwrap();
        let (tokens, cols) = topo.shape();
        let x = rand_matrix(tokens, hidden, 50);
        let h = sdd(&x, &rand_matrix(hidden, cols, 51), &topo);
        let dy = rand_matrix(tokens, hidden, 52);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let grad = rand_matrix(cols, hidden, 53);
        let mut want = grad.clone();
        want.add_assign(&dst_d(&h, &dy));
        let mut got = grad.clone();
        dst_d_accumulate(&h, &dy, &mut got);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got.row(ffn), grad.row(ffn), "the empty expert's rows");

        let grad = rand_matrix(hidden, cols, 54);
        let mut want = grad.clone();
        want.add_assign(&ddt_s(&x, &h));
        let mut got = grad.clone();
        ddt_s_accumulate(&x, &h, &mut got);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got[(0, ffn)], grad[(0, ffn)], "the empty expert's columns");

        let err = dsd_into(&h, Trans::T, &dy, Trans::N, &mut Matrix::zeros(cols, 1));
        assert!(err.unwrap_err().to_string().contains("dsd: output is"));
        let err = dds_into(&x, Trans::T, &h, Trans::N, &mut Matrix::zeros(1, cols));
        assert!(err.unwrap_err().to_string().contains("dds: output is"));
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
