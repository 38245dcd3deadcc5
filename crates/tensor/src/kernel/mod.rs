//! The one GEMM primitive every product runs on.
//!
//! Every matrix product in the workspace — the four dense [`gemm`]
//! transpose combinations and the whole SDD/DSD/DDS block-sparse family —
//! reduces to the same primitive: accumulate `alpha * A * B` into a
//! rectangle of an output buffer, where `A`, `B` and the output are
//! *separable views* over dense storage or sparse blocks. This module owns
//! that primitive. Ops keep their topology iteration (which rectangles of
//! nonzero blocks exist, which bands a worker owns) and delegate every
//! product to [`block_gemm`], which runs the tiled routine (`tiled.rs`):
//! packed A/B panels with `Mc`/`Nc`/`Kc` cache blocking and an `MR x NR`
//! register tile whose lanes vectorize across output columns, one
//! instantiation per instruction set ([`tiled_variant`] names the one
//! this CPU runs). [`scalar`] — one dot product per output element —
//! defines the result: the tiled routine is bit-identical to it, runs it
//! itself for products too small to pack, and every parity test compares
//! against it.
//!
//! # Separable views
//!
//! A view addresses element `(i, p)` at `rows.offset(i) + cols.offset(p)`:
//! its two axes are independent ([`Axis`]). An axis is either *strided*
//! (`i * stride` — a dense matrix, transposed by swapping the strides) or
//! *tiled* (`tile_off[i / bs] + (i % bs) * inner` — block-sparse storage
//! restricted to a rectangle of blocks, or a gather of `bs`-wide
//! row/column panels of a dense matrix). Block storage over a rectangle
//! of blocks is separable in exactly this sense, so the routines pack
//! sparse blocks and gathered dense panels directly, and write back
//! straight into block storage: one call covers a whole rectangle of
//! nonzero blocks, with a reduction as long as the rectangle is wide.
//!
//! # Determinism contract
//!
//! Per output element, a single `f32` accumulator filled in ascending-`k`
//! order, with `alpha` applied exactly once after the reduction
//! (`out[i][j] += alpha * Σ_p a[i][p] * b[p][j]`). Cache blocking only
//! *chunks* that reduction — the sequence of binary `f32` additions per
//! element is unchanged — so every routine and every variant gives the
//! bits of [`scalar`], and the exec runtime's cross-worker-count
//! determinism guarantee holds on every CPU. No routine may skip zero
//! operands (adding `0.0` is not a bitwise no-op when `-0.0` is
//! involved) or reassociate the reduction.
//!
//! `k` is the view's logical reduction index. For a block-sparse operand
//! the ops gather a block row's (column's) nonzero blocks along it in
//! ascending block index, so a DSD/DDS output element is **one**
//! accumulator over that row's (column's) nonzero blocks in ascending
//! block index and ascending `k` inside each block — the order a dense
//! GEMM over the densified operand uses, minus the structural zeros.
//! An element's value depends only on its own row and column of the
//! operands, never on how many rows or columns share the call, which is
//! why banding and request batching cannot change a bit.
//!
//! # Routine selection
//!
//! By shape and by CPU, never by a setting: [`scalar`] below a small
//! number of multiply-adds, a few-row routine at one to three rows, the
//! blocked routine otherwise — each in the widest variant the running CPU
//! supports. The outputs are identical either way, so there is nothing to
//! choose from outside.
//!
//! [`gemm`]: crate::gemm

// A kernel hot path, `scalar` and `tiled` included: propagate an error
// instead of panicking on one.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use megablocks_telemetry as telemetry;

mod scalar;
mod tiled;

pub use scalar::scalar;

/// How one axis of a view maps a logical index to a storage offset.
#[derive(Debug, Clone, Copy)]
pub enum Axis<'a> {
    /// `offset(i) = i * stride`: a row or column of dense storage.
    Strided(usize),
    /// `offset(i) = tile_off[i / bs] + (i % bs) * inner`: consecutive
    /// `bs`-wide tiles placed anywhere — block-sparse storage along one
    /// side of a rectangle of blocks, or gathered panels of a dense
    /// matrix.
    Tiled {
        /// Offset of each tile's first element.
        tile_off: &'a [usize],
        /// Logical indices per tile.
        bs: usize,
        /// Stride between consecutive indices inside a tile.
        inner: usize,
    },
}

impl<'a> Axis<'a> {
    /// A tiled axis: `bs` indices per tile, `inner` apart inside a tile,
    /// tile `t` starting at `tile_off[t]`.
    #[inline]
    pub fn tiled(tile_off: &'a [usize], bs: usize, inner: usize) -> Self {
        Axis::Tiled {
            tile_off,
            bs,
            inner,
        }
    }

    /// Storage offset this axis contributes for logical index `i`.
    #[inline]
    pub fn offset(&self, i: usize) -> usize {
        match *self {
            Axis::Strided(stride) => i * stride,
            Axis::Tiled {
                tile_off,
                bs,
                inner,
            } => tile_off[i / bs] + (i % bs) * inner,
        }
    }

    /// The offsets of indices `0..len`, as a table.
    fn offsets(&self, len: usize) -> Vec<usize> {
        (0..len).map(|i| self.offset(i)).collect()
    }

    /// Calls `f(at, offset, step, count)` for each maximal constant-step
    /// run covering logical indices `[start, start + len)`, in order:
    /// index `start + at + q` lives at `offset + q * step` for
    /// `q < count`. A strided axis is one run, a tiled axis one per tile
    /// touched — the inner loops of packing and writeback run over these.
    #[inline]
    fn for_each_run(
        &self,
        start: usize,
        len: usize,
        mut f: impl FnMut(usize, usize, usize, usize),
    ) {
        match *self {
            Axis::Strided(stride) => f(0, start * stride, stride, len),
            Axis::Tiled {
                tile_off,
                bs,
                inner,
            } => {
                let mut at = 0;
                while at < len {
                    let i = start + at;
                    let count = (bs - i % bs).min(len - at);
                    f(at, tile_off[i / bs] + (i % bs) * inner, inner, count);
                    at += count;
                }
            }
        }
    }

    /// The longest constant-step run from index `start`, within `len`
    /// indices: `(offset, step, count)`, index `start + q` at `offset +
    /// q * step` for `q < count`. Unlike [`Axis::for_each_run`] it runs
    /// on across tiles that continue one another (gathered panels side by
    /// side).
    #[inline]
    fn run_from(&self, start: usize, len: usize) -> (usize, usize, usize) {
        match *self {
            Axis::Strided(stride) => (start * stride, stride, len),
            Axis::Tiled {
                tile_off,
                bs,
                inner,
            } => {
                let (off, step) = (self.offset(start), if bs == 1 { 1 } else { inner });
                let mut count = (bs - start % bs).min(len);
                while step == 1 && count < len && tile_off[(start + count) / bs] == off + count {
                    count += bs.min(len - count);
                }
                (off, step, count)
            }
        }
    }

    /// Whether the axis addresses `len` logical indices at all (a tiled
    /// axis needs a tile offset for every tile touched).
    fn spans(&self, len: usize) -> bool {
        match *self {
            Axis::Strided(_) => true,
            Axis::Tiled { tile_off, bs, .. } => bs > 0 && len.div_ceil(bs) <= tile_off.len(),
        }
    }

    /// Largest offset over indices `0..len` (`len > 0`, `spans(len)`).
    fn max_offset(&self, len: usize) -> usize {
        match *self {
            Axis::Strided(stride) => (len - 1) * stride,
            Axis::Tiled {
                tile_off,
                bs,
                inner,
            } => {
                let tiles = len.div_ceil(bs);
                (0..tiles)
                    .map(|t| tile_off[t] + (bs.min(len - t * bs) - 1) * inner)
                    .max()
                    .unwrap_or(0)
            }
        }
    }

    /// This axis's mixed-radix digits over `0..len`, each as `(smallest
    /// gap between two distinct offsets, largest offset difference)`, or
    /// `None` if two indices of the axis already collide (tile offsets
    /// not strictly ascending). An unused digit is [`NO_DIGIT`]. See
    /// [`OutView::is_injective`].
    fn digits(&self, len: usize) -> Option<[(usize, usize); 2]> {
        let digit = |gap: usize, steps: usize| {
            if steps > 0 {
                (gap, steps * gap)
            } else {
                NO_DIGIT
            }
        };
        match *self {
            Axis::Strided(stride) => Some([digit(stride, len - 1), NO_DIGIT]),
            Axis::Tiled {
                tile_off,
                bs,
                inner,
            } => {
                let tiles = &tile_off[..len.div_ceil(bs)];
                let mut across = NO_DIGIT;
                if let [first, .., last] = tiles {
                    let mut gap = usize::MAX;
                    for w in tiles.windows(2) {
                        gap = gap.min(w[1].checked_sub(w[0])?);
                    }
                    across = (gap, last - first);
                }
                Some([digit(inner, bs.min(len) - 1), across])
            }
        }
    }
}

/// A digit that constrains nothing: sorts last, adds no span.
const NO_DIGIT: (usize, usize) = (usize::MAX, 0);

/// A read-only separable view of one GEMM operand.
///
/// Element `(i, p)` lives at `data[rows.offset(i) + cols.offset(p)]`.
/// [`PanelView::new`] is the all-strided case: transposition is a stride
/// swap, and a row band or column slab of a row-major dense matrix is the
/// slice starting there with the matrix's strides. [`PanelView::with_axes`]
/// takes tiled axes too, which is how a rectangle of sparse blocks or a
/// gather of dense panels is read in place — one view type covers every
/// operand in the workspace without copying.
#[derive(Debug, Clone, Copy)]
pub struct PanelView<'a> {
    data: &'a [f32],
    rows: Axis<'a>,
    cols: Axis<'a>,
}

impl<'a> PanelView<'a> {
    /// A strided view: element `(i, p)` at `i * row_stride + p * col_stride`.
    #[inline]
    pub fn new(data: &'a [f32], row_stride: usize, col_stride: usize) -> Self {
        PanelView::with_axes(data, Axis::Strided(row_stride), Axis::Strided(col_stride))
    }

    /// A view over `data` with the given axes.
    #[inline]
    pub fn with_axes(data: &'a [f32], rows: Axis<'a>, cols: Axis<'a>) -> Self {
        PanelView { data, rows, cols }
    }

    /// The backing slice.
    #[inline]
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// The axis along logical rows.
    #[inline]
    pub fn rows(&self) -> Axis<'a> {
        self.rows
    }

    /// The axis along logical columns.
    #[inline]
    pub fn cols(&self) -> Axis<'a> {
        self.cols
    }

    /// Element `(i, p)` of the logical operand.
    #[inline]
    pub fn at(&self, i: usize, p: usize) -> f32 {
        self.data[self.rows.offset(i) + self.cols.offset(p)]
    }

    /// Whether an `m x k` logical operand fits inside the backing slice.
    fn covers(&self, m: usize, k: usize) -> bool {
        covers(self.data.len(), &self.rows, &self.cols, m, k)
    }
}

/// Whether every element of an `m x n` view over `len` floats is in
/// bounds: both axes address their extents and the two largest offsets
/// together stay inside.
fn covers(len: usize, rows: &Axis<'_>, cols: &Axis<'_>, m: usize, n: usize) -> bool {
    m == 0
        || n == 0
        || (rows.spans(m) && cols.spans(n) && rows.max_offset(m) + cols.max_offset(n) < len)
}

/// The writable separable view a product accumulates into.
///
/// Element `(i, j)` lives at `data[rows.offset(i) + cols.offset(j)]`.
/// [`OutView::new`] is a band of a row-major dense matrix (rows
/// `row_stride` apart, unit column stride); [`OutView::with_axes`] takes
/// tiled axes, which is how SDD writes a rectangle of output blocks
/// straight into block storage.
#[derive(Debug)]
pub struct OutView<'a> {
    data: &'a mut [f32],
    rows: Axis<'a>,
    cols: Axis<'a>,
}

impl<'a> OutView<'a> {
    /// Rows `row_stride` apart, columns contiguous.
    #[inline]
    pub fn new(data: &'a mut [f32], row_stride: usize) -> Self {
        OutView::with_axes(data, Axis::Strided(row_stride), Axis::Strided(1))
    }

    /// A writable view over `data` with the given axes.
    #[inline]
    pub fn with_axes(data: &'a mut [f32], rows: Axis<'a>, cols: Axis<'a>) -> Self {
        OutView { data, rows, cols }
    }

    /// Structural proof that no two of the `m x n` elements share an
    /// offset — what `row_stride >= n` is for a dense band, stated for
    /// separable views. Each axis contributes one or two "digits" (the
    /// stride of a strided axis; the inner stride and the tile offsets of
    /// a tiled one); sorted by their smallest gap, every digit's gap must
    /// exceed the largest offset the smaller digits can add up to, as in
    /// a mixed-radix number. Sufficient, not necessary, and `O(tiles)`.
    fn is_injective(&self, m: usize, n: usize) -> bool {
        let (Some([r0, r1]), Some([c0, c1])) = (self.rows.digits(m), self.cols.digits(n)) else {
            return false;
        };
        let mut digits = [r0, r1, c0, c1];
        digits.sort_unstable();
        let mut below = 0usize;
        digits.iter().all(|&(gap, span)| {
            let clear = gap > below;
            below += span;
            clear
        })
    }
}

/// The instantiation of the tiled routine the running CPU dispatches
/// to — `"avx2-4x16"` or `"baseline-4x8"`: instruction set and register
/// tile. Detected, never configured; every variant is bit-identical to
/// `scalar`, so this names a speed, not a result. Telemetry records it as
/// the label of the `kernel.variant` counter the first time a product
/// runs on it.
pub fn tiled_variant() -> &'static str {
    tiled::Variant::detect().name()
}

/// Products at or above this many flops (`2 * m * n * k`, the number
/// `kernel.flops` adds) record a `kernel.block_gemm` telemetry span;
/// smaller calls only count, so a topology that lowers to many small
/// rectangles stays cheap to dispatch.
const SPAN_FLOPS: usize = 1 << 20;

/// The shared entry every matrix product runs through: accumulates
/// `alpha * a * b` into the `m x n` view `out`, bit for bit as [`scalar`]
/// does.
///
/// `a` is logically `m x k`, `b` is `k x n`. When `k == 0` or
/// `alpha == 0.0` the output is untouched (no `+= 0.0` writeback).
/// `kernel.calls` counts these calls: one per dense band, one per
/// rectangle of nonzero blocks.
///
/// # Panics
///
/// Panics if an operand or the output view does not cover its logical
/// shape, or if the output view cannot be shown to address `m x n`
/// distinct elements (for a dense band: `row_stride < n` with `m > 1`).
pub fn block_gemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: PanelView<'_>,
    b: PanelView<'_>,
    out: OutView<'_>,
) {
    if !adds_anything(m, n, k, alpha, &a, &b, &out) {
        return;
    }
    let flops = 2 * m * n * k;
    telemetry::counter("kernel.calls").inc();
    telemetry::counter("kernel.flops").add(flops as u64);
    let _span = if flops >= SPAN_FLOPS {
        Some(telemetry::span("kernel.block_gemm"))
    } else {
        None
    };
    tiled::run(m, n, k, alpha, a, b, out);
}

/// Checks a product's views and says whether it adds anything: not for
/// an empty output, `k == 0` or `alpha == 0.0`. Both entries ask it
/// first; the routines behind them assume what it asserts.
///
/// # Panics
///
/// As [`block_gemm`].
fn adds_anything(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &PanelView<'_>,
    b: &PanelView<'_>,
    out: &OutView<'_>,
) -> bool {
    if m == 0 || n == 0 {
        return false;
    }
    assert!(
        a.covers(m, k),
        "gemm: A view ({} floats, axes {:?} x {:?}) does not cover {m}x{k}",
        a.data.len(),
        a.rows,
        a.cols
    );
    assert!(
        b.covers(k, n),
        "gemm: B view ({} floats, axes {:?} x {:?}) does not cover {k}x{n}",
        b.data.len(),
        b.rows,
        b.cols
    );
    assert!(
        covers(out.data.len(), &out.rows, &out.cols, m, n),
        "gemm: {m}x{n} output (axes {:?} x {:?}) overflows {} floats",
        out.rows,
        out.cols,
        out.data.len()
    );
    assert!(
        out.is_injective(m, n),
        "gemm: {m}x{n} output view (axes {:?} x {:?}) would alias output elements",
        out.rows,
        out.cols
    );
    k > 0 && alpha != 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_k_and_zero_alpha_leave_output_untouched() {
        let a = [1.0f32; 4];
        let b = [2.0f32; 4];
        let mut out = [-0.0f32; 4];
        block_gemm(
            2,
            2,
            0,
            1.0,
            PanelView::new(&a, 2, 1),
            PanelView::new(&b, 2, 1),
            OutView::new(&mut out, 2),
        );
        assert!(out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
        block_gemm(
            2,
            2,
            2,
            0.0,
            PanelView::new(&a, 2, 1),
            PanelView::new(&b, 2, 1),
            OutView::new(&mut out, 2),
        );
        assert!(out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn undersized_operand_panics() {
        let a = [1.0f32; 3];
        let b = [1.0f32; 4];
        let mut out = [0.0f32; 4];
        block_gemm(
            2,
            2,
            2,
            1.0,
            PanelView::new(&a, 2, 1),
            PanelView::new(&b, 2, 1),
            OutView::new(&mut out, 2),
        );
    }

    #[test]
    #[should_panic(expected = "would alias")]
    fn aliasing_stride_panics() {
        let a = [1.0f32; 4];
        let b = [1.0f32; 4];
        let mut out = [0.0f32; 4];
        block_gemm(
            2,
            2,
            2,
            1.0,
            PanelView::new(&a, 2, 1),
            PanelView::new(&b, 2, 1),
            OutView::new(&mut out, 1),
        );
    }

    #[test]
    fn block_storage_output_is_injective_and_overlaps_are_caught() {
        // A 2x3 rectangle of 4x4 blocks in storage order: the rows'
        // inner stride (4) interleaves with the columns' tiles (16
        // apart), which a plain "row stride >= n" test cannot express.
        let (bs, area) = (4usize, 16usize);
        let rows = [0, 3 * area];
        let cols = [0, area, 2 * area];
        let mut data = vec![0.0f32; 6 * area];
        let view = OutView::with_axes(
            &mut data,
            Axis::tiled(&rows, bs, bs),
            Axis::tiled(&cols, bs, 1),
        );
        assert!(covers(6 * area, &view.rows, &view.cols, 8, 12));
        assert!(view.is_injective(8, 12));
        // Two block rows only two blocks apart: row 1's first block is
        // row 0's third.
        let clash = [0, 2 * area];
        let view = OutView::with_axes(
            &mut data,
            Axis::tiled(&clash, bs, bs),
            Axis::tiled(&cols, bs, 1),
        );
        assert!(!view.is_injective(8, 12));
        // Tile offsets that repeat or descend.
        let repeat = [0, 0];
        let view = OutView::with_axes(&mut data, Axis::tiled(&repeat, bs, bs), Axis::Strided(1));
        assert!(!view.is_injective(8, 4));
    }

    #[test]
    fn tiled_axis_runs_and_offsets_agree() {
        let tiles = [40, 7, 100];
        let axis = Axis::tiled(&tiles, 3, 2);
        assert_eq!(axis.offsets(8), [40, 42, 44, 7, 9, 11, 100, 102]);
        assert_eq!(axis.max_offset(8), 102);
        assert!(axis.spans(9) && !axis.spans(10));
        let mut seen = Vec::new();
        axis.for_each_run(2, 5, |at, off, step, count| {
            seen.push((at, off, step, count))
        });
        assert_eq!(seen, [(0, 44, 2, 1), (1, 7, 2, 3), (4, 100, 2, 1)]);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn tiled_operand_with_too_few_tiles_panics() {
        let a = [1.0f32; 8];
        let b = [1.0f32; 8];
        let mut out = [0.0f32; 4];
        let tiles = [0];
        block_gemm(
            2,
            2,
            4,
            1.0,
            PanelView::with_axes(&a, Axis::Strided(4), Axis::tiled(&tiles, 2, 1)),
            PanelView::new(&b, 2, 1),
            OutView::new(&mut out, 2),
        );
    }
}
