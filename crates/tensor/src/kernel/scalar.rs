//! The reference product: one dot product per output element.
//!
//! This is the workspace's original naive inner loop, hoisted out of the
//! ten per-op copies that used to live in `matmul.rs` and
//! `sparse/src/ops.rs`, restated over separable views ([`PanelView`],
//! [`OutView`]). It performs no blocking and no packing — its value is
//! being obviously conformant to the accumulation-order contract (single
//! accumulator, ascending `k`, `alpha` applied once), which makes it the
//! definition of every product's result: the tiled routine is proven
//! bit-identical to it, on strided and tiled views alike, and runs it
//! itself for products too small to pack.

use super::{adds_anything, OutView, PanelView};

/// The result every product must give: for every `i < m`, `j < n`,
///
/// ```text
/// out[(i, j)] += alpha * (Σ_{p=0..k} a.at(i, p) * b.at(p, j))
/// ```
///
/// with one `f32` accumulator per output element filled in ascending `p`
/// (chunking the reduction is fine — reordering or splitting it is not),
/// `alpha` multiplying the finished sum exactly once, and no term skipped
/// (not even exact zeros). `p` is the views' logical reduction index,
/// whatever storage lies behind it, and `out[(i, j)]` depends only on row
/// `i` of `a` and column `j` of `b`. [`block_gemm`](super::block_gemm)
/// gives the same bits faster; this is the oracle tests compare it with.
///
/// # Panics
///
/// As [`block_gemm`](super::block_gemm).
pub fn scalar(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: PanelView<'_>,
    b: PanelView<'_>,
    out: OutView<'_>,
) {
    if adds_anything(m, n, k, alpha, &a, &b, &out) {
        dot_products(m, n, k, alpha, a, b, out);
    }
}

/// [`scalar`]'s loop, on views [`adds_anything`] has checked.
pub(super) fn dot_products(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: PanelView<'_>,
    b: PanelView<'_>,
    out: OutView<'_>,
) {
    let a_data = a.data();
    let b_data = b.data();
    // The reduction index's offsets into each operand, tabulated once
    // so the inner loop is the same whether `k` runs along dense
    // storage or across a gather of sparse blocks.
    let a_k = a.cols().offsets(k);
    let b_k = b.rows().offsets(k);
    for i in 0..m {
        let a_row = a.rows().offset(i);
        let out_row = out.rows.offset(i);
        for j in 0..n {
            let b_col = b.cols().offset(j);
            let mut acc = 0.0f32;
            for (&ai, &bi) in a_k.iter().zip(&b_k) {
                let (av, bv) =
                    // SAFETY: adds_anything asserted both views cover
                    // their logical shapes: the largest row offset plus
                    // the largest column offset of each view is in
                    // bounds, and a_row/ai (b_col/bi) are offsets of
                    // indices inside those shapes, so neither sum
                    // exceeds it.
                    unsafe {
                        (
                            *a_data.get_unchecked(a_row + ai),
                            *b_data.get_unchecked(bi + b_col),
                        )
                    };
                acc += av * bv;
            }
            out.data[out_row + out.cols.offset(j)] += alpha * acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_hand_computed_product() {
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]] => AB = [[19,22],[43,50]].
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [1.0f32; 4];
        scalar(
            2,
            2,
            2,
            2.0,
            PanelView::new(&a, 2, 1),
            PanelView::new(&b, 2, 1),
            OutView::new(&mut out, 2),
        );
        assert_eq!(out, [39.0, 45.0, 87.0, 101.0]);
    }

    #[test]
    fn transposed_views_are_stride_swaps() {
        // A^T via swapped strides: stored 2x3, viewed 3x2.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [1.0, 0.0, 0.0, 1.0];
        let mut out = [0.0f32; 6];
        scalar(
            3,
            2,
            2,
            1.0,
            PanelView::new(&a, 1, 3),
            PanelView::new(&b, 2, 1),
            OutView::new(&mut out, 2),
        );
        assert_eq!(out, [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }
}
