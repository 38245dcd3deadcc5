//! Token permutation for dMoE layers (paper §5.2).
//!
//! The dMoE groups token rows by expert and pads each group with zero rows
//! to the next multiple of the block size, so the block-sparse kernels only
//! ever see whole blocks. The paper fuses the padding into custom
//! permutation kernels (`padded_gather` / `padded_scatter` in Figure 6);
//! this module reproduces them as launch plans on the shared execution
//! runtime, parallelized over disjoint output-row bands: gather-style
//! kernels iterate destination rows through the precomputed inverse
//! assignment map, scatter-style kernels iterate tokens (a token's `top_k`
//! assignments are consecutive), so no two bands ever touch the same
//! output row.

// A kernel hot path: propagate an error instead of panicking on one.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use megablocks_exec as exec;
use megablocks_sparse::BlockSize;
use megablocks_telemetry as telemetry;
use megablocks_tensor::Matrix;

use crate::Routing;

/// Precomputed permutation metadata for one routing decision.
///
/// Built once per layer invocation (like the sparse [`Topology`]'s
/// metadata, its cost is amortized over the forward and backward passes).
///
/// [`Topology`]: megablocks_sparse::Topology
#[derive(Debug, Clone, PartialEq)]
pub struct PermuteInfo {
    num_tokens: usize,
    top_k: usize,
    tokens_per_expert: Vec<usize>,
    kept_per_expert: Vec<usize>,
    padded_tokens_per_expert: Vec<usize>,
    /// Destination row of each assignment, or [`NO_ROW`] for a dropped
    /// one.
    assignment_row: Vec<usize>,
    /// Inverse of `assignment_row`: the assignment landing on each padded
    /// row, or [`PAD_ROW`] for pure padding rows. Lets gather-style
    /// kernels parallelize over destination rows.
    assignment_of_row: Vec<usize>,
    padded_rows: usize,
}

/// Marker in [`PermuteInfo::assignment_of_row`] for padding rows (no
/// assignment writes there).
const PAD_ROW: usize = usize::MAX;

/// Marker in [`PermuteInfo::assignment_row`] for a dropped assignment: it
/// has no row, so every permutation kernel skips it.
const NO_ROW: usize = usize::MAX;

/// Elements moved below this stay single-banded: a permutation kernel is
/// pure memory traffic, so small copies never amortize a pooled launch.
const PARALLEL_THRESHOLD: usize = 1 << 16;

impl PermuteInfo {
    /// Builds permutation metadata from a routing decision, padding each
    /// expert's token group to a multiple of `block_size`.
    pub fn new(routing: &Routing, num_experts: usize, block_size: BlockSize) -> Self {
        Self::with_alignment(
            &routing.expert_indices,
            num_experts,
            routing.top_k,
            block_size.get(),
        )
    }

    /// Builds permutation metadata with an arbitrary row alignment.
    ///
    /// `alignment = 1` produces an unpadded grouping (useful for tests).
    ///
    /// # Panics
    ///
    /// Panics if `alignment == 0`, if any expert index is out of range, or
    /// if the assignment count is not a multiple of `top_k`.
    pub fn with_alignment(
        expert_indices: &[usize],
        num_experts: usize,
        top_k: usize,
        alignment: usize,
    ) -> Self {
        assert!(alignment > 0, "alignment must be nonzero");
        Self::build(expert_indices, num_experts, top_k, None, |load| {
            load.div_ceil(alignment) * alignment
        })
    }

    /// Builds permutation metadata for capacity-style layouts (Figure
    /// 3A/3B): every expert owns exactly `rows_per_expert` rows, and only
    /// the assignments `kept` marks get one, filled in token order. The
    /// others are dropped: they have no row, contribute nothing to the
    /// scatter and receive no gradient.
    ///
    /// # Panics
    ///
    /// Panics if `kept` is not one flag per assignment, if an expert keeps
    /// more than `rows_per_expert` assignments, or on anything
    /// [`PermuteInfo::with_alignment`] rejects.
    pub(crate) fn with_uniform_rows(
        expert_indices: &[usize],
        num_experts: usize,
        top_k: usize,
        kept: &[bool],
        rows_per_expert: usize,
    ) -> Self {
        assert_eq!(
            kept.len(),
            expert_indices.len(),
            "one kept flag per assignment required"
        );
        Self::build(expert_indices, num_experts, top_k, Some(kept), |_| {
            rows_per_expert
        })
    }

    /// `kept = None` keeps every assignment; `rows` maps an expert's load
    /// to its row count.
    fn build(
        expert_indices: &[usize],
        num_experts: usize,
        top_k: usize,
        kept: Option<&[bool]>,
        rows: impl Fn(usize) -> usize,
    ) -> Self {
        assert!(top_k > 0, "top_k must be nonzero");
        let _span = telemetry::span("moe.permute_build");
        assert!(
            expert_indices.len().is_multiple_of(top_k),
            "assignment count {} is not a multiple of top_k {}",
            expert_indices.len(),
            top_k
        );
        let num_tokens = expert_indices.len() / top_k;

        let mut tokens_per_expert = vec![0usize; num_experts];
        for &e in expert_indices {
            assert!(e < num_experts, "expert index {e} out of range");
            tokens_per_expert[e] += 1;
        }
        let padded_tokens_per_expert: Vec<usize> =
            tokens_per_expert.iter().map(|&c| rows(c)).collect();

        let mut offsets = vec![0usize; num_experts];
        let mut acc = 0usize;
        for (o, &p) in offsets.iter_mut().zip(&padded_tokens_per_expert) {
            *o = acc;
            acc += p;
        }
        let padded_rows = acc;

        // Stable grouping: assignments keep token order within each expert.
        let mut kept_per_expert = vec![0usize; num_experts];
        let assignment_row: Vec<usize> = expert_indices
            .iter()
            .enumerate()
            .map(|(a, &e)| {
                if kept.is_some_and(|kept| !kept[a]) {
                    return NO_ROW;
                }
                assert!(
                    kept_per_expert[e] < padded_tokens_per_expert[e],
                    "expert {e} keeps more assignments than its {} rows",
                    padded_tokens_per_expert[e]
                );
                let row = offsets[e] + kept_per_expert[e];
                kept_per_expert[e] += 1;
                row
            })
            .collect();
        let mut assignment_of_row = vec![PAD_ROW; padded_rows];
        for (a, &row) in assignment_row.iter().enumerate() {
            if row != NO_ROW {
                assignment_of_row[row] = a;
            }
        }

        let info = Self {
            num_tokens,
            top_k,
            tokens_per_expert,
            kept_per_expert,
            padded_tokens_per_expert,
            assignment_row,
            assignment_of_row,
            padded_rows,
        };
        sanitize_permutation(&info);
        info
    }

    /// Number of tokens in the batch.
    pub fn num_tokens(&self) -> usize {
        self.num_tokens
    }

    /// Assignments per token.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Per-expert assignment counts, before dropping and padding.
    pub fn tokens_per_expert(&self) -> &[usize] {
        &self.tokens_per_expert
    }

    /// Per-expert counts of the assignments that have a row.
    pub(crate) fn kept_per_expert(&self) -> &[usize] {
        &self.kept_per_expert
    }

    /// Rows each expert owns: its load padded to the alignment, or the
    /// given uniform count.
    pub fn padded_tokens_per_expert(&self) -> &[usize] {
        &self.padded_tokens_per_expert
    }

    /// `Topology::rows_valid` of this layout: per block of rows, how many
    /// hold an assignment (each expert's are a prefix of its rows).
    pub(crate) fn rows_valid(&self, block_size: BlockSize) -> Vec<usize> {
        let held = |block: &[usize]| block.iter().filter(|&&a| a != PAD_ROW).count();
        let blocks = self.assignment_of_row.chunks(block_size.get());
        blocks.map(held).collect()
    }

    /// Total rows of the permuted (gathered) matrix.
    pub fn padded_rows(&self) -> usize {
        self.padded_rows
    }

    /// Rows of the permuted matrix without a kept assignment.
    pub fn padding_rows(&self) -> usize {
        self.padded_rows - self.kept_per_expert.iter().sum::<usize>()
    }

    /// Destination row of assignment `a` in the permuted matrix, `None`
    /// if it was dropped.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn row_of(&self, a: usize) -> Option<usize> {
        let row = self.assignment_row[a];
        (row != NO_ROW).then_some(row)
    }

    /// Source token of assignment `a`.
    pub fn token_of(&self, a: usize) -> usize {
        a / self.top_k
    }

    /// Number of assignments (`num_tokens * top_k`).
    pub fn num_assignments(&self) -> usize {
        self.assignment_row.len()
    }
}

/// Checks that the map from kept assignments to rows is injective into the
/// padded row range — every gather/scatter write target is distinct, so the
/// permutation kernels are race-free even if parallelized over assignments.
/// Runs in debug builds only.
fn sanitize_permutation(info: &PermuteInfo) {
    if !cfg!(debug_assertions) {
        return;
    }
    let mut seen = vec![false; info.padded_rows];
    for (a, &row) in info.assignment_row.iter().enumerate() {
        if row == NO_ROW {
            continue;
        }
        assert!(
            row < info.padded_rows,
            "sanitize: assignment {a} maps to row {row} >= padded_rows {}",
            info.padded_rows
        );
        assert!(
            !seen[row],
            "sanitize: assignments collide on permuted row {row}"
        );
        seen[row] = true;
    }
}

/// Permutes token rows into expert-grouped, block-padded order (Figure 6,
/// line 15). Padding rows are zero.
///
/// # Panics
///
/// Panics if `x.rows() != info.num_tokens()`.
pub fn padded_gather(x: &Matrix, info: &PermuteInfo) -> Matrix {
    assert_eq!(
        x.rows(),
        info.num_tokens(),
        "padded_gather token count mismatch"
    );
    let _span = telemetry::span("moe.padded_gather");
    let cols = x.cols();
    let rows = info.padded_rows();
    let mut out = Matrix::pooled_zeros(rows, cols);
    if cols == 0 || rows == 0 {
        return out;
    }
    // Bands of destination rows; each row's source (or padding) comes from
    // the precomputed inverse map, so bands never share a write target.
    let bands = exec::parallelism_for(rows * cols, PARALLEL_THRESHOLD).min(rows);
    let body = |band: &mut [f32], r0: usize| {
        for (i, orow) in band.chunks_mut(cols).enumerate() {
            let a = info.assignment_of_row[r0 + i];
            if a != PAD_ROW {
                orow.copy_from_slice(x.row(info.token_of(a)));
            }
        }
    };
    exec::LaunchPlan::over_items(
        "moe.padded_gather",
        out.as_mut_slice(),
        cols,
        rows.div_ceil(bands),
        &body,
    )
    .launch();
    out
}

/// Backward of [`padded_gather`]: scatters gradient rows back to tokens,
/// summing over a token's `top_k` assignments. Padding-row gradients are
/// discarded (those rows hold no data).
///
/// # Panics
///
/// Panics if `d_gathered.rows() != info.padded_rows()`.
pub fn padded_gather_backward(d_gathered: &Matrix, info: &PermuteInfo) -> Matrix {
    assert_eq!(
        d_gathered.rows(),
        info.padded_rows(),
        "padded_gather_backward row count mismatch"
    );
    let _span = telemetry::span("moe.padded_gather_backward");
    let cols = d_gathered.cols();
    let tokens = info.num_tokens();
    let mut dx = Matrix::pooled_zeros(tokens, cols);
    if cols == 0 || tokens == 0 {
        return dx;
    }
    // Bands of token rows: a token's top_k assignments are consecutive, so
    // each band reduces its own tokens' gradients without sharing writes.
    let top_k = info.top_k();
    let bands = exec::parallelism_for(tokens * top_k * cols, PARALLEL_THRESHOLD).min(tokens);
    let body = |band: &mut [f32], t0: usize| {
        for (i, dst) in band.chunks_mut(cols).enumerate() {
            for k in 0..top_k {
                let Some(row) = info.row_of((t0 + i) * top_k + k) else {
                    continue;
                };
                for (d, s) in dst.iter_mut().zip(d_gathered.row(row)) {
                    *d += s;
                }
            }
        }
    };
    exec::LaunchPlan::over_items(
        "moe.padded_gather_backward",
        dx.as_mut_slice(),
        cols,
        tokens.div_ceil(bands),
        &body,
    )
    .launch();
    dx
}

/// Un-permutes expert outputs back to token order, scaling each
/// assignment's rows by its router confidence weight and summing a token's
/// `top_k` contributions (Figure 6, lines 27-28).
///
/// # Panics
///
/// Panics if shapes or weight counts are inconsistent with `info`.
pub fn padded_scatter(y: &Matrix, info: &PermuteInfo, weights: &[f32]) -> Matrix {
    assert_eq!(
        y.rows(),
        info.padded_rows(),
        "padded_scatter row count mismatch"
    );
    assert_eq!(
        weights.len(),
        info.num_assignments(),
        "one weight per assignment required"
    );
    let _span = telemetry::span("moe.padded_scatter");
    let cols = y.cols();
    let tokens = info.num_tokens();
    let mut out = Matrix::pooled_zeros(tokens, cols);
    if cols == 0 || tokens == 0 {
        return out;
    }
    // Bands of token rows, as in the gather backward: each band sums its
    // own tokens' weighted top_k contributions.
    let top_k = info.top_k();
    let bands = exec::parallelism_for(tokens * top_k * cols, PARALLEL_THRESHOLD).min(tokens);
    let body = |band: &mut [f32], t0: usize| {
        for (i, dst) in band.chunks_mut(cols).enumerate() {
            for k in 0..top_k {
                let a = (t0 + i) * top_k + k;
                let Some(row) = info.row_of(a) else { continue };
                let w = weights[a];
                for (d, s) in dst.iter_mut().zip(y.row(row)) {
                    *d += w * s;
                }
            }
        }
    };
    exec::LaunchPlan::over_items(
        "moe.padded_scatter",
        out.as_mut_slice(),
        cols,
        tokens.div_ceil(bands),
        &body,
    )
    .launch();
    out
}

/// Backward of [`padded_scatter`].
///
/// Returns `(d_y, d_weights)`: the gradient flowing to the permuted expert
/// outputs (zero on padding rows) and the gradient of each assignment's
/// confidence weight (`dot(d_out[token], y[row])`).
///
/// # Panics
///
/// Panics if shapes are inconsistent with `info`.
pub fn padded_scatter_backward(
    d_out: &Matrix,
    y: &Matrix,
    info: &PermuteInfo,
    weights: &[f32],
) -> (Matrix, Vec<f32>) {
    assert_eq!(
        d_out.rows(),
        info.num_tokens(),
        "d_out token count mismatch"
    );
    assert_eq!(y.rows(), info.padded_rows(), "y row count mismatch");
    assert_eq!(
        weights.len(),
        info.num_assignments(),
        "weights count mismatch"
    );
    let _span = telemetry::span("moe.padded_scatter_backward");
    let cols = d_out.cols();
    let rows = info.padded_rows();
    let assignments = info.num_assignments();
    let mut dy = Matrix::pooled_zeros(rows, cols);
    let mut d_weights = vec![0.0; assignments];

    // Two independent plans: dy bands over padded rows (via the inverse
    // map, padding rows stay zero) and d_weights bands over assignments.
    if cols > 0 && rows > 0 {
        let bands = exec::parallelism_for(rows * cols, PARALLEL_THRESHOLD).min(rows);
        let body = |band: &mut [f32], r0: usize| {
            for (i, dst) in band.chunks_mut(cols).enumerate() {
                let a = info.assignment_of_row[r0 + i];
                if a == PAD_ROW {
                    continue;
                }
                let w = weights[a];
                let d_row = d_out.row(info.token_of(a));
                for (o, d) in dst.iter_mut().zip(d_row) {
                    *o = w * d;
                }
            }
        };
        exec::LaunchPlan::over_items(
            "moe.padded_scatter_backward",
            dy.as_mut_slice(),
            cols,
            rows.div_ceil(bands),
            &body,
        )
        .launch();
    }
    if assignments > 0 {
        let bands =
            exec::parallelism_for(assignments * cols.max(1), PARALLEL_THRESHOLD).min(assignments);
        let body = |band: &mut [f32], a0: usize| {
            for (i, dw) in band.iter_mut().enumerate() {
                let a = a0 + i;
                let Some(row) = info.row_of(a) else { continue };
                let d_row = d_out.row(info.token_of(a));
                *dw = d_row.iter().zip(y.row(row)).map(|(d, v)| d * v).sum();
            }
        };
        exec::LaunchPlan::over_items(
            "moe.padded_scatter_dw",
            &mut d_weights,
            1,
            assignments.div_ceil(bands),
            &body,
        )
        .launch();
    }
    (dy, d_weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(indices: &[usize], experts: usize, top_k: usize, align: usize) -> PermuteInfo {
        PermuteInfo::with_alignment(indices, experts, top_k, align)
    }

    fn row(p: &PermuteInfo, a: usize) -> usize {
        p.row_of(a).expect("assignment is kept")
    }

    #[test]
    fn grouping_is_stable_and_padded() {
        // tokens 0..5 routed: [1, 0, 1, 1, 0] with alignment 2.
        let p = info(&[1, 0, 1, 1, 0], 3, 1, 2);
        assert_eq!(p.tokens_per_expert(), &[2, 3, 0]);
        assert_eq!(p.padded_tokens_per_expert(), &[2, 4, 0]);
        assert_eq!(p.padded_rows(), 6);
        assert_eq!(p.padding_rows(), 1);
        // expert 0 occupies rows 0..2: tokens 1 then 4 (stable order)
        assert_eq!(p.row_of(1), Some(0));
        assert_eq!(p.row_of(4), Some(1));
        // expert 1 occupies rows 2..6: tokens 0, 2, 3
        assert_eq!(p.row_of(0), Some(2));
        assert_eq!(p.row_of(2), Some(3));
        assert_eq!(p.row_of(3), Some(4));
    }

    #[test]
    fn gather_scatter_roundtrip_top1_unit_weights() {
        let p = info(&[1, 0, 1, 1, 0], 2, 1, 4);
        let x = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f32);
        let g = padded_gather(&x, &p);
        assert_eq!(g.rows(), p.padded_rows());
        let back = padded_scatter(&g, &p, &[1.0; 5]);
        assert!(back.approx_eq(&x, 1e-6));
    }

    #[test]
    fn padding_rows_are_zero() {
        let p = info(&[0, 0, 1], 2, 1, 4);
        let x = Matrix::full(3, 2, 7.0);
        let g = padded_gather(&x, &p);
        // expert 0: rows 0..4 (2 data + 2 pad), expert 1: rows 4..8 (1 + 3 pad)
        assert_eq!(g.row(0), &[7.0, 7.0]);
        assert_eq!(g.row(1), &[7.0, 7.0]);
        assert_eq!(g.row(2), &[0.0, 0.0]);
        assert_eq!(g.row(3), &[0.0, 0.0]);
        assert_eq!(g.row(4), &[7.0, 7.0]);
        assert!(g.row(7).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scatter_applies_weights_and_sums_top_k() {
        // 2 tokens, top_k = 2: token 0 -> experts (0, 1), token 1 -> (1, 0).
        let p = info(&[0, 1, 1, 0], 2, 2, 1);
        let mut y = Matrix::zeros(4, 1);
        for a in 0..4 {
            y[(row(&p, a), 0)] = (a + 1) as f32; // assignment a produced value a+1
        }
        let out = padded_scatter(&y, &p, &[0.5, 0.25, 1.0, 2.0]);
        // token 0 = 0.5 * 1 + 0.25 * 2 = 1.0; token 1 = 1.0 * 3 + 2.0 * 4 = 11.0
        assert!((out[(0, 0)] - 1.0).abs() < 1e-6);
        assert!((out[(1, 0)] - 11.0).abs() < 1e-6);
    }

    #[test]
    fn scatter_backward_produces_weight_grads_and_zero_padding_grad() {
        let p = info(&[0, 1], 2, 1, 2);
        let y = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f32);
        let d_out = Matrix::full(2, 2, 1.0);
        let (dy, dw) = padded_scatter_backward(&d_out, &y, &p, &[2.0, 3.0]);
        // d_weights[a] = dot(d_out[t], y[row]) = sum of y row.
        assert!((dw[0] - (0.0 + 1.0)).abs() < 1e-6);
        assert!((dw[1] - (4.0 + 5.0)).abs() < 1e-6);
        // dy rows scaled by weights; padding rows (1 and 3) zero.
        assert_eq!(dy.row(0), &[2.0, 2.0]);
        assert_eq!(dy.row(2), &[3.0, 3.0]);
        assert!(dy.row(1).iter().all(|&v| v == 0.0));
        assert!(dy.row(3).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gather_backward_sums_assignments() {
        let p = info(&[0, 1, 1, 0], 2, 2, 1);
        let d_g = Matrix::from_fn(4, 1, |i, _| (i + 1) as f32);
        let dx = padded_gather_backward(&d_g, &p);
        assert_eq!(dx.rows(), 2);
        // token 0's assignments land at rows row_of(0), row_of(1).
        let want0 = d_g[(row(&p, 0), 0)] + d_g[(row(&p, 1), 0)];
        let want1 = d_g[(row(&p, 2), 0)] + d_g[(row(&p, 3), 0)];
        assert!((dx[(0, 0)] - want0).abs() < 1e-6);
        assert!((dx[(1, 0)] - want1).abs() < 1e-6);
    }

    #[test]
    fn dropped_assignments_have_no_row_and_every_kernel_skips_them() {
        // 3 tokens, top_k = 2, two experts of 2 rows each; assignments 1
        // and 4 are dropped.
        let kept = [true, false, true, true, false, true];
        let p = PermuteInfo::with_uniform_rows(&[0, 1, 1, 0, 0, 1], 2, 2, &kept, 2);
        assert_eq!(p.tokens_per_expert(), &[3, 3]);
        assert_eq!(p.kept_per_expert(), &[2, 2]);
        assert_eq!(p.padded_tokens_per_expert(), &[2, 2]);
        assert_eq!(p.padding_rows(), 0);
        let rows: Vec<_> = (0..6).map(|a| p.row_of(a)).collect();
        assert_eq!(
            rows,
            [Some(0), None, Some(2), Some(1), None, Some(3)],
            "kept assignments fill their expert in token order"
        );

        let x = Matrix::from_fn(3, 2, |i, j| (10 * (i + 1) + j) as f32);
        let g = padded_gather(&x, &p);
        assert_eq!(
            g.as_slice(),
            &[10.0, 11.0, 20.0, 21.0, 20.0, 21.0, 30.0, 31.0]
        );
        let out = padded_scatter(&g, &p, &[1.0; 6]);
        // Token 0 and token 2 each lost one of their two assignments.
        assert_eq!(out.as_slice(), &[10.0, 11.0, 40.0, 42.0, 30.0, 31.0]);
        let (dy, dw) = padded_scatter_backward(&x, &g, &p, &[1.0; 6]);
        assert_eq!(dy.as_slice(), g.as_slice());
        assert_eq!((dw[1], dw[4]), (0.0, 0.0));
        assert!(dw[0] > 0.0 && dw[5] > 0.0);
        let dx = padded_gather_backward(&g, &p);
        assert_eq!(dx.as_slice(), out.as_slice());
    }

    #[test]
    #[should_panic(expected = "keeps more assignments")]
    fn overfull_expert_panics() {
        let _ = PermuteInfo::with_uniform_rows(&[0, 0], 1, 1, &[true, true], 1);
    }

    #[test]
    fn zero_token_experts_occupy_no_rows() {
        let p = info(&[2, 2], 4, 1, 8);
        assert_eq!(p.padded_tokens_per_expert(), &[0, 0, 8, 0]);
        assert_eq!(p.padded_rows(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_expert_index_panics() {
        let _ = info(&[5], 2, 1, 1);
    }
}
