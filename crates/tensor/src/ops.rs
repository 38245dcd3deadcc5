//! Neural-network forward/backward primitives.
//!
//! Every primitive comes as a `forward` (optionally returning a cache of
//! whatever the backward pass needs) plus a matching `backward`. There is no
//! autograd in this workspace — like Megatron-LM, each layer wires its own
//! backward pass out of these pieces, which is also exactly how the paper
//! enumerates the block-sparse products needed for dMoE training (§5.1).

use crate::Matrix;

/// Row-wise softmax.
///
/// Each row of the result sums to 1. Numerically stabilized by subtracting
/// the row max.
///
/// # Example
///
/// ```
/// use megablocks_tensor::{Matrix, ops::softmax_rows};
///
/// let x = Matrix::from_vec(1, 2, vec![0.0, 0.0]).unwrap();
/// let y = softmax_rows(&x);
/// assert!((y[(0, 0)] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut y = x.clone();
    softmax_rows_inplace(&mut y);
    y
}

/// Row-wise softmax, in place.
pub fn softmax_rows_inplace(x: &mut Matrix) {
    let cols = x.cols();
    softmax_rows_of(x.as_mut_slice(), cols);
}

/// [`softmax_rows_inplace`] on `data` read as rows of `cols` floats.
pub fn softmax_rows_of(data: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    for row in data.chunks_exact_mut(cols) {
        softmax_row(row);
    }
}

/// Softmax of one non-empty row in place; returns `(max, sum)` of the
/// shifted exponentials, which is what [`cross_entropy`] needs for the
/// loss. The `exp` pass carries nothing from one element to the next, so
/// it vectorizes; the sum is its own pass, in ascending order.
fn softmax_row(row: &mut [f32]) -> (f32, f32) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in row.iter_mut() {
        *v = exp(*v - max);
    }
    let sum: f32 = row.iter().sum();
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
    (max, sum)
}

/// Backward pass of row-wise softmax.
///
/// Given the softmax output `y` and upstream gradient `dy`, returns
/// `dx[i,j] = y[i,j] * (dy[i,j] - sum_k dy[i,k] * y[i,k])`.
///
/// # Panics
///
/// Panics if `y` and `dy` shapes differ.
pub fn softmax_rows_backward(y: &Matrix, dy: &Matrix) -> Matrix {
    assert_eq!(y.shape(), dy.shape(), "softmax backward shape mismatch");
    let mut dx = dy.clone();
    softmax_rows_backward_inplace(y.as_slice(), dx.as_mut_slice(), y.cols());
    dx
}

/// [`softmax_rows_backward`] in place on rows of `cols` floats: `grad`
/// holds `dy` on entry and `dx` on return.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn softmax_rows_backward_inplace(y: &[f32], grad: &mut [f32], cols: usize) {
    assert_eq!(y.len(), grad.len(), "softmax backward shape mismatch");
    if cols == 0 {
        return;
    }
    for (yr, row) in y.chunks_exact(cols).zip(grad.chunks_exact_mut(cols)) {
        let dot: f32 = yr.iter().zip(&*row).map(|(a, b)| a * b).sum();
        for (d, &p) in row.iter_mut().zip(yr) {
            *d = p * (*d - dot);
        }
    }
}

/// Mean cross-entropy between row-wise logits and integer targets, with the
/// gradient computed in the same pass.
///
/// Returns `(loss, dlogits)` where `loss` is averaged over rows and
/// `dlogits` already includes the `1/rows` factor. `dlogits` is in the
/// calling thread's workspace arena ([`Matrix::pooled_zeros`]).
///
/// Rows whose target equals `ignore_index` (if provided) contribute neither
/// loss nor gradient — used for padded positions.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or any non-ignored target is
/// out of vocabulary range.
pub fn cross_entropy(
    logits: &Matrix,
    targets: &[usize],
    ignore_index: Option<usize>,
) -> (f32, Matrix) {
    assert_eq!(
        targets.len(),
        logits.rows(),
        "cross_entropy needs one target per logits row"
    );
    let mut dlogits = Matrix::pooled_zeros(logits.rows(), logits.cols());
    let mut loss = 0.0f64;
    let mut counted = 0usize;
    for (i, &t) in targets.iter().enumerate() {
        if Some(t) == ignore_index {
            continue;
        }
        assert!(
            t < logits.cols(),
            "target {t} out of range for vocab {}",
            logits.cols()
        );
        counted += 1;
        let drow = dlogits.row_mut(i);
        drow.copy_from_slice(logits.row(i));
        let (max, sum) = softmax_row(drow);
        loss += f64::from(sum.ln() + max - logits[(i, t)]);
        drow[t] -= 1.0;
    }
    if counted == 0 {
        return (0.0, dlogits);
    }
    let scale = 1.0 / counted as f32;
    dlogits.scale(scale);
    ((loss / counted as f64) as f32, dlogits)
}

/// Cache produced by [`layer_norm`] and consumed by [`layer_norm_backward`]:
/// each row's mean and reciprocal standard deviation.
#[derive(Debug, Clone)]
pub struct LayerNormCache {
    /// `[mean; rows]` then `[rstd; rows]`, in workspace-arena storage.
    stats: Vec<f32>,
}

impl LayerNormCache {
    /// Returns the cache's storage to the calling thread's workspace arena.
    pub fn recycle(self) {
        megablocks_exec::workspace::recycle(self.stats);
    }
}

/// Layer normalization over each row, with learnable `gamma` and `beta`.
///
/// Returns the normalized output and a cache for the backward pass, both
/// in the calling thread's workspace arena ([`Matrix::recycle`],
/// [`LayerNormCache::recycle`]).
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths differ from `x.cols()`.
pub fn layer_norm(x: &Matrix, gamma: &[f32], beta: &[f32], eps: f32) -> (Matrix, LayerNormCache) {
    assert_eq!(gamma.len(), x.cols(), "gamma length mismatch");
    assert_eq!(beta.len(), x.cols(), "beta length mismatch");
    let rows = x.rows();
    let mut y = Matrix::pooled_zeros(rows, x.cols());
    let mut stats = megablocks_exec::workspace::take_zeroed(2 * rows);
    let n = x.cols() as f32;
    for i in 0..rows {
        let row = x.row(i);
        let mean: f32 = row.iter().sum::<f32>() / n;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let rstd = 1.0 / (var + eps).sqrt();
        stats[i] = mean;
        stats[rows + i] = rstd;
        let yr = y.row_mut(i);
        for j in 0..row.len() {
            yr[j] = (row[j] - mean) * rstd * gamma[j] + beta[j];
        }
    }
    (y, LayerNormCache { stats })
}

/// Backward pass of [`layer_norm`].
///
/// Returns `(dx, dgamma, dbeta)`, `dx` in the calling thread's workspace
/// arena.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the forward call.
pub fn layer_norm_backward(
    x: &Matrix,
    dy: &Matrix,
    gamma: &[f32],
    cache: &LayerNormCache,
) -> (Matrix, Vec<f32>, Vec<f32>) {
    assert_eq!(x.shape(), dy.shape(), "layer_norm_backward shape mismatch");
    let rows = x.rows();
    assert_eq!(
        cache.stats.len(),
        2 * rows,
        "cache does not match forward input"
    );
    let n = x.cols() as f32;
    let mut dx = Matrix::pooled_zeros(rows, x.cols());
    let mut dgamma = vec![0.0f32; x.cols()];
    let mut dbeta = vec![0.0f32; x.cols()];
    for i in 0..x.rows() {
        let row = x.row(i);
        let dyr = dy.row(i);
        let (mean, rstd) = (cache.stats[i], cache.stats[rows + i]);
        // xhat = (x - mean) * rstd
        let mut sum_dy_g = 0.0f32;
        let mut sum_dy_g_xhat = 0.0f32;
        for j in 0..row.len() {
            let xhat = (row[j] - mean) * rstd;
            let dyg = dyr[j] * gamma[j];
            sum_dy_g += dyg;
            sum_dy_g_xhat += dyg * xhat;
            dgamma[j] += dyr[j] * xhat;
            dbeta[j] += dyr[j];
        }
        let dxr = dx.row_mut(i);
        for j in 0..row.len() {
            let xhat = (row[j] - mean) * rstd;
            let dyg = dyr[j] * gamma[j];
            dxr[j] = rstd * (dyg - sum_dy_g / n - xhat * sum_dy_g_xhat / n);
        }
    }
    (dx, dgamma, dbeta)
}

/// `e^x` from IEEE add, multiply, compare and integer bit operations
/// only: no libm call and no branch, so a loop over it vectorizes, and
/// its bits are the same on every machine and at every lane width.
///
/// Contract: for `x < -87.336_54` (below it `e^x` is no longer a normal
/// `f32`), `-inf` included, the result is **exactly `+0.0`** — no
/// denormal ever comes out; for `x > 88.376_26`, `+inf` included, it is
/// `+inf`; NaN gives NaN. In between the relative error is below
/// `1.5e-7` (8.1e-8 measured).
///
/// Method (Cephes `expf`): `n = round(x / ln 2)` by adding and
/// subtracting `1.5 * 2^23`, `r = x - n ln 2` with `ln 2` split in two
/// constants so the first product is exact, `e^r = 1 + r + r^2 p(r)` on
/// `|r| <= ln 2 / 2` with Cephes' six fitted coefficients in Horner
/// order, and `2^n` built by shifting the biased exponent into place.
#[inline]
pub fn exp(x: f32) -> f32 {
    const LO: f32 = -87.336_54;
    // Above 88.376_26 the clamped argument still rounds to `n = 128`,
    // whose exponent field is all ones: `2^n` is `+inf` by itself.
    const HI_CLAMP: f32 = 89.0;
    const ROUND: f32 = 12_582_912.0; // 1.5 * 2^23: the ulp is 1 up here
    const LN2_HI: f32 = 0.693_359_4; // 355 / 512, so `n * LN2_HI` is exact
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Selects, not `clamp`: NaN fails both compares and flows through.
    let c = if x < LO { LO } else { x };
    let c = if c > HI_CLAMP { HI_CLAMP } else { c };
    let shifted = c * std::f32::consts::LOG2_E + ROUND;
    let n = shifted - ROUND;
    let r = c - n * LN2_HI - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 0.5;
    let e_r = p * (r * r) + r + 1.0;
    // The low bits of `shifted` hold `n` in two's complement and
    // `n + 127` is in 1..=255, so the shift drops everything else. Below
    // the cutoff the mask makes the scale, and so the product, `+0.0`.
    let keep = if x < LO { 0 } else { u32::MAX };
    let two_n = f32::from_bits((shifted.to_bits().wrapping_add(127) << 23) & keep);
    e_r * two_n
}

/// GeLU activation (tanh approximation, as used by GPT-2 / Megatron-LM).
pub fn gelu(x: &Matrix) -> Matrix {
    x.map(gelu_scalar)
}

/// `dst[i] = gelu_scalar(src[i])`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn gelu_into(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "gelu_into length mismatch");
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = gelu_scalar(x);
    }
}

/// `xs[i] = gelu_scalar(xs[i])`.
pub fn gelu_inplace(xs: &mut [f32]) {
    for x in xs {
        *x = gelu_scalar(*x);
    }
}

/// Backward pass of GeLU in place: `grad[i] *= gelu_grad_scalar(pre[i])`,
/// with `pre` the forward pre-activation.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn gelu_grad_mul(grad: &mut [f32], pre: &[f32]) {
    assert_eq!(grad.len(), pre.len(), "gelu_grad_mul length mismatch");
    for (g, &x) in grad.iter_mut().zip(pre) {
        *g *= gelu_grad_scalar(x);
    }
}

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_COEF: f32 = 0.044_715;

/// The argument of the tanh approximation,
/// `u = sqrt(2/pi) (x + 0.044715 x^3)`; GeLU is
/// `x (1 + tanh u) / 2 = x * sigmoid(2u)`.
#[inline]
fn gelu_u(x: f32) -> f32 {
    SQRT_2_OVER_PI * (x + GELU_COEF * x * x * x)
}

/// Scalar GeLU (tanh approximation), in its sigmoid form
/// `x / (1 + exp(-2u))` on [`exp`]. `gelu_scalar(±0.0) == ±0.0`, which
/// keeps padding rows zero; far below zero the result is `-0.0`, never a
/// denormal. The slice kernels above are loops over this function.
#[inline]
pub fn gelu_scalar(x: f32) -> f32 {
    x / (1.0 + exp(-2.0 * gelu_u(x)))
}

/// Derivative of [`gelu_scalar`]: `s + 2x s(1-s) u'` with
/// `s = sigmoid(2u)`.
#[inline]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    let s = 1.0 / (1.0 + exp(-2.0 * gelu_u(x)));
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEF * x * x);
    s + 2.0 * x * (s * (1.0 - s)) * du
}

/// Adds a bias row vector to every row of `x`, in place.
///
/// # Panics
///
/// Panics if `bias.len() != x.cols()`.
pub fn add_bias(x: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), x.cols(), "bias length mismatch");
    for i in 0..x.rows() {
        for (v, b) in x.row_mut(i).iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Gradient of a bias under [`add_bias`]: the column-wise sum of `dy`.
pub fn bias_backward(dy: &Matrix) -> Vec<f32> {
    let mut db = vec![0.0f32; dy.cols()];
    for i in 0..dy.rows() {
        for (d, v) in db.iter_mut().zip(dy.row(i)) {
            *d += v;
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{hash_bits, lcg_fill};

    fn finite_diff_check(
        f: &mut dyn FnMut(&Matrix) -> f32,
        x: &Matrix,
        analytic: &Matrix,
        eps: f32,
        tol: f32,
    ) {
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let mut xp = x.clone();
                xp[(i, j)] += eps;
                let mut xm = x.clone();
                xm[(i, j)] -= eps;
                let num = (f(&xp) - f(&xm)) / (2.0 * eps);
                let ana = analytic[(i, j)];
                assert!(
                    (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                    "grad mismatch at ({i},{j}): numeric {num}, analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_fn(3, 5, |i, j| (i as f32) - (j as f32) * 0.3);
        let y = softmax_rows(&x);
        for i in 0..3 {
            let s: f32 = y.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(y.row(i).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Matrix::from_fn(1, 4, |_, j| j as f32);
        let shifted = x.map(|v| v + 100.0);
        assert!(softmax_rows(&x).approx_eq(&softmax_rows(&shifted), 1e-5));
    }

    #[test]
    fn softmax_backward_matches_finite_diff() {
        let x = Matrix::from_fn(2, 4, |i, j| ((i + 1) * (j + 2)) as f32 * 0.1);
        // scalar objective: sum of y * w for fixed random-ish weights
        let w = Matrix::from_fn(2, 4, |i, j| ((i * 4 + j) as f32).sin());
        let y = softmax_rows(&x);
        let dx = softmax_rows_backward(&y, &w);
        let mut f = |m: &Matrix| {
            let y = softmax_rows(m);
            y.as_slice()
                .iter()
                .zip(w.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        finite_diff_check(&mut f, &x, &dx, 1e-3, 2e-2);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_diff() {
        let logits = Matrix::from_fn(3, 5, |i, j| ((i * 5 + j) as f32).cos());
        let targets = vec![1usize, 4, 0];
        let (_, dlogits) = cross_entropy(&logits, &targets, None);
        let mut f = |m: &Matrix| cross_entropy(m, &targets, None).0;
        finite_diff_check(&mut f, &logits, &dlogits, 1e-3, 2e-2);
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let mut logits = Matrix::full(2, 3, -20.0);
        logits[(0, 1)] = 20.0;
        logits[(1, 2)] = 20.0;
        let (loss, _) = cross_entropy(&logits, &[1, 2], None);
        assert!(loss < 1e-3, "loss was {loss}");
    }

    #[test]
    fn cross_entropy_respects_ignore_index() {
        let logits = Matrix::from_fn(2, 3, |i, j| (i + j) as f32);
        let (loss_all, _) = cross_entropy(&logits, &[0, 1], None);
        let (loss_ign, d) = cross_entropy(&logits, &[0, 2], Some(2));
        // ignoring the second row leaves only the first row's loss
        let (loss_first, _) = cross_entropy(&logits.rows_range(0, 1), &[0], None);
        assert!((loss_ign - loss_first).abs() < 1e-6);
        assert!(d.row(1).iter().all(|&v| v == 0.0));
        assert_ne!(loss_all, loss_ign);
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let x = Matrix::from_fn(4, 8, |i, j| ((i * 8 + j) as f32).sin() + 3.0);
        let gamma = vec![1.0f32; 8];
        let beta = vec![0.0f32; 8];
        let (y, _) = layer_norm(&x, &gamma, &beta, 1e-5);
        for i in 0..4 {
            let mean: f32 = y.row(i).iter().sum::<f32>() / 8.0;
            let var: f32 = y
                .row(i)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 8.0;
            assert!(mean.abs() < 1e-4, "row {i} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {i} var {var}");
        }
    }

    #[test]
    fn layer_norm_backward_matches_finite_diff() {
        let x = Matrix::from_fn(2, 6, |i, j| ((i * 6 + j) as f32 * 0.7).sin());
        let gamma: Vec<f32> = (0..6).map(|j| 1.0 + 0.1 * j as f32).collect();
        let beta: Vec<f32> = (0..6).map(|j| 0.05 * j as f32).collect();
        let w = Matrix::from_fn(2, 6, |i, j| ((i + j) as f32).cos());
        let (_, cache) = layer_norm(&x, &gamma, &beta, 1e-5);
        let (dx, dgamma, dbeta) = layer_norm_backward(&x, &w, &gamma, &cache);
        let mut f = |m: &Matrix| {
            let (y, _) = layer_norm(m, &gamma, &beta, 1e-5);
            y.as_slice()
                .iter()
                .zip(w.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        finite_diff_check(&mut f, &x, &dx, 1e-3, 3e-2);

        // dgamma / dbeta spot check via finite differences on gamma[2], beta[3]
        let eval = |g: &[f32], b: &[f32]| {
            let (y, _) = layer_norm(&x, g, b, 1e-5);
            y.as_slice()
                .iter()
                .zip(w.as_slice())
                .map(|(a, c)| a * c)
                .sum::<f32>()
        };
        let mut gp = gamma.clone();
        gp[2] += 1e-3;
        let mut gm = gamma.clone();
        gm[2] -= 1e-3;
        let num = (eval(&gp, &beta) - eval(&gm, &beta)) / 2e-3;
        assert!((num - dgamma[2]).abs() < 2e-2 * (1.0 + num.abs()));
        let mut bp = beta.clone();
        bp[3] += 1e-3;
        let mut bm = beta.clone();
        bm[3] -= 1e-3;
        let num = (eval(&gamma, &bp) - eval(&gamma, &bm)) / 2e-3;
        assert!((num - dbeta[3]).abs() < 2e-2 * (1.0 + num.abs()));
    }

    #[test]
    fn gelu_matches_known_values() {
        // gelu(0) = 0, gelu(large) ~ x, gelu(-large) ~ 0
        let x = Matrix::from_vec(1, 3, vec![0.0, 10.0, -10.0]).unwrap();
        let y = gelu(&x);
        assert!(y[(0, 0)].abs() < 1e-6);
        assert!((y[(0, 1)] - 10.0).abs() < 1e-3);
        assert!(y[(0, 2)].abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_mul_matches_finite_diff() {
        let x = Matrix::from_fn(2, 5, |i, j| (i as f32) - (j as f32) * 0.4);
        let w = Matrix::from_fn(2, 5, |i, j| ((i * 5 + j) as f32).sin());
        let mut dx = w.clone();
        gelu_grad_mul(dx.as_mut_slice(), x.as_slice());
        let mut f = |m: &Matrix| {
            gelu(m)
                .as_slice()
                .iter()
                .zip(w.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        finite_diff_check(&mut f, &x, &dx, 1e-3, 2e-2);
    }

    /// `lo, lo + step, ..` up to `hi`, each value exact in `f32`.
    fn grid(lo: f32, hi: f32, step: f32) -> impl Iterator<Item = f32> {
        let n = ((hi - lo) / step) as usize;
        (0..=n).map(move |i| lo + i as f32 * step)
    }

    #[test]
    fn exp_is_within_its_error_bound_on_the_whole_range() {
        let mut worst = 0.0f64;
        for x in grid(-87.0, 88.0, 1.0 / 2048.0) {
            // Off-grid too: the grid alone only visits dyadic rationals.
            for x in [x, x + 3.1e-4] {
                let want = f64::from(x).exp();
                let rel = ((f64::from(exp(x)) - want) / want).abs();
                worst = worst.max(rel);
            }
        }
        assert!(worst <= 1.5e-7, "max relative error {worst:e}");
    }

    #[test]
    fn exp_special_values_by_bits() {
        let zero = 0.0f32.to_bits();
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), zero);
        assert_eq!(exp(-100.0).to_bits(), zero);
        assert_eq!(exp(-87.4).to_bits(), zero);
        assert_eq!(exp(f32::MIN).to_bits(), zero);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(88.4), f32::INFINITY);
        // The overflow cutoff is one exact `f32`, not "about 88.4".
        assert!(exp(88.376_26).is_finite());
        assert_eq!(
            exp(f32::from_bits(88.376_26f32.to_bits() + 1)),
            f32::INFINITY
        );
        assert_eq!(exp(f32::MAX), f32::INFINITY);
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        // Never a denormal: the smallest result is a normal number.
        assert!(exp(-87.336_54).is_normal());
    }

    #[test]
    fn softmax_of_masked_entries_is_exactly_zero() {
        let mut x = Matrix::from_vec(1, 4, vec![0.3, f32::NEG_INFINITY, -1.0, -200.0]).unwrap();
        softmax_rows_inplace(&mut x);
        assert_eq!(x[(0, 1)].to_bits(), 0);
        assert_eq!(x[(0, 3)].to_bits(), 0);
        assert!((x.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    fn gelu_f64(x: f64) -> f64 {
        let u = (2.0 / std::f64::consts::PI).sqrt() * (x + 0.044715 * x * x * x);
        0.5 * x * (1.0 + u.tanh())
    }

    fn gelu_grad_f64(x: f64) -> f64 {
        let c = (2.0 / std::f64::consts::PI).sqrt();
        let t = (c * (x + 0.044715 * x * x * x)).tanh();
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x)
    }

    #[test]
    fn gelu_and_its_gradient_match_an_f64_reference() {
        let (mut worst, mut worst_grad) = (0.0f64, 0.0f64);
        for x in grid(-20.0, 20.0, 1.0 / 1024.0) {
            let xd = f64::from(x);
            worst = worst.max((f64::from(gelu_scalar(x)) - gelu_f64(xd)).abs());
            worst_grad = worst_grad.max((f64::from(gelu_grad_scalar(x)) - gelu_grad_f64(xd)).abs());
        }
        assert!(worst <= 1e-6, "gelu max abs error {worst:e}");
        assert!(worst_grad <= 4e-6, "gelu_grad max abs error {worst_grad:e}");
    }

    #[test]
    fn gelu_grad_is_the_central_difference_of_gelu() {
        let h = 1.0f32 / 64.0;
        for x in grid(-8.0, 8.0, 1.0 / 16.0) {
            let num = (f64::from(gelu_scalar(x + h)) - f64::from(gelu_scalar(x - h)))
                / f64::from(2.0 * h);
            let ana = f64::from(gelu_grad_scalar(x));
            assert!((num - ana).abs() < 2e-4, "x = {x}: {num} vs {ana}");
        }
    }

    #[test]
    fn gelu_special_values_by_bits() {
        assert_eq!(gelu_scalar(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(gelu_scalar(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(gelu_scalar(-1e4).to_bits(), (-0.0f32).to_bits());
        assert_eq!(gelu_scalar(1e4), 1e4);
        assert_eq!(gelu_grad_scalar(-1e4), 0.0);
        assert_eq!(gelu_grad_scalar(1e4), 1.0);
        assert_eq!(gelu_grad_scalar(0.0), 0.5);
        // Between "small" and "-0.0" there is no denormal.
        for x in grid(-12.0, -8.0, 1.0 / 4096.0) {
            let y = gelu_scalar(x);
            assert!(y == 0.0 || y.is_normal(), "gelu({x}) = {y:e}");
        }
    }

    #[test]
    fn slice_kernels_are_the_scalar_functions_bit_for_bit() {
        // Lengths around the 4- and 8-lane widths: the remainder loop
        // must compute what the vector body computes.
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 31, 33] {
            let x: Vec<f32> = lcg_fill(len, 7).iter().map(|v| v * 12.0).collect();
            let dy = lcg_fill(len, 8);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();

            let want: Vec<f32> = x.iter().map(|&v| gelu_scalar(v)).collect();
            let mut into = vec![f32::NAN; len];
            gelu_into(&mut into, &x);
            assert_eq!(bits(&into), bits(&want), "gelu_into, len {len}");
            let mut inplace = x.clone();
            gelu_inplace(&mut inplace);
            assert_eq!(bits(&inplace), bits(&want), "gelu_inplace, len {len}");

            let want: Vec<f32> = x
                .iter()
                .zip(&dy)
                .map(|(&v, &d)| d * gelu_grad_scalar(v))
                .collect();
            let mut grad = dy.clone();
            gelu_grad_mul(&mut grad, &x);
            assert_eq!(bits(&grad), bits(&want), "gelu_grad_mul, len {len}");

            let mut row = Matrix::from_vec(1, len, x.clone()).unwrap();
            softmax_rows_inplace(&mut row);
            if len > 0 {
                let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let e: Vec<f32> = x.iter().map(|&v| exp(v - max)).collect();
                let inv = 1.0 / e.iter().sum::<f32>();
                let want: Vec<f32> = e.iter().map(|v| v * inv).collect();
                assert_eq!(bits(row.as_slice()), bits(&want), "softmax, len {len}");
            }
        }
    }

    /// Golden bits of the elementwise kernels, in the style of
    /// `golden_bits_of_a_dense_product`: slice ≡ scalar on one build
    /// cannot see a build in which both drift (`-C target-cpu=x86-64-v3`
    /// allows FMA; the compiler must not contract `p * r + c`). The
    /// inputs come from an LCG, so the constant depends on nothing but
    /// the arithmetic `exp` and the GeLU pair spell out — no libm.
    #[test]
    fn golden_bits_of_exp_gelu_and_gelu_grad() {
        const GOLDEN: u64 = 0x4749_fbd4_d90b_13b4;
        let x = lcg_fill(4096, 51);
        let mut out: Vec<f32> = x.iter().map(|v| exp(v * 180.0)).collect();
        out.extend(x.iter().map(|v| gelu_scalar(v * 16.0)));
        out.extend(x.iter().map(|v| gelu_grad_scalar(v * 16.0)));
        assert_eq!(hash_bits(&out), GOLDEN, "{:#018x}", hash_bits(&out));
    }

    #[test]
    fn bias_roundtrip() {
        let mut x = Matrix::zeros(3, 2);
        add_bias(&mut x, &[1.0, -2.0]);
        assert_eq!(x.row(2), &[1.0, -2.0]);
        let db = bias_backward(&x);
        assert_eq!(db, vec![3.0, -6.0]);
    }
}
