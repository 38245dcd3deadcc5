//! General matrix multiplication with transpose support.
//!
//! This is the CPU stand-in for a device GEMM (cuBLAS in the paper). The
//! kernel is parallelized over horizontal bands of the output matrix,
//! launched through the shared execution runtime's worker pool
//! ([`megablocks_exec::LaunchPlan`]); within a band the product is one
//! [`kernel::block_gemm`] call — transposition is a stride swap on the
//! operand views, and the kernel's tiled routine does the rest.

// A kernel hot path: propagate an error instead of panicking on one.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use megablocks_exec as exec;

use crate::kernel::{self, OutView, PanelView};
use crate::Matrix;

/// Whether an input operand of [`gemm`] is used as-is or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trans {
    /// Use the operand in its stored orientation.
    N,
    /// Use the transpose of the operand.
    T,
}

impl Trans {
    /// Logical shape of an operand under this transposition.
    fn apply(self, shape: (usize, usize)) -> (usize, usize) {
        match self {
            Trans::N => shape,
            Trans::T => (shape.1, shape.0),
        }
    }
}

/// Minimum number of output elements before the multiply is worth
/// parallelizing. Below this it runs single-banded on the caller: even a
/// pooled launch costs a queue round-trip per band.
const PARALLEL_THRESHOLD: usize = 64 * 64;

/// NaN/Inf poisoning check on a kernel output, run in debug builds only.
/// A non-finite value in a GEMM output means an input was already
/// poisoned or the kernel itself is broken; panicking at the producing op
/// localizes the bug instead of letting the NaN spread through the
/// training step.
fn sanitize_output(op: &'static str, data: &[f32]) {
    if !cfg!(debug_assertions) {
        return;
    }
    for (index, &v) in data.iter().enumerate() {
        assert!(
            v.is_finite(),
            "sanitize: {op} produced non-finite value {v} at output index {index}"
        );
    }
}

/// Computes `c = alpha * op_a(a) * op_b(b) + beta * c`.
///
/// `op_a`/`op_b` select transposition of each input ([`Trans`]). This is the
/// full BLAS-style GEMM used by every dense layer in the workspace; the
/// convenience wrappers [`matmul`], [`matmul_nt`] and [`pooled_matmul`]
/// cover the common cases.
///
/// # Panics
///
/// Panics if the logical shapes are incompatible: `op_a(a)` must be `m x k`,
/// `op_b(b)` must be `k x n`, and `c` must be `m x n`.
pub fn gemm(
    alpha: f32,
    a: &Matrix,
    op_a: Trans,
    b: &Matrix,
    op_b: Trans,
    beta: f32,
    c: &mut Matrix,
) {
    let (m, ka) = op_a.apply(a.shape());
    let (kb, n) = op_b.apply(b.shape());
    assert_eq!(
        ka, kb,
        "gemm inner dimension mismatch: op_a(a) is {m}x{ka}, op_b(b) is {kb}x{n}"
    );
    assert_eq!(
        c.shape(),
        (m, n),
        "gemm output shape mismatch: expected {m}x{n}, got {:?}",
        c.shape()
    );
    let k = ka;

    if beta != 1.0 {
        if beta == 0.0 {
            c.fill_zero();
        } else {
            c.scale(beta);
        }
    }
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }

    let threads = exec::parallelism_for(m * n, PARALLEL_THRESHOLD).min(m);

    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let (_a_rows, a_cols) = a.shape();
    let (_b_rows, b_cols) = b.shape();
    let c_data = c.as_mut_slice();

    // B does not depend on the band; A's view starts at the band's first
    // row (a row offset under N, a column offset under T — both are just
    // a slice start since transposition is a stride swap).
    let b_view = match op_b {
        Trans::N => PanelView::new(b_data, b_cols, 1),
        Trans::T => PanelView::new(b_data, 1, b_cols),
    };
    let body = |band: &mut [f32], row0: usize| {
        let rows = band.len() / n;
        let a_view = match op_a {
            Trans::N => PanelView::new(&a_data[row0 * a_cols..], a_cols, 1),
            Trans::T => PanelView::new(&a_data[row0..], 1, a_cols),
        };
        kernel::block_gemm(rows, n, k, alpha, a_view, b_view, OutView::new(band, n));
    };

    let rows_per_band = m.div_ceil(threads);
    exec::LaunchPlan::over_items("gemm", c_data, n, rows_per_band, &body).launch();
    sanitize_output("gemm", c_data);
}

/// `op_a(a) * op_b(b)` into a matrix from the calling thread's workspace
/// arena ([`Matrix::pooled_zeros`]; it goes back when dropped). The
/// buffer is already zero, so the product accumulates into it
/// (`beta = 1`) — the same bits as `beta = 0` — and skips a second
/// zeroing pass.
///
/// # Panics
///
/// Panics if the logical shapes are incompatible, as [`gemm`] does.
pub fn pooled_matmul(a: &Matrix, op_a: Trans, b: &Matrix, op_b: Trans) -> Matrix {
    let (m, _) = op_a.apply(a.shape());
    let (_, n) = op_b.apply(b.shape());
    let mut c = Matrix::pooled_zeros(m, n);
    gemm(1.0, a, op_a, b, op_b, 1.0, &mut c);
    c
}

/// Generates the `matmul*` convenience wrappers: each allocates the
/// right-shaped output and runs one [`gemm`] with fixed transpositions —
/// the per-combination loop bodies they used to carry all live in
/// [`crate::kernel`] now.
macro_rules! matmul_wrappers {
    ($($(#[$attr:meta])* $name:ident: ($opa:expr, $opb:expr) -> |$a:ident, $b:ident| ($rows:expr, $cols:expr);)*) => {$(
        $(#[$attr])*
        pub fn $name($a: &Matrix, $b: &Matrix) -> Matrix {
            let mut c = Matrix::zeros($rows, $cols);
            gemm(1.0, $a, $opa, $b, $opb, 0.0, &mut c);
            c
        }
    )*};
}

matmul_wrappers! {
    /// Computes `a * b` into a fresh matrix.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    matmul: (Trans::N, Trans::N) -> |a, b| (a.rows(), b.cols());

    /// Computes `a * b^T` into a fresh matrix (used for data gradients).
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.cols()`.
    matmul_nt: (Trans::N, Trans::T) -> |a, b| (a.rows(), b.rows());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &Matrix, op_a: Trans, b: &Matrix, op_b: Trans) -> Matrix {
        let am = match op_a {
            Trans::N => a.clone(),
            Trans::T => a.transpose(),
        };
        let bm = match op_b {
            Trans::N => b.clone(),
            Trans::T => b.transpose(),
        };
        let mut c = Matrix::zeros(am.rows(), bm.cols());
        for i in 0..am.rows() {
            for j in 0..bm.cols() {
                let mut acc = 0.0;
                for p in 0..am.cols() {
                    acc += am[(i, p)] * bm[(p, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Small deterministic LCG so the test has no dependencies.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }

    #[test]
    fn all_transpose_combinations_match_reference() {
        let cases = [(5usize, 7usize, 3usize), (1, 1, 1), (4, 4, 4), (9, 2, 6)];
        for &(m, n, k) in &cases {
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
                let mut c = Matrix::zeros(m, n);
                gemm(1.0, &a, op_a, &b, op_b, 0.0, &mut c);
                let want = reference(&a, op_a, &b, op_b);
                assert!(
                    c.approx_eq(&want, 1e-4),
                    "mismatch for ({op_a:?},{op_b:?}) m={m} n={n} k={k}: diff {}",
                    c.max_abs_diff(&want)
                );
            }
        }
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = rand_matrix(3, 3, 5);
        let b = rand_matrix(3, 3, 6);
        let mut c = Matrix::full(3, 3, 1.0);
        gemm(2.0, &a, Trans::N, &b, Trans::N, 0.5, &mut c);
        let mut want = reference(&a, Trans::N, &b, Trans::N);
        want.scale(2.0);
        want.axpy(0.5, &Matrix::full(3, 3, 1.0));
        assert!(c.approx_eq(&want, 1e-4));
    }

    #[test]
    fn large_parallel_matches_reference() {
        let a = rand_matrix(130, 70, 11);
        let b = rand_matrix(70, 90, 12);
        let c = matmul(&a, &b);
        let want = reference(&a, Trans::N, &b, Trans::N);
        assert!(c.approx_eq(&want, 1e-3), "diff {}", c.max_abs_diff(&want));
    }

    #[test]
    fn empty_dimensions_are_ok() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (0, 3));

        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (2, 3));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn helpers_match_gemm() {
        let a = rand_matrix(4, 6, 21);
        let b = rand_matrix(4, 5, 22);
        let c = pooled_matmul(&a, Trans::T, &b, Trans::N);
        assert!(c.approx_eq(&reference(&a, Trans::T, &b, Trans::N), 1e-4));

        let a = rand_matrix(4, 6, 23);
        let b = rand_matrix(5, 6, 24);
        let c = matmul_nt(&a, &b);
        assert!(c.approx_eq(&reference(&a, Trans::N, &b, Trans::T), 1e-4));
    }
}
