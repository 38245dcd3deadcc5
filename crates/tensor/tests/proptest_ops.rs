//! Property-based tests for the dense substrate: GEMM algebra and the
//! calculus identities of the NN primitives.

use megablocks_tensor::ops::{
    add_bias, bias_backward, cross_entropy, gelu, gelu_grad_mul, layer_norm, layer_norm_backward,
    softmax_rows, softmax_rows_backward,
};
use megablocks_tensor::{matmul, Matrix};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("exact length"))
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..10, 1usize..10, 1usize..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_associative((m, n, k) in dims(), p in 1usize..8, seed in 0u64..100) {
        let mut s = seed;
        let mut next = move |rows: usize, cols: usize| {
            Matrix::from_fn(rows, cols, |_, _| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((s >> 40) as f32 / (1u64 << 23) as f32) - 0.5
            })
        };
        let a = next(m, k);
        let b = next(k, n);
        let c = next(n, p);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        prop_assert!(left.approx_eq(&right, 1e-2), "diff {}", left.max_abs_diff(&right));
    }

    #[test]
    fn matmul_distributes_over_addition((m, n, k) in dims(), _unit in Just(()), seed in 0u64..100) {
        let mut s = seed.wrapping_add(7);
        let mut next = move |rows: usize, cols: usize| {
            Matrix::from_fn(rows, cols, |_, _| {
                s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                ((s >> 40) as f32 / (1u64 << 23) as f32) - 0.5
            })
        };
        let a = next(m, k);
        let b1 = next(k, n);
        let mut b2 = next(k, n);
        let prod2 = matmul(&a, &b2);
        b2.add_assign(&b1);
        let lhs = matmul(&a, &b2); // a(b1 + b2')
        let mut rhs = matmul(&a, &b1);
        rhs.add_assign(&prod2);
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn transpose_of_product_is_reversed_product((m, n, k) in dims()) {
        let a = Matrix::from_fn(m, k, |i, j| ((i * 3 + j) as f32).sin());
        let b = Matrix::from_fn(k, n, |i, j| ((i + 2 * j) as f32).cos());
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-4));
    }

    #[test]
    fn identity_is_neutral(m in 1usize..12, n in 1usize..12) {
        let a = Matrix::from_fn(m, n, |i, j| (i * n + j) as f32);
        prop_assert!(matmul(&a, &Matrix::eye(n)).approx_eq(&a, 1e-6));
        prop_assert!(matmul(&Matrix::eye(m), &a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn softmax_rows_are_probabilities(x in matrix(4, 6)) {
        let y = softmax_rows(&x);
        for i in 0..4 {
            let sum: f32 = y.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(y.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_gradient_rows_sum_to_zero(x in matrix(3, 5), dy in matrix(3, 5)) {
        // sum_j dx[i,j] = 0 because softmax outputs are constrained to a
        // simplex.
        let y = softmax_rows(&x);
        let dx = softmax_rows_backward(&y, &dy);
        for i in 0..3 {
            let s: f32 = dx.row(i).iter().sum();
            prop_assert!(s.abs() < 1e-4, "row {i} grad sum {s}");
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative_and_bounded_at_uniform(
        x in matrix(5, 7),
        targets in proptest::collection::vec(0usize..7, 5),
    ) {
        let (loss, grad) = cross_entropy(&x, &targets, None);
        prop_assert!(loss >= 0.0);
        prop_assert!(loss.is_finite());
        // Gradient rows sum to zero (softmax minus one-hot).
        for i in 0..5 {
            let s: f32 = grad.row(i).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
        // Uniform logits give exactly ln(vocab).
        let uniform = Matrix::zeros(5, 7);
        let (lu, _) = cross_entropy(&uniform, &targets, None);
        prop_assert!((lu - (7f32).ln()).abs() < 1e-5);
        prop_assert!(loss <= lu + 20.0); // crude finiteness band given x in [-3,3]
    }

    #[test]
    fn layer_norm_output_is_scale_invariant(x in matrix(3, 8), alpha in 0.5f32..4.0) {
        // Row-wise affine-invariance: scaling the input leaves the
        // normalized output unchanged (up to eps effects).
        let gamma = vec![1.0f32; 8];
        let beta = vec![0.0f32; 8];
        let (y1, _) = layer_norm(&x, &gamma, &beta, 1e-6);
        let xs = x.map(|v| v * alpha);
        let (y2, _) = layer_norm(&xs, &gamma, &beta, 1e-6);
        // Skip near-constant rows where eps dominates.
        for i in 0..3 {
            let row = x.row(i);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            if var < 1e-2 {
                continue;
            }
            for j in 0..8 {
                prop_assert!((y1[(i, j)] - y2[(i, j)]).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn layer_norm_backward_grad_rows_are_orthogonal_to_constants(x in matrix(3, 8), dy in matrix(3, 8)) {
        // dx rows sum to ~0: layer norm is invariant to adding a constant.
        let gamma = vec![1.0f32; 8];
        let beta = vec![0.0f32; 8];
        let (_, cache) = layer_norm(&x, &gamma, &beta, 1e-5);
        let (dx, _, _) = layer_norm_backward(&x, &dy, &gamma, &cache);
        for i in 0..3 {
            let s: f32 = dx.row(i).iter().sum();
            prop_assert!(s.abs() < 1e-3, "row {i} sum {s}");
        }
    }

    #[test]
    fn gelu_is_monotone_on_positive_axis(a in 0.0f32..5.0, b in 0.0f32..5.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let x = Matrix::from_vec(1, 2, vec![lo, hi]).expect("len");
        let y = gelu(&x);
        prop_assert!(y[(0, 0)] <= y[(0, 1)] + 1e-6);
    }

    #[test]
    fn gelu_grad_mul_is_zero_where_dy_is_zero(x in matrix(2, 6)) {
        let mut dx = Matrix::zeros(2, 6);
        gelu_grad_mul(dx.as_mut_slice(), x.as_slice());
        prop_assert!(dx.max_abs() == 0.0);
    }

    #[test]
    fn bias_backward_is_linear(dy1 in matrix(3, 4), dy2 in matrix(3, 4)) {
        let mut sum = dy1.clone();
        sum.add_assign(&dy2);
        let lhs = bias_backward(&sum);
        let a = bias_backward(&dy1);
        let b = bias_backward(&dy2);
        for j in 0..4 {
            prop_assert!((lhs[j] - a[j] - b[j]).abs() < 1e-4);
        }
    }

    #[test]
    fn add_bias_then_measure(x in matrix(3, 4), bias in proptest::collection::vec(-2.0f32..2.0, 4)) {
        let mut y = x.clone();
        add_bias(&mut y, &bias);
        for i in 0..3 {
            for j in 0..4 {
                prop_assert!((y[(i, j)] - x[(i, j)] - bias[j]).abs() < 1e-6);
            }
        }
    }
}
