//! Property-based tests: every block-sparse product must agree with the
//! dense reference on arbitrary topologies, values and shapes; metadata
//! invariants must hold for every constructible topology.

use megablocks::sparse::{ops, BlockCoord, BlockSize, BlockSparseMatrix, Topology};
use megablocks::tensor::{matmul, Matrix, Trans};
use proptest::prelude::*;

/// Strategy: a random topology with block grid up to 5x6 and block size
/// 2/3/4, with each block present independently.
fn topology_strategy() -> impl Strategy<Value = Topology> {
    (
        1usize..=5,
        1usize..=6,
        prop::sample::select(vec![2usize, 3, 4]),
    )
        .prop_flat_map(|(rows, cols, bs)| {
            proptest::collection::vec(proptest::bool::ANY, rows * cols).prop_map(move |mask| {
                let blocks = mask
                    .iter()
                    .enumerate()
                    .filter(|(_, &m)| m)
                    .map(|(i, _)| BlockCoord {
                        row: i / cols,
                        col: i % cols,
                    });
                Topology::from_blocks(rows, cols, blocks, BlockSize::new(bs).expect("nonzero"))
                    .expect("in-range, unique blocks")
            })
        })
}

fn mask(m: &Matrix, topo: &Topology) -> Matrix {
    let bs = topo.block_size().get();
    Matrix::from_fn(m.rows(), m.cols(), |i, j| {
        if topo.find(i / bs, j / bs).is_some() {
            m[(i, j)]
        } else {
            0.0
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn topology_metadata_invariants(topo in topology_strategy()) {
        // Row offsets are monotone and end at nnz.
        let ro = topo.row_offsets();
        prop_assert_eq!(ro.len(), topo.block_rows() + 1);
        prop_assert!(ro.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*ro.last().unwrap(), topo.nnz_blocks());

        // COO row indices agree with the CSR structure.
        for r in 0..topo.block_rows() {
            for k in topo.row_blocks(r) {
                prop_assert_eq!(topo.row_indices()[k], r);
            }
        }

        // Transpose indices are a permutation of storage slots that
        // enumerates blocks in column-major order.
        let mut seen = vec![false; topo.nnz_blocks()];
        let mut last = (0usize, 0usize);
        let mut first = true;
        for c in 0..topo.block_cols() {
            for k in topo.col_blocks(c) {
                prop_assert!(!seen[k], "slot visited twice");
                seen[k] = true;
                let coord = topo.coord(k);
                prop_assert_eq!(coord.col, c);
                if !first {
                    prop_assert!((coord.col, coord.row) > last, "not column-major");
                }
                last = (coord.col, coord.row);
                first = false;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));

        // Transposing twice is the identity.
        prop_assert_eq!(topo.transposed().transposed(), topo);
    }

    #[test]
    fn dense_roundtrip(topo in topology_strategy(), seed in 0u64..1000) {
        let (rows, cols) = topo.shape();
        let mut state = seed;
        let dense = Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        });
        let sparse = BlockSparseMatrix::from_dense(&dense, &topo).expect("shape matches");
        prop_assert!(sparse.to_dense().approx_eq(&mask(&dense, &topo), 0.0));
        // Explicit transpose equals the dense transpose.
        prop_assert!(sparse
            .explicit_transpose()
            .to_dense()
            .approx_eq(&sparse.to_dense().transpose(), 1e-6));
    }

    #[test]
    fn sdd_matches_masked_dense(
        (topo, k) in topology_strategy().prop_flat_map(|t| (Just(t), 1usize..=7)),
    ) {
        let (m, n) = topo.shape();
        let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 7) as f32).sin());
        let b = Matrix::from_fn(k, n, |i, j| ((i * 13 + j * 3) as f32).cos());
        let got = ops::sdd(&a, &b, &topo).to_dense();
        let want = mask(&matmul(&a, &b), &topo);
        prop_assert!(got.approx_eq(&want, 1e-4), "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn dsd_and_dds_match_dense(
        (topo, n) in topology_strategy().prop_flat_map(|t| (Just(t), 1usize..=7)),
        vals in proptest::collection::vec(-1.5f32..1.5, 0..1),
    ) {
        let _ = vals;
        let (rows, cols) = topo.shape();
        let dense_vals = Matrix::from_fn(rows, cols, |i, j| ((i + 2 * j) as f32 * 0.37).sin());
        let s = BlockSparseMatrix::from_dense(&mask(&dense_vals, &topo), &topo).expect("shape");
        let sd = s.to_dense();

        let d = Matrix::from_fn(cols, n, |i, j| ((i * 5 + j) as f32 * 0.21).cos());
        let got = ops::dsd(&s, &d);
        prop_assert!(got.approx_eq(&matmul(&sd, &d), 1e-4));

        let d2 = Matrix::from_fn(rows, n, |i, j| ((i + j * 3) as f32 * 0.43).sin());
        let got = ops::dst_d(&s, &d2);
        prop_assert!(got.approx_eq(&matmul(&sd.transpose(), &d2), 1e-4));
        // The ablation path computes the same thing.
        let slow = ops::dst_d_explicit(&s, &d2);
        prop_assert!(got.approx_eq(&slow, 1e-4));

        let d3 = Matrix::from_fn(n, rows, |i, j| ((i * 2 + j) as f32 * 0.31).cos());
        let got = ops::try_dds_op(&d3, Trans::N, &s, Trans::N).unwrap();
        prop_assert!(got.approx_eq(&matmul(&d3, &sd), 1e-4));

        let d4 = Matrix::from_fn(rows, n, |i, j| ((i + 7 * j) as f32 * 0.17).sin());
        let got = ops::ddt_s(&d4, &s);
        prop_assert!(got.approx_eq(&matmul(&d4.transpose(), &sd), 1e-4));
    }

    #[test]
    fn gemm_matches_reference_under_transposes(
        m in 1usize..8, n in 1usize..8, k in 1usize..8,
        ta in proptest::bool::ANY, tb in proptest::bool::ANY,
    ) {
        use megablocks::tensor::gemm;
        let op_a = if ta { Trans::T } else { Trans::N };
        let op_b = if tb { Trans::T } else { Trans::N };
        let a = match op_a {
            Trans::N => Matrix::from_fn(m, k, |i, j| ((i * 3 + j) as f32).sin()),
            Trans::T => Matrix::from_fn(k, m, |i, j| ((i * 3 + j) as f32).sin()),
        };
        let b = match op_b {
            Trans::N => Matrix::from_fn(k, n, |i, j| ((i + 2 * j) as f32).cos()),
            Trans::T => Matrix::from_fn(n, k, |i, j| ((i + 2 * j) as f32).cos()),
        };
        let mut c = Matrix::zeros(m, n);
        gemm(1.0, &a, op_a, &b, op_b, 0.0, &mut c);
        let ad = if ta { a.transpose() } else { a.clone() };
        let bd = if tb { b.transpose() } else { b.clone() };
        prop_assert!(c.approx_eq(&matmul(&ad, &bd), 1e-4));
    }
}
