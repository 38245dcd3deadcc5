//! Edge-case and failure-injection tests for the block-sparse machinery.

use megablocks_sparse::{ops, BlockCoord, BlockSize, BlockSparseMatrix, SparseError, Topology};
use megablocks_tensor::{matmul, Matrix};

fn bs(n: usize) -> BlockSize {
    BlockSize::new(n).expect("nonzero")
}

#[test]
fn single_block_matrix_products() {
    let topo = Topology::from_blocks(1, 1, [BlockCoord { row: 0, col: 0 }], bs(3)).unwrap();
    let a = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
    let b = Matrix::from_fn(2, 3, |i, j| (i + j) as f32);
    let s = ops::sdd(&a, &b, &topo);
    assert!(s.to_dense().approx_eq(&matmul(&a, &b), 1e-5));
    let d = Matrix::eye(3);
    assert!(ops::dsd(&s, &d).approx_eq(&s.to_dense(), 1e-6));
}

#[test]
fn block_size_one_degenerates_to_elementwise_sparsity() {
    // bs = 1 is plain unstructured sparsity; everything must still work.
    let topo = Topology::from_blocks(
        3,
        3,
        [
            BlockCoord { row: 0, col: 1 },
            BlockCoord { row: 1, col: 0 },
            BlockCoord { row: 2, col: 2 },
        ],
        bs(1),
    )
    .unwrap();
    let a = Matrix::from_fn(3, 4, |i, j| ((i + j) as f32).sin());
    let b = Matrix::from_fn(4, 3, |i, j| ((i * j) as f32).cos());
    let s = ops::sdd(&a, &b, &topo);
    let full = matmul(&a, &b);
    for i in 0..3 {
        for j in 0..3 {
            let expect = if topo.find(i, j).is_some() {
                full[(i, j)]
            } else {
                0.0
            };
            assert!((s.get(i, j) - expect).abs() < 1e-5, "({i},{j})");
        }
    }
}

#[test]
fn fully_dense_topology_equals_dense_gemm() {
    let blocks = (0..2).flat_map(|r| (0..3).map(move |c| BlockCoord { row: r, col: c }));
    let topo = Topology::from_blocks(2, 3, blocks, bs(4)).unwrap();
    assert_eq!(topo.density(), 1.0);
    let a = Matrix::from_fn(8, 5, |i, j| ((i * 3 + j) as f32).sin());
    let b = Matrix::from_fn(5, 12, |i, j| ((i + 2 * j) as f32).cos());
    let s = ops::sdd(&a, &b, &topo);
    assert!(s.to_dense().approx_eq(&matmul(&a, &b), 1e-4));
}

#[test]
fn zero_valued_blocks_are_still_structurally_nonzero() {
    // A block that happens to hold zeros participates in products (it is
    // not pruned) — structural vs numerical sparsity are distinct.
    let topo = Topology::from_blocks(1, 2, [BlockCoord { row: 0, col: 0 }], bs(2)).unwrap();
    let s = BlockSparseMatrix::zeros(&topo);
    assert_eq!(s.topology().nnz_blocks(), 1);
    let d = Matrix::full(4, 3, 1.0);
    let y = ops::dsd(&s, &d);
    assert_eq!(y.shape(), (2, 3));
    assert_eq!(y.max_abs(), 0.0);
}

#[test]
fn errors_carry_actionable_messages() {
    let e = Topology::from_blocks(1, 1, [BlockCoord { row: 3, col: 0 }], bs(2)).unwrap_err();
    assert!(e.to_string().contains("out of range"), "{e}");

    let e = Topology::for_moe(&[4], 5, bs(4)).unwrap_err();
    assert!(e.to_string().contains("not a multiple"), "{e}");

    let e = BlockSize::new(0).unwrap_err();
    assert_eq!(e, SparseError::ZeroBlockSize);
    assert!(!e.to_string().is_empty());

    let topo = Topology::for_moe(&[4], 4, bs(4)).unwrap();
    let e = BlockSparseMatrix::from_raw(&topo, vec![0.0; 3]).unwrap_err();
    assert!(e.to_string().contains("does not match"), "{e}");
}

#[test]
fn extremely_imbalanced_moe_topology() {
    // One expert takes everything, the rest take nothing — the exact
    // situation token-dropping MoEs cannot express without waste.
    let topo = Topology::for_moe(&[4096, 0, 0, 0], 256, bs(128)).unwrap();
    assert_eq!(topo.nnz_blocks(), 32 * 2);
    let (rows, cols) = topo.shape();
    assert_eq!(rows, 4096);
    assert_eq!(cols, 1024);
    // All blocks live in the first expert's column stripe.
    assert!(topo.col_indices().iter().all(|&c| c < 2));
}

#[test]
fn sdd_then_dsd_identity_roundtrip() {
    // SDD against the identity extracts the topology mask; DSD against the
    // identity reconstitutes it.
    let topo = Topology::block_diagonal(&[1, 2], &[2, 1], bs(2)).unwrap();
    let (n, m) = topo.shape();
    let x = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) as f32).sin());
    let s = ops::sdd(&x, &Matrix::eye(n), &topo);
    let back = ops::dsd(&s, &Matrix::eye(m));
    assert_eq!(back.shape(), (n, m));
    // back == mask(x) restricted to shape (n, m): check via get.
    for i in 0..n {
        for j in 0..m {
            assert!((back[(i, j)] - s.get(i, j)).abs() < 1e-6);
        }
    }
}

#[test]
fn transposed_iteration_covers_every_block_exactly_once() {
    let topo = Topology::block_diagonal(&[2, 1, 3], &[1, 2, 1], bs(2)).unwrap();
    let mut visited = vec![0usize; topo.nnz_blocks()];
    for c in 0..topo.block_cols() {
        for k in topo.col_blocks(c) {
            visited[k] += 1;
        }
    }
    assert!(visited.iter().all(|&v| v == 1), "{visited:?}");
}

#[test]
fn metadata_bytes_scale_inversely_with_block_size() {
    let small = Topology::for_moe(&[1024; 4], 1024, bs(32)).unwrap();
    let large = Topology::for_moe(&[1024; 4], 1024, bs(128)).unwrap();
    assert_eq!(small.nnz(), large.nnz());
    assert!(small.metadata_bytes() > large.metadata_bytes() * 8);
}
