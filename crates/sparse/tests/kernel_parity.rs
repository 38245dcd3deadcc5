//! Backend-parity properties for the block-sparse products.
//!
//! Every SDD/DSD/DDS transpose variant now reduces to topology iteration
//! plus [`block_gemm`] calls, so the microkernel contract (one accumulator
//! per element, ascending-`k`, `alpha` once) makes the tiled and scalar
//! backends bit-identical on sparse products too. These properties pin
//! that across randomized irregular topologies, every transpose
//! combination, and worker counts 1/2/8.
//!
//! The backend registry is process-global; tests hold a lock while
//! flipping it (hygiene only — bit-identical backends make concurrent
//! flips unobservable).

use std::sync::{Mutex, MutexGuard};

use megablocks_exec::scoped_parallelism;
use megablocks_sparse::{ops, BlockCoord, BlockSize, BlockSparseMatrix, Topology};
use megablocks_tensor::{configure_kernel_backend, KernelBackend, Matrix, Trans};
use proptest::prelude::*;

fn backend_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn with_backend<R>(backend: KernelBackend, f: impl FnOnce() -> R) -> R {
    let prev = configure_kernel_backend(backend);
    let out = f();
    configure_kernel_backend(prev);
    out
}

fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

const COMBOS: [(Trans, Trans); 4] = [
    (Trans::N, Trans::N),
    (Trans::N, Trans::T),
    (Trans::T, Trans::N),
    (Trans::T, Trans::T),
];

/// A topology over a `block_rows x block_cols` grid whose nonzero set is
/// chosen by a bitmask (possibly empty, possibly full).
fn masked_topology(block_rows: usize, block_cols: usize, bs: usize, mask: u64) -> Topology {
    let coords = (0..block_rows * block_cols)
        .filter(|i| mask & (1 << (i % 64)) != 0)
        .map(|i| BlockCoord {
            row: i / block_cols,
            col: i % block_cols,
        });
    Topology::from_blocks(
        block_rows,
        block_cols,
        coords,
        BlockSize::new(bs).expect("nonzero block size"),
    )
    .expect("in-range coordinates")
}

/// Runs all twelve sparse product variants (4 per family) and returns
/// every output's bit pattern.
fn all_sparse_products(topo: &Topology, k: usize, n: usize, m: usize, seed: u64) -> Vec<Vec<u32>> {
    let (rows, cols) = topo.shape();
    let mut outputs = Vec::new();

    for &(op_a, op_b) in &COMBOS {
        let a = match op_a {
            Trans::N => lcg_matrix(rows, k, seed),
            Trans::T => lcg_matrix(k, rows, seed),
        };
        let b = match op_b {
            Trans::N => lcg_matrix(k, cols, seed ^ 1),
            Trans::T => lcg_matrix(cols, k, seed ^ 1),
        };
        outputs.push(bits(
            ops::try_sdd_op(&a, op_a, &b, op_b, topo)
                .unwrap()
                .as_slice(),
        ));
    }

    // A fixed sparse operand for the DSD/DDS families, built without any
    // product so its bits cannot depend on the backend under test.
    let dense = lcg_matrix(rows, cols, seed ^ 2);
    let masked = Matrix::from_fn(rows, cols, |i, j| {
        let b = topo.block_size().get();
        if topo.find(i / b, j / b).is_some() {
            dense[(i, j)]
        } else {
            0.0
        }
    });
    let s = BlockSparseMatrix::from_dense(&masked, topo).expect("masked to topology");

    for &(op_s, op_d) in &COMBOS {
        let inner = match op_s {
            Trans::N => cols,
            Trans::T => rows,
        };
        let d = match op_d {
            Trans::N => lcg_matrix(inner, n, seed ^ 3),
            Trans::T => lcg_matrix(n, inner, seed ^ 3),
        };
        outputs.push(bits(
            ops::try_dsd_op(&s, op_s, &d, op_d).unwrap().as_slice(),
        ));
    }

    for &(op_d, op_s) in &COMBOS {
        let inner = match op_s {
            Trans::N => rows,
            Trans::T => cols,
        };
        let d = match op_d {
            Trans::N => lcg_matrix(m, inner, seed ^ 4),
            Trans::T => lcg_matrix(inner, m, seed ^ 4),
        };
        outputs.push(bits(
            ops::try_dds_op(&d, op_d, &s, op_s).unwrap().as_slice(),
        ));
    }

    outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tiled and scalar agree bit-for-bit on all twelve sparse product
    /// variants over randomized irregular topologies.
    #[test]
    fn tiled_matches_scalar_on_all_sparse_products(
        block_rows in 1usize..5,
        block_cols in 1usize..5,
        bs in proptest::sample::select(vec![1usize, 2, 4, 8]),
        mask in 0u64..=u64::MAX,
        (k, n, m) in (1usize..24, 1usize..20, 1usize..20),
        seed in 0u64..1000,
    ) {
        let _guard = backend_lock();
        let topo = masked_topology(block_rows, block_cols, bs, mask);
        let scalar =
            with_backend(KernelBackend::Scalar, || all_sparse_products(&topo, k, n, m, seed));
        let tiled =
            with_backend(KernelBackend::Tiled, || all_sparse_products(&topo, k, n, m, seed));
        prop_assert_eq!(scalar, tiled);
    }

    /// Worker count never changes a bit, under either backend.
    #[test]
    fn worker_count_is_bit_invisible(seed in 0u64..100) {
        let _guard = backend_lock();
        // Large enough to clear PARALLEL_THRESHOLD so banding really
        // happens at 2 and 8 workers.
        let topo = Topology::for_moe(&[32, 8, 24], 32, BlockSize::new(8).expect("nonzero"))
            .expect("block-aligned");
        for backend in [KernelBackend::Scalar, KernelBackend::Tiled] {
            let runs: Vec<Vec<Vec<u32>>> = [1usize, 2, 8]
                .iter()
                .map(|&threads| {
                    scoped_parallelism(threads, || {
                        with_backend(backend, || all_sparse_products(&topo, 48, 40, 40, seed))
                    })
                })
                .collect();
            prop_assert_eq!(&runs[0], &runs[1], "1 vs 2 workers ({})", backend.name());
            prop_assert_eq!(&runs[0], &runs[2], "1 vs 8 workers ({})", backend.name());
        }
    }
}

/// Degenerate cases: empty topology, single 1x1 block, `k = 1`.
#[test]
fn degenerate_topologies_are_bit_identical() {
    let _guard = backend_lock();
    let cases = [
        masked_topology(2, 2, 4, 0),  // empty
        masked_topology(1, 1, 1, 1),  // single 1x1 block
        masked_topology(3, 1, 2, !0), // full single column
    ];
    for topo in &cases {
        let scalar = with_backend(KernelBackend::Scalar, || {
            all_sparse_products(topo, 1, 1, 1, 5)
        });
        let tiled = with_backend(KernelBackend::Tiled, || {
            all_sparse_products(topo, 1, 1, 1, 5)
        });
        assert_eq!(scalar, tiled, "topology shape {:?}", topo.shape());
    }
}
