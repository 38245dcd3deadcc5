//! Backend-parity properties for the block-sparse products.
//!
//! Every SDD/DSD/DDS transpose variant reduces to lowering the topology
//! into rectangles of nonzero blocks plus one `block_gemm` call per
//! rectangle, so the microkernel contract (one accumulator per element,
//! ascending-`k`, `alpha` once) makes the tiled and scalar backends
//! bit-identical on sparse products too. These properties pin that across
//! randomized irregular topologies, the grouping edge cases, every
//! transpose combination, and worker counts 1/2/8 — and pin the products
//! themselves to the dense GEMM over the densified operand, bit for bit.
//!
//! The backend registry is process-global; tests hold a lock while
//! flipping it (hygiene only — bit-identical backends make concurrent
//! flips unobservable).

use std::sync::{Mutex, MutexGuard};

use megablocks_exec::scoped_parallelism;
use megablocks_sparse::{ops, BlockCoord, BlockSize, BlockSparseMatrix, Topology};
use megablocks_telemetry as telemetry;
use megablocks_tensor::{
    configure_kernel_backend, gemm, kernel_backend, KernelBackend, Matrix, Trans,
};
use proptest::prelude::*;

mod common;
use common::grouping_edge_topologies;

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

/// A fixed sparse operand for the DSD/DDS families, built without any
/// product so its bits cannot depend on the backend under test.
fn sparse_operand(topo: &Topology, seed: u64) -> BlockSparseMatrix {
    let (rows, cols) = topo.shape();
    let dense = lcg_matrix(rows, cols, seed);
    let masked = Matrix::from_fn(rows, cols, |i, j| {
        let b = topo.block_size().get();
        if topo.find(i / b, j / b).is_some() {
            dense[(i, j)]
        } else {
            0.0
        }
    });
    BlockSparseMatrix::from_dense(&masked, topo).expect("masked to topology")
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

    let s = sparse_operand(topo, seed ^ 2);

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
        assert_worker_count_invisible("imbalanced experts", &topo, 48, seed);
    }
}

/// Runs all twelve variants at 1, 2 and 8 workers under both backends and
/// requires identical bits.
fn assert_worker_count_invisible(what: &str, topo: &Topology, inner: usize, seed: u64) {
    for backend in [KernelBackend::Scalar, KernelBackend::Tiled] {
        let runs: Vec<Vec<Vec<u32>>> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                scoped_parallelism(threads, || {
                    with_backend(backend, || {
                        all_sparse_products(topo, inner, inner, inner, seed)
                    })
                })
            })
            .collect();
        assert_eq!(
            runs[0],
            runs[1],
            "{what}: 1 vs 2 workers ({})",
            backend.name()
        );
        assert_eq!(
            runs[0],
            runs[2],
            "{what}: 1 vs 8 workers ({})",
            backend.name()
        );
    }
}

/// The grouping edge cases at 1, 2 and 8 workers: a rectangle cut by a
/// band boundary, or a band that starts on an empty block row, yields the
/// bits of the single-band run.
#[test]
fn worker_count_is_bit_invisible_on_grouping_edge_cases() {
    let _guard = backend_lock();
    for (what, topo) in grouping_edge_topologies(8) {
        // Inner dimensions large enough to clear PARALLEL_THRESHOLD even
        // for a one-block topology, so banding happens wherever there is
        // more than one group to cut between.
        let inner = (1 << 16) / topo.nnz() + 40;
        assert_worker_count_invisible(what, &topo, inner, 9);
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

/// The grouping edge cases are bit-identical across backends on all
/// twelve variants (the randomized property above rarely draws them).
#[test]
fn grouping_edge_cases_are_bit_identical_across_backends() {
    let _guard = backend_lock();
    for bs in [1usize, 4, 16] {
        for (what, topo) in grouping_edge_topologies(bs) {
            let run =
                |backend| with_backend(backend, || all_sparse_products(&topo, 37, 19, 23, 11));
            assert_eq!(
                run(KernelBackend::Scalar),
                run(KernelBackend::Tiled),
                "{what} (block size {bs})"
            );
        }
    }
}

/// ROADMAP aim 3, "block-sparse products equal the dense reference", as a
/// bitwise oracle: every DSD and DDS variant equals the dense [`gemm`]
/// over `s.to_dense()` bit for bit, on both backends. An output element is
/// one accumulator over its row's (column's) nonzero blocks in ascending
/// order — the dense reduction minus the structural zeros, and adding the
/// `0.0 * d` terms those contribute never changes a finite accumulator.
#[test]
fn dsd_and_dds_equal_the_dense_gemm_bit_for_bit() {
    let _guard = backend_lock();
    let mut topologies = grouping_edge_topologies(4);
    topologies.push((
        "random mask",
        masked_topology(5, 6, 8, 0x5A3C_96E1_0F47_B2D8),
    ));
    topologies.push((
        "moe",
        Topology::for_moe(&[32, 0, 16, 48], 64, BlockSize::new(16).expect("nonzero"))
            .expect("block-aligned"),
    ));
    let dense_product = |x: &Matrix, op_x: Trans, y: &Matrix, op_y: Trans| {
        let rows = if op_x == Trans::N { x.rows() } else { x.cols() };
        let cols = if op_y == Trans::N { y.cols() } else { y.rows() };
        let mut out = Matrix::zeros(rows, cols);
        gemm(1.0, x, op_x, y, op_y, 0.0, &mut out);
        bits(out.as_slice())
    };
    for (what, topo) in &topologies {
        let (rows, cols) = topo.shape();
        let s = sparse_operand(topo, 77);
        let sd = s.to_dense();
        let width = 21;
        for backend in [KernelBackend::Scalar, KernelBackend::Tiled] {
            with_backend(backend, || {
                for &(op_s, op_d) in &COMBOS {
                    let inner = if op_s == Trans::N { cols } else { rows };
                    let d = match op_d {
                        Trans::N => lcg_matrix(inner, width, 78),
                        Trans::T => lcg_matrix(width, inner, 78),
                    };
                    assert_eq!(
                        bits(ops::try_dsd_op(&s, op_s, &d, op_d).unwrap().as_slice()),
                        dense_product(&sd, op_s, &d, op_d),
                        "{what}: dsd ({op_s:?}, {op_d:?}) on {}",
                        backend.name()
                    );
                    let inner = if op_s == Trans::N { rows } else { cols };
                    let d = match op_d {
                        Trans::N => lcg_matrix(width, inner, 79),
                        Trans::T => lcg_matrix(inner, width, 79),
                    };
                    assert_eq!(
                        bits(ops::try_dds_op(&d, op_d, &s, op_s).unwrap().as_slice()),
                        dense_product(&d, op_d, &sd, op_s),
                        "{what}: dds ({op_d:?}, {op_s:?}) on {}",
                        backend.name()
                    );
                }
            });
        }
    }
}

/// On the block-diagonal topology an MoE layer produces, a product is one
/// kernel call per expert per band — `kernel.calls` counts rectangles,
/// not the 1,024 blocks.
#[test]
fn moe_products_issue_one_kernel_call_per_expert_per_band() {
    let _guard = backend_lock();
    let experts = 8;
    let topo = Topology::for_moe(&[64; 8], 512, BlockSize::new(16).expect("nonzero"))
        .expect("block-aligned");
    assert_eq!(topo.nnz_blocks(), 1024);
    let (rows, cols) = topo.shape();
    let x = lcg_matrix(rows, 128, 1);
    let w1 = lcg_matrix(128, cols, 2);
    let w2 = lcg_matrix(cols, 128, 3);
    // Every test in this binary holds `backend_lock` around its products,
    // so the counter moves only for the calls below.
    let calls = telemetry::counter_with("kernel.calls", kernel_backend().name());
    for bands in [1usize, 2, 8] {
        let before = calls.get();
        let h = scoped_parallelism(bands, || ops::sdd(&x, &w1, &topo));
        let sdd_calls = calls.get() - before;
        let before = calls.get();
        let _y = scoped_parallelism(bands, || ops::dsd(&h, &w2));
        let dsd_calls = calls.get() - before;
        for (op, n) in [("sdd", sdd_calls), ("dsd", dsd_calls)] {
            assert!(
                (experts..=experts * bands).contains(&(n as usize)),
                "{op} at {bands} bands issued {n} kernel calls for {experts} experts"
            );
        }
    }
}
