//! Parity of the block-sparse products with the dense reference.
//!
//! Every SDD/DSD/DDS transpose variant lowers the topology into
//! rectangles of nonzero blocks plus one `block_gemm` call per rectangle.
//! These properties compare all twelve variants, bit for bit, with
//! [`kernel::scalar`] over the densified operands — an oracle that shares
//! nothing of that lowering: SDD masked to the topology's blocks and
//! valid rows, DSD/DDS over `to_dense()`. A DSD/DDS element is one
//! accumulator over its row's (column's) nonzero blocks in ascending
//! order — the dense reduction minus the structural zeros, and adding the
//! `0.0 * d` terms those contribute never changes a finite accumulator.
//! Pinned across randomized irregular topologies, the grouping edge
//! cases, experts with partial blocks and worker counts 1/2/8.
//!
//! `kernel.calls` is process-wide, so every test holds one lock: the
//! test that counts calls must see only its own.

use std::sync::{Mutex, MutexGuard};

use megablocks_exec::scoped_parallelism;
use megablocks_sparse::{ops, BlockCoord, BlockSize, BlockSparseMatrix, Topology};
use megablocks_telemetry as telemetry;
use megablocks_tensor::{gemm, kernel, Matrix, OutView, PanelView, Trans};
use proptest::prelude::*;

mod common;
use common::grouping_edge_topologies;

fn counter_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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

/// A whole matrix as a view of its logical operand under `op`.
fn view(x: &Matrix, op: Trans) -> PanelView<'_> {
    match op {
        Trans::N => PanelView::new(x.as_slice(), x.cols(), 1),
        Trans::T => PanelView::new(x.as_slice(), 1, x.cols()),
    }
}

/// `op_x(x) * op_y(y)` by [`kernel::scalar`] over whole-matrix views.
fn reference(x: &Matrix, op_x: Trans, y: &Matrix, op_y: Trans) -> Matrix {
    let (m, k) = if op_x == Trans::N {
        x.shape()
    } else {
        (x.cols(), x.rows())
    };
    let n = if op_y == Trans::N { y.cols() } else { y.rows() };
    let mut out = Matrix::zeros(m, n);
    let ov = OutView::new(out.as_mut_slice(), n);
    kernel::scalar(m, n, k, 1.0, view(x, op_x), view(y, op_y), ov);
    out
}

/// `dense` where `topo` stores an element — a nonzero block, a row below
/// its block row's `rows_valid` — and `+0.0` elsewhere.
fn masked(dense: &Matrix, topo: &Topology) -> Matrix {
    let bs = topo.block_size().get();
    let valid = topo.rows_valid();
    Matrix::from_fn(dense.rows(), dense.cols(), |i, j| {
        let stored = topo.find(i / bs, j / bs).is_some() && i % bs < valid[i / bs];
        if stored {
            dense[(i, j)]
        } else {
            0.0
        }
    })
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
/// product, `+0.0` in the rows past `rows_valid` as a gather leaves them.
fn sparse_operand(topo: &Topology, seed: u64) -> BlockSparseMatrix {
    let (rows, cols) = topo.shape();
    let dense = masked(&lcg_matrix(rows, cols, seed), topo);
    BlockSparseMatrix::from_dense(&dense, topo).expect("shaped as the topology")
}

/// Which side of the parity a run computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    /// The sparse ops.
    Ops,
    /// [`reference`] over the densified operands.
    Reference,
}

/// Runs all twelve sparse product variants (4 per family) via `via` and
/// returns every output's bit pattern, an SDD output densified.
fn all_sparse_products(
    via: Via,
    topo: &Topology,
    k: usize,
    n: usize,
    m: usize,
    seed: u64,
) -> Vec<Vec<u32>> {
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
        let c = match via {
            Via::Ops => ops::try_sdd_op(&a, op_a, &b, op_b, topo)
                .unwrap()
                .to_dense(),
            Via::Reference => masked(&reference(&a, op_a, &b, op_b), topo),
        };
        outputs.push(bits(c.as_slice()));
    }

    let s = sparse_operand(topo, seed ^ 2);
    let sd = s.to_dense();

    for &(op_s, op_d) in &COMBOS {
        let inner = match op_s {
            Trans::N => cols,
            Trans::T => rows,
        };
        let d = match op_d {
            Trans::N => lcg_matrix(inner, n, seed ^ 3),
            Trans::T => lcg_matrix(n, inner, seed ^ 3),
        };
        let c = match via {
            Via::Ops => ops::try_dsd_op(&s, op_s, &d, op_d).unwrap(),
            Via::Reference => reference(&sd, op_s, &d, op_d),
        };
        outputs.push(bits(c.as_slice()));
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
        let c = match via {
            Via::Ops => ops::try_dds_op(&d, op_d, &s, op_s).unwrap(),
            Via::Reference => reference(&d, op_d, &sd, op_s),
        };
        outputs.push(bits(c.as_slice()));
    }

    outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All twelve sparse product variants give the reference's bits over
    /// randomized irregular topologies.
    #[test]
    fn tiled_matches_scalar_on_all_sparse_products(
        block_rows in 1usize..5,
        block_cols in 1usize..5,
        bs in proptest::sample::select(vec![1usize, 2, 4, 8]),
        mask in 0u64..=u64::MAX,
        (k, n, m) in (1usize..24, 1usize..20, 1usize..20),
        seed in 0u64..1000,
    ) {
        let _guard = counter_lock();
        let topo = masked_topology(block_rows, block_cols, bs, mask);
        prop_assert_eq!(
            all_sparse_products(Via::Ops, &topo, k, n, m, seed),
            all_sparse_products(Via::Reference, &topo, k, n, m, seed)
        );
    }

    /// Worker count never changes a bit.
    #[test]
    fn worker_count_is_bit_invisible(seed in 0u64..100) {
        let _guard = counter_lock();
        // Large enough to clear PARALLEL_THRESHOLD so banding really
        // happens at 2 and 8 workers.
        let topo = Topology::for_moe(&[32, 8, 24], 32, BlockSize::new(8).expect("nonzero"))
            .expect("block-aligned");
        assert_worker_count_invisible("imbalanced experts", &topo, 48, seed);
    }
}

/// Runs all twelve variants at 1, 2 and 8 workers and requires the
/// reference's bits from each.
fn assert_worker_count_invisible(what: &str, topo: &Topology, inner: usize, seed: u64) {
    let want = all_sparse_products(Via::Reference, topo, inner, inner, inner, seed);
    for threads in [1usize, 2, 8] {
        let got = scoped_parallelism(threads, || {
            all_sparse_products(Via::Ops, topo, inner, inner, inner, seed)
        });
        assert_eq!(got, want, "{what}: {threads} workers");
    }
}

/// The grouping edge cases at 1, 2 and 8 workers: a rectangle cut by a
/// band boundary, or a band that starts on an empty block row, yields the
/// bits of the single-band run.
#[test]
fn worker_count_is_bit_invisible_on_grouping_edge_cases() {
    let _guard = counter_lock();
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
    let _guard = counter_lock();
    let cases = [
        masked_topology(2, 2, 4, 0),  // empty
        masked_topology(1, 1, 1, 1),  // single 1x1 block
        masked_topology(3, 1, 2, !0), // full single column
    ];
    for topo in &cases {
        assert_eq!(
            all_sparse_products(Via::Ops, topo, 1, 1, 1, 5),
            all_sparse_products(Via::Reference, topo, 1, 1, 1, 5),
            "topology shape {:?}",
            topo.shape()
        );
    }
}

/// The grouping edge cases, and experts whose last block row is partial
/// (a row run ends there), give the reference's bits on all twelve
/// variants (the randomized property above rarely draws them).
#[test]
fn grouping_edge_cases_are_bit_identical_across_backends() {
    let _guard = counter_lock();
    for bs in [1usize, 4, 16] {
        let mut topologies = grouping_edge_topologies(bs);
        let bsz = BlockSize::new(bs).expect("nonzero");
        let partial = Topology::for_moe(&[5, 0, 2 * bs + 3, bs], 2 * bs, bsz);
        topologies.push((
            "experts with partial blocks",
            partial.expect("block-aligned"),
        ));
        for (what, topo) in topologies {
            let run = |via| all_sparse_products(via, &topo, 37, 19, 23, 11);
            assert_eq!(
                run(Via::Ops),
                run(Via::Reference),
                "{what} (block size {bs})"
            );
        }
    }
}

/// ROADMAP aim 3, "block-sparse products equal the dense reference", as a
/// bitwise oracle: every DSD and DDS variant equals the dense [`gemm`]
/// over `s.to_dense()` bit for bit. An output element is
/// one accumulator over its row's (column's) nonzero blocks in ascending
/// order — the dense reduction minus the structural zeros, and adding the
/// `0.0 * d` terms those contribute never changes a finite accumulator.
#[test]
fn dsd_and_dds_equal_the_dense_gemm_bit_for_bit() {
    let _guard = counter_lock();
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
        for &(op_s, op_d) in &COMBOS {
            let inner = if op_s == Trans::N { cols } else { rows };
            let d = match op_d {
                Trans::N => lcg_matrix(inner, width, 78),
                Trans::T => lcg_matrix(width, inner, 78),
            };
            assert_eq!(
                bits(ops::try_dsd_op(&s, op_s, &d, op_d).unwrap().as_slice()),
                dense_product(&sd, op_s, &d, op_d),
                "{what}: dsd ({op_s:?}, {op_d:?})"
            );
            let inner = if op_s == Trans::N { rows } else { cols };
            let d = match op_d {
                Trans::N => lcg_matrix(width, inner, 79),
                Trans::T => lcg_matrix(inner, width, 79),
            };
            assert_eq!(
                bits(ops::try_dds_op(&d, op_d, &s, op_s).unwrap().as_slice()),
                dense_product(&d, op_d, &sd, op_s),
                "{what}: dds ({op_d:?}, {op_s:?})"
            );
        }
    }
}

/// On the block-diagonal topology an MoE layer produces, a product is one
/// kernel call per expert per band — `kernel.calls` counts rectangles,
/// not the 1,024 blocks.
#[test]
fn moe_products_issue_one_kernel_call_per_expert_per_band() {
    let _guard = counter_lock();
    let experts = 8;
    let topo = Topology::for_moe(&[64; 8], 512, BlockSize::new(16).expect("nonzero"))
        .expect("block-aligned");
    assert_eq!(topo.nnz_blocks(), 1024);
    let (rows, cols) = topo.shape();
    let x = lcg_matrix(rows, 128, 1);
    let w1 = lcg_matrix(128, cols, 2);
    let w2 = lcg_matrix(cols, 128, 3);
    // Every test in this binary holds `counter_lock` around its products,
    // so the counter moves only for the calls below.
    let calls = telemetry::counter("kernel.calls");
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
