//! Determinism and concurrency guarantees of the execution runtime.
//!
//! The band partition is the only parallelism-visible variable in the
//! kernels: each band owns a disjoint output range and performs its
//! reductions in a fixed order, so the *number* of bands must not change
//! a single bit of any result. These tests pin that property across
//! worker counts 1/2/8 for every sparse product and the dense gemm, and
//! then hammer the shared pool from concurrent OS threads to show
//! launches from different submitters never corrupt each other.

use std::panic::{catch_unwind, AssertUnwindSafe};

use megablocks_exec::{
    cancel, scoped_parallelism, CancelKind, CancelToken, Ctx, Deadline, ExecError,
};
use megablocks_sparse::{ops, BlockSize, Topology};
use megablocks_tensor::{matmul, Matrix, Trans};

mod common;
use common::grouping_edge_topologies;

/// An irregular MoE-style topology: imbalanced expert loads so bands do
/// not align with expert boundaries.
fn moe_topology() -> Topology {
    let bs = BlockSize::new(8).expect("nonzero");
    Topology::for_moe(&[64, 8, 0, 40, 16], 32, bs).expect("block-aligned counts")
}

fn inputs(topo: &Topology, k: usize) -> (Matrix, Matrix) {
    let (rows, cols) = topo.shape();
    let a = Matrix::from_fn(rows, k, |i, j| ((i * 31 + j * 7) as f32).sin());
    let b = Matrix::from_fn(k, cols, |i, j| ((i * 13 + j * 5) as f32).cos());
    (a, b)
}

/// Runs every kernel under test once, on the MoE topology and on each
/// grouping edge case (rectangles cut by band boundaries, empty block rows
/// inside a run, one-block topologies), and returns the raw output
/// buffers.
fn run_all_kernels() -> Vec<Vec<f32>> {
    let mut outputs = run_kernels_on(&moe_topology(), 24);
    for (_, topo) in grouping_edge_topologies(8) {
        // Enough inner dimension to clear the ops' PARALLEL_THRESHOLD, so
        // these small topologies are really banded at 2 and 8 workers.
        outputs.extend(run_kernels_on(&topo, (1 << 16) / topo.nnz() + 24));
    }
    outputs
}

fn run_kernels_on(topo: &Topology, k: usize) -> Vec<Vec<f32>> {
    let (a, b) = inputs(topo, k);
    let (rows, cols) = topo.shape();

    let s = ops::sdd(&a, &b, topo);
    let d = Matrix::from_fn(cols, k, |i, j| ((i * 3 + j * 11) as f32).sin());
    let dsd = ops::dsd(&s, &d);
    let dt = Matrix::from_fn(rows, k, |i, j| ((i * 17 + j) as f32).cos());
    let dst_d = ops::dst_d(&s, &dt);
    let lhs = Matrix::from_fn(k, rows, |i, j| ((i + j * 29) as f32).sin());
    let dds = ops::try_dds_op(&lhs, Trans::N, &s, Trans::N).expect("shapes agree");
    let gemm = matmul(&a, &b);

    let mut outputs = vec![
        s.as_slice().to_vec(),
        dsd.as_slice().to_vec(),
        dst_d.as_slice().to_vec(),
        dds.as_slice().to_vec(),
        gemm.as_slice().to_vec(),
    ];
    // Exercise the transpose-operand entry points too.
    let bt = Matrix::from_fn(cols, k, |i, j| ((i * 13 + j * 5) as f32).cos());
    outputs.push(ops::sdd_t(&a, &bt, topo).as_slice().to_vec());
    let wide = Matrix::from_fn(k, cols, |i, j| ((i * 9 + j * 2) as f32).sin());
    outputs.push(ops::dsd_t(&s, &wide).as_slice().to_vec());
    let tall = Matrix::from_fn(rows, k, |i, j| ((i * 5 + j * 3) as f32).cos());
    outputs.push(ops::ddt_s(&tall, &s).as_slice().to_vec());
    outputs
}

/// Bitwise equality, not approx: band count must be invisible.
fn assert_bit_identical(got: &[Vec<f32>], reference: &[Vec<f32>], what: &str) {
    assert_eq!(got.len(), reference.len());
    for (k, (g, r)) in got.iter().zip(reference).enumerate() {
        let g_bits: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
        let r_bits: Vec<u32> = r.iter().map(|v| v.to_bits()).collect();
        assert_eq!(g_bits, r_bits, "kernel #{k} diverged {what}");
    }
}

#[test]
fn outputs_are_bit_identical_across_worker_counts() {
    let reference = scoped_parallelism(1, run_all_kernels);
    for threads in [2usize, 8] {
        let got = scoped_parallelism(threads, run_all_kernels);
        assert_bit_identical(&got, &reference, &format!("at {threads} threads"));
    }
}

#[test]
fn moe_layer_shapes_are_deterministic_too() {
    // A second topology shape (block size 4, denser) through the same
    // sweep, to rule out tuning-specific luck in the first.
    let bs = BlockSize::new(4).expect("nonzero");
    let topo = Topology::for_moe(&[20, 4, 12], 16, bs).expect("block-aligned");
    let (rows, cols) = topo.shape();
    let a = Matrix::from_fn(rows, 10, |i, j| ((i * 7 + j * 19) as f32).sin());
    let b = Matrix::from_fn(10, cols, |i, j| ((i * 23 + j * 3) as f32).cos());
    let run = || {
        let s = ops::sdd(&a, &b, &topo);
        let y = ops::dsd(&s, &Matrix::eye(cols));
        (s.as_slice().to_vec(), y.as_slice().to_vec())
    };
    let reference = scoped_parallelism(1, run);
    for threads in [2usize, 8] {
        assert_eq!(scoped_parallelism(threads, run), reference, "{threads}");
    }
}

#[test]
fn ambient_contexts_are_bit_invisible_while_live_and_cancel_when_tripped() {
    // The products take no context argument: they launch under whatever
    // the calling thread entered. A live (never tripped) context must be
    // bit-invisible — the cancellation checks sit at band boundaries and
    // panel-loop edges, never inside a reduction — and a tripped one must
    // unwind with the `ExecError` of the kind that tripped it.
    let reference = scoped_parallelism(1, run_all_kernels);
    let token = CancelToken::new();
    let live = Ctx::none()
        .with_token(&token)
        .with_deadline(Deadline::after(std::time::Duration::from_secs(3600)));
    for threads in [1usize, 2, 8] {
        let _scope = cancel::enter(&live);
        let got = scoped_parallelism(threads, run_all_kernels);
        let what = format!("under a live context at {threads} threads");
        assert_bit_identical(&got, &reference, &what);
    }

    let topo = moe_topology();
    let (a, b) = inputs(&topo, 24);
    let s = ops::sdd(&a, &b, &topo);
    let d = Matrix::from_fn(topo.shape().1, 24, |i, j| ((i * 3 + j * 11) as f32).sin());
    let lhs = Matrix::from_fn(24, topo.shape().0, |i, j| ((i + j * 29) as f32).sin());
    token.cancel();
    let expired = Ctx::none().with_deadline(Deadline::after(std::time::Duration::ZERO));
    for (ctx, want) in [
        (&live, CancelKind::Cancelled),
        (&expired, CancelKind::DeadlineExceeded),
    ] {
        let _scope = cancel::enter(ctx);
        let aborted = |product: &dyn Fn()| {
            let payload = catch_unwind(AssertUnwindSafe(product)).expect_err("must unwind");
            *payload
                .downcast::<ExecError>()
                .expect("an ExecError payload")
        };
        let errors = [
            aborted(&|| drop(ops::try_sdd(&a, &b, &topo))),
            aborted(&|| drop(ops::try_dsd(&s, &d))),
            aborted(&|| drop(ops::try_dds_op(&lhs, Trans::N, &s, Trans::N))),
        ];
        for (error, op) in errors
            .into_iter()
            .zip(["sparse.sdd", "sparse.dsd", "sparse.dds"])
        {
            let expected = match want {
                CancelKind::Cancelled => ExecError::Cancelled { op },
                CancelKind::DeadlineExceeded => ExecError::DeadlineExceeded { op },
                CancelKind::Overloaded => unreachable!("no context here sheds"),
            };
            assert_eq!(error, expected);
        }
    }
}

#[test]
fn concurrent_submitters_share_the_pool_safely() {
    // Many OS threads drive full kernel chains through the one shared
    // pool at the same time; every result must match the single-band
    // reference exactly. This is the cross-submitter interference test:
    // queued bands from different launches interleave on the workers.
    let reference = scoped_parallelism(1, run_all_kernels);
    #[allow(
        clippy::disallowed_methods,
        reason = "the submitters are the OS threads under test"
    )]
    let results: Vec<Vec<Vec<f32>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8).map(|_| scope.spawn(run_all_kernels)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread panicked"))
            .collect()
    });
    for (t, got) in results.iter().enumerate() {
        assert_eq!(got, &reference, "submitter thread {t} saw corruption");
    }
}

#[test]
fn pooled_buffers_start_zeroed_after_reuse() {
    // Outputs come from the workspace arena, and each goes back when
    // dropped; a reused buffer must not leak its previous contents into
    // the next kernel's zero blocks.
    let bs = BlockSize::new(4).expect("nonzero");
    let topo = Topology::for_moe(&[8, 4], 8, bs).expect("block-aligned");
    let (rows, cols) = topo.shape();
    let a = Matrix::from_fn(rows, 6, |i, j| 1.0 + (i * 6 + j) as f32);
    let b = Matrix::full(6, cols, 1.0);
    for _ in 0..4 {
        let s = ops::sdd(&a, &b, &topo);
        let dense = s.to_dense();
        for i in 0..rows {
            for j in 0..cols {
                if topo.find(i / 4, j / 4).is_none() {
                    assert_eq!(dense[(i, j)], 0.0, "stale data at ({i},{j})");
                }
            }
        }
    }
}
