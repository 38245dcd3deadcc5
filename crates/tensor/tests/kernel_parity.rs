//! Backend-parity properties for the kernel dispatch layer.
//!
//! The [`GemmMicrokernel`] contract promises that every backend produces
//! *bit-identical* outputs: per output element, one `f32` accumulator
//! filled in ascending-`k` order with `alpha` applied once at the end.
//! These properties pin that promise on the public dense entry points
//! across every transpose combination, degenerate shapes (`k = 0`, `1x1`),
//! dimensions that do not divide any blocking constant, and worker counts
//! 1/2/8 — if a future backend (SIMD, device offload) reassociates a
//! single addition, these tests name the first differing element.
//!
//! The kernel backend registry is process-global, so each test holds a
//! lock while it flips backends. The lock is about test hygiene, not
//! correctness: a concurrent flip could not change any output precisely
//! because the backends are bit-identical.

use std::sync::{Mutex, MutexGuard};

use megablocks_exec::cancel::{self, CancelToken, Ctx};
use megablocks_exec::{scoped_parallelism, workspace};
use megablocks_tensor::{
    block_gemm, configure_kernel_backend, gemm, KernelBackend, Matrix, OutView, PanelView, Trans,
};
use proptest::prelude::*;

fn backend_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` with the given backend selected, restoring the previous one.
fn with_backend<R>(backend: KernelBackend, f: impl FnOnce() -> R) -> R {
    let prev = configure_kernel_backend(backend);
    let out = f();
    configure_kernel_backend(prev);
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
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

const COMBOS: [(Trans, Trans); 4] = [
    (Trans::N, Trans::N),
    (Trans::N, Trans::T),
    (Trans::T, Trans::N),
    (Trans::T, Trans::T),
];

/// One full gemm (all four transpose combos) under the given backend,
/// returning the bit patterns of every output.
fn gemm_all_combos(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    beta: f32,
    seed: u64,
) -> Vec<Vec<u32>> {
    COMBOS
        .iter()
        .map(|&(op_a, op_b)| {
            let a = match op_a {
                Trans::N => lcg_matrix(m, k, seed),
                Trans::T => lcg_matrix(k, m, seed),
            };
            let b = match op_b {
                Trans::N => lcg_matrix(k, n, seed ^ 0xABCD),
                Trans::T => lcg_matrix(n, k, seed ^ 0xABCD),
            };
            let mut c = lcg_matrix(m, n, seed ^ 0x5A5A);
            gemm(alpha, &a, op_a, &b, op_b, beta, &mut c);
            bits(&c)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tiled and scalar agree bit-for-bit on every transpose combination,
    /// including `k = 0` and non-divisible dimensions.
    #[test]
    fn tiled_matches_scalar_bitwise(
        m in 1usize..40,
        n in 1usize..40,
        k in 0usize..40,
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        seed in 0u64..1000,
    ) {
        let _guard = backend_lock();
        let scalar = with_backend(KernelBackend::Scalar, || gemm_all_combos(m, n, k, alpha, beta, seed));
        let tiled = with_backend(KernelBackend::Tiled, || gemm_all_combos(m, n, k, alpha, beta, seed));
        prop_assert_eq!(scalar, tiled);
    }

    /// Worker count is invisible: with either backend, running the same
    /// product on 1, 2, and 8 workers yields the same bits.
    #[test]
    fn worker_count_is_bit_invisible(seed in 0u64..200) {
        let _guard = backend_lock();
        for backend in [KernelBackend::Scalar, KernelBackend::Tiled] {
            let runs: Vec<Vec<Vec<u32>>> = [1usize, 2, 8]
                .iter()
                .map(|&threads| {
                    scoped_parallelism(threads, || {
                        with_backend(backend, || gemm_all_combos(70, 65, 48, 1.0, 0.0, seed))
                    })
                })
                .collect();
            prop_assert_eq!(&runs[0], &runs[1], "1 vs 2 workers ({})", backend.name());
            prop_assert_eq!(&runs[0], &runs[2], "1 vs 8 workers ({})", backend.name());
        }
    }
}

/// Deterministic edge shapes straddling the tiled backend's blocking
/// constants and the small-product delegation threshold.
#[test]
fn edge_shapes_are_bit_identical() {
    let _guard = backend_lock();
    let shapes = [
        (1usize, 1usize, 0usize),
        (1, 1, 1),
        (4, 8, 3),     // exactly one 4x8 register tile
        (4, 16, 3),    // exactly one 4x16 register tile
        (5, 9, 257),   // one past MR/NR (4x8), one past KC
        (5, 17, 257),  // the same for 4x16
        (64, 128, 64), // exact cache blocks
        (69, 145, 300),
        (150, 70, 96), // crosses the scalar-delegation threshold
    ];
    for &(m, n, k) in &shapes {
        let scalar = with_backend(KernelBackend::Scalar, || {
            gemm_all_combos(m, n, k, 1.25, 1.0, 99)
        });
        let tiled = with_backend(KernelBackend::Tiled, || {
            gemm_all_combos(m, n, k, 1.25, 1.0, 99)
        });
        assert_eq!(scalar, tiled, "m={m} n={n} k={k}");
    }
}

/// `block_gemm` itself honors the contract for strided (transposed)
/// operand views, not just the matrix entry points.
#[test]
fn block_gemm_strided_views_are_backend_invariant() {
    let _guard = backend_lock();
    let (m, n, k) = (33, 41, 67);
    let a = lcg_matrix(k, m, 7); // stored k x m, viewed as A^T
    let b = lcg_matrix(n, k, 8); // stored n x k, viewed as B^T
    let run = |backend| {
        with_backend(backend, || {
            let mut out = vec![0.5f32; m * n];
            block_gemm(
                m,
                n,
                k,
                0.75,
                PanelView::new(a.as_slice(), 1, m),
                PanelView::new(b.as_slice(), 1, k),
                OutView::new(&mut out, n),
            );
            out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        })
    };
    assert_eq!(run(KernelBackend::Scalar), run(KernelBackend::Tiled));
}

/// A product of one to three rows under an entered, already-tripped
/// context writes nothing and shelves again every workspace buffer it
/// took (one per miss on a cleared arena) — with B read in place and
/// with B transposed (packed strips) — while the same call outside the
/// context does write.
#[test]
fn a_cancelled_few_row_product_writes_nothing_and_gives_its_buffers_back() {
    let _guard = backend_lock();
    let token = CancelToken::new();
    token.cancel();
    let tripped = Ctx::none().with_token(&token);
    let (n, k) = (512, 128);
    let a = lcg_matrix(3, k, 9);
    let b = lcg_matrix(k, n, 10);
    let b_t = lcg_matrix(n, k, 11);
    with_backend(KernelBackend::Tiled, || {
        for m in 1..=3 {
            let views = [
                ("in place", PanelView::new(b.as_slice(), n, 1)),
                ("transposed", PanelView::new(b_t.as_slice(), 1, k)),
            ];
            for (layout, bv) in views {
                let av = PanelView::new(a.as_slice(), k, 1);
                let init = vec![0.25f32; m * n];
                let mut out = init.clone();
                workspace::clear();
                let start = workspace::stats();
                {
                    let _scope = cancel::enter(&tripped);
                    block_gemm(m, n, k, 1.0, av, bv, OutView::new(&mut out, n));
                }
                let end = workspace::stats();
                let what = format!("m={m} {layout}");
                assert!(end.misses > start.misses, "{what}: took no buffer");
                assert_eq!(
                    end.held_buffers as u64,
                    end.misses - start.misses,
                    "{what}: a buffer taken from the arena did not come back"
                );
                assert!(
                    out.iter()
                        .zip(&init)
                        .all(|(o, i)| o.to_bits() == i.to_bits()),
                    "{what}: a cancelled product wrote its output"
                );
                block_gemm(m, n, k, 1.0, av, bv, OutView::new(&mut out, n));
                assert_ne!(
                    out, init,
                    "{what}: the product outside the context wrote nothing"
                );
            }
        }
    });
}
