//! Parity of the dense entry points with the reference product.
//!
//! [`kernel::scalar`] defines every product's bits: per output element,
//! one `f32` accumulator filled in ascending-`k` order with `alpha`
//! applied once at the end. These properties pin [`gemm`] and
//! [`block_gemm`] to it across every transpose combination, degenerate
//! shapes (`k = 0`, `1x1`), dimensions that do not divide any blocking
//! constant, and worker counts 1/2/8 — if the tiled routine reassociates
//! a single addition, these tests name the first differing element.

use megablocks_exec::cancel::{self, CancelToken, Ctx};
use megablocks_exec::{scoped_parallelism, workspace};
use megablocks_tensor::{block_gemm, gemm, kernel, Matrix, OutView, PanelView, Trans};
use proptest::prelude::*;

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

/// A whole matrix as a view of its logical operand under `op`.
fn view(x: &Matrix, op: Trans) -> PanelView<'_> {
    match op {
        Trans::N => PanelView::new(x.as_slice(), x.cols(), 1),
        Trans::T => PanelView::new(x.as_slice(), 1, x.cols()),
    }
}

/// What [`gemm`] must compute: its `beta` step, then [`kernel::scalar`]
/// over whole-matrix views.
fn reference_gemm(
    alpha: f32,
    a: &Matrix,
    op_a: Trans,
    b: &Matrix,
    op_b: Trans,
    beta: f32,
    c: &mut Matrix,
) {
    if beta == 0.0 {
        c.fill_zero();
    } else if beta != 1.0 {
        c.scale(beta);
    }
    let (m, n) = c.shape();
    let k = if op_a == Trans::N { a.cols() } else { a.rows() };
    let out = OutView::new(c.as_mut_slice(), n);
    kernel::scalar(m, n, k, alpha, view(a, op_a), view(b, op_b), out);
}

type Gemm = fn(f32, &Matrix, Trans, &Matrix, Trans, f32, &mut Matrix);

/// One full product (all four transpose combos) through `product`,
/// returning the bit patterns of every output.
fn gemm_all_combos(
    product: Gemm,
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
            product(alpha, &a, op_a, &b, op_b, beta, &mut c);
            bits(&c)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `gemm` and the reference agree bit-for-bit on every transpose
    /// combination, including `k = 0` and non-divisible dimensions.
    #[test]
    fn tiled_matches_scalar_bitwise(
        m in 1usize..40,
        n in 1usize..40,
        k in 0usize..40,
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        seed in 0u64..1000,
    ) {
        let want = gemm_all_combos(reference_gemm, m, n, k, alpha, beta, seed);
        prop_assert_eq!(gemm_all_combos(gemm, m, n, k, alpha, beta, seed), want);
    }

    /// Worker count is invisible: the same product on 1, 2 and 8
    /// workers yields the reference's bits.
    #[test]
    fn worker_count_is_bit_invisible(seed in 0u64..200) {
        let want = gemm_all_combos(reference_gemm, 70, 65, 48, 1.0, 0.0, seed);
        for threads in [1usize, 2, 8] {
            let got = scoped_parallelism(threads, || {
                gemm_all_combos(gemm, 70, 65, 48, 1.0, 0.0, seed)
            });
            prop_assert_eq!(&got, &want, "{} workers", threads);
        }
    }
}

/// Deterministic edge shapes straddling the tiled routine's blocking
/// constants, the small-product threshold and the few-row switch.
#[test]
fn edge_shapes_are_bit_identical() {
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
        (1, 200, 64),  // one row: 64-column strips and a packed tail
        (2, 65, 300),  // two rows, one past a 32-column strip, k > KC
        (3, 40, 40),   // three rows, a partial strip
    ];
    for &(m, n, k) in &shapes {
        let want = gemm_all_combos(reference_gemm, m, n, k, 1.25, 1.0, 99);
        let got = gemm_all_combos(gemm, m, n, k, 1.25, 1.0, 99);
        assert_eq!(got, want, "m={m} n={n} k={k}");
    }
}

/// `block_gemm` itself gives the reference's bits on strided
/// (transposed) operand views, not just the matrix entry points.
#[test]
fn block_gemm_strided_views_are_backend_invariant() {
    let (m, n, k) = (33, 41, 67);
    let a = lcg_matrix(k, m, 7); // stored k x m, viewed as A^T
    let b = lcg_matrix(n, k, 8); // stored n x k, viewed as B^T
    let run = |product: fn(usize, usize, usize, f32, PanelView, PanelView, OutView)| {
        let mut out = vec![0.5f32; m * n];
        product(
            m,
            n,
            k,
            0.75,
            PanelView::new(a.as_slice(), 1, m),
            PanelView::new(b.as_slice(), 1, k),
            OutView::new(&mut out, n),
        );
        out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
    };
    assert_eq!(run(block_gemm), run(kernel::scalar));
}

/// A product of one to three rows under an entered, already-tripped
/// context writes nothing and shelves again every workspace buffer it
/// took (one per miss on a cleared arena) — with B read in place and
/// with B transposed (packed strips) — while the same call outside the
/// context does write.
#[test]
fn a_cancelled_few_row_product_writes_nothing_and_gives_its_buffers_back() {
    let token = CancelToken::new();
    token.cancel();
    let tripped = Ctx::none().with_token(&token);
    let (n, k) = (512, 128);
    let a = lcg_matrix(3, k, 9);
    let b = lcg_matrix(k, n, 10);
    let b_t = lcg_matrix(n, k, 11);
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
}
