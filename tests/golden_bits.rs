//! Golden bits of one block-sparse product.
//!
//! Every parity suite compares a product with the reference on the same
//! machine and the same build, so none of them can see a build in which
//! *both* drift — a toolchain flag that contracts `a * b + c` into an
//! FMA, a different float environment. A constant can: the operands come
//! from an LCG, so
//! the hash below depends on nothing but the arithmetic DESIGN §12 fixes
//! (one `f32` accumulator per element, ascending `k`, two roundings per
//! term). CI also runs this under `-C target-cpu=x86-64-v3`, where the
//! compiler *may* use FMA and 256-bit lanes everywhere. The dense twin,
//! asserted for every instantiation of the tiled routine, is
//! `golden_bits_of_a_dense_product` in `crates/tensor/src/kernel/tiled.rs`.

use megablocks::sparse::{ops, BlockSize, BlockSparseMatrix, Topology};
use megablocks::tensor::{kernel, Matrix, OutView, PanelView};

fn lcg_fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// FNV-1a over the outputs' bit patterns.
fn hash_bits(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `S x D` over an 8-expert `Topology::for_moe` with uneven (one empty)
/// experts, through `ops::dsd` and through `kernel::scalar` over
/// `to_dense()`: both hash to the constant. A constant cannot see a
/// contract that is wrong from the start; the `f64` product can: the
/// `f32` result's largest relative error (read 2.91e-7) stays under
/// `MAX_REL_ERR`.
#[test]
fn golden_bits_of_a_dsd_over_an_moe_topology() {
    const GOLDEN: u64 = 0x44c2_e39b_79f4_baa5;
    const MAX_REL_ERR: f64 = 3e-7;
    let bs = BlockSize::new(16).expect("nonzero");
    let topo = Topology::for_moe(&[32, 0, 64, 16, 48, 16, 80, 32], 64, bs).expect("block-aligned");
    let (rows, cols) = topo.shape();
    let s = BlockSparseMatrix::from_raw(&topo, lcg_fill(topo.nnz_blocks() * 16 * 16, 41))
        .expect("one value per stored element");
    let d = Matrix::from_vec(cols, 40, lcg_fill(cols * 40, 42)).expect("cols x 40 values");
    let y = ops::dsd(&s, &d);
    let hash = hash_bits(y.as_slice());
    assert_eq!(hash, GOLDEN, "ops::dsd: {hash:#018x}");

    let sd = s.to_dense();
    let mut reference = vec![0.0f32; rows * 40];
    kernel::scalar(
        rows,
        40,
        cols,
        1.0,
        PanelView::new(sd.as_slice(), cols, 1),
        PanelView::new(d.as_slice(), 40, 1),
        OutView::new(&mut reference, 40),
    );
    let hash = hash_bits(&reference);
    assert_eq!(hash, GOLDEN, "kernel::scalar: {hash:#018x}");

    let err = max_relative_error(y.as_slice(), sd.as_slice(), d.as_slice(), cols);
    assert!(err < MAX_REL_ERR, "relative error {err:.3e} against f64");
}

/// The largest error of `got` against `a * b` computed in `f64` (`a` is
/// `m x k`, `b` is `k x n`, row-major, `m` and `n` read off the lengths),
/// each element's error taken relative to `Σ_p |a_ip * b_pj|`: the scale
/// an `f32` accumulation's rounding error grows with, so an element that
/// cancels to near zero reads its real error, not a huge quotient.
fn max_relative_error(got: &[f32], a: &[f32], b: &[f32], k: usize) -> f64 {
    let (m, n) = (a.len() / k, b.len() / k);
    let mut worst = 0.0f64;
    for i in 0..m {
        for j in 0..n {
            let (mut sum, mut size) = (0.0f64, 0.0f64);
            for p in 0..k {
                let term = f64::from(a[i * k + p]) * f64::from(b[p * n + j]);
                sum += term;
                size += term.abs();
            }
            if size > 0.0 {
                worst = worst.max((f64::from(got[i * n + j]) - sum).abs() / size);
            }
        }
    }
    worst
}
