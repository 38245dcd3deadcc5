//! Golden bits of one block-sparse product.
//!
//! Every parity suite compares two backends on the same machine and the
//! same build, so none of them can see a build in which *both* drift —
//! a toolchain flag that contracts `a * b + c` into an FMA, a different
//! float environment. A constant can: the operands come from an LCG, so
//! the hash below depends on nothing but the arithmetic DESIGN §12 fixes
//! (one `f32` accumulator per element, ascending `k`, two roundings per
//! term). CI also runs this under `-C target-cpu=x86-64-v3`, where the
//! compiler *may* use FMA and 256-bit lanes everywhere. The dense twin,
//! asserted for every instantiation of the tiled routine, is
//! `golden_bits_of_a_dense_product` in `crates/tensor/src/kernel/tiled.rs`.

use megablocks::sparse::{ops, BlockSize, BlockSparseMatrix, Topology};
use megablocks::tensor::{configure_kernel_backend, KernelBackend, Matrix};

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
/// experts, on both backends. This file holds one test, so flipping the
/// process-wide backend races with nothing.
#[test]
fn golden_bits_of_a_dsd_over_an_moe_topology() {
    const GOLDEN: u64 = 0x44c2_e39b_79f4_baa5;
    let bs = BlockSize::new(16).expect("nonzero");
    let topo = Topology::for_moe(&[32, 0, 64, 16, 48, 16, 80, 32], 64, bs).expect("block-aligned");
    let (_, cols) = topo.shape();
    let s = BlockSparseMatrix::from_raw(&topo, lcg_fill(topo.nnz_blocks() * 16 * 16, 41))
        .expect("one value per stored element");
    let d = Matrix::from_vec(cols, 40, lcg_fill(cols * 40, 42)).expect("cols x 40 values");
    for backend in [KernelBackend::Scalar, KernelBackend::Tiled] {
        let previous = configure_kernel_backend(backend);
        let y = ops::dsd(&s, &d);
        configure_kernel_backend(previous);
        assert_eq!(
            hash_bits(y.as_slice()),
            GOLDEN,
            "{}: {:#018x}",
            backend.name(),
            hash_bits(y.as_slice())
        );
    }
}
