//! Row-exact products change no bit: rows past `rows_valid` leave the
//! arithmetic, not the result.
//!
//! All six products of a dMoE FFN over a topology that knows its real
//! rows — `Topology::for_moe(real counts)`, or a capacity layout narrowed
//! with `with_rows_valid` — equal, by `to_bits`, the same products over
//! the all-valid topology of the same layout on zero-padded operands,
//! which is what a padded layout computes. Single-banded and at two
//! workers.

use megablocks_exec::scoped_parallelism;
use megablocks_sparse::{ops, BlockSize, Topology};
use megablocks_tensor::Matrix;
use proptest::prelude::*;

/// Wide enough that the larger cases clear the ops' parallel threshold
/// and are really cut into two bands.
const HIDDEN: usize = 72;

/// Per-expert token counts around every block boundary.
fn counts(bs: usize) -> impl Strategy<Value = Vec<usize>> {
    let edge = proptest::sample::select(vec![0, 1, bs - 1, bs, bs + 1, 3 * bs + 5]);
    proptest::collection::vec(edge, 1..6)
}

fn values(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i * 31 + j * 17 + seed * 7) as f32).sin()
    })
}

/// Token-major operand for `topo`: nonzero in its valid rows, `+0.0` in
/// the padding, as `padded_gather` leaves it.
fn token_rows(topo: &Topology, cols: usize, seed: usize) -> Matrix {
    let bs = topo.block_size().get();
    let mut m = values(topo.shape().0, cols, seed);
    for (r, &valid) in topo.rows_valid().iter().enumerate() {
        for i in r * bs + valid..(r + 1) * bs {
            m.row_mut(i).fill(0.0);
        }
    }
    m
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Forward and backward of the expert MLP over `topo` (the GeLU left
/// out): SDD, DSD, SDD^T, DS^TD, DSD^T, DD^TS.
fn six_products(topo: &Topology, x: &Matrix, dy: &Matrix) -> [Vec<u32>; 6] {
    let ffn = topo.shape().1;
    let w1 = values(HIDDEN, ffn, 3);
    let w2 = values(ffn, HIDDEN, 4);
    let h = ops::sdd(x, &w1, topo);
    let y = ops::dsd(&h, &w2);
    let dh = ops::sdd_t(dy, &w2, topo);
    let dw2 = ops::dst_d(&h, dy);
    let dx = ops::dsd_t(&dh, &w1);
    let dw1 = ops::ddt_s(x, &dh);
    [
        bits(h.as_slice()),
        bits(y.as_slice()),
        bits(dh.as_slice()),
        bits(dw2.as_slice()),
        bits(dx.as_slice()),
        bits(dw1.as_slice()),
    ]
}

/// `real` and `padded` share a layout; `real` knows which rows exist.
fn assert_same_bits(real: &Topology, padded: &Topology) {
    assert_eq!(real.shape(), padded.shape());
    assert_eq!(real.nnz_blocks(), padded.nnz_blocks());
    let x = token_rows(real, HIDDEN, 1);
    let dy = token_rows(real, HIDDEN, 2);
    for workers in [1, 2] {
        scoped_parallelism(workers, || {
            let got = six_products(real, &x, &dy);
            let want = six_products(padded, &x, &dy);
            let names = ["sdd", "dsd", "sdd_t", "dst_d", "dsd_t", "ddt_s"];
            for ((name, got), want) in names.iter().zip(&got).zip(&want) {
                assert!(
                    got == want,
                    "{name} differs at {workers} workers, rows_valid {:?}",
                    real.rows_valid()
                );
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn real_counts_equal_padded_counts_over_zero_padded_operands(
        (bs, counts, slack) in proptest::sample::select(vec![4usize, 16])
            .prop_flat_map(|bs| (Just(bs), counts(bs), 0usize..3)),
    ) {
        let block = BlockSize::new(bs).expect("nonzero");
        let ffn = 2 * bs;
        let round_up = |c: &usize| c.div_ceil(bs) * bs;

        // The dropless layout: each expert padded to its next block.
        let padded: Vec<usize> = counts.iter().map(round_up).collect();
        let real = Topology::for_moe(&counts, ffn, block).expect("aligned ffn");
        assert_same_bits(&real, &Topology::for_moe(&padded, ffn, block).expect("aligned ffn"));

        // A capacity layout: every expert owns the same rows, `slack`
        // blocks more than the fullest needs, so tails are empty.
        let capacity = padded.iter().max().expect("one expert") + slack * bs;
        let uniform = Topology::for_moe(&vec![capacity; counts.len()], ffn, block)
            .expect("aligned ffn");
        let rows_valid = counts
            .iter()
            .flat_map(|&c| (0..capacity / bs).map(move |b| c.saturating_sub(b * bs).min(bs)))
            .collect();
        let narrowed = uniform.clone().with_rows_valid(rows_valid).expect("a prefix per expert");
        assert_same_bits(&narrowed, &uniform);
    }
}
