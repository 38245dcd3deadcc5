//! The dMoE's GeLU runs over the valid rows of each block only: the
//! padded rows of a forward cache's activations stay `+0.0` and the real
//! rows are `gelu(h_pre)` bit for bit, at per-expert token counts on both
//! sides of a block boundary and on an expert with no tokens at all.

use megablocks_core::{DroplessMoe, MoeConfig};
use megablocks_tensor::init::{normal, seeded_rng};
use megablocks_tensor::ops::gelu_scalar;
use megablocks_tensor::Matrix;

#[test]
fn padded_rows_stay_positive_zero_and_real_rows_are_gelu_bitwise() {
    let bs = 4;
    // Expert `e` receives `counts[e]` tokens: 0, 1, bs - 1, bs and bs + 1,
    // the empty expert in the middle.
    let counts = [1, bs + 1, 0, bs - 1, bs];
    let (hidden, ffn, experts) = (8, 2 * bs, counts.len());
    let mut rng = seeded_rng(11);
    let mut layer = DroplessMoe::new(
        MoeConfig::new(hidden, ffn, experts).with_block_size(bs),
        &mut rng,
    );
    // The router reads the first `experts` features as its logits, and a
    // token carries a one-hot there: the routing is exactly `counts`.
    *layer.params_mut()[0].value_mut() =
        Matrix::from_fn(hidden, experts, |i, e| if i == e { 1.0 } else { 0.0 });
    let owners: Vec<usize> = (0..bs + 1)
        .flat_map(|round| (0..experts).filter(move |&e| round < counts[e]))
        .collect();
    let noise = normal(owners.len(), hidden, 1.0, &mut rng);
    let x = Matrix::from_fn(owners.len(), hidden, |t, j| match j {
        j if j == owners[t] => 4.0,
        j if j < experts => 0.0,
        j => noise.row(t)[j],
    });

    let out = layer.forward(&x);
    assert_eq!(out.stats.tokens_per_expert, counts);
    let (h_pre, h_act) = out.cache.activations();
    let topology = h_act.topology();
    assert!(
        topology.rows_valid().iter().any(|&v| v < bs),
        "a partial block row"
    );
    let mut padded = 0;
    for slot in 0..topology.nnz_blocks() {
        let real = topology.rows_valid()[topology.row_indices()[slot]] * bs;
        for (i, (&act, &pre)) in h_act.block(slot).iter().zip(h_pre.block(slot)).enumerate() {
            if i < real {
                assert_eq!(
                    act.to_bits(),
                    gelu_scalar(pre).to_bits(),
                    "block {slot}, element {i}"
                );
            } else {
                assert_eq!(
                    (act.to_bits(), pre.to_bits()),
                    (0, 0),
                    "block {slot}, element {i}"
                );
                padded += 1;
            }
        }
    }
    // Two blocks per block row; the 1-, (bs - 1)- and (bs + 1)-token
    // experts each leave one partial block row.
    assert_eq!(padded, 2 * bs * ((bs - 1) + 1 + (bs - 1)));
}
