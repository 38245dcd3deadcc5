//! Cross-crate integration tests: the dMoE layer (megablocks-core) must
//! equal the hand-assembled Figure 6 pipeline built from the router,
//! permutation and block-sparse kernels (megablocks-sparse).

use megablocks::core::{
    load_balancing_loss, padded_gather, padded_scatter, DroplessMoe, MoeConfig, PermuteInfo,
};
use megablocks::sparse::{ops, Topology};
use megablocks::tensor::init::{normal, seeded_rng};
use megablocks::tensor::ops::gelu_scalar;
use megablocks::tensor::Matrix;

fn cfg() -> MoeConfig {
    MoeConfig::new(12, 16, 4).with_block_size(4)
}

#[test]
fn dmoe_forward_equals_figure6_pipeline() {
    let mut rng = seeded_rng(11);
    let layer = DroplessMoe::new(cfg(), &mut rng);
    let x = normal(21, 12, 1.0, &mut rng);

    // The layer's answer.
    let out = layer.forward(&x);

    // Hand-assembled Figure 6: (1) route, (2) topology, (3) gather,
    // (4) SDD -> gelu -> DSD, (5) scatter * weights.
    let routing = layer.router().forward(&x);
    let permute = PermuteInfo::new(&routing, 4, layer.config().block_size);
    let topology = Topology::for_moe(
        permute.padded_tokens_per_expert(),
        layer.config().ffn_hidden_size,
        layer.config().block_size,
    )
    .expect("padded counts are aligned");
    let xg = padded_gather(&x, &permute);
    let h = ops::sdd(&xg, layer.w1().value(), &topology).map(gelu_scalar);
    let y = ops::dsd(&h, layer.w2().value());
    let manual = padded_scatter(&y, &permute, &routing.weights);

    assert!(
        out.output.approx_eq(&manual, 1e-5),
        "layer and pipeline disagree by {}",
        out.output.max_abs_diff(&manual)
    );

    // Stats agree with the routing histogram and the loss helper.
    assert_eq!(out.stats.tokens_per_expert, routing.tokens_per_expert());
    let lb = load_balancing_loss(&routing, layer.config().load_balance_weight);
    assert!((out.stats.load_balancing_loss - lb.loss).abs() < 1e-7);
}

#[test]
fn dmoe_output_is_invariant_to_block_size() {
    // The block size changes padding and kernel tiling but never values.
    let mut outs = Vec::new();
    for bs in [2usize, 4, 8, 16] {
        let mut rng = seeded_rng(5);
        let layer = DroplessMoe::new(MoeConfig::new(12, 16, 4).with_block_size(bs), &mut rng);
        let mut xrng = seeded_rng(6);
        let x = normal(19, 12, 1.0, &mut xrng);
        outs.push(layer.forward(&x).output);
    }
    for pair in outs.windows(2) {
        assert!(
            pair[0].approx_eq(&pair[1], 1e-4),
            "block size changed the math: diff {}",
            pair[0].max_abs_diff(&pair[1])
        );
    }
}

#[test]
fn batched_infer_equals_solo_infers_bitwise() {
    // The serving engine's guarantee: a request's rows do not depend on
    // what it was batched with. Each side of the stack lands its partial
    // blocks elsewhere than the batch does, so every expert product runs
    // at a different `m` solo and batched.
    let mut rng = seeded_rng(9);
    let layer = DroplessMoe::new(cfg(), &mut rng);
    for (rows_a, rows_b) in [(1, 1), (1, 7), (3, 6), (5, 2), (4, 13), (9, 16)] {
        let a = normal(rows_a, 12, 1.0, &mut rng);
        let b = normal(rows_b, 12, 1.0, &mut rng);
        let stacked = Matrix::from_fn(rows_a + rows_b, 12, |i, j| {
            if i < rows_a {
                a[(i, j)]
            } else {
                b[(i - rows_a, j)]
            }
        });
        let batched = layer.infer(&stacked).expect("no ambient context");
        let solo_a = layer.infer(&a).expect("no ambient context");
        let solo_b = layer.infer(&b).expect("no ambient context");
        let bits = |m: &[f32]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let solo = [solo_a.as_slice(), solo_b.as_slice()].concat();
        assert_eq!(
            bits(batched.as_slice()),
            bits(&solo),
            "{rows_a} + {rows_b} rows"
        );
    }
}

#[test]
fn dmoe_tokens_are_permutation_equivariant() {
    // Reordering input tokens reorders outputs identically (routing is
    // per-token): the permutation machinery must not leak position.
    let mut rng = seeded_rng(7);
    let layer = DroplessMoe::new(cfg(), &mut rng);
    let x = normal(16, 12, 1.0, &mut rng);
    let base = layer.forward(&x).output;

    let perm: Vec<usize> = (0..16).rev().collect();
    let xp = Matrix::from_fn(16, 12, |i, j| x[(perm[i], j)]);
    let outp = layer.forward(&xp).output;
    let expect = Matrix::from_fn(16, 12, |i, j| base[(perm[i], j)]);
    assert!(
        outp.approx_eq(&expect, 1e-4),
        "permutation equivariance violated: diff {}",
        outp.max_abs_diff(&expect)
    );
}

#[test]
fn backward_through_full_block_is_finite_and_nonzero() {
    use megablocks::transformer::{Block, FfnKind};
    let mut rng = seeded_rng(8);
    let mut block = Block::new(12, 2, 16, &FfnKind::Dropless(cfg()), &mut rng);
    let x = normal(8, 12, 1.0, &mut rng);
    let (y, cache) = block.forward(&x, 2, 4);
    assert_eq!(y.shape(), (8, 12));
    let dy = normal(8, 12, 0.5, &mut rng);
    let dx = block.backward(&cache, &dy);
    assert!(dx.as_slice().iter().all(|v| v.is_finite()));
    assert!(dx.frobenius_norm() > 0.0);
}
