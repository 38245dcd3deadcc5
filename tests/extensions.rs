//! Integration tests for the beyond-the-paper extensions through the
//! facade API: variable-sized experts, expert-choice routing, Sinkhorn
//! routing, and the expert-parallel execution path.

use megablocks::core::{
    load_imbalance, try_expert_parallel_forward, DroplessMoe, ExpertChoiceMoe, MoeConfig, Router,
    SinkhornRouter, VariableDroplessMoe, VariableMoeConfig,
};
use megablocks::tensor::init::{normal, seeded_rng};

#[test]
fn variable_experts_integrate_with_expert_parallel_intuition() {
    // A variable layer with doubling widths: the concatenated weight
    // layout must match the config's offsets.
    let cfg = VariableMoeConfig::new(8, vec![4, 8, 16], 4);
    assert_eq!(cfg.inner_dim(), 28);
    assert_eq!(cfg.ffn_offset(0), 0);
    assert_eq!(cfg.ffn_offset(1), 4);
    assert_eq!(cfg.ffn_offset(2), 12);
    let mut rng = seeded_rng(1);
    let mut layer = VariableDroplessMoe::new(cfg, &mut rng);
    let x = normal(11, 8, 1.0, &mut rng);
    let out = layer.forward(&x);
    assert_eq!(out.output.shape(), (11, 8));
    let dx = layer.backward(&out.cache, &out.output.clone());
    assert!(dx.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn expert_choice_and_token_choice_route_differently() {
    let cfg = MoeConfig::new(8, 16, 4).with_block_size(4);
    let mut r1 = seeded_rng(2);
    let token_choice = DroplessMoe::new(cfg.clone(), &mut r1);
    let mut r2 = seeded_rng(2);
    let expert_choice = ExpertChoiceMoe::new(cfg, &mut r2);
    let mut rng = seeded_rng(3);
    let x = normal(32, 8, 1.0, &mut rng);

    let tc = token_choice.forward(&x);
    let ec = expert_choice.forward(&x);
    // Expert choice is perfectly balanced; token choice generally is not.
    let tc_imb = load_imbalance(&tc.stats.tokens_per_expert);
    let ec_imb = load_imbalance(&ec.stats.tokens_per_expert);
    assert!(
        (ec_imb - 1.0).abs() < 1e-9,
        "expert choice imbalance {ec_imb}"
    );
    assert!(tc_imb >= 1.0);
}

#[test]
fn sinkhorn_router_plugs_into_the_dmoe_pipeline() {
    // The Sinkhorn router emits the same Routing type as the learned
    // router; use it to drive permutation metadata directly.
    use megablocks::core::{padded_gather, padded_scatter, PermuteInfo};
    use megablocks::sparse::BlockSize;

    let mut rng = seeded_rng(4);
    let router = SinkhornRouter::new(8, 4, 8, 1.0, &mut rng);
    let x = normal(20, 8, 1.0, &mut rng);
    let routing = router.forward(&x);
    assert_eq!(routing.expert_indices.len(), 20);

    let info = PermuteInfo::new(&routing, 4, BlockSize::new(4).unwrap());
    let g = padded_gather(&x, &info);
    let back = padded_scatter(&g, &info, &[1.0; 20]);
    assert!(
        back.approx_eq(&x, 1e-6),
        "sinkhorn routing broke the permutation"
    );
}

#[test]
fn sinkhorn_balance_beats_greedy_on_equal_weights() {
    let hidden = 12;
    let experts = 6;
    let mut r1 = seeded_rng(5);
    let greedy = Router::new(hidden, experts, 1, &mut r1);
    let mut r2 = seeded_rng(5);
    let sink = SinkhornRouter::new(hidden, experts, 10, 0.7, &mut r2);
    let mut rng = seeded_rng(6);
    // Biased inputs provoke imbalance.
    let mut x = normal(240, hidden, 1.0, &mut rng);
    for i in 0..x.rows() {
        x.row_mut(i)[0] += 1.5;
    }
    let gi = load_imbalance(&greedy.forward(&x).tokens_per_expert());
    let si = load_imbalance(&sink.forward(&x).tokens_per_expert());
    assert!(si <= gi, "sinkhorn {si} vs greedy {gi}");
}

#[test]
fn expert_parallel_matches_reference_through_facade() {
    let mut rng = seeded_rng(7);
    let layer = DroplessMoe::new(MoeConfig::new(8, 16, 4).with_block_size(4), &mut rng);
    let x = normal(23, 8, 1.0, &mut rng);
    let reference = layer.forward(&x).output;
    let (out, stats, buffers) = try_expert_parallel_forward(&layer, &x, 2).unwrap();
    assert!(out.approx_eq(&reference, 1e-4));
    assert_eq!(stats.num_shards, 2);
    assert_eq!(buffers.shard_inputs.len(), 2);
}
