//! Integration tests for the beyond-the-paper extensions through the
//! facade API: expert-choice routing.

use megablocks::core::{load_imbalance, DroplessMoe, ExpertChoiceMoe, MoeConfig};
use megablocks::tensor::init::{normal, seeded_rng};

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
