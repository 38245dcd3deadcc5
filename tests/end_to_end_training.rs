//! End-to-end integration: full Transformer-MoE training on the synthetic
//! Pile through the public facade API.

use megablocks::core::{CapacityFactor, MoeConfig};
use megablocks::data::{PileConfig, SyntheticPile};
use megablocks::tensor::init::seeded_rng;
use megablocks::transformer::{FfnKind, Trainer, TrainerConfig, TransformerConfig, TransformerLm};

fn pile() -> SyntheticPile {
    SyntheticPile::generate(
        &PileConfig {
            vocab_size: 64,
            num_clusters: 4,
            num_tokens: 8_000,
            mean_doc_len: 32,
            branching: 2,
            noise: 0.05,
        },
        3,
    )
}

fn model(ffn: FfnKind, seed: u64) -> TransformerLm {
    let mut cfg = TransformerConfig::tiny(ffn);
    cfg.seq_len = 16;
    let mut rng = seeded_rng(seed);
    TransformerLm::new(cfg, &mut rng)
}

fn trainer_cfg(steps: usize) -> TrainerConfig {
    TrainerConfig {
        batch_size: 8,
        micro_batch_size: 4,
        seq_len: 16,
        lr_max: 2e-3,
        warmup_steps: 5,
        total_steps: steps,
        clip: 1.0,
        seed: 21,
    }
}

#[test]
fn dmoe_lm_learns_the_synthetic_pile() {
    let moe = MoeConfig::new(32, 64, 4).with_block_size(8);
    let p = pile();
    let (train, valid) = p.split(0.9);
    let mut t = Trainer::new(model(FfnKind::Dropless(moe), 1), trainer_cfg(50));
    let before = t.evaluate(&valid, 4).loss;
    let logs = t.train(&train, 50);
    let after = t.evaluate(&valid, 4).loss;
    assert!(
        after < before - 0.3,
        "dMoE LM failed to learn: {before} -> {after}"
    );
    assert!(
        logs.iter().all(|l| l.dropped_tokens == 0),
        "dMoE dropped tokens"
    );
    assert!(logs.iter().all(|l| l.lb_loss > 0.0));
}

#[test]
fn training_is_deterministic_for_a_fixed_seed() {
    let moe = MoeConfig::new(32, 64, 4).with_block_size(8);
    let p = pile();
    let (train, valid) = p.split(0.9);
    let run = || {
        let mut t = Trainer::new(model(FfnKind::Dropless(moe.clone()), 2), trainer_cfg(12));
        t.train(&train, 12);
        t.evaluate(&valid, 4).loss
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give bit-identical training");
}

#[test]
fn dropping_and_dropless_diverge_only_through_drops() {
    // With dynamic capacity (no drops) the two formulations are the same
    // function; training them identically must produce identical losses.
    let p = pile();
    let (train, valid) = p.split(0.9);
    let moe = MoeConfig::new(32, 64, 4).with_block_size(8);
    let run = |ffn: FfnKind| {
        let mut t = Trainer::new(model(ffn, 4), trainer_cfg(10));
        t.train(&train, 10);
        t.evaluate(&valid, 4).loss
    };
    let dropless = run(FfnKind::Dropless(moe.clone()));
    let dynamic = run(FfnKind::Dropping(
        moe.clone().with_capacity(CapacityFactor::Dynamic),
    ));
    assert_eq!(
        dropless, dynamic,
        "one expert pipeline: with no drops the two layers are the same kernels over the same rows"
    );

    // With a tight capacity factor, drops change the function.
    let dropping = run(FfnKind::Dropping(
        moe.with_capacity(CapacityFactor::Fixed(0.5)),
    ));
    assert!(
        (dropless - dropping).abs() > 1e-4,
        "capacity 0.5 should alter training"
    );
}

#[test]
fn dense_and_moe_share_the_training_stack() {
    let p = pile();
    let (train, valid) = p.split(0.9);
    let mut t = Trainer::new(model(FfnKind::Dense, 5), trainer_cfg(30));
    let before = t.evaluate(&valid, 4).loss;
    t.train(&train, 30);
    let after = t.evaluate(&valid, 4).loss;
    assert!(after < before, "dense baseline failed to learn");
}
