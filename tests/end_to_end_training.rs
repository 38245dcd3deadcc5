//! End-to-end integration: full Transformer-MoE training on the synthetic
//! Pile through the public facade API.

use std::path::Path;

use megablocks::core::{CapacityFactor, MoeConfig};
use megablocks::data::{PileConfig, SyntheticPile};
use megablocks::tensor::init::seeded_rng;
use megablocks::transformer::{
    FfnKind, ResilienceConfig, Trainer, TrainerConfig, TransformerConfig, TransformerLm,
};

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
    let logs = t.train(&train, 50).expect("no faults");
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
        t.train(&train, 12).expect("no faults");
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
        t.train(&train, 10).expect("no faults");
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
    t.train(&train, 30).expect("no faults");
    let after = t.evaluate(&valid, 4).loss;
    assert!(after < before, "dense baseline failed to learn");
}

/// Trains a toy LM with `ffn` for six steps and evaluates it. With `dir`,
/// the run checkpoints after three steps and a fresh trainer resumes from
/// the directory for the rest, as a restarted process would.
fn six_steps(ffn: &FfnKind, dir: Option<&Path>) -> f32 {
    let (train, valid) = pile().split(0.9);
    let fresh = || {
        let resilience = ResilienceConfig {
            checkpoint_dir: dir.map(Path::to_path_buf),
            ..ResilienceConfig::default()
        };
        Trainer::new(model(ffn.clone(), 6), trainer_cfg(6)).with_resilience(resilience)
    };
    let mut t = fresh();
    if dir.is_some() {
        t.train(&train, 3).expect("no faults");
        t.checkpoint_now();
        t = fresh();
        assert_eq!(t.resume_latest(), Some(3));
    }
    let rest = 6 - t.step_count();
    t.train(&train, rest).expect("no faults");
    t.evaluate(&valid, 4).loss
}

#[test]
fn eval_loss_is_pinned_by_bits_straight_and_across_a_resume() {
    // Read off a straight run before the recovery policy moved into
    // `Trainer` (dense, dMoE) and before the three MoE layers became one
    // generic layer (dropping, expert choice); any change to what a step
    // computes moves them.
    let moe = MoeConfig::new(32, 64, 4).with_block_size(8);
    let pins = [
        ("dense", FfnKind::Dense, 0x4080_b423_u32),
        ("dMoE", FfnKind::Dropless(moe.clone()), 0x4081_068a),
        (
            "dropping-cf1",
            FfnKind::Dropping(moe.clone().with_capacity(CapacityFactor::Fixed(1.0))),
            0x4081_1ba0,
        ),
        ("expert-choice", FfnKind::ExpertChoice(moe), 0x4080_f5a6),
    ];
    for (name, ffn, bits) in pins {
        let straight = six_steps(&ffn, None);
        assert_eq!(straight.to_bits(), bits, "{name}: straight run {straight}");
        let dir = std::env::temp_dir().join(format!("mbrs-e2e-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let resumed = six_steps(&ffn, Some(&dir));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(resumed.to_bits(), bits, "{name}: resumed run {resumed}");
    }
}
