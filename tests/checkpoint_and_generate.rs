//! Integration: checkpoint a trained dMoE LM through the facade API and
//! verify restored models generate identically.

use megablocks::core::checkpoint::{encode, load_train_state, TrainState};
use megablocks::core::MoeConfig;
use megablocks::data::{PileConfig, SyntheticPile};
use megablocks::tensor::init::seeded_rng;
use megablocks::transformer::{FfnKind, Trainer, TrainerConfig, TransformerConfig, TransformerLm};

fn config() -> TransformerConfig {
    let mut cfg = TransformerConfig::tiny(FfnKind::Dropless(
        MoeConfig::new(32, 64, 4).with_block_size(8),
    ));
    cfg.seq_len = 16;
    cfg
}

#[test]
fn checkpoint_roundtrip_preserves_trained_model() {
    let pile = SyntheticPile::generate(
        &PileConfig {
            vocab_size: 64,
            num_clusters: 4,
            num_tokens: 6_000,
            mean_doc_len: 32,
            branching: 2,
            noise: 0.05,
        },
        1,
    );
    let (train, valid) = pile.split(0.9);

    let mut rng = seeded_rng(2);
    let model = TransformerLm::new(config(), &mut rng);
    let mut trainer = Trainer::new(
        model,
        TrainerConfig {
            batch_size: 8,
            micro_batch_size: 4,
            seq_len: 16,
            lr_max: 2e-3,
            warmup_steps: 3,
            total_steps: 15,
            clip: 1.0,
            seed: 3,
        },
    );
    trainer.train(&train, 15).expect("no faults");
    let trained_loss = trainer.evaluate(&valid, 4).loss;

    // Save.
    let buf = encode(&trainer.model_mut().params_mut(), &TrainState::default()).expect("save");

    // Restore into a fresh (differently initialized) model.
    let mut rng2 = seeded_rng(999);
    let mut fresh = TransformerLm::new(config(), &mut rng2);
    load_train_state(&mut fresh.params_mut(), buf.as_slice()).expect("load");

    // Identical evaluation loss...
    let batches = valid.sequential_batches(4, 16);
    let b = &batches[0];
    let a = trainer.model().eval_loss(&b.inputs, &b.targets, 4);
    let c = fresh.eval_loss(&b.inputs, &b.targets, 4);
    assert_eq!(a, c, "restored model must evaluate bit-identically");
    assert!(trained_loss.is_finite());

    // ...and identical generations.
    let prompt = vec![1usize, 2, 3];
    let g1 = trainer
        .model()
        .generate(&prompt, 8, Some(0.9), &mut seeded_rng(5));
    let g2 = fresh.generate(&prompt, 8, Some(0.9), &mut seeded_rng(5));
    assert_eq!(g1, g2);
}

#[test]
fn checkpoint_rejects_mismatched_transformer() {
    let mut rng = seeded_rng(4);
    let mut a = TransformerLm::new(config(), &mut rng);
    let buf = encode(&a.params_mut(), &TrainState::default()).expect("save");

    // A dense model of the same dims has a different parameter list.
    let mut dense_cfg = TransformerConfig::tiny(FfnKind::Dense);
    dense_cfg.seq_len = 16;
    let mut rng2 = seeded_rng(5);
    let mut dense = TransformerLm::new(dense_cfg, &mut rng2);
    assert!(load_train_state(&mut dense.params_mut(), buf.as_slice()).is_err());
}
