//! Train a small Transformer LM with dMoE FFN layers on the synthetic
//! Pile, and compare against a dense baseline — a miniature of the
//! paper's end-to-end experiments.
//!
//! Run with: `cargo run --release --example train_lm`

use megablocks::core::MoeConfig;
use megablocks::data::{PileConfig, SyntheticPile};
use megablocks::tensor::init::seeded_rng;
use megablocks::transformer::{FfnKind, Trainer, TrainerConfig, TransformerConfig, TransformerLm};

fn build(ffn: FfnKind, seed: u64) -> TransformerLm {
    let cfg = TransformerConfig {
        vocab_size: 256,
        hidden_size: 64,
        num_layers: 2,
        num_heads: 2,
        seq_len: 64,
        ffn_hidden_size: 128,
        ffn,
    };
    let mut rng = seeded_rng(seed);
    TransformerLm::new(cfg, &mut rng)
}

fn main() {
    println!(
        "kernel backend {} ({})",
        megablocks::tensor::kernel_backend().name(),
        megablocks::tensor::tiled_variant()
    );
    let pile = SyntheticPile::generate(
        &PileConfig {
            vocab_size: 256,
            num_clusters: 8,
            num_tokens: 60_000,
            mean_doc_len: 64,
            branching: 4,
            noise: 0.1,
        },
        42,
    );
    let (train, valid) = pile.split(0.9);

    let tcfg = TrainerConfig {
        batch_size: 16,
        micro_batch_size: 8,
        seq_len: 64,
        lr_max: 3e-3,
        warmup_steps: 20,
        total_steps: 200,
        clip: 1.0,
        seed: 7,
    };

    let moe = MoeConfig::new(64, 128, 8).with_block_size(16);
    for (label, ffn) in [
        ("dense Transformer", FfnKind::Dense),
        ("dMoE Transformer ", FfnKind::Dropless(moe)),
    ] {
        let mut trainer = Trainer::new(build(ffn.clone(), 1), tcfg.clone());
        let before = trainer.evaluate(&valid, 8).loss;
        println!("{label}: initial val loss {before:.4}");
        for chunk in 0..4 {
            let logs = trainer
                .train(&train, tcfg.total_steps / 4)
                .expect("training completes");
            let last = logs.last().expect("nonempty");
            let val = trainer.evaluate(&valid, 8).loss;
            println!(
                "  step {:>3}  train ce {:.4}  val {:.4}  lb {:.5}  dropped {}  tok/s {:.0}",
                (chunk + 1) * tcfg.total_steps / 4,
                last.ce_loss,
                val,
                last.lb_loss,
                last.dropped_tokens,
                last.tokens_per_sec
            );
        }
        let after = trainer.evaluate(&valid, 8).loss;
        println!(
            "{label}: final val loss {after:.4} (improved {:.4})\n",
            before - after
        );
    }

    // End-of-run telemetry: kernel span timings, per-expert token histograms,
    // padding overhead. These bounded metrics always record; the per-step
    // event log and the timeline stay off unless a `FlushOnDrop` names an
    // output file for them.
    megablocks::telemetry::print_summary();
}
