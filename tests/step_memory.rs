//! A steady-state training step reuses its own memory: after two warm-up
//! steps, a dense and a dMoE `Trainer::train_step` at the benchmark's
//! shape (batch 4 × 128, hidden 128, two layers, no gradient
//! accumulation) — forward, backward, gradient norm and Adam update —
//! take every buffer from the calling thread's workspace arena — no miss
//! — and, on Linux, the process takes next to no minor page faults per
//! step. One test, so the fault count is this process's alone.

use megablocks::core::MoeConfig;
use megablocks::data::TokenDataset;
use megablocks::exec::workspace;
use megablocks::tensor::init::seeded_rng;
use megablocks::transformer::{FfnKind, Trainer, TrainerConfig, TransformerConfig, TransformerLm};

const BATCH: usize = 4;
const SEQ: usize = 128;
const STEPS: usize = 3;

/// Minor page faults per step the process may take (0–6 measured on two
/// cores): pool workers can still meet a GEMM panel of a new size, a few
/// pages each. A step whose activations round-trip through `malloc` takes
/// thousands (3 168 per dense step measured before the arena held them).
const FAULTS_PER_STEP: u64 = 64;

/// Minor faults of this process so far (`/proc/self/stat` field 10).
#[cfg(target_os = "linux")]
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, from field 3 on.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

#[cfg(not(target_os = "linux"))]
fn minor_faults() -> Option<u64> {
    None
}

fn config(ffn: FfnKind) -> TransformerConfig {
    TransformerConfig {
        vocab_size: 512,
        hidden_size: 128,
        num_layers: 2,
        num_heads: 2,
        seq_len: SEQ,
        ffn_hidden_size: 512,
        ffn,
    }
}

#[test]
fn a_steady_state_train_step_allocates_nothing() {
    let moe = MoeConfig::new(128, 512, 8).with_block_size(16);
    for (name, ffn) in [("dense", FfnKind::Dense), ("dMoE", FfnKind::Dropless(moe))] {
        let lm = TransformerLm::new(config(ffn), &mut seeded_rng(1));
        let mut trainer = Trainer::new(
            lm,
            TrainerConfig {
                batch_size: BATCH,
                micro_batch_size: BATCH,
                seq_len: SEQ,
                ..TrainerConfig::small(100)
            },
        );
        let tokens: Vec<u32> = (0..(8 * BATCH * SEQ) as u32)
            .map(|i| (i * 37 + 11) % 512)
            .collect();
        let data = TokenDataset::new(tokens, 512);
        for _ in 0..2 {
            trainer.train_step(&data);
        }
        for step in 0..STEPS {
            let (misses, faults) = (workspace::stats().misses, minor_faults());
            trainer.train_step(&data);
            let missed = workspace::stats().misses - misses;
            assert_eq!(missed, 0, "{name} step {step}: {missed} workspace misses");
            if let (Some(before), Some(after)) = (faults, minor_faults()) {
                let taken = after - before;
                assert!(
                    taken <= FAULTS_PER_STEP,
                    "{name} step {step}: {taken} minor page faults"
                );
            }
        }
    }
}
