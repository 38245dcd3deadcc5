//! A steady-state training step reuses its own memory: after two warm-up
//! steps, a dense and a dMoE `Trainer::train_step` at the benchmark's
//! shape (batch 4 × 128, hidden 128, two layers, no gradient
//! accumulation) — forward, backward, gradient norm and Adam update —
//! take every buffer from the calling thread's workspace arena — no miss
//! —, give every one back to it — no stray —, hold no more than a fenced
//! working set, and, on Linux, the process takes next to no minor page
//! faults per step. One test, so the fault count is this process's alone.

use megablocks::core::MoeConfig;
use megablocks::data::TokenDataset;
use megablocks::exec::{scoped_parallelism, workspace};
use megablocks::telemetry;
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

/// The most the calling thread's arena may hold after a steady-state
/// step, `(buffers, floats)`: the step's working set as it stood when
/// every buffer was given back by hand, on one and on two threads. A
/// buffer that lives past its last reader raises it.
const DENSE_HELD: (usize, usize) = (30, 3_236_864);
const DMOE_HELD: (usize, usize) = (35, 5_326_848);

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
    let strays = telemetry::counter("exec.workspace.strays");
    let kinds = [
        ("dense", FfnKind::Dense, DENSE_HELD),
        ("dMoE", FfnKind::Dropless(moe), DMOE_HELD),
    ];
    for (name, ffn, (max_buffers, max_floats)) in kinds {
        for threads in [1, 2] {
            let lm = TransformerLm::new(config(ffn.clone()), &mut seeded_rng(1));
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
            let at = format!("{name} on {threads} threads");
            scoped_parallelism(threads, || {
                // The arena then holds this configuration's buffers only.
                workspace::clear();
                for _ in 0..2 {
                    trainer.train_step(&data);
                }
                for step in 0..STEPS {
                    let (before, faults) = (workspace::stats(), minor_faults());
                    let strayed = strays.get();
                    trainer.train_step(&data);
                    let after = workspace::stats();
                    let missed = after.misses - before.misses;
                    assert_eq!(missed, 0, "{at}, step {step}: {missed} workspace misses");
                    let strayed = strays.get() - strayed;
                    assert_eq!(strayed, 0, "{at}, step {step}: {strayed} strays");
                    assert!(
                        after.held_buffers <= max_buffers && after.held_floats <= max_floats,
                        "{at}, step {step}: the arena holds {} buffers, {} floats",
                        after.held_buffers,
                        after.held_floats
                    );
                    if let (Some(before), Some(after)) = (faults, minor_faults()) {
                        let taken = after - before;
                        assert!(
                            taken <= FAULTS_PER_STEP,
                            "{at}, step {step}: {taken} minor page faults"
                        );
                    }
                }
            });
        }
    }
}
