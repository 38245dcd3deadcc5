//! Chaos soak: train a dMoE language model end-to-end under a seeded
//! fault schedule at the three sites a training run recovers from
//! (`exec.worker_panic`, `kernel.nan_poison`, `checkpoint.io`), and assert
//! the run completes with the fault-free trajectory and a clean
//! checkpoint directory. The other two registered sites,
//! `exec.band_stall` and `pool.queue_flood`, are exec's own drills
//! (`crates/exec/tests/chaos.rs`).

use std::path::PathBuf;

use megablocks::core::checkpoint::validate_checkpoint_file;
use megablocks::core::MoeConfig;
use megablocks::data::{PileConfig, SyntheticPile, TokenDataset};
use megablocks::exec::fault::sites::{CHECKPOINT_IO, EXEC_WORKER_PANIC, KERNEL_NAN_POISON};
use megablocks::exec::fault::FaultPlan;
use megablocks::tensor::init::seeded_rng;
use megablocks::transformer::{
    FfnKind, ResilienceConfig, Trainer, TrainerConfig, TransformerConfig, TransformerLm,
};

const STEPS: usize = 12;

fn dataset() -> (TokenDataset, TokenDataset) {
    SyntheticPile::generate(
        &PileConfig {
            vocab_size: 64,
            num_clusters: 4,
            num_tokens: 6_000,
            mean_doc_len: 32,
            branching: 2,
            noise: 0.05,
        },
        13,
    )
    .split(0.9)
}

fn trainer() -> Trainer {
    let moe = MoeConfig::new(32, 64, 4).with_block_size(8);
    let mut cfg = TransformerConfig::tiny(FfnKind::Dropless(moe));
    cfg.seq_len = 16;
    let mut rng = seeded_rng(29);
    let model = TransformerLm::new(cfg, &mut rng);
    Trainer::new(
        model,
        TrainerConfig {
            batch_size: 8,
            micro_batch_size: 4,
            seq_len: 16,
            lr_max: 2e-3,
            warmup_steps: 3,
            total_steps: STEPS,
            clip: 1.0,
            seed: 17,
        },
    )
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbrs-chaos-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn soak_survives_every_fault_kind_and_matches_the_baseline() {
    // --- Fault-free baseline -------------------------------------------
    let (train, valid) = dataset();
    let mut baseline = trainer();
    baseline.train(&train, STEPS).expect("fault-free run");
    let reference = baseline.evaluate(&valid, 4).loss;

    // --- Chaos run: all three sites scheduled --------------------------
    // Call indices are spread out so the worker panic (step 0) is healed
    // before the NaN poisoning lands (a few steps later) — each recovery
    // path is observed on its own.
    let dir = temp_dir();
    let plan = FaultPlan::seeded(41)
        .at_calls(&EXEC_WORKER_PANIC, &[2])
        .at_calls(&KERNEL_NAN_POISON, &[30])
        .at_calls(&CHECKPOINT_IO, &[0])
        .enter();

    let cfg = ResilienceConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 4,
        keep_checkpoints: 2,
        ..ResilienceConfig::default()
    };
    let mut rt = trainer().with_resilience(cfg);
    rt.train(&train, STEPS)
        .expect("the soak must complete under faults");

    // --- Every scheduled site actually injected ------------------------
    let injected = plan.report();
    for site in [&EXEC_WORKER_PANIC, &KERNEL_NAN_POISON, &CHECKPOINT_IO] {
        assert!(
            injected.injected_at(site) >= 1,
            "site {} never fired: {injected:?}",
            site.name
        );
    }
    drop(plan);

    // --- Recovery evidence ---------------------------------------------
    let rep = rt.report();
    assert_eq!(rep.steps_completed, STEPS, "{rep:?}");
    assert_eq!(rep.steps_skipped, 0, "every fault must heal, not skip");
    // A debug build sweeps kernel outputs, so there the NaN poison panics
    // at the op that consumes it instead of reaching the loss check; either
    // way both faults are caught.
    assert!(rep.worker_panics >= 1, "{rep:?}");
    assert!(rep.worker_panics + rep.nonfinite_steps >= 2, "{rep:?}");
    assert!(rep.step_retries >= 2, "{rep:?}");
    assert!(rep.checkpoints_written >= 2, "{rep:?}");
    assert_eq!(rep.checkpoint_failures, 0, "the injected I/O error retries");

    // --- The chaos trajectory equals the fault-free one ----------------
    let after = rt.evaluate(&valid, 4).loss;
    assert!(
        (after - reference).abs() <= 1e-3,
        "chaos run diverged from baseline: {reference} vs {after}"
    );
    assert_eq!(
        after.to_bits(),
        reference.to_bits(),
        "retries are rollback-exact, so recovery is bit-identical"
    );

    // --- No corrupt or torn file on disk -------------------------------
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("read checkpoint dir") {
        let path = entry.expect("dir entry").path();
        assert_eq!(
            path.extension().and_then(|e| e.to_str()),
            Some("ckpt"),
            "unexpected file in checkpoint dir: {}",
            path.display()
        );
        // Only the current format validates.
        validate_checkpoint_file(&path)
            .unwrap_or_else(|e| panic!("corrupt checkpoint {}: {e}", path.display()));
        files += 1;
    }
    assert_eq!(files, 2, "pruning keeps exactly two checkpoints");
    let _ = std::fs::remove_dir_all(&dir);
}
