//! Faults inside a training step: an overload shed is retried like a
//! blown deadline, not counted as a worker panic; a poisoned step rolls
//! back and gives every workspace buffer back.
//!
//! The fault plan is process-global, so this binary owns it and every
//! test here takes one lock.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use megablocks_core::MoeConfig;
use megablocks_data::{PileConfig, SyntheticPile, TokenDataset};
use megablocks_exec::{configure_threads, scoped_parallelism, workspace};
use megablocks_resilience::sites::{KERNEL_NAN_POISON, POOL_QUEUE_FLOOD};
use megablocks_resilience::{clear_plan, install_plan, report, FaultPlan, RetryPolicy};
use megablocks_telemetry as telemetry;
use megablocks_tensor::init::seeded_rng;
use megablocks_transformer::{
    FfnKind, ResilienceConfig, Trainer, TrainerConfig, TransformerConfig, TransformerLm,
};

static PLAN: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

fn dataset() -> TokenDataset {
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
    .0
}

/// A toy dMoE trainer, one step of 8 sequences in two micro-batches.
fn trainer() -> Trainer {
    let moe = MoeConfig::new(32, 64, 4).with_block_size(8);
    let mut model_cfg = TransformerConfig::tiny(FfnKind::Dropless(moe));
    model_cfg.seq_len = 16;
    let model = TransformerLm::new(model_cfg, &mut seeded_rng(29));
    Trainer::new(
        model,
        TrainerConfig {
            batch_size: 8,
            micro_batch_size: 4,
            seq_len: 16,
            lr_max: 2e-3,
            warmup_steps: 3,
            total_steps: 1,
            clip: 1.0,
            seed: 17,
        },
    )
}

#[test]
fn an_overload_shed_is_retried_not_counted_as_a_worker_panic() {
    let _serial = serial();
    // Four bands per launch, whatever the host: the flood site only
    // fires on a multi-band launch.
    configure_threads(4);
    let data = dataset();
    // A one-hour step deadline makes every launch latency-bound, so the
    // first multi-band launch is shed rather than degraded inline.
    let cfg = ResilienceConfig {
        step_deadline: Some(Duration::from_secs(3600)),
        ..ResilienceConfig::default()
    };
    let recovered = telemetry::counter(POOL_QUEUE_FLOOD.recovered);
    let recovered_before = recovered.get();
    install_plan(FaultPlan::seeded(7).at_calls(&POOL_QUEUE_FLOOD, &[0]));
    let mut rt = trainer().with_resilience(cfg);
    let log = rt.try_train_step(&data).expect("one step cannot abort");
    assert_eq!(report().injected_at(&POOL_QUEUE_FLOOD), 1);
    clear_plan();

    assert!(log.is_some(), "the retried step completes");
    let rep = rt.report();
    assert_eq!(
        rep.worker_panics, 0,
        "a shed is not a worker panic: {rep:?}"
    );
    assert_eq!(rep.step_retries, 1, "{rep:?}");
    assert_eq!(rep.steps_completed, 1, "{rep:?}");
    assert_eq!(recovered.get(), recovered_before + 1);
}

#[test]
fn a_rolled_back_step_gives_every_workspace_buffer_back() {
    let _serial = serial();
    let data = dataset();
    let cfg = ResilienceConfig {
        retry: RetryPolicy::immediate(1),
        ..ResilienceConfig::default()
    };
    let mut trainer = trainer().with_resilience(cfg);
    let strays = telemetry::counter("exec.workspace.strays");
    // One thread: every buffer of the step comes from this thread's arena.
    scoped_parallelism(1, || {
        workspace::clear();
        trainer.train_step(&data);
        let (warm, strayed) = (workspace::stats(), strays.get());

        // The first dMoE forward of the next step outputs a NaN: a debug
        // build's GEMM sweep unwinds at the op that reads it, a release
        // build reaches the non-finite loss. Either way the attempt rolls
        // back with buffers in flight, and the retry completes.
        install_plan(FaultPlan::seeded(3).at_calls(&KERNEL_NAN_POISON, &[0]));
        let outcome = trainer.try_train_step(&data);
        let fired = report().injected_at(&KERNEL_NAN_POISON);
        clear_plan();
        assert_eq!(fired, 1);
        let outcome = outcome.expect("one failed attempt cannot abort");
        assert!(outcome.is_some(), "the retried step completes");
        let rep = trainer.report();
        assert_eq!(rep.step_retries, 1, "{rep:?}");
        assert_eq!(rep.worker_panics + rep.nonfinite_steps, 1, "{rep:?}");

        let after = workspace::stats();
        assert_eq!(
            after.misses, warm.misses,
            "the rolled-back step missed the arena"
        );
        assert_eq!(
            strays.get(),
            strayed,
            "a buffer of the rolled-back step strayed"
        );
        assert_eq!(
            after.held_buffers, warm.held_buffers,
            "the arena does not hold the warmed working set after the rollback"
        );
    });
}
