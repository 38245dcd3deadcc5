//! An overload shed inside a training step is retried like a blown
//! deadline, not counted as a worker panic.
//!
//! The fault plan is process-global, so this test owns its own
//! integration-test binary.

use std::time::Duration;

use megablocks_core::MoeConfig;
use megablocks_data::{PileConfig, SyntheticPile};
use megablocks_exec::configure_threads;
use megablocks_resilience::sites::POOL_QUEUE_FLOOD;
use megablocks_resilience::{clear_plan, install_plan, report, FaultPlan};
use megablocks_telemetry as telemetry;
use megablocks_tensor::init::seeded_rng;
use megablocks_transformer::{
    FfnKind, ResilienceConfig, ResilientTrainer, Trainer, TrainerConfig, TransformerConfig,
    TransformerLm,
};

#[test]
fn an_overload_shed_is_retried_not_counted_as_a_worker_panic() {
    // Four bands per launch, whatever the host: the flood site only
    // fires on a multi-band launch.
    configure_threads(4);
    let data = SyntheticPile::generate(
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
    .0;
    let moe = MoeConfig::new(32, 64, 4).with_block_size(8);
    let mut model_cfg = TransformerConfig::tiny(FfnKind::Dropless(moe));
    model_cfg.seq_len = 16;
    let model = TransformerLm::new(model_cfg, &mut seeded_rng(29));
    let trainer = Trainer::new(
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
    );
    // A one-hour step deadline makes every launch latency-bound, so the
    // first multi-band launch is shed rather than degraded inline.
    let cfg = ResilienceConfig {
        step_deadline: Some(Duration::from_secs(3600)),
        ..ResilienceConfig::default()
    };
    let recovered = telemetry::counter(POOL_QUEUE_FLOOD.recovered);
    let recovered_before = recovered.get();
    install_plan(FaultPlan::seeded(7).at_calls(&POOL_QUEUE_FLOOD, &[0]));
    let mut rt = ResilientTrainer::new(trainer, cfg);
    let log = rt.train_step(&data).expect("one step cannot abort");
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
