//! Chaos tests for expert-parallel fault containment and recovery.
//!
//! The fault plan is process-global, so this suite lives in its own
//! integration-test binary (its own process) and serializes every test
//! behind one mutex.

use megablocks_core::{
    resilient_expert_parallel_forward, try_expert_parallel_forward, DroplessMoe, EpBreaker,
    EpError, EpPolicy, MoeConfig,
};
use megablocks_resilience::sites::{EP_SHARD_DELAY, EP_SHARD_FAIL};
use megablocks_resilience::{clear_plan, install_plan, report, FaultPlan, INJECTED_PANIC_PREFIX};
use megablocks_tensor::init::{normal, seeded_rng};
use megablocks_tensor::Matrix;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Clears the installed plan when a test exits, pass or fail.
struct PlanGuard;
impl Drop for PlanGuard {
    fn drop(&mut self) {
        clear_plan();
    }
}

fn layer(seed: u64) -> DroplessMoe {
    let mut rng = seeded_rng(seed);
    DroplessMoe::new(MoeConfig::new(6, 8, 4).with_block_size(4), &mut rng)
}

fn input(seed: u64, rows: usize) -> Matrix {
    let mut rng = seeded_rng(seed);
    normal(rows, 6, 1.0, &mut rng)
}

#[test]
fn injected_shard_failure_is_retried_to_the_same_answer() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _plan_guard = PlanGuard;
    let l = layer(1);
    let x = input(2, 20);
    let reference = l.forward(&x).output;

    install_plan(FaultPlan::seeded(7).at_calls(&EP_SHARD_FAIL, &[0]));
    let outcome =
        resilient_expert_parallel_forward(&l, &x, 2, &EpPolicy::default(), &mut EpBreaker::never())
            .expect("recovers");

    assert_eq!(report().injected_at(&EP_SHARD_FAIL), 1);
    assert!(
        outcome.recovery.shard_retries >= 1,
        "{:?}",
        outcome.recovery
    );
    assert!(
        outcome.recovery.shards_recovered >= 1,
        "{:?}",
        outcome.recovery
    );
    assert!(!outcome.recovery.fell_back);
    assert!(
        outcome.output.approx_eq(&reference, 1e-4),
        "recovered output diverged by {}",
        outcome.output.max_abs_diff(&reference)
    );
}

#[test]
fn persistent_shard_failure_falls_back_to_single_device() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _plan_guard = PlanGuard;
    let l = layer(3);
    let x = input(4, 16);
    let reference = l.forward(&x).output;

    // Every shard attempt (first pass and all retries) fails.
    install_plan(FaultPlan::seeded(7).with_rate(&EP_SHARD_FAIL, 1.0, u64::MAX));
    let outcome =
        resilient_expert_parallel_forward(&l, &x, 2, &EpPolicy::default(), &mut EpBreaker::never())
            .expect("falls back");

    assert!(outcome.recovery.fell_back, "{:?}", outcome.recovery);
    assert!(outcome.stats.is_none(), "fallback carries no EP stats");
    assert!(
        outcome.output.approx_eq(&reference, 1e-4),
        "fallback must equal the single-device forward"
    );
    assert!(report().injected_at(&EP_SHARD_FAIL) >= 2);
}

#[test]
fn try_forward_surfaces_the_injected_failure_as_a_structured_error() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _plan_guard = PlanGuard;
    let l = layer(5);
    let x = input(6, 12);

    install_plan(FaultPlan::seeded(7).at_calls(&EP_SHARD_FAIL, &[0]));
    let err =
        try_expert_parallel_forward(&l, &x, 2).expect_err("fault call 0 is scheduled to fail");
    // The two shards race for fault call 0, so either may be the one
    // that fails; exactly one fault fires.
    match err {
        EpError::ShardFailed { shard, reason } => {
            assert!(shard < 2, "shard {shard} of 2");
            assert!(reason.contains(INJECTED_PANIC_PREFIX), "{reason}");
        }
        other => panic!("expected ShardFailed, got {other}"),
    }
    assert_eq!(report().injected_at(&EP_SHARD_FAIL), 1);
}

#[test]
fn injected_straggler_delay_is_detected_and_the_result_still_lands() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _plan_guard = PlanGuard;
    let l = layer(7);
    let x = input(8, 24);
    let reference = l.forward(&x).output;

    install_plan(
        FaultPlan::seeded(7)
            .at_calls(&EP_SHARD_DELAY, &[0])
            .delay_ms(60),
    );
    let policy = EpPolicy {
        straggler_floor_us: 5_000,
        ..EpPolicy::default()
    };
    let outcome = resilient_expert_parallel_forward(&l, &x, 4, &policy, &mut EpBreaker::never())
        .expect("no hard fault");

    assert_eq!(report().injected_at(&EP_SHARD_DELAY), 1);
    assert!(
        outcome.recovery.stragglers_detected >= 1,
        "{:?}",
        outcome.recovery
    );
    assert!(!outcome.recovery.fell_back);
    assert_eq!(
        outcome.recovery.shard_retries, 0,
        "a straggler is not a failure"
    );
    assert!(outcome.output.approx_eq(&reference, 1e-4));
}
