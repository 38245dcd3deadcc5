//! Bounded pool admission and load shedding.
//!
//! This binary pins the overload policy with the queue cap forced to
//! zero — every multi-band launch faces the admission decision a flooded
//! queue would produce. The cap resolves once per process, which is why
//! these tests live in their own test binary: each test re-requests the
//! same configuration, so in-binary test order cannot change it.

use std::time::Duration;

use megablocks_exec::{
    cancel, configure_queue_cap, configure_threads, pool, queue_cap, CancelToken, Ctx, Deadline,
    ExecError, LaunchPlan,
};

/// Forces the zero cap (and a deterministic pool size) before the first
/// launch of the process; later calls are no-ops on the same values.
fn pin_zero_cap() {
    configure_queue_cap(0);
    configure_threads(4);
}

#[test]
fn queue_cap_resolves_to_the_configured_zero() {
    pin_zero_cap();
    assert_eq!(queue_cap(), 0);
    // The cap is resolved for the life of the process now.
    assert!(!configure_queue_cap(64), "cap must already be resolved");
    assert_eq!(queue_cap(), 0);
}

#[test]
fn plain_launches_degrade_inline_when_shed() {
    pin_zero_cap();
    let n = 8192usize;
    let mut data: Vec<f32> = (1..=n).map(|v| v as f32).collect();
    let body = |band: &mut [f32], _i0: usize| {
        for v in band.iter_mut() {
            *v *= 2.0;
        }
    };
    // No context: throughput work has no deadline to miss, so the shed
    // launch must degrade to inline execution and still complete.
    LaunchPlan::over_items("test.overload.plain", &mut data, 1, n / 8, &body)
        .try_launch()
        .expect("plain work must degrade inline, not fail");
    let want = (n * (n + 1)) as f64; // 2 * sum(1..=n)
    assert_eq!(data.iter().map(|&v| v as f64).sum::<f64>(), want);
    // Nothing may have been queued past the cap.
    assert_eq!(pool().queue_depth(), 0, "the zero cap must hold");
}

#[test]
fn latency_bound_launches_are_shed_with_overloaded() {
    pin_zero_cap();
    let mut data = vec![0.0f32; 4096];
    let body = |band: &mut [f32], _i0: usize| band.fill(1.0);
    // A live deadline marks the launch latency-bound: queueing into a
    // flood would blow the budget, so the launch is shed explicitly.
    let ctx = Ctx::none().with_deadline(Deadline::after(Duration::from_secs(3600)));
    let _scope = cancel::enter(&ctx);
    let result =
        LaunchPlan::over_items("test.overload.bound", &mut data, 1, 512, &body).try_launch();
    assert_eq!(
        result,
        Err(ExecError::Overloaded {
            op: "test.overload.bound"
        })
    );
}

#[test]
fn token_only_contexts_are_latency_bound_too() {
    pin_zero_cap();
    let token = CancelToken::new();
    let mut data = vec![0.0f32; 4096];
    let body = |band: &mut [f32], _i0: usize| band.fill(1.0);
    let _scope = cancel::enter(&Ctx::none().with_token(&token));
    let result =
        LaunchPlan::over_items("test.overload.token", &mut data, 1, 512, &body).try_launch();
    assert_eq!(
        result,
        Err(ExecError::Overloaded {
            op: "test.overload.token"
        })
    );
}

#[test]
fn dead_contexts_are_refused_before_the_admission_decision() {
    pin_zero_cap();
    let token = CancelToken::new();
    token.cancel();
    let mut data = vec![0.0f32; 4096];
    let body = |band: &mut [f32], _i0: usize| band.fill(1.0);
    // Precedence: an already-cancelled launch reports the cancel, not
    // the overload it would also have hit.
    let _scope = cancel::enter(&Ctx::none().with_token(&token));
    let result =
        LaunchPlan::over_items("test.overload.dead", &mut data, 1, 512, &body).try_launch();
    assert_eq!(
        result,
        Err(ExecError::Cancelled {
            op: "test.overload.dead"
        })
    );
}

#[test]
fn single_band_launches_never_face_admission() {
    pin_zero_cap();
    let mut data = vec![0.0f32; 64];
    let body = |band: &mut [f32], _i0: usize| band.fill(3.0);
    // One band runs inline on the submitter; a zero cap cannot shed it
    // even when the launch is latency-bound.
    let ctx = Ctx::none().with_deadline(Deadline::after(Duration::from_secs(3600)));
    let _scope = cancel::enter(&ctx);
    LaunchPlan::over_items("test.overload.single", &mut data, 1, 64, &body)
        .try_launch()
        .expect("single-band launches bypass the queue");
    assert!(data.iter().all(|&v| v == 3.0));
}
