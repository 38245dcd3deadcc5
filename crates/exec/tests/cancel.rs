//! Cancellation, deadline and watchdog behavior of launch plans.
//!
//! These tests pin the cooperative-cancellation contract end to end:
//! already-dead contexts are refused before any band runs, token
//! hierarchies propagate an ancestor's cancel into nested launches, the
//! ambient context installed with [`cancel::enter`] is inherited by
//! plans that carry none, and the stall watchdog cancels a wedged band
//! in bounded time instead of letting the launch hang.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use megablocks_exec::{
    cancel, configure_threads, CancelKind, CancelToken, Ctx, Deadline, ExecError, LaunchPlan,
};

/// Bands a 4096-float output eight ways and counts body executions; the
/// workhorse launch the cancellation tests drive.
fn counted_launch(ctx: Ctx) -> (Result<(), ExecError>, usize) {
    let ran = AtomicUsize::new(0);
    let mut data = vec![0.0f32; 4096];
    let body = |band: &mut [f32], _i0: usize| {
        ran.fetch_add(1, Relaxed);
        band.fill(1.0);
    };
    let _scope = cancel::enter(&ctx);
    let result =
        LaunchPlan::over_items("test.cancel.counted", &mut data, 1, 512, &body).try_launch();
    (result, ran.load(Relaxed))
}

#[test]
fn pre_cancelled_token_refuses_the_launch() {
    configure_threads(4);
    let token = CancelToken::new();
    token.cancel();
    let (result, ran) = counted_launch(Ctx::none().with_token(&token));
    assert_eq!(
        result,
        Err(ExecError::Cancelled {
            op: "test.cancel.counted"
        })
    );
    assert_eq!(ran, 0, "no band body may run under a dead context");
}

#[test]
fn expired_deadline_reports_deadline_exceeded() {
    configure_threads(4);
    let deadline = Deadline::after(Duration::ZERO);
    let (result, ran) = counted_launch(Ctx::none().with_deadline(deadline));
    assert_eq!(
        result,
        Err(ExecError::DeadlineExceeded {
            op: "test.cancel.counted"
        })
    );
    assert_eq!(ran, 0);
}

#[test]
fn future_deadline_lets_the_launch_complete() {
    configure_threads(4);
    let deadline = Deadline::after(Duration::from_secs(3600));
    let (result, ran) = counted_launch(Ctx::none().with_deadline(deadline));
    assert_eq!(result, Ok(()));
    assert_eq!(ran, 8, "every band must run under a live deadline");
}

#[test]
fn ancestor_cancel_reaches_child_token_contexts() {
    configure_threads(4);
    let parent = CancelToken::new();
    let child = parent.child();
    assert!(!child.is_cancelled());
    parent.cancel();
    assert_eq!(child.kind(), Some(CancelKind::Cancelled));
    let (result, ran) = counted_launch(Ctx::none().with_token(&child));
    assert_eq!(
        result,
        Err(ExecError::Cancelled {
            op: "test.cancel.counted"
        })
    );
    assert_eq!(ran, 0);

    // The reverse must not hold: cancelling a child leaves the parent
    // (and thus sibling subtrees) live.
    let parent = CancelToken::new();
    let child = parent.child();
    child.cancel();
    assert!(child.is_cancelled());
    assert!(!parent.is_cancelled());
}

#[test]
fn ambient_context_is_inherited_by_plans_without_one() {
    configure_threads(4);
    let token = CancelToken::new();
    token.cancel();
    let ctx = Ctx::none().with_token(&token);
    let _ambient = cancel::enter(&ctx);
    // The plan carries no context of its own; it must pick up the dead
    // ambient one and refuse the launch.
    let (result, ran) = counted_launch(Ctx::none());
    assert_eq!(
        result,
        Err(ExecError::Cancelled {
            op: "test.cancel.counted"
        })
    );
    assert_eq!(ran, 0);
}

#[test]
fn empty_ambient_scope_does_not_mask_results() {
    configure_threads(4);
    // Entering an empty context is a no-op; the launch proceeds, and the
    // output is identical to a launch with no scope at all.
    let run = || {
        let mut data: Vec<f32> = (0..2048).map(|v| v as f32).collect();
        let body = |band: &mut [f32], i0: usize| {
            for (i, v) in band.iter_mut().enumerate() {
                *v = v.mul_add(1.5, (i0 + i) as f32);
            }
        };
        LaunchPlan::over_items("test.cancel.empty_scope", &mut data, 1, 256, &body)
            .try_launch()
            .expect("plain launch cannot fail");
        data
    };
    let bare = run();
    let scoped = {
        let ctx = Ctx::none();
        let _ambient = cancel::enter(&ctx);
        run()
    };
    assert!(
        bare.iter()
            .zip(&scoped)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "an empty ambient scope must be unobservable"
    );
}

#[test]
fn mid_flight_cancel_skips_unstarted_bands_and_reports() {
    configure_threads(4);
    let token = CancelToken::new();
    let ran = AtomicUsize::new(0);
    let bands = 64usize;
    let mut data = vec![0.0f32; bands * 64];
    // The first band (which runs inline on the submitter) cancels the
    // launch immediately; every other band that does sneak past the
    // band-boundary check dwells briefly, so with 64 bands and a handful
    // of workers the pool cannot start them all before the cancel lands
    // — the tail must be skipped.
    let body = |_band: &mut [f32], i0: usize| {
        ran.fetch_add(1, Relaxed);
        if i0 == 0 {
            token.cancel();
        } else {
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    let _scope = cancel::enter(&Ctx::none().with_token(&token));
    let result =
        LaunchPlan::over_items("test.cancel.midflight", &mut data, 1, 64, &body).try_launch();
    assert_eq!(
        result,
        Err(ExecError::Cancelled {
            op: "test.cancel.midflight"
        })
    );
    assert!(
        ran.load(Relaxed) < bands,
        "at least one unstarted band must be skipped after the cancel"
    );
}

#[test]
fn watchdog_cancels_a_stalled_band_in_bounded_time() {
    configure_threads(4);
    let stalled = AtomicUsize::new(0);
    let mut data = vec![0.0f32; 4096];
    // Band 0 wedges until cancelled (with a hard cap so a watchdog
    // regression fails the test instead of hanging it); the sibling
    // bands finish instantly, so the stall threshold resolves to the
    // plan's explicit budget.
    let body = |band: &mut [f32], i0: usize| {
        if i0 == 0 {
            stalled.fetch_add(1, Relaxed);
            let hard_cap = Instant::now() + Duration::from_secs(30);
            while !cancel::poll_cancelled() && Instant::now() < hard_cap {
                std::thread::sleep(Duration::from_millis(1));
            }
            return;
        }
        band.fill(1.0);
    };
    let start = Instant::now();
    let result = LaunchPlan::over_items("test.cancel.stall", &mut data, 1, 512, &body)
        .with_stall_budget(Duration::from_millis(50))
        .try_launch();
    let elapsed = start.elapsed();
    assert_eq!(
        result,
        Err(ExecError::DeadlineExceeded {
            op: "test.cancel.stall"
        }),
        "the watchdog must cancel the stalled launch"
    );
    assert_eq!(
        stalled.load(Relaxed),
        1,
        "the stalled band ran exactly once"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "a 50ms stall budget must unwind the launch promptly, took {elapsed:?}"
    );
}

#[test]
fn healthy_launches_pass_under_a_stall_budget() {
    configure_threads(4);
    let mut data: Vec<f32> = (1..=4096).map(|v| v as f32).collect();
    let body = |band: &mut [f32], _i0: usize| {
        for v in band.iter_mut() {
            *v *= 2.0;
        }
    };
    LaunchPlan::over_items("test.cancel.healthy", &mut data, 1, 512, &body)
        .with_stall_budget(Duration::from_secs(5))
        .try_launch()
        .expect("a healthy launch under a generous budget must pass");
    let want = (4096u64 * 4097) as f64; // 2 * sum(1..=n)
    assert_eq!(data.iter().map(|&v| v as f64).sum::<f64>(), want);
}

#[test]
fn error_messages_carry_their_classification_prefix() {
    let cancelled = ExecError::Cancelled { op: "x" };
    let deadline = ExecError::DeadlineExceeded { op: "x" };
    let overloaded = ExecError::Overloaded { op: "x" };
    assert!(cancelled
        .to_string()
        .starts_with(megablocks_exec::CANCELLED_PANIC_PREFIX));
    assert!(deadline
        .to_string()
        .starts_with(megablocks_exec::DEADLINE_PANIC_PREFIX));
    assert!(overloaded
        .to_string()
        .starts_with(megablocks_exec::OVERLOADED_PANIC_PREFIX));
    assert_eq!(cancelled.kind(), CancelKind::Cancelled);
    assert_eq!(deadline.kind(), CancelKind::DeadlineExceeded);
    assert_eq!(overloaded.kind(), CancelKind::Overloaded);
}
