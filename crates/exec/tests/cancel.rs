//! Cancellation and deadline behavior of launch plans.
//!
//! These tests pin the cooperative-cancellation contract end to end:
//! already-dead contexts are refused before any band runs, token
//! hierarchies propagate an ancestor's cancel into nested launches, the
//! ambient context installed with [`cancel::enter`] is inherited by
//! plans that carry none, and an abort inside a band unwinds through the
//! launch that ran the band with the typed [`ExecError`] as its payload.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
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
    assert!(child.kind().is_none());
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
    assert!(child.kind().is_some());
    assert!(parent.kind().is_none());
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
fn a_nested_abort_on_a_worker_unwinds_through_the_outer_launch() {
    configure_threads(4);
    let token = CancelToken::new();
    token.cancel();
    let dead = Ctx::none().with_token(&token);
    let mut data = vec![0.0f32; 4096];
    // The outer launch runs under no context. Every band a pool worker
    // runs launches again under a dead one; that nested launch runs
    // inline on the worker and unwinds with its `ExecError`, which the
    // pool parks and re-raises on the submitter. The submitter claims
    // bands too, so its bands hold until a worker has entered one.
    let worker_entered = AtomicBool::new(false);
    let body = |band: &mut [f32], _i0: usize| {
        let on_worker = std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("megablocks-exec"));
        if !on_worker {
            let give_up = Instant::now() + Duration::from_secs(10);
            while !worker_entered.load(Relaxed) && Instant::now() < give_up {
                std::thread::yield_now();
            }
        } else {
            worker_entered.store(true, Relaxed);
            let _scope = cancel::enter(&dead);
            let len = band.len();
            LaunchPlan::over_items("test.cancel.inner", band, 1, len, &|_, _| {}).launch();
        }
    };
    let outer = catch_unwind(AssertUnwindSafe(|| {
        LaunchPlan::over_items("test.cancel.outer", &mut data, 1, 512, &body).try_launch()
    }));
    let payload = outer.expect_err("the inner abort must unwind, not return");
    let error = payload
        .downcast::<ExecError>()
        .expect("the payload is the inner launch's ExecError");
    assert_eq!(
        *error,
        ExecError::Cancelled {
            op: "test.cancel.inner"
        }
    );
    assert_eq!(error.kind(), CancelKind::Cancelled);
}
