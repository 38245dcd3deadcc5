//! Pool and launch-plan behavior: panic recovery, nested launches, and
//! the scoped parallelism override.
//!
//! The panic tests are the regression suite for the pool's recovery
//! protocol: a launch whose band panics must re-raise on the submitter
//! with the original payload, and the *next* launch over the same pool
//! must behave normally (no wedged queue, no poisoned lock, no stale
//! completion state).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::{Duration, Instant};

use megablocks_exec::{configure_threads, parallelism, pool, scoped_parallelism, LaunchPlan};
use megablocks_telemetry as telemetry;

/// Sums `1..=n` through a multi-band plan; the workhorse "normal launch"
/// the panic tests interleave with.
fn banded_sum(n: usize, bands: usize) -> f64 {
    let mut data: Vec<f32> = (1..=n).map(|v| v as f32).collect();
    let body = |band: &mut [f32], _i0: usize| {
        for v in band.iter_mut() {
            *v *= 2.0;
        }
    };
    LaunchPlan::over_items("test.banded_sum", &mut data, 1, n.div_ceil(bands), &body).launch();
    data.iter().map(|&v| v as f64).sum()
}

#[test]
fn plans_partition_and_execute_all_bands() {
    // Pin a parallelism target so the pool exists even on 1-CPU runners.
    configure_threads(4);
    let n = 10_000;
    let want = (n * (n + 1)) as f64; // 2 * sum(1..=n)
    for bands in [1, 2, 3, 7, 16] {
        assert_eq!(banded_sum(n, bands), want, "bands={bands}");
    }
}

#[test]
fn explicit_bands_receive_their_index() {
    configure_threads(4);
    let mut data = vec![0.0f32; 10];
    let lens = vec![3usize, 0, 5, 2];
    let body = |band: &mut [f32], s: usize| {
        for v in band.iter_mut() {
            *v = s as f32;
        }
    };
    LaunchPlan::over_bands("test.explicit", &mut data, lens, &body).launch();
    assert_eq!(
        data,
        [0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0] // band 1 is empty
    );
}

#[test]
fn panicking_band_reraises_payload_and_pool_survives() {
    configure_threads(4);

    // Round 1: a multi-band launch whose first (inline) band panics.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut data = vec![0.0f32; 1000];
        let body = |band: &mut [f32], i0: usize| {
            if i0 == 0 {
                panic!("inline band boom");
            }
            band.fill(1.0);
        };
        LaunchPlan::over_items("test.panic_inline", &mut data, 1, 100, &body).launch();
    }));
    let payload = result.expect_err("inline band panic must re-raise");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .expect("original payload type preserved");
    assert_eq!(msg, "inline band boom");

    // Round 2: a queued (worker-side) band panics instead.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut data = vec![0.0f32; 1000];
        let body = |band: &mut [f32], i0: usize| {
            if i0 == 500 {
                panic!("worker band boom");
            }
            band.fill(1.0);
        };
        LaunchPlan::over_items("test.panic_worker", &mut data, 1, 100, &body).launch();
    }));
    let payload = result.expect_err("worker band panic must re-raise");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("worker band boom")
    );

    // Round 3: the same pool still executes normal launches correctly.
    let n = 10_000;
    assert_eq!(banded_sum(n, 8), (n * (n + 1)) as f64);
}

#[test]
fn nested_launches_run_inline_without_deadlock() {
    configure_threads(4);
    let outer_bands = 8;
    let mut data = vec![0.0f32; 64 * outer_bands];
    let per_band = data.len() / outer_bands;
    let body = |band: &mut [f32], _i0: usize| {
        // A launch from inside a pool task must not wait on the pool's
        // own (busy) workers.
        let inner_body = |inner: &mut [f32], _j0: usize| inner.fill(1.0);
        LaunchPlan::over_items(
            "test.nested_inner",
            band,
            1,
            band.len().div_ceil(4),
            &inner_body,
        )
        .launch();
    };
    // Sibling tests share the registry, so the counter can only be
    // bounded from below: band 0 runs on this thread, the other seven on
    // workers, and a launch from a worker never reaches the queue.
    let inline_launches = telemetry::counter_with("exec.launches", "inline");
    let before = inline_launches.get();
    LaunchPlan::over_items("test.nested_outer", &mut data, 1, per_band, &body).launch();
    assert!(data.iter().all(|&v| v == 1.0));
    assert!(
        inline_launches.get() - before >= (outer_bands - 1) as u64,
        "launches from pool workers must count as inline, not pooled"
    );
}

#[test]
fn scoped_parallelism_overrides_and_restores() {
    configure_threads(4);
    let outside = parallelism();
    let inside = scoped_parallelism(2, || {
        let a = parallelism();
        let nested = scoped_parallelism(7, parallelism);
        (a, nested, parallelism())
    });
    assert_eq!(inside, (2, 7, 2), "override must nest and restore");
    assert_eq!(parallelism(), outside, "override must not leak");
}

#[test]
fn occupancy_gauges_never_underflow() {
    configure_threads(4);
    // Regression test for the signed-and-clamped occupancy mirrors: a
    // probe racing a worker's increment/decrement pair used to be able
    // to observe a `usize` wrapped to an absurd value. Hammer the pool
    // with launches while a sampler thread reads both gauges; every
    // sample must stay within physical bounds.
    let stop = AtomicBool::new(false);
    let workers = pool().workers();
    #[allow(
        clippy::disallowed_methods,
        reason = "the sampler must read the gauges from outside the pool"
    )]
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut max_depth = 0usize;
            let mut max_busy = 0usize;
            while !stop.load(Relaxed) {
                max_depth = max_depth.max(pool().queue_depth());
                max_busy = max_busy.max(pool().busy_workers());
            }
            (max_depth, max_busy)
        });
        for _ in 0..200 {
            banded_sum(4096, 8);
        }
        stop.store(true, Relaxed);
        let (max_depth, max_busy) = sampler.join().expect("sampler thread");
        assert!(
            max_depth <= 10_000,
            "queue depth gauge wrapped or leaked: {max_depth}"
        );
        assert!(
            max_busy <= workers,
            "busy gauge exceeded the pool's {workers} workers: {max_busy}"
        );
    });
    // Once the traffic stops, both mirrors drain back to empty. Sibling
    // tests share the pool and may still be launching, so poll for the
    // drained state rather than asserting it instantaneously.
    let settle = Instant::now() + Duration::from_secs(30);
    while (pool().queue_depth() > 0 || pool().busy_workers() > 0) && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(pool().queue_depth(), 0, "queue mirror must drain to zero");
    assert_eq!(pool().busy_workers(), 0, "busy mirror must drain to zero");
}

#[test]
fn pooled_launch_matches_inline_reference() {
    configure_threads(4);
    let n = 4096;
    let mut pooled: Vec<f32> = (0..n).map(|v| v as f32).collect();
    let mut inline = pooled.clone();
    let body = |band: &mut [f32], i0: usize| {
        for (i, v) in band.iter_mut().enumerate() {
            *v = v.mul_add(3.0, (i0 + i) as f32);
        }
    };
    LaunchPlan::over_items("test.pooled", &mut pooled, 1, n / 8, &body).launch();
    // One band never reaches the pool: the body runs once, on this
    // thread, over the whole slice — the reference the 8-band launch
    // must reproduce.
    let reference = LaunchPlan::over_items("test.inline", &mut inline, 1, n, &body);
    assert_eq!(reference.bands(), 1);
    reference.launch();
    assert_eq!(pooled, inline);
}
