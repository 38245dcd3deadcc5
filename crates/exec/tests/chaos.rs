//! Chaos drills for the exec runtime's overload and stall sites.
//!
//! `pool.queue_flood` forces the admission decision a flooded queue
//! would produce, proving the shed/degrade split end to end;
//! `exec.band_stall` parks a band mid-launch, proving the launch's
//! deadline cuts the stall short instead of letting it hang. A plan is
//! in force only for the work done under its scope, so these drills run
//! side by side, and two threads may drill the same site at once.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use megablocks_exec::fault::{sites, FaultPlan};
use megablocks_exec::{
    cancel, configure_threads, pool, queue_cap, Ctx, Deadline, ExecError, LaunchPlan,
};
use megablocks_telemetry as telemetry;

#[test]
fn queue_flood_sheds_latency_bound_launches() {
    configure_threads(4);
    let plan = FaultPlan::seeded(21)
        .at_calls(&sites::POOL_QUEUE_FLOOD, &[0])
        .enter();

    let mut data = vec![0.0f32; 4096];
    let body = |band: &mut [f32], _i0: usize| band.fill(1.0);
    let ctx = Ctx::none().with_deadline(Deadline::after(Duration::from_secs(3600)));
    let _scope = cancel::enter(&ctx);
    let result = LaunchPlan::over_items("test.chaos.flood", &mut data, 1, 512, &body).try_launch();
    assert_eq!(
        result,
        Err(ExecError::Overloaded {
            op: "test.chaos.flood"
        })
    );
    assert_eq!(plan.report().injected_at(&sites::POOL_QUEUE_FLOOD), 1);
    // The shed launch queued nothing: the bound on queue depth holds
    // through the flood.
    assert!(pool().queue_depth() <= queue_cap());
}

#[test]
fn queue_flood_degrades_plain_launches_inline() {
    configure_threads(4);
    let plan = FaultPlan::seeded(22)
        .at_calls(&sites::POOL_QUEUE_FLOOD, &[0])
        .enter();

    let n = 4096usize;
    let mut data: Vec<f32> = (1..=n).map(|v| v as f32).collect();
    let body = |band: &mut [f32], _i0: usize| {
        for v in band.iter_mut() {
            *v *= 2.0;
        }
    };
    // No deadline: the flooded launch degrades to inline execution and
    // still completes with the right answer.
    LaunchPlan::over_items("test.chaos.flood_plain", &mut data, 1, n / 8, &body)
        .try_launch()
        .expect("plain work must survive a flood by degrading inline");
    assert_eq!(plan.report().injected_at(&sites::POOL_QUEUE_FLOOD), 1);
    let want = (n * (n + 1)) as f64;
    assert_eq!(data.iter().map(|&v| v as f64).sum::<f64>(), want);
}

#[test]
fn band_stall_is_cut_by_the_deadline_within_budget() {
    configure_threads(4);
    // One band parks for 30 s — far past the launch's 50 ms deadline. The
    // parked band must notice the expiry via its cancellation poll, and
    // the whole launch must unwind in a small multiple of the deadline
    // rather than the injected delay.
    let plan = FaultPlan::seeded(23)
        .at_calls(&sites::EXEC_BAND_STALL, &[0])
        .delay_ms(30_000)
        .enter();
    let detected = telemetry::counter(sites::EXEC_BAND_STALL.detected);
    let detected_before = detected.get();

    let mut data = vec![0.0f32; 4096];
    let body = |band: &mut [f32], _i0: usize| band.fill(1.0);
    let ctx = Ctx::none().with_deadline(Deadline::after(Duration::from_millis(50)));
    let _scope = cancel::enter(&ctx);
    let start = Instant::now();
    let result = LaunchPlan::over_items("test.chaos.stall", &mut data, 1, 512, &body).try_launch();
    let elapsed = start.elapsed();
    assert_eq!(
        result,
        Err(ExecError::DeadlineExceeded {
            op: "test.chaos.stall"
        }),
        "the deadline must end the stalled launch"
    );
    assert_eq!(plan.report().injected_at(&sites::EXEC_BAND_STALL), 1);
    assert_eq!(
        detected.get(),
        detected_before + 1,
        "the cut-short stall counts as detected"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "a 50ms deadline must unwind a 30s injected stall promptly, took {elapsed:?}"
    );
}

#[test]
fn concurrent_scopes_count_only_their_own_calls() {
    configure_threads(4);
    const LAUNCHES: u64 = 6;
    const BANDS: u64 = 8;
    // Both threads enter their plan before either launches, and neither
    // reads its report before both are done, so the two scopes overlap
    // for the whole drill.
    let entered = Barrier::new(2);
    let done = Barrier::new(2);
    let drill = |calls: &[u64]| {
        let plan = FaultPlan::seeded(24)
            .at_calls(&sites::EXEC_BAND_STALL, calls)
            .delay_ms(1)
            .enter();
        entered.wait();
        let body = |band: &mut [f32], _i0: usize| band.fill(1.0);
        for _ in 0..LAUNCHES {
            let mut data = vec![0.0f32; 4096];
            let launch = LaunchPlan::over_items("test.chaos.scopes", &mut data, 1, 512, &body);
            assert_eq!(launch.bands() as u64, BANDS);
            launch.launch();
            assert!(data.iter().all(|&v| v == 1.0));
        }
        done.wait();
        plan.report().sites
    };
    #[allow(
        clippy::disallowed_methods,
        reason = "two submitting threads, each under its own plan, are the case under test"
    )]
    let (first, second) = std::thread::scope(|s| {
        let first = s.spawn(|| drill(&[0, 9]));
        let second = s.spawn(|| drill(&[1, 2, 3]));
        (first.join(), second.join())
    });
    for (report, injected) in [(first, 2), (second, 3)] {
        let report = report.expect("the drill completes");
        assert_eq!(report.len(), 1);
        let site = &report[0];
        assert_eq!(site.site, sites::EXEC_BAND_STALL.name);
        assert_eq!(site.calls, LAUNCHES * BANDS, "{report:?}");
        assert_eq!(site.injected, injected, "{report:?}");
    }
}
