//! Chaos drills for the exec runtime's overload and stall sites.
//!
//! `pool.queue_flood` forces the admission decision a flooded queue
//! would produce, proving the shed/degrade split end to end;
//! `exec.band_stall` parks a band mid-launch, proving the launch's
//! deadline cuts the stall short instead of letting it hang.

use std::time::{Duration, Instant};

use megablocks_exec::{
    cancel, configure_threads, pool, queue_cap, Ctx, Deadline, ExecError, LaunchPlan,
};
use megablocks_resilience::{clear_plan, install_plan, report, sites, FaultPlan};
use megablocks_telemetry as telemetry;

// The fault plan is process-global: chaos tests serialize under a lock
// so installs cannot race each other.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn queue_flood_sheds_latency_bound_launches() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    configure_threads(4);
    install_plan(FaultPlan::seeded(21).at_calls(&sites::POOL_QUEUE_FLOOD, &[0]));

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
    assert_eq!(report().injected_at(&sites::POOL_QUEUE_FLOOD), 1);
    // The shed launch queued nothing: the bound on queue depth holds
    // through the flood.
    assert!(pool().queue_depth() <= queue_cap());
    clear_plan();
}

#[test]
fn queue_flood_degrades_plain_launches_inline() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    configure_threads(4);
    install_plan(FaultPlan::seeded(22).at_calls(&sites::POOL_QUEUE_FLOOD, &[0]));

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
    assert_eq!(report().injected_at(&sites::POOL_QUEUE_FLOOD), 1);
    let want = (n * (n + 1)) as f64;
    assert_eq!(data.iter().map(|&v| v as f64).sum::<f64>(), want);
    clear_plan();
}

#[test]
fn band_stall_is_cut_by_the_deadline_within_budget() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    configure_threads(4);
    // One band parks for 30 s — far past the launch's 50 ms deadline. The
    // parked band must notice the expiry via its cancellation poll, and
    // the whole launch must unwind in a small multiple of the deadline
    // rather than the injected delay.
    install_plan(
        FaultPlan::seeded(23)
            .at_calls(&sites::EXEC_BAND_STALL, &[0])
            .delay_ms(30_000),
    );
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
    assert_eq!(report().injected_at(&sites::EXEC_BAND_STALL), 1);
    assert_eq!(
        detected.get(),
        detected_before + 1,
        "the cut-short stall counts as detected"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "a 50ms deadline must unwind a 30s injected stall promptly, took {elapsed:?}"
    );
    clear_plan();
}
