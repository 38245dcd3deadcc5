//! Request conservation: every attempt on a running engine is shed or
//! submitted, and every submitted request ends under exactly one
//! outcome. One engine is driven through serving, dead-on-arrival,
//! pre-batch expiry, post-compute expiry, shedding, a batch cancelled by
//! shutdown and requests still queued at shutdown; the books are then
//! read twice, from `Engine::stats()` and from `telemetry::snapshot()`.
//! One test in its own binary: the registry is process-global.

use std::time::{Duration, Instant};

use megablocks_core::{DroplessMoe, MoeConfig};
use megablocks_exec::Deadline;
use megablocks_serve::{Engine, EngineStats, ResponseHandle, ServeConfig, ServeError};
use megablocks_telemetry as telemetry;
use megablocks_tensor::init::{normal, seeded_rng};

const HIDDEN: usize = 64;
const MAX_BATCH: usize = 3;
const MAX_WAIT: Duration = Duration::from_millis(10);

#[test]
fn every_attempt_is_shed_or_submitted_and_every_submission_resolves_once() {
    let mut rng = seeded_rng(5);
    let layer = DroplessMoe::new(MoeConfig::new(HIDDEN, 512, 4).with_block_size(16), &mut rng);
    let mut engine = Engine::new(
        layer,
        ServeConfig::default()
            .with_max_batch(MAX_BATCH)
            .with_queue_cap(MAX_BATCH)
            .with_max_wait(MAX_WAIT),
    );
    let mut attempts = 0u64;
    let mut submit = |engine: &Engine, rows: usize, deadline: Option<Deadline>| {
        attempts += 1;
        engine.submit(normal(rows, HIDDEN, 1.0, &mut rng), deadline)
    };
    let outcome = |handle: ResponseHandle| handle.wait().map(|response| response.batch_size);

    // Serve: a full batch closes on the size trigger.
    let full: Vec<_> = (0..MAX_BATCH)
        .map(|_| submit(&engine, 2, None).expect("admitted"))
        .collect();
    for handle in full {
        assert_eq!(outcome(handle), Ok(MAX_BATCH));
    }

    // Dead on arrival: refused, but still one submission and one outcome.
    let dead = submit(&engine, 1, Some(Deadline::after(Duration::ZERO)));
    assert_eq!(dead.err(), Some(ServeError::Expired));

    // Pre-batch expiry: the deadline passes while the request waits out
    // an unhurried elder's batching window, so the elder rides alone.
    let elder = submit(&engine, 1, None).expect("admitted");
    let doomed = submit(&engine, 1, Some(Deadline::after(MAX_WAIT / 10))).expect("admitted");
    assert_eq!(outcome(doomed), Err(ServeError::Expired));
    assert_eq!(outcome(elder), Ok(1));

    // The next two scenarios need a batch that is still computing when
    // something else happens. Debug and release builds differ ~50x in
    // speed, so size the request by measurement: double it until one
    // batch computes for a few batching windows.
    let mut rows = 256;
    loop {
        let handle = submit(&engine, rows, None).expect("admitted");
        let response = handle.wait().expect("served");
        if response.latency - response.queue_wait >= 4 * MAX_WAIT {
            break;
        }
        rows *= 2;
    }

    // Post-compute expiry: a full batch forms at once, an undated
    // co-rider leaves it unbounded, and one member's deadline falls
    // inside the compute window.
    let long = submit(&engine, rows, None).expect("admitted");
    let rider = submit(&engine, 1, None).expect("admitted");
    let late = submit(&engine, 1, Some(Deadline::after(MAX_WAIT))).expect("admitted");
    assert_eq!(outcome(late), Err(ServeError::Expired));
    assert_eq!(outcome(long), Ok(MAX_BATCH), "the late member rode");
    assert_eq!(outcome(rider), Ok(MAX_BATCH));

    // Shutdown with one batch in flight, a full queue behind it and one
    // request too many.
    let batches = engine.stats().batches;
    let in_flight = submit(&engine, 2 * rows, None).expect("admitted");
    let asked = Instant::now();
    while engine.stats().batches == batches {
        assert!(asked.elapsed() < Duration::from_secs(30), "batch never ran");
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued: Vec<_> = (0..MAX_BATCH)
        .map(|_| submit(&engine, 1, None).expect("queued"))
        .collect();
    let excess = submit(&engine, 1, None);
    assert!(matches!(excess, Err(ServeError::Overloaded { depth }) if depth >= MAX_BATCH));
    engine.shutdown();
    assert!(matches!(outcome(in_flight), Err(ServeError::Cancelled(_))));
    for handle in queued {
        assert_eq!(outcome(handle), Err(ServeError::ShuttingDown));
    }
    // A stopped engine refuses outright: neither shed nor submitted.
    let refused = engine.submit(normal(1, HIDDEN, 1.0, &mut rng), None);
    assert_eq!(refused.err(), Some(ServeError::ShuttingDown));

    // The engine's books: `shed + submitted` is every attempt, and what
    // was submitted and did not end otherwise completed.
    let stats = engine.stats();
    let (shed, expired, cancelled, shutdown) = (1, 3, 1, MAX_BATCH as u64);
    let expected = EngineStats {
        submitted: attempts - shed,
        completed: attempts - shed - expired - cancelled - shutdown,
        shed,
        expired,
        cancelled,
        kernel: 0,
        shutdown,
        // Filled to the cap just above, never past it.
        max_queue_depth: MAX_BATCH as u64,
        ..stats
    };
    assert_eq!(stats, expected);

    // The export tells the same story.
    let snap = telemetry::snapshot();
    let counter = |name: &str, label: Option<&str>| {
        let mut rows = snap.counters.iter();
        let row = rows.find(|row| row.name == name && row.label.as_deref() == label);
        row.map_or(0, |row| row.value)
    };
    assert_eq!(counter("serve.submitted", None), stats.submitted);
    assert_eq!(counter("serve.shed", None), stats.shed);
    for (label, value) in [
        ("completed", stats.completed),
        ("expired", stats.expired),
        ("cancelled", stats.cancelled),
        ("kernel", stats.kernel),
        ("shutdown", stats.shutdown),
    ] {
        assert_eq!(counter("serve.resolved", Some(label)), value, "{label}");
    }
}
