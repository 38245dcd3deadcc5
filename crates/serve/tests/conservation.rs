//! Request conservation: every attempt on a running engine is shed or
//! submitted, and every submitted request ends under exactly one
//! outcome. One engine is driven through serving, dead-on-arrival,
//! pre-batch expiry, post-compute expiry, a kernel panic, shedding, a
//! batch cancelled by shutdown, requests still queued at shutdown and attempts on the
//! stopped engine; the books are then read twice, from `Engine::stats()`
//! and from `telemetry::snapshot()`. A scenario that needs a batch still
//! computing parks it with an injected `exec.band_stall`, so each one
//! runs the same in debug and release builds. One test in its own
//! binary: the telemetry registry is process-global.

use std::time::{Duration, Instant};

use megablocks_core::{DroplessMoe, MoeConfig};
use megablocks_exec::fault::{sites, FaultPlan, FaultScope};
use megablocks_exec::{configure_threads, Deadline};
use megablocks_serve::{Engine, EngineStats, ResponseHandle, ServeConfig, ServeError};
use megablocks_telemetry as telemetry;
use megablocks_tensor::init::{normal, seeded_rng};
use megablocks_tensor::Matrix;
use rand::rngs::StdRng;

const HIDDEN: usize = 64;
const MAX_BATCH: usize = 3;
/// Rows of a request whose batch is parked: enough that its SDD is a
/// multi-band launch, which has a band for the stall to park.
const HOLDER_ROWS: usize = 16;
/// How long a parked batch computes.
const HOLD: Duration = Duration::from_millis(200);

/// The engine, the requests' source, and every attempt made on it.
struct Client {
    engine: Engine,
    rng: StdRng,
    attempts: u64,
}

impl Client {
    fn tokens(&mut self, rows: usize) -> Matrix {
        normal(rows, HIDDEN, 1.0, &mut self.rng)
    }

    fn submit(
        &mut self,
        rows: usize,
        deadline: Option<Deadline>,
    ) -> Result<ResponseHandle, ServeError> {
        let tokens = self.tokens(rows);
        self.attempts += 1;
        self.engine.submit(tokens, deadline)
    }

    /// Band calls a batch of `tokens` alone makes: under a plan entered
    /// just before it, the next batch's first band call has this index.
    fn band_calls(&self, tokens: &Matrix) -> u64 {
        let plan = FaultPlan::seeded(5)
            .at_calls(&sites::EXEC_BAND_STALL, &[u64::MAX])
            .enter();
        self.engine.layer().infer(tokens).expect("infer");
        plan.report().sites.iter().map(|site| site.calls).sum()
    }

    /// Submits `tokens` with the band calls `calls` parked for `hold`, and
    /// returns once its batch is parked: what is submitted next queues
    /// behind it. Requests submitted while the returned scope lives
    /// record its plan, so a batch they lead counts on.
    fn hold(
        &mut self,
        tokens: Matrix,
        calls: &[u64],
        hold: Duration,
    ) -> (ResponseHandle, FaultScope) {
        let plan = FaultPlan::seeded(5)
            .at_calls(&sites::EXEC_BAND_STALL, calls)
            .delay_ms(hold.as_millis() as u64)
            .enter();
        self.attempts += 1;
        let held = self.engine.submit(tokens, None).expect("admitted");
        let asked = Instant::now();
        while plan.report().injected_at(&sites::EXEC_BAND_STALL) == 0 {
            assert!(
                asked.elapsed() < Duration::from_secs(30),
                "the batch never parked"
            );
            std::thread::sleep(Duration::from_micros(100));
        }
        (held, plan)
    }
}

#[test]
fn every_attempt_is_shed_or_submitted_and_every_submission_resolves_once() {
    // A one-thread pool runs every launch inline as a single band, and the
    // stall parks a band of a multi-band launch.
    configure_threads(2);
    let mut rng = seeded_rng(5);
    let layer = DroplessMoe::new(MoeConfig::new(HIDDEN, 512, 4).with_block_size(16), &mut rng);
    let engine = Engine::new(
        layer,
        ServeConfig::default()
            .with_max_batch(MAX_BATCH)
            .with_queue_cap(MAX_BATCH),
    );
    let mut client = Client {
        engine,
        rng,
        attempts: 0,
    };
    let outcome = |handle: ResponseHandle| handle.wait().map(|response| response.batch_size);

    // Serve: a backlog of `MAX_BATCH` behind a parked batch leaves as one
    // batch.
    let holder = client.tokens(HOLDER_ROWS);
    let (held, plan) = client.hold(holder, &[0], HOLD);
    let full: Vec<_> = (0..MAX_BATCH)
        .map(|_| client.submit(2, None).expect("admitted"))
        .collect();
    assert_eq!(outcome(held), Ok(1));
    for handle in full {
        assert_eq!(outcome(handle), Ok(MAX_BATCH));
    }
    drop(plan);

    // Dead on arrival: refused, but still one submission and one outcome.
    let dead = client.submit(1, Some(Deadline::after(Duration::ZERO)));
    assert_eq!(dead.err(), Some(ServeError::Expired));

    // Pre-batch expiry: the deadline passes while the request queues
    // behind a parked batch, so the undated elder rides alone.
    let holder = client.tokens(HOLDER_ROWS);
    let (held, plan) = client.hold(holder, &[0], HOLD);
    let elder = client.submit(1, None).expect("admitted");
    let doomed = client
        .submit(1, Some(Deadline::after(HOLD / 10)))
        .expect("admitted");
    assert_eq!(outcome(doomed), Err(ServeError::Expired));
    assert_eq!(outcome(elder), Ok(1));
    assert_eq!(outcome(held), Ok(1));
    drop(plan);

    // Post-compute expiry: a full batch forms behind a parked one and is
    // parked in turn. An undated co-rider leaves it unbounded, and one
    // member's deadline passes after it forms, inside its compute.
    let holder = client.tokens(HOLDER_ROWS);
    let next = client.band_calls(&holder);
    let parked = Instant::now();
    let (held, plan) = client.hold(holder, &[0, next], HOLD);
    let long = client.submit(HOLDER_ROWS, None).expect("admitted");
    let rider = client.submit(1, None).expect("admitted");
    let late = client
        .submit(1, Some(Deadline::at(parked + HOLD * 3 / 2)))
        .expect("admitted");
    assert_eq!(outcome(late), Err(ServeError::Expired));
    assert_eq!(outcome(long), Ok(MAX_BATCH), "the late member rode");
    assert_eq!(outcome(rider), Ok(MAX_BATCH));
    assert_eq!(outcome(held), Ok(1));
    drop(plan);

    // A kernel bug: a band panics with a plain payload under the batch's
    // live deadline. Only an `ExecError` payload is an abort, so this
    // panic keeps unwinding and the member resolves `Kernel`.
    let plan = FaultPlan::seeded(5)
        .at_calls(&sites::EXEC_WORKER_PANIC, &[0])
        .enter();
    let hour = Deadline::after(Duration::from_secs(3600));
    let buggy = client.submit(HOLDER_ROWS, Some(hour)).expect("admitted");
    assert!(matches!(outcome(buggy), Err(ServeError::Kernel(_))));
    drop(plan);

    // Shutdown with one batch parked, a full queue behind it and one
    // request too many.
    let holder = client.tokens(HOLDER_ROWS);
    let (in_flight, plan) = client.hold(holder, &[0], Duration::from_secs(60));
    let queued: Vec<_> = (0..MAX_BATCH)
        .map(|_| client.submit(1, None).expect("queued"))
        .collect();
    let excess = client.submit(1, None);
    assert!(matches!(excess, Err(ServeError::Overloaded { depth }) if depth == MAX_BATCH));
    client.engine.shutdown();
    drop(plan);
    assert!(matches!(outcome(in_flight), Err(ServeError::Cancelled(_))));
    for handle in queued {
        assert_eq!(outcome(handle), Err(ServeError::ShuttingDown));
    }
    // A stopped engine refuses outright: neither shed nor submitted, even
    // a request whose deadline has already passed.
    for deadline in [None, Some(Deadline::after(Duration::ZERO))] {
        let tokens = client.tokens(1);
        let refused = client.engine.submit(tokens, deadline);
        assert_eq!(refused.err(), Some(ServeError::ShuttingDown));
    }

    // The engine's books: `shed + submitted` is every attempt, and what
    // was submitted and did not end otherwise completed.
    let stats = client.engine.stats();
    let attempts = client.attempts;
    let (shed, expired, cancelled, kernel, shutdown) = (1, 3, 1, 1, MAX_BATCH as u64);
    let expected = EngineStats {
        submitted: attempts - shed,
        completed: attempts - shed - expired - cancelled - kernel - shutdown,
        shed,
        expired,
        cancelled,
        kernel,
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
    // The kernel bug's batch panicked; only the shutdown's was cancelled.
    assert_eq!(counter("serve.batch_panicked", None), kernel);
    assert_eq!(counter("serve.batch_cancelled", None), cancelled);
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
