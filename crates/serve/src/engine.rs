//! The micro-batching engine: bounded admission queue, work-conserving
//! batch formation, deadline-aware execution, per-request responses.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use megablocks_core::DroplessMoe;
use megablocks_exec::{cancel, CancelKind, CancelToken, Ctx, Deadline, ExecError};
use megablocks_telemetry as telemetry;
use megablocks_tensor::Matrix;

/// Size bounds for the serving engine: the product defaults, overridden
/// with the builder methods. Nothing here is a timer: a batch forms the
/// moment the batcher is free and a request is queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum requests per micro-batch (default 8). A batch takes at
    /// most this many of the queued requests, oldest first.
    pub max_batch: usize,
    /// Admission-queue bound (default 64). Submissions past this shed
    /// with [`ServeError::Overloaded`].
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            queue_cap: 64,
        }
    }
}

impl ServeConfig {
    /// Overrides the per-batch request cap (must be nonzero).
    pub fn with_max_batch(mut self, n: usize) -> Self {
        assert!(n > 0, "max_batch must be nonzero");
        self.max_batch = n;
        self
    }

    /// Overrides the admission-queue bound (must be nonzero).
    pub fn with_queue_cap(mut self, n: usize) -> Self {
        assert!(n > 0, "queue_cap must be nonzero");
        self.queue_cap = n;
        self
    }
}

/// Why a request did not produce an output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was at [`ServeConfig::queue_cap`]; the
    /// request was shed without being enqueued. Carries the queue
    /// depth observed at rejection.
    Overloaded {
        /// Queue depth at the moment of rejection.
        depth: usize,
    },
    /// The request's deadline passed before its batch was formed (or
    /// before its batch finished computing).
    Expired,
    /// The batch this request rode in was cancelled mid-flight
    /// (engine shutdown, or a composite-context trip).
    Cancelled(CancelKind),
    /// The batch failed in compute — a kernel rejected it (corrupt
    /// topology metadata or a sanitizer failure) or panicked — not
    /// load-related.
    Kernel(String),
    /// The engine is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "serve queue overloaded (depth {depth})")
            }
            ServeError::Expired => write!(f, "request deadline expired before completion"),
            ServeError::Cancelled(kind) => write!(f, "batch cancelled: {kind:?}"),
            ServeError::Kernel(msg) => write!(f, "kernel error: {msg}"),
            ServeError::ShuttingDown => write!(f, "serving engine is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A completed request: the layer output plus latency accounting.
#[derive(Debug, Clone)]
pub struct Response {
    /// Layer output for this request's tokens (`rows x hidden_size`).
    pub output: Matrix,
    /// Time spent queued before its batch formed.
    pub queue_wait: Duration,
    /// End-to-end latency from submit to resolution.
    pub latency: Duration,
    /// Number of requests in the batch this one rode in.
    pub batch_size: usize,
}

/// One request's resolution slot, shared between the submitting thread
/// and the batcher.
#[derive(Debug, Default)]
struct Slot {
    state: Mutex<Option<Result<Response, ServeError>>>,
    cv: Condvar,
}

impl Slot {
    fn resolve(&self, result: Result<Response, ServeError>) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        *state = Some(result);
        self.cv.notify_all();
    }
}

/// A handle to a submitted request; redeem it with
/// [`ResponseHandle::wait`].
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<Slot>,
}

impl ResponseHandle {
    /// Blocks until the request resolves.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut state = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self.slot.cv.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// A queued request awaiting batch formation. Every request resolves
/// exactly once: through [`Pending::resolve`], or — when a batch unwinds
/// before reaching it — on drop, so no waiter is ever stranded. Both
/// count the outcome, so `submitted` equals the sum of the outcomes
/// once the queue is empty.
struct Pending {
    tokens: Matrix,
    deadline: Option<Deadline>,
    /// The fault plan in force at [`Engine::submit`] ([`Ctx::detached`]):
    /// a batch runs under its first member's.
    faults: Ctx,
    submitted: Instant,
    slot: Arc<Slot>,
    counters: Arc<Counters>,
    resolved: bool,
}

impl Pending {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| d.expired())
    }

    fn resolve(mut self, result: Result<Response, ServeError>) {
        self.resolved = true;
        // Count before resolving: a waiter woken by the resolve must
        // already see this request in the stats.
        self.counters.count_resolved(Outcome::of(&result));
        self.slot.resolve(result);
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if !self.resolved {
            self.counters.count_resolved(Outcome::Kernel);
            self.slot.resolve(Err(ServeError::Kernel(
                "the batch panicked before resolving this request".into(),
            )));
        }
    }
}

/// How an admitted request ended; indexes [`Counters::resolved`] and
/// labels the `serve.resolved` counter family.
#[derive(Clone, Copy)]
enum Outcome {
    Completed,
    Expired,
    Cancelled,
    Kernel,
    Shutdown,
}

impl Outcome {
    const LABELS: [&'static str; 5] = ["completed", "expired", "cancelled", "kernel", "shutdown"];

    fn of(result: &Result<Response, ServeError>) -> Outcome {
        match result {
            Ok(_) => Outcome::Completed,
            Err(ServeError::Expired) => Outcome::Expired,
            Err(ServeError::Cancelled(_)) => Outcome::Cancelled,
            Err(ServeError::Kernel(_)) => Outcome::Kernel,
            Err(ServeError::ShuttingDown) => Outcome::Shutdown,
            Err(ServeError::Overloaded { .. }) => {
                unreachable!("a shed request is refused before it is queued")
            }
        }
    }
}

/// Monotonic counters describing an engine's lifetime. Every admitted
/// request ends under exactly one outcome, so once nothing is queued or
/// in flight `submitted == completed + expired + cancelled + kernel +
/// shutdown`; every [`Engine::submit`] on a running engine is either
/// `shed` or `submitted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Requests admitted: queued, or already past their deadline on
    /// arrival (those count under `expired` at once).
    pub submitted: u64,
    /// Requests resolved with an output.
    pub completed: u64,
    /// Requests shed at admission ([`ServeError::Overloaded`]).
    pub shed: u64,
    /// Requests dropped for a passed deadline (on arrival, pre-batch,
    /// mid-compute or post-compute).
    pub expired: u64,
    /// Requests whose batch was cancelled mid-flight
    /// ([`ServeError::Cancelled`]).
    pub cancelled: u64,
    /// Requests whose batch failed or panicked in compute
    /// ([`ServeError::Kernel`]).
    pub kernel: u64,
    /// Requests still queued when the engine shut down
    /// ([`ServeError::ShuttingDown`]).
    pub shutdown: u64,
    /// Batches executed.
    pub batches: u64,
    /// Largest queue depth observed at any admission.
    pub max_queue_depth: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    shed: AtomicU64,
    resolved: [AtomicU64; Outcome::LABELS.len()],
    batches: AtomicU64,
    max_queue_depth: AtomicUsize,
}

impl Counters {
    fn observe_depth(&self, depth: usize) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    fn count_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        telemetry::counter("serve.submitted").inc();
    }

    fn count_resolved(&self, outcome: Outcome) {
        self.resolved[outcome as usize].fetch_add(1, Ordering::Relaxed);
        telemetry::counter_with("serve.resolved", Outcome::LABELS[outcome as usize]).inc();
    }

    fn snapshot(&self) -> EngineStats {
        let resolved = |outcome: Outcome| self.resolved[outcome as usize].load(Ordering::Relaxed);
        EngineStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: resolved(Outcome::Completed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: resolved(Outcome::Expired),
            cancelled: resolved(Outcome::Cancelled),
            kernel: resolved(Outcome::Kernel),
            shutdown: resolved(Outcome::Shutdown),
            batches: self.batches.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed) as u64,
        }
    }
}

struct State {
    queue: VecDeque<Pending>,
    running: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    cfg: ServeConfig,
    root: CancelToken,
    counters: Arc<Counters>,
    layer: DroplessMoe,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The batched inference serving engine.
///
/// Owns a dMoE layer and one batcher thread. Submitting threads hand
/// token batches to [`Engine::submit`] and block on the returned
/// [`ResponseHandle`]; the batcher forms micro-batches, runs them
/// through [`DroplessMoe::infer`] under the batch's context, and resolves
/// each member. The engine shuts down (cancelling in-flight batches
/// mid-kernel) on [`Engine::shutdown`] or drop.
pub struct Engine {
    shared: Arc<Shared>,
    batcher: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cfg", &self.shared.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Engine {
    /// Starts an engine serving `layer` under `cfg`.
    pub fn new(layer: DroplessMoe, cfg: ServeConfig) -> Self {
        assert!(cfg.max_batch > 0, "max_batch must be nonzero");
        assert!(cfg.queue_cap > 0, "queue_cap must be nonzero");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                running: true,
            }),
            cv: Condvar::new(),
            cfg,
            root: CancelToken::new(),
            counters: Arc::default(),
            layer,
        });
        let worker = Arc::clone(&shared);
        // The batcher is a control-plane thread (it blocks on a condvar
        // waiting for requests), not a compute worker; all kernel work
        // it triggers still launches through the exec pool.
        #[allow(
            clippy::disallowed_methods,
            reason = "batcher control thread blocks on the admission condvar; compute still goes through the exec pool"
        )]
        let batcher = std::thread::Builder::new()
            .name("mb-serve-batcher".into())
            .spawn(move || batcher_loop(&worker))
            .expect("spawn serve batcher");
        Engine {
            shared,
            batcher: Some(batcher),
        }
    }

    /// The layer being served.
    pub fn layer(&self) -> &DroplessMoe {
        &self.shared.layer
    }

    /// Lifetime counters.
    pub fn stats(&self) -> EngineStats {
        self.shared.counters.snapshot()
    }

    /// Submits `tokens` (`rows x hidden_size`) with an optional
    /// deadline; returns a handle resolving to the layer output for
    /// exactly those rows.
    ///
    /// # Errors
    ///
    /// * [`ServeError::ShuttingDown`] — the engine stopped. Checked first:
    ///   a stopped engine counts the attempt nowhere.
    /// * [`ServeError::Expired`] — the deadline had already passed.
    /// * [`ServeError::Overloaded`] — queue at capacity; request shed.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.cols()` does not match the layer's hidden
    /// size, or if `tokens` has zero rows.
    pub fn submit(
        &self,
        tokens: Matrix,
        deadline: Option<Deadline>,
    ) -> Result<ResponseHandle, ServeError> {
        assert_eq!(
            tokens.cols(),
            self.shared.layer.config().hidden_size,
            "request feature size mismatch"
        );
        assert!(tokens.rows() > 0, "empty request");
        let mut state = self.shared.lock();
        if !state.running {
            return Err(ServeError::ShuttingDown);
        }
        if deadline.is_some_and(|d| d.expired()) {
            // Dead on arrival: admitted and resolved in one step, so
            // `shed + submitted` still counts every attempt.
            drop(state);
            self.shared.counters.count_submitted();
            self.shared.counters.count_resolved(Outcome::Expired);
            return Err(ServeError::Expired);
        }
        let depth = state.queue.len();
        if depth >= self.shared.cfg.queue_cap {
            drop(state);
            self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("serve.shed").inc();
            telemetry::trace_instant("serve.shed");
            return Err(ServeError::Overloaded { depth });
        }
        let slot = Arc::new(Slot::default());
        state.queue.push_back(Pending {
            tokens,
            deadline,
            faults: cancel::current().detached(),
            submitted: Instant::now(),
            slot: Arc::clone(&slot),
            counters: Arc::clone(&self.shared.counters),
            resolved: false,
        });
        let depth = state.queue.len();
        drop(state);
        self.shared.counters.observe_depth(depth);
        self.shared.counters.count_submitted();
        telemetry::gauge("serve.queue_depth").set(depth as f64);
        telemetry::trace_counter_event("serve.queue_depth", depth as f64);
        self.shared.cv.notify_one();
        Ok(ResponseHandle { slot })
    }

    /// Stops the engine: no further admissions, in-flight batches are
    /// cancelled mid-kernel through the root token, queued requests
    /// resolve [`ServeError::ShuttingDown`], and the batcher thread is
    /// joined. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.shared.lock();
            state.running = false;
        }
        self.shared.root.cancel();
        self.shared.cv.notify_all();
        if let Some(handle) = self.batcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Walks the queue and resolves every already-expired request with
/// [`ServeError::Expired`] — called before each batch formation so dead
/// requests never occupy a batch slot.
fn drop_expired(state: &mut State) {
    let before = state.queue.len();
    if before == 0 {
        return;
    }
    let mut kept = VecDeque::with_capacity(before);
    for pending in state.queue.drain(..) {
        if pending.expired() {
            telemetry::trace_instant("serve.expired");
            pending.resolve(Err(ServeError::Expired));
        } else {
            kept.push_back(pending);
        }
    }
    state.queue = kept;
}

/// Forms each batch the moment the batcher is free and a live request is
/// queued: the next `min(queue.len(), max_batch)` requests, oldest first.
/// Requests that arrive while a batch computes queue behind it and are
/// the next batch, so batches grow with load without a timer.
fn batcher_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut state = shared.lock();
            loop {
                if !state.running {
                    // Drain the queue so no submitter blocks forever.
                    for pending in state.queue.drain(..) {
                        pending.resolve(Err(ServeError::ShuttingDown));
                    }
                    return;
                }
                drop_expired(&mut state);
                if !state.queue.is_empty() {
                    break;
                }
                state = shared.cv.wait(state).unwrap_or_else(|p| p.into_inner());
            }
            let take = state.queue.len().min(shared.cfg.max_batch);
            state.queue.drain(..take).collect::<Vec<_>>()
        };
        // A panic inside the batch (a re-raised band panic, a debug-build
        // sanitizer assertion) must not take the batcher down with it: the unwind drops
        // the batch, which resolves its members, and the loop keeps
        // serving the queue.
        if catch_unwind(AssertUnwindSafe(|| run_batch(shared, batch))).is_err() {
            telemetry::counter("serve.batch_panicked").inc();
            telemetry::trace_instant("serve.batch_panicked");
        }
    }
}

/// Concatenates the batch's token rows, runs the inference pass under a
/// composite context, and resolves every member.
fn run_batch(shared: &Shared, batch: Vec<Pending>) {
    let _span = telemetry::span("serve.batch");
    let hidden = shared.layer.config().hidden_size;
    let total_rows: usize = batch.iter().map(|p| p.tokens.rows()).sum();
    let batch_size = batch.len();
    let formed = Instant::now();

    let mut input = Matrix::pooled_zeros(total_rows, hidden);
    {
        let data = input.as_mut_slice();
        let mut row0 = 0;
        for pending in &batch {
            let rows = pending.tokens.rows();
            data[row0 * hidden..(row0 + rows) * hidden].copy_from_slice(pending.tokens.as_slice());
            row0 += rows;
        }
    }

    // Composite context: cancellable by shutdown, bounded by the
    // *latest* member deadline (the batch is still worth finishing
    // while any member can meet its own deadline; members that
    // individually expired mid-compute are filtered on resolution).
    // A member without a deadline leaves the batch unbounded. The batch
    // runs under its first member's fault plan.
    let mut ctx = batch[0].faults.clone().with_token(&shared.root.child());
    if batch.iter().all(|p| p.deadline.is_some()) {
        let latest = batch
            .iter()
            .filter_map(|p| p.deadline)
            .max_by_key(Deadline::remaining);
        if let Some(deadline) = latest {
            ctx = ctx.with_deadline(deadline);
        }
    }

    telemetry::histogram("serve.batch_size").record(batch_size as u64);
    telemetry::counter("serve.batches").inc();
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);

    // A tripped context unwinds out of whichever launch sees it first
    // with the `ExecError` itself as the payload. Any other panic — even
    // one racing a deadline or shutdown — keeps unwinding to the batcher
    // and resolves `Kernel`.
    let result = {
        let _scope = cancel::enter(&ctx);
        match catch_unwind(AssertUnwindSafe(|| shared.layer.infer(&input))) {
            Ok(Ok(output)) => Ok(output),
            Ok(Err(error)) => Err(ServeError::Kernel(error.to_string())),
            Err(panic) => match panic.downcast::<ExecError>() {
                Ok(error) => Err(match error.kind() {
                    CancelKind::DeadlineExceeded => ServeError::Expired,
                    other => ServeError::Cancelled(other),
                }),
                Err(panic) => resume_unwind(panic),
            },
        }
    };
    match result {
        Ok(output) => {
            let mut row0 = 0;
            for pending in batch {
                let rows = pending.tokens.rows();
                let slice = output.rows_range(row0, row0 + rows);
                row0 += rows;
                if pending.expired() {
                    // Finished compute, but past this member's own
                    // deadline: the caller's budget is blown either way.
                    pending.resolve(Err(ServeError::Expired));
                    continue;
                }
                let queue_wait = formed.duration_since(pending.submitted);
                let latency = pending.submitted.elapsed();
                telemetry::histogram("serve.queue_wait_us").record(queue_wait.as_micros() as u64);
                telemetry::histogram("serve.latency_us").record(latency.as_micros() as u64);
                pending.resolve(Ok(Response {
                    output: slice,
                    queue_wait,
                    latency,
                    batch_size,
                }));
            }
        }
        Err(error) => {
            if !matches!(error, ServeError::Kernel(_)) {
                telemetry::counter("serve.batch_cancelled").inc();
                telemetry::trace_instant("serve.batch_cancelled");
            }
            for pending in batch {
                pending.resolve(Err(error.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_core::MoeConfig;
    use megablocks_tensor::init::{normal, seeded_rng};

    fn small_layer() -> (DroplessMoe, rand::rngs::StdRng) {
        let moe = MoeConfig::new(6, 8, 3).with_block_size(4);
        let mut rng = seeded_rng(11);
        (DroplessMoe::new(moe, &mut rng), rng)
    }

    fn small_engine(cfg: ServeConfig) -> (Engine, rand::rngs::StdRng) {
        let (layer, rng) = small_layer();
        (Engine::new(layer, cfg), rng)
    }

    /// A queued request for `tokens`, counted in `counters`, and the
    /// handle it resolves — built by hand to reach past `submit`.
    fn pending(tokens: Matrix, counters: &Arc<Counters>) -> (Pending, ResponseHandle) {
        let slot = Arc::new(Slot::default());
        let pending = Pending {
            tokens,
            deadline: None,
            faults: Ctx::none(),
            submitted: Instant::now(),
            slot: Arc::clone(&slot),
            counters: Arc::clone(counters),
            resolved: false,
        };
        (pending, ResponseHandle { slot })
    }

    #[test]
    fn batched_output_is_bit_identical_to_sequential() {
        let (engine, mut rng) = small_engine(ServeConfig::default().with_max_batch(4));
        let requests: Vec<Matrix> = (0..4).map(|_| normal(3, 6, 1.0, &mut rng)).collect();
        let handles: Vec<_> = requests
            .iter()
            .map(|r| engine.submit(r.clone(), None).expect("admitted"))
            .collect();
        for (request, handle) in requests.iter().zip(handles) {
            let response = handle.wait().expect("served");
            let sequential = engine.layer().infer(request).unwrap();
            assert_eq!(
                response.output.as_slice(),
                sequential.as_slice(),
                "batched result diverged from sequential"
            );
            assert!(response.batch_size >= 1 && response.batch_size <= 4);
        }
        assert_eq!(engine.stats().completed, 4);
    }

    #[test]
    fn shutdown_resolves_queued_requests() {
        let (mut engine, mut rng) = small_engine(ServeConfig::default());
        let handle = engine
            .submit(normal(1, 6, 1.0, &mut rng), None)
            .expect("admitted");
        engine.shutdown();
        match handle.wait() {
            Err(ServeError::ShuttingDown) | Err(ServeError::Cancelled(_)) | Ok(_) => {}
            other => panic!("unexpected shutdown resolution: {other:?}"),
        }
        let refused = engine.submit(normal(1, 6, 1.0, &mut rng), None);
        assert_eq!(refused.err(), Some(ServeError::ShuttingDown));
    }

    #[test]
    fn flood_keeps_queue_depth_bounded() {
        // Open-loop flood at a tiny queue cap: everything either
        // resolves or sheds, and the observed depth never exceeds the
        // cap.
        let cap = 4;
        let (engine, mut rng) =
            small_engine(ServeConfig::default().with_max_batch(2).with_queue_cap(cap));
        let mut handles = Vec::new();
        let mut shed = 0u64;
        for _ in 0..200 {
            match engine.submit(normal(1, 6, 1.0, &mut rng), None) {
                Ok(h) => handles.push(h),
                Err(ServeError::Overloaded { depth }) => {
                    assert!(depth <= cap, "shed at depth {depth} past cap {cap}");
                    shed += 1;
                }
                Err(other) => panic!("unexpected flood error: {other:?}"),
            }
        }
        let served = handles.len() as u64;
        for handle in handles {
            handle.wait().expect("admitted flood request served");
        }
        let stats = engine.stats();
        assert!(
            stats.max_queue_depth <= cap as u64,
            "queue depth {} exceeded cap {cap}",
            stats.max_queue_depth
        );
        assert_eq!(stats.submitted, served);
        assert_eq!(stats.shed, shed);
    }

    #[test]
    fn a_glue_kernel_abort_resolves_every_member_cancelled() {
        let (layer, mut rng) = small_layer();
        let shared = Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                running: true,
            }),
            cv: Condvar::new(),
            cfg: ServeConfig::default(),
            root: CancelToken::new(),
            counters: Arc::default(),
            layer,
        };
        shared.root.cancel();
        let (batch, handles): (Vec<_>, Vec<_>) = (0..3)
            .map(|_| pending(normal(2, 6, 1.0, &mut rng), &shared.counters))
            .unzip();
        // The batch's first launch is the router's GEMM, a glue kernel: it
        // refuses the dead context and unwinds with its `ExecError`.
        run_batch(&shared, batch);
        for handle in handles {
            assert_eq!(
                handle.wait().err(),
                Some(ServeError::Cancelled(CancelKind::Cancelled))
            );
        }
        assert_eq!(shared.counters.snapshot().cancelled, 3);
    }

    #[test]
    fn an_unresolved_pending_resolves_and_counts_on_drop() {
        let counters = Arc::new(Counters::default());
        let (unresolved, handle) = pending(Matrix::zeros(1, 6), &counters);
        drop(unresolved);
        assert!(matches!(handle.wait(), Err(ServeError::Kernel(_))));
        assert_eq!(counters.snapshot().kernel, 1);
    }

    #[test]
    fn the_engine_keeps_serving_after_a_contained_batch_panic() {
        let (engine, mut rng) = small_engine(ServeConfig::default());
        // `submit` validates shapes, so reach past it: a request with the
        // wrong feature size makes `run_batch` panic while packing rows.
        let (bad, poisoned) = pending(Matrix::zeros(2, 5), &engine.shared.counters);
        engine.shared.lock().queue.push_back(bad);
        engine.shared.cv.notify_one();
        assert!(matches!(poisoned.wait(), Err(ServeError::Kernel(_))));
        assert_eq!(engine.stats().kernel, 1);

        let request = normal(3, 6, 1.0, &mut rng);
        let response = engine
            .submit(request.clone(), None)
            .expect("admitted")
            .wait()
            .expect("served after the panic");
        let sequential = engine.layer().infer(&request).unwrap();
        assert_eq!(response.output.as_slice(), sequential.as_slice());
    }
}
