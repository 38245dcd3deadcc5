//! The persistent worker pool.
//!
//! One pool per process, initialized lazily on the first pooled launch.
//! Worker threads are spawned once and live for the lifetime of the
//! process. A launch is one shared [`Launch`] whose bands sit behind a
//! claim counter: the submitter queues handles to it, and every thread
//! that runs bands — the submitter, a worker, a degraded launch — claims
//! them one at a time through the same `drain` loop; a one-band launch
//! is a direct call. It is the CPU analogue of the paper's threadblocks,
//! which find their own work in precomputed metadata on whichever SM is
//! free (§5.1.3).
//!
//! Panic safety: a panicking band of a multi-band launch is caught where
//! it ran, its payload is parked in the launch, and the *submitter*
//! re-raises it once every claimed band has finished. Workers never unwind, so one poisoned
//! launch cannot wedge the queue or leak a lock; the next launch sees a
//! clean pool.
//!
//! Admission is bounded: a launch that would push the queue past the
//! depth cap ([`queue_cap`]) is rejected before any band runs, and the
//! launch plan decides whether to shed it explicitly (deadline-bound
//! work) or run it on the submitter alone (plain work — the queue stays
//! bounded either way).

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::{self, Thread};

use megablocks_telemetry as telemetry;

use crate::setting::Setting;

/// State shared by the pool's workers.
struct Shared {
    /// One handle per band a launch offers the workers (`bands - 1`).
    queue: Mutex<VecDeque<Arc<Launch<'static>>>>,
    available: Condvar,
    /// Workers currently running bands (pool occupancy). Signed so a
    /// torn read interleaved with a worker's increment/decrement pair can
    /// only ever look *negative* — which the accessor clamps — instead of
    /// wrapping a `usize` to an absurd occupancy.
    busy: AtomicIsize,
    /// Handles currently queued, mirrored outside the mutex so occupancy
    /// probes never contend with the dispatch hot path. Signed and
    /// clamped on read for the same reason as `busy`.
    queued: AtomicIsize,
}

/// One launch: `bands` calls of a band body, each claimed by exactly one
/// thread.
struct Launch<'a> {
    /// The band body, called with each claimed band index.
    body: &'a (dyn Fn(usize) + Sync + 'a),
    bands: usize,
    /// The next unclaimed band. `Relaxed`: a claim publishes nothing;
    /// the launch itself reaches the workers through the queue's mutex.
    next: AtomicUsize,
    /// Bands not yet finished. Each band's `Release` decrement pairs with
    /// the submitter's `Acquire` load, so every band's writes happen
    /// before the submitter reads 0 and returns.
    left: AtomicUsize,
    /// The first band panic, re-raised by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Unparked when `left` reaches 0.
    submitter: Thread,
    /// When the launch was queued, the start of its `exec.queue_wait`
    /// (0 for a launch that is not).
    enqueued_us: u64,
}

impl<'a> Launch<'a> {
    /// A launch of `bands >= 1` bands whose band 0 the caller has claimed.
    fn new(bands: usize, body: &'a (dyn Fn(usize) + Sync + 'a)) -> Self {
        Launch {
            body,
            bands,
            next: AtomicUsize::new(1),
            left: AtomicUsize::new(bands),
            panic: Mutex::new(None),
            submitter: thread::current(),
            enqueued_us: 0,
        }
    }

    /// Claims the next band, while one is left unclaimed.
    fn claim(&self) -> Option<usize> {
        let band = self.next.fetch_add(1, Ordering::Relaxed);
        (band < self.bands).then_some(band)
    }

    /// Runs the claimed band `band`, then claims and runs bands until none
    /// is left unclaimed. Returns how many bands it ran.
    fn drain(&self, mut band: usize) -> u64 {
        let mut ran = 0;
        loop {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(band))) {
                let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                slot.get_or_insert(payload);
            }
            ran += 1;
            if self.left.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.submitter.unpark();
            }
            match self.claim() {
                Some(next) => band = next,
                None => return ran,
            }
        }
    }

    /// The submitter's part: runs band 0 and every band nobody else
    /// claims, parks while bands other threads claimed still run (the
    /// `exec.wait` span), then re-raises the first band panic.
    fn finish(&self) {
        self.drain(0);
        if self.left.load(Ordering::Acquire) != 0 {
            let _wait = telemetry::span("exec.wait");
            while self.left.load(Ordering::Acquire) != 0 {
                thread::park();
            }
        }
        let panic = self
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

/// The persistent worker pool. Obtain the process-wide instance with
/// [`pool`]; launch plans submit through it.
pub struct Pool {
    shared: Arc<Shared>,
    /// Background workers spawned (the submitting thread is the
    /// `target`-th executor, so this is `target - 1`).
    workers: usize,
}

thread_local! {
    /// Set on pool worker threads: launches submitted from inside a
    /// worker's band run inline on that worker.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread parallelism override installed by [`scoped_parallelism`].
    static PARALLELISM_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The requested parallelism target: [`configure_threads`], then
/// `MEGABLOCKS_THREADS`, then the detected CPU count.
static THREADS: Setting = Setting::new(Some("MEGABLOCKS_THREADS"), || {
    std::thread::available_parallelism().map_or(1, |p| p.get() as u64)
});

/// The parallelism target the process resolved on first use; the pool is
/// sized from it once, so later requests no longer apply.
static TARGET: OnceLock<usize> = OnceLock::new();

/// The process-wide pool (spawned lazily, on the first pooled launch).
static POOL: OnceLock<Pool> = OnceLock::new();

/// The requested queue-depth cap: [`configure_queue_cap`], else a default
/// generous for kernel fan-out (a launch queues at most
/// `parallelism - 1` bands) while bounding memory and latency when many
/// submitters flood the pool at once.
static QUEUE_CAP_REQUEST: Setting = Setting::new(None, || 1024);

/// The queue-depth cap the process resolved on first use.
static QUEUE_CAP: OnceLock<usize> = OnceLock::new();

/// Requests a process-wide parallelism target, overriding the
/// `MEGABLOCKS_THREADS` environment variable and the detected CPU count.
///
/// Returns `false` if the runtime already resolved its target (the pool
/// keeps its original configuration in that case).
pub fn configure_threads(threads: usize) -> bool {
    THREADS.set(threads as u64);
    TARGET.get().is_none()
}

/// Requests a process-wide queue-depth cap (0 = never queue; every
/// multi-band launch degrades or sheds), overriding the default of 1024.
///
/// Returns `false` if the runtime already resolved its cap (the original
/// configuration is kept in that case).
pub fn configure_queue_cap(cap: usize) -> bool {
    QUEUE_CAP_REQUEST.set(cap as u64);
    QUEUE_CAP.get().is_none()
}

/// The resolved queue-depth cap.
pub fn queue_cap() -> usize {
    *QUEUE_CAP.get_or_init(|| usize::try_from(QUEUE_CAP_REQUEST.get()).unwrap_or(usize::MAX))
}

/// Resolves the parallelism target. Never less than 1.
fn resolve_target() -> usize {
    usize::try_from(THREADS.get()).map_or(usize::MAX, |n| n.max(1))
}

/// The process-wide parallelism target (workers + submitter), honoring a
/// [`scoped_parallelism`] override on the current thread. Launch-plan
/// builders use this to size their band partitions; it never spawns the
/// pool by itself.
pub fn parallelism() -> usize {
    let override_n = PARALLELISM_OVERRIDE.with(Cell::get);
    if override_n > 0 {
        return override_n;
    }
    *TARGET.get_or_init(resolve_target)
}

/// Band count for a kernel with `work` fused multiply-adds (or moved
/// elements): 1 below `threshold` — launch overhead would dominate —
/// otherwise the full [`parallelism`] target.
pub fn parallelism_for(work: usize, threshold: usize) -> usize {
    if work < threshold {
        1
    } else {
        parallelism()
    }
}

/// Runs `f` with the parallelism target pinned to `threads` on this
/// thread (nested scopes restore the previous value). Launches submitted
/// inside still execute on the shared pool, but plans partition their
/// output for `threads` bands — the hook the determinism suite uses to
/// prove band count does not change results.
pub fn scoped_parallelism<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            PARALLELISM_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let previous = PARALLELISM_OVERRIDE.with(|c| c.replace(threads.max(1)));
    let _restore = Restore(previous);
    f()
}

/// Whether the current thread is a pool worker (nested launches run
/// inline).
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// The process-wide pool, spawning its workers on first use.
pub fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool::new(*TARGET.get_or_init(resolve_target)))
}

/// A launch turned away by bounded admission: queueing it would have
/// pushed the queue past `cap`. None of its bands ran.
pub(crate) struct Rejected {
    /// Queue depth observed at the admission decision.
    pub depth: usize,
    /// The cap the launch was held to.
    pub cap: usize,
}

impl Pool {
    fn new(target: usize) -> Self {
        let workers = target.saturating_sub(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            busy: AtomicIsize::new(0),
            queued: AtomicIsize::new(0),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            #[allow(
                clippy::disallowed_methods,
                reason = "the pool's workers are the threads every launch runs on"
            )]
            let spawned = std::thread::Builder::new()
                .name(format!("megablocks-exec-{i}"))
                .spawn(move || worker_loop(&shared));
            // A failed spawn degrades parallelism but not correctness:
            // the submitter claims every band no worker does.
            drop(spawned);
        }
        telemetry::gauge("exec.pool.workers").set(workers as f64);
        Pool { shared, workers }
    }

    /// Background worker threads owned by the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Launch handles currently queued, one per band offered to the
    /// workers (for tests and occupancy metrics). Read
    /// from the lock-free mirror and clamped at zero: a probe racing a
    /// worker wakeup may observe the decrement before the matching
    /// enqueue count, and a transient `-1` must read as empty, not as
    /// `usize::MAX`.
    pub fn queue_depth(&self) -> usize {
        self.shared.queued.load(Ordering::Relaxed).max(0) as usize
    }

    /// Workers currently running bands, clamped at zero against the
    /// same torn-interleaving reads as [`Pool::queue_depth`].
    pub fn busy_workers(&self) -> usize {
        self.shared.busy.load(Ordering::Relaxed).max(0) as usize
    }
}

/// Runs a launch of `bands >= 1` calls of `body` on the calling thread
/// alone. Which path a launch took is what `exec.launches{inline,pooled}`
/// counts. One band is a direct call: with nothing to claim or wait for,
/// its panic unwinds straight to the caller.
pub(crate) fn run_inline(bands: usize, body: &(dyn Fn(usize) + Sync)) {
    telemetry::counter_with("exec.launches", "inline").inc();
    if bands == 1 {
        body(0);
    } else {
        Launch::new(bands, body).finish();
    }
}

/// Runs a launch of `bands >= 1` calls of `body` (one per band of a launch
/// plan) to completion under bounded admission: if queueing it would push
/// the queue past [`queue_cap`], nothing is queued and nothing runs, and
/// [`Rejected`] comes back for the caller to shed or degrade. The
/// admission decision is taken under the queue lock, so the cap is exact
/// even with many concurrent submitters.
///
/// Band 0 runs on the calling thread, which queues `bands - 1` handles of
/// the launch for the workers and then claims bands itself alongside
/// them. The call returns only after *every* band finished — even when
/// one panics — so the body may freely borrow the caller's stack. If any
/// band panicked, the first payload is re-raised on the caller once all
/// claimed bands are done.
///
/// Launches with one band, on a worker-less pool, or submitted from
/// inside a worker's band run inline on the calling thread
/// ([`run_inline`]).
pub(crate) fn try_run(bands: usize, body: &(dyn Fn(usize) + Sync)) -> Result<(), Rejected> {
    if bands <= 1 || in_worker() || pool().workers == 0 {
        run_inline(bands, body);
        return Ok(());
    }
    let shared = &pool().shared;
    let launch = Arc::new(Launch {
        enqueued_us: telemetry::trace_now_us(),
        ..Launch::new(bands, body)
    });
    {
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let (depth, cap) = (queue.len(), queue_cap());
        if depth + bands - 1 > cap {
            return Err(Rejected { depth, cap });
        }
        telemetry::counter_with("exec.launches", "pooled").inc();
        telemetry::gauge("exec.pool.queue_depth").set((depth + bands - 1) as f64);
        shared
            .queued
            .fetch_add(bands as isize - 1, Ordering::Relaxed);
        // SAFETY: the handles outlive the borrows in `body`, but a handle
        // calls `body` only inside `drain`, after a successful claim.
        // Every claimed band holds `left` above 0 until it has finished,
        // and `finish` below returns or unwinds only once `left` reads 0
        // (nothing between this push and its wait unwinds: `drain`
        // catches every band's panic). So each call of `body` ends while
        // the caller's frame is alive, and a handle popped later claims
        // nothing and never touches `body`. Only the lifetime changes.
        let handle: Arc<Launch<'static>> = unsafe { std::mem::transmute(Arc::clone(&launch)) };
        queue.extend(std::iter::repeat_n(handle, bands - 1));
    }
    shared.available.notify_all();
    launch.finish();
    Ok(())
}

/// Worker main loop: pop a handle, claim and run bands until its launch
/// has none left, repeat. A handle whose bands are all claimed is dropped
/// at once. Bands are panic-wrapped, so the loop never unwinds and the
/// pool never poisons.
fn worker_loop(shared: &Shared) {
    IN_WORKER.with(|c| c.set(true));
    loop {
        let launch = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(launch) = queue.pop_front() {
                    shared.queued.fetch_sub(1, Ordering::Relaxed);
                    telemetry::gauge("exec.pool.queue_depth").set(queue.len() as f64);
                    break launch;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(band) = launch.claim() else {
            continue;
        };
        // Queue wait: enqueue → this worker's first claim. Shows up on
        // the worker's trace lane right before the band interval.
        telemetry::trace_complete(
            "exec.queue_wait",
            launch.enqueued_us,
            telemetry::trace_now_us().saturating_sub(launch.enqueued_us),
        );
        let busy = shared.busy.fetch_add(1, Ordering::Relaxed) + 1;
        telemetry::gauge("exec.pool.busy_workers").set(busy.max(0) as f64);
        let ran = launch.drain(band);
        telemetry::counter("exec.pool.tasks").add(ran);
        shared.busy.fetch_sub(1, Ordering::Relaxed);
    }
}
