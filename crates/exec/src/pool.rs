//! The persistent worker pool.
//!
//! One pool per process, initialized lazily on the first pooled launch.
//! Worker threads are spawned once and live for the lifetime of the
//! process, so a kernel launch costs a queue push + condvar wake instead
//! of `threads` fresh OS thread spawns — the CPU analogue of the paper's
//! cheap kernel launches iterating precomputed metadata (§5.1.3).
//!
//! Panic safety: a panicking task is caught on the worker, its payload is
//! parked in the launch's shared state, and the *submitter* re-raises it
//! after every task of the launch has finished. Workers never unwind, so
//! one poisoned launch cannot wedge the queue or leak a lock; the next
//! launch sees a clean pool.
//!
//! Admission is bounded: a launch that would push the queue past the
//! depth cap ([`queue_cap`]) is rejected with its tasks handed back, and
//! the launch plan decides whether to shed it explicitly (deadline-bound
//! work) or degrade to inline execution (plain work — the queue stays
//! bounded either way).

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use megablocks_telemetry as telemetry;

use crate::setting::Setting;

/// A unit of work queued on the pool. Tasks are lifetime-erased closures;
/// the submitting thread blocks until every task of its launch completed,
/// which is what makes the erasure sound (see [`Pool::try_run`]).
type Job = Box<dyn FnOnce() + Send>;

/// State shared by the pool's workers.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Workers currently executing a task (pool occupancy). Signed so a
    /// torn read interleaved with a worker's increment/decrement pair can
    /// only ever look *negative* — which the accessor clamps — instead of
    /// wrapping a `usize` to an absurd occupancy.
    busy: AtomicIsize,
    /// Tasks currently queued, mirrored outside the mutex so occupancy
    /// probes never contend with the dispatch hot path. Signed and
    /// clamped on read for the same reason as `busy`.
    queued: AtomicIsize,
}

/// Completion tracking for one launch: the submitter waits on `done`
/// until `remaining` queued tasks have finished; the first worker panic
/// is parked in `panic` for the submitter to re-raise.
struct LaunchState {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl LaunchState {
    fn new(remaining: usize) -> Self {
        LaunchState {
            remaining: Mutex::new(remaining),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Marks one task finished (storing `payload` if it panicked first).
    fn finish(&self, payload: Option<Box<dyn Any + Send + 'static>>) {
        if let Some(p) = payload {
            let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(p);
        }
        let mut remaining = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every queued task of the launch has finished.
    fn wait(&self) {
        let mut remaining = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *remaining > 0 {
            remaining = self.done.wait(remaining).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The parked panic payload, if any task panicked.
    fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
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
    /// Set on pool worker threads: launches submitted from inside a task
    /// run inline to keep nested launches deadlock-free.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread parallelism override installed by [`scoped_parallelism`].
    static PARALLELISM_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The requested parallelism target: [`configure_threads`], then
/// `MEGABLOCKS_THREADS`, then the detected CPU count.
static THREADS: Setting<usize> = Setting::new(Some("MEGABLOCKS_THREADS"), || {
    std::thread::available_parallelism().map_or(1, |p| p.get())
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
static QUEUE_CAP_REQUEST: Setting<usize> = Setting::new(None, || 1024);

/// The queue-depth cap the process resolved on first use.
static QUEUE_CAP: OnceLock<usize> = OnceLock::new();

/// Requests a process-wide parallelism target, overriding the
/// `MEGABLOCKS_THREADS` environment variable and the detected CPU count.
///
/// Returns `false` if the runtime already resolved its target (the pool
/// keeps its original configuration in that case).
pub fn configure_threads(threads: usize) -> bool {
    THREADS.set(threads);
    TARGET.get().is_none()
}

/// Requests a process-wide queue-depth cap (0 = never queue; every
/// multi-band launch degrades or sheds), overriding the default of 1024.
///
/// Returns `false` if the runtime already resolved its cap (the original
/// configuration is kept in that case).
pub fn configure_queue_cap(cap: usize) -> bool {
    QUEUE_CAP_REQUEST.set(cap);
    QUEUE_CAP.get().is_none()
}

/// The resolved queue-depth cap.
pub fn queue_cap() -> usize {
    *QUEUE_CAP.get_or_init(|| QUEUE_CAP_REQUEST.get())
}

/// Resolves the parallelism target. Never less than 1.
fn resolve_target() -> usize {
    THREADS.get().max(1)
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

/// A launch handed back by bounded admission: queueing its tasks would
/// have pushed the queue past `cap`. The tasks are returned untouched so
/// the caller can run them inline or drop them.
pub(crate) struct Rejected<'scope> {
    /// The launch's tasks, in submission order.
    pub tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>,
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
            // remaining workers (or the submitter) drain the queue.
            drop(spawned);
        }
        telemetry::gauge("exec.pool.workers").set(workers as f64);
        Pool { shared, workers }
    }

    /// Background worker threads owned by the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Tasks currently queued (for tests and occupancy metrics). Read
    /// from the lock-free mirror and clamped at zero: a probe racing a
    /// worker wakeup may observe the decrement before the matching
    /// enqueue count, and a transient `-1` must read as empty, not as
    /// `usize::MAX`.
    pub fn queue_depth(&self) -> usize {
        self.shared.queued.load(Relaxed).max(0) as usize
    }

    /// Workers currently executing a task, clamped at zero against the
    /// same torn-interleaving reads as [`Pool::queue_depth`].
    pub fn busy_workers(&self) -> usize {
        self.shared.busy.load(Relaxed).max(0) as usize
    }

    /// Executes `tasks` to completion, one per band of a launch plan,
    /// under bounded admission: if queueing them would push the queue
    /// past [`queue_cap`], nothing is queued and the tasks come back in
    /// [`Rejected`] for the caller to shed or degrade. The admission
    /// decision is taken under the queue lock, so the cap is exact even
    /// with many concurrent submitters.
    ///
    /// The first task runs on the calling thread; the rest are queued for
    /// the workers. The call returns only after *every* task finished —
    /// even when one panics — so tasks may freely borrow the caller's
    /// stack. If any task panicked, the first payload is re-raised on the
    /// caller once all sibling tasks are done (their borrows must outlive
    /// the unwind).
    ///
    /// Launches submitted from inside a pool task, and launches with a
    /// single task or on a worker-less pool, run inline on the calling
    /// thread; panics then propagate directly. Which of the two happened
    /// is what `exec.launches{inline,pooled}` counts.
    pub(crate) fn try_run<'scope>(
        &self,
        tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>,
    ) -> Result<(), Rejected<'scope>> {
        let queued = tasks.len().saturating_sub(1);
        if queued == 0 || self.workers == 0 || in_worker() {
            telemetry::counter_with("exec.launches", "inline").inc();
            for task in tasks {
                task();
            }
            return Ok(());
        }

        let cap = queue_cap();
        let state = Arc::new(LaunchState::new(queued));
        let enqueued_us = telemetry::trace_now_us();
        let first;
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            let depth = queue.len();
            if depth + queued > cap {
                drop(queue);
                return Err(Rejected { tasks, depth, cap });
            }
            let mut tasks = tasks.into_iter();
            first = match tasks.next() {
                Some(t) => t,
                None => return Ok(()),
            };
            for task in tasks {
                // SAFETY: the erased closure borrows from the caller's
                // stack frame ('scope). This function does not return —
                // normally or by unwinding — until `state` confirms the
                // task ran to completion (`wait` below runs even when the
                // inline task panics), so every borrow strictly outlives
                // the task's execution.
                let task: Box<dyn FnOnce() + Send + 'static> = unsafe { erase_lifetime(task) };
                let state = Arc::clone(&state);
                queue.push_back(Box::new(move || {
                    // Queue wait: enqueue → the moment a worker dequeued
                    // and started this task. Shows up on the worker's
                    // trace lane right before the band interval.
                    let started_us = telemetry::trace_now_us();
                    telemetry::trace_complete(
                        "exec.queue_wait",
                        enqueued_us,
                        started_us.saturating_sub(enqueued_us),
                    );
                    let payload = catch_unwind(AssertUnwindSafe(task)).err();
                    state.finish(payload);
                }));
            }
            self.shared.queued.fetch_add(queued as isize, Relaxed);
            telemetry::gauge("exec.pool.queue_depth").set(queue.len() as f64);
        }
        self.shared.available.notify_all();
        telemetry::counter_with("exec.launches", "pooled").inc();

        // Run the first band here: the submitter is the pool's extra
        // executor. Capture its panic so queued siblings can finish
        // before the stack unwinds past their borrows.
        let inline_panic = catch_unwind(AssertUnwindSafe(first)).err();
        state.wait();
        if let Some(p) = inline_panic.or_else(|| state.take_panic()) {
            resume_unwind(p);
        }
        Ok(())
    }
}

/// Erases the borrow lifetime of a queued task.
///
/// # Safety
///
/// The caller must guarantee the task finishes executing before any
/// borrow captured in it ends — [`Pool::try_run`] does so by blocking until
/// the launch's completion count reaches zero.
// SAFETY: declaring this fn unsafe delegates the outlives proof to the
// caller; see the function docs above for the exact contract.
unsafe fn erase_lifetime<'scope>(
    task: Box<dyn FnOnce() + Send + 'scope>,
) -> Box<dyn FnOnce() + Send + 'static> {
    // SAFETY: identical vtable layout; only the borrow lifetime changes,
    // and the caller upholds the outlives contract documented above.
    unsafe { std::mem::transmute(task) }
}

/// Worker main loop: pop a task, run it, repeat. Tasks are already
/// panic-wrapped, so the loop never unwinds and the pool never poisons.
fn worker_loop(shared: &Shared) {
    IN_WORKER.with(|c| c.set(true));
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.queued.fetch_sub(1, Relaxed);
                    telemetry::gauge("exec.pool.queue_depth").set(queue.len() as f64);
                    break job;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let busy = shared.busy.fetch_add(1, Relaxed) + 1;
        telemetry::gauge("exec.pool.busy_workers").set(busy.max(0) as f64);
        telemetry::counter("exec.pool.tasks").inc();
        job();
        shared.busy.fetch_sub(1, Relaxed);
    }
}
