//! The band-stall watchdog.
//!
//! A launch whose band wedges — a deadlocked dependency, an injected
//! `exec.band_stall`, a pathological input — would block its submitter
//! forever: the pool's completion protocol (correctly) waits for every
//! band. The watchdog turns that hang into a bounded, structured
//! failure: each watched launch registers per-band start/finish
//! timestamps, a background scanner compares every in-flight band
//! against a stall threshold, and a band over threshold gets the
//! launch's [`CancelToken`] tripped with the deadline flavor — the
//! cooperative cancellation points then unwind the launch, which
//! reports [`crate::ExecError::DeadlineExceeded`].
//!
//! The threshold is median-based: `max(budget, STALL_FACTOR x median
//! finished-band time)`, so a uniformly slow launch (big inputs) is not
//! punished for honest work while one band lagging its siblings by an
//! order of magnitude is.
//!
//! Watching is opt-in per plan
//! ([`crate::LaunchPlan::with_stall_budget`]); with no budget set, no
//! watchdog thread is ever spawned and launches pay nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use megablocks_resilience as resilience;
use megablocks_telemetry as telemetry;

use crate::cancel::CancelToken;

/// Multiplier over the median finished-band time before an in-flight
/// band counts as stalled.
const STALL_FACTOR: u64 = 8;

/// Per-launch stall bookkeeping shared between the launch's band tasks
/// (writers) and the scanner thread (reader).
pub(crate) struct LaunchWatch {
    op: &'static str,
    token: CancelToken,
    budget: Duration,
    epoch: Instant,
    /// Band start offsets from `epoch`, in µs + 1 (0 = not started).
    started_us: Vec<AtomicU64>,
    /// Band finish offsets from `epoch`, in µs + 1 (0 = in flight).
    finished_us: Vec<AtomicU64>,
    fired: AtomicBool,
}

impl LaunchWatch {
    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX - 1)
    }

    /// Records band `b` entering its body on some worker.
    pub(crate) fn band_started(&self, b: usize) {
        if let Some(slot) = self.started_us.get(b) {
            slot.store(self.elapsed_us() + 1, Relaxed);
        }
    }

    /// Records band `b` finishing its body.
    pub(crate) fn band_finished(&self, b: usize) {
        if let Some(slot) = self.finished_us.get(b) {
            slot.store(self.elapsed_us() + 1, Relaxed);
        }
    }

    /// Scans the watch once; fires the cancel on the first stalled band.
    fn scan(&self) {
        if self.fired.load(Relaxed) {
            return;
        }
        let now_us = self.elapsed_us();
        let mut finished: Vec<u64> = self
            .started_us
            .iter()
            .zip(&self.finished_us)
            .filter_map(|(s, f)| {
                let (s, f) = (s.load(Relaxed), f.load(Relaxed));
                (s > 0 && f > 0).then(|| f.saturating_sub(s))
            })
            .collect();
        finished.sort_unstable();
        let budget_us = u64::try_from(self.budget.as_micros()).unwrap_or(u64::MAX);
        let threshold_us = match finished.get(finished.len() / 2) {
            Some(&median) => budget_us.max(median.saturating_mul(STALL_FACTOR)),
            None => budget_us,
        };
        for (s, f) in self.started_us.iter().zip(&self.finished_us) {
            let start = s.load(Relaxed);
            if start == 0 || f.load(Relaxed) > 0 {
                continue;
            }
            if now_us.saturating_sub(start - 1) > threshold_us {
                self.fired.store(true, Relaxed);
                self.token.cancel_deadline();
                resilience::record_detected(&resilience::sites::EXEC_BAND_STALL);
                telemetry::counter_with("exec.cancelled", "watchdog").inc();
                telemetry::trace_instant("exec.watchdog.stall");
                telemetry::counter_with("exec.watchdog.fired", self.op).inc();
                return;
            }
        }
    }
}

struct Registry {
    watches: Mutex<Vec<Arc<LaunchWatch>>>,
    wake: Condvar,
}

/// The process-wide registry; the scanner thread is spawned alongside it
/// on the first watched launch.
fn registry() -> &'static Arc<Registry> {
    static REGISTRY: OnceLock<Arc<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let registry = Arc::new(Registry {
            watches: Mutex::new(Vec::new()),
            wake: Condvar::new(),
        });
        let scanner = Arc::clone(&registry);
        #[allow(
            clippy::disallowed_methods,
            reason = "the scanner must run beside the pool it watches, not on it"
        )]
        let spawned = std::thread::Builder::new()
            .name("megablocks-watchdog".to_string())
            .spawn(move || scanner_loop(&scanner));
        // A failed spawn degrades stall detection but not correctness:
        // watched launches simply run unwatched.
        drop(spawned);
        registry
    })
}

/// Registers a launch with the watchdog. The returned [`Unwatch`] guard
/// must live for the duration of the launch; dropping it (normally or
/// during an unwind) retires the watch.
pub(crate) fn register(
    op: &'static str,
    token: CancelToken,
    bands: usize,
    budget: Duration,
) -> Unwatch {
    let watch = Arc::new(LaunchWatch {
        op,
        token,
        budget,
        epoch: Instant::now(),
        started_us: (0..bands).map(|_| AtomicU64::new(0)).collect(),
        finished_us: (0..bands).map(|_| AtomicU64::new(0)).collect(),
        fired: AtomicBool::new(false),
    });
    let registry = registry();
    registry
        .watches
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::clone(&watch));
    registry.wake.notify_all();
    Unwatch(watch)
}

/// RAII registration guard for one watched launch; retires the watch on
/// drop (even when the launch unwinds through a band panic).
pub(crate) struct Unwatch(Arc<LaunchWatch>);

impl Unwatch {
    pub(crate) fn watch(&self) -> &LaunchWatch {
        &self.0
    }
}

impl Drop for Unwatch {
    fn drop(&mut self) {
        let mut watches = registry().watches.lock().unwrap_or_else(|e| e.into_inner());
        watches.retain(|w| !Arc::ptr_eq(w, &self.0));
    }
}

/// Scanner main loop: sleep while no launches are watched, otherwise
/// poll every watch at a fraction of the smallest active budget.
fn scanner_loop(registry: &Registry) {
    let mut watches = registry.watches.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if watches.is_empty() {
            watches = registry
                .wake
                .wait(watches)
                .unwrap_or_else(|e| e.into_inner());
            continue;
        }
        let interval = watches
            .iter()
            .map(|w| w.budget / 4)
            .min()
            .unwrap_or(Duration::from_millis(10))
            .clamp(Duration::from_millis(1), Duration::from_millis(50));
        let (guard, _timeout) = registry
            .wake
            .wait_timeout(watches, interval)
            .unwrap_or_else(|e| e.into_inner());
        watches = guard;
        for watch in watches.iter() {
            watch.scan();
        }
    }
}
