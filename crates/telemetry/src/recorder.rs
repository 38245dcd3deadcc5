//! The timeline recorder and the runtime recording switch.
//!
//! Design: recording must be cheap enough to sit inside the exec pool's
//! per-band path, so there is no global event lock. Each thread owns a
//! ring buffer ([`Lane`]) registered once in a global list; recording
//! locks only the recorder's *own* ring (uncontended except while a
//! snapshot is being taken), timestamps come from one shared monotonic
//! epoch, and the on/off switch is a relaxed atomic load. The switch
//! starts off and a thread's ring is created by its first recorded
//! event, so a process that never turns it on holds no ring. When a
//! ring wraps, the oldest event is dropped and counted — a trace is a
//! window, not an archive.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::trace::{TraceEventRow, TraceLane, TracePhase, TraceSnapshot};

/// Default per-lane ring capacity (events retained per thread).
pub const TRACE_DEFAULT_CAPACITY: usize = 1 << 16;

struct Lane {
    tid: u32,
    name: String,
    ring: Mutex<VecDeque<TraceEventRow>>,
}

struct Recorder {
    lanes: Mutex<Vec<Arc<Lane>>>,
    next_tid: AtomicU32,
    capacity: AtomicUsize,
    dropped: AtomicU64,
    epoch: Instant,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        lanes: Mutex::new(Vec::new()),
        next_tid: AtomicU32::new(1),
        capacity: AtomicUsize::new(TRACE_DEFAULT_CAPACITY),
        dropped: AtomicU64::new(0),
        epoch: Instant::now(),
    })
}

thread_local! {
    static LANE: RefCell<Option<Arc<Lane>>> = const { RefCell::new(None) };
}

fn with_lane(f: impl FnOnce(&Lane)) {
    LANE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let lane = slot.get_or_insert_with(|| {
            let rec = recorder();
            let tid = rec.next_tid.fetch_add(1, Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let lane = Arc::new(Lane {
                tid,
                name,
                ring: Mutex::new(VecDeque::new()),
            });
            rec.lanes
                .lock()
                .expect("trace lanes poisoned")
                .push(lane.clone());
            lane
        });
        f(lane);
    });
}

fn push(name: &'static str, ts_us: u64, phase: TracePhase) {
    with_lane(|lane| {
        let rec = recorder();
        let cap = rec.capacity.load(Relaxed).max(1);
        let mut ring = lane.ring.lock().expect("trace ring poisoned");
        if ring.len() >= cap {
            ring.pop_front();
            rec.dropped.fetch_add(1, Relaxed);
        }
        ring.push_back(TraceEventRow {
            name: name.to_string(),
            ts_us,
            tid: lane.tid,
            phase,
        });
    });
}

/// The recording switch. Publishes no other data, hence `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);

/// Turns the unbounded logs — the timeline, the [`crate::event`] log
/// and `core::health`'s step records — on or off. They start off;
/// counters, gauges, histograms and span families record regardless.
pub fn trace_set_enabled(on: bool) {
    ON.store(on, Relaxed);
}

/// Whether the recording switch ([`trace_set_enabled`]) is on.
#[inline]
pub fn is_enabled() -> bool {
    ON.load(Relaxed)
}

/// Sets the per-lane ring capacity for events recorded from now on.
pub fn trace_set_capacity(capacity: usize) {
    recorder().capacity.store(capacity.max(1), Relaxed);
}

/// Microseconds since the recorder epoch (first telemetry touch in this
/// process). Pair with [`trace_complete`] to time an interval.
pub fn trace_now_us() -> u64 {
    recorder().epoch.elapsed().as_micros() as u64
}

/// Records a closed interval `[ts_us, ts_us + dur_us]` on the calling
/// thread's lane.
#[inline]
pub fn trace_complete(name: &'static str, ts_us: u64, dur_us: u64) {
    if !is_enabled() {
        return;
    }
    push(name, ts_us, TracePhase::Complete { dur_us });
}

/// Records a point-in-time mark on the calling thread's lane.
#[inline]
pub fn trace_instant(name: &'static str) {
    if !is_enabled() {
        return;
    }
    push(name, trace_now_us(), TracePhase::Instant);
}

/// Records a counter-track sample (rendered as a value graph in
/// Perfetto) on the calling thread's lane.
#[inline]
pub fn trace_counter_event(name: &'static str, value: f64) {
    if !is_enabled() {
        return;
    }
    push(name, trace_now_us(), TracePhase::Counter { value });
}

/// Called from `SpanGuard::drop`: mirrors every scalar-telemetry span
/// onto the timeline as a complete event ending now.
pub(crate) fn record_span_complete(name: &'static str, dur_ns: u64) {
    if !is_enabled() {
        return;
    }
    let dur_us = dur_ns / 1_000;
    let end = trace_now_us();
    push(
        name,
        end.saturating_sub(dur_us),
        TracePhase::Complete { dur_us },
    );
}

/// Copies out every lane and retained event, normalized (lanes by tid,
/// events by timestamp).
pub fn trace_snapshot() -> TraceSnapshot {
    let rec = recorder();
    let lanes: Vec<Arc<Lane>> = rec.lanes.lock().expect("trace lanes poisoned").clone();
    let mut snap = TraceSnapshot {
        dropped_events: rec.dropped.load(Relaxed),
        ..TraceSnapshot::default()
    };
    for lane in lanes {
        snap.lanes.push(TraceLane {
            tid: lane.tid,
            name: lane.name.clone(),
        });
        let ring = lane.ring.lock().expect("trace ring poisoned");
        snap.events.extend(ring.iter().cloned());
    }
    snap.normalize();
    snap
}

/// Clears every retained event and the dropped-event count. Lanes stay
/// registered (threads keep their tids); the epoch is unchanged.
pub fn trace_reset() {
    let rec = recorder();
    let lanes: Vec<Arc<Lane>> = rec.lanes.lock().expect("trace lanes poisoned").clone();
    for lane in lanes {
        lane.ring.lock().expect("trace ring poisoned").clear();
    }
    rec.dropped.store(0, Relaxed);
}

/// Renders the current timeline as Chrome `trace_event` JSON.
pub fn trace_json_string() -> String {
    crate::trace::render_chrome_trace(&trace_snapshot())
}

/// Exports the current timeline as Chrome `trace_event` JSON to `path`
/// (parent directories are created). Open it in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn export_trace(path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, trace_json_string())
}
