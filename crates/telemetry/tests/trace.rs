//! Behavioural tests for the timeline recorder: multi-thread lanes,
//! ring-buffer wrap accounting, span mirroring, the Chrome-trace JSON
//! round trip, and the panic-safe flush guard.

use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use megablocks_telemetry as telemetry;
use megablocks_telemetry::TracePhase;

/// Tests that snapshot or reset the global trace recorder serialize on
/// this lock so parallel test threads don't interleave.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Takes the lock and hands back the recorder switched on and empty.
fn recorder() -> MutexGuard<'static, ()> {
    let guard = TRACE_LOCK.lock().unwrap();
    telemetry::trace_set_enabled(true);
    telemetry::trace_reset();
    guard
}

#[test]
fn events_land_on_named_per_thread_lanes() {
    let _guard = recorder();
    telemetry::trace_instant("lane.main");
    #[allow(
        clippy::disallowed_methods,
        reason = "a named OS thread is what gets its own lane"
    )]
    thread::Builder::new()
        .name("trace-worker-a".to_string())
        .spawn(|| telemetry::trace_instant("lane.worker"))
        .unwrap()
        .join()
        .unwrap();
    let snap = telemetry::trace_snapshot();
    let worker_lane = snap
        .lanes
        .iter()
        .find(|l| l.name == "trace-worker-a")
        .expect("worker thread registered a named lane");
    let worker_events: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.tid == worker_lane.tid)
        .collect();
    assert_eq!(worker_events.len(), 1);
    assert_eq!(worker_events[0].name, "lane.worker");
    assert!(snap
        .events
        .iter()
        .any(|e| e.name == "lane.main" && e.tid != worker_lane.tid));
}

#[test]
fn ring_buffer_drops_oldest_and_counts() {
    let _guard = recorder();
    telemetry::trace_set_capacity(4);
    for i in 0..10u64 {
        telemetry::trace_complete("ring.event", i, 1);
    }
    let snap = telemetry::trace_snapshot();
    telemetry::trace_set_capacity(telemetry::TRACE_DEFAULT_CAPACITY);
    let mine: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "ring.event")
        .collect();
    assert_eq!(
        mine.len(),
        4,
        "ring keeps only the newest `capacity` events"
    );
    assert!(snap.dropped_events >= 6, "wrapped events are counted");
    // The survivors are the newest ones (highest timestamps).
    assert!(mine.iter().all(|e| e.ts_us >= 6));
}

#[test]
fn spans_are_mirrored_onto_the_timeline() {
    let _guard = recorder();
    {
        let _span = telemetry::span("trace.mirrored_span");
        thread::sleep(Duration::from_millis(2));
    }
    let snap = telemetry::trace_snapshot();
    let ev = snap
        .events
        .iter()
        .find(|e| e.name == "trace.mirrored_span")
        .expect("span emitted a timeline event");
    match ev.phase {
        TracePhase::Complete { dur_us } => {
            assert!(dur_us >= 1_000, "2ms sleep shows up: {dur_us}µs")
        }
        ref other => panic!("span mirrored as {other:?}, expected Complete"),
    }
}

#[test]
fn runtime_switch_suppresses_recording() {
    let _guard = recorder();
    telemetry::trace_set_enabled(false);
    telemetry::trace_instant("switched.off");
    telemetry::trace_set_enabled(true);
    telemetry::trace_instant("switched.on");
    let snap = telemetry::trace_snapshot();
    assert!(!snap.events.iter().any(|e| e.name == "switched.off"));
    assert!(snap.events.iter().any(|e| e.name == "switched.on"));
}

#[test]
fn exported_trace_round_trips_and_is_chrome_shaped() {
    let _guard = recorder();
    telemetry::trace_complete("rt.span", 10, 32);
    telemetry::trace_instant("rt.mark");
    telemetry::trace_counter_event("rt.counter", 2.5);
    let snap = telemetry::trace_snapshot();
    let json = telemetry::trace_json_string();
    let back = telemetry::parse_chrome_trace(&json).expect("rendered trace parses");
    assert_eq!(back, snap, "render → parse is the identity");

    // Structural spot-checks on the raw document.
    let doc = telemetry::json::Json::parse(&json).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M")));
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X") && e.get("dur").is_some()));
}

#[test]
fn export_trace_writes_a_parseable_file() {
    let _guard = recorder();
    telemetry::trace_instant("file.mark");
    let path =
        std::env::temp_dir().join(format!("megablocks_trace_test_{}.json", std::process::id()));
    telemetry::export_trace(&path).expect("export succeeds");
    let src = std::fs::read_to_string(&path).expect("file exists");
    let snap = telemetry::parse_chrome_trace(&src).expect("file parses");
    assert!(snap.events.iter().any(|e| e.name == "file.mark"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn flush_guard_exports_even_when_a_panic_unwinds() {
    let _guard = recorder();
    let base = std::env::temp_dir().join(format!("megablocks_flush_test_{}", std::process::id()));
    let jsonl = base.with_extension("jsonl");
    let trace = base.with_extension("trace.json");
    std::fs::remove_file(&jsonl).ok();
    std::fs::remove_file(&trace).ok();
    let result = std::panic::catch_unwind(|| {
        let _flush = telemetry::FlushOnDrop::new().jsonl(&jsonl).trace(&trace);
        telemetry::counter("flush.before_panic").inc();
        telemetry::trace_instant("flush.before_panic");
        panic!("step exploded");
    });
    assert!(result.is_err(), "the panic propagates");
    let metrics = std::fs::read_to_string(&jsonl).expect("jsonl flushed during unwind");
    assert!(metrics.contains("flush.before_panic"));
    let snap = telemetry::parse_chrome_trace(
        &std::fs::read_to_string(&trace).expect("trace flushed during unwind"),
    )
    .expect("flushed trace parses");
    assert!(snap.events.iter().any(|e| e.name == "flush.before_panic"));
    std::fs::remove_file(&jsonl).ok();
    std::fs::remove_file(&trace).ok();
}
