//! What the runtime switch gates and what it does not. One test, in its
//! own binary, because the switch is process-global: with it off the
//! bounded metrics record and the unbounded logs stay empty; with it on
//! the same calls fill the logs too.

use megablocks_telemetry as telemetry;

/// Touches every kind of metric and log once.
fn drive() {
    drop(telemetry::span("switch.span"));
    telemetry::counter("switch.counter").inc();
    telemetry::histogram("switch.hist").record(7);
    telemetry::event("switch.event", &[("step", 1u64.into())]);
    telemetry::trace_complete("switch.complete", telemetry::trace_now_us(), 3);
    telemetry::trace_instant("switch.instant");
    telemetry::trace_counter_event("switch.track", 1.0);
}

/// (trace lanes, trace events, event-log lines).
fn logs() -> (usize, usize, usize) {
    let trace = telemetry::trace_snapshot();
    let events = telemetry::snapshot().events.len();
    (trace.lanes.len(), trace.events.len(), events)
}

/// (counter, histogram samples, span calls).
fn metrics() -> (u64, u64, u64) {
    let snap = telemetry::snapshot();
    let span = snap.spans.iter().find(|s| s.name == "switch.span");
    (
        telemetry::counter("switch.counter").get(),
        telemetry::histogram("switch.hist").count(),
        span.map_or(0, |s| s.calls),
    )
}

#[test]
fn switch_gates_the_unbounded_logs_and_nothing_else() {
    assert!(!telemetry::is_enabled(), "recording starts off");
    drive();
    assert_eq!(logs(), (0, 0, 0), "no ring, no line");
    assert_eq!(metrics(), (1, 1, 1), "bounded metrics record regardless");

    telemetry::trace_set_enabled(true);
    assert!(telemetry::is_enabled());
    drive();
    assert_eq!(logs(), (1, 4, 1), "this thread's lane: span + 3 marks");
    assert_eq!(metrics(), (2, 2, 2));

    telemetry::trace_set_enabled(false);
    drive();
    assert_eq!(logs(), (1, 4, 1), "off again: no growth");
    assert_eq!(metrics(), (3, 3, 3));
}
