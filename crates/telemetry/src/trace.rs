//! Trace data model and Chrome `trace_event` rendering — plain data,
//! apart from the recorder that fills it.
//!
//! The exported file is the Chrome JSON-object trace format understood
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! `traceEvents` array of `"X"` (complete), `"i"` (instant), `"C"`
//! (counter) and `"M"` (metadata) events with microsecond timestamps.
//! Each recording thread gets its own `tid` lane named via a
//! `thread_name` metadata event, so exec-pool workers show up as
//! parallel swimlanes.

use crate::json::Json;
use crate::value::json_escape;
use std::fmt::Write as _;

/// One recording thread's identity: its lane id and human name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLane {
    /// Lane id, used as the Chrome `tid`.
    pub tid: u32,
    /// Thread name shown on the lane (e.g. `megablocks-exec-3`).
    pub name: String,
}

/// What kind of timeline mark a [`TraceEventRow`] is.
#[derive(Debug, Clone, PartialEq)]
pub enum TracePhase {
    /// A closed interval (`ph:"X"`), `dur_us` long.
    Complete {
        /// Duration in microseconds.
        dur_us: u64,
    },
    /// A point-in-time mark (`ph:"i"`, thread scope).
    Instant,
    /// A sampled counter track value (`ph:"C"`).
    Counter {
        /// Counter value at `ts_us`.
        value: f64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEventRow {
    /// Event name (span/op name, instant label, or counter track).
    pub name: String,
    /// Start timestamp in microseconds since the recorder epoch.
    pub ts_us: u64,
    /// Lane (thread) the event was recorded on.
    pub tid: u32,
    /// Event kind plus kind-specific payload.
    pub phase: TracePhase,
}

/// A point-in-time copy of the trace recorder: every lane and every
/// retained event. Empty if the recording switch was never on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// All lanes, sorted by `tid`.
    pub lanes: Vec<TraceLane>,
    /// All events, sorted by (`ts_us`, `tid`).
    pub events: Vec<TraceEventRow>,
    /// Events discarded because a lane's ring buffer wrapped.
    pub dropped_events: u64,
}

impl TraceSnapshot {
    /// Normalizes ordering: lanes by tid, events by (ts, tid, name).
    /// Rendering and parsing both preserve this order, which is what
    /// makes the JSON round-trip exact.
    pub fn normalize(&mut self) {
        self.lanes.sort_by_key(|l| l.tid);
        self.events.sort_by(|a, b| {
            (a.ts_us, a.tid, &a.name)
                .cmp(&(b.ts_us, b.tid, &b.name))
                .then_with(|| phase_rank(&a.phase).cmp(&phase_rank(&b.phase)))
        });
    }
}

fn phase_rank(p: &TracePhase) -> u8 {
    match p {
        TracePhase::Complete { .. } => 0,
        TracePhase::Instant => 1,
        TracePhase::Counter { .. } => 2,
    }
}

/// The `pid` stamped on every event; the recorder is single-process.
pub const TRACE_PID: u32 = 1;

/// Renders a snapshot as Chrome `trace_event` JSON (object format with
/// a `traceEvents` array), loadable in `chrome://tracing` and Perfetto.
pub fn render_chrome_trace(snapshot: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(64 + snapshot.events.len() * 96);
    out.push_str("{\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{");
    let _ = write!(
        out,
        "\"recorder\":\"megablocks-trace\",\"dropped_events\":{}",
        snapshot.dropped_events
    );
    out.push_str("},\n\"traceEvents\":[\n");
    let mut first = true;
    let mut emit = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for lane in &snapshot.lanes {
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":{TRACE_PID},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                lane.tid,
                json_escape(&lane.name)
            ),
            &mut first,
        );
    }
    for ev in &snapshot.events {
        let line = match &ev.phase {
            TracePhase::Complete { dur_us } => format!(
                "{{\"ph\":\"X\",\"pid\":{TRACE_PID},\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"cat\":\"span\",\"name\":{}}}",
                ev.tid,
                ev.ts_us,
                dur_us,
                json_escape(&ev.name)
            ),
            TracePhase::Instant => format!(
                "{{\"ph\":\"i\",\"pid\":{TRACE_PID},\"tid\":{},\"ts\":{},\"s\":\"t\",\
                 \"cat\":\"instant\",\"name\":{}}}",
                ev.tid,
                ev.ts_us,
                json_escape(&ev.name)
            ),
            TracePhase::Counter { value } => {
                // JSON has no NaN/Inf: a non-finite counter sample is
                // exported as `null` so the document stays parseable,
                // and the strict round-trip rejects it rather than
                // resurrecting a fabricated number.
                let v = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "{{\"ph\":\"C\",\"pid\":{TRACE_PID},\"tid\":{},\"ts\":{},\
                     \"cat\":\"counter\",\"name\":{},\"args\":{{\"value\":{v}}}}}",
                    ev.tid,
                    ev.ts_us,
                    json_escape(&ev.name)
                )
            }
        };
        emit(line, &mut first);
    }
    out.push_str("\n]}\n");
    out
}

/// Parses Chrome `trace_event` JSON produced by [`render_chrome_trace`]
/// back into a [`TraceSnapshot`] (the round-trip half the tests and the
/// trace CLI use). Unknown phases are rejected so format drift fails
/// loudly instead of silently dropping events.
pub fn parse_chrome_trace(src: &str) -> Result<TraceSnapshot, String> {
    let doc = Json::parse(src)?;
    let mut snap = TraceSnapshot {
        dropped_events: doc
            .get("otherData")
            .and_then(|o| o.get("dropped_events"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
        ..TraceSnapshot::default()
    };
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key)
                .ok_or_else(|| format!("event {i}: missing {key:?}"))
        };
        let ph = field("ph")?.as_str().ok_or(format!("event {i}: bad ph"))?;
        let tid = field("tid")?
            .as_u64()
            .ok_or(format!("event {i}: bad tid"))? as u32;
        if ph == "M" {
            let name = ev
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .ok_or(format!("event {i}: metadata without args.name"))?;
            snap.lanes.push(TraceLane {
                tid,
                name: name.to_string(),
            });
            continue;
        }
        let name = field("name")?
            .as_str()
            .ok_or(format!("event {i}: bad name"))?
            .to_string();
        let ts_us = field("ts")?.as_u64().ok_or(format!("event {i}: bad ts"))?;
        let phase = match ph {
            "X" => TracePhase::Complete {
                dur_us: field("dur")?
                    .as_u64()
                    .ok_or(format!("event {i}: bad dur"))?,
            },
            "i" => TracePhase::Instant,
            "C" => TracePhase::Counter {
                // A `null` value is how the renderer exports a
                // non-finite sample; the round-trip rejects it loudly
                // instead of inventing a finite stand-in. (Overflowing
                // literals like `1e999` are already rejected by the
                // number parser itself.)
                value: ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!(
                        "event {i}: counter without a finite args.value \
                         (non-finite samples export as null and do not round-trip)"
                    ))?,
            },
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        };
        snap.events.push(TraceEventRow {
            name,
            ts_us,
            tid,
            phase,
        });
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceSnapshot {
        let mut snap = TraceSnapshot {
            lanes: vec![
                TraceLane {
                    tid: 2,
                    name: "megablocks-exec-1".to_string(),
                },
                TraceLane {
                    tid: 1,
                    name: "main".to_string(),
                },
            ],
            events: vec![
                TraceEventRow {
                    name: "sparse.sdd".to_string(),
                    ts_us: 10,
                    tid: 2,
                    phase: TracePhase::Complete { dur_us: 42 },
                },
                TraceEventRow {
                    name: "exec.workspace.miss".to_string(),
                    ts_us: 5,
                    tid: 1,
                    phase: TracePhase::Instant,
                },
                TraceEventRow {
                    name: "exec.pool.busy".to_string(),
                    ts_us: 5,
                    tid: 1,
                    phase: TracePhase::Counter { value: 3.0 },
                },
            ],
            dropped_events: 7,
        };
        snap.normalize();
        snap
    }

    #[test]
    fn chrome_trace_round_trips() {
        let snap = sample();
        let json = render_chrome_trace(&snap);
        let back = parse_chrome_trace(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn rendered_trace_is_valid_json_with_expected_shape() {
        let json = render_chrome_trace(&sample());
        let doc = Json::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 thread_name metadata events + 3 payload events.
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        assert!(events
            .iter()
            .all(|e| e.get("pid").unwrap().as_u64() == Some(TRACE_PID as u64)));
    }

    #[test]
    fn parse_rejects_unknown_phase() {
        let bad = r#"{"traceEvents":[{"ph":"Q","pid":1,"tid":1,"ts":0,"name":"x"}]}"#;
        assert!(parse_chrome_trace(bad).is_err());
    }

    #[test]
    fn nonfinite_counter_values_export_as_null_and_do_not_round_trip() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let snap = TraceSnapshot {
                lanes: vec![TraceLane {
                    tid: 1,
                    name: "main".to_string(),
                }],
                events: vec![TraceEventRow {
                    name: "exec.pool.busy".to_string(),
                    ts_us: 1,
                    tid: 1,
                    phase: TracePhase::Counter { value: bad },
                }],
                dropped_events: 0,
            };
            let json = render_chrome_trace(&snap);
            // The export must stay valid JSON (no bare NaN/inf tokens)...
            let doc = Json::parse(&json).unwrap_or_else(|e| panic!("invalid JSON for {bad}: {e}"));
            let value = doc.get("traceEvents").unwrap().as_arr().unwrap()[1]
                .get("args")
                .unwrap()
                .get("value")
                .unwrap();
            assert_eq!(value, &Json::Null, "non-finite {bad} must export as null");
            // ...and the strict round-trip must reject the snapshot
            // instead of silently substituting a finite value.
            let err = parse_chrome_trace(&json).unwrap_err();
            assert!(err.contains("finite"), "unexpected error: {err}");
        }
    }

    #[test]
    fn parse_rejects_overflowing_counter_literal() {
        // Hand-written trace with a literal that overflows f64: the
        // number parser refuses it before phase decoding even runs.
        let bad = r#"{"traceEvents":[
            {"ph":"C","pid":1,"tid":1,"ts":0,"name":"x","args":{"value":1e999}}
        ]}"#;
        let err = parse_chrome_trace(bad).unwrap_err();
        assert!(err.contains("non-finite"), "unexpected error: {err}");
    }
}
