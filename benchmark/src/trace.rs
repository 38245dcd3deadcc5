//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around calls into the
//! crates, only in the traced run; they stay in memory until the run ends
//! and are then written to `out/trace_<workload>.json`. Each span carries
//! the span that caused it (`parent`, 0 for a root) and the operation it
//! belongs to (`op`: step, request or generate-call index), so one
//! operation's timeline can be pulled out of the file by `op`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are microseconds since the recorder's
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based identifier, unique within a recorder.
    pub id: u32,
    /// Identifier of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Operation index shared by every span of one operation.
    pub op: u64,
    /// Layer-qualified name, e.g. `transformer.apply_step`.
    pub name: &'static str,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch.
    pub end_us: f64,
}

/// Thread-safe span store. One lock per open/close keeps the cost of a
/// span well under a microsecond, which `trace.overhead_frac` verifies.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u32,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = spans.len() as u32 + 1;
        spans.push(Span {
            id,
            parent,
            op,
            name,
            start_us: self.us(start),
            end_us: self.us(end),
        });
        id
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// its own children.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let start = Instant::now();
        let id = self.record(name, parent, op, start, start);
        let out = f(id);
        let end = self.us(Instant::now());
        self.spans.lock().expect("span store poisoned")[id as usize - 1].end_us = end;
        out
    }

    /// All spans recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Runs `f` inside a span when tracing is on, bare otherwise (`f` then
/// receives id 0).
pub fn scope<R>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: u32,
    op: u64,
    f: impl FnOnce(u32) -> R,
) -> R {
    match rec {
        Some(rec) => rec.scope(name, parent, op, f),
        None => f(0),
    }
}

/// Self time of every span, µs, indexed like `spans`: the span's duration
/// minus the part of its interval that its direct children cover
/// (overlapping children are counted once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut reach = s.start_us;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    let hi = hi.min(s.end_us);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
            }
            (s.end_us - s.start_us - covered).max(0.0)
        })
        .collect()
}

/// Per-name `(calls, total µs, self µs)`, sorted by name.
pub fn summarize(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times_us(spans);
    let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(selfs) {
        let row = by_name.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.end_us - s.start_us;
        row.2 += self_us;
    }
    by_name
        .into_iter()
        .map(|(name, (calls, total, own))| (name, calls, total, own))
        .collect()
}

/// Renders the trace file: a header object (already-rendered JSON fields,
/// without braces) plus the span array.
pub fn render_json(header_fields: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\n");
    out.push_str(header_fields);
    out.push_str(",\n\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}{sep}",
            s.id, s.parent, s.op, s.name, s.start_us, s.end_us
        );
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, 0.0, 100.0),
            span(2, 1, 10.0, 30.0),
            span(3, 1, 50.0, 90.0),
            span(4, 3, 60.0, 70.0),
        ];
        assert_eq!(self_times_us(&spans), vec![40.0, 20.0, 30.0, 10.0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(1, 0, 0.0, 100.0),
            // Two children overlapping on 20..40, one running past the
            // parent's end: covered = 10..60 plus 90..100.
            span(2, 1, 10.0, 40.0),
            span(3, 1, 20.0, 60.0),
            span(4, 1, 90.0, 150.0),
        ];
        assert_eq!(self_times_us(&spans)[0], 40.0);
    }

    #[test]
    fn recorder_links_children_to_parents_across_threads() {
        let rec = Recorder::new();
        rec.scope("outer", 0, 7, |outer| {
            std::thread::scope(|s| {
                s.spawn(|| rec.scope("inner", outer, 7, |_| ()));
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", 0));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", spans[0].id));
        assert!(spans[0].start_us <= spans[1].start_us);
        assert!(spans[1].end_us <= spans[0].end_us);
        assert!(spans.iter().all(|s| s.op == 7));
    }

    #[test]
    fn rendered_trace_lists_every_span() {
        let json = render_json("\"workload\": \"w\"", &[span(1, 0, 0.0, 1.5)]);
        assert!(json.contains("\"workload\": \"w\""));
        assert!(json.contains("\"id\": 1, \"parent\": 0, \"op\": 0, \"name\": \"t\""));
        assert!(json.contains("\"end_us\": 1.500"));
    }
}
