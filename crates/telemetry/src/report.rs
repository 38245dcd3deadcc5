//! Snapshot data model, sinks, and renderers — plain data with no
//! atomics, apart from the registry that fills it.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::value::{json_escape, Value};

/// Point-in-time copy of one counter.
#[derive(Debug, Clone)]
pub struct CounterRow {
    /// Family name.
    pub name: String,
    /// Optional label within the family.
    pub label: Option<String>,
    /// Counter value.
    pub value: u64,
}

/// Point-in-time copy of one gauge.
#[derive(Debug, Clone)]
pub struct GaugeRow {
    /// Family name.
    pub name: String,
    /// Gauge value.
    pub value: f64,
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramRow {
    /// Family name.
    pub name: String,
    /// Optional label within the family.
    pub label: Option<String>,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

/// Point-in-time summary of one span family.
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Span name.
    pub name: String,
    /// Number of completed spans.
    pub calls: u64,
    /// Total inclusive nanoseconds across calls.
    pub total_ns: u64,
    /// Total exclusive nanoseconds (inclusive minus child spans).
    pub self_ns: u64,
    /// Median inclusive duration estimate (ns).
    pub p50_ns: u64,
    /// 99th-percentile inclusive duration estimate (ns).
    pub p99_ns: u64,
    /// Largest inclusive duration (ns).
    pub max_ns: u64,
}

/// A point-in-time copy of the whole registry, consumed by [`Sink`]s.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All counters, sorted by (name, label).
    pub counters: Vec<CounterRow>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeRow>,
    /// All histograms, sorted by (name, label).
    pub histograms: Vec<HistogramRow>,
    /// All span families, sorted by descending total time.
    pub spans: Vec<SpanRow>,
    /// Event log lines, each already rendered as a JSON object.
    pub events: Vec<String>,
}

/// An exporter consuming [`Snapshot`]s.
pub trait Sink {
    /// Exports one snapshot.
    fn export(&self, snapshot: &Snapshot) -> io::Result<()>;
}

/// Sink writing one JSON object per line — one per metric, plus every
/// event — suitable for `results/*.jsonl`.
pub struct JsonlSink {
    path: PathBuf,
}

impl JsonlSink {
    /// Creates a sink writing to `path` (parent directories are created).
    pub fn new(path: impl AsRef<Path>) -> Self {
        JsonlSink {
            path: path.as_ref().to_path_buf(),
        }
    }
}

impl Sink for JsonlSink {
    fn export(&self, snapshot: &Snapshot) -> io::Result<()> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(&self.path, render_jsonl(snapshot))
    }
}

fn label_json(label: &Option<String>) -> String {
    match label {
        Some(l) => format!(",\"label\":{}", json_escape(l)),
        None => String::new(),
    }
}

/// Renders a snapshot in the JSONL format [`JsonlSink`] writes.
pub fn render_jsonl(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for c in &snapshot.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":{}{},\"value\":{}}}",
            json_escape(&c.name),
            label_json(&c.label),
            c.value
        );
    }
    for g in &snapshot.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}",
            json_escape(&g.name),
            Value::F64(g.value).to_json()
        );
    }
    for h in &snapshot.histograms {
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":{}{},\"count\":{},\"sum\":{},\
             \"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            json_escape(&h.name),
            label_json(&h.label),
            h.count,
            h.sum,
            h.min,
            h.max,
            h.p50,
            h.p90,
            h.p99
        );
    }
    for s in &snapshot.spans {
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"name\":{},\"calls\":{},\"total_ns\":{},\
             \"self_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            json_escape(&s.name),
            s.calls,
            s.total_ns,
            s.self_ns,
            s.p50_ns,
            s.p99_ns,
            s.max_ns
        );
    }
    for e in &snapshot.events {
        let _ = writeln!(out, "{e}");
    }
    out
}

/// Sink printing the human-readable summary table to stdout.
#[derive(Debug, Default)]
pub struct SummarySink;

impl Sink for SummarySink {
    fn export(&self, snapshot: &Snapshot) -> io::Result<()> {
        print!("{}", render_summary(snapshot));
        Ok(())
    }
}

fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// Renders the human-readable summary table for a snapshot.
pub fn render_summary(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "================ telemetry summary ================");
    if !snapshot.spans.is_empty() {
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "span", "calls", "total", "self", "p50", "p99"
        );
        for s in &snapshot.spans {
            let _ = writeln!(
                out,
                "{:<34} {:>8} {:>10} {:>10} {:>10} {:>10}",
                s.name,
                s.calls,
                fmt_ns(s.total_ns),
                fmt_ns(s.self_ns),
                fmt_ns(s.p50_ns),
                fmt_ns(s.p99_ns)
            );
        }
    }
    if !snapshot.counters.is_empty() {
        let _ = writeln!(out, "{:<44} {:>16}", "counter", "value");
        for c in &snapshot.counters {
            let name = match &c.label {
                Some(l) => format!("{}{{{}}}", c.name, l),
                None => c.name.clone(),
            };
            let _ = writeln!(out, "{:<44} {:>16}", name, c.value);
        }
    }
    if !snapshot.gauges.is_empty() {
        let _ = writeln!(out, "{:<44} {:>16}", "gauge", "value");
        for g in &snapshot.gauges {
            let _ = writeln!(out, "{:<44} {:>16.6}", g.name, g.value);
        }
    }
    if !snapshot.histograms.is_empty() {
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "histogram", "count", "min", "p50", "p90", "p99", "max"
        );
        for h in &snapshot.histograms {
            let name = match &h.label {
                Some(l) => format!("{}{{{}}}", h.name, l),
                None => h.name.clone(),
            };
            let _ = writeln!(
                out,
                "{:<34} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                name, h.count, h.min, h.p50, h.p90, h.p99, h.max
            );
        }
    }
    if !snapshot.events.is_empty() {
        let _ = writeln!(out, "events: {}", snapshot.events.len());
    }
    let _ = writeln!(out, "===================================================");
    out
}
