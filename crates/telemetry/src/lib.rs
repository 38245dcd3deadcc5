//! Observability substrate for MegaBlocks-RS.
//!
//! The paper's claims are all *measured* claims — kernel times, padding
//! overhead, expert load, throughput — so every crate in the workspace
//! records into this one through four primitives:
//!
//! * **Spans** ([`span`]): hierarchical RAII wall-clock timers. Nesting is
//!   tracked per thread, so each span family reports both *inclusive*
//!   time (span plus children) and *exclusive* ("self") time.
//! * **Counters** ([`counter`], [`counter_with`]): monotonically
//!   increasing atomic `u64`s, cheap enough for per-kernel-call totals.
//! * **Histograms** ([`histogram`], [`histogram_with`]): lock-free
//!   log₂-bucketed distributions with exact `count`/`sum`/`min`/`max` and
//!   monotone percentile queries.
//! * **Gauges** ([`gauge`]) and **events** ([`event`]): last-value
//!   metrics and structured per-step records (loss, lr, throughput).
//!
//! Handles are fetched from the global [`Registry`] by name (plus an
//! optional label for families such as per-variant counts). A thread's
//! first fetch of a name takes the registry lock; every later one is a
//! lookup in the thread's own map that takes no lock and allocates
//! nothing. Metrics are never removed, so a handle stays valid for the
//! life of the process.
//!
//! Snapshots feed pluggable [`Sink`]s: [`JsonlSink`] writes one JSON
//! object per metric (for `results/`), and [`SummarySink`] renders a
//! human-readable table. [`FlushOnDrop`] runs either when it goes out of
//! scope.
//!
//! There is one implementation and it is always compiled. The bounded
//! metrics — counters, gauges, histograms and span families, a few
//! hundred bytes each however long the process runs — always record.
//! The three logs that grow with the run — the per-thread timeline
//! rings, the [`event`] line log and `core::health`'s per-step records —
//! record only while the runtime switch ([`trace_set_enabled`], read
//! with [`is_enabled`]) is on. It starts off, so a process nobody
//! observes accumulates nothing; whoever asks for output turns it on
//! ([`FlushOnDrop::jsonl`] and [`FlushOnDrop::trace`] do so themselves).

#![deny(missing_docs)]

pub mod json;
mod report;
pub mod trace;
mod value;
pub use report::{
    render_jsonl, render_summary, CounterRow, GaugeRow, HistogramRow, JsonlSink, Sink, Snapshot,
    SpanRow, SummarySink,
};
pub use trace::{
    parse_chrome_trace, render_chrome_trace, TraceEventRow, TraceLane, TracePhase, TraceSnapshot,
};
pub use value::Value;

mod registry;
pub use registry::*;

mod recorder;
pub use recorder::*;

/// Flushes telemetry sinks when dropped — including during a panic
/// unwind, so chaos-run traces and metrics aren't silently truncated
/// when a step aborts. Create one near the top of `main` (or hold one
/// in a long-lived runner such as `ResilientTrainer`); configure which
/// sinks to flush with the builder methods. Flushing is best-effort:
/// I/O errors are reported on stderr, never panicked, because this
/// runs inside `Drop`.
#[derive(Debug, Default)]
pub struct FlushOnDrop {
    jsonl: Option<std::path::PathBuf>,
    trace: Option<std::path::PathBuf>,
    summary: bool,
}

impl FlushOnDrop {
    /// Creates a guard that flushes nothing until configured.
    pub fn new() -> Self {
        FlushOnDrop::default()
    }

    /// Also export the metric registry as JSONL to `path` on drop.
    /// Turns the recording switch on: a caller that names an output
    /// file wants the event lines in it.
    pub fn jsonl(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        trace_set_enabled(true);
        self.jsonl = Some(path.into());
        self
    }

    /// Also export the timeline as Chrome-trace JSON to `path` on drop.
    /// Turns the recording switch on, like [`FlushOnDrop::jsonl`].
    pub fn trace(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        trace_set_enabled(true);
        self.trace = Some(path.into());
        self
    }

    /// Also print the human-readable summary table on drop.
    pub fn with_summary(mut self, on: bool) -> Self {
        self.summary = on;
        self
    }

    /// Flushes the configured sinks now (also called from `drop`).
    pub fn flush(&self) {
        if let Some(path) = &self.jsonl {
            match export_jsonl(path) {
                Ok(()) => eprintln!("telemetry: wrote {}", path.display()),
                Err(e) => eprintln!("telemetry: failed to write {}: {e}", path.display()),
            }
        }
        if let Some(path) = &self.trace {
            match export_trace(path) {
                Ok(()) => eprintln!("telemetry: wrote {}", path.display()),
                Err(e) => eprintln!("telemetry: failed to write {}: {e}", path.display()),
            }
        }
        if self.summary {
            print_summary();
        }
    }
}

impl Drop for FlushOnDrop {
    fn drop(&mut self) {
        self.flush();
    }
}
