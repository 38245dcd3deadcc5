//! The metric registry: counters, gauges, histograms, span families and
//! the event log.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::report::{CounterRow, GaugeRow, HistogramRow, JsonlSink, Sink, Snapshot, SpanRow};
use crate::value::{json_escape, Value};

const BUCKETS: usize = 65;

/// Lock-free log₂ histogram core: bucket `i` holds values whose bit
/// length is `i` (bucket 0 is exactly zero), alongside exact
/// count/sum/min/max.
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        let idx = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Upper bound of bucket `i`: the largest value with bit length `i`.
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Approximate quantile `q in [0, 1]`: the upper bound of the bucket
    /// containing the `ceil(q * count)`-th smallest sample, clamped to the
    /// observed `[min, max]`. Monotone in `q` by construction.
    fn percentile(&self, q: f64) -> u64 {
        let count = self.count.load(Relaxed);
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            cum += self.buckets[i].load(Relaxed);
            if cum >= target {
                return Self::bucket_upper(i).clamp(self.min.load(Relaxed), self.max.load(Relaxed));
            }
        }
        self.max.load(Relaxed)
    }
}

/// Inclusive-duration histogram plus accumulated exclusive ("self") time
/// for one span family.
struct SpanCore {
    durations: HistogramCore,
    self_ns: AtomicU64,
}

/// A metric's cell. Metrics are never removed, so each cell lives for
/// the rest of the process and an entry or handle is a plain reference.
#[derive(Clone, Copy)]
enum Entry {
    Counter(&'static AtomicU64),
    Gauge(&'static AtomicU64),
    Histogram(&'static HistogramCore),
    Span(&'static SpanCore),
}

impl Entry {
    fn kind(self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
            Entry::Span(_) => "span",
        }
    }
}

fn leak<T>(cell: T) -> &'static T {
    Box::leak(Box::new(cell))
}

type Key = (&'static str, Option<String>);

/// The global metric registry: named (optionally labelled) metric
/// families plus the structured event log. Accessed through the
/// free functions ([`counter`], [`histogram`], [`span`], [`event`], ...);
/// the type itself is opaque.
pub struct Registry {
    metrics: Mutex<HashMap<Key, Entry>>,
    events: Mutex<Vec<String>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        metrics: Mutex::new(HashMap::new()),
        events: Mutex::new(Vec::new()),
    })
}

/// Hashes a name's address and length: two words, never the string.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(usize::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One thread's resolved entries, keyed by the name's address and length
/// (names are `&'static str`: equal keys are equal names), then the label.
type Resolved =
    HashMap<(usize, usize), Vec<(Option<Box<str>>, Entry)>, BuildHasherDefault<AddrHasher>>;

thread_local! {
    static RESOLVED: RefCell<Resolved> = RefCell::new(Resolved::default());
}

/// The entry `name{label}`, registered with `make` on first use. Only a
/// thread's first request for it takes the registry lock; every later one
/// is a lookup in the thread's own map that allocates nothing.
fn resolve(name: &'static str, label: Option<&str>, make: fn() -> Entry) -> Entry {
    let from_registry = || {
        let mut metrics = registry().metrics.lock().expect("registry poisoned");
        *metrics
            .entry((name, label.map(str::to_owned)))
            .or_insert_with(make)
    };
    RESOLVED
        .try_with(|resolved| {
            let mut resolved = resolved.borrow_mut();
            let slot = resolved
                .entry((name.as_ptr() as usize, name.len()))
                .or_default();
            match slot.iter().find(|(l, _)| l.as_deref() == label) {
                Some(&(_, entry)) => entry,
                None => {
                    let entry = from_registry();
                    slot.push((label.map(Box::from), entry));
                    entry
                }
            }
        })
        // The thread's map is gone while its thread-locals are torn down.
        .unwrap_or_else(|_| from_registry())
}

/// The handle `get` makes of `name{label}`.
///
/// # Panics
///
/// Panics if `name{label}` is registered as another kind of metric.
fn handle<T>(
    name: &'static str,
    label: Option<&str>,
    make: fn() -> Entry,
    get: fn(Entry) -> Option<T>,
) -> T {
    let entry = resolve(name, label, make);
    get(entry).unwrap_or_else(|| panic!("metric {name:?} already registered as a {}", entry.kind()))
}

/// A monotonically increasing atomic counter handle: a reference to the
/// counter's cell, so cloning is free. `add` accumulated totals rather
/// than one per element.
#[derive(Clone)]
pub struct Counter {
    cell: &'static AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Relaxed)
    }
}

/// A last-value metric handle storing an `f64`.
#[derive(Clone)]
pub struct Gauge {
    bits: &'static AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }
}

/// A log₂-bucketed histogram handle.
#[derive(Clone)]
pub struct Histogram {
    core: &'static HistogramCore,
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.core.record(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.core.count.load(Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Relaxed)
    }

    /// Approximate quantile `q in [0, 1]`; monotone in `q`.
    pub fn percentile(&self, q: f64) -> u64 {
        self.core.percentile(q)
    }
}

/// Returns the counter named `name` (no label), registering it on first
/// use.
pub fn counter(name: &'static str) -> Counter {
    counter_entry(name, None)
}

/// Returns the counter `name{label}` — e.g. per-variant FLOP counts use
/// the variant name as the label.
pub fn counter_with(name: &'static str, label: &str) -> Counter {
    counter_entry(name, Some(label))
}

fn counter_entry(name: &'static str, label: Option<&str>) -> Counter {
    handle(
        name,
        label,
        || Entry::Counter(leak(AtomicU64::new(0))),
        |e| match e {
            Entry::Counter(cell) => Some(Counter { cell }),
            _ => None,
        },
    )
}

/// Returns the gauge named `name`, registering it on first use.
pub fn gauge(name: &'static str) -> Gauge {
    handle(
        name,
        None,
        || Entry::Gauge(leak(AtomicU64::new(0f64.to_bits()))),
        |e| match e {
            Entry::Gauge(bits) => Some(Gauge { bits }),
            _ => None,
        },
    )
}

/// Returns the histogram named `name` (no label), registering it on
/// first use.
pub fn histogram(name: &'static str) -> Histogram {
    histogram_entry(name, None)
}

/// Returns the histogram `name{label}`.
pub fn histogram_with(name: &'static str, label: &str) -> Histogram {
    histogram_entry(name, Some(label))
}

fn histogram_entry(name: &'static str, label: Option<&str>) -> Histogram {
    handle(
        name,
        label,
        || Entry::Histogram(leak(HistogramCore::new())),
        |e| match e {
            Entry::Histogram(core) => Some(Histogram { core }),
            _ => None,
        },
    )
}

fn span_core(name: &'static str) -> &'static SpanCore {
    handle(
        name,
        None,
        || {
            Entry::Span(leak(SpanCore {
                durations: HistogramCore::new(),
                self_ns: AtomicU64::new(0),
            }))
        },
        |e| match e {
            Entry::Span(core) => Some(core),
            _ => None,
        },
    )
}

struct Frame {
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an open span; records on drop. Guards must be dropped
/// in LIFO order on the thread that opened them (the natural result of
/// holding them in local scopes).
pub struct SpanGuard {
    name: &'static str,
    // Spans time a single thread's stack; keep the guard on it.
    _not_send: PhantomData<*const ()>,
}

/// Opens a span named `name`, timed until the returned guard drops.
/// While open, any spans opened on the same thread are its children:
/// their time counts toward this span's inclusive time but not its
/// exclusive ("self") time.
#[must_use = "a span records when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    SPAN_STACK.with(|s| {
        s.borrow_mut().push(Frame {
            start: Instant::now(),
            child_ns: 0,
        })
    });
    SpanGuard {
        name,
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (total_ns, child_ns) = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack.pop().expect("span guard dropped out of order");
            let total = frame.start.elapsed().as_nanos() as u64;
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += total;
            }
            (total, frame.child_ns)
        });
        let core = span_core(self.name);
        core.durations.record(total_ns);
        core.self_ns
            .fetch_add(total_ns.saturating_sub(child_ns), Relaxed);
        // Mirror the span onto the timeline so every instrumented stage
        // shows up as an interval in the exported Chrome trace.
        crate::record_span_complete(self.name, total_ns);
    }
}

/// Appends a structured event (e.g. one per trainer step) to the event
/// log; exported as its own JSONL line. The log grows with the run, so
/// nothing is appended while the recording switch
/// ([`crate::trace_set_enabled`]) is off.
pub fn event(name: &str, fields: &[(&str, Value)]) {
    if !crate::is_enabled() {
        return;
    }
    let mut line = format!("{{\"type\":\"event\",\"name\":{}", json_escape(name));
    for (key, value) in fields {
        let _ = write!(line, ",{}:{}", json_escape(key), value.to_json());
    }
    line.push('}');
    registry()
        .events
        .lock()
        .expect("event log poisoned")
        .push(line);
}

/// Captures the current state of the global registry.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let mut snap = Snapshot::default();
    {
        let metrics = reg.metrics.lock().expect("registry poisoned");
        for ((name, label), entry) in metrics.iter() {
            match entry {
                Entry::Counter(c) => snap.counters.push(CounterRow {
                    name: name.to_string(),
                    label: label.clone(),
                    value: c.load(Relaxed),
                }),
                Entry::Gauge(g) => snap.gauges.push(GaugeRow {
                    name: name.to_string(),
                    value: f64::from_bits(g.load(Relaxed)),
                }),
                Entry::Histogram(h) => {
                    snap.histograms.push(histogram_row(name, label.clone(), h));
                }
                Entry::Span(s) => {
                    let h = &s.durations;
                    snap.spans.push(SpanRow {
                        name: name.to_string(),
                        calls: h.count.load(Relaxed),
                        total_ns: h.sum.load(Relaxed),
                        self_ns: s.self_ns.load(Relaxed),
                        p50_ns: h.percentile(0.5),
                        p99_ns: h.percentile(0.99),
                        max_ns: h.max.load(Relaxed),
                    });
                }
            }
        }
    }
    snap.events = reg.events.lock().expect("event log poisoned").clone();
    snap.counters
        .sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
    snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
    snap.histograms
        .sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
    snap.spans
        .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    snap
}

fn histogram_row(name: &str, label: Option<String>, h: &HistogramCore) -> HistogramRow {
    let count = h.count.load(Relaxed);
    let min = h.min.load(Relaxed);
    HistogramRow {
        name: name.to_string(),
        label,
        count,
        sum: h.sum.load(Relaxed),
        min: if count == 0 { 0 } else { min },
        max: h.max.load(Relaxed),
        p50: h.percentile(0.5),
        p90: h.percentile(0.9),
        p99: h.percentile(0.99),
    }
}

/// Exports the current registry state as JSONL to `path`.
pub fn export_jsonl(path: impl AsRef<Path>) -> io::Result<()> {
    JsonlSink::new(path).export(&snapshot())
}

/// Returns the current summary table as a string.
pub fn summary_string() -> String {
    crate::report::render_summary(&snapshot())
}

/// Prints the current summary table to stdout.
pub fn print_summary() {
    print!("{}", summary_string());
}
