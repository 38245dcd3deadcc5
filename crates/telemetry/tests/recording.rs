//! Behavioural tests for the metric registry: exact concurrent
//! counting, monotone percentiles, nested span accounting, and the JSONL
//! sink format.

use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use megablocks_telemetry as telemetry;

/// Tests that read whole-registry snapshots serialize on this lock so
/// parallel test threads don't interleave.
static SNAPSHOT_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn concurrent_counter_increments_land_exactly() {
    let threads = 8;
    let per_thread = 10_000u64;
    #[allow(
        clippy::disallowed_methods,
        reason = "concurrent OS threads are what the counters must survive"
    )]
    thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // One handle fetch per "kernel call", then hot increments.
                let c = telemetry::counter("test.concurrent_adds");
                for _ in 0..per_thread {
                    c.inc();
                }
                let h = telemetry::histogram("test.concurrent_hist");
                for v in 0..per_thread {
                    h.record(v % 97);
                }
            });
        }
    });
    assert_eq!(
        telemetry::counter("test.concurrent_adds").get(),
        threads * per_thread
    );
    assert_eq!(
        telemetry::histogram("test.concurrent_hist").count(),
        threads * per_thread
    );
    let expected_sum: u64 = (0..per_thread).map(|v| v % 97).sum::<u64>() * threads;
    assert_eq!(
        telemetry::histogram("test.concurrent_hist").sum(),
        expected_sum
    );
}

#[test]
fn histogram_percentiles_are_monotone_and_bounded() {
    let h = telemetry::histogram("test.percentiles");
    // A deliberately skewed distribution across many buckets.
    for i in 0..1000u64 {
        h.record(i * i % 50_000);
    }
    let max = (0..1000u64).map(|i| i * i % 50_000).max().unwrap();
    let qs = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
    let mut prev = 0;
    for q in qs {
        let p = h.percentile(q);
        assert!(p >= prev, "percentile({q}) = {p} < previous {prev}");
        prev = p;
    }
    // Tails are exact: p0 is the min, p100 the max.
    assert_eq!(h.percentile(0.0), 0);
    assert_eq!(h.percentile(1.0), max);
    // Every quantile lies within the observed range.
    for q in qs {
        assert!(h.percentile(q) <= max);
    }
}

#[test]
fn percentile_of_constant_distribution_is_that_constant() {
    let h = telemetry::histogram("test.constant");
    for _ in 0..100 {
        h.record(42);
    }
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(h.percentile(q), 42);
    }
}

#[test]
fn labelled_families_are_distinct() {
    for e in 0..4u64 {
        telemetry::counter_with("test.expert_tokens", &e.to_string()).add(10 * (e + 1));
    }
    for e in 0..4u64 {
        assert_eq!(
            telemetry::counter_with("test.expert_tokens", &e.to_string()).get(),
            10 * (e + 1)
        );
    }
}

#[test]
fn nested_spans_report_inclusive_vs_exclusive_time() {
    let _guard = SNAPSHOT_LOCK.lock().unwrap();
    {
        let _outer = telemetry::span("test.outer");
        thread::sleep(Duration::from_millis(15));
        {
            let _inner = telemetry::span("test.inner");
            thread::sleep(Duration::from_millis(15));
        }
        thread::sleep(Duration::from_millis(5));
    }
    let snap = telemetry::snapshot();
    let row = |name: &str| {
        snap.spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span {name} not recorded"))
            .clone()
    };
    let outer = row("test.outer");
    let inner = row("test.inner");
    assert_eq!(outer.calls, 1);
    assert_eq!(inner.calls, 1);
    // Inclusive: the outer span covers the inner span plus its own work.
    assert!(outer.total_ns >= inner.total_ns + 15_000_000);
    // Leaf spans: exclusive == inclusive.
    assert_eq!(inner.self_ns, inner.total_ns);
    // The parent's exclusive time excludes the child entirely.
    assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    // And it still accounts for the parent's own sleeps (~20ms).
    assert!(outer.self_ns >= 15_000_000);
}

#[test]
fn sibling_spans_both_count_toward_parent() {
    let _guard = SNAPSHOT_LOCK.lock().unwrap();
    {
        let _p = telemetry::span("test.parent2");
        for _ in 0..2 {
            let _c = telemetry::span("test.child2");
            thread::sleep(Duration::from_millis(4));
        }
    }
    let snap = telemetry::snapshot();
    let parent = snap
        .spans
        .iter()
        .find(|s| s.name == "test.parent2")
        .unwrap();
    let child = snap.spans.iter().find(|s| s.name == "test.child2").unwrap();
    assert_eq!(child.calls, 2);
    assert!(parent.total_ns >= child.total_ns);
    assert_eq!(parent.self_ns, parent.total_ns - child.total_ns);
}

#[test]
fn jsonl_export_contains_every_metric_kind() {
    let _guard = SNAPSHOT_LOCK.lock().unwrap();
    // The event log is one of the switched logs; no test in this binary
    // needs it off.
    telemetry::trace_set_enabled(true);
    telemetry::counter("test.export_counter").add(3);
    telemetry::gauge("test.export_gauge").set(1.5);
    telemetry::histogram_with("test.export_hist", "e0").record(7);
    {
        let _s = telemetry::span("test.export_span");
    }
    telemetry::event(
        "test.export_event",
        &[("step", 1u64.into()), ("loss", 0.25f32.into())],
    );

    let path = std::env::temp_dir().join(format!(
        "megablocks_telemetry_test_{}.jsonl",
        std::process::id()
    ));
    telemetry::export_jsonl(&path).expect("export");
    let contents = std::fs::read_to_string(&path).expect("read back");
    std::fs::remove_file(&path).ok();

    for needle in [
        r#""type":"counter","name":"test.export_counter","value":3"#,
        r#""type":"gauge","name":"test.export_gauge","value":1.5"#,
        r#""name":"test.export_hist","label":"e0","count":1"#,
        r#""type":"span","name":"test.export_span","calls":1"#,
        r#""type":"event","name":"test.export_event","step":1,"loss":0.25"#,
    ] {
        assert!(
            contents.contains(needle),
            "JSONL missing {needle}\n--- got:\n{contents}"
        );
    }
    // Every line must be a braced object.
    for line in contents.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line {line}"
        );
    }

    // The human-readable summary mentions the same metrics.
    let summary = telemetry::summary_string();
    assert!(summary.contains("test.export_counter"));
    assert!(summary.contains("test.export_span"));
}

#[test]
fn handles_resolved_on_several_threads_count_into_one_cell() {
    let _guard = SNAPSHOT_LOCK.lock().unwrap();
    #[allow(
        clippy::disallowed_methods,
        reason = "each OS thread resolves the handle through its own map"
    )]
    thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for _ in 0..3 {
                    telemetry::counter_with("test.per_thread", "x").add(t + 1);
                }
                // The same name at another address, and a label built at run
                // time, are the same metric.
                let name: &'static str =
                    Box::leak(String::from("test.per_thread").into_boxed_str());
                telemetry::counter_with(name, &String::from("x")).add(100);
            });
        }
    });
    let snap = telemetry::snapshot();
    let rows: Vec<_> = snap
        .counters
        .iter()
        .filter(|c| c.name == "test.per_thread")
        .collect();
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert_eq!(rows[0].label.as_deref(), Some("x"));
    assert_eq!(rows[0].value, 3 * (1 + 2 + 3 + 4) + 4 * 100);
}

#[test]
#[should_panic(expected = "metric \"test.kind_clash\" already registered as a counter")]
fn a_cached_counter_asked_for_as_a_histogram_still_panics() {
    telemetry::counter("test.kind_clash").inc();
    telemetry::counter("test.kind_clash").inc();
    let _ = telemetry::histogram("test.kind_clash");
}
