//! Edge-case coverage for the report layer: histogram/percentile
//! behaviour at the log₂ bucket boundaries, empty and single-sample
//! distributions, and well-formedness of the rendered JSONL/summary
//! output. The pure-data tests build their snapshots by hand; the
//! `live` module drives the global registry.

use megablocks_telemetry as telemetry;
use megablocks_telemetry::json::Json;
use megablocks_telemetry::{render_jsonl, render_summary, CounterRow, HistogramRow, Snapshot};

#[test]
fn empty_snapshot_renders_to_nothing_but_a_frame() {
    let snap = Snapshot::default();
    assert_eq!(render_jsonl(&snap), "");
    let summary = render_summary(&snap);
    assert!(summary.contains("telemetry summary"));
    // No metric sections appear for an empty registry.
    assert!(!summary.contains("histogram"));
    assert!(!summary.contains("counter"));
}

#[test]
fn jsonl_rows_are_valid_json_objects() {
    let snap = Snapshot {
        counters: vec![CounterRow {
            name: "edge.counter \"quoted\"".to_string(),
            label: Some("e\\0".to_string()),
            value: u64::MAX,
        }],
        histograms: vec![HistogramRow {
            name: "edge.hist".to_string(),
            label: None,
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            p50: 0,
            p90: 0,
            p99: 0,
        }],
        ..Snapshot::default()
    };
    for line in render_jsonl(&snap).lines() {
        let obj =
            Json::parse(line).unwrap_or_else(|e| panic!("unparseable JSONL line {line:?}: {e}"));
        assert!(obj.get("type").is_some(), "row missing type: {line}");
        assert!(obj.get("name").is_some(), "row missing name: {line}");
    }
    // Escaping round-trips through the parser.
    let first = Json::parse(render_jsonl(&snap).lines().next().unwrap()).unwrap();
    assert_eq!(
        first.get("name").and_then(|n| n.as_str()),
        Some("edge.counter \"quoted\"")
    );
    assert_eq!(first.get("label").and_then(|l| l.as_str()), Some("e\\0"));
    // u64::MAX survives the u64 rendering path (not f64-rounded).
    assert_eq!(first.get("value").and_then(|v| v.as_u64()), Some(u64::MAX));
}

mod live {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = telemetry::histogram("edge.empty");
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 0, "empty percentile({q})");
        }
        let snap = telemetry::snapshot();
        let row = snap
            .histograms
            .iter()
            .find(|r| r.name == "edge.empty")
            .expect("registered family appears in the snapshot");
        assert_eq!((row.count, row.min, row.max), (0, 0, 0));
        assert_eq!((row.p50, row.p90, row.p99), (0, 0, 0));
    }

    #[test]
    fn single_sample_pins_every_percentile() {
        // 100 lands in bucket [64, 127]; the bucket upper bound (127)
        // must clamp back to the observed range [100, 100].
        let h = telemetry::histogram("edge.single");
        h.record(100);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 100, "single-sample percentile({q})");
        }
        let snap = telemetry::snapshot();
        let row = snap
            .histograms
            .iter()
            .find(|r| r.name == "edge.single")
            .unwrap();
        assert_eq!((row.min, row.p50, row.p99, row.max), (100, 100, 100, 100));
    }

    #[test]
    fn zero_occupies_its_own_bucket() {
        let h = telemetry::histogram("edge.zero");
        h.record(0);
        h.record(0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.percentile(q), 0);
        }
        assert_eq!(h.sum(), 0);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn log2_bucket_boundaries_separate_adjacent_powers() {
        // 7 (bit length 3) and 8 (bit length 4) land in different
        // buckets, so the estimator can tell them apart exactly at the
        // boundary: the low quantile reports 7's bucket upper bound (7)
        // and the high quantile reports 8 (bucket upper 15 clamped to
        // the observed max).
        let h = telemetry::histogram("edge.boundary");
        h.record(7);
        h.record(8);
        assert_eq!(h.percentile(0.0), 7);
        assert_eq!(h.percentile(0.5), 7);
        assert_eq!(h.percentile(1.0), 8);
    }

    #[test]
    fn powers_of_two_stay_monotone_across_all_buckets() {
        let h = telemetry::histogram("edge.powers");
        for k in 0..63u32 {
            h.record(1u64 << k);
            h.record((1u64 << k).saturating_sub(1));
        }
        let mut prev = 0;
        for i in 0..=100 {
            let p = h.percentile(i as f64 / 100.0);
            assert!(p >= prev, "percentile({i}%) = {p} < previous {prev}");
            prev = p;
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), 1u64 << 62);
    }

    #[test]
    fn huge_samples_clamp_to_the_observed_max() {
        // Bit length 64: the bucket upper bound is u64::MAX, which must
        // clamp down to the largest sample actually seen. Both samples
        // share the top bucket, so every quantile resolves to its upper
        // bound — clamped into the observed range, never past it.
        let h = telemetry::histogram("edge.huge");
        h.record(1u64 << 63);
        h.record((1u64 << 63) + 12345);
        for q in [0.0, 0.5, 1.0] {
            let p = h.percentile(q);
            assert!(
                (1u64 << 63..=(1u64 << 63) + 12345).contains(&p),
                "percentile({q}) = {p} escaped the observed range"
            );
        }
        assert_eq!(h.percentile(1.0), (1u64 << 63) + 12345);
    }

    #[test]
    fn live_jsonl_lines_parse_back() {
        telemetry::histogram_with("edge.labelled", "expert-0").record(3);
        for line in render_jsonl(&telemetry::snapshot()).lines() {
            Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        }
    }
}
