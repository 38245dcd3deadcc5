//! Per-step MoE health reporting.
//!
//! The paper's dropless claim is a *quality-of-routing* claim: no
//! dropped tokens, bounded padding waste, balanced expert load. Scalar
//! telemetry (counters/gauges) only shows end-of-run totals, so this
//! module keeps a per-step record of the routing health signals —
//! expert-load imbalance factor, padding overhead, drop rate, router
//! entropy and throughput — which the trainer appends after every
//! optimizer step and the bench binaries aggregate to
//! `results/health_<cmd>.json`.
//!
//! One record per step grows with the run, so recording is gated on
//! telemetry's runtime switch ([`telemetry::trace_set_enabled`], off
//! until someone asks for output); while it is off every call is a
//! cheap early return and no memory accumulates.

use std::io;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use megablocks_telemetry as telemetry;
use megablocks_telemetry::json::Json;

/// Routing-health signals for one optimizer step, aggregated across the
/// model's MoE layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthRecord {
    /// Optimizer step index (0-based).
    pub step: u64,
    /// Worst expert-load imbalance across layers: max expert load over
    /// mean expert load (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Padding rows per kept assignment row, summed over layers
    /// (§5.2 block-rounding waste; 0 for an exact fit).
    pub padding_overhead: f64,
    /// Dropped token-assignments over total assignments (always 0 for a
    /// dropless MoE; nonzero only for the dropping baselines).
    pub drop_rate: f64,
    /// Mean Shannon entropy (nats) of the per-expert token counts
    /// across layers; `ln(num_experts)` when routing is uniform.
    pub router_entropy: f64,
    /// End-to-end training throughput for the step.
    pub tokens_per_sec: f64,
}

fn records() -> &'static Mutex<Vec<HealthRecord>> {
    static RECORDS: OnceLock<Mutex<Vec<HealthRecord>>> = OnceLock::new();
    RECORDS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Appends one step's health record (no-op while telemetry's recording
/// switch is off).
pub fn record_step(record: HealthRecord) {
    if !telemetry::is_enabled() {
        return;
    }
    records()
        .lock()
        .expect("health records poisoned")
        .push(record);
}

/// Copies out every recorded step, in recording order.
pub fn health_snapshot() -> Vec<HealthRecord> {
    records().lock().expect("health records poisoned").clone()
}

/// Clears the recorded steps (tests and multi-run binaries).
pub fn reset_health() {
    records().lock().expect("health records poisoned").clear();
}

/// Aggregate view over a run's [`HealthRecord`]s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthSummary {
    /// Number of recorded steps.
    pub steps: u64,
    /// Mean per-step imbalance factor.
    pub mean_imbalance: f64,
    /// Worst per-step imbalance factor.
    pub max_imbalance: f64,
    /// Mean padding overhead.
    pub mean_padding_overhead: f64,
    /// Worst per-step drop rate.
    pub max_drop_rate: f64,
    /// Mean router entropy (nats).
    pub mean_router_entropy: f64,
    /// Mean throughput (tokens/sec).
    pub mean_tokens_per_sec: f64,
}

/// Summarizes a slice of records (all-zero summary for an empty run).
pub fn summarize(records: &[HealthRecord]) -> HealthSummary {
    if records.is_empty() {
        return HealthSummary::default();
    }
    let n = records.len() as f64;
    let mut s = HealthSummary {
        steps: records.len() as u64,
        ..HealthSummary::default()
    };
    for r in records {
        s.mean_imbalance += r.imbalance / n;
        s.max_imbalance = s.max_imbalance.max(r.imbalance);
        s.mean_padding_overhead += r.padding_overhead / n;
        s.max_drop_rate = s.max_drop_rate.max(r.drop_rate);
        s.mean_router_entropy += r.router_entropy / n;
        s.mean_tokens_per_sec += r.tokens_per_sec / n;
    }
    s
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders records as the `health_<cmd>.json` document: a summary block
/// plus one object per step.
pub fn render_health_json(records: &[HealthRecord]) -> String {
    use std::fmt::Write as _;
    let s = summarize(records);
    let mut out = String::new();
    out.push_str("{\n\"report\":\"moe_health\",\n\"summary\":{");
    let _ = write!(
        out,
        "\"steps\":{},\"mean_imbalance\":{},\"max_imbalance\":{},\
         \"mean_padding_overhead\":{},\"max_drop_rate\":{},\
         \"mean_router_entropy\":{},\"mean_tokens_per_sec\":{}",
        s.steps,
        fmt_f64(s.mean_imbalance),
        fmt_f64(s.max_imbalance),
        fmt_f64(s.mean_padding_overhead),
        fmt_f64(s.max_drop_rate),
        fmt_f64(s.mean_router_entropy),
        fmt_f64(s.mean_tokens_per_sec)
    );
    out.push_str("},\n\"records\":[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"step\":{},\"imbalance\":{},\"padding_overhead\":{},\
             \"drop_rate\":{},\"router_entropy\":{},\"tokens_per_sec\":{}}}",
            r.step,
            fmt_f64(r.imbalance),
            fmt_f64(r.padding_overhead),
            fmt_f64(r.drop_rate),
            fmt_f64(r.router_entropy),
            fmt_f64(r.tokens_per_sec)
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Parses a `health_<cmd>.json` document back into its records (the
/// health CLI and tests use this).
pub fn parse_health_json(src: &str) -> Result<Vec<HealthRecord>, String> {
    let doc = Json::parse(src)?;
    if doc.get("report").and_then(Json::as_str) != Some("moe_health") {
        return Err("not a moe_health report".to_string());
    }
    let rows = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("missing records array")?;
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let num = |key: &str| {
            row.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("record {i}: missing number {key:?}"))
        };
        out.push(HealthRecord {
            step: num("step")? as u64,
            imbalance: num("imbalance")?,
            padding_overhead: num("padding_overhead")?,
            drop_rate: num("drop_rate")?,
            router_entropy: num("router_entropy")?,
            tokens_per_sec: num("tokens_per_sec")?,
        });
    }
    Ok(out)
}

/// Writes the current health records to `path` (parent directories are
/// created). No-op returning `Ok` when no steps were recorded.
pub fn export_health_json(path: impl AsRef<Path>) -> io::Result<()> {
    let records = health_snapshot();
    if records.is_empty() {
        return Ok(());
    }
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, render_health_json(&records))?;
    eprintln!("telemetry: wrote {}", path.display());
    Ok(())
}

/// Renders a short human-readable table for a slice of records (the
/// `megablocks-bench health` summarizer).
pub fn render_health_summary(records: &[HealthRecord]) -> String {
    use std::fmt::Write as _;
    let s = summarize(records);
    let mut out = String::new();
    let _ = writeln!(out, "================ moe health ================");
    let _ = writeln!(out, "steps                 {:>12}", s.steps);
    let _ = writeln!(out, "mean imbalance        {:>12.4}", s.mean_imbalance);
    let _ = writeln!(out, "max imbalance         {:>12.4}", s.max_imbalance);
    let _ = writeln!(
        out,
        "mean padding overhead {:>12.4}",
        s.mean_padding_overhead
    );
    let _ = writeln!(out, "max drop rate         {:>12.4}", s.max_drop_rate);
    let _ = writeln!(out, "mean router entropy   {:>12.4}", s.mean_router_entropy);
    let _ = writeln!(out, "mean tokens/sec       {:>12.1}", s.mean_tokens_per_sec);
    let _ = writeln!(out, "============================================");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: u64, imb: f64) -> HealthRecord {
        HealthRecord {
            step,
            imbalance: imb,
            padding_overhead: 0.25,
            drop_rate: 0.0,
            router_entropy: 1.2,
            tokens_per_sec: 1000.0,
        }
    }

    #[test]
    fn health_json_round_trips() {
        let records = vec![rec(0, 1.0), rec(1, 2.5), rec(2, 1.5)];
        let json = render_health_json(&records);
        let back = parse_health_json(&json).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn summary_aggregates() {
        let s = summarize(&[rec(0, 1.0), rec(1, 3.0)]);
        assert_eq!(s.steps, 2);
        assert!((s.mean_imbalance - 2.0).abs() < 1e-12);
        assert_eq!(s.max_imbalance, 3.0);
        assert!((s.mean_padding_overhead - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_run_summarizes_to_zero() {
        assert_eq!(summarize(&[]), HealthSummary::default());
        let json = render_health_json(&[]);
        assert_eq!(parse_health_json(&json).unwrap(), Vec::new());
    }

    #[test]
    fn parse_rejects_other_reports() {
        assert!(parse_health_json("{\"report\":\"other\",\"records\":[]}").is_err());
    }
}
