//! Names, units and bounds of every metric, and the result line the driver
//! reads. `../BENCHMARK.json` lists the same metrics; a unit test keeps the
//! two in step.

use std::fmt::Write as _;

/// The five workloads, in the order they run.
pub const WORKLOADS: [&str; 5] = [
    "train_dmoe",
    "train_dense",
    "serve_steady",
    "serve_saturated",
    "lm_generate",
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// A metric's static description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the reference value by which an end-to-end metric may get
    /// worse before it counts as a regression; 0 for per-layer metrics.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one, from the untraced run.
///
/// The bounds are the widest the contract allows, on measurement: the
/// reference box is a shared two-vCPU VM whose speed on identical code moves
/// by 20% and more for minutes at a time (README, "Reference numbers"), so
/// a tighter bound would reject unchanged code.
pub const END_TO_END: [Def; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tokens_per_s", "tok/s", Higher, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("op_ms_p90", "ms", Lower, 0.25),
    e2e("cpu_ms_per_ktok", "ms/ktok", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer metrics (layers are the crate names), from the traced run. A
/// layer a workload bypasses reports 0 on the result line and `n/a` in
/// the table.
pub const PER_LAYER: [Def; 64] = [
    layer("calib.peak_gflops", "GFLOP/s", Higher),
    layer("calib.stream_gbs", "GB/s", Higher),
    layer("calib.drift_frac", "frac", Lower),
    layer("proc.cpu_util", "cores", Lower),
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.coverage_frac", "frac", Higher),
    layer("data.sample_batch_us", "us", Lower),
    layer("exec.threads", "count", Higher),
    layer("exec.launch_us", "us", Lower),
    layer("exec.workspace_hit_frac", "frac", Higher),
    layer("tensor.gemm_ffn_gflops", "GFLOP/s", Higher),
    layer("tensor.gemm_lmhead_ms", "ms", Lower),
    layer("tensor.layernorm_fwd_bwd_ms", "ms", Lower),
    layer("tensor.softmax_ms", "ms", Lower),
    layer("tensor.cross_entropy_ms", "ms", Lower),
    layer("tensor.gelu_ms", "ms", Lower),
    layer("sparse.topology_build_us", "us", Lower),
    layer("sparse.nnz_blocks", "count", Lower),
    layer("sparse.sdd_gflops", "GFLOP/s", Higher),
    layer("sparse.dsd_gflops", "GFLOP/s", Higher),
    layer("sparse.sdd_t_gflops", "GFLOP/s", Higher),
    layer("sparse.dsd_t_gflops", "GFLOP/s", Higher),
    layer("sparse.dst_d_gflops", "GFLOP/s", Higher),
    layer("sparse.ddt_s_gflops", "GFLOP/s", Higher),
    layer("core.router_fwd_ms", "ms", Lower),
    layer("core.router_bwd_ms", "ms", Lower),
    layer("core.permute_build_us", "us", Lower),
    layer("core.gather_ms", "ms", Lower),
    layer("core.scatter_ms", "ms", Lower),
    layer("core.gather_bwd_ms", "ms", Lower),
    layer("core.scatter_bwd_ms", "ms", Lower),
    layer("core.dmoe_fwd_ms", "ms", Lower),
    layer("core.dmoe_bwd_ms", "ms", Lower),
    layer("core.dmoe_infer_ms", "ms", Lower),
    layer("core.dmoe_glue_frac", "frac", Lower),
    layer("core.padding_overhead", "frac", Lower),
    layer("core.dropped_frac", "frac", Lower),
    layer("core.dense_ffn_fwd_ms", "ms", Lower),
    layer("core.dense_ffn_bwd_ms", "ms", Lower),
    layer("core.dropping_cf1_fwd_bwd_ms", "ms", Lower),
    layer("core.dropping_cf1_dropped_frac", "frac", Lower),
    layer("transformer.attn_fwd_ms", "ms", Lower),
    layer("transformer.attn_bwd_ms", "ms", Lower),
    layer("transformer.block_fwd_ms", "ms", Lower),
    layer("transformer.block_bwd_ms", "ms", Lower),
    layer("transformer.fwd_ms", "ms", Lower),
    layer("transformer.fwd_bwd_ms", "ms", Lower),
    layer("transformer.clip_ms", "ms", Lower),
    layer("transformer.adam_ms", "ms", Lower),
    layer("transformer.next_token_ms_ctx32", "ms", Lower),
    layer("transformer.next_token_ms_ctx96", "ms", Lower),
    layer("transformer.eval_loss", "nats", Lower),
    layer("serve.submit_us_p50", "us", Lower),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.queue_wait_ms_p90", "ms", Lower),
    layer("serve.service_ms_p50", "ms", Lower),
    layer("serve.batch_size_mean", "count", Higher),
    layer("serve.batch_tokens_mean", "count", Higher),
    layer("serve.batches", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.expired", "count", Lower),
    layer("serve.max_queue_depth", "count", Lower),
    layer("serve.latency_ms_p99", "ms", Lower),
    layer("serve.generator_late_ms_p99", "ms", Lower),
];

/// Measured values by metric name. A name that was never set is a layer
/// the workload bypasses.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets (or replaces) a value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if it was measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The last line of a run: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, listing every metric of
/// `defs` with all the digits measured.
pub fn result_line(
    defs: &[Def],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, def) in defs.iter().enumerate() {
        let value = values
            .get(def.name)
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    out.push_str("}}");
    out
}

/// A human-readable table of `defs`; per-layer GFLOP/s rows also show
/// their share of the calibrated peak.
pub fn table(defs: &[Def], values: &Values) -> String {
    let peak = values.get("calib.peak_gflops");
    let mut out = String::new();
    for def in defs {
        let _ = match values.get(def.name) {
            Some(v) => {
                let share = match peak {
                    Some(peak) if def.unit == "GFLOP/s" && !def.name.starts_with("calib.") => {
                        format!("  ({:.1}% of calib.peak_gflops)", 100.0 * v / peak)
                    }
                    _ => String::new(),
                };
                writeln!(out, "  {:<34} {v:>14.4} {}{share}", def.name, def.unit)
            }
            None => writeln!(out, "  {:<34} {:>14} {}", def.name, "n/a", def.unit),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("setup_s", 0.8127);
        values.set("tokens_per_s", 2350.25);
        let line = result_line(&END_TO_END, &values, true, 100, 0);
        let json = api::parse_json(&line).expect("valid JSON");
        let api::Json::Obj(fields) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = json.get("metrics").expect("metrics");
        for def in END_TO_END {
            let m = metrics.get(def.name).expect(def.name);
            assert!(m.get("value").and_then(api::Json::as_f64).is_some());
            assert_eq!(m.get("unit").and_then(api::Json::as_str), Some(def.unit));
        }
        let setup = metrics.get("setup_s").and_then(|m| m.get("value"));
        assert_eq!(setup.and_then(api::Json::as_f64), Some(0.8127));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.extend(WORKLOADS);
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate name");
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(def.unit.len() <= 16, "{}", def.unit);
            assert!(def.bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }

    /// `BENCHMARK.json` at the repository root must describe exactly the
    /// metrics and workloads this program reports.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = api::parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<api::Json> {
            json.get(key)
                .and_then(api::Json::as_arr)
                .expect(key)
                .to_vec()
        };
        let text = |j: &api::Json, key: &str| -> String {
            j.get(key)
                .and_then(api::Json::as_str)
                .expect(key)
                .to_owned()
        };
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let got = listed(key);
            assert_eq!(got.len(), defs.len(), "{key}");
            for (j, def) in got.iter().zip(defs) {
                assert_eq!(text(j, "name"), def.name);
                assert_eq!(text(j, "unit"), def.unit, "{}", def.name);
                let better = match def.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                assert_eq!(text(j, "better"), better, "{}", def.name);
                if key == "end_to_end" {
                    let bound = j.get("bound").and_then(api::Json::as_f64);
                    assert_eq!(bound, Some(def.bound), "{}", def.name);
                }
            }
        }
    }
}
