//! End-to-end observability acceptance: a short dMoE training run with
//! recording switched on must emit a valid Chrome-trace JSON with lanes
//! for every exec worker plus kernel and step spans, and a per-step MoE
//! health report with load-imbalance and padding-overhead figures.

use std::path::PathBuf;

use megablocks::core::health;
use megablocks::core::MoeConfig;
use megablocks::data::{PileConfig, SyntheticPile};
use megablocks::telemetry;
use megablocks::telemetry::TracePhase;
use megablocks::transformer::{
    FfnKind, ResilienceConfig, ResilientTrainer, Trainer, TrainerConfig, TransformerConfig,
    TransformerLm,
};

const STEPS: usize = 4;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbrs-trace-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn dmoe_run_emits_trace_lanes_spans_and_health_report() {
    // Pin the worker pool before anything touches it: the acceptance bar
    // is one trace lane per exec worker, independent of host core count.
    megablocks::exec::configure_threads(4);
    telemetry::trace_set_enabled(true);
    telemetry::trace_reset();
    health::reset_health();

    // --- A short dMoE training run under the flush guard ---------------
    let dir = temp_dir();
    let export = dir.join("telemetry.jsonl");
    let (train, _valid) = SyntheticPile::generate(
        &PileConfig {
            vocab_size: 64,
            num_clusters: 4,
            num_tokens: 4_000,
            mean_doc_len: 32,
            branching: 2,
            noise: 0.05,
        },
        7,
    )
    .split(0.9);
    let moe = MoeConfig::new(32, 64, 4).with_block_size(8);
    let mut cfg = TransformerConfig::tiny(FfnKind::Dropless(moe));
    cfg.seq_len = 16;
    let mut rng = megablocks::tensor::init::seeded_rng(11);
    let model = TransformerLm::new(cfg, &mut rng);
    let trainer = Trainer::new(
        model,
        TrainerConfig {
            batch_size: 8,
            micro_batch_size: 4,
            seq_len: 16,
            lr_max: 2e-3,
            warmup_steps: 2,
            total_steps: STEPS,
            clip: 1.0,
            seed: 3,
        },
    );
    let mut rt = ResilientTrainer::new(
        trainer,
        ResilienceConfig {
            telemetry_export: Some(export.clone()),
            ..ResilienceConfig::default()
        },
    );
    let logs = rt.train(&train, STEPS).expect("training completes");
    assert_eq!(logs.len(), STEPS);
    drop(rt); // The flush guard writes the JSONL + trace artifacts.

    // --- Trace artifact: valid, lane-complete, span-complete ------------
    let trace_path = export.with_extension("trace.json");
    let src = std::fs::read_to_string(&trace_path).expect("trace flushed on drop");
    let snap = telemetry::parse_chrome_trace(&src).expect("trace is valid Chrome JSON");
    // Render → parse is the identity on what the recorder holds.
    assert_eq!(
        telemetry::parse_chrome_trace(&telemetry::render_chrome_trace(&snap)).unwrap(),
        snap
    );

    // Four-way execution: the pool spawns `threads - 1` background
    // workers and runs band 0 on the submitting thread, so a 4-thread
    // run shows three `megablocks-exec-*` lanes plus the caller's lane
    // — four lanes of kernel work in total.
    let worker_lanes: Vec<_> = snap
        .lanes
        .iter()
        .filter(|l| l.name.starts_with("megablocks-exec-"))
        .collect();
    assert!(
        worker_lanes.len() >= 3,
        "expected a lane per spawned exec worker, got {:?}",
        snap.lanes
    );
    assert!(
        snap.lanes.len() >= 4,
        "expected >= 4 execution lanes, got {:?}",
        snap.lanes
    );
    // Every worker lane actually carried events (queue waits + bands).
    for lane in &worker_lanes {
        assert!(
            snap.events.iter().any(|e| e.tid == lane.tid),
            "worker lane {} recorded no events",
            lane.name
        );
    }
    // Work really landed on >= 4 distinct lanes, not just registered.
    let active_tids: std::collections::BTreeSet<u32> = snap
        .events
        .iter()
        .filter(|e| matches!(e.phase, TracePhase::Complete { .. }))
        .map(|e| e.tid)
        .collect();
    assert!(
        active_tids.len() >= 4,
        "kernel spans landed on only {} lanes",
        active_tids.len()
    );

    let complete_names: Vec<&str> = snap
        .events
        .iter()
        .filter(|e| matches!(e.phase, TracePhase::Complete { .. }))
        .map(|e| e.name.as_str())
        .collect();
    for family in [
        "sparse.sdd",
        "moe.dmoe.forward",
        "moe.dmoe.backward",
        "train.step",
    ] {
        assert!(
            complete_names.contains(&family),
            "trace missing {family} spans; saw {:?}",
            {
                let mut u: Vec<_> = complete_names.clone();
                u.sort_unstable();
                u.dedup();
                u
            }
        );
    }
    assert!(
        complete_names.contains(&"exec.queue_wait"),
        "trace missing queue-wait accounting"
    );

    // --- Health report: one record per step, sane figures ---------------
    let records = health::health_snapshot();
    assert_eq!(records.len(), STEPS, "one health record per optimizer step");
    for r in &records {
        assert!(
            r.imbalance.is_finite() && r.imbalance >= 1.0,
            "imbalance is max/mean load, >= 1: {r:?}"
        );
        assert!(
            r.padding_overhead.is_finite() && r.padding_overhead >= 0.0,
            "padding overhead is a fraction: {r:?}"
        );
        assert!(
            (0.0..=1.0).contains(&r.drop_rate),
            "drop rate in [0,1]: {r:?}"
        );
        assert!(r.router_entropy >= 0.0, "entropy non-negative: {r:?}");
        assert!(r.tokens_per_sec > 0.0, "throughput recorded: {r:?}");
    }
    // dMoE never drops tokens.
    assert!(records.iter().all(|r| r.drop_rate == 0.0));

    // The JSON report round-trips and carries the per-step figures.
    let health_path = dir.join("health.json");
    health::export_health_json(&health_path).expect("health export");
    let back =
        health::parse_health_json(&std::fs::read_to_string(&health_path).expect("health file"))
            .expect("health JSON parses");
    assert_eq!(back, records);

    // The scalar registry flushed too.
    let jsonl = std::fs::read_to_string(&export).expect("jsonl flushed on drop");
    assert!(jsonl.contains("train.step"));

    telemetry::trace_set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);
}
