//! End-to-end observability acceptance: a short dMoE training run with
//! recording switched on must emit a valid Chrome-trace JSON with lanes
//! for every exec worker plus kernel and step spans, and a JSONL whose
//! `train.step` events carry the per-step routing health (load
//! imbalance, padding overhead, drop rate, router entropy).

use std::path::PathBuf;

use megablocks::core::MoeConfig;
use megablocks::data::{PileConfig, SyntheticPile};
use megablocks::telemetry;
use megablocks::telemetry::json::Json;
use megablocks::telemetry::TracePhase;
use megablocks::transformer::{FfnKind, Trainer, TrainerConfig, TransformerConfig, TransformerLm};

const STEPS: usize = 4;
/// Steps after which the caller's workspace arena holds a step's buffers.
const WARM_UP_STEPS: usize = 2;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbrs-trace-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The JSONL lines of one `type` and `name`, in file order.
fn lines_of<'a>(lines: &'a [Json], kind: &str, name: &str) -> Vec<&'a Json> {
    let is =
        |line: &Json, key: &str, want: &str| line.get(key).and_then(Json::as_str) == Some(want);
    lines
        .iter()
        .filter(|l| is(l, "type", kind) && is(l, "name", name))
        .collect()
}

#[test]
fn dmoe_run_emits_trace_lanes_spans_and_health_report() {
    // Pin the worker pool before anything touches it: the acceptance bar
    // is one trace lane per exec worker, independent of host core count.
    megablocks::exec::configure_threads(4);
    telemetry::trace_set_enabled(true);
    telemetry::trace_reset();

    // --- A short dMoE training run under the flush guard ---------------
    let dir = temp_dir();
    let export = dir.join("telemetry.jsonl");
    let trace_path = export.with_extension("trace.json");
    // Declared before the trainer, so it drops after it — also when a
    // panic unwinds through the run.
    let flush = telemetry::FlushOnDrop::new()
        .jsonl(&export)
        .trace(&trace_path);
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
    let num_experts = moe.num_experts;
    let mut cfg = TransformerConfig::tiny(FfnKind::Dropless(moe));
    cfg.seq_len = 16;
    let moe_layers = cfg.num_layers;
    let mut rng = megablocks::tensor::init::seeded_rng(11);
    let model = TransformerLm::new(cfg, &mut rng);
    let mut trainer = Trainer::new(
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
    let logs = trainer.train(&train, STEPS).expect("training completes");
    assert_eq!(logs.len(), STEPS);
    drop(trainer);
    drop(flush); // Writes the JSONL + trace artifacts.

    // --- Trace artifact: valid, lane-complete, span-complete ------------
    let src = std::fs::read_to_string(&trace_path).expect("trace flushed on drop");
    let snap = telemetry::parse_chrome_trace(&src).expect("trace is valid Chrome JSON");
    // Render → parse is the identity on what the recorder holds.
    assert_eq!(
        telemetry::parse_chrome_trace(&telemetry::render_chrome_trace(&snap)).unwrap(),
        snap
    );

    // Four-way execution: the pool spawns `threads - 1` background
    // workers and runs band 0 (and every band no worker claims) on the
    // submitting thread, so a 4-thread run shows three
    // `megablocks-exec-*` lanes plus the caller's lane — four lanes of
    // kernel work in total.
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
        "train.update",
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
    // A submitter that runs out of bands to claim parks on the ones its
    // workers still run, inside an `exec.wait` span.
    assert!(
        complete_names.contains(&"exec.wait"),
        "trace missing the submitter's wait on claimed bands"
    );

    // --- The step interval is the whole step ----------------------------
    // `train.step` runs from the first micro-batch to the end of the
    // update, so every dMoE forward and backward on the caller's lane
    // lies inside one.
    let step_spans: Vec<(u32, u64, u64)> = snap
        .events
        .iter()
        .filter_map(|e| match e.phase {
            TracePhase::Complete { dur_us } if e.name == "train.step" => {
                Some((e.tid, e.ts_us, e.ts_us + dur_us))
            }
            _ => None,
        })
        .collect();
    assert_eq!(step_spans.len(), STEPS, "one train.step interval per step");
    let caller = step_spans[0].0;
    assert!(
        step_spans.iter().all(|&(tid, ..)| tid == caller),
        "every step on the caller's lane: {step_spans:?}"
    );
    let mut moe_spans = 0;
    for e in &snap.events {
        let TracePhase::Complete { dur_us } = e.phase else {
            continue;
        };
        if e.tid != caller || !matches!(e.name.as_str(), "moe.dmoe.forward" | "moe.dmoe.backward") {
            continue;
        }
        moe_spans += 1;
        assert!(
            step_spans
                .iter()
                .any(|&(_, start, end)| start <= e.ts_us && e.ts_us + dur_us <= end),
            "{} at [{}, +{dur_us}] µs lies outside every train.step {step_spans:?}",
            e.name,
            e.ts_us
        );
    }
    // A forward and a backward per MoE layer per micro-batch (2 of them).
    assert_eq!(moe_spans, 2 * moe_layers * 2 * STEPS);

    // --- Routing health: one `train.step` event per step, sane figures --
    let jsonl = std::fs::read_to_string(&export).expect("jsonl flushed on drop");
    let lines: Vec<Json> = jsonl
        .lines()
        .map(|l| Json::parse(l).expect("every JSONL line parses"))
        .collect();
    let steps = lines_of(&lines, "event", "train.step");
    assert_eq!(
        steps.len(),
        STEPS,
        "one train.step event per optimizer step"
    );
    for (i, (ev, log)) in steps.iter().zip(&logs).enumerate() {
        let num = |key: &str| {
            ev.get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("step {i}: no number {key:?} in {ev:?}"))
        };
        assert_eq!(ev.get("step").and_then(Json::as_u64), Some(i as u64));
        let imbalance = num("imbalance");
        let padding_overhead = num("padding_overhead");
        let drop_rate = num("drop_rate");
        assert!(
            imbalance.is_finite() && imbalance >= 1.0,
            "imbalance is max/mean load, >= 1: {ev:?}"
        );
        assert!(
            padding_overhead.is_finite() && padding_overhead >= 0.0,
            "padding overhead is a fraction: {ev:?}"
        );
        assert!(
            (0.0..=1.0).contains(&drop_rate),
            "drop rate in [0,1]: {ev:?}"
        );
        // dMoE never drops tokens.
        assert_eq!(drop_rate, 0.0, "{ev:?}");
        assert!(num("router_entropy") >= 0.0, "entropy non-negative: {ev:?}");
        assert!(num("tokens_per_sec") > 0.0, "throughput recorded: {ev:?}");
        // Every step-sized buffer cycles through the caller's workspace
        // arena: once the first steps have filled it, a step misses none.
        let misses = ev.get("workspace_misses").and_then(Json::as_u64);
        let misses = misses.unwrap_or_else(|| panic!("step {i}: no workspace_misses in {ev:?}"));
        if i >= WARM_UP_STEPS {
            assert_eq!(misses, 0, "step {i} missed the workspace arena: {ev:?}");
        }
        // The event and the returned log are the same numbers.
        assert_eq!(imbalance.to_bits(), log.max_load_imbalance.to_bits());
        assert_eq!(
            ev.get("dropped_tokens").and_then(Json::as_u64),
            Some(log.dropped_tokens as u64)
        );
    }

    // The per-expert counters reconcile with what the run routed: top-1
    // sends every token of every step through each MoE layer once...
    let expert_tokens: Vec<(usize, u64)> = lines_of(&lines, "counter", "moe.expert_tokens")
        .into_iter()
        .map(|c| {
            let expert = c
                .get("label")
                .and_then(Json::as_str)
                .and_then(|l| l.parse().ok());
            let value = c.get("value").and_then(Json::as_u64);
            (expert.expect("expert label"), value.expect("count"))
        })
        .collect();
    let routed: u64 = expert_tokens.iter().map(|&(_, n)| n).sum();
    assert_eq!(routed, (STEPS * 8 * 16 * moe_layers) as u64);
    // ...and name the hottest expert of the run.
    let (hottest, load) = *expert_tokens
        .iter()
        .max_by_key(|&&(_, n)| n)
        .expect("per-expert counters");
    assert!(hottest < num_experts, "expert {hottest} of {num_experts}");
    assert!(
        load * num_experts as u64 >= routed,
        "the hottest is at least the mean"
    );

    telemetry::trace_set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);
}
