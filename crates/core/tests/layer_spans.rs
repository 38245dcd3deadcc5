//! Every MoE layer's forward shows its expert pipeline in a trace, and
//! each of its passes its own span. Alone in its binary: it reads the
//! process-global telemetry registry's call counts.

use megablocks_core::{DroplessMoe, DroppingMoe, ExpertChoiceMoe, MoeConfig, MoeLayer, Placement};
use megablocks_telemetry as telemetry;
use megablocks_tensor::init::{normal, seeded_rng};
use megablocks_tensor::Matrix;

const PIPELINE: [&str; 3] = [
    "moe.padded_gather",
    "moe.dmoe.experts",
    "moe.padded_scatter",
];

fn calls(names: &[&str]) -> Vec<u64> {
    let spans = telemetry::snapshot().spans;
    let calls = |name: &&str| {
        spans
            .iter()
            .find(|s| s.name == *name)
            .map_or(0, |s| s.calls)
    };
    names.iter().map(calls).collect()
}

/// Runs `pass` and checks that it emitted each of `names` exactly once.
fn emits_once<T>(layer: &str, names: &[&str], pass: impl FnOnce() -> T) -> T {
    let before = calls(names);
    let out = pass();
    let after = calls(names);
    for (i, name) in names.iter().enumerate() {
        assert_eq!(after[i] - before[i], 1, "{layer}: {name}");
    }
    out
}

/// A forward and an inference pass each run the pipeline once under the
/// layer's own span; a backward emits the layer's backward span.
fn check<P: Placement>(name: &str, mut layer: MoeLayer<P>, spans: [&str; 3], x: &Matrix) {
    let [forward, infer, backward] = spans;
    let with = |span| [&PIPELINE[..], &[span]].concat();
    let out = emits_once(name, &with(forward), || layer.forward(x));
    emits_once(name, &with(infer), || layer.infer(x).expect("infer"));
    emits_once(name, &[backward], || layer.backward(&out.cache, x));
}

#[test]
fn every_layer_forward_emits_the_pipeline_spans() {
    let cfg = MoeConfig::new(8, 8, 4).with_block_size(4);
    let mut rng = seeded_rng(1);
    let dropless = DroplessMoe::new(cfg.clone(), &mut rng);
    let dropping = DroppingMoe::new(cfg.clone(), &mut rng);
    let expert_choice = ExpertChoiceMoe::new(cfg, &mut rng);
    let x = normal(16, 8, 1.0, &mut rng);

    let dmoe = ["moe.dmoe.forward", "moe.dmoe.infer", "moe.dmoe.backward"];
    check("dropless", dropless, dmoe, &x);
    let dropping_spans = [
        "moe.dropping.forward",
        "moe.dropping.infer",
        "moe.dropping.backward",
    ];
    check("dropping", dropping, dropping_spans, &x);
    let expert_choice_spans = [
        "moe.expert_choice.forward",
        "moe.expert_choice.infer",
        "moe.expert_choice.backward",
    ];
    check("expert choice", expert_choice, expert_choice_spans, &x);
}
