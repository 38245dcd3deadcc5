//! Every MoE layer's forward shows its expert pipeline in a trace. Alone in
//! its binary: it reads the process-global telemetry registry's call
//! counts.

use megablocks_core::{DroplessMoe, DroppingMoe, ExpertChoiceMoe, MoeConfig};
use megablocks_telemetry as telemetry;
use megablocks_tensor::init::{normal, seeded_rng};

const PIPELINE: [&str; 3] = [
    "moe.padded_gather",
    "moe.dmoe.experts",
    "moe.padded_scatter",
];

fn calls() -> [u64; 3] {
    let spans = telemetry::snapshot().spans;
    PIPELINE.map(|name| spans.iter().find(|s| s.name == name).map_or(0, |s| s.calls))
}

#[test]
fn every_layer_forward_emits_the_pipeline_spans() {
    let cfg = MoeConfig::new(8, 8, 4).with_block_size(4);
    let mut rng = seeded_rng(1);
    let dropless = DroplessMoe::new(cfg.clone(), &mut rng);
    let dropping = DroppingMoe::new(cfg.clone(), &mut rng);
    let expert_choice = ExpertChoiceMoe::new(cfg, &mut rng);
    let x = normal(16, 8, 1.0, &mut rng);

    let emits_once = |name: &str, forward: &dyn Fn()| {
        let before = calls();
        forward();
        let after = calls();
        for i in 0..3 {
            assert_eq!(after[i] - before[i], 1, "{name}: {}", PIPELINE[i]);
        }
    };
    emits_once("dropless", &|| drop(dropless.forward(&x)));
    emits_once("dropping", &|| drop(dropping.forward(&x)));
    emits_once("expert choice", &|| drop(expert_choice.forward(&x)));
}
