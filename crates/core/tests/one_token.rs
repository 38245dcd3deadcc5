//! A one-token dMoE call pays for one row: the exact `kernel.flops` it
//! issues, `sparse.flops` reconciled with them, and every launch inline.
//! Alone in its binary: it reads the process-global telemetry counters.

use megablocks_core::{DroplessMoe, MoeConfig};
use megablocks_telemetry as telemetry;
use megablocks_tensor::init::{normal, seeded_rng};

#[test]
fn a_one_token_infer_issues_one_row_of_flops_and_launches_inline() {
    let (hidden, ffn, experts) = (128, 512, 8);
    let mut rng = seeded_rng(3);
    let cfg = MoeConfig::new(hidden, ffn, experts).with_block_size(16);
    let layer = DroplessMoe::new(cfg, &mut rng);
    let x = normal(1, hidden, 1.0, &mut rng);

    let kernel = telemetry::counter("kernel.flops");
    let sdd = telemetry::counter_with("sparse.flops", "sparse.sdd");
    let dsd = telemetry::counter_with("sparse.flops", "sparse.dsd");
    let inline = telemetry::counter_with("exec.launches", "inline");
    let pooled = telemetry::counter_with("exec.launches", "pooled");
    let read = || [&kernel, &sdd, &dsd, &inline, &pooled].map(|c| c.get());

    for _ in 0..2 {
        let before = read();
        drop(layer.infer(&x).expect("no ambient context"));
        let after = read();
        let [kernel, sdd, dsd, inline, pooled] = [0, 1, 2, 3, 4].map(|i| after[i] - before[i]);

        // The router's matmul plus the two expert products at one real
        // row; the 15 padding rows of the token's block cost nothing.
        let product = (2 * hidden * ffn) as u64;
        assert_eq!((sdd, dsd), (product, product));
        assert_eq!(kernel, (2 * hidden * experts) as u64 + sdd + dsd);
        assert!(inline > 0);
        assert_eq!(pooled, 0, "a one-token call must not wake the pool");
    }
}
