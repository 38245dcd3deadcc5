//! Attention's per-head work is one launch per pass: the launches of a
//! `forward` + `backward` do not grow with sequences or heads.
//!
//! Alone in its binary: it reads the process-global `exec.launches`
//! counters.

use megablocks_exec::scoped_parallelism;
use megablocks_telemetry as telemetry;
use megablocks_tensor::init::{normal, seeded_rng};
use megablocks_transformer::Attention;

/// Inline + pooled launches of one forward and one backward.
fn launches(batch: usize, heads: usize) -> u64 {
    let (seq, hidden) = (64, 32);
    let mut rng = seeded_rng(1);
    let mut attn = Attention::new(hidden, heads, &mut rng);
    let x = normal(batch * seq, hidden, 1.0, &mut rng);
    let d_out = normal(batch * seq, hidden, 0.1, &mut rng);
    let counters = ["inline", "pooled"].map(|l| telemetry::counter_with("exec.launches", l));
    let read = || counters.iter().map(|c| c.get()).sum::<u64>();
    let before = read();
    let (_, cache) = attn.forward(&x, batch, seq);
    let _ = attn.backward(&cache, &d_out);
    read() - before
}

#[test]
fn one_launch_per_pass_whatever_the_batch_and_heads() {
    scoped_parallelism(2, || {
        let one = launches(1, 1);
        assert_eq!(launches(4, 2), one, "batch 4 x 2 heads against 1 x 1");
    });
}
