//! Where a training step's time goes: the training twin of
//! `decode_parts`.
//!
//! Builds the benchmark's language model (vocab 512, hidden 128, 2 layers
//! of 2 heads, sequence 128, FFN 512), dense and as a dMoE of 8 experts
//! with block 16, and trains each the way the benchmark's `train_dense`
//! and `train_dmoe` do: batches of 4 sequences from the synthetic Pile, no
//! gradient accumulation, Adam with the clip at 1.0. For each it times
//! every step's two halves — `Trainer::accumulate_step` (forward,
//! backward and the gradient norm) and `Trainer::apply_step` (the Adam
//! update) — and prints their p50s, then every telemetry span's self time
//! and calls per step, summed over the timed steps and over every thread
//! (bands of a launch run on the pool's workers beside the caller), and
//! the wall time no span covers. A launching span's self time is its own
//! work: the time its thread parks on bands a worker claimed and still
//! runs is the `exec.wait` row.
//!
//! Run with: `cargo run --release --example step_parts [steps]`
//! (default 40 steps per model, after 5 untimed ones).

use std::collections::BTreeMap;
use std::time::Instant;

use megablocks::core::MoeConfig;
use megablocks::data::{PileConfig, SyntheticPile};
use megablocks::telemetry;
use megablocks::tensor::init::seeded_rng;
use megablocks::transformer::{FfnKind, Trainer, TrainerConfig, TransformerConfig, TransformerLm};

const BATCH: usize = 4;
const SEQ: usize = 128;
const WARMUP: usize = 5;

type Parts = BTreeMap<String, (u64, u64)>;

/// Self nanoseconds and calls of every span family so far.
fn spans() -> Parts {
    let snapshot = telemetry::snapshot();
    let rows = snapshot.spans.into_iter();
    rows.map(|s| (s.name, (s.self_ns, s.calls))).collect()
}

/// Adds what every span family recorded since `before` to `parts`.
fn accumulate(parts: &mut Parts, before: &Parts) {
    for (name, (self_ns, calls)) in spans() {
        let (self0, calls0) = before.get(&name).copied().unwrap_or_default();
        let part = parts.entry(name).or_default();
        part.0 += self_ns - self0;
        part.1 += calls - calls0;
    }
}

/// The median of `ns`, in ms.
fn p50_ms(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    ns[ns.len() / 2] as f64 / 1e6
}

/// Prints each span's self time and calls per step (`n` steps of
/// `mean_us` each), largest first, and the wall time no span covers.
fn print_parts(parts: Parts, n: f64, mean_us: f64) {
    println!(
        "  {:<28} {:>15} {:>13}",
        "span", "self µs/step", "calls/step"
    );
    let mut rows: Vec<_> = parts.into_iter().filter(|(_, (_, c))| *c > 0).collect();
    rows.sort_by_key(|(_, (self_ns, _))| std::cmp::Reverse(*self_ns));
    let mut covered_us = 0.0;
    for (name, (self_ns, calls)) in rows {
        let per_step = self_ns as f64 / n / 1e3;
        covered_us += per_step;
        println!("  {name:<28} {per_step:>15.1} {:>13.2}", calls as f64 / n);
    }
    println!("  {:<28} {:>15.1}", "(wall - spans)", mean_us - covered_us);
}

fn main() {
    let steps: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("steps: a whole number"),
        None => 40,
    };
    let (train, _) = SyntheticPile::generate(&PileConfig::repro(), 1).split(0.9);
    println!(
        "step_parts: batch {BATCH} x {SEQ}, {steps} steps per model after {WARMUP} untimed, \
         tiled variant {}, {} threads",
        megablocks::tensor::tiled_variant(),
        megablocks::exec::parallelism()
    );
    let moe = MoeConfig::new(128, 512, 8).with_block_size(16);
    for (name, ffn) in [("dense", FfnKind::Dense), ("dMoE", FfnKind::Dropless(moe))] {
        let cfg = TransformerConfig {
            vocab_size: 512,
            hidden_size: 128,
            num_layers: 2,
            num_heads: 2,
            seq_len: SEQ,
            ffn_hidden_size: 512,
            ffn,
        };
        let mut lm = TransformerLm::new(cfg, &mut seeded_rng(1));
        let params = lm.param_count();
        let mut trainer = Trainer::new(
            lm,
            TrainerConfig {
                batch_size: BATCH,
                micro_batch_size: BATCH,
                seq_len: SEQ,
                seed: 1,
                ..TrainerConfig::small(200)
            },
        );
        let (mut accumulate_ns, mut update_ns, mut step_ns) = (vec![], vec![], vec![]);
        let mut parts = Parts::new();
        for step in 0..WARMUP + steps {
            let before = spans();
            let start = Instant::now();
            let pending = trainer.accumulate_step(&train);
            let accumulated = Instant::now();
            std::hint::black_box(trainer.apply_step(pending));
            let end = Instant::now();
            if step < WARMUP {
                continue;
            }
            accumulate(&mut parts, &before);
            accumulate_ns.push((accumulated - start).as_nanos() as u64);
            update_ns.push((end - accumulated).as_nanos() as u64);
            step_ns.push((end - start).as_nanos() as u64);
        }
        let mean_us = step_ns.iter().sum::<u64>() as f64 / steps as f64 / 1e3;
        println!(
            "\n{name} ({params} parameters): accumulate p50 {:.2} ms, update p50 {:.2} ms, \
             step p50 {:.2} ms, mean {:.2} ms",
            p50_ms(&mut accumulate_ns),
            p50_ms(&mut update_ns),
            p50_ms(&mut step_ns),
            mean_us / 1e3
        );
        print_parts(parts, steps as f64, mean_us);
    }
}
