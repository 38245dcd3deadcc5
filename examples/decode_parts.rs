//! Where a one-token decode step's time goes.
//!
//! Builds the benchmark's language model (vocab 512, hidden 128, 2 layers
//! of 2 heads, sequence 128, a dMoE of 8 experts with FFN 512 and block
//! 16), prefills a 48-token prompt and times 15 one-token `decode` steps
//! per round, twice: feeding the same token at every step (the same
//! expert's weights, hot in cache) and feeding varying tokens. For each it
//! prints the step's p50 and mean, then every telemetry span's self time
//! per step, summed over the steps only (the prefills are excluded), and
//! the time no span covers.
//!
//! Run with: `cargo run --release --example decode_parts [rounds]`
//! (default 100 rounds, after 5 untimed ones).

use std::collections::BTreeMap;
use std::time::Instant;

use megablocks::core::MoeConfig;
use megablocks::telemetry;
use megablocks::tensor::init::seeded_rng;
use megablocks::transformer::{DecodeState, FfnKind, TransformerConfig, TransformerLm};

const PROMPT: usize = 48;
const STEPS: usize = 15;
const WARMUP: usize = 5;

/// Self nanoseconds and calls of every span family so far.
fn spans() -> BTreeMap<String, (u64, u64)> {
    let snapshot = telemetry::snapshot();
    let rows = snapshot.spans.into_iter();
    rows.map(|s| (s.name, (s.self_ns, s.calls))).collect()
}

fn main() {
    let rounds: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("rounds: a whole number"),
        None => 100,
    };
    let cfg = TransformerConfig {
        vocab_size: 512,
        hidden_size: 128,
        num_layers: 2,
        num_heads: 2,
        seq_len: 128,
        ffn_hidden_size: 512,
        ffn: FfnKind::Dropless(MoeConfig::new(128, 512, 8).with_block_size(16)),
    };
    let vocab = cfg.vocab_size;
    let lm = TransformerLm::new(cfg, &mut seeded_rng(1));
    let prompt: Vec<usize> = (0..PROMPT).map(|i| (i * 13 + 5) % vocab).collect();
    println!(
        "decode_parts: {PROMPT}-token prompt, {rounds} rounds x {STEPS} one-token steps, \
         tiled variant {}",
        megablocks::tensor::tiled_variant()
    );

    for (mode, varied) in [("same token", false), ("varied tokens", true)] {
        let token = |round: usize, step: usize| match varied {
            true => (round * 31 + step * 97 + 11) % vocab,
            false => 7,
        };
        let mut steps_ns = Vec::with_capacity(rounds * STEPS);
        let mut parts: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for round in 0..WARMUP + rounds {
            let mut state = DecodeState::new(lm.config());
            let _ = lm.decode(&mut state, &prompt);
            let before = spans();
            let mut round_ns = Vec::with_capacity(STEPS);
            for step in 0..STEPS {
                let start = Instant::now();
                let logits = lm.decode(&mut state, &[token(round, step)]);
                round_ns.push(start.elapsed().as_nanos() as u64);
                std::hint::black_box(logits);
            }
            if round < WARMUP {
                continue;
            }
            steps_ns.extend(round_ns);
            for (name, (self_ns, calls)) in spans() {
                let (self0, calls0) = before.get(&name).copied().unwrap_or_default();
                let part = parts.entry(name).or_default();
                part.0 += self_ns - self0;
                part.1 += calls - calls0;
            }
        }

        let n = steps_ns.len() as f64;
        let mean_us = steps_ns.iter().sum::<u64>() as f64 / n / 1e3;
        steps_ns.sort_unstable();
        let p50_us = steps_ns[steps_ns.len() / 2] as f64 / 1e3;
        println!("\n{mode}: step p50 {p50_us:.1} µs, mean {mean_us:.1} µs");
        println!(
            "  {:<28} {:>12} {:>10}",
            "span", "self µs/step", "calls/step"
        );
        let mut rows: Vec<_> = parts.into_iter().filter(|(_, (_, c))| *c > 0).collect();
        rows.sort_by_key(|(_, (self_ns, _))| std::cmp::Reverse(*self_ns));
        let mut covered_us = 0.0;
        for (name, (self_ns, calls)) in rows {
            let per_step = self_ns as f64 / n / 1e3;
            covered_us += per_step;
            println!("  {name:<28} {per_step:>12.2} {:>10.2}", calls as f64 / n);
        }
        println!("  {:<28} {:>12.2}", "(no span)", mean_us - covered_us);
    }
}
