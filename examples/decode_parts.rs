//! Where a decode step's time goes, and the prefill's share of a call.
//!
//! Builds the benchmark's language model (vocab 512, hidden 128, 2 layers
//! of 2 heads, sequence 128, a dMoE of 8 experts with FFN 512 and block
//! 16), then per round:
//!
//! - prefills a 48-token prompt and times 15 one-token `decode` steps,
//!   twice: feeding the same token at every step (the same expert's
//!   weights, hot in cache) and feeding varying tokens. For each it prints
//!   the step's p50 and mean, then every telemetry span's self time per
//!   step, summed over the steps only (the prefills are excluded), and the
//!   time no span covers;
//! - runs the benchmark's `lm_generate` call by hand for each prompt
//!   length of its cycle (16, 32, 48, 64): a prefill, then 15 greedy
//!   one-token steps, which is a 16-token `generate`. Per length it prints
//!   the prefill's p50, the 15 steps' p50, their ratio and the prefill's
//!   share of the call; then every span's self time per prefill, summed
//!   over the prefills only and over every thread (a prefill's products
//!   run bands on the pool's workers, a step's one row does not);
//! - once, in process: a one-token `DroplessMoe::infer` of the same dMoE
//!   shape against its own expert products — `ops::sdd` + `ops::dsd` on
//!   the expert the router picks — and the glue between them (router,
//!   `PermuteInfo::new`, `Topology::for_moe`), interleaved call by call
//!   and printed as p50s of 20 calls per round. What the layer costs
//!   above its two products is that glue;
//! - once, in process: the read rate of a one-row product over a 256 KB
//!   weight panel (`1 x 128` by `128 x 512`), hot (the same panel every
//!   call) and cold (a 16 MB ring of panels, larger than a per-core L2,
//!   so each call's panel comes from further out) — the floor a decode
//!   step's products, whose weights the other layers evict, can be held
//!   to.
//!
//! Run with: `cargo run --release --example decode_parts [rounds]`
//! (default 100 rounds, after 5 untimed ones).

use std::collections::BTreeMap;
use std::time::Instant;

use megablocks::core::{DroplessMoe, MoeConfig, PermuteInfo};
use megablocks::sparse::{ops, Topology};
use megablocks::telemetry;
use megablocks::tensor::init::{normal, seeded_rng};
use megablocks::tensor::{matmul, Matrix};
use megablocks::transformer::{DecodeState, FfnKind, TransformerConfig, TransformerLm};

const PROMPT: usize = 48;
const STEPS: usize = 15;
const WARMUP: usize = 5;
/// The benchmark's `lm_generate` prompt lengths.
const PROMPT_CYCLE: [usize; 4] = [16, 32, 48, 64];

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

/// Prints each span's self time and calls per operation (`n` of them,
/// `mean_us` each), largest first, and the wall time no span covers.
/// Spans are summed over every thread, so the last figure goes negative
/// where pool workers ran bands of a launch beside the caller.
fn print_parts(per: &str, parts: Parts, n: f64, mean_us: f64) {
    let head = format!("self µs/{per}");
    let calls = format!("calls/{per}");
    println!("  {:<28} {head:>15} {calls:>13}", "span");
    let mut rows: Vec<_> = parts.into_iter().filter(|(_, (_, c))| *c > 0).collect();
    rows.sort_by_key(|(_, (self_ns, _))| std::cmp::Reverse(*self_ns));
    let mut covered_us = 0.0;
    for (name, (self_ns, calls)) in rows {
        let per_op = self_ns as f64 / n / 1e3;
        covered_us += per_op;
        println!("  {name:<28} {per_op:>15.2} {:>13.2}", calls as f64 / n);
    }
    println!("  {:<28} {:>15.2}", "(wall - spans)", mean_us - covered_us);
}

/// The median of `ns`, in µs.
fn p50_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    ns[ns.len() / 2] as f64 / 1e3
}

fn mean_us(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1e3
}

/// The greedy pick, as `generate` makes it.
fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i)
}

/// A one-token `infer` against its own SDD + DSD and its glue, each timed
/// per call and interleaved with the others, `calls` times.
fn moe_in_process(moe: &MoeConfig, calls: usize) {
    let layer = DroplessMoe::new(moe.clone(), &mut seeded_rng(2));
    let x = normal(1, moe.hidden_size, 1.0, &mut seeded_rng(3));
    let routing = layer.router().forward(&x);
    let mut counts = vec![0; moe.num_experts];
    counts[routing.expert_indices[0]] = 1;
    let topology = Topology::for_moe(&counts, moe.ffn_hidden_size, moe.block_size)
        .expect("one token fits the expert's first block");
    let mut xg = Matrix::zeros(moe.block_size.get(), moe.hidden_size);
    xg.row_mut(0).copy_from_slice(x.row(0));
    let (w1, w2) = (layer.w1().value(), layer.w2().value());
    let parts: [(&str, &dyn Fn()); 5] = [
        ("DroplessMoe::infer", &|| {
            layer.infer(&x).expect("valid").recycle()
        }),
        ("ops::sdd + ops::dsd", &|| {
            let h = ops::sdd(&xg, w1, &topology);
            ops::dsd(&h, w2).recycle();
            h.recycle();
        }),
        ("router", &|| {
            drop(std::hint::black_box(layer.router().forward(&x)))
        }),
        ("PermuteInfo::new", &|| {
            let permute = PermuteInfo::new(&routing, moe.num_experts, moe.block_size);
            drop(std::hint::black_box(permute));
        }),
        ("Topology::for_moe", &|| {
            let topo = Topology::for_moe(&counts, moe.ffn_hidden_size, moe.block_size);
            drop(std::hint::black_box(topo));
        }),
    ];
    let mut ns = parts.map(|_| Vec::with_capacity(calls));
    for call in 0..WARMUP + calls {
        for ((_, part), ns) in parts.iter().zip(&mut ns) {
            let start = Instant::now();
            part();
            if call >= WARMUP {
                ns.push(start.elapsed().as_nanos() as u64);
            }
        }
    }
    println!("\none-token dMoE layer in process, {calls} interleaved calls each:");
    println!("  {:<28} {:>15}", "part", "p50 µs/call");
    for ((name, _), ns) in parts.iter().zip(&mut ns) {
        println!("  {name:<28} {:>15.2}", p50_us(ns));
    }
}

/// GB/s of a one-row product streaming a 256 KB panel, hot and cold,
/// interleaved call by call: p50s of `calls` calls each.
fn panel_reads(calls: usize) {
    const K: usize = 128;
    const N: usize = 512;
    /// 16 MB of panels.
    const RING: usize = 64;
    let x = normal(1, K, 1.0, &mut seeded_rng(4));
    let ring: Vec<Matrix> = (0..RING)
        .map(|i| normal(K, N, 1.0, &mut seeded_rng(100 + i as u64)))
        .collect();
    let (mut hot, mut cold) = (Vec::with_capacity(calls), Vec::with_capacity(calls));
    for call in 0..WARMUP + calls {
        for (panel, ns) in [
            (&ring[0], &mut hot),
            (&ring[1 + call % (RING - 1)], &mut cold),
        ] {
            let start = Instant::now();
            std::hint::black_box(matmul(&x, panel));
            if call >= WARMUP {
                ns.push(start.elapsed().as_nanos() as u64);
            }
        }
    }
    let gbs = |ns: &mut Vec<u64>| (K * N * 4) as f64 / (p50_us(ns) * 1e3);
    println!(
        "
one-row product over a 256 KB panel, {calls} interleaved calls each:"
    );
    println!("  hot  (same panel)          {:>6.1} GB/s", gbs(&mut hot));
    println!("  cold (a 16 MB ring)        {:>6.1} GB/s", gbs(&mut cold));
}

fn main() {
    let rounds: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("rounds: a whole number"),
        None => 100,
    };
    let moe = MoeConfig::new(128, 512, 8).with_block_size(16);
    let cfg = TransformerConfig {
        vocab_size: 512,
        hidden_size: 128,
        num_layers: 2,
        num_heads: 2,
        seq_len: 128,
        ffn_hidden_size: 512,
        ffn: FfnKind::Dropless(moe.clone()),
    };
    let vocab = cfg.vocab_size;
    let lm = TransformerLm::new(cfg, &mut seeded_rng(1));
    let prompt_of = |len: usize| -> Vec<usize> { (0..len).map(|i| (i * 13 + 5) % vocab).collect() };
    let prompt = prompt_of(PROMPT);
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
        let mut parts = Parts::new();
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
            accumulate(&mut parts, &before);
        }

        let mean = mean_us(&steps_ns);
        let p50 = p50_us(&mut steps_ns);
        println!("\n{mode}: step p50 {p50:.1} µs, mean {mean:.1} µs");
        print_parts("step", parts, steps_ns.len() as f64, mean);
    }

    // The benchmark's call, by hand: prefill, then greedy steps.
    let prompts = PROMPT_CYCLE.map(prompt_of);
    let mut prefill_ns = PROMPT_CYCLE.map(|_| Vec::with_capacity(rounds));
    let mut steps_ns = PROMPT_CYCLE.map(|_| Vec::with_capacity(rounds));
    let mut parts = Parts::new();
    for round in 0..WARMUP + rounds {
        for (i, prompt) in prompts.iter().enumerate() {
            let mut state = DecodeState::new(lm.config());
            let before = spans();
            let start = Instant::now();
            let mut logits = lm.decode(&mut state, prompt);
            let prefill = start.elapsed().as_nanos() as u64;
            if round >= WARMUP {
                accumulate(&mut parts, &before);
            }
            let start = Instant::now();
            for _ in 0..STEPS {
                let next = argmax(logits.row(0));
                logits = lm.decode(&mut state, &[next]);
            }
            let steps = start.elapsed().as_nanos() as u64;
            std::hint::black_box(logits);
            if round >= WARMUP {
                prefill_ns[i].push(prefill);
                steps_ns[i].push(steps);
            }
        }
    }

    println!(
        "\nprefill, then {STEPS} greedy steps (a {}-token generate), per prompt length:",
        STEPS + 1
    );
    println!(
        "  {:>6} {:>15} {:>15} {:>16} {:>14}",
        "prompt", "prefill p50 µs", "steps p50 µs", "prefill ÷ steps", "prefill share"
    );
    let all_prefills: Vec<u64> = prefill_ns.iter().flatten().copied().collect();
    for ((len, prefill), steps) in PROMPT_CYCLE.iter().zip(&mut prefill_ns).zip(&mut steps_ns) {
        let (prefill, steps) = (p50_us(prefill), p50_us(steps));
        println!(
            "  {len:>6} {prefill:>15.1} {steps:>15.1} {:>16.2} {:>13.0}%",
            prefill / steps,
            100.0 * prefill / (prefill + steps)
        );
    }
    let mean = mean_us(&all_prefills);
    println!("\nprefill over the cycle: mean {mean:.1} µs");
    print_parts("prefill", parts, all_prefills.len() as f64, mean);
    moe_in_process(&moe, 20 * rounds);
    panel_reads(20 * rounds);
}
