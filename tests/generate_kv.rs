//! Incremental decoding is exact: `TransformerLm::decode` over a
//! per-sequence KV cache returns, bit for bit, what the stateless
//! full-window `next_token_logits` returns, so `generate` never changes
//! its output — and inference gives every workspace buffer back, also
//! when an expired deadline unwinds it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use megablocks::core::{DroplessMoe, MoeConfig};
use megablocks::exec::{cancel, scoped_parallelism, workspace, Ctx, Deadline, ExecError};
use megablocks::telemetry;
use megablocks::tensor::init::{normal, seeded_rng};
use megablocks::tensor::ops::softmax_rows;
use megablocks::tensor::Matrix;
use megablocks::transformer::{DecodeState, FfnKind, TransformerConfig, TransformerLm};
use rand::rngs::StdRng;
use rand::Rng;

/// Block size of the MoE flavors; prompt lengths straddle it.
const BS: usize = 8;
const SEQ_LEN: usize = 24;

/// The `kernel.flops` counter and the telemetry spans are process-wide;
/// every test in this binary holds this lock.
fn counter_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` at 1 and 2 workers.
fn on_every_worker_count(mut f: impl FnMut()) {
    for workers in [1, 2] {
        scoped_parallelism(workers, &mut f);
    }
}

fn moe() -> MoeConfig {
    MoeConfig::new(32, 64, 4).with_block_size(BS)
}

fn model(ffn: FfnKind, seed: u64) -> TransformerLm {
    let mut cfg = TransformerConfig::tiny(ffn);
    cfg.seq_len = SEQ_LEN;
    TransformerLm::new(cfg, &mut seeded_rng(seed))
}

fn tokenwise_kinds() -> [FfnKind; 2] {
    [FfnKind::Dense, FfnKind::Dropless(moe())]
}

fn all_kinds() -> [FfnKind; 4] {
    [
        FfnKind::Dense,
        FfnKind::Dropless(moe()),
        FfnKind::Dropping(moe()),
        FfnKind::ExpertChoice(moe()),
    ]
}

fn prompt(len: usize, vocab: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 13 + 5) % vocab).collect()
}

fn window(context: &[usize]) -> &[usize] {
    &context[context.len().saturating_sub(SEQ_LEN)..]
}

/// Index of the largest logit; the last one wins a tie, as in `generate`.
fn argmax(logits: &[f32]) -> usize {
    let mut best = 0;
    for (i, v) in logits.iter().enumerate() {
        if *v >= logits[best] {
            best = i;
        }
    }
    best
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn every_decode_step_is_bit_identical_to_the_full_window() {
    let _guard = counter_lock();
    for ffn in all_kinds() {
        let lm = model(ffn.clone(), 11);
        let vocab = lm.config().vocab_size;
        on_every_worker_count(|| {
            for len in [1, BS - 1, BS + 1, SEQ_LEN] {
                let mut context = prompt(len, vocab);
                let mut state = DecodeState::new(lm.config());
                let mut logits = lm.decode(&mut state, &context);
                // Enough steps that the longest prompt slides its window.
                for step in 0..6 {
                    let want = lm.next_token_logits(window(&context), 1);
                    assert_eq!(
                        bits(&logits),
                        bits(&want),
                        "{ffn:?}, prompt {len}, step {step}"
                    );
                    let next = argmax(logits.row(0));
                    context.push(next);
                    logits = lm.decode(&mut state, &[next]);
                }
            }
        });
    }
}

#[test]
fn a_one_token_step_runs_one_row_not_the_window() {
    let _guard = counter_lock();
    let mut steps = Vec::new();
    for ffn in tokenwise_kinds() {
        let lm = model(ffn.clone(), 12);
        let context = prompt(SEQ_LEN - 1, lm.config().vocab_size);
        let flops = telemetry::counter("kernel.flops");

        let before = flops.get();
        let _ = lm.next_token_logits(&context, 1);
        let full = flops.get() - before;

        let mut state = DecodeState::new(lm.config());
        let _ = lm.decode(&mut state, &context[..SEQ_LEN - 2]);
        let before = flops.get();
        let _ = lm.decode(&mut state, &context[SEQ_LEN - 2..]);
        let step = flops.get() - before;

        assert!(
            step * 2 < full,
            "{ffn:?}: a one-token step cost {step} flops, the full window {full}"
        );
        steps.push(step);
    }

    // Exactly one row, not one block: around the FFN the two models issue
    // the same products, so a dMoE step is a dense step with each layer's
    // two `1 x hidden x ffn` products swapped for the router product and
    // the two expert products at one real row. A padded row anywhere in
    // SDD or DSD shows up here as whole multiples of `hidden * ffn`.
    let (cfg, moe) = (TransformerConfig::tiny(FfnKind::Dense), moe());
    let hidden = cfg.hidden_size;
    let dense_ffn = 2 * 2 * hidden * cfg.ffn_hidden_size;
    let dmoe_ffn = 2 * hidden * moe.num_experts + 2 * 2 * hidden * moe.ffn_hidden_size;
    let [dense_step, dmoe_step] = steps[..] else {
        panic!("one step per token-wise kind")
    };
    assert_eq!(
        dmoe_step + (cfg.num_layers * dense_ffn) as u64,
        dense_step + (cfg.num_layers * dmoe_ffn) as u64,
        "dense step {dense_step}, dMoE step {dmoe_step}"
    );
}

#[test]
fn a_prefill_runs_the_final_block_on_its_last_row_only() {
    let _guard = counter_lock();
    let lm = model(FfnKind::Dropless(moe()), 17);
    let (cfg, moe) = (lm.config(), moe());
    assert_eq!((cfg.num_layers, moe.top_k), (2, 1));
    // One routed row costs `2 * hidden * ffn` in SDD and again in DSD.
    let per_row = (2 * moe.hidden_size * moe.ffn_hidden_size) as u64;
    let sdd = telemetry::counter_with("sparse.flops", "sparse.sdd");
    let dsd = telemetry::counter_with("sparse.flops", "sparse.dsd");
    let counted = |run: &mut dyn FnMut()| {
        let before = (sdd.get(), dsd.get());
        run();
        (sdd.get() - before.0, dsd.get() - before.1)
    };
    for t in [BS + 1, SEQ_LEN] {
        let mut state = DecodeState::new(cfg);
        let tokens = prompt(t, cfg.vocab_size);
        // `t` rows through the first layer, one through the final block.
        let want = per_row * (t as u64 + 1);
        let prefill = counted(&mut || drop(lm.decode(&mut state, &tokens)));
        assert_eq!(prefill, (want, want), "a {t}-token prefill");
        // One row per layer, or at `SEQ_LEN` a slid window run again.
        let rows = if t < SEQ_LEN { 2 } else { SEQ_LEN as u64 + 1 };
        let step = counted(&mut || drop(lm.decode(&mut state, &[1])));
        assert_eq!(step, (per_row * rows, per_row * rows), "a step after {t}");
    }
}

#[test]
fn greedy_generate_equals_the_argmax_loop_for_every_ffn() {
    let _guard = counter_lock();
    for ffn in all_kinds() {
        let lm = model(ffn.clone(), 13);
        let vocab = lm.config().vocab_size;
        // Inside the window, crossing `seq_len` mid-generation, and a
        // prompt that is already three windows long.
        for (len, new_tokens) in [(5, 8), (SEQ_LEN - 4, 10), (3 * SEQ_LEN, 4)] {
            let start = prompt(len, vocab);
            let got = lm.generate(&start, new_tokens, None, &mut seeded_rng(0));
            let mut context = start.clone();
            for _ in 0..new_tokens {
                let logits = lm.next_token_logits(window(&context), 1);
                context.push(argmax(logits.row(0)));
            }
            assert_eq!(got, context[len..], "{ffn:?}, prompt {len}");
        }
        assert!(lm.generate(&[1], 0, None, &mut seeded_rng(0)).is_empty());
    }
}

#[test]
fn seeded_sampling_equals_the_hand_rolled_loop() {
    let _guard = counter_lock();
    let t = 0.9;
    for ffn in all_kinds() {
        let lm = model(ffn.clone(), 14);
        let start = prompt(BS + 1, lm.config().vocab_size);
        let got = lm.generate(&start, SEQ_LEN, Some(t), &mut seeded_rng(7));

        let mut rng: StdRng = seeded_rng(7);
        let mut context = start.clone();
        for _ in 0..SEQ_LEN {
            let logits = lm.next_token_logits(window(&context), 1);
            let probs = softmax_rows(&logits.map(|v| v / t));
            let mut u: f32 = rng.gen();
            let mut pick = probs.cols() - 1;
            for (i, &p) in probs.row(0).iter().enumerate() {
                if u < p {
                    pick = i;
                    break;
                }
                u -= p;
            }
            context.push(pick);
        }
        assert_eq!(got, context[start.len()..], "{ffn:?}");
    }
}

/// Calls recorded so far of the span family `name`.
fn span_calls(name: &str) -> u64 {
    let snap = telemetry::snapshot();
    snap.spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.calls)
}

#[test]
fn a_one_token_decode_records_its_parts_once_each() {
    let _guard = counter_lock();
    let lm = model(FfnKind::Dropless(moe()), 16);
    let mut state = DecodeState::new(lm.config());
    let _ = lm.decode(&mut state, &prompt(BS + 1, lm.config().vocab_size));
    let parts = [
        "transformer.embed",
        "transformer.attention",
        "transformer.lm_head",
    ];
    let before = parts.map(span_calls);
    let _ = lm.decode(&mut state, &[1]);
    let recorded: Vec<u64> = parts
        .iter()
        .zip(before)
        .map(|(p, b)| span_calls(p) - b)
        .collect();
    assert_eq!(recorded, [1, lm.config().num_layers as u64, 1], "{parts:?}");
}

/// Runs `call` twice on a cleared arena, single-banded so that every
/// buffer is taken on this thread: after the first call every buffer it
/// took (one per miss) is shelved again, and the second call is served
/// from those alone.
fn assert_conserves_the_workspace(what: &str, mut call: impl FnMut()) {
    scoped_parallelism(1, || {
        workspace::clear();
        let start = workspace::stats();
        call();
        let first = workspace::stats();
        assert!(first.misses > start.misses, "{what}: took no buffer");
        assert_eq!(
            first.held_buffers as u64,
            first.misses - start.misses,
            "{what}: a buffer taken from the arena did not come back"
        );
        call();
        let second = workspace::stats();
        assert_eq!(second.misses, first.misses, "{what}: allocated again");
        assert!(second.hits > first.hits, "{what}: second call took nothing");
        assert_eq!(second.held_buffers, first.held_buffers, "{what}");
    });
}

#[test]
fn inference_gives_every_workspace_buffer_back() {
    let _guard = counter_lock();
    for ffn in tokenwise_kinds() {
        let lm = model(ffn.clone(), 15);
        let start = prompt(BS + 1, lm.config().vocab_size);
        assert_conserves_the_workspace(&format!("{ffn:?} next_token_logits"), || {
            let _ = lm.next_token_logits(&start, 1);
        });
        // Prefill, one-token steps, and re-prefills once the window slides.
        assert_conserves_the_workspace(&format!("{ffn:?} generate"), || {
            let _ = lm.generate(&start, SEQ_LEN, None, &mut seeded_rng(0));
        });
    }
}

/// An expired deadline unwinds the pass at its first launch, the
/// router's GEMM, before the pass takes a buffer of its own; the call
/// holds its input in the arena as `serve`'s batcher does.
#[test]
fn an_expired_infer_gives_every_workspace_buffer_back() {
    let _guard = counter_lock();
    let layer = DroplessMoe::new(moe(), &mut seeded_rng(16));
    let x = normal(2 * BS + 3, moe().hidden_size, 1.0, &mut seeded_rng(17));
    let expired = Ctx::none().with_deadline(Deadline::after(Duration::ZERO));
    assert_conserves_the_workspace("an expired DroplessMoe::infer", || {
        let input = x.pooled_copy();
        let _scope = cancel::enter(&expired);
        let unwound = catch_unwind(AssertUnwindSafe(|| layer.infer(&input)));
        let payload = unwound.expect_err("an expired deadline unwinds the call");
        let error = payload.downcast::<ExecError>().expect("with the ExecError");
        assert!(
            matches!(*error, ExecError::DeadlineExceeded { .. }),
            "{error:?}"
        );
    });
}
