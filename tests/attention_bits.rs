//! Golden bits of causal attention, training and decoding.
//!
//! `Attention::forward`'s output, `backward`'s `dx` and all four
//! parameter gradients at batch 2 × seq 20, and the logits of a 9-token
//! prefill plus three one-token `TransformerLm::decode` steps, each
//! hashed. The constants do not depend on how the per-head products are
//! laid out, launched or banded — every element is one ascending-`k`
//! chain and the softmax runs in one fixed order — so they hold at one
//! and two bands.

use megablocks::exec::scoped_parallelism;
use megablocks::tensor::init::seeded_rng;
use megablocks::tensor::Matrix;
use megablocks::transformer::{Attention, DecodeState, FfnKind, TransformerConfig, TransformerLm};

fn lcg_fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// FNV-1a over the values' bit patterns, continuing from `h`.
fn fold_bits(h: u64, values: &[f32]) -> u64 {
    values.iter().fold(h, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash_bits(values: &[f32]) -> u64 {
    fold_bits(0xcbf2_9ce4_8422_2325, values)
}

/// `[forward, dx, dw_qkv, db_qkv, dw_o, db_o, decode logits]`.
fn hashes() -> [u64; 7] {
    let (batch, seq, hidden) = (2, 20, 32);
    let mut attn = Attention::new(hidden, 4, &mut seeded_rng(7));
    let x = Matrix::from_vec(batch * seq, hidden, lcg_fill(batch * seq * hidden, 1))
        .expect("batch * seq x hidden values");
    let d_out = Matrix::from_vec(batch * seq, hidden, lcg_fill(batch * seq * hidden, 2))
        .expect("batch * seq x hidden values");
    let (y, cache) = attn.forward(&x, batch, seq);
    let dx = attn.backward(&cache, &d_out);
    let grads: Vec<u64> = attn
        .params_mut()
        .iter()
        .map(|p| hash_bits(p.grad().as_slice()))
        .collect();

    let mut cfg = TransformerConfig::tiny(FfnKind::Dense);
    cfg.seq_len = 16;
    let lm = TransformerLm::new(cfg, &mut seeded_rng(8));
    let prompt: Vec<usize> = (0..9)
        .map(|i| (i * 13 + 5) % lm.config().vocab_size)
        .collect();
    let mut state = DecodeState::new(lm.config());
    let mut logits = hash_bits(lm.decode(&mut state, &prompt).as_slice());
    for token in [3, 41, 17] {
        logits = fold_bits(logits, lm.decode(&mut state, &[token]).as_slice());
    }
    [
        hash_bits(y.as_slice()),
        hash_bits(dx.as_slice()),
        grads[0],
        grads[1],
        grads[2],
        grads[3],
        logits,
    ]
}

#[test]
fn golden_bits_of_attention_and_of_a_decode() {
    const GOLDEN: [u64; 7] = [
        0x5f44_2d08_13fb_1b08,
        0xdfb0_f1ea_b269_fd26,
        0x8e01_846f_5381_948f,
        0xbe9d_f30f_3774_82e6,
        0xed81_16cb_5403_0e52,
        0x51d6_83d5_28ca_3287,
        0xb9af_78d0_6cfd_afca,
    ];
    for bands in [1, 2] {
        let got = scoped_parallelism(bands, hashes);
        assert_eq!(got, GOLDEN, "at {bands} band(s): {got:#018x?}");
    }
}
