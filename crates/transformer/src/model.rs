//! The decoder-only Transformer language model.

use std::sync::OnceLock;

use megablocks_core::{MoeStats, Param};
use megablocks_telemetry as telemetry;
use megablocks_tensor::ops::{cross_entropy, LayerNormCache};
use megablocks_tensor::{init, matmul, pooled_matmul, Matrix, Trans};
use rand::rngs::StdRng;

use crate::attention::{KvCache, Retain};
use crate::{Block, BlockCache, LayerNorm, TransformerConfig};

/// Per-step training statistics returned by [`TransformerLm::train_step`].
#[derive(Debug, Clone, PartialEq)]
pub struct StepStats {
    /// Cross-entropy (language-modeling) loss, mean over tokens.
    pub ce_loss: f32,
    /// Sum of the MoE load-balancing losses across layers (0 for dense).
    pub lb_loss: f32,
    /// Total dropped token-assignments across MoE layers this step.
    pub dropped_tokens: usize,
    /// Per-layer MoE statistics (empty for dense models).
    pub moe_stats: Vec<MoeStats>,
}

impl StepStats {
    /// The optimized objective: `ce_loss + lb_loss`.
    pub fn total_loss(&self) -> f32 {
        self.ce_loss + self.lb_loss
    }
}

/// One sequence's incremental-decoding state for [`TransformerLm::decode`]:
/// the tokens of its current window and every layer's keys and values for
/// them (`2 * layers * seq_len * hidden` floats, allocated once). Keys are
/// kept transposed (`hidden x seq_len`, one column per position) so that
/// a step's `q·Kᵀ` streams them; values are position-major
/// (`seq_len x hidden`).
#[derive(Debug, Clone)]
pub struct DecodeState {
    /// The last `<= seq_len` tokens fed.
    window: Vec<usize>,
    /// Per layer, `Kᵀ` and `V` of `window`.
    layers: Vec<KvCache>,
}

impl DecodeState {
    /// An empty state for a model of configuration `cfg`.
    pub fn new(cfg: &TransformerConfig) -> Self {
        Self {
            window: Vec::new(),
            layers: (0..cfg.num_layers)
                .map(|_| KvCache::new(cfg.hidden_size, cfg.seq_len))
                .collect(),
        }
    }
}

/// A GPT-2-style decoder-only Transformer LM with tied input/output
/// embeddings and a configurable FFN flavor per block (dense / dMoE /
/// dropping MoE).
#[derive(Debug)]
pub struct TransformerLm {
    cfg: TransformerConfig,
    wte: Param,
    wpe: Param,
    blocks: Vec<Block>,
    ln_f: LayerNorm,
    /// `wteᵀ` (`hidden x vocab`), built by the first `last_logits` so that
    /// its one-row product streams B instead of gathering a transposed
    /// strip. `params_mut` is the only way to `&mut wte` and drops it.
    wte_t: OnceLock<Matrix>,
}

impl TransformerLm {
    /// Builds a model from its configuration with GPT-2-style
    /// initialization.
    pub fn new(cfg: TransformerConfig, rng: &mut StdRng) -> Self {
        let wte = Param::new(init::gpt2_normal(cfg.vocab_size, cfg.hidden_size, rng));
        let wpe = Param::new(init::normal(cfg.seq_len, cfg.hidden_size, 0.01, rng));
        let blocks = (0..cfg.num_layers)
            .map(|_| {
                Block::new(
                    cfg.hidden_size,
                    cfg.num_heads,
                    cfg.ffn_hidden_size,
                    &cfg.ffn,
                    rng,
                )
            })
            .collect();
        let ln_f = LayerNorm::new(cfg.hidden_size);
        Self {
            cfg,
            wte,
            wpe,
            blocks,
            ln_f,
            wte_t: OnceLock::new(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// All trainable parameters in a stable order, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.wte_t = OnceLock::new();
        let mut p = vec![&mut self.wte, &mut self.wpe];
        for b in &mut self.blocks {
            p.extend(b.params_mut());
        }
        p.extend(self.ln_f.params_mut());
        p
    }

    /// Total trainable parameter count (actual, summed over live params).
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.count()).sum()
    }

    /// The transformer blocks (for experiment introspection).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Embeds a token window exactly as the forward pass does (token +
    /// positional embeddings), in the calling thread's workspace arena.
    /// Exposed for routing/diagnostic probes.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != batch * seq`, `seq` exceeds the model
    /// maximum, or a token is out of vocabulary.
    pub fn embed_tokens(&self, inputs: &[usize], batch: usize) -> Matrix {
        let seq = inputs.len() / batch.max(1);
        self.embed(inputs, batch, seq, 0)
    }

    /// Token + positional embeddings of `batch` runs of `seq` tokens that
    /// each start at position `past`.
    fn embed(&self, inputs: &[usize], batch: usize, seq: usize, past: usize) -> Matrix {
        let _span = telemetry::span("transformer.embed");
        assert_eq!(
            inputs.len(),
            batch * seq,
            "inputs length must be batch * seq"
        );
        assert!(
            past + seq <= self.cfg.seq_len,
            "sequence longer than the model maximum"
        );
        let mut x = Matrix::pooled_zeros(batch * seq, self.cfg.hidden_size);
        for (r, &tok) in inputs.iter().enumerate() {
            assert!(tok < self.cfg.vocab_size, "token {tok} out of vocabulary");
            let pos = past + r % seq;
            let dst = x.row_mut(r);
            let te = self.wte.value().row(tok);
            let pe = self.wpe.value().row(pos);
            for ((d, t), p) in dst.iter_mut().zip(te).zip(pe) {
                *d = t + p;
            }
        }
        x
    }

    /// The one forward up to the last block's output: embeddings, then
    /// every block. Training and inference differ only in what they
    /// retain. `kv = (layers, past)` is either `(&mut [], 0)` or one
    /// sequence's per-block key/value caches, the inputs then being its
    /// positions `past..` (see `Attention::pass`). The final block runs
    /// everything after its keys and values on the last `last_keep` rows
    /// of each sequence only: the output is `batch * last_keep` rows.
    fn trunk(
        &self,
        inputs: &[usize],
        batch: usize,
        seq: usize,
        (layers, past): (&mut [KvCache], usize),
        last_keep: usize,
        retain: Retain,
    ) -> (Matrix, Vec<BlockCache>) {
        let mut layers = layers.iter_mut();
        let mut h = self.embed(inputs, batch, seq, past);
        let mut caches = Vec::new();
        for (i, block) in self.blocks.iter().enumerate() {
            let kv = layers.next().map(|layer| (layer, past));
            let keep = if i + 1 == self.blocks.len() {
                last_keep
            } else {
                seq
            };
            let (next, cache) = block.pass(h, batch, seq, keep, kv, retain);
            caches.extend(cache);
            h = next;
        }
        (h, caches)
    }

    /// Final layer norm and tied LM head (`logits = h_final @ wte^T`) on
    /// the rows of `h`; returns the logits and what their backward reads,
    /// all in the workspace arena. At a training batch's row count the
    /// transposed pack is amortised.
    fn head(&self, h: &Matrix) -> (Matrix, Matrix, LayerNormCache) {
        let _span = telemetry::span("transformer.lm_head");
        let (h_final, ln_f) = self.ln_f.forward(h);
        let logits = pooled_matmul(&h_final, Trans::N, self.wte.value(), Trans::T);
        (logits, h_final, ln_f)
    }

    /// [`TransformerLm::head`] on the last row of each sequence only —
    /// layer norm and LM head are row-wise, so the other rows' logits are
    /// never computed — against the cached `wteᵀ`, the same bits.
    fn last_logits(&self, h: &Matrix, batch: usize, seq: usize) -> Matrix {
        let _span = telemetry::span("transformer.lm_head");
        let h_final = {
            let mut last = Matrix::pooled_zeros(batch, self.cfg.hidden_size);
            for b in 0..batch {
                last.row_mut(b).copy_from_slice(h.row(b * seq + seq - 1));
            }
            self.ln_f.forward(&last).0
        };
        let wte_t = self.wte_t.get_or_init(|| self.wte.value().transpose());
        matmul(&h_final, wte_t)
    }

    /// Evaluation forward pass: mean cross-entropy over the batch, no
    /// gradient accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs`/`targets` lengths differ or are not
    /// `batch * seq` for some integer `seq`.
    pub fn eval_loss(&self, inputs: &[usize], targets: &[usize], batch: usize) -> f32 {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        let seq = seq_of(inputs, batch);
        let (h, _) = self.trunk(inputs, batch, seq, (&mut [], 0), seq, Retain::Nothing);
        let (logits, _h_final, _ln_f) = self.head(&h);
        cross_entropy(&logits, targets, None).0
    }

    /// Next-token logits for the last position of each sequence: a
    /// stateless forward over the whole window that keeps nothing. It is
    /// the reference [`TransformerLm::decode`] is bit-identical to.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not `batch * seq` tokens for some `seq`.
    pub fn next_token_logits(&self, inputs: &[usize], batch: usize) -> Matrix {
        let seq = seq_of(inputs, batch);
        let (h, _) = self.trunk(inputs, batch, seq, (&mut [], 0), seq, Retain::Nothing);
        self.last_logits(&h, batch, seq)
    }

    /// Feeds `new_tokens` to the sequence `state` tracks and returns the
    /// `1 x vocab` logits of the token after them — bit for bit what
    /// [`TransformerLm::next_token_logits`] returns for the last `seq_len`
    /// tokens fed so far, for every FFN flavor.
    ///
    /// Only the positions not yet cached are run: their keys and values
    /// are appended to the state and each attends over the cached ones, so
    /// a one-token step costs one row through every layer instead of the
    /// whole window. Only the last position's hidden state reaches the
    /// head, so a prefill's final block computes keys and values for every
    /// new row but its queries, out-projection, layer norm and FFN for the
    /// last row alone, when its FFN is token-wise. The cache is dropped
    /// and the window run again when its rows would be stale: once the
    /// window slides (learned absolute positions shift under every cached
    /// row), and always for `Dropping`/`ExpertChoice` blocks, where a
    /// token's FFN output depends on which tokens share the call.
    ///
    /// # Panics
    ///
    /// Panics if `new_tokens` is empty or holds an out-of-vocabulary
    /// token, or if `state` was built for another configuration.
    pub fn decode(&self, state: &mut DecodeState, new_tokens: &[usize]) -> Matrix {
        assert!(!new_tokens.is_empty(), "decode needs at least one token");
        // `KvCache::new` sizes `k_t` from the same two numbers as `v`.
        let shape = (self.cfg.seq_len, self.cfg.hidden_size);
        assert!(
            state.layers.len() == self.blocks.len()
                && state.layers.iter().all(|kv| kv.v.shape() == shape),
            "decode state built for another model"
        );
        let mut past = state.window.len();
        state.window.extend_from_slice(new_tokens);
        let slid = state.window.len().saturating_sub(self.cfg.seq_len);
        let tokenwise = self.blocks.iter().all(Block::ffn_is_tokenwise);
        if slid > 0 || !tokenwise {
            state.window.drain(..slid);
            past = 0;
        }
        let fresh = &state.window[past..];
        let kv = (&mut state.layers[..], past);
        // Only a token-wise FFN gives the last row the bits it has beside
        // the other rows of the call.
        let last_keep = if tokenwise { 1 } else { fresh.len() };
        let (h, _) = self.trunk(fresh, 1, fresh.len(), kv, last_keep, Retain::Nothing);
        self.last_logits(&h, 1, h.rows())
    }

    /// Autoregressively generates `new_tokens` continuation tokens for a
    /// single prompt, greedily (`temperature = None`) or by sampling at
    /// the given temperature.
    ///
    /// The context is truncated to the model's maximum sequence length as
    /// it grows. Each token costs one [`TransformerLm::decode`] step, and
    /// the result is exactly that of calling
    /// [`TransformerLm::next_token_logits`] on the whole window per token.
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or contains out-of-vocabulary
    /// tokens, or if `temperature` is non-positive.
    pub fn generate(
        &self,
        prompt: &[usize],
        new_tokens: usize,
        temperature: Option<f32>,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        assert!(!prompt.is_empty(), "prompt must be nonempty");
        if let Some(t) = temperature {
            assert!(t > 0.0, "temperature must be positive");
        }
        let mut out: Vec<usize> = Vec::with_capacity(new_tokens);
        let mut state = DecodeState::new(&self.cfg);
        while out.len() < new_tokens {
            // Prefill with the prompt, then feed each pick back.
            let logits = match out.last() {
                None => self.decode(&mut state, prompt),
                Some(&last) => self.decode(&mut state, &[last]),
            };
            let next = match temperature {
                None => {
                    let row = logits.row(0);
                    row.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                        .map(|(i, _)| i)
                        .unwrap_or(0)
                }
                Some(t) => {
                    use megablocks_tensor::ops::softmax_rows;
                    use rand::Rng;
                    let scaled = logits.map(|v| v / t);
                    let probs = softmax_rows(&scaled);
                    let mut u: f32 = rng.gen();
                    let mut pick = self.cfg.vocab_size - 1;
                    for (i, &p) in probs.row(0).iter().enumerate() {
                        if u < p {
                            pick = i;
                            break;
                        }
                        u -= p;
                    }
                    pick
                }
            };
            out.push(next);
        }
        out
    }

    /// One forward+backward pass over a micro-batch. Gradients accumulate
    /// into the parameters; the caller decides when to run the optimizer
    /// (gradient accumulation, Narayanan et al. 2021a).
    ///
    /// # Panics
    ///
    /// Panics if `inputs`/`targets` lengths differ or tokens exceed the
    /// vocabulary.
    pub fn train_step(&mut self, inputs: &[usize], targets: &[usize], batch: usize) -> StepStats {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        let seq = seq_of(inputs, batch);
        let (h_last, caches) =
            self.trunk(inputs, batch, seq, (&mut [], 0), seq, Retain::ForBackward);
        let (logits, h_final, ln_f) = self.head(&h_last);

        let (ce_loss, d_logits) = cross_entropy(&logits, targets, None);
        drop(logits);

        // LM head backward (tied weights: the embedding gets two gradient
        // contributions — the head here, the lookup below).
        let d_h_final = pooled_matmul(&d_logits, Trans::N, self.wte.value(), Trans::N);
        self.wte.accumulate_tn(&d_logits, &h_final);
        drop((d_logits, h_final));

        // Final layer norm.
        let mut d_h = self.ln_f.backward(&h_last, &d_h_final, &ln_f);
        drop((h_last, d_h_final, ln_f));

        // Blocks in reverse, each cache back to the arena once consumed.
        let mut moe_stats = Vec::new();
        for (block, mut bc) in self.blocks.iter_mut().zip(caches).rev() {
            d_h = block.backward(&bc, &d_h);
            moe_stats.extend(bc.moe_stats.take());
        }
        moe_stats.reverse();

        // Embedding backward.
        for (r, &tok) in inputs.iter().enumerate() {
            let pos = r % seq;
            let g = d_h.row(r);
            let te = self.wte.grad_mut().row_mut(tok);
            for (d, v) in te.iter_mut().zip(g) {
                *d += v;
            }
            let pe = self.wpe.grad_mut().row_mut(pos);
            for (d, v) in pe.iter_mut().zip(g) {
                *d += v;
            }
        }

        let lb_loss: f32 = moe_stats.iter().map(|s| s.load_balancing_loss).sum();
        let dropped_tokens = moe_stats.iter().map(|s| s.dropped_tokens).sum();
        StepStats {
            ce_loss,
            lb_loss,
            dropped_tokens,
            moe_stats,
        }
    }
}

/// Tokens per sequence of a `batch`-sequence input (`embed` rejects a
/// length that `batch` does not divide, with the same message).
fn seq_of(inputs: &[usize], batch: usize) -> usize {
    assert!(batch > 0, "inputs length must be batch * seq");
    inputs.len() / batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FfnKind;
    use megablocks_core::checkpoint::{encode, load_train_state, TrainState};
    use megablocks_core::MoeConfig;
    use megablocks_tensor::init::seeded_rng;

    fn tiny_inputs(cfg: &TransformerConfig, batch: usize) -> (Vec<usize>, Vec<usize>) {
        let n = batch * cfg.seq_len;
        let inputs: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % cfg.vocab_size).collect();
        let targets: Vec<usize> = (0..n).map(|i| (i * 7 + 10) % cfg.vocab_size).collect();
        (inputs, targets)
    }

    #[test]
    fn initial_loss_is_near_uniform() {
        let cfg = TransformerConfig::tiny(FfnKind::Dense);
        let mut rng = seeded_rng(1);
        let model = TransformerLm::new(cfg.clone(), &mut rng);
        let (inputs, targets) = tiny_inputs(&cfg, 2);
        let loss = model.eval_loss(&inputs, &targets, 2);
        let uniform = (cfg.vocab_size as f32).ln();
        assert!(
            (loss - uniform).abs() < 0.5,
            "initial loss {loss} should be near ln(V) = {uniform}"
        );
    }

    #[test]
    fn train_steps_reduce_loss_on_fixed_batch() {
        let cfg = TransformerConfig::tiny(FfnKind::Dense);
        let mut rng = seeded_rng(2);
        let mut model = TransformerLm::new(cfg.clone(), &mut rng);
        let (inputs, targets) = tiny_inputs(&cfg, 2);
        let before = model.eval_loss(&inputs, &targets, 2);
        // Plain SGD on the accumulated grads for a few steps.
        for _ in 0..20 {
            let _ = model.train_step(&inputs, &targets, 2);
            for p in model.params_mut() {
                let g = p.grad().clone();
                p.value_mut().axpy(-0.05, &g);
                p.zero_grad();
            }
        }
        let after = model.eval_loss(&inputs, &targets, 2);
        assert!(
            after < before - 0.2,
            "overfitting a fixed batch should reduce loss: {before} -> {after}"
        );
    }

    #[test]
    fn moe_model_trains_and_reports_stats() {
        let moe = MoeConfig::new(32, 64, 4).with_block_size(8);
        let cfg = TransformerConfig::tiny(FfnKind::Dropless(moe));
        let mut rng = seeded_rng(3);
        let mut model = TransformerLm::new(cfg.clone(), &mut rng);
        let (inputs, targets) = tiny_inputs(&cfg, 2);
        let stats = model.train_step(&inputs, &targets, 2);
        assert_eq!(stats.moe_stats.len(), cfg.num_layers);
        assert!(stats.lb_loss > 0.0);
        assert_eq!(stats.dropped_tokens, 0);
        assert!(stats.total_loss() > stats.ce_loss);
    }

    #[test]
    fn param_count_agrees_with_config_formula() {
        for ffn in [
            FfnKind::Dense,
            FfnKind::Dropless(MoeConfig::new(32, 64, 4).with_block_size(8)),
        ] {
            let cfg = TransformerConfig::tiny(ffn);
            let mut rng = seeded_rng(4);
            let mut model = TransformerLm::new(cfg.clone(), &mut rng);
            assert_eq!(model.param_count(), cfg.param_count(), "{:?}", cfg.ffn);
        }
    }

    #[test]
    fn next_token_logits_shape() {
        let cfg = TransformerConfig::tiny(FfnKind::Dense);
        let mut rng = seeded_rng(5);
        let model = TransformerLm::new(cfg.clone(), &mut rng);
        let (inputs, _) = tiny_inputs(&cfg, 3);
        let logits = model.next_token_logits(&inputs, 3);
        assert_eq!(logits.shape(), (3, cfg.vocab_size));
    }

    #[test]
    fn generation_is_deterministic_greedy_and_seeded_sampling() {
        let cfg = TransformerConfig::tiny(FfnKind::Dense);
        let mut rng = seeded_rng(7);
        let model = TransformerLm::new(cfg.clone(), &mut rng);
        let prompt = vec![3usize, 5, 9];
        let a = model.generate(&prompt, 6, None, &mut seeded_rng(0));
        let b = model.generate(&prompt, 6, None, &mut seeded_rng(99));
        assert_eq!(a, b, "greedy decoding ignores the RNG");
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|&t| t < cfg.vocab_size));

        let s1 = model.generate(&prompt, 6, Some(1.0), &mut seeded_rng(1));
        let s2 = model.generate(&prompt, 6, Some(1.0), &mut seeded_rng(1));
        assert_eq!(s1, s2, "same sampling seed, same tokens");
    }

    #[test]
    fn generation_respects_context_window() {
        let cfg = TransformerConfig::tiny(FfnKind::Dense);
        let mut rng = seeded_rng(8);
        let model = TransformerLm::new(cfg.clone(), &mut rng);
        // Prompt longer than seq_len: must not panic (window truncation).
        let prompt: Vec<usize> = (0..cfg.seq_len * 3).map(|i| i % cfg.vocab_size).collect();
        let out = model.generate(&prompt, 4, Some(0.8), &mut seeded_rng(2));
        assert_eq!(out.len(), 4);
    }

    #[test]
    #[should_panic(expected = "inputs length must be batch * seq")]
    fn eval_loss_rejects_a_zero_batch() {
        let model = TransformerLm::new(TransformerConfig::tiny(FfnKind::Dense), &mut seeded_rng(9));
        let _ = model.eval_loss(&[1, 2], &[2, 3], 0);
    }

    #[test]
    #[should_panic(expected = "inputs length must be batch * seq")]
    fn next_token_logits_rejects_a_zero_batch() {
        let model = TransformerLm::new(TransformerConfig::tiny(FfnKind::Dense), &mut seeded_rng(9));
        let _ = model.next_token_logits(&[1, 2], 0);
    }

    #[test]
    #[should_panic(expected = "decode state built for another model")]
    fn decode_rejects_a_state_of_another_width() {
        let cfg = TransformerConfig::tiny(FfnKind::Dense);
        let model = TransformerLm::new(cfg.clone(), &mut seeded_rng(10));
        let wider = TransformerConfig {
            hidden_size: 2 * cfg.hidden_size,
            ..cfg
        };
        let _ = model.decode(&mut DecodeState::new(&wider), &[1, 2]);
    }

    #[test]
    fn the_cached_wte_transpose_is_never_stale() {
        let cfg = TransformerConfig::tiny(FfnKind::Dense);
        let prompt = [3usize, 5, 9];
        let logits = |lm: &TransformerLm| -> Vec<u32> {
            let m = lm.decode(&mut DecodeState::new(&cfg), &prompt);
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        // `params_mut()[0]` is `wte`: an optimizer step's edit.
        let scale_wte = |lm: &mut TransformerLm| lm.params_mut()[0].value_mut().scale(1.5);
        let mut used = TransformerLm::new(cfg.clone(), &mut seeded_rng(11));
        let _ = logits(&used);
        scale_wte(&mut used);
        let mut fresh = TransformerLm::new(cfg.clone(), &mut seeded_rng(11));
        scale_wte(&mut fresh);
        assert_eq!(logits(&used), logits(&fresh));

        // A checkpoint load into a model that has already decoded.
        let buf = encode(&fresh.params_mut(), &TrainState::default()).expect("save");
        let mut loaded = TransformerLm::new(cfg.clone(), &mut seeded_rng(12));
        let _ = logits(&loaded);
        load_train_state(&mut loaded.params_mut(), buf.as_slice()).expect("load");
        assert_eq!(logits(&loaded), logits(&fresh));
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_token_panics() {
        let cfg = TransformerConfig::tiny(FfnKind::Dense);
        let mut rng = seeded_rng(6);
        let model = TransformerLm::new(cfg.clone(), &mut rng);
        let mut inputs = vec![0usize; 2 * cfg.seq_len];
        inputs[3] = cfg.vocab_size;
        let _ = model.eval_loss(&inputs, &inputs.clone(), 2);
    }
}
