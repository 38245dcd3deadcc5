//! Expert-choice routing (Zhou et al. 2022) — the related-work routing
//! algorithm the paper discusses in §7: instead of each token picking its
//! top-k experts, each *expert* picks its top-`capacity` tokens. Load is
//! perfectly balanced by construction, but a token may be picked by zero
//! experts (the residual carries it) or by several.
//!
//! The paper conjectures that improved routing algorithms *complement*
//! block-sparse expert computation; this module demonstrates it: the
//! layer is a policy over the crate's one expert pipeline
//! ([`crate::experts`]). Every (token, expert) pair is an assignment —
//! `top_k = num_experts`, assignment `t * num_experts + e` weighted by
//! `probs[(t, e)]` — and the pairs no expert picked have no row.

use megablocks_sparse::Topology;
use megablocks_tensor::ops::{softmax_rows, softmax_rows_backward_inplace};
use megablocks_tensor::{gemm, init, matmul, Matrix, Trans};
use rand::rngs::StdRng;

use crate::experts::{self, ExpertCache, Retain};
use crate::router::top_k_indices;
use crate::{MoeConfig, MoeStats, Param, PermuteInfo};

/// Forward cache for [`ExpertChoiceMoe::backward`].
#[derive(Debug, Clone)]
pub struct ExpertChoiceCache {
    x: Matrix,
    probs: Matrix,
    experts: ExpertCache,
}

/// Result of [`ExpertChoiceMoe::forward`].
#[derive(Debug, Clone)]
pub struct ExpertChoiceOutput {
    /// Layer output; tokens picked by no expert produce zero rows.
    pub output: Matrix,
    /// Forward statistics. `dropped_tokens` counts tokens selected by no
    /// expert (the failure mode §7 notes this router still has).
    pub stats: MoeStats,
    /// Cache for the backward pass.
    pub cache: ExpertChoiceCache,
}

/// A block-sparse MoE layer with expert-choice routing.
///
/// `capacity_per_expert = num_tokens * top_k / num_experts` tokens are
/// selected by each expert (`top_k` plays the role of the average number
/// of experts per token).
#[derive(Debug, Clone)]
pub struct ExpertChoiceMoe {
    cfg: MoeConfig,
    router_weight: Param,
    w1: Param,
    w2: Param,
}

impl ExpertChoiceMoe {
    /// Creates the layer with GPT-2-style initialization.
    ///
    /// # Panics
    ///
    /// Panics if `ffn_hidden_size` is not a multiple of the block size.
    pub fn new(cfg: MoeConfig, rng: &mut StdRng) -> Self {
        assert!(
            cfg.ffn_hidden_size.is_multiple_of(cfg.block_size.get()),
            "ffn_hidden_size must be a multiple of the block size"
        );
        let inner = cfg.num_experts * cfg.ffn_hidden_size;
        Self {
            router_weight: Param::new(init::gpt2_normal(cfg.hidden_size, cfg.num_experts, rng)),
            w1: Param::new(init::gpt2_normal(cfg.hidden_size, inner, rng)),
            w2: Param::new(init::gpt2_normal(inner, cfg.hidden_size, rng)),
            cfg,
        }
    }

    /// The layer configuration.
    pub fn config(&self) -> &MoeConfig {
        &self.cfg
    }

    /// All trainable parameters, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.router_weight, &mut self.w1, &mut self.w2]
    }

    /// Expert capacity for `num_tokens` inputs:
    /// `ceil(num_tokens * top_k / num_experts)`, at least 1.
    pub fn capacity(&self, num_tokens: usize) -> usize {
        (num_tokens * self.cfg.top_k)
            .div_ceil(self.cfg.num_experts)
            .max(1)
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != hidden_size`, or if a kernel launch fails
    /// (including a tripped ambient cancellation context).
    pub fn forward(&self, x: &Matrix) -> ExpertChoiceOutput {
        self.forward_owned(x.pooled_copy())
    }

    /// [`ExpertChoiceMoe::forward`] with `x` moved into the cache, not copied.
    #[doc(hidden)]
    pub fn forward_owned(&self, x: Matrix) -> ExpertChoiceOutput {
        let cfg = &self.cfg;
        assert_eq!(x.cols(), cfg.hidden_size, "input feature size mismatch");
        let num_tokens = x.rows();
        let e = cfg.num_experts;
        let capacity = self.capacity(num_tokens);

        // Scores: per-token softmax over experts, then each expert picks
        // its top-capacity tokens down its probability column.
        let probs = softmax_rows(&matmul(&x, self.router_weight.value()));
        let kept = select(&probs, capacity);
        let unpicked = kept.chunks(e).filter(|k| !k.contains(&true)).count();

        // Every expert has exactly `round_up(capacity)` rows: a *uniform*
        // block-diagonal topology.
        let expert_indices: Vec<usize> = (0..num_tokens * e).map(|a| a % e).collect();
        let permute = PermuteInfo::with_uniform_rows(
            &expert_indices,
            e,
            e,
            &kept,
            cfg.block_size.round_up(capacity),
        );
        let topology = Topology::for_moe(
            permute.padded_tokens_per_expert(),
            cfg.ffn_hidden_size,
            cfg.block_size,
        )
        .and_then(|t| t.with_rows_valid(permute.rows_valid(cfg.block_size)))
        .expect("aligned by construction");
        let (output, experts) = experts::forward(
            &x,
            self.w1.value(),
            self.w2.value(),
            &topology,
            permute,
            probs.as_slice(),
            Retain::ForBackward,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let experts = experts.expect("a ForBackward pass keeps its cache");

        // Expert choice processes exactly what each expert picked.
        let permute = &experts.permute;
        let picked = permute.kept_per_expert().to_vec();
        let stats = MoeStats {
            dropped_tokens: unpicked,
            padding_rows: permute.padding_rows(),
            load_balancing_loss: 0.0, // balance is guaranteed; no aux loss
            padding_overhead: MoeStats::overhead(permute.padding_rows(), picked.iter().sum()),
            expert_load: picked.clone(),
            tokens_per_expert: picked,
        };
        crate::record_moe_stats(&stats);
        ExpertChoiceOutput {
            output,
            stats,
            cache: ExpertChoiceCache { x, probs, experts },
        }
    }

    /// Backward pass; accumulates parameter gradients and returns the
    /// input gradient.
    ///
    /// # Panics
    ///
    /// Panics if `d_out` does not match the forward output shape.
    pub fn backward(&mut self, cache: &ExpertChoiceCache, d_out: &Matrix) -> Matrix {
        // One weight per (token, expert) pair, so the weight gradient is
        // the probability gradient, row-major.
        let (mut dx, d_probs) = experts::backward(
            &mut self.w1,
            &mut self.w2,
            &cache.experts,
            cache.probs.as_slice(),
            d_out,
        );
        let (tokens, e) = cache.probs.shape();
        let mut d_logits = Matrix::from_vec(tokens, e, d_probs)
            .expect("one weight gradient per (token, expert) pair");

        // Router backward through the softmax (selection treated as
        // non-differentiable, like top-k in token-choice routing), in place.
        softmax_rows_backward_inplace(cache.probs.as_slice(), d_logits.as_mut_slice(), e);
        self.router_weight.accumulate_tn(&cache.x, &d_logits);
        // `dx + d_logits·Wᵀ` as one accumulating product, the bits of
        // adding a separate one (see `Param::accumulate_tn`).
        let w = self.router_weight.value();
        gemm(1.0, &d_logits, Trans::N, w, Trans::T, 1.0, &mut dx);
        dx
    }
}

/// Which (token, expert) pairs are kept, row-major: each expert picks its
/// `capacity` most probable tokens.
fn select(probs: &Matrix, capacity: usize) -> Vec<bool> {
    let (num_tokens, e) = probs.shape();
    let mut kept = vec![false; num_tokens * e];
    for expert in 0..e {
        let column: Vec<f32> = (0..num_tokens).map(|t| probs[(t, expert)]).collect();
        for token in top_k_indices(&column, capacity) {
            kept[token * e + expert] = true;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_tensor::init::seeded_rng;
    use megablocks_tensor::ops::gelu_scalar;

    fn layer(seed: u64) -> (ExpertChoiceMoe, StdRng) {
        let cfg = MoeConfig::new(6, 8, 3).with_block_size(4);
        let mut rng = seeded_rng(seed);
        let l = ExpertChoiceMoe::new(cfg, &mut rng);
        (l, rng)
    }

    /// The (token, expert) pairs the forward pass kept.
    fn picks(out: &ExpertChoiceOutput) -> Vec<(usize, usize)> {
        let e = out.cache.probs.cols();
        let permute = &out.cache.experts.permute;
        (0..permute.num_assignments())
            .filter(|&a| permute.row_of(a).is_some())
            .map(|a| (a / e, a % e))
            .collect()
    }

    #[test]
    fn load_is_perfectly_balanced() {
        let (l, mut rng) = layer(1);
        let x = init::normal(30, 6, 1.0, &mut rng);
        let out = l.forward(&x);
        let cap = l.capacity(30);
        assert!(
            out.stats.tokens_per_expert.iter().all(|&t| t == cap),
            "{:?}",
            out.stats.tokens_per_expert
        );
    }

    #[test]
    fn unpicked_tokens_emit_zero_rows() {
        let (l, mut rng) = layer(2);
        let x = init::normal(24, 6, 1.0, &mut rng);
        let out = l.forward(&x);
        let mut picked = [false; 24];
        for (token, _) in picks(&out) {
            picked[token] = true;
        }
        assert_eq!(
            out.stats.dropped_tokens,
            picked.iter().filter(|&&p| !p).count()
        );
        for (t, &p) in picked.iter().enumerate() {
            if !p {
                assert!(out.output.row(t).iter().all(|&v| v == 0.0), "token {t}");
            }
        }
    }

    #[test]
    fn tokens_may_be_selected_by_multiple_experts() {
        // With top_k = num_experts, capacity = num_tokens and every expert
        // selects every token.
        let cfg = MoeConfig::new(6, 8, 3).with_block_size(4).with_top_k(3);
        let mut rng = seeded_rng(3);
        let l = ExpertChoiceMoe::new(cfg, &mut rng);
        let x = init::normal(5, 6, 1.0, &mut rng);
        let out = l.forward(&x);
        assert_eq!(picks(&out).len(), 3 * 5);
        assert_eq!(out.stats.dropped_tokens, 0);
    }

    #[test]
    fn matches_dense_per_assignment_reference() {
        let (l, mut rng) = layer(4);
        let x = init::normal(12, 6, 1.0, &mut rng);
        let out = l.forward(&x);
        let ffn = 8;
        let mut want = Matrix::zeros(12, 6);
        for (token, expert) in picks(&out) {
            let mut h = vec![0.0f32; ffn];
            for (j, hv) in h.iter_mut().enumerate() {
                let mut acc = 0.0;
                for p in 0..6 {
                    acc += x[(token, p)] * l.w1.value()[(p, expert * ffn + j)];
                }
                *hv = gelu_scalar(acc);
            }
            for q in 0..6 {
                let mut acc = 0.0;
                for (j, hv) in h.iter().enumerate() {
                    acc += hv * l.w2.value()[(expert * ffn + j, q)];
                }
                want[(token, q)] += out.cache.probs[(token, expert)] * acc;
            }
        }
        assert!(
            out.output.approx_eq(&want, 1e-4),
            "diff {}",
            out.output.max_abs_diff(&want)
        );
    }

    #[test]
    fn nan_rows_at_512_tokens_select_without_panicking() {
        // Each expert sorts `num_tokens` probabilities; a poisoned layer
        // below makes whole rows NaN. (The selection alone: in a debug
        // build the kernels' own NaN sweep would stop the layer next.)
        let probs = Matrix::from_fn(512, 3, |t, e| {
            if t % 3 == 0 {
                f32::NAN
            } else {
                ((t * 3 + e) % 7) as f32 / 7.0
            }
        });
        let kept = select(&probs, 171);
        assert_eq!(kept.len(), 512 * 3);
        for expert in 0..3 {
            let picked = kept.iter().skip(expert).step_by(3).filter(|&&k| k).count();
            assert_eq!(picked, 171, "expert {expert}");
        }
    }
}
