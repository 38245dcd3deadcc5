//! Expert-choice routing (Zhou et al. 2022) — the related-work routing
//! algorithm the paper discusses in §7: instead of each token picking its
//! top-k experts, each *expert* picks its top-`capacity` tokens. Load is
//! perfectly balanced by construction, but a token may be picked by zero
//! experts (the residual carries it) or by several.
//!
//! The paper conjectures that improved routing algorithms *complement*
//! block-sparse expert computation; this module demonstrates it: the
//! expert-choice layer reuses the same topology/SDD/DSD machinery as
//! [`crate::DroplessMoe`], only the assignment logic changes.

use megablocks_sparse::{ops, BlockSparseMatrix, Topology};
use megablocks_tensor::ops::{gelu_grad_mul, gelu_scalar, softmax_rows, softmax_rows_backward};
use megablocks_tensor::{init, matmul, matmul_nt, matmul_tn, Matrix};
use rand::rngs::StdRng;

use crate::{MoeConfig, MoeStats, Param};

/// One expert-choice assignment: expert `expert` picked token `token`
/// with router probability `weight`, placing it at `slot` in the expert's
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpertChoiceAssignment {
    /// The selected token.
    pub token: usize,
    /// The selecting expert.
    pub expert: usize,
    /// Buffer slot within the expert (0..capacity).
    pub slot: usize,
    /// Router probability of the (token, expert) pair.
    pub weight: f32,
}

/// Forward cache for [`ExpertChoiceMoe::backward`].
#[derive(Debug, Clone)]
pub struct ExpertChoiceCache {
    x: Matrix,
    probs: Matrix,
    assignments: Vec<ExpertChoiceAssignment>,
    padded_capacity: usize,
    xg: Matrix,
    h_pre: BlockSparseMatrix,
    h_act: BlockSparseMatrix,
    y: Matrix,
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
    /// Panics if `x.cols() != hidden_size`.
    pub fn forward(&self, x: &Matrix) -> ExpertChoiceOutput {
        assert_eq!(
            x.cols(),
            self.cfg.hidden_size,
            "input feature size mismatch"
        );
        let num_tokens = x.rows();
        let e = self.cfg.num_experts;
        let capacity = self.capacity(num_tokens);
        let bs = self.cfg.block_size;
        let padded_capacity = bs.round_up(capacity);

        // Scores: per-token softmax over experts, then each expert picks
        // its top-capacity tokens down its probability column.
        let logits = matmul(x, self.router_weight.value());
        let probs = softmax_rows(&logits);
        let mut assignments = Vec::with_capacity(e * capacity);
        for expert in 0..e {
            let mut order: Vec<usize> = (0..num_tokens).collect();
            order.sort_by(|&a, &b| {
                probs[(b, expert)]
                    .partial_cmp(&probs[(a, expert)])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for (slot, &token) in order.iter().take(capacity).enumerate() {
                assignments.push(ExpertChoiceAssignment {
                    token,
                    expert,
                    slot,
                    weight: probs[(token, expert)],
                });
            }
        }

        // Every expert has exactly `padded_capacity` rows: a *uniform*
        // block-diagonal topology.
        let topology = Topology::for_moe(&vec![padded_capacity; e], self.cfg.ffn_hidden_size, bs)
            .expect("aligned by construction");

        // Gather into expert-major order.
        let mut xg = Matrix::zeros(e * padded_capacity, self.cfg.hidden_size);
        for a in &assignments {
            xg.row_mut(a.expert * padded_capacity + a.slot)
                .copy_from_slice(x.row(a.token));
        }

        let h_pre = ops::sdd(&xg, self.w1.value(), &topology);
        let h_act = h_pre.map(gelu_scalar);
        let y = ops::dsd(&h_act, self.w2.value());

        // Scatter back with probability weighting; tokens picked by
        // multiple experts sum their contributions.
        let mut output = Matrix::zeros(num_tokens, self.cfg.hidden_size);
        let mut picked = vec![false; num_tokens];
        for a in &assignments {
            picked[a.token] = true;
            let src = y.row(a.expert * padded_capacity + a.slot);
            let dst = output.row_mut(a.token);
            for (o, s) in dst.iter_mut().zip(src) {
                *o += a.weight * s;
            }
        }
        let unpicked = picked.iter().filter(|&&p| !p).count();

        let mut tokens_per_expert = vec![0usize; e];
        for a in &assignments {
            tokens_per_expert[a.expert] += 1;
        }
        let stats = MoeStats {
            dropped_tokens: unpicked,
            padding_rows: e * padded_capacity - assignments.len(),
            load_balancing_loss: 0.0, // balance is guaranteed; no aux loss
            padding_overhead: MoeStats::overhead(
                e * padded_capacity - assignments.len(),
                assignments.len(),
            ),
            // Expert choice processes exactly what each expert picked.
            expert_load: tokens_per_expert.clone(),
            tokens_per_expert,
        };
        crate::record_moe_stats(&stats);
        ExpertChoiceOutput {
            output,
            stats,
            cache: ExpertChoiceCache {
                x: x.clone(),
                probs,
                assignments,
                padded_capacity,
                xg,
                h_pre,
                h_act,
                y,
            },
        }
    }

    /// Backward pass; accumulates parameter gradients and returns the
    /// input gradient.
    ///
    /// # Panics
    ///
    /// Panics if `d_out` does not match the forward output shape.
    pub fn backward(&mut self, cache: &ExpertChoiceCache, d_out: &Matrix) -> Matrix {
        let hidden = self.cfg.hidden_size;
        assert_eq!(
            d_out.shape(),
            (cache.x.rows(), hidden),
            "d_out shape mismatch"
        );
        let pc = cache.padded_capacity;

        // Un-permutation backward: per-assignment expert-output grads and
        // router probability grads.
        let mut dy = Matrix::zeros(cache.y.rows(), hidden);
        let mut d_probs = Matrix::zeros(cache.probs.rows(), cache.probs.cols());
        for a in &cache.assignments {
            let row = a.expert * pc + a.slot;
            let d_row = d_out.row(a.token);
            let y_row = cache.y.row(row);
            d_probs[(a.token, a.expert)] +=
                d_row.iter().zip(y_row).map(|(d, v)| d * v).sum::<f32>();
            let dst = dy.row_mut(row);
            for (o, d) in dst.iter_mut().zip(d_row) {
                *o = a.weight * d;
            }
        }

        // Expert MLP backward through the sparse kernels.
        let dh_act = ops::sdd_t(&dy, self.w2.value(), cache.h_pre.topology());
        self.w2.accumulate(&ops::dst_d(&cache.h_act, &dy));
        let mut dh = dh_act;
        gelu_grad_mul(dh.as_mut_slice(), cache.h_pre.as_slice());
        let dxg = ops::dsd_t(&dh, self.w1.value());
        self.w1.accumulate(&ops::ddt_s(&cache.xg, &dh));

        // Gather backward.
        let mut dx = Matrix::zeros(cache.x.rows(), hidden);
        for a in &cache.assignments {
            let src = dxg.row(a.expert * pc + a.slot);
            let dst = dx.row_mut(a.token);
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }

        // Router backward through the softmax (selection treated as
        // non-differentiable, like top-k in token-choice routing).
        let d_logits = softmax_rows_backward(&cache.probs, &d_probs);
        self.router_weight
            .accumulate(&matmul_tn(&cache.x, &d_logits));
        dx.add_assign(&matmul_nt(&d_logits, self.router_weight.value()));
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_tensor::init::seeded_rng;

    fn layer(seed: u64) -> (ExpertChoiceMoe, StdRng) {
        let cfg = MoeConfig::new(6, 8, 3).with_block_size(4);
        let mut rng = seeded_rng(seed);
        let l = ExpertChoiceMoe::new(cfg, &mut rng);
        (l, rng)
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
        for a in &out.cache.assignments {
            picked[a.token] = true;
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
        assert_eq!(out.cache.assignments.len(), 3 * 5);
        assert_eq!(out.stats.dropped_tokens, 0);
    }

    #[test]
    fn matches_dense_per_assignment_reference() {
        let (l, mut rng) = layer(4);
        let x = init::normal(12, 6, 1.0, &mut rng);
        let out = l.forward(&x);
        let ffn = 8;
        let mut want = Matrix::zeros(12, 6);
        for a in &out.cache.assignments {
            let mut h = vec![0.0f32; ffn];
            for (j, hv) in h.iter_mut().enumerate() {
                let mut acc = 0.0;
                for p in 0..6 {
                    acc += x[(a.token, p)] * l.w1.value()[(p, a.expert * ffn + j)];
                }
                *hv = gelu_scalar(acc);
            }
            for q in 0..6 {
                let mut acc = 0.0;
                for (j, hv) in h.iter().enumerate() {
                    acc += hv * l.w2.value()[(a.expert * ffn + j, q)];
                }
                want[(a.token, q)] += a.weight * acc;
            }
        }
        assert!(
            out.output.approx_eq(&want, 1e-4),
            "diff {}",
            out.output.max_abs_diff(&want)
        );
    }

    #[test]
    fn backward_weight_grads_match_finite_difference() {
        let (mut l, mut rng) = layer(5);
        let x = init::normal(9, 6, 0.7, &mut rng);
        let w = init::normal(9, 6, 0.5, &mut rng);
        let objective = |l: &ExpertChoiceMoe, x: &Matrix| -> f32 {
            let out = l.forward(x);
            out.output
                .as_slice()
                .iter()
                .zip(w.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let out = l.forward(&x);
        let base_sel: Vec<(usize, usize)> = out
            .cache
            .assignments
            .iter()
            .map(|a| (a.token, a.expert))
            .collect();
        let _ = l.backward(&out.cache, &w);
        let eps = 2e-3;
        for &(r, c) in &[(0usize, 2usize), (3, 11), (5, 20)] {
            let ana = l.w1.grad()[(r, c)];
            let orig = l.w1.value()[(r, c)];
            l.w1.value_mut()[(r, c)] = orig + eps;
            let fp = objective(&l, &x);
            l.w1.value_mut()[(r, c)] = orig - eps;
            let fm = objective(&l, &x);
            l.w1.value_mut()[(r, c)] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "dw1({r},{c}): numeric {num}, analytic {ana}"
            );
        }
        // Router gradient check on a selection-stable perturbation.
        for &(r, c) in &[(1usize, 0usize), (4, 2)] {
            let ana = l.router_weight.grad()[(r, c)];
            let orig = l.router_weight.value()[(r, c)];
            l.router_weight.value_mut()[(r, c)] = orig + eps;
            let sel_p: Vec<(usize, usize)> = l
                .forward(&x)
                .cache
                .assignments
                .iter()
                .map(|a| (a.token, a.expert))
                .collect();
            let fp = objective(&l, &x);
            l.router_weight.value_mut()[(r, c)] = orig - eps;
            let sel_m: Vec<(usize, usize)> = l
                .forward(&x)
                .cache
                .assignments
                .iter()
                .map(|a| (a.token, a.expert))
                .collect();
            let fm = objective(&l, &x);
            l.router_weight.value_mut()[(r, c)] = orig;
            if sel_p != base_sel || sel_m != base_sel {
                continue; // selection flipped; finite diff invalid
            }
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 6e-2 * (1.0 + num.abs()),
                "d_router({r},{c}): numeric {num}, analytic {ana}"
            );
        }
    }
}
