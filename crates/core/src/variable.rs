//! Variable-sized experts — the §4.1 extension the paper points at:
//!
//! > "In this formulation, we could also relax the constraint on the
//! > number of columns in each block to build MoE layers with variable
//! > sized experts, as is shown in Figure 3C."
//!
//! [`VariableDroplessMoe`] is a dropless MoE whose experts may each have a
//! different FFN width. The block-diagonal topology simply gets a
//! per-expert block-*column* count to match its per-expert block-row
//! count; the SDD/DSD kernel family needs no changes at all — which is
//! exactly the point the paper makes about the flexibility of the
//! block-sparse formulation. The layer is the dropless policy over the
//! crate's one expert pipeline ([`crate::experts`]) with that topology.

use megablocks_sparse::{BlockSize, Topology};
use megablocks_tensor::{init, Matrix};
use rand::rngs::StdRng;

use crate::experts::{self, MoeCache, MoeOutput, Retain};
use crate::{Param, PermuteInfo, Router, Routing};

/// Configuration of a variable-sized-expert dMoE layer.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableMoeConfig {
    /// Token feature dimension.
    pub hidden_size: usize,
    /// FFN hidden width of each expert (one entry per expert; each must
    /// be a multiple of the block size).
    pub ffn_sizes: Vec<usize>,
    /// Experts per token.
    pub top_k: usize,
    /// Sparsity block size.
    pub block_size: BlockSize,
    /// Load-balancing loss coefficient.
    pub load_balance_weight: f32,
}

impl VariableMoeConfig {
    /// Creates a config with top-1 routing and load-balance weight 0.01.
    pub fn new(hidden_size: usize, ffn_sizes: Vec<usize>, block_size: usize) -> Self {
        Self {
            hidden_size,
            ffn_sizes,
            top_k: 1,
            block_size: BlockSize::new(block_size).expect("block size must be nonzero"),
            load_balance_weight: 0.01,
        }
    }

    /// Number of experts.
    pub fn num_experts(&self) -> usize {
        self.ffn_sizes.len()
    }

    /// Total FFN width across experts (the inner dimension of `w1`).
    pub fn inner_dim(&self) -> usize {
        self.ffn_sizes.iter().sum()
    }

    /// Column offset of expert `e` in the concatenated weights.
    pub fn ffn_offset(&self, e: usize) -> usize {
        self.ffn_sizes[..e].iter().sum()
    }
}

/// Forward cache for [`VariableDroplessMoe::backward`].
pub type VariableDmoeCache = MoeCache;

/// Result of [`VariableDroplessMoe::forward`].
pub type VariableDmoeOutput = MoeOutput;

/// A dropless MoE whose experts have individually sized FFNs.
#[derive(Debug, Clone)]
pub struct VariableDroplessMoe {
    cfg: VariableMoeConfig,
    router: Router,
    w1: Param,
    w2: Param,
}

impl VariableDroplessMoe {
    /// Creates the layer.
    ///
    /// # Panics
    ///
    /// Panics if any expert's FFN size is zero or not a multiple of the
    /// block size, or if there are no experts.
    pub fn new(cfg: VariableMoeConfig, rng: &mut StdRng) -> Self {
        assert!(!cfg.ffn_sizes.is_empty(), "need at least one expert");
        for (e, &f) in cfg.ffn_sizes.iter().enumerate() {
            assert!(
                f > 0 && f % cfg.block_size.get() == 0,
                "expert {e} ffn size {f} must be a nonzero multiple of block size {}",
                cfg.block_size.get()
            );
        }
        let inner = cfg.inner_dim();
        let router = Router::new(cfg.hidden_size, cfg.num_experts(), cfg.top_k, rng);
        let w1 = Param::new(init::gpt2_normal(cfg.hidden_size, inner, rng));
        let w2 = Param::new(init::gpt2_normal(inner, cfg.hidden_size, rng));
        Self {
            cfg,
            router,
            w1,
            w2,
        }
    }

    /// The layer configuration.
    pub fn config(&self) -> &VariableMoeConfig {
        &self.cfg
    }

    /// The router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// All trainable parameters, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![self.router.weight_mut(), &mut self.w1, &mut self.w2]
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != hidden_size`, or if a kernel launch fails
    /// (including a tripped ambient cancellation context).
    pub fn forward(&self, x: &Matrix) -> VariableDmoeOutput {
        let cfg = &self.cfg;
        assert_eq!(x.cols(), cfg.hidden_size, "input feature size mismatch");
        let policy = |routing: &Routing| {
            // Dropless, over Figure 3C with both dimensions variable: each
            // expert's block-column count follows its own FFN width.
            let bs = cfg.block_size.get();
            let permute = PermuteInfo::new(routing, cfg.num_experts(), cfg.block_size);
            let rows: Vec<usize> = permute
                .padded_tokens_per_expert()
                .iter()
                .map(|&t| t / bs)
                .collect();
            let cols: Vec<usize> = cfg.ffn_sizes.iter().map(|&f| f / bs).collect();
            let topology = Topology::block_diagonal(&rows, &cols, cfg.block_size)?
                .with_rows_valid(permute.rows_valid(cfg.block_size))?;
            let slots = permute.padded_rows();
            Ok((permute, topology, slots))
        };
        let pass = experts::token_choice_forward(
            &self.router,
            self.w1.value(),
            self.w2.value(),
            cfg.load_balance_weight,
            x,
            Retain::ForBackward,
            policy,
        );
        MoeOutput::of(pass.unwrap_or_else(|e| panic!("{e}")))
    }

    /// Backward pass; accumulates parameter gradients and returns the
    /// input gradient.
    ///
    /// # Panics
    ///
    /// Panics if `d_out` does not match the forward output shape.
    pub fn backward(&mut self, cache: &VariableDmoeCache, d_out: &Matrix) -> Matrix {
        cache.backward(&mut self.router, &mut self.w1, &mut self.w2, d_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_tensor::init::seeded_rng;
    use megablocks_tensor::ops::gelu_scalar;

    fn layer(seed: u64) -> (VariableDroplessMoe, StdRng) {
        // Three experts of widths 4, 8 and 12 (block size 4).
        let cfg = VariableMoeConfig::new(6, vec![4, 8, 12], 4);
        let mut rng = seeded_rng(seed);
        let l = VariableDroplessMoe::new(cfg, &mut rng);
        (l, rng)
    }

    #[test]
    fn forward_shapes_and_stats() {
        let (l, mut rng) = layer(1);
        let x = init::normal(13, 6, 1.0, &mut rng);
        let out = l.forward(&x);
        assert_eq!(out.output.shape(), (13, 6));
        assert_eq!(out.stats.dropped_tokens, 0);
        assert_eq!(out.stats.tokens_per_expert.iter().sum::<usize>(), 13);
    }

    #[test]
    fn equal_widths_match_the_uniform_layer() {
        // With all experts the same width, the variable layer must compute
        // exactly what DroplessMoe computes (same seed -> same weights).
        use crate::{DroplessMoe, MoeConfig};
        let mut r1 = seeded_rng(2);
        let var = VariableDroplessMoe::new(VariableMoeConfig::new(6, vec![8, 8, 8], 4), &mut r1);
        let mut r2 = seeded_rng(2);
        let uni = DroplessMoe::new(MoeConfig::new(6, 8, 3).with_block_size(4), &mut r2);
        let mut rng = seeded_rng(3);
        let x = init::normal(10, 6, 1.0, &mut rng);
        let a = var.forward(&x);
        let b = uni.forward(&x);
        assert!(
            a.output.approx_eq(&b.output, 1e-5),
            "diff {}",
            a.output.max_abs_diff(&b.output)
        );
    }

    #[test]
    fn variable_widths_match_per_expert_dense_reference() {
        let (l, mut rng) = layer(4);
        let x = init::normal(9, 6, 1.0, &mut rng);
        let out = l.forward(&x);
        let routing = &out.cache.routing;
        for t in 0..9 {
            let e = routing.expert_indices[t];
            let w = routing.weights[t];
            let off = l.cfg.ffn_offset(e);
            let width = l.cfg.ffn_sizes[e];
            let mut h = vec![0.0f32; width];
            for (j, hv) in h.iter_mut().enumerate() {
                let mut acc = 0.0;
                for p in 0..6 {
                    acc += x[(t, p)] * l.w1.value()[(p, off + j)];
                }
                *hv = gelu_scalar(acc);
            }
            for q in 0..6 {
                let mut acc = 0.0;
                for (j, hv) in h.iter().enumerate() {
                    acc += hv * l.w2.value()[(off + j, q)];
                }
                let want = w * acc;
                assert!(
                    (out.output[(t, q)] - want).abs() < 1e-4,
                    "token {t} feature {q}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of block size")]
    fn misaligned_ffn_size_rejected() {
        let mut rng = seeded_rng(6);
        let _ = VariableDroplessMoe::new(VariableMoeConfig::new(6, vec![4, 6], 4), &mut rng);
    }
}
