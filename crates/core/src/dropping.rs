//! The token-dropping MoE baseline (paper §2–3).
//!
//! This is the GShard/Switch/Tutel formulation MegaBlocks compares against:
//! every expert gets a fixed-size token buffer (`expert_capacity`),
//! assignments beyond the capacity are *dropped* (the token's
//! representation survives only through the residual connection), and
//! under-full buffers are *padded* — wasting compute and memory. The
//! batched matmul that forces the capacity mechanism (Figure 3A) is
//! computed as what it is, a block-diagonal product with equal blocks
//! (Figure 3B), through the same grouped kernels as the dMoE
//! ([`crate::experts`]): this layer's policy is only which assignments
//! get a buffer slot. Capacities are rounded up to a whole block with zero
//! rows; [`MoeStats`] keeps counting capacity slots.
//!
//! [`CapacityFactor::Dynamic`](crate::CapacityFactor::Dynamic) reproduces
//! Tutel's no-drop mode: capacity is set per step to the maximum expert
//! load, trading dropping for worst-case padding — the memory-hungry
//! behaviour that shrinks Tutel's feasible micro-batch sizes in Table 3.

use std::borrow::Cow;

use megablocks_sparse::Topology;
use megablocks_telemetry as telemetry;
use megablocks_tensor::{init, Matrix};
use rand::rngs::StdRng;

use crate::experts::{self, MoeCache, MoeOutput, Retain};
use crate::{CapacityFactor, MoeConfig, Param, PermuteInfo, Router, Routing};

/// Forward-pass cache for [`DroppingMoe::backward`].
pub type DroppingMoeCache = MoeCache;

/// Result of [`DroppingMoe::forward`].
pub type DroppingMoeOutput = MoeOutput;

/// Token-dropping MoE layer: a uniform block-diagonal product over
/// capacity-sized expert buffers.
#[derive(Debug, Clone)]
pub struct DroppingMoe {
    cfg: MoeConfig,
    router: Router,
    w1: Param,
    w2: Param,
}

impl DroppingMoe {
    /// Creates a layer with the same parameterization (and, for equal
    /// seeds, identical initial weights) as [`crate::DroplessMoe`].
    ///
    /// # Panics
    ///
    /// Panics if `ffn_hidden_size` is not a multiple of the configured
    /// block size.
    pub fn new(cfg: MoeConfig, rng: &mut StdRng) -> Self {
        assert!(
            cfg.ffn_hidden_size.is_multiple_of(cfg.block_size.get()),
            "ffn_hidden_size {} must be a multiple of block size {}",
            cfg.ffn_hidden_size,
            cfg.block_size.get()
        );
        let inner = cfg.num_experts * cfg.ffn_hidden_size;
        let router = Router::new(cfg.hidden_size, cfg.num_experts, cfg.top_k, rng);
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
    pub fn config(&self) -> &MoeConfig {
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

    /// The first expert-layer weight (`hidden x num_experts*ffn`).
    pub fn w1(&self) -> &Param {
        &self.w1
    }

    /// The second expert-layer weight (`num_experts*ffn x hidden`).
    pub fn w2(&self) -> &Param {
        &self.w2
    }

    /// Runs the forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != hidden_size`, or if a kernel launch fails
    /// (including a tripped ambient cancellation context).
    pub fn forward(&self, x: &Matrix) -> DroppingMoeOutput {
        self.forward_owned(x.pooled_copy())
    }

    /// [`DroppingMoe::forward`] with `x` moved into the cache, not copied.
    #[doc(hidden)]
    pub fn forward_owned(&self, x: Matrix) -> DroppingMoeOutput {
        let cfg = &self.cfg;
        assert_eq!(x.cols(), cfg.hidden_size, "input feature size mismatch");
        let _span = telemetry::span("moe.dropping.forward");
        let tokens = x.rows();

        let policy = |routing: &Routing| {
            // Tutel's dynamic capacity is the largest realized load.
            let capacity = match cfg.capacity {
                CapacityFactor::Fixed(f) => cfg.expert_capacity(tokens, f),
                CapacityFactor::Dynamic => {
                    routing.tokens_per_expert().into_iter().max().unwrap_or(0)
                }
            }
            .max(1);

            // Fill expert buffers in token order; overflow drops.
            let mut fill = vec![0usize; cfg.num_experts];
            let kept: Vec<bool> = routing
                .expert_indices
                .iter()
                .map(|&e| {
                    fill[e] += 1;
                    fill[e] <= capacity
                })
                .collect();

            // Figure 3A as 3B: every expert owns the same number of rows.
            let permute = PermuteInfo::with_uniform_rows(
                &routing.expert_indices,
                cfg.num_experts,
                routing.top_k,
                &kept,
                cfg.block_size.round_up(capacity),
            );
            let topology = Topology::for_moe(
                permute.padded_tokens_per_expert(),
                cfg.ffn_hidden_size,
                cfg.block_size,
            )?
            .with_rows_valid(permute.rows_valid(cfg.block_size))?;
            Ok((permute, topology, cfg.num_experts * capacity))
        };
        let pass = experts::token_choice_forward(
            &self.router,
            self.w1.value(),
            self.w2.value(),
            cfg.load_balance_weight,
            Cow::Owned(x),
            Retain::ForBackward,
            policy,
        );
        MoeOutput::of(pass.unwrap_or_else(|e| panic!("{e}")))
    }

    /// Runs the backward pass, accumulating parameter gradients and
    /// returning the input gradient. Dropped tokens receive gradient only
    /// through the router.
    ///
    /// # Panics
    ///
    /// Panics if `d_out` does not match the forward output shape.
    pub fn backward(&mut self, cache: &DroppingMoeCache, d_out: &Matrix) -> Matrix {
        let _span = telemetry::span("moe.dropping.backward");
        cache.backward(&mut self.router, &mut self.w1, &mut self.w2, d_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_tensor::init::seeded_rng;

    fn cfg() -> MoeConfig {
        MoeConfig::new(6, 8, 3).with_block_size(4)
    }

    #[test]
    fn capacity_one_drops_overflow() {
        let mut rng = seeded_rng(1);
        let layer = DroppingMoe::new(cfg().with_capacity(CapacityFactor::Fixed(1.0)), &mut rng);
        let x = init::normal(30, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        // capacity = ceil(30/3) = 10; routing is imbalanced at init, so some
        // expert exceeds 10 with high probability for this seed.
        let max_load = *out.stats.tokens_per_expert.iter().max().unwrap();
        if max_load > 10 {
            assert!(out.stats.dropped_tokens > 0);
        }
        let expected_drops: usize = out
            .stats
            .tokens_per_expert
            .iter()
            .map(|&t| t.saturating_sub(10))
            .sum();
        assert_eq!(out.stats.dropped_tokens, expected_drops);
        // Kept load is the assignment count clamped to capacity.
        let expected_load: Vec<usize> = out
            .stats
            .tokens_per_expert
            .iter()
            .map(|&t| t.min(10))
            .collect();
        assert_eq!(out.stats.expert_load, expected_load);
        let kept: usize = expected_load.iter().sum();
        let want_overhead = out.stats.padding_rows as f32 / kept as f32;
        assert!((out.stats.padding_overhead - want_overhead).abs() < 1e-6);
    }

    #[test]
    fn dynamic_capacity_never_drops() {
        let mut rng = seeded_rng(2);
        let layer = DroppingMoe::new(cfg().with_capacity(CapacityFactor::Dynamic), &mut rng);
        let x = init::normal(25, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        assert_eq!(out.stats.dropped_tokens, 0);
        // Padding pads every expert to the max load.
        let max_load = *out.stats.tokens_per_expert.iter().max().unwrap();
        assert_eq!(out.stats.padding_rows, 3 * max_load - 25);
    }

    #[test]
    fn dropped_tokens_produce_zero_output_rows() {
        let mut rng = seeded_rng(3);
        let layer = DroppingMoe::new(cfg().with_capacity(CapacityFactor::Fixed(0.05)), &mut rng);
        // capacity = max(ceil(12/3*0.05),1) = 1: most tokens drop.
        let x = init::normal(12, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        assert!(out.stats.dropped_tokens >= 12 - 3);
        for a in 0..12 {
            if out.cache.experts.permute.row_of(a).is_none() {
                assert!(out.output.row(a).iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn capacity_rounds_up_to_a_block_but_stats_count_capacity_slots() {
        let mut rng = seeded_rng(4);
        let layer = DroppingMoe::new(cfg().with_capacity(CapacityFactor::Fixed(1.0)), &mut rng);
        let x = init::normal(30, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        // capacity 10 -> three experts of 12 rows; the stats still read
        // 3 * 10 slots.
        let permute = &out.cache.experts.permute;
        assert_eq!(permute.padded_tokens_per_expert(), &[12, 12, 12]);
        let kept: usize = out.stats.expert_load.iter().sum();
        assert_eq!(out.stats.padding_rows, 30 - kept);
        assert_eq!(permute.padding_rows(), 36 - kept);
    }

    #[test]
    #[should_panic(expected = "must be a multiple of block size")]
    fn misaligned_ffn_size_rejected() {
        // The default 128-wide block does not divide an 8-wide expert.
        let _ = DroppingMoe::new(MoeConfig::new(6, 8, 3), &mut seeded_rng(5));
    }

    #[test]
    fn higher_capacity_factor_means_more_padding_fewer_drops() {
        let mut drops = Vec::new();
        let mut pads = Vec::new();
        for cf in [1.0f32, 1.5, 2.0] {
            let mut rng = seeded_rng(11);
            let layer = DroppingMoe::new(cfg().with_capacity(CapacityFactor::Fixed(cf)), &mut rng);
            let x = init::normal(60, 6, 1.0, &mut rng);
            let out = layer.forward(&x);
            drops.push(out.stats.dropped_tokens);
            pads.push(out.stats.padding_rows);
        }
        assert!(
            drops[0] >= drops[1] && drops[1] >= drops[2],
            "drops {drops:?}"
        );
        assert!(pads[0] <= pads[1] && pads[1] <= pads[2], "pads {pads:?}");
    }
}
