use megablocks_sparse::BlockSize;

/// Expert-capacity policy for the token-dropping MoE baseline (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityFactor {
    /// Fixed capacity factor: each expert accepts
    /// `ceil(num_tokens / num_experts * factor)` tokens; the rest drop.
    Fixed(f32),
    /// Tutel's dynamic capacity factor (Hwang et al. 2022): capacity is set
    /// per step to the maximum expert load, so no tokens drop — at the cost
    /// of padding every expert to the worst-case load.
    Dynamic,
}

/// Configuration of an MoE layer ([`crate::MoeLayer`]), whatever its
/// placement policy.
///
/// Mirrors the hyperparameters of the paper's Table 2 models:
/// `num_experts = 64`, `top_k = 1`, experts are 2-layer MLPs with the
/// original FFN dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct MoeConfig {
    /// Model (token feature) dimension.
    pub hidden_size: usize,
    /// Hidden dimension of each expert MLP.
    pub ffn_hidden_size: usize,
    /// Number of experts.
    pub num_experts: usize,
    /// Number of experts each token is routed to.
    pub top_k: usize,
    /// Sparsity block size for the dMoE formulation.
    pub block_size: BlockSize,
    /// Coefficient of the load-balancing auxiliary loss (Switch
    /// Transformer uses 0.01).
    pub load_balance_weight: f32,
    /// Capacity policy used by the token-dropping baseline
    /// ([`crate::DroppingMoe`]). Ignored by the other placements.
    pub capacity: CapacityFactor,
}

impl MoeConfig {
    /// Creates a config with `top_k = 1`, the paper's 128x128 block size,
    /// load-balance weight 0.01 and capacity factor 1.0.
    pub fn new(hidden_size: usize, ffn_hidden_size: usize, num_experts: usize) -> Self {
        Self {
            hidden_size,
            ffn_hidden_size,
            num_experts,
            top_k: 1,
            block_size: BlockSize::PAPER,
            load_balance_weight: 0.01,
            capacity: CapacityFactor::Fixed(1.0),
        }
    }

    /// Sets `top_k`.
    ///
    /// # Panics
    ///
    /// Panics if `top_k` is zero or exceeds `num_experts`.
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        assert!(
            top_k >= 1 && top_k <= self.num_experts,
            "top_k must be in 1..=num_experts"
        );
        self.top_k = top_k;
        self
    }

    /// Sets the sparsity block size (the dMoE pads each expert's tokens to
    /// a multiple of this).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or does not divide `ffn_hidden_size`.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        let bs = BlockSize::new(block_size).expect("block size must be nonzero");
        assert!(
            self.ffn_hidden_size.is_multiple_of(bs.get()),
            "block size {} must divide ffn_hidden_size {}",
            bs.get(),
            self.ffn_hidden_size
        );
        self.block_size = bs;
        self
    }

    /// Sets the capacity policy for the dropping baseline.
    pub fn with_capacity(mut self, capacity: CapacityFactor) -> Self {
        self.capacity = capacity;
        self
    }

    /// Expert capacity in tokens for `num_tokens` inputs under a fixed
    /// factor: `ceil(num_tokens / num_experts * factor)` (paper §2.2,
    /// scaled by `top_k` assignments).
    pub fn expert_capacity(&self, num_tokens: usize, factor: f32) -> usize {
        let expected = (num_tokens * self.top_k) as f32 / self.num_experts as f32;
        (expected * factor).ceil() as usize
    }

    /// Number of trainable parameters in one MoE layer
    /// (`router + num_experts * 2 * hidden * ffn`).
    pub fn param_count(&self) -> usize {
        self.hidden_size * self.num_experts
            + self.num_experts * 2 * self.hidden_size * self.ffn_hidden_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let cfg = MoeConfig::new(512, 2048, 64);
        assert_eq!(cfg.top_k, 1);
        assert_eq!(cfg.block_size, BlockSize::PAPER);
        assert_eq!(cfg.capacity, CapacityFactor::Fixed(1.0));
    }

    #[test]
    fn expert_capacity_formula() {
        let cfg = MoeConfig::new(8, 16, 4);
        // 100 tokens, 4 experts, cf 1.0 -> 25
        assert_eq!(cfg.expert_capacity(100, 1.0), 25);
        // cf 1.5 -> 37.5 -> 38
        assert_eq!(cfg.expert_capacity(100, 1.5), 38);
        // top-2 doubles the expected assignments
        let cfg2 = MoeConfig::new(8, 16, 4).with_top_k(2);
        assert_eq!(cfg2.expert_capacity(100, 1.0), 50);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn block_size_must_divide_ffn() {
        let _ = MoeConfig::new(8, 10, 2).with_block_size(4);
    }

    #[test]
    fn param_count_matches_hand_calc() {
        let cfg = MoeConfig::new(4, 8, 3);
        assert_eq!(cfg.param_count(), 4 * 3 + 3 * 2 * 4 * 8);
    }
}
