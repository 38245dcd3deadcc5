//! Dropless Mixture-of-Experts layers — the layer-level contribution of the
//! MegaBlocks paper.
//!
//! The crate provides:
//!
//! * [`Router`] — the learned top-k router of Shazeer et al. (2017) used by
//!   the paper (§2.1), with full backward pass.
//! * [`load_balancing_loss`] — the Switch-Transformer auxiliary loss the
//!   paper trains with (§2.2).
//! * [`PermuteInfo`], [`padded_gather`], [`padded_scatter`] — permutation
//!   that groups tokens by expert and pads each group to a multiple of the
//!   block size, fused exactly like the custom kernels of §5.2. An
//!   assignment may be dropped: it then has no row.
//! * One expert pipeline (`experts`, crate-private): gather → SDD → GeLU →
//!   DSD → scatter and its backward. Every MoE layer below decides only
//!   *who goes where* — a [`PermuteInfo`] and a block-diagonal topology —
//!   and runs it (Figure 3: a capacity-padded batched matmul is the same
//!   product with equal blocks).
//! * [`DroplessMoe`] — the paper's dMoE layer (Figure 6): every assignment
//!   kept, each expert padded to the next block.
//! * [`DroppingMoe`] — the token-dropping baseline (GShard/Switch/Tutel
//!   formulation, §2–3): experts fill to a capacity in token order, the
//!   rest drop; including Tutel's dynamic capacity factor.
//! * [`VariableDroplessMoe`], [`ExpertChoiceMoe`] — variable-width
//!   experts (§4.1) and expert-choice routing (§7) as two more policies.
//! * [`DenseFfn`] — the dense FFN layer a standard Transformer uses, for
//!   the Megatron-LM baseline.
//!
//! # Example: a dMoE layer never drops tokens
//!
//! ```
//! use megablocks_core::{DroplessMoe, MoeConfig};
//! use megablocks_tensor::init::{normal, seeded_rng};
//!
//! let cfg = MoeConfig::new(16, 32, 4).with_block_size(8);
//! let mut rng = seeded_rng(0);
//! let mut layer = DroplessMoe::new(cfg, &mut rng);
//! let x = normal(24, 16, 1.0, &mut rng);
//! let out = layer.forward(&x);
//! assert_eq!(out.output.shape(), (24, 16));
//! assert_eq!(out.stats.dropped_tokens, 0); // dropless, by construction
//! ```

#![deny(missing_docs)]

pub mod checkpoint;
mod config;
mod dmoe;
mod dropping;
mod expert_choice;
mod experts;
mod ffn;
mod loss;
mod param;
mod permute;
mod router;
mod variable;

pub use config::{CapacityFactor, MoeConfig};
pub use dmoe::{DmoeCache, DmoeOutput, DroplessMoe};
pub use dropping::{DroppingMoe, DroppingMoeCache, DroppingMoeOutput};
pub use expert_choice::{ExpertChoiceCache, ExpertChoiceMoe, ExpertChoiceOutput};
pub use experts::{MoeCache, MoeOutput};
pub use ffn::{DenseFfn, FfnCache};
pub use loss::{load_balancing_loss, LoadBalance};
pub use param::Param;
pub use permute::{
    padded_gather, padded_gather_backward, padded_scatter, padded_scatter_backward, PermuteInfo,
};
pub use router::{Router, Routing};
pub use variable::{VariableDmoeCache, VariableDmoeOutput, VariableDroplessMoe, VariableMoeConfig};

use megablocks_telemetry as telemetry;

/// Statistics recorded by an MoE layer's forward pass, used by the
/// experiments to report dropping behaviour and padding waste.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MoeStats {
    /// Token-assignments that were dropped (always 0 for dMoE).
    pub dropped_tokens: usize,
    /// Rows of padding added to satisfy block-size or capacity constraints.
    pub padding_rows: usize,
    /// Tokens assigned to each expert before dropping/padding.
    pub tokens_per_expert: Vec<usize>,
    /// The load-balancing auxiliary loss value.
    pub load_balancing_loss: f32,
    /// Rows of padding per row of real data actually processed
    /// (`padding_rows / kept assignments`; 0 when nothing was kept). For a
    /// dMoE this is the block-rounding waste of §5.2; for the dropping
    /// baseline it is the capacity-buffer waste of Figure 3A.
    pub padding_overhead: f32,
    /// Tokens each expert actually processed — after dropping, before
    /// padding. Equal to [`MoeStats::tokens_per_expert`] for dropless
    /// layers.
    pub expert_load: Vec<usize>,
}

impl MoeStats {
    /// Padding overhead as a ratio: `padding_rows / kept`, or 0.0 when no
    /// assignments were kept.
    pub(crate) fn overhead(padding_rows: usize, kept: usize) -> f32 {
        if kept == 0 {
            0.0
        } else {
            padding_rows as f32 / kept as f32
        }
    }
}

/// Shannon entropy (nats) of a count distribution: `ln(len)` when counts
/// are perfectly uniform, 0 when concentrated on one bin or empty. The
/// trainer's `train.step` event averages it over MoE layers as its
/// `router_entropy` field.
pub fn count_entropy(counts: &[usize]) -> f32 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut h = 0.0f32;
    for &c in counts {
        if c > 0 {
            let p = c as f32 / total as f32;
            h -= p * p.ln();
        }
    }
    h
}

/// Max-over-mean load imbalance of an assignment histogram (1.0 =
/// perfectly balanced).
pub fn load_imbalance(tokens_per_expert: &[usize]) -> f64 {
    let total: usize = tokens_per_expert.iter().sum();
    if total == 0 || tokens_per_expert.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / tokens_per_expert.len() as f64;
    let max = *tokens_per_expert.iter().max().expect("nonempty") as f64;
    max / mean
}

/// Records one forward pass's [`MoeStats`] into the global telemetry
/// registry: the per-expert token-count histogram and labelled counters,
/// padding and dropped-token counters, and the padding-overhead and
/// router load-entropy gauges.
pub(crate) fn record_moe_stats(stats: &MoeStats) {
    let hist = telemetry::histogram("moe.tokens_per_expert");
    for (e, &c) in stats.tokens_per_expert.iter().enumerate() {
        hist.record(c as u64);
        telemetry::counter_with("moe.expert_tokens", &e.to_string()).add(c as u64);
    }
    telemetry::counter("moe.padding_rows").add(stats.padding_rows as u64);
    telemetry::counter("moe.dropped_tokens").add(stats.dropped_tokens as u64);
    telemetry::gauge("moe.padding_overhead").set(stats.padding_overhead as f64);
    telemetry::gauge("moe.load_entropy").set(count_entropy(&stats.tokens_per_expert) as f64);
    telemetry::gauge("moe.load_balancing_loss").set(stats.load_balancing_loss as f64);
}
