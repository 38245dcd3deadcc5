//! Scaled-down training runs for the quality experiments (Figures 2, 7, 8).
//!
//! The paper trains 46M-13B parameter models on 10B tokens of The Pile on
//! 8 A100s; the CPU-scale equivalent here trains ~1M-parameter models on a
//! few hundred thousand synthetic tokens with the *same structure*: a
//! Transformer LM whose FFN layers are dense, dropless-MoE or
//! token-dropping-MoE, trained with Adam + clipping + warmup/decay at a
//! fixed global batch. Loss *differences between formulations* — the
//! quantity Figures 2, 7 and 8 plot — survive the scaling; absolute loss
//! values do not (documented in EXPERIMENTS.md).

use megablocks_core::{CapacityFactor, MoeConfig};
use megablocks_data::{PileConfig, SyntheticPile};
use megablocks_tensor::init::seeded_rng;
use megablocks_transformer::{FfnKind, Trainer, TrainerConfig, TransformerConfig, TransformerLm};

/// Which FFN formulation a scaled run trains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaledKind {
    /// Dense FFN baseline (Megatron-LM).
    Dense,
    /// MegaBlocks dropless MoE.
    Dropless,
    /// Token-dropping MoE at a fixed capacity factor.
    Dropping(f32),
    /// Token-dropping MoE with Tutel's dynamic capacity factor (never
    /// drops; pads to the max load).
    DynamicCapacity,
    /// Block-sparse MoE with expert-choice routing (Zhou et al. 2022).
    ExpertChoice,
}

impl ScaledKind {
    /// Human-readable label for report rows.
    pub fn label(self) -> String {
        match self {
            ScaledKind::Dense => "Transformer (dense)".to_string(),
            ScaledKind::Dropless => "dMoE (MegaBlocks)".to_string(),
            ScaledKind::Dropping(cf) => format!("MoE cf={cf}"),
            ScaledKind::DynamicCapacity => "MoE cf=max (dynamic)".to_string(),
            ScaledKind::ExpertChoice => "MoE (expert choice)".to_string(),
        }
    }
}

/// Configuration of a scaled-down experiment family.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledConfig {
    /// Model hidden size.
    pub hidden: usize,
    /// Number of Transformer blocks.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Dense-equivalent FFN hidden size.
    pub ffn_hidden: usize,
    /// Experts per MoE layer.
    pub num_experts: usize,
    /// Sparsity block size for the dMoE (scaled down alongside the model;
    /// the paper-scale value is 128).
    pub block_size: usize,
    /// Optimizer steps to train.
    pub steps: usize,
    /// Trainer batch settings.
    pub batch_size: usize,
    /// Micro-batch for gradient accumulation.
    pub micro_batch_size: usize,
    /// Peak learning rate.
    pub lr_max: f32,
    /// Corpus settings.
    pub pile: PileConfig,
    /// Seed for data/model/trainer.
    pub seed: u64,
}

impl ScaledConfig {
    /// The default scaled family used by the figure reproductions:
    /// 2-layer, hidden-64 models with 8-expert MoEs on a 512-vocab
    /// synthetic Pile.
    pub fn default_family() -> Self {
        Self {
            hidden: 64,
            layers: 2,
            heads: 2,
            seq_len: 64,
            ffn_hidden: 128,
            num_experts: 8,
            block_size: 16,
            steps: 500,
            batch_size: 16,
            micro_batch_size: 8,
            lr_max: 3e-3,
            pile: PileConfig::repro(),
            seed: 17,
        }
    }

    /// A faster variant for smoke tests.
    pub fn smoke() -> Self {
        Self {
            steps: 25,
            pile: PileConfig::tiny(),
            ..Self::default_family()
        }
    }

    fn transformer_config(&self, kind: ScaledKind) -> TransformerConfig {
        let moe = || {
            MoeConfig::new(self.hidden, self.ffn_hidden, self.num_experts)
                .with_block_size(self.block_size)
        };
        let ffn = match kind {
            ScaledKind::Dense => FfnKind::Dense,
            ScaledKind::Dropless => FfnKind::Dropless(moe()),
            ScaledKind::Dropping(cf) => {
                FfnKind::Dropping(moe().with_capacity(CapacityFactor::Fixed(cf)))
            }
            ScaledKind::DynamicCapacity => {
                FfnKind::Dropping(moe().with_capacity(CapacityFactor::Dynamic))
            }
            ScaledKind::ExpertChoice => FfnKind::ExpertChoice(moe()),
        };
        TransformerConfig {
            vocab_size: self.pile.vocab_size,
            hidden_size: self.hidden,
            num_layers: self.layers,
            num_heads: self.heads,
            seq_len: self.seq_len,
            ffn_hidden_size: self.ffn_hidden,
            ffn,
        }
    }
}

/// Outcome of one scaled training run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledResult {
    /// The formulation trained.
    pub kind_label: String,
    /// Validation loss after training.
    pub final_val_loss: f32,
    /// Validation loss before training (sanity anchor; ~ln vocab).
    pub initial_val_loss: f32,
    /// Training cross-entropy at the last step.
    pub final_train_loss: f32,
    /// Total dropped token-assignments over the run.
    pub total_dropped: usize,
    /// Dropped fraction of all routed assignments.
    pub dropped_fraction: f64,
    /// Trainable parameters.
    pub param_count: usize,
}

/// Trains one scaled model and reports its quality.
///
/// Deterministic for a fixed config (data, init and batch order all
/// derive from `cfg.seed`).
pub fn train_scaled(cfg: &ScaledConfig, kind: ScaledKind) -> ScaledResult {
    let pile = SyntheticPile::generate(&cfg.pile, cfg.seed);
    let (train, valid) = pile.split(0.9);
    let mut rng = seeded_rng(cfg.seed + 1);
    let model = TransformerLm::new(cfg.transformer_config(kind), &mut rng);
    let tcfg = TrainerConfig {
        batch_size: cfg.batch_size,
        micro_batch_size: cfg.micro_batch_size,
        seq_len: cfg.seq_len,
        lr_max: cfg.lr_max,
        warmup_steps: cfg.steps / 10 + 1,
        total_steps: cfg.steps,
        clip: 1.0,
        seed: cfg.seed + 2,
    };
    let mut trainer = Trainer::new(model, tcfg);
    let initial = trainer.evaluate(&valid, 8).loss;
    let logs = trainer
        .train(&train, cfg.steps)
        .expect("a fault-free run completes every step");
    let final_val = trainer.evaluate(&valid, 8).loss;
    let total_dropped: usize = logs.iter().map(|l| l.dropped_tokens).sum();
    let routed = cfg.steps * cfg.batch_size * cfg.seq_len * cfg.layers;
    let param_count = trainer.model_mut().param_count();
    ScaledResult {
        kind_label: kind.label(),
        final_val_loss: final_val,
        initial_val_loss: initial,
        final_train_loss: logs.last().map_or(f32::NAN, |l| l.ce_loss),
        total_dropped,
        dropped_fraction: total_dropped as f64 / routed as f64,
        param_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_all_kinds() {
        let cfg = ScaledConfig::smoke();
        for kind in [
            ScaledKind::Dense,
            ScaledKind::Dropless,
            ScaledKind::Dropping(1.0),
            ScaledKind::DynamicCapacity,
        ] {
            let r = train_scaled(&cfg, kind);
            assert!(r.final_val_loss.is_finite(), "{}", r.kind_label);
            assert!(
                r.final_val_loss < r.initial_val_loss,
                "{} did not learn: {} -> {}",
                r.kind_label,
                r.initial_val_loss,
                r.final_val_loss
            );
            if matches!(kind, ScaledKind::Dropless | ScaledKind::DynamicCapacity) {
                assert_eq!(r.total_dropped, 0, "{} dropped tokens", r.kind_label);
            }
        }
    }
}
