//! Transformer language-model training substrate for MegaBlocks-RS.
//!
//! This crate is the stand-in for Megatron-LM (Shoeybi et al. 2019), the
//! framework the paper builds on: a decoder-only Transformer LM with
//! pre-norm blocks, tied embeddings, causal multi-head attention, and a
//! choice of feed-forward layer per block — dense FFN (the Megatron
//! baseline), token-dropping MoE (the Tutel baseline) or the paper's
//! dropless MoE.
//!
//! It also hosts the paper's model zoo: [`TransformerSize`] reproduces
//! Table 1 (Transformer-XS through XL) and [`MoeSize`] reproduces Table 2
//! (MoE-XS/Small/Medium), including the exact weight counts and the
//! GFLOP expression from Narayanan et al. (2021b) that the captions cite.
//!
//! # Example
//!
//! ```
//! use megablocks_transformer::{FfnKind, TransformerConfig, TransformerLm};
//! use megablocks_tensor::init::seeded_rng;
//!
//! let cfg = TransformerConfig::tiny(FfnKind::Dense);
//! let mut rng = seeded_rng(0);
//! let mut model = TransformerLm::new(cfg, &mut rng);
//! let inputs = vec![1usize, 2, 3, 4, 5, 6, 7, 8];
//! let targets = vec![2usize, 3, 4, 5, 6, 7, 8, 9];
//! let stats = model.train_step(&inputs, &targets, 1);
//! assert!(stats.ce_loss > 0.0);
//! ```

#![deny(missing_docs)]

mod adam;
mod attention;
mod block;
mod config;
mod model;
mod norm;
mod resilient;
mod retry;
mod trainer;

pub use adam::{clip_grad_norm, Adam, AdamConfig};
pub use attention::{Attention, AttentionCache};
pub use block::{Block, BlockCache, BlockFfn};
pub use config::{
    model_flops_per_sequence, FfnKind, ModelSpec, MoeSize, TransformerConfig, TransformerSize,
};
pub use model::{DecodeState, StepStats, TransformerLm};
pub use norm::LayerNorm;
pub use resilient::{ResilienceConfig, ResilienceReport, TrainAbort};
pub use retry::RetryPolicy;
pub use trainer::{lr_at_step, EvalResult, PendingStep, TrainLog, Trainer, TrainerConfig};
