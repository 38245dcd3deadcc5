//! MegaBlocks-RS: a Rust reproduction of *MegaBlocks: Efficient Sparse
//! Training with Mixture-of-Experts* (Gale et al., MLSys 2023).
//!
//! This facade crate re-exports the whole workspace so downstream users and
//! the runnable examples only need one dependency:
//!
//! * [`tensor`] — dense matrices, GEMM, batched matmul, NN ops.
//! * [`sparse`] — block-sparse formats (hybrid blocked-CSR-COO, transpose
//!   indices) and the SDD/DSD/DDS kernels from the paper's §5.1.
//! * [`core`] — routing, permutation, the dropless-MoE (dMoE) layer and the
//!   token-dropping baselines.
//! * [`transformer`] — the Transformer-LM training substrate (Megatron-LM
//!   stand-in), model configs from Tables 1–2, Adam, trainer.
//! * [`data`] — the synthetic Pile-like corpus.
//! * [`gpusim`] — the analytic A100 performance/memory model used to
//!   regenerate the paper's throughput and end-to-end timing figures.
//! * [`exec`] — the execution runtime: the persistent worker pool every
//!   kernel launches on, the [`exec::LaunchPlan`] band abstraction, and
//!   the reusable buffer workspace. Thread count is controlled with
//!   [`exec::configure_threads`] or the `MEGABLOCKS_THREADS` environment
//!   variable. Its [`exec::fault`] module is the fault-injection layer:
//!   always compiled, quiet until a [`exec::fault::FaultPlan`] is
//!   entered, and in force only for the work done under its scope. The
//!   checkpoint format's CRC32 and atomic writes are in
//!   [`core::checkpoint`], and [`transformer::Trainer`]'s step recovery
//!   backs off by a [`transformer::RetryPolicy`].
//! * [`telemetry`] — span timers, counters, histograms and JSONL export
//!   for observing training runs. Always compiled: the bounded metrics
//!   always record, the timeline and the per-step logs only once
//!   [`telemetry::trace_set_enabled`] (or a [`telemetry::FlushOnDrop`]
//!   given an output path) turns them on.
//! * [`serve`] — batched inference serving: a deadline-aware
//!   micro-batching engine ([`serve::Engine`]) over the dMoE
//!   inference-only path, with bounded admission and load shedding.
//!
//! # Quickstart
//!
//! ```
//! use megablocks::core::{DroplessMoe, MoeConfig};
//! use megablocks::tensor::init::seeded_rng;
//! use megablocks::tensor::Matrix;
//!
//! let cfg = MoeConfig::new(32, 64, 4).with_block_size(8);
//! let mut rng = seeded_rng(0);
//! let mut layer = DroplessMoe::new(cfg, &mut rng);
//! let tokens = megablocks::tensor::init::normal(16, 32, 1.0, &mut rng);
//! let out = layer.forward(&tokens);
//! assert_eq!(out.output.shape(), tokens.shape());
//! ```

pub use megablocks_core as core;
pub use megablocks_data as data;
pub use megablocks_exec as exec;
pub use megablocks_gpusim as gpusim;
pub use megablocks_serve as serve;
pub use megablocks_sparse as sparse;
pub use megablocks_telemetry as telemetry;
pub use megablocks_tensor as tensor;
pub use megablocks_transformer as transformer;
