//! Shared infrastructure for the paper-reproduction harness.
//!
//! The `repro` binary (one subcommand per table/figure — see DESIGN.md's
//! per-experiment index) uses this crate to run *scaled-down* training
//! experiments on the synthetic Pile and to query the analytic A100 model
//! for paper-scale timing. Quality comparisons (Figures 2, 7, 8) train
//! real models on CPU at laptop scale; throughput/memory numbers (Figures
//! 4, 9, Tables 3) come from `megablocks-gpusim`.

pub mod frontier;
pub mod report;
pub mod scaled;

pub use frontier::hours_at_loss;
pub use report::Table;
pub use scaled::{train_scaled, ScaledConfig, ScaledKind, ScaledResult};
