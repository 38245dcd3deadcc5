//! Pins the call surface `benchmark/src/api.rs` depends on.
//!
//! `benchmark/` is its own workspace, so `cargo test` at the root cannot
//! see a deletion or signature change that breaks it. Each workspace
//! function `api.rs` names is coerced here to the `fn` type `api.rs` uses
//! it at, through the same `megablocks` facade paths — compile-only, so a
//! facade change that would break the benchmark fails tier-1 instead.

#![allow(
    clippy::type_complexity,
    reason = "the spelled-out `fn` types are the content of this file; an alias would hide \
              the signature the benchmark calls"
)]

use std::time::Instant;

use megablocks::core::{
    padded_gather, padded_gather_backward, padded_scatter, padded_scatter_backward, DenseFfn,
    DmoeCache, DmoeOutput, DroplessMoe, DroppingMoe, DroppingMoeCache, DroppingMoeOutput, FfnCache,
    MoeConfig, Param, PermuteInfo, Router, Routing,
};
use megablocks::data::{Batch, PileConfig, SyntheticPile, TokenDataset};
use megablocks::exec::{self, Deadline, ExecError, LaunchPlan};
use megablocks::serve::{Engine, EngineStats, Response, ResponseHandle, ServeConfig, ServeError};
use megablocks::sparse::{ops, BlockSize, BlockSparseMatrix, SparseError, Topology};
use megablocks::telemetry::json::Json;
use megablocks::tensor::ops::LayerNormCache;
use megablocks::tensor::{self, init, Matrix};
use megablocks::transformer::{
    clip_grad_norm, Adam, AdamConfig, Attention, AttentionCache, Block, BlockCache, DecodeState,
    EvalResult, FfnKind, PendingStep, StepStats, TrainLog, Trainer, TrainerConfig,
    TransformerConfig, TransformerLm,
};
use rand::rngs::StdRng;

type Sparse<T> = Result<T, SparseError>;

#[test]
fn exec_surface() {
    let _: fn(usize) -> bool = exec::configure_threads;
    let _: fn() -> usize = exec::parallelism;
    let _: fn() -> exec::WorkspaceStats = exec::workspace::stats;
    let _ = |s: exec::WorkspaceStats| -> (u64, u64) { (s.hits, s.misses) };
    let _: fn(Instant) -> Deadline = Deadline::at;
    let _ = |data: &mut [f32]| -> Result<(), ExecError> {
        let body = |_band: &mut [f32], _first: usize| {};
        LaunchPlan::over_items("surface", data, 1, 1, &body).try_launch()
    };
}

#[test]
fn data_and_tensor_surface() {
    let _: fn() -> PileConfig = PileConfig::tiny;
    let _: fn() -> PileConfig = PileConfig::repro;
    let _: fn(&PileConfig, u64) -> SyntheticPile = SyntheticPile::generate;
    let _: fn(&SyntheticPile, f64) -> (TokenDataset, TokenDataset) = SyntheticPile::split;
    let _: fn(&TokenDataset, usize, usize, &mut StdRng) -> Batch = TokenDataset::sample_batch;
    let _: fn(&TokenDataset) -> &[u32] = TokenDataset::tokens;
    let _ = |b: Batch| -> (Vec<usize>, Vec<usize>, usize) { (b.inputs, b.targets, b.batch_size) };

    let _: fn(u64) -> StdRng = init::seeded_rng;
    let _: fn(usize, usize, f32, &mut StdRng) -> Matrix = init::normal;
    let _: fn(usize, usize) -> Matrix = Matrix::zeros;
    let _: fn(&Matrix, &Matrix) -> Matrix = tensor::matmul;
    let _: fn(&Matrix, &Matrix) -> Matrix = tensor::matmul_nt;
    let _: fn(&Matrix, &[f32], &[f32], f32) -> (Matrix, LayerNormCache) = tensor::ops::layer_norm;
    let _: fn(&Matrix, &Matrix, &[f32], &LayerNormCache) -> (Matrix, Vec<f32>, Vec<f32>) =
        tensor::ops::layer_norm_backward;
    let _: fn(&Matrix) -> Matrix = tensor::ops::softmax_rows;
    let _: fn(&Matrix, &[usize], Option<usize>) -> (f32, Matrix) = tensor::ops::cross_entropy;
    let _: fn(&Matrix) -> Matrix = tensor::ops::gelu;
    // Not called by `api.rs` yet: the name a multiversioned calibration
    // probe in `benchmark/` would report beside `calib.peak_gflops`.
    let _: fn() -> &'static str = tensor::tiled_variant;
}

#[test]
fn sparse_surface() {
    let _: fn(usize) -> Sparse<BlockSize> = BlockSize::new;
    let _: fn(&[usize], usize, BlockSize) -> Sparse<Topology> = Topology::for_moe;
    let _: fn(&Matrix, &Matrix, &Topology) -> Sparse<BlockSparseMatrix> = ops::try_sdd;
    let _: fn(&Matrix, &Matrix, &Topology) -> Sparse<BlockSparseMatrix> = ops::try_sdd_t;
    let _: fn(&BlockSparseMatrix, &Matrix) -> Sparse<Matrix> = ops::try_dsd;
    let _: fn(&BlockSparseMatrix, &Matrix) -> Sparse<Matrix> = ops::try_dsd_t;
    let _: fn(&BlockSparseMatrix, &Matrix) -> Sparse<Matrix> = ops::try_dst_d;
    let _: fn(&Matrix, &BlockSparseMatrix) -> Sparse<Matrix> = ops::try_ddt_s;
}

#[test]
fn core_surface() {
    let _: fn(&Router, &Matrix) -> Routing = Router::forward;
    let _: fn(&mut Router, &Matrix, &Routing, &[f32], Option<&Matrix>) -> Matrix = Router::backward;
    let _: fn(&Routing, usize, BlockSize) -> PermuteInfo = PermuteInfo::new;
    let _: fn(&Matrix, &PermuteInfo) -> Matrix = padded_gather;
    let _: fn(&Matrix, &PermuteInfo) -> Matrix = padded_gather_backward;
    let _: fn(&Matrix, &PermuteInfo, &[f32]) -> Matrix = padded_scatter;
    let _: fn(&Matrix, &Matrix, &PermuteInfo, &[f32]) -> (Matrix, Vec<f32>) =
        padded_scatter_backward;
    // What `benchmark/src/replay.rs` reads of the values it gets back.
    let _: fn(&PermuteInfo) -> &[usize] = PermuteInfo::padded_tokens_per_expert;
    let _: fn(&PermuteInfo) -> usize = PermuteInfo::padded_rows;
    let _: fn(&PermuteInfo) -> usize = PermuteInfo::padding_rows;
    let _: fn(&PermuteInfo) -> usize = PermuteInfo::num_assignments;
    let _ = |r: Routing| -> Vec<f32> { r.weights };
    let _ = |o: DmoeOutput| -> DmoeCache { o.cache };
    let _ =
        |o: DroppingMoeOutput| -> (DroppingMoeCache, usize) { (o.cache, o.stats.dropped_tokens) };

    let _: fn(usize, usize, usize) -> MoeConfig = MoeConfig::new;
    let _: fn(MoeConfig, usize) -> MoeConfig = MoeConfig::with_block_size;
    let _: fn(MoeConfig, &mut StdRng) -> DroplessMoe = DroplessMoe::new;
    let _: fn(&DroplessMoe) -> &Router = DroplessMoe::router;
    let _: fn(&DroplessMoe) -> &Param = DroplessMoe::w1;
    let _: fn(&DroplessMoe) -> &Param = DroplessMoe::w2;
    let _: fn(&Param) -> &Matrix = Param::value;
    let _: fn(&DroplessMoe, &Matrix) -> Sparse<DmoeOutput> = DroplessMoe::try_forward;
    let _: fn(&mut DroplessMoe, &DmoeCache, &Matrix) -> Matrix = DroplessMoe::backward;
    let _: fn(&DroplessMoe, &Matrix) -> Sparse<Matrix> = DroplessMoe::infer;

    let _: fn(usize, usize, &mut StdRng) -> DenseFfn = DenseFfn::new;
    let _: fn(&DenseFfn, &Matrix) -> (Matrix, FfnCache) = DenseFfn::forward;
    let _: fn(&mut DenseFfn, &FfnCache, &Matrix) -> Matrix = DenseFfn::backward;
    let _: fn(MoeConfig, &mut StdRng) -> DroppingMoe = DroppingMoe::new;
    let _: fn(&DroppingMoe, &Matrix) -> DroppingMoeOutput = DroppingMoe::forward;
    let _: fn(&mut DroppingMoe, &DroppingMoeCache, &Matrix) -> Matrix = DroppingMoe::backward;
}

#[test]
fn transformer_surface() {
    let _ = |moe: Option<MoeConfig>| TransformerConfig {
        vocab_size: 0,
        hidden_size: 0,
        num_layers: 0,
        num_heads: 0,
        seq_len: 0,
        ffn_hidden_size: 0,
        ffn: moe.map_or(FfnKind::Dense, FfnKind::Dropless),
    };
    let _: fn(TransformerConfig, &mut StdRng) -> TransformerLm = TransformerLm::new;
    let _: fn(&TransformerLm) -> &TransformerConfig = TransformerLm::config;
    let _: fn(&mut TransformerLm) -> Vec<&mut Param> = TransformerLm::params_mut;
    let _: fn(&mut TransformerLm, &[usize], &[usize], usize) -> StepStats =
        TransformerLm::train_step;
    let _ = |s: StepStats| -> Vec<f32> { s.moe_stats.iter().map(|m| m.padding_overhead).collect() };
    let _: fn(&TransformerLm, &[usize], &[usize], usize) -> f32 = TransformerLm::eval_loss;
    let _: fn(&TransformerLm, &[usize], usize, Option<f32>, &mut StdRng) -> Vec<usize> =
        TransformerLm::generate;
    let _: fn(&TransformerLm, &[usize], usize) -> Matrix = TransformerLm::next_token_logits;
    let _: fn(&TransformerConfig) -> DecodeState = DecodeState::new;
    let _: fn(&TransformerLm, &mut DecodeState, &[usize]) -> Matrix = TransformerLm::decode;

    let _ = |steps: usize| TrainerConfig {
        batch_size: 1,
        micro_batch_size: 1,
        seq_len: 1,
        seed: 0,
        ..TrainerConfig::small(steps)
    };
    let _: fn(TransformerLm, TrainerConfig) -> Trainer = Trainer::new;
    let _: fn(&mut Trainer, &TokenDataset) -> TrainLog = Trainer::train_step;
    let _: fn(&mut Trainer, &TokenDataset) -> PendingStep = Trainer::accumulate_step;
    let _: fn(&mut Trainer, PendingStep) -> TrainLog = Trainer::apply_step;
    let _: fn(&Trainer) -> usize = Trainer::step_count;
    let _: fn(&Trainer, &TokenDataset, usize) -> EvalResult = Trainer::evaluate;
    let _ = |r: EvalResult| -> f32 { r.loss };
    let _: fn(&mut Trainer) -> &mut TransformerLm = Trainer::model_mut;

    let _: fn(&mut [&mut Param], f32) -> f32 = clip_grad_norm;
    let _: fn(AdamConfig) -> Adam = Adam::new;
    let _: fn() -> AdamConfig = AdamConfig::default;
    let _: fn(&mut Adam, &mut [&mut Param], f32) = Adam::step;

    let _: fn(usize, usize, &mut StdRng) -> Attention = Attention::new;
    let _: fn(&Attention, &Matrix, usize, usize) -> (Matrix, AttentionCache) = Attention::forward;
    let _: fn(&mut Attention, &AttentionCache, &Matrix) -> Matrix = Attention::backward;
    let _: fn(usize, usize, usize, &FfnKind, &mut StdRng) -> Block = Block::new;
    let _: fn(&Block, &Matrix, usize, usize) -> (Matrix, BlockCache) = Block::forward;
    let _: fn(&mut Block, &BlockCache, &Matrix) -> Matrix = Block::backward;
}

#[test]
fn serve_and_telemetry_surface() {
    let _: fn() -> ServeConfig = ServeConfig::default;
    let _: fn(DroplessMoe, ServeConfig) -> Engine = Engine::new;
    let _: fn(&Engine, Matrix, Option<Deadline>) -> Result<ResponseHandle, ServeError> =
        Engine::submit;
    let _ = |e: ServeError| matches!(e, ServeError::Overloaded { .. });
    let _: fn(ResponseHandle) -> Result<Response, ServeError> = ResponseHandle::wait;
    let _: fn(&Engine) -> EngineStats = Engine::stats;
    let _: fn(&Engine) -> &DroplessMoe = Engine::layer;
    let _: fn(&str) -> Result<Json, String> = Json::parse;
}
