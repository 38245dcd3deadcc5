//! The one module that calls into the workspace.
//!
//! Every operation the benchmark times or checks goes through a function
//! here, and every function here goes through the `megablocks` facade and
//! picks the plain fallible entry point where one exists. The list below
//! is therefore the list of workspace functions the benchmark depends on:
//! when the entry-point surface is collapsed (ROADMAP item 2) this is the
//! only benchmark file that changes. Other modules use the re-exported
//! types for plain data access (`rows()`, `as_slice()`, `recycle()`,
//! public fields) and nothing else.
//!
//! Sections are named after the crates, which are the benchmark's layers.

use std::time::Instant;

use megablocks::core::{
    padded_gather, padded_gather_backward, padded_scatter, padded_scatter_backward,
};
use megablocks::data::{PileConfig, SyntheticPile};
use megablocks::exec::{self, Deadline, LaunchPlan};
use megablocks::serve::{ServeConfig, ServeError};
use megablocks::sparse::{ops, BlockSize};
use megablocks::tensor::{self, init};
use megablocks::transformer::{clip_grad_norm, AdamConfig, FfnKind, TrainerConfig};

pub use megablocks::core::{
    DenseFfn, DmoeCache, DmoeOutput, DroplessMoe, DroppingMoe, DroppingMoeCache, DroppingMoeOutput,
    FfnCache, MoeConfig, PermuteInfo, Router, Routing,
};
pub use megablocks::data::{Batch, TokenDataset};
pub use megablocks::serve::{Engine, EngineStats, Response, ResponseHandle};
pub use megablocks::sparse::{BlockSparseMatrix, Topology};
pub use megablocks::telemetry::json::Json;
pub use megablocks::tensor::Matrix;
pub use megablocks::transformer::{
    Adam, Attention, AttentionCache, Block, BlockCache, PendingStep, TrainLog, Trainer,
    TransformerConfig, TransformerLm,
};
pub use rand::rngs::StdRng;

/// A failure of a fallible entry point, rendered.
pub type Fallible<T> = Result<T, String>;

fn rendered<T, E: std::fmt::Display>(r: Result<T, E>) -> Fallible<T> {
    r.map_err(|e| e.to_string())
}

/// Shape of one MoE layer (always top-1, as in the paper's Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoeShape {
    /// Model dimension.
    pub hidden: usize,
    /// Hidden size of each expert MLP.
    pub ffn: usize,
    /// Expert count.
    pub experts: usize,
    /// Sparsity block size.
    pub block: usize,
}

/// Shape of the language model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LmShape {
    /// Vocabulary size (must match the corpus).
    pub vocab: usize,
    /// Model dimension.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Transformer blocks.
    pub layers: usize,
    /// Dense-equivalent FFN hidden size.
    pub ffn: usize,
    /// Maximum sequence length.
    pub seq: usize,
    /// `Some` for a dMoE model, `None` for the dense baseline.
    pub moe: Option<MoeShape>,
}

/// The `MoeConfig` of a shape.
fn moe_config(shape: MoeShape) -> MoeConfig {
    MoeConfig::new(shape.hidden, shape.ffn, shape.experts).with_block_size(shape.block)
}

// --- exec ----------------------------------------------------------------

/// Fixes the exec runtime's thread count; `false` if it was already
/// resolved.
pub fn configure_threads(threads: usize) -> bool {
    exec::configure_threads(threads)
}

/// Launches a two-band plan whose bands do nothing: the fixed cost of one
/// pooled launch.
pub fn empty_launch() -> Fallible<()> {
    let mut data = [0.0f32; 2];
    let body = |_band: &mut [f32], _first: usize| {};
    rendered(LaunchPlan::over_items("benchmark.empty", &mut data, 1, 1, &body).try_launch())
}

/// The exec runtime's resolved thread count.
pub fn threads() -> usize {
    exec::parallelism()
}

/// `(hits, misses)` of the calling thread's workspace arena.
pub fn workspace_counts() -> (u64, u64) {
    let stats = exec::workspace::stats();
    (stats.hits, stats.misses)
}

// --- data ----------------------------------------------------------------

/// The synthetic corpus for `seed`, split 90/10 into train and validation.
/// `toy` selects the laptop-scale configuration (vocab 256) used by
/// `--check`; otherwise `PileConfig::repro()` (vocab 512).
pub fn corpus(toy: bool, seed: u64) -> (TokenDataset, TokenDataset) {
    let cfg = if toy {
        PileConfig::tiny()
    } else {
        PileConfig::repro()
    };
    SyntheticPile::generate(&cfg, seed).split(0.9)
}

/// One random training batch.
pub fn sample_batch(ds: &TokenDataset, batch: usize, seq: usize, rng: &mut StdRng) -> Batch {
    ds.sample_batch(batch, seq, rng)
}

/// The raw token stream of a dataset.
pub fn corpus_tokens(ds: &TokenDataset) -> &[u32] {
    ds.tokens()
}

// --- tensor --------------------------------------------------------------

/// A seeded generator.
pub fn rng(seed: u64) -> StdRng {
    init::seeded_rng(seed)
}

/// A `rows x cols` matrix of N(0, std²) samples.
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut StdRng) -> Matrix {
    init::normal(rows, cols, std, rng)
}

/// A zero matrix.
pub fn zeros(rows: usize, cols: usize) -> Matrix {
    Matrix::zeros(rows, cols)
}

/// `a * b`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    tensor::matmul(a, b)
}

/// `a * b^T` (the tied LM head).
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    tensor::matmul_nt(a, b)
}

/// Layer norm forward then backward with unit gain, returning `dx`.
pub fn layer_norm_fwd_bwd(x: &Matrix, dy: &Matrix) -> Matrix {
    let gamma = vec![1.0f32; x.cols()];
    let beta = vec![0.0f32; x.cols()];
    let (_y, cache) = tensor::ops::layer_norm(x, &gamma, &beta, 1e-5);
    tensor::ops::layer_norm_backward(x, dy, &gamma, &cache).0
}

/// Row-wise softmax.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    tensor::ops::softmax_rows(x)
}

/// Mean cross-entropy and its logits gradient.
pub fn cross_entropy(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
    tensor::ops::cross_entropy(logits, targets, None)
}

/// Elementwise GeLU.
pub fn gelu(x: &Matrix) -> Matrix {
    tensor::ops::gelu(x)
}

// --- sparse --------------------------------------------------------------

/// The block-diagonal dMoE topology for already padded expert counts.
pub fn topology_for_moe(padded_tokens_per_expert: &[usize], shape: MoeShape) -> Fallible<Topology> {
    let block = rendered(BlockSize::new(shape.block))?;
    rendered(Topology::for_moe(
        padded_tokens_per_expert,
        shape.ffn,
        block,
    ))
}

/// SDD: `a * b` on the nonzero blocks of `topo` (forward, first layer).
pub fn sdd(a: &Matrix, b: &Matrix, topo: &Topology) -> Fallible<BlockSparseMatrix> {
    rendered(ops::try_sdd(a, b, topo))
}

/// DSD: `s * d` (forward, second layer).
pub fn dsd(s: &BlockSparseMatrix, d: &Matrix) -> Fallible<Matrix> {
    rendered(ops::try_dsd(s, d))
}

/// SDD^T: `a * b^T` on `topo` (second-layer data gradient).
pub fn sdd_t(a: &Matrix, b: &Matrix, topo: &Topology) -> Fallible<BlockSparseMatrix> {
    rendered(ops::try_sdd_t(a, b, topo))
}

/// DSD^T: `s * d^T` (first-layer data gradient).
pub fn dsd_t(s: &BlockSparseMatrix, d: &Matrix) -> Fallible<Matrix> {
    rendered(ops::try_dsd_t(s, d))
}

/// DS^TD: `s^T * d` (second-layer weight gradient).
pub fn dst_d(s: &BlockSparseMatrix, d: &Matrix) -> Fallible<Matrix> {
    rendered(ops::try_dst_d(s, d))
}

/// DD^TS: `d^T * s` (first-layer weight gradient).
pub fn ddt_s(d: &Matrix, s: &BlockSparseMatrix) -> Fallible<Matrix> {
    rendered(ops::try_ddt_s(d, s))
}

// --- core ----------------------------------------------------------------

/// Routes tokens to experts.
pub fn route(router: &Router, x: &Matrix) -> Routing {
    router.forward(x)
}

/// Router backward for per-assignment confidence gradients.
pub fn route_backward(
    router: &mut Router,
    x: &Matrix,
    routing: &Routing,
    d_weights: &[f32],
) -> Matrix {
    router.backward(x, routing, d_weights, None)
}

/// Permutation metadata (expert grouping and block padding) of a routing.
pub fn permute_info(routing: &Routing, shape: MoeShape) -> Fallible<PermuteInfo> {
    let block = rendered(BlockSize::new(shape.block))?;
    Ok(PermuteInfo::new(routing, shape.experts, block))
}

/// Tokens into expert-grouped, block-padded order.
pub fn gather(x: &Matrix, info: &PermuteInfo) -> Matrix {
    padded_gather(x, info)
}

/// Backward of [`gather`].
pub fn gather_backward(d_gathered: &Matrix, info: &PermuteInfo) -> Matrix {
    padded_gather_backward(d_gathered, info)
}

/// Expert outputs back into token order, scaled by router confidence.
pub fn scatter(y: &Matrix, info: &PermuteInfo, weights: &[f32]) -> Matrix {
    padded_scatter(y, info, weights)
}

/// Backward of [`scatter`]: `(d_y, d_weights)`.
pub fn scatter_backward(
    d_out: &Matrix,
    y: &Matrix,
    info: &PermuteInfo,
    weights: &[f32],
) -> (Matrix, Vec<f32>) {
    padded_scatter_backward(d_out, y, info, weights)
}

/// A dropless-MoE layer.
pub fn new_dmoe(shape: MoeShape, rng: &mut StdRng) -> DroplessMoe {
    DroplessMoe::new(moe_config(shape), rng)
}

/// The layer's router.
pub fn dmoe_router(layer: &DroplessMoe) -> &Router {
    layer.router()
}

/// The layer's concatenated expert weights `(w1, w2)`.
pub fn dmoe_weights(layer: &DroplessMoe) -> (&Matrix, &Matrix) {
    (layer.w1().value(), layer.w2().value())
}

/// dMoE training forward (keeps a cache for backward).
pub fn dmoe_forward(layer: &DroplessMoe, x: &Matrix) -> Fallible<DmoeOutput> {
    rendered(layer.try_forward(x))
}

/// dMoE backward.
pub fn dmoe_backward(layer: &mut DroplessMoe, cache: &DmoeCache, d_out: &Matrix) -> Matrix {
    layer.backward(cache, d_out)
}

/// dMoE inference-only forward (keeps nothing).
pub fn dmoe_infer(layer: &DroplessMoe, x: &Matrix) -> Fallible<Matrix> {
    rendered(layer.infer(x))
}

/// The dense FFN baseline layer.
pub fn new_dense_ffn(hidden: usize, ffn: usize, rng: &mut StdRng) -> DenseFfn {
    DenseFfn::new(hidden, ffn, rng)
}

/// Dense FFN forward.
pub fn dense_ffn_forward(layer: &DenseFfn, x: &Matrix) -> (Matrix, FfnCache) {
    layer.forward(x)
}

/// Dense FFN backward.
pub fn dense_ffn_backward(layer: &mut DenseFfn, cache: &FfnCache, d_out: &Matrix) -> Matrix {
    layer.backward(cache, d_out)
}

/// The token-dropping baseline at capacity factor 1 (the `MoeConfig`
/// default).
pub fn new_dropping_cf1(shape: MoeShape, rng: &mut StdRng) -> DroppingMoe {
    DroppingMoe::new(moe_config(shape), rng)
}

/// Token-dropping MoE forward.
pub fn dropping_forward(layer: &DroppingMoe, x: &Matrix) -> DroppingMoeOutput {
    layer.forward(x)
}

/// Token-dropping MoE backward.
pub fn dropping_backward(
    layer: &mut DroppingMoe,
    cache: &DroppingMoeCache,
    d_out: &Matrix,
) -> Matrix {
    layer.backward(cache, d_out)
}

// --- transformer ---------------------------------------------------------

/// The `TransformerConfig` of a shape.
pub fn lm_config(shape: LmShape) -> TransformerConfig {
    TransformerConfig {
        vocab_size: shape.vocab,
        hidden_size: shape.hidden,
        num_layers: shape.layers,
        num_heads: shape.heads,
        seq_len: shape.seq,
        ffn_hidden_size: shape.ffn,
        ffn: match shape.moe {
            Some(moe) => FfnKind::Dropless(moe_config(moe)),
            None => FfnKind::Dense,
        },
    }
}

/// A freshly initialised language model.
pub fn new_lm(shape: LmShape, rng: &mut StdRng) -> TransformerLm {
    TransformerLm::new(lm_config(shape), rng)
}

/// A trainer over `lm` with `TrainerConfig::small` hyperparameters, the
/// batch geometry of the workload and no gradient accumulation.
pub fn new_trainer(lm: TransformerLm, batch: usize, seq: usize, seed: u64) -> Trainer {
    // The horizon only shapes the learning-rate schedule; runs are timed,
    // not step-counted, so it is a constant.
    const LR_HORIZON_STEPS: usize = 200;
    let cfg = TrainerConfig {
        batch_size: batch,
        micro_batch_size: batch,
        seq_len: seq,
        seed,
        ..TrainerConfig::small(LR_HORIZON_STEPS)
    };
    Trainer::new(lm, cfg)
}

/// One optimizer step.
pub fn train_step(trainer: &mut Trainer, train: &TokenDataset) -> TrainLog {
    trainer.train_step(train)
}

/// The forward/backward half of [`train_step`].
pub fn accumulate_step(trainer: &mut Trainer, train: &TokenDataset) -> PendingStep {
    trainer.accumulate_step(train)
}

/// The clip + optimizer half of [`train_step`].
pub fn apply_step(trainer: &mut Trainer, pending: PendingStep) -> TrainLog {
    trainer.apply_step(pending)
}

/// Optimizer steps the trainer has taken.
pub fn step_count(trainer: &Trainer) -> usize {
    trainer.step_count()
}

/// Mean validation cross-entropy over the first `batches` batches.
pub fn evaluate(trainer: &Trainer, valid: &TokenDataset, batches: usize) -> f32 {
    trainer.evaluate(valid, batches).loss
}

/// The model a trainer wraps.
pub fn trainer_model_mut(trainer: &mut Trainer) -> &mut TransformerLm {
    trainer.model_mut()
}

/// The longest window a model accepts.
pub fn lm_max_seq(lm: &TransformerLm) -> usize {
    lm.config().seq_len
}

/// One forward+backward pass; gradients accumulate on the model. Returns
/// the padding rows per real row, averaged over the MoE layers (`None` for
/// a dense model).
pub fn lm_forward_backward(lm: &mut TransformerLm, batch: &Batch) -> Option<f64> {
    let stats = lm.train_step(&batch.inputs, &batch.targets, batch.batch_size);
    let layers = stats.moe_stats.len();
    let overhead: f64 = stats
        .moe_stats
        .iter()
        .map(|s| f64::from(s.padding_overhead))
        .sum();
    (layers > 0).then(|| overhead / layers as f64)
}

/// Forward-only loss of one batch.
pub fn lm_eval_loss(lm: &TransformerLm, batch: &Batch) -> f32 {
    lm.eval_loss(&batch.inputs, &batch.targets, batch.batch_size)
}

/// Global-norm gradient clip at 1.0; returns the pre-clip norm.
pub fn clip_grads(lm: &mut TransformerLm) -> f32 {
    clip_grad_norm(&mut lm.params_mut(), 1.0)
}

/// An Adam optimizer with default hyperparameters.
pub fn new_adam() -> Adam {
    Adam::new(AdamConfig::default())
}

/// One Adam update over every parameter of `lm` (also zeroes gradients).
pub fn adam_step(adam: &mut Adam, lm: &mut TransformerLm, lr: f32) {
    adam.step(&mut lm.params_mut(), lr);
}

/// Greedy generation of `new_tokens` tokens.
pub fn generate(lm: &TransformerLm, prompt: &[usize], new_tokens: usize) -> Vec<usize> {
    // Greedy decoding never draws from the generator.
    lm.generate(prompt, new_tokens, None, &mut rng(0))
}

/// Logits of the token following `window`.
pub fn next_token_logits(lm: &TransformerLm, window: &[usize]) -> Matrix {
    lm.next_token_logits(window, 1)
}

/// A standalone attention module.
pub fn new_attention(shape: LmShape, rng: &mut StdRng) -> Attention {
    Attention::new(shape.hidden, shape.heads, rng)
}

/// Attention forward.
pub fn attention_forward(
    attn: &Attention,
    x: &Matrix,
    batch: usize,
    seq: usize,
) -> (Matrix, AttentionCache) {
    attn.forward(x, batch, seq)
}

/// Attention backward.
pub fn attention_backward(attn: &mut Attention, cache: &AttentionCache, d_out: &Matrix) -> Matrix {
    attn.backward(cache, d_out)
}

/// A standalone Transformer block with the shape's FFN flavour.
pub fn new_block(shape: LmShape, rng: &mut StdRng) -> Block {
    let cfg = lm_config(shape);
    Block::new(
        cfg.hidden_size,
        cfg.num_heads,
        cfg.ffn_hidden_size,
        &cfg.ffn,
        rng,
    )
}

/// Block forward.
pub fn block_forward(block: &Block, x: &Matrix, batch: usize, seq: usize) -> (Matrix, BlockCache) {
    block.forward(x, batch, seq)
}

/// Block backward.
pub fn block_backward(block: &mut Block, cache: &BlockCache, d_out: &Matrix) -> Matrix {
    block.backward(cache, d_out)
}

// --- serve ---------------------------------------------------------------

/// A serving engine over `layer` with the product defaults.
pub fn new_engine(layer: DroplessMoe) -> Engine {
    Engine::new(layer, ServeConfig::default())
}

/// Why the engine did not accept a request.
#[derive(Debug)]
pub enum Refusal {
    /// The admission queue was full; the caller may try again.
    Overloaded,
    /// Anything else, rendered.
    Failed(String),
}

/// Submits one request, optionally with an absolute deadline.
pub fn submit(
    engine: &Engine,
    tokens: Matrix,
    deadline: Option<Instant>,
) -> Result<ResponseHandle, Refusal> {
    engine
        .submit(tokens, deadline.map(Deadline::at))
        .map_err(|e| match e {
            ServeError::Overloaded { .. } => Refusal::Overloaded,
            other => Refusal::Failed(other.to_string()),
        })
}

/// Blocks until a request resolves.
pub fn wait(handle: ResponseHandle) -> Fallible<Response> {
    rendered(handle.wait())
}

/// The engine's lifetime counters.
pub fn engine_stats(engine: &Engine) -> EngineStats {
    engine.stats()
}

/// The layer an engine serves.
pub fn engine_layer(engine: &Engine) -> &DroplessMoe {
    engine.layer()
}

// --- telemetry -----------------------------------------------------------

/// Parses one JSON document (the workspace's own strict parser).
pub fn parse_json(src: &str) -> Fallible<Json> {
    Json::parse(src)
}
