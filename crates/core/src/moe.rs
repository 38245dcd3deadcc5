//! The one MoE layer (Figure 6) over a placement policy.
//!
//! A capacity-padded batched matmul is the same block-diagonal product as
//! the dMoE's, only with equal blocks (Figure 3), and expert-choice routing
//! (§7) is one more rule for which tokens go to which expert. So the MoE
//! layers differ in one decision only — where each token goes — and
//! [`MoeLayer`] takes it from its [`Placement`]:
//!
//! * [`Dropless`] — the paper's dMoE ([`DroplessMoe`]): every assignment is
//!   kept, each expert padded to the next block.
//! * [`Dropping`] — the GShard/Switch/Tutel baseline ([`DroppingMoe`],
//!   §2–3): experts fill to a capacity in token order and the rest drop.
//! * [`ExpertChoice`] — expert-choice routing (Zhou et al. 2022,
//!   [`ExpertChoiceMoe`]): each expert picks its most probable tokens.
//!
//! The forward pass follows Figure 6: (1) route tokens to experts; (2)
//! place them — the permutation and the block-sparse topology; (3)–(5)
//! the crate's one expert pipeline ([`crate::experts`]): permute, SDD →
//! GeLU → DSD, un-permute and scale by the router confidence.

use std::borrow::Cow;
use std::marker::PhantomData;

use megablocks_exec::fault::{self, sites};
use megablocks_sparse::{BlockSparseMatrix, SparseError, Topology};
use megablocks_telemetry as telemetry;
use megablocks_tensor::{init, Matrix};
use rand::rngs::StdRng;

use crate::experts::{self, ExpertCache, Retain};
use crate::router::top_k_indices;
use crate::{
    load_balancing_loss, CapacityFactor, MoeConfig, MoeStats, Param, PermuteInfo, Router, Routing,
};

/// The paper's dropless MoE layer (dMoE).
pub type DroplessMoe = MoeLayer<Dropless>;
/// The token-dropping MoE baseline.
pub type DroppingMoe = MoeLayer<Dropping>;
/// A block-sparse MoE layer with expert-choice routing.
pub type ExpertChoiceMoe = MoeLayer<ExpertChoice>;

/// Cache to pass to [`DroplessMoe::backward`].
pub type DmoeCache = MoeCache;
/// Result of [`DroplessMoe::forward`] (dropping is always zero here).
pub type DmoeOutput = MoeOutput;
/// Cache to pass to [`DroppingMoe::backward`].
pub type DroppingMoeCache = MoeCache;
/// Result of [`DroppingMoe::forward`].
pub type DroppingMoeOutput = MoeOutput;

/// The dMoE's placement: every assignment is kept, and no expert batch is
/// padded beyond the next block boundary (Figure 3C).
#[derive(Debug, Clone, Copy)]
pub struct Dropless;

/// The token-dropping placement (GShard/Switch/Tutel, §2–3): every expert
/// gets a buffer of `expert_capacity` rows, assignments beyond it are
/// *dropped* (the token survives only through the residual connection),
/// and under-full buffers are *padded*. The batched matmul of Figure 3A is
/// run as what it is, a block-diagonal product with equal blocks (3B);
/// capacities are rounded up to a whole block with zero rows, and
/// [`MoeStats`] keeps counting capacity slots.
///
/// [`CapacityFactor::Dynamic`] reproduces Tutel's no-drop mode: capacity is
/// set per step to the maximum expert load, trading dropping for
/// worst-case padding — the memory-hungry behaviour that shrinks Tutel's
/// feasible micro-batch sizes in Table 3.
#[derive(Debug, Clone, Copy)]
pub struct Dropping;

/// Expert-choice routing (Zhou et al. 2022), the related-work router of
/// §7: instead of each token picking its top-k experts, each *expert*
/// picks its `ceil(num_tokens * top_k / num_experts)` most probable
/// tokens (`top_k` plays the role of the average number of experts per
/// token). Load is balanced by construction, but a token may be picked by
/// no expert (the residual carries it; [`MoeStats::dropped_tokens`] counts
/// such tokens) or by several. Every (token, expert) pair is an
/// assignment — `top_k = num_experts`, assignment `t * num_experts + e`
/// weighted by `probs[(t, e)]` — and the pairs no expert picked have no
/// row. There is no load-balancing loss.
#[derive(Debug, Clone, Copy)]
pub struct ExpertChoice;

/// Where each token goes: the one decision in which the MoE layers
/// differ. Sealed — implemented by [`Dropless`], [`Dropping`] and
/// [`ExpertChoice`] only.
pub trait Placement: sealed::Place {}

impl Placement for Dropless {}
impl Placement for Dropping {}
impl Placement for ExpertChoice {}

mod sealed {
    use super::*;

    /// One routing decision, where its assignments go, and the rows the
    /// layer accounts for ([`MoeStats::padding_rows`] is those minus the
    /// kept assignments).
    pub type Placed = (Routing, PermuteInfo, Topology, usize);

    pub trait Place {
        /// Span names of the forward, the inference-only forward and the
        /// backward.
        const SPANS: [&'static str; 3];
        /// Whether the router trains with the load-balancing loss (§2.2).
        const LOAD_BALANCED: bool = true;

        /// Steps (1) and (2) of Figure 6 for the tokens `x`.
        fn place(cfg: &MoeConfig, router: &Router, x: &Matrix) -> Result<Placed, SparseError>;

        /// [`MoeStats::dropped_tokens`] and [`MoeStats::tokens_per_expert`]:
        /// for token choice, the dropped assignments and each expert's
        /// demand before dropping.
        fn demand(permute: &PermuteInfo) -> (usize, Vec<usize>) {
            let kept: usize = permute.kept_per_expert().iter().sum();
            let dropped = permute.num_assignments() - kept;
            (dropped, permute.tokens_per_expert().to_vec())
        }
    }
}
use sealed::{Place, Placed};

impl Place for Dropless {
    const SPANS: [&'static str; 3] = ["moe.dmoe.forward", "moe.dmoe.infer", "moe.dmoe.backward"];

    fn place(cfg: &MoeConfig, router: &Router, x: &Matrix) -> Result<Placed, SparseError> {
        let routing = router.forward(x);
        let permute = PermuteInfo::new(&routing, cfg.num_experts, cfg.block_size);
        let topology = Topology::for_moe(
            permute.kept_per_expert(),
            cfg.ffn_hidden_size,
            cfg.block_size,
        )?;
        let slots = permute.padded_rows();
        Ok((routing, permute, topology, slots))
    }
}

impl Place for Dropping {
    const SPANS: [&'static str; 3] = [
        "moe.dropping.forward",
        "moe.dropping.infer",
        "moe.dropping.backward",
    ];

    fn place(cfg: &MoeConfig, router: &Router, x: &Matrix) -> Result<Placed, SparseError> {
        let routing = router.forward(x);
        // Tutel's dynamic capacity is the largest realized load.
        let capacity = match cfg.capacity {
            CapacityFactor::Fixed(f) => cfg.expert_capacity(x.rows(), f),
            CapacityFactor::Dynamic => routing.tokens_per_expert().into_iter().max().unwrap_or(0),
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
        uniform(cfg, routing, &kept, capacity, cfg.num_experts * capacity)
    }
}

impl Place for ExpertChoice {
    const SPANS: [&'static str; 3] = [
        "moe.expert_choice.forward",
        "moe.expert_choice.infer",
        "moe.expert_choice.backward",
    ];
    const LOAD_BALANCED: bool = false;

    fn place(cfg: &MoeConfig, router: &Router, x: &Matrix) -> Result<Placed, SparseError> {
        let probs = router.probs(x);
        let (tokens, e) = probs.shape();
        let capacity = Self::capacity(cfg, tokens);
        let kept = select(&probs, capacity);
        let routing = Routing {
            expert_indices: (0..tokens * e).map(|a| a % e).collect(),
            weights: probs.as_slice().to_vec(),
            top_k: e,
            probs,
        };
        let slots = e * cfg.block_size.round_up(capacity);
        uniform(cfg, routing, &kept, capacity, slots)
    }

    /// The tokens no expert picked, and what each expert processed.
    fn demand(permute: &PermuteInfo) -> (usize, Vec<usize>) {
        let k = permute.top_k();
        let unpicked = (0..permute.num_tokens())
            .filter(|t| (t * k..(t + 1) * k).all(|a| permute.row_of(a).is_none()))
            .count();
        (unpicked, permute.kept_per_expert().to_vec())
    }
}

impl ExpertChoice {
    /// Expert capacity for `num_tokens` inputs:
    /// `ceil(num_tokens * top_k / num_experts)`, at least 1.
    fn capacity(cfg: &MoeConfig, num_tokens: usize) -> usize {
        (num_tokens * cfg.top_k).div_ceil(cfg.num_experts).max(1)
    }
}

/// Figure 3A as 3B: every expert owns `capacity` rows rounded up to a
/// block, and the assignments `kept` marks fill them in token order.
fn uniform(
    cfg: &MoeConfig,
    routing: Routing,
    kept: &[bool],
    capacity: usize,
    slots: usize,
) -> Result<Placed, SparseError> {
    let permute = PermuteInfo::with_uniform_rows(
        &routing.expert_indices,
        cfg.num_experts,
        routing.top_k,
        kept,
        cfg.block_size.round_up(capacity),
    );
    let topology = Topology::for_moe(
        permute.padded_tokens_per_expert(),
        cfg.ffn_hidden_size,
        cfg.block_size,
    )?
    .with_rows_valid(permute.rows_valid(cfg.block_size))?;
    Ok((routing, permute, topology, slots))
}

/// Which (token, expert) pairs are kept, row-major: each expert picks its
/// `capacity` most probable tokens.
fn select(probs: &Matrix, capacity: usize) -> Vec<bool> {
    let (num_tokens, e) = probs.shape();
    let mut kept = vec![false; num_tokens * e];
    for expert in 0..e {
        let column: Vec<f32> = (0..num_tokens).map(|t| probs[(t, expert)]).collect();
        for token in top_k_indices(&column, capacity) {
            kept[token * e + expert] = true;
        }
    }
    kept
}

/// Everything the backward pass needs from a forward invocation.
///
/// Holding the cache in a separate value (rather than layer state) keeps
/// the layer reentrant under gradient accumulation: each micro-batch owns
/// its cache.
#[derive(Debug, Clone)]
pub struct MoeCache {
    x: Matrix,
    routing: Routing,
    experts: ExpertCache,
    d_probs_aux: Option<Matrix>,
}

impl MoeCache {
    /// The expert activations the forward pass kept, before and after the
    /// GeLU, in the block layout of the pass's topology.
    pub fn activations(&self) -> (&BlockSparseMatrix, &BlockSparseMatrix) {
        (&self.experts.h_pre, &self.experts.h_act)
    }

    /// Where the forward pass put each assignment.
    pub fn permute(&self) -> &PermuteInfo {
        &self.experts.permute
    }
}

/// Result of an MoE layer's forward pass.
#[derive(Debug, Clone)]
pub struct MoeOutput {
    /// Layer output, `num_tokens x hidden_size`. A token with no kept
    /// assignment produces a zero row (its value re-enters through the
    /// residual connection).
    pub output: Matrix,
    /// Forward-pass statistics: dropped assignments and padding waste.
    pub stats: MoeStats,
    /// Cache to pass to the layer's `backward`.
    pub cache: MoeCache,
}

/// The layer output and, under [`Retain::ForBackward`], the statistics
/// and the cache.
type Pass = (Matrix, Option<(MoeStats, MoeCache)>);

impl MoeOutput {
    /// The result of a [`Retain::ForBackward`] pass.
    fn of((output, kept): Pass) -> Self {
        let (stats, cache) = kept.expect("a ForBackward pass keeps its cache");
        Self {
            output,
            stats,
            cache,
        }
    }
}

/// A Mixture-of-Experts layer: a router, and experts that are 2-layer
/// MLPs computed as block-sparse products, with placement policy `P`.
///
/// Expert weights are stored concatenated: `w1` is
/// `hidden_size x (num_experts * ffn_hidden_size)` and `w2` is the mirror
/// shape, exactly as in Figure 6 — expert `e` owns the column (resp. row)
/// slice `e * ffn_hidden_size ..`.
#[derive(Debug, Clone)]
pub struct MoeLayer<P> {
    cfg: MoeConfig,
    router: Router,
    w1: Param,
    w2: Param,
    placement: PhantomData<P>,
}

impl<P: Placement> MoeLayer<P> {
    /// Creates a layer with GPT-2-style initialization. For equal seeds
    /// every placement draws identical initial weights.
    ///
    /// # Panics
    ///
    /// Panics if `ffn_hidden_size` is not a multiple of the configured
    /// block size (required for whole-block expert columns, §5.2).
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
            placement: PhantomData,
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

    /// All trainable parameters (router, w1, w2), for the optimizer.
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

    /// Runs the forward pass on `x` (`num_tokens x hidden_size`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != hidden_size`, or on any error
    /// [`MoeLayer::try_forward`] returns.
    pub fn forward(&self, x: &Matrix) -> MoeOutput {
        self.forward_owned(x.pooled_copy())
    }

    /// [`MoeLayer::forward`] with `x` moved into the cache, not copied.
    #[doc(hidden)]
    pub fn forward_owned(&self, x: Matrix) -> MoeOutput {
        let pass = self.pass(Cow::Owned(x), Retain::ForBackward);
        MoeOutput::of(pass.unwrap_or_else(|e| panic!("{e}")))
    }

    /// Fallible form of [`MoeLayer::forward`].
    ///
    /// The whole pass — router, permutation, and every kernel launch —
    /// runs under the calling thread's ambient context
    /// ([`megablocks_exec::cancel::enter`]): it is checked before every
    /// launch, at its band boundaries, and inside the tiled microkernel's
    /// panel loop.
    ///
    /// # Errors
    ///
    /// Returns an error if the per-step topology cannot be built or a
    /// sparse kernel rejects its inputs.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != hidden_size`, and unwinds with an
    /// [`megablocks_exec::ExecError`] payload when the ambient context
    /// trips.
    pub fn try_forward(&self, x: &Matrix) -> Result<MoeOutput, SparseError> {
        let x = Cow::Owned(x.pooled_copy());
        Ok(MoeOutput::of(self.pass(x, Retain::ForBackward)?))
    }

    /// Inference-only forward pass.
    ///
    /// The same pipeline as [`MoeLayer::try_forward`] — same kernels, same
    /// accumulation order, bit-identical outputs — but it keeps nothing
    /// for a backward pass: no [`MoeCache`] is built, the input is never
    /// cloned, the GeLU runs in place on the SDD output blocks instead of
    /// into a second activation buffer, and every intermediate (gathered
    /// tokens, expert activations, expert outputs) goes back to the
    /// workspace arena once its consumers are done. A steady-state serving
    /// loop therefore allocates nothing per request beyond the returned
    /// output matrix. A serving engine bounds a batch by entering its
    /// deadline or cancel token with [`megablocks_exec::cancel::enter`]
    /// around the call; the pass then unwinds mid-kernel with an
    /// [`megablocks_exec::ExecError`] payload.
    ///
    /// # Errors
    ///
    /// Same as [`MoeLayer::try_forward`].
    ///
    /// # Panics
    ///
    /// Same as [`MoeLayer::try_forward`].
    pub fn infer(&self, x: &Matrix) -> Result<Matrix, SparseError> {
        Ok(self.pass(Cow::Borrowed(x), Retain::Nothing)?.0)
    }

    /// The one forward pass (Figure 6). Training and inference differ only
    /// in what they retain; a retained `x` is owned, and the cache keeps
    /// it (a borrowed one would be cloned).
    fn pass(&self, x: Cow<'_, Matrix>, retain: Retain) -> Result<Pass, SparseError> {
        let cfg = &self.cfg;
        assert_eq!(x.cols(), cfg.hidden_size, "input feature size mismatch");
        let [forward, infer, _] = P::SPANS;
        let _span = telemetry::span(match retain {
            Retain::ForBackward => forward,
            Retain::Nothing => infer,
        });

        // (1) Assign tokens to experts; (2) create the sparse matrix
        // topology; (3)-(5) permute the tokens to group by expert, compute
        // the expert layers, un-permute and scale by router confidence.
        let (routing, permute, topology, slots) = P::place(cfg, &self.router, &x)?;
        let (w1, w2) = (self.w1.value(), self.w2.value());
        let weights = &routing.weights;
        let (mut output, experts) =
            experts::forward(&x, w1, w2, &topology, permute, weights, retain)?;
        let Some(experts) = experts else {
            return Ok((output, None));
        };

        let permute = &experts.permute;
        let kept: usize = permute.kept_per_expert().iter().sum();
        let (dropped_tokens, tokens_per_expert) = P::demand(permute);
        let lb = P::LOAD_BALANCED.then(|| load_balancing_loss(&routing, cfg.load_balance_weight));
        let stats = MoeStats {
            dropped_tokens,
            padding_rows: slots - kept,
            tokens_per_expert,
            load_balancing_loss: lb.as_ref().map_or(0.0, |lb| lb.loss),
            padding_overhead: MoeStats::overhead(slots - kept, kept),
            expert_load: permute.kept_per_expert().to_vec(),
        };
        crate::record_moe_stats(&stats);
        // Chaos injection site: an entered FaultPlan may poison the layer
        // output with a NaN here, exercising the trainer's non-finite
        // detection + rollback path.
        fault::maybe_poison(&sites::KERNEL_NAN_POISON, output.as_mut_slice());
        let cache = MoeCache {
            x: x.into_owned(),
            routing,
            experts,
            d_probs_aux: lb.map(|lb| lb.d_probs),
        };
        Ok((output, Some((stats, cache))))
    }

    /// Runs the backward pass for one forward invocation.
    ///
    /// Accumulates parameter gradients — the expert weights, and the
    /// router through the confidence weights and the load-balancing loss —
    /// and returns the gradient with respect to the layer input. A dropped
    /// assignment's token receives gradient only through the router.
    ///
    /// # Panics
    ///
    /// Panics if `d_out` does not match the forward output shape.
    pub fn backward(&mut self, cache: &MoeCache, d_out: &Matrix) -> Matrix {
        let _span = telemetry::span(P::SPANS[2]);
        let (w1, w2) = (&mut self.w1, &mut self.w2);
        let weights = &cache.routing.weights;
        let (mut dx, d_weights) = experts::backward(w1, w2, &cache.experts, weights, d_out);
        let d_probs_aux = cache.d_probs_aux.as_ref();
        let dx_router = self
            .router
            .backward(&cache.x, &cache.routing, &d_weights, d_probs_aux);
        dx.add_assign(&dx_router);
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_exec as exec;
    use megablocks_tensor::init::seeded_rng;
    use megablocks_tensor::ops::gelu_scalar;

    fn cfg() -> MoeConfig {
        MoeConfig::new(6, 8, 3).with_block_size(4)
    }

    fn layer<P: Placement>(seed: u64) -> (MoeLayer<P>, StdRng) {
        let mut rng = seeded_rng(seed);
        let layer = MoeLayer::new(cfg(), &mut rng);
        (layer, rng)
    }

    /// `x`'s rows through expert `e` alone: `gelu(x_t · w1_e) · w2_e`.
    fn expert_mlp<P: Placement>(layer: &MoeLayer<P>, x: &Matrix, t: usize, e: usize) -> Vec<f32> {
        let ffn = layer.cfg.ffn_hidden_size;
        let (w1, w2) = (layer.w1.value(), layer.w2.value());
        let h: Vec<f32> = (0..ffn)
            .map(|j| {
                gelu_scalar(
                    (0..x.cols())
                        .map(|p| x[(t, p)] * w1[(p, e * ffn + j)])
                        .sum(),
                )
            })
            .collect();
        (0..x.cols())
            .map(|q| {
                h.iter()
                    .enumerate()
                    .map(|(j, hv)| hv * w2[(e * ffn + j, q)])
                    .sum()
            })
            .collect()
    }

    /// The (token, expert) pairs an expert-choice forward pass kept.
    fn picks(out: &MoeOutput) -> Vec<(usize, usize)> {
        let e = out.cache.routing.probs.cols();
        let permute = out.cache.permute();
        (0..permute.num_assignments())
            .filter(|&a| permute.row_of(a).is_some())
            .map(|a| (a / e, a % e))
            .collect()
    }

    #[test]
    fn forward_shapes_and_no_drops() {
        let (layer, mut rng) = layer::<Dropless>(1);
        let x = init::normal(10, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        assert_eq!(out.output.shape(), (10, 6));
        assert_eq!(out.stats.dropped_tokens, 0);
        assert_eq!(out.stats.tokens_per_expert.iter().sum::<usize>(), 10);
        assert!(out.stats.load_balancing_loss > 0.0);
        // Dropless: every assignment is processed, so load == assignments
        // and overhead is exactly the padding-to-data ratio.
        assert_eq!(out.stats.expert_load, out.stats.tokens_per_expert);
        let want_overhead = out.stats.padding_rows as f32 / 10.0;
        assert!((out.stats.padding_overhead - want_overhead).abs() < 1e-6);
        // Padding rounds each nonzero expert group to a multiple of 4.
        for (&t, &p) in out
            .stats
            .tokens_per_expert
            .iter()
            .zip(out.cache.permute().padded_tokens_per_expert())
        {
            assert_eq!(p, t.div_ceil(4) * 4);
        }
    }

    #[test]
    fn dmoe_matches_per_expert_dense_reference() {
        // Compute the same MoE densely: for each token, run its expert MLP
        // directly and scale by the router weight.
        let (layer, mut rng) = layer::<Dropless>(2);
        let x = init::normal(9, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        let routing = &out.cache.routing;
        for t in 0..9 {
            let (e, w) = (routing.expert_indices[t], routing.weights[t]);
            for (q, y) in expert_mlp(&layer, &x, t, e).into_iter().enumerate() {
                let (got, want) = (out.output[(t, q)], w * y);
                assert!(
                    (got - want).abs() < 1e-4,
                    "token {t} feature {q}: got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn top2_routing_sums_two_experts() {
        let mut rng = seeded_rng(5);
        let layer = DroplessMoe::new(cfg().with_top_k(2), &mut rng);
        let x = init::normal(5, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        assert_eq!(out.cache.routing.expert_indices.len(), 10);
        assert_eq!(out.output.shape(), (5, 6));
        // Total assignments = tokens * 2.
        assert_eq!(out.stats.tokens_per_expert.iter().sum::<usize>(), 10);
    }

    #[test]
    fn infer_is_bit_identical_to_forward() {
        // Same kernels, same accumulation order: the inference-only path
        // must reproduce the training forward exactly, not approximately.
        let (layer, mut rng) = layer::<Dropless>(7);
        let x = init::normal(11, 6, 1.0, &mut rng);
        let trained = layer.forward(&x);
        let inferred = layer.infer(&x).unwrap();
        assert_eq!(inferred.shape(), (11, 6));
        assert_eq!(
            inferred.as_slice(),
            trained.output.as_slice(),
            "infer diverged from forward"
        );
    }

    #[test]
    fn infer_returns_its_intermediates_to_the_workspace_on_drop() {
        let (layer, mut rng) = layer::<Dropless>(8);
        let x = init::normal(12, 6, 1.0, &mut rng);
        drop(layer.infer(&x).unwrap());
        let before = exec::workspace::stats();
        let _out = layer.infer(&x).unwrap();
        let after = exec::workspace::stats();
        assert!(
            after.hits > before.hits,
            "steady-state infer should reuse the arena: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn a_tripped_ambient_context_cancels_both_retention_modes() {
        let (layer, mut rng) = layer::<Dropless>(9);
        let x = init::normal(8, 6, 1.0, &mut rng);
        let token = exec::CancelToken::new();
        token.cancel();
        let cases = [
            (
                exec::Ctx::none().with_deadline(exec::Deadline::after(std::time::Duration::ZERO)),
                exec::ExecError::DeadlineExceeded { op: "gemm" },
            ),
            (
                exec::Ctx::none().with_token(&token),
                exec::ExecError::Cancelled { op: "gemm" },
            ),
        ];
        // The router's GEMM is the pass's first launch, so it is the one
        // that refuses the dead context.
        let unwound = |pass: &dyn Fn()| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(pass))
                .expect_err("a tripped context must unwind the pass");
            *payload
                .downcast::<exec::ExecError>()
                .expect("an ExecError payload")
        };
        for (ctx, want) in cases {
            let _scope = exec::cancel::enter(&ctx);
            assert_eq!(unwound(&|| drop(layer.try_forward(&x))), want);
            assert_eq!(unwound(&|| drop(layer.infer(&x))), want);
        }
        // Outside the scopes the layer runs again.
        assert!(layer.infer(&x).is_ok());
    }

    #[test]
    fn gradient_accumulation_is_additive() {
        let (mut layer, mut rng) = layer::<Dropless>(6);
        let x = init::normal(6, 6, 1.0, &mut rng);
        let d = Matrix::full(6, 6, 0.1);
        let out1 = layer.forward(&x);
        let _ = layer.backward(&out1.cache, &d);
        let g1 = layer.w1.grad().clone();
        let out2 = layer.forward(&x);
        let _ = layer.backward(&out2.cache, &d);
        let g2 = layer.w1.grad().clone();
        let mut doubled = g1.clone();
        doubled.scale(2.0);
        assert!(g2.approx_eq(&doubled, 1e-4));
    }

    fn dropping(capacity: CapacityFactor, seed: u64) -> (DroppingMoe, StdRng) {
        let mut rng = seeded_rng(seed);
        let layer = DroppingMoe::new(cfg().with_capacity(capacity), &mut rng);
        (layer, rng)
    }

    #[test]
    fn capacity_one_drops_overflow() {
        let (layer, mut rng) = dropping(CapacityFactor::Fixed(1.0), 1);
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
        let (layer, mut rng) = dropping(CapacityFactor::Dynamic, 2);
        let x = init::normal(25, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        assert_eq!(out.stats.dropped_tokens, 0);
        // Padding pads every expert to the max load.
        let max_load = *out.stats.tokens_per_expert.iter().max().unwrap();
        assert_eq!(out.stats.padding_rows, 3 * max_load - 25);
    }

    #[test]
    fn dropped_tokens_produce_zero_output_rows() {
        let (layer, mut rng) = dropping(CapacityFactor::Fixed(0.05), 3);
        // capacity = max(ceil(12/3*0.05),1) = 1: most tokens drop.
        let x = init::normal(12, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        assert!(out.stats.dropped_tokens >= 12 - 3);
        for a in 0..12 {
            if out.cache.permute().row_of(a).is_none() {
                assert!(out.output.row(a).iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn capacity_rounds_up_to_a_block_but_stats_count_capacity_slots() {
        let (layer, mut rng) = dropping(CapacityFactor::Fixed(1.0), 4);
        let x = init::normal(30, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        // capacity 10 -> three experts of 12 rows; the stats still read
        // 3 * 10 slots.
        let permute = out.cache.permute();
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
            let (layer, mut rng) = dropping(CapacityFactor::Fixed(cf), 11);
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

    #[test]
    fn load_is_perfectly_balanced() {
        let (l, mut rng) = layer::<ExpertChoice>(1);
        let x = init::normal(30, 6, 1.0, &mut rng);
        let out = l.forward(&x);
        let cap = ExpertChoice::capacity(l.config(), 30);
        assert!(
            out.stats.tokens_per_expert.iter().all(|&t| t == cap),
            "{:?}",
            out.stats.tokens_per_expert
        );
    }

    #[test]
    fn unpicked_tokens_emit_zero_rows() {
        let (l, mut rng) = layer::<ExpertChoice>(2);
        let x = init::normal(24, 6, 1.0, &mut rng);
        let out = l.forward(&x);
        let mut picked = [false; 24];
        for (token, _) in picks(&out) {
            picked[token] = true;
        }
        assert_eq!(
            out.stats.dropped_tokens,
            picked.iter().filter(|&&p| !p).count()
        );
        for (t, &p) in picked.iter().enumerate() {
            if !p {
                assert!(out.output.row(t).iter().all(|&v| v == 0.0), "token {t}");
            }
        }
    }

    #[test]
    fn tokens_may_be_selected_by_multiple_experts() {
        // With top_k = num_experts, capacity = num_tokens and every expert
        // selects every token.
        let mut rng = seeded_rng(3);
        let l = ExpertChoiceMoe::new(cfg().with_top_k(3), &mut rng);
        let x = init::normal(5, 6, 1.0, &mut rng);
        let out = l.forward(&x);
        assert_eq!(picks(&out).len(), 3 * 5);
        assert_eq!(out.stats.dropped_tokens, 0);
    }

    #[test]
    fn matches_dense_per_assignment_reference() {
        let (l, mut rng) = layer::<ExpertChoice>(4);
        let x = init::normal(12, 6, 1.0, &mut rng);
        let out = l.forward(&x);
        let mut want = Matrix::zeros(12, 6);
        for (token, expert) in picks(&out) {
            let w = out.cache.routing.probs[(token, expert)];
            for (q, y) in expert_mlp(&l, &x, token, expert).into_iter().enumerate() {
                want[(token, q)] += w * y;
            }
        }
        assert!(
            out.output.approx_eq(&want, 1e-4),
            "diff {}",
            out.output.max_abs_diff(&want)
        );
    }

    #[test]
    fn nan_rows_at_512_tokens_select_without_panicking() {
        // Each expert sorts `num_tokens` probabilities; a poisoned layer
        // below makes whole rows NaN. (The selection alone: in a debug
        // build the kernels' own NaN sweep would stop the layer next.)
        let probs = Matrix::from_fn(512, 3, |t, e| {
            if t % 3 == 0 {
                f32::NAN
            } else {
                ((t * 3 + e) % 7) as f32 / 7.0
            }
        });
        let kept = select(&probs, 171);
        assert_eq!(kept.len(), 512 * 3);
        for expert in 0..3 {
            let picked = kept.iter().skip(expert).step_by(3).filter(|&&k| k).count();
            assert_eq!(picked, 171, "expert {expert}");
        }
    }
}
