//! The one expert pipeline under every MoE layer (Figure 3, Figure 6).
//!
//! A capacity-padded batched matmul is a block-diagonal product with equal
//! blocks (Figure 3A/3B); the dMoE is the same product with unequal ones
//! (3C). So every layer in this crate decides only *who goes where* — a
//! [`PermuteInfo`] and a [`Topology`] — and then runs this body:
//! `padded_gather` → SDD → GeLU → DSD → `padded_scatter` forward, and the
//! four remaining products of §5.1 backward (SDD^T and DS^TD for the second
//! expert layer, DSD^T and DD^TS for the first).

use megablocks_exec as exec;
use megablocks_sparse::{ops, BlockSparseMatrix, SparseError, Topology};
use megablocks_telemetry as telemetry;
use megablocks_tensor::ops::{gelu_grad_mul, gelu_inplace, gelu_into};
use megablocks_tensor::Matrix;

use crate::{
    load_balancing_loss, padded_gather, padded_gather_backward, padded_scatter,
    padded_scatter_backward, MoeStats, Param, PermuteInfo, Router, Routing,
};

/// Elements below this stay single-banded in the elementwise activation
/// plans (same rationale as the permutation kernels: pure memory traffic).
const PARALLEL_THRESHOLD: usize = 1 << 16;

/// What a forward pass keeps of its intermediates.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Retain {
    /// Everything [`backward`] reads.
    ForBackward,
    /// Only the output: intermediates go back to the workspace arena.
    Nothing,
}

/// What [`backward`] needs from [`forward`].
#[derive(Debug, Clone)]
pub(crate) struct ExpertCache {
    pub(crate) permute: PermuteInfo,
    xg: Matrix,
    h_pre: BlockSparseMatrix,
    h_act: BlockSparseMatrix,
    y: Matrix,
}

/// Everything the backward pass of a token-choice layer needs from a
/// forward invocation.
///
/// Holding the cache in a separate value (rather than layer state) keeps
/// the layer reentrant under gradient accumulation: each micro-batch owns
/// its cache.
#[derive(Debug, Clone)]
pub struct MoeCache {
    x: Matrix,
    pub(crate) routing: Routing,
    pub(crate) experts: ExpertCache,
    d_probs_aux: Matrix,
}

/// Result of a token-choice layer's forward pass.
#[derive(Debug, Clone)]
pub struct MoeOutput {
    /// Layer output, `num_tokens x hidden_size`. A token whose every
    /// assignment was dropped produces a zero row (its value re-enters
    /// through the residual connection).
    pub output: Matrix,
    /// Forward-pass statistics: dropped assignments and padding waste.
    pub stats: MoeStats,
    /// Cache to pass to the layer's `backward`.
    pub cache: MoeCache,
}

/// What [`token_choice_forward`] returns: the layer output and, under
/// [`Retain::ForBackward`], the statistics and the cache.
pub(crate) type Pass = (Matrix, Option<(MoeStats, MoeCache)>);

/// A token-choice layer's forward pass (Figure 6): (1) route; (2) `policy`
/// decides who goes where — the permutation, the topology, and the number
/// of rows the layer accounts for (the padded rows of a dropless layer,
/// `num_experts * capacity` of a dropping one); (3)–(5) the expert
/// pipeline. Under [`Retain::ForBackward`] it closes with the
/// load-balancing loss, the recorded [`MoeStats`] and the cache.
pub(crate) fn token_choice_forward(
    router: &Router,
    w1: &Matrix,
    w2: &Matrix,
    load_balance_weight: f32,
    x: &Matrix,
    retain: Retain,
    policy: impl FnOnce(&Routing) -> Result<(PermuteInfo, Topology, usize), SparseError>,
) -> Result<Pass, SparseError> {
    let routing = router.forward(x);
    let (permute, topology, slots) = policy(&routing)?;
    let (output, experts) = forward(x, w1, w2, &topology, permute, &routing.weights, retain)?;
    let Some(experts) = experts else {
        return Ok((output, None));
    };

    let permute = &experts.permute;
    let lb = load_balancing_loss(&routing, load_balance_weight);
    let kept: usize = permute.kept_per_expert().iter().sum();
    let stats = MoeStats {
        dropped_tokens: permute.num_assignments() - kept,
        padding_rows: slots - kept,
        tokens_per_expert: permute.tokens_per_expert().to_vec(),
        load_balancing_loss: lb.loss,
        padding_overhead: MoeStats::overhead(slots - kept, kept),
        expert_load: permute.kept_per_expert().to_vec(),
    };
    crate::record_moe_stats(&stats);
    let cache = MoeCache {
        x: x.pooled_copy(),
        routing,
        experts,
        d_probs_aux: lb.d_probs,
    };
    Ok((output, Some((stats, cache))))
}

impl MoeOutput {
    /// The result of a [`Retain::ForBackward`] [`token_choice_forward`].
    pub(crate) fn of((output, kept): Pass) -> Self {
        let (stats, cache) = kept.expect("a ForBackward pass keeps its cache");
        Self {
            output,
            stats,
            cache,
        }
    }
}

impl MoeCache {
    /// The expert activations the forward pass kept, before and after the
    /// GeLU, in the block layout of the pass's topology.
    pub fn activations(&self) -> (&BlockSparseMatrix, &BlockSparseMatrix) {
        (&self.experts.h_pre, &self.experts.h_act)
    }

    /// Returns the cache's step-sized buffers to the calling thread's
    /// workspace arena.
    pub fn recycle(self) {
        self.x.recycle();
        self.experts.recycle();
    }

    /// Backward of a token-choice layer: the expert pipeline, then the
    /// router (confidence weights + load-balancing loss).
    pub(crate) fn backward(
        &self,
        router: &mut Router,
        w1: &mut Param,
        w2: &mut Param,
        d_out: &Matrix,
    ) -> Matrix {
        let (mut dx, d_weights) = backward(w1, w2, &self.experts, &self.routing.weights, d_out);
        let dx_router =
            router.backward(&self.x, &self.routing, &d_weights, Some(&self.d_probs_aux));
        exec::workspace::recycle(d_weights);
        dx.add_assign(&dx_router);
        dx_router.recycle();
        dx
    }
}

/// Steps (3)–(5) of Figure 6 for the assignments `permute` keeps: permute
/// the tokens to group by expert, compute the expert layers, un-permute
/// and scale by `weights` (one per assignment). Returns the layer output
/// and, under [`Retain::ForBackward`], the cache; under
/// [`Retain::Nothing`] every intermediate is recycled.
pub(crate) fn forward(
    x: &Matrix,
    w1: &Matrix,
    w2: &Matrix,
    topology: &Topology,
    permute: PermuteInfo,
    weights: &[f32],
    retain: Retain,
) -> Result<(Matrix, Option<ExpertCache>), SparseError> {
    let xg = padded_gather(x, &permute);
    let (y, activations) = expert_mlp(&xg, w1, w2, topology, retain)?;
    let output = padded_scatter(&y, &permute, weights);
    let Some((h_pre, h_act)) = activations else {
        xg.recycle();
        y.recycle();
        return Ok((output, None));
    };
    let cache = ExpertCache {
        permute,
        xg,
        h_pre,
        h_act,
        y,
    };
    Ok((output, Some(cache)))
}

impl ExpertCache {
    /// Returns the pipeline's buffers to the calling thread's workspace
    /// arena.
    pub(crate) fn recycle(self) {
        self.xg.recycle();
        self.h_pre.recycle();
        self.h_act.recycle();
        self.y.recycle();
    }
}

/// Backward of [`forward`]. Accumulates the gradients of `w1` and `w2`
/// and returns `(dx, d_weights)`: the gradient with respect to the layer
/// input (through the experts only) and to each assignment's weight. A
/// dropped assignment contributes exactly zero to all of them.
///
/// # Panics
///
/// Panics if `d_out` does not match the forward output shape.
pub(crate) fn backward(
    w1: &mut Param,
    w2: &mut Param,
    cache: &ExpertCache,
    weights: &[f32],
    d_out: &Matrix,
) -> (Matrix, Vec<f32>) {
    assert_eq!(
        d_out.shape(),
        (cache.permute.num_tokens(), w2.value().cols()),
        "d_out shape mismatch"
    );
    // Un-permutation backward: per-assignment output grads and
    // confidence-weight grads.
    let (dy, d_weights) = padded_scatter_backward(d_out, &cache.y, &cache.permute, weights);

    // Second expert layer: data grad SDD^T, weight grad DS^TD.
    let dh_act = ops::sdd_t(&dy, w2.value(), cache.h_pre.topology());
    let dw2 = ops::dst_d(&cache.h_act, &dy);
    w2.accumulate(&dw2);
    dw2.recycle();
    dy.recycle();

    // Activation backward on the valid rows of the stored blocks.
    let mut dh = dh_act;
    let (pre, topology) = (cache.h_pre.as_slice(), cache.h_pre.topology());
    let body = |rows: &mut [f32], at: usize| gelu_grad_mul(rows, &pre[at..at + rows.len()]);
    over_valid_rows("moe.gelu_grad", topology, dh.as_mut_slice(), &body);

    // First expert layer: data grad DSD^T, weight grad DD^TS.
    let dxg = ops::dsd_t(&dh, w1.value());
    let dw1 = ops::ddt_s(&cache.xg, &dh);
    w1.accumulate(&dw1);
    dw1.recycle();
    dh.recycle();

    // Permutation backward.
    let dx = padded_gather_backward(&dxg, &cache.permute);
    dxg.recycle();
    (dx, d_weights)
}

/// The expert MLP of Figure 6 over already permuted tokens:
/// `y = gelu(xg * w1 | topology) * w2`, as SDD -> GeLU -> DSD. Returns
/// `y` and, under [`Retain::ForBackward`], the pre- and post-activation
/// blocks; under [`Retain::Nothing`] the GeLU runs in place and the
/// blocks are recycled. Every layer runs this one body, so their
/// per-element arithmetic cannot drift.
pub(crate) fn expert_mlp(
    xg: &Matrix,
    w1: &Matrix,
    w2: &Matrix,
    topology: &Topology,
    retain: Retain,
) -> Result<(Matrix, Option<(BlockSparseMatrix, BlockSparseMatrix)>), SparseError> {
    let _experts = telemetry::span("moe.dmoe.experts");
    let mut h = ops::try_sdd(xg, w1, topology)?;
    let (h_pre, h_act) = match retain {
        Retain::ForBackward => {
            let mut act = exec::workspace::take_zeroed(h.as_slice().len());
            gelu(topology, &mut act, Some(h.as_slice()));
            (Some(h), BlockSparseMatrix::from_raw(topology, act)?)
        }
        Retain::Nothing => {
            gelu(topology, h.as_mut_slice(), None);
            (None, h)
        }
    };
    let y = ops::try_dsd(&h_act, w2)?;
    match h_pre {
        Some(h_pre) => Ok((y, Some((h_pre, h_act)))),
        None => {
            h_act.recycle();
            Ok((y, None))
        }
    }
}

/// Elementwise GeLU over the valid rows of the nonzero blocks:
/// `dst = gelu(src)`, or in place when `src` is `None`.
fn gelu(topology: &Topology, dst: &mut [f32], src: Option<&[f32]>) {
    let body = |rows: &mut [f32], at: usize| match src {
        Some(src) => gelu_into(rows, &src[at..at + rows.len()]),
        None => gelu_inplace(rows),
    };
    over_valid_rows("moe.gelu", topology, dst, &body);
}

/// Runs `f(rows, at)` on the valid rows of every stored block of
/// `topology` in `data` — the first `rows_valid[r]·bs` elements of each
/// block in block row `r`, `at` their offset in `data` — as one launch
/// plan banded over whole blocks. Rows past `rows_valid` are left as they
/// are: `+0.0`, which the GeLU (`gelu(+0) = +0`) and its gradient product
/// (`+0 · gelu'(0) = +0`) would map to `+0.0` anyway.
fn over_valid_rows(
    op: &'static str,
    topology: &Topology,
    data: &mut [f32],
    f: &(impl Fn(&mut [f32], usize) + Sync),
) {
    let (bs, area) = (topology.block_size().get(), topology.block_size().area());
    let (rows, valid) = (topology.row_indices(), topology.rows_valid());
    let bands = exec::parallelism_for(data.len(), PARALLEL_THRESHOLD);
    let blocks_per_band = topology.nnz_blocks().div_ceil(bands);
    let body = |band: &mut [f32], first: usize| {
        for (q, block) in band.chunks_exact_mut(area).enumerate() {
            let len = valid[rows[first + q]] * bs;
            f(&mut block[..len], (first + q) * area);
        }
    };
    exec::LaunchPlan::over_items(op, data, area, blocks_per_band, &body).launch();
}
