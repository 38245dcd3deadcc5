//! The dropless-MoE (dMoE) layer — the paper's core contribution (§4, §5).
//!
//! The forward pass follows the pseudo-code of Figure 6 line for line:
//!
//! 1. route tokens to experts;
//! 2. build the block-sparse topology from the expert assignments;
//! 3. permute tokens into expert-grouped, block-padded order;
//! 4. compute the 2-layer MLP experts as an SDD followed by a DSD;
//! 5. un-permute and scale by the router confidence weights.
//!
//! The backward pass uses the four remaining products the paper lists in
//! §5.1: SDD^T and DS^TD for the second expert layer, DSD^T and DD^TS for
//! the first. No tokens are ever dropped and no expert batch is padded
//! beyond the next block boundary.

use megablocks_exec as exec;
use megablocks_resilience as resilience;
use megablocks_sparse::{ops, BlockSparseMatrix, SparseError, Topology};
use megablocks_telemetry as telemetry;
use megablocks_tensor::ops::{gelu_grad_mul, gelu_inplace, gelu_into};
use megablocks_tensor::{init, Matrix};
use rand::rngs::StdRng;

use crate::{
    load_balancing_loss, padded_gather, padded_gather_backward, padded_scatter,
    padded_scatter_backward, MoeConfig, MoeStats, Param, PermuteInfo, Router, Routing,
};

/// Elements below this stay single-banded in the elementwise activation
/// plans (same rationale as the permutation kernels: pure memory traffic).
const PARALLEL_THRESHOLD: usize = 1 << 16;

/// Everything the backward pass needs from a forward invocation.
///
/// Holding the cache in a separate value (rather than layer state) keeps
/// the layer reentrant under gradient accumulation: each micro-batch owns
/// its cache.
#[derive(Debug, Clone)]
pub struct DmoeCache {
    x: Matrix,
    routing: Routing,
    permute: PermuteInfo,
    xg: Matrix,
    h_pre: BlockSparseMatrix,
    h_act: BlockSparseMatrix,
    y: Matrix,
    d_probs_aux: Matrix,
}

/// Result of [`DroplessMoe::forward`].
#[derive(Debug, Clone)]
pub struct DmoeOutput {
    /// Layer output, `num_tokens x hidden_size`.
    pub output: Matrix,
    /// Forward-pass statistics (dropping is always zero here).
    pub stats: MoeStats,
    /// Cache to pass to [`DroplessMoe::backward`].
    pub cache: DmoeCache,
}

/// The dropless Mixture-of-Experts layer.
///
/// Expert weights are stored concatenated: `w1` is
/// `hidden_size x (num_experts * ffn_hidden_size)` and `w2` is the mirror
/// shape, exactly as in Figure 6 — expert `e` owns the column (resp. row)
/// slice `e * ffn_hidden_size ..`.
#[derive(Debug, Clone)]
pub struct DroplessMoe {
    cfg: MoeConfig,
    router: Router,
    w1: Param,
    w2: Param,
}

impl DroplessMoe {
    /// Creates a dMoE layer with GPT-2-style initialization.
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

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.cfg.param_count()
    }

    /// Runs the dMoE forward pass on `x` (`num_tokens x hidden_size`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != hidden_size`, or on any error
    /// [`DroplessMoe::try_forward`] returns.
    pub fn forward(&self, x: &Matrix) -> DmoeOutput {
        self.try_forward(x).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`DroplessMoe::forward`].
    ///
    /// The whole pass — router, permutation, and every kernel launch —
    /// runs under the calling thread's ambient context
    /// ([`exec::cancel::enter`]): it is checked at entry, at every
    /// launch's band boundaries, and inside the tiled microkernel's panel
    /// loop.
    ///
    /// # Errors
    ///
    /// Returns an error if the per-step topology cannot be built or a
    /// sparse kernel rejects its inputs (including sanitizer failures in
    /// debug builds), and [`SparseError::Cancelled`] when the
    /// ambient context trips.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != hidden_size`.
    pub fn try_forward(&self, x: &Matrix) -> Result<DmoeOutput, SparseError> {
        let (output, kept) = self.pipeline(x, Retain::ForBackward)?;
        let (stats, cache) = kept.expect("a ForBackward pass keeps its cache");
        Ok(DmoeOutput {
            output,
            stats,
            cache,
        })
    }

    /// Inference-only forward pass.
    ///
    /// The same pipeline as [`DroplessMoe::try_forward`] — same kernels,
    /// same accumulation order, bit-identical outputs — but it keeps
    /// nothing for a backward pass: no [`DmoeCache`] is built, the input is
    /// never cloned, the GeLU runs in place on the SDD output blocks
    /// instead of into a second activation buffer, and every intermediate
    /// (gathered tokens, expert activations, expert outputs) is recycled
    /// through the workspace arena once its consumers are done. A
    /// steady-state serving loop therefore allocates nothing per request
    /// beyond the returned output matrix. A serving engine bounds a batch
    /// by entering its deadline or cancel token with
    /// [`exec::cancel::enter`] around the call; the pass then unwinds with
    /// [`SparseError::Cancelled`] mid-kernel.
    ///
    /// # Errors
    ///
    /// Same as [`DroplessMoe::try_forward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != hidden_size`.
    pub fn infer(&self, x: &Matrix) -> Result<Matrix, SparseError> {
        Ok(self.pipeline(x, Retain::Nothing)?.0)
    }

    /// The one dMoE forward pipeline (Figure 6). Training and inference
    /// differ only in what they retain, so both run this body.
    fn pipeline(
        &self,
        x: &Matrix,
        retain: Retain,
    ) -> Result<(Matrix, Option<(MoeStats, DmoeCache)>), SparseError> {
        assert_eq!(
            x.cols(),
            self.cfg.hidden_size,
            "input feature size mismatch"
        );
        let op = match retain {
            Retain::ForBackward => "moe.dmoe.forward",
            Retain::Nothing => "moe.dmoe.infer",
        };
        let _span = telemetry::span(op);
        if let Some(kind) = exec::cancel::current().status() {
            return Err(SparseError::Cancelled { op, kind });
        }

        // (1) Assign tokens to experts.
        let routing = self.router.forward(x);

        // (2) Create the sparse matrix topology (Figure 3C).
        let permute = PermuteInfo::new(&routing, self.cfg.num_experts, self.cfg.block_size);
        let topology = Topology::for_moe(
            permute.padded_tokens_per_expert(),
            self.cfg.ffn_hidden_size,
            self.cfg.block_size,
        )?;

        // (3) Permute the tokens to group by expert.
        let xg = padded_gather(x, &permute);

        // (4) Compute the expert layers: SDD -> GeLU -> DSD.
        let (y, activations) =
            expert_mlp(&xg, self.w1.value(), self.w2.value(), &topology, retain)?;

        // (5) Un-permute the tokens and scale by router confidence.
        let mut output = padded_scatter(&y, &permute, &routing.weights);
        let Some((h_pre, h_act)) = activations else {
            xg.recycle();
            y.recycle();
            return Ok((output, None));
        };
        // Chaos injection site: an installed FaultPlan may poison the
        // layer output with a NaN here, exercising the trainer's
        // non-finite detection + rollback path.
        resilience::maybe_poison(&resilience::sites::KERNEL_NAN_POISON, output.as_mut_slice());

        let lb = load_balancing_loss(&routing, self.cfg.load_balance_weight);
        let stats = MoeStats {
            dropped_tokens: 0,
            padding_rows: permute.padding_rows(),
            tokens_per_expert: permute.tokens_per_expert().to_vec(),
            load_balancing_loss: lb.loss,
            padding_overhead: MoeStats::overhead(permute.padding_rows(), permute.num_assignments()),
            // Dropless: every assigned token is processed.
            expert_load: permute.tokens_per_expert().to_vec(),
        };
        crate::record_moe_stats(&stats);
        let cache = DmoeCache {
            x: x.clone(),
            routing,
            permute,
            xg,
            h_pre,
            h_act,
            y,
            d_probs_aux: lb.d_probs,
        };
        Ok((output, Some((stats, cache))))
    }

    /// Runs the backward pass for one forward invocation.
    ///
    /// Accumulates parameter gradients (including the load-balancing loss
    /// contribution to the router) and returns the gradient with respect to
    /// the layer input.
    ///
    /// # Panics
    ///
    /// Panics if `d_out` does not match the forward output shape.
    pub fn backward(&mut self, cache: &DmoeCache, d_out: &Matrix) -> Matrix {
        assert_eq!(
            d_out.shape(),
            (cache.permute.num_tokens(), self.cfg.hidden_size),
            "d_out shape mismatch"
        );
        let _span = telemetry::span("moe.dmoe.backward");

        // Un-permutation backward: per-assignment output grads and router
        // confidence-weight grads.
        let (dy, d_weights) =
            padded_scatter_backward(d_out, &cache.y, &cache.permute, &cache.routing.weights);

        // Second expert layer: data grad SDD^T, weight grad DS^TD.
        let dh_act = ops::sdd_t(&dy, self.w2.value(), cache.h_pre.topology());
        let dw2 = ops::dst_d(&cache.h_act, &dy);
        self.w2.accumulate(&dw2);
        dw2.recycle();
        dy.recycle();

        // Activation backward on the stored blocks, as a launch plan over
        // the nonzero elements.
        let mut dh = dh_act;
        {
            let pre = cache.h_pre.as_slice();
            let data = dh.as_mut_slice();
            let bands = exec::parallelism_for(data.len(), PARALLEL_THRESHOLD);
            let per_band = data.len().div_ceil(bands);
            let body = |band: &mut [f32], i0: usize| {
                gelu_grad_mul(band, &pre[i0..i0 + band.len()]);
            };
            exec::LaunchPlan::over_items("moe.gelu_grad", data, 1, per_band, &body).launch();
        }

        // First expert layer: data grad DSD^T, weight grad DD^TS.
        let dxg = ops::dsd_t(&dh, self.w1.value());
        let dw1 = ops::ddt_s(&cache.xg, &dh);
        self.w1.accumulate(&dw1);
        dw1.recycle();
        dh.recycle();

        // Permutation backward.
        let mut dx = padded_gather_backward(&dxg, &cache.permute);
        dxg.recycle();

        // Router backward (confidence weights + load-balancing loss).
        let dx_router = self.router.backward(
            &cache.x,
            &cache.routing,
            &d_weights,
            Some(&cache.d_probs_aux),
        );
        exec::workspace::recycle(d_weights);
        dx.add_assign(&dx_router);
        dx
    }
}

/// What a forward pass keeps of its intermediates.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Retain {
    /// Everything [`DroplessMoe::backward`] reads.
    ForBackward,
    /// Only the output: intermediates go back to the workspace arena.
    Nothing,
}

/// The expert MLP of Figure 6 over already permuted tokens:
/// `y = gelu(xg * w1 | topology) * w2`, as SDD -> GeLU -> DSD. Returns
/// `y` and, under [`Retain::ForBackward`], the pre- and post-activation
/// blocks; under [`Retain::Nothing`] the GeLU runs in place and the
/// blocks are recycled. The single-device layer and every expert-parallel
/// shard run this one body, so their per-element arithmetic cannot drift.
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
            gelu(&mut act, Some(h.as_slice()))?;
            (Some(h), BlockSparseMatrix::from_raw(topology, act)?)
        }
        Retain::Nothing => {
            gelu(h.as_mut_slice(), None)?;
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

/// Elementwise GeLU over the nonzero blocks as a launch plan:
/// `dst = gelu(src)`, or in place when `src` is `None`.
fn gelu(dst: &mut [f32], src: Option<&[f32]>) -> Result<(), SparseError> {
    let bands = exec::parallelism_for(dst.len(), PARALLEL_THRESHOLD);
    let per_band = dst.len().div_ceil(bands);
    let body = |band: &mut [f32], i0: usize| match src {
        Some(src) => gelu_into(band, &src[i0..i0 + band.len()]),
        None => gelu_inplace(band),
    };
    Ok(exec::LaunchPlan::over_items("moe.gelu", dst, 1, per_band, &body).try_launch()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_tensor::init::seeded_rng;
    use megablocks_tensor::ops::{cross_entropy, gelu_scalar};

    fn small_layer(seed: u64) -> (DroplessMoe, StdRng) {
        let cfg = MoeConfig::new(6, 8, 3).with_block_size(4);
        let mut rng = seeded_rng(seed);
        let layer = DroplessMoe::new(cfg, &mut rng);
        (layer, rng)
    }

    #[test]
    fn forward_shapes_and_no_drops() {
        let (layer, mut rng) = small_layer(1);
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
            .zip(out.cache.permute.padded_tokens_per_expert())
        {
            assert_eq!(p, t.div_ceil(4) * 4);
        }
    }

    #[test]
    fn dmoe_matches_per_expert_dense_reference() {
        // Compute the same MoE densely: for each token, run its expert MLP
        // directly and scale by the router weight.
        let (layer, mut rng) = small_layer(2);
        let x = init::normal(9, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        let routing = &out.cache.routing;
        let ffn = layer.cfg.ffn_hidden_size;

        for t in 0..9 {
            let e = routing.expert_indices[t];
            let w = routing.weights[t];
            // h = gelu(x_t @ w1_e); y = h @ w2_e
            let mut h = vec![0.0f32; ffn];
            for (j, hv) in h.iter_mut().enumerate() {
                let col = e * ffn + j;
                let mut acc = 0.0;
                for p in 0..6 {
                    acc += x[(t, p)] * layer.w1.value()[(p, col)];
                }
                *hv = gelu_scalar(acc);
            }
            for q in 0..6 {
                let mut acc = 0.0;
                for (j, hv) in h.iter().enumerate() {
                    acc += hv * layer.w2.value()[(e * ffn + j, q)];
                }
                let want = w * acc;
                let got = out.output[(t, q)];
                assert!(
                    (got - want).abs() < 1e-4,
                    "token {t} feature {q}: got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        // Objective: cross-entropy of a linear readout of the layer output,
        // plus the load-balancing loss (which backward includes).
        let (mut layer, mut rng) = small_layer(3);
        let x = init::normal(8, 6, 0.5, &mut rng);
        let targets: Vec<usize> = (0..8).map(|t| t % 3).collect();
        let readout = init::normal(6, 3, 0.5, &mut rng);

        let objective = |layer: &DroplessMoe, x: &Matrix| -> f32 {
            let out = layer.forward(x);
            let logits = megablocks_tensor::matmul(&out.output, &readout);
            let (ce, _) = cross_entropy(&logits, &targets, None);
            ce + out.stats.load_balancing_loss
        };

        let out = layer.forward(&x);
        let logits = megablocks_tensor::matmul(&out.output, &readout);
        let (_, dlogits) = cross_entropy(&logits, &targets, None);
        let d_out = megablocks_tensor::matmul_nt(&dlogits, &readout);
        let dx = layer.backward(&out.cache, &d_out);

        let base_assignment = out.cache.routing.expert_indices.clone();
        let eps = 2e-3;

        // Input gradient, skipping points where routing flips.
        let mut checked = 0;
        for i in 0..x.rows() {
            for j in [0usize, 3, 5] {
                let mut xp = x.clone();
                xp[(i, j)] += eps;
                let mut xm = x.clone();
                xm[(i, j)] -= eps;
                if layer.router().forward(&xp).expert_indices != base_assignment
                    || layer.router().forward(&xm).expert_indices != base_assignment
                {
                    continue;
                }
                let num = (objective(&layer, &xp) - objective(&layer, &xm)) / (2.0 * eps);
                let ana = dx[(i, j)];
                assert!(
                    (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                    "dx({i},{j}): numeric {num}, analytic {ana}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 10, "only {checked} stable finite-diff points");

        // Weight gradients: spot-check a handful of entries of w1, w2 and
        // the router weight.
        let spots_w1 = [(0usize, 0usize), (3, 7), (5, 20)];
        for &(r, c) in &spots_w1 {
            let ana = layer.w1.grad()[(r, c)];
            let orig = layer.w1.value()[(r, c)];
            layer.w1.value_mut()[(r, c)] = orig + eps;
            let fp = objective(&layer, &x);
            layer.w1.value_mut()[(r, c)] = orig - eps;
            let fm = objective(&layer, &x);
            layer.w1.value_mut()[(r, c)] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "dw1({r},{c}): numeric {num}, analytic {ana}"
            );
        }
        let spots_w2 = [(0usize, 0usize), (10, 3), (23, 5)];
        for &(r, c) in &spots_w2 {
            let ana = layer.w2.grad()[(r, c)];
            let orig = layer.w2.value()[(r, c)];
            layer.w2.value_mut()[(r, c)] = orig + eps;
            let fp = objective(&layer, &x);
            layer.w2.value_mut()[(r, c)] = orig - eps;
            let fm = objective(&layer, &x);
            layer.w2.value_mut()[(r, c)] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "dw2({r},{c}): numeric {num}, analytic {ana}"
            );
        }
        for &(r, c) in &[(1usize, 0usize), (4, 2)] {
            let ana = layer.router.weight().grad()[(r, c)];
            let orig = layer.router.weight().value()[(r, c)];
            layer.router.weight_mut().value_mut()[(r, c)] = orig + eps;
            let routing_p = layer.router().forward(&x).expert_indices.clone();
            let fp = objective(&layer, &x);
            layer.router.weight_mut().value_mut()[(r, c)] = orig - eps;
            let routing_m = layer.router().forward(&x).expert_indices.clone();
            let fm = objective(&layer, &x);
            layer.router.weight_mut().value_mut()[(r, c)] = orig;
            if routing_p != base_assignment || routing_m != base_assignment {
                continue;
            }
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs()),
                "d_router({r},{c}): numeric {num}, analytic {ana}"
            );
        }
    }

    #[test]
    fn top2_routing_sums_two_experts() {
        let cfg = MoeConfig::new(6, 8, 3).with_block_size(4).with_top_k(2);
        let mut rng = seeded_rng(5);
        let layer = DroplessMoe::new(cfg, &mut rng);
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
        let (layer, mut rng) = small_layer(7);
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
    fn infer_recycles_intermediates_through_the_workspace() {
        let (layer, mut rng) = small_layer(8);
        let x = init::normal(12, 6, 1.0, &mut rng);
        let warm = layer.infer(&x).unwrap();
        warm.recycle();
        let before = exec::workspace::stats();
        let out = layer.infer(&x).unwrap();
        let after = exec::workspace::stats();
        assert!(
            after.hits > before.hits,
            "steady-state infer should reuse the arena: {before:?} -> {after:?}"
        );
        out.recycle();
    }

    #[test]
    fn a_tripped_ambient_context_cancels_both_retention_modes() {
        let (layer, mut rng) = small_layer(9);
        let x = init::normal(8, 6, 1.0, &mut rng);
        let token = exec::CancelToken::new();
        token.cancel();
        let cases = [
            (
                exec::Ctx::none().with_deadline(exec::Deadline::after(std::time::Duration::ZERO)),
                exec::CancelKind::DeadlineExceeded,
            ),
            (
                exec::Ctx::none().with_token(&token),
                exec::CancelKind::Cancelled,
            ),
        ];
        for (ctx, kind) in cases {
            let _scope = exec::cancel::enter(&ctx);
            assert_eq!(
                layer.try_forward(&x).map(|out| out.output).unwrap_err(),
                SparseError::Cancelled {
                    op: "moe.dmoe.forward",
                    kind
                }
            );
            assert_eq!(
                layer.infer(&x).unwrap_err(),
                SparseError::Cancelled {
                    op: "moe.dmoe.infer",
                    kind
                }
            );
        }
        // Outside the scopes the layer runs again.
        assert!(layer.infer(&x).is_ok());
    }

    #[test]
    fn gradient_accumulation_is_additive() {
        let (mut layer, mut rng) = small_layer(6);
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
}
