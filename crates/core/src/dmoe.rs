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
//! Steps 3–5 and their backward are the crate's one expert pipeline
//! ([`crate::experts`]); this layer's policy is steps 1–2: every
//! assignment is kept, and no expert batch is padded beyond the next
//! block boundary.

use std::borrow::Cow;

use megablocks_exec::fault::{self, sites};
use megablocks_sparse::{SparseError, Topology};
use megablocks_telemetry as telemetry;
use megablocks_tensor::{init, Matrix};
use rand::rngs::StdRng;

use crate::experts::{self, MoeCache, MoeOutput, Pass, Retain};
use crate::{MoeConfig, Param, PermuteInfo, Router, Routing};

/// Cache to pass to [`DroplessMoe::backward`].
pub type DmoeCache = MoeCache;

/// Result of [`DroplessMoe::forward`] (dropping is always zero here).
pub type DmoeOutput = MoeOutput;

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

    /// [`DroplessMoe::forward`] with `x` moved into the cache, not copied.
    #[doc(hidden)]
    pub fn forward_owned(&self, x: Matrix) -> DmoeOutput {
        let pass = self.pipeline(Cow::Owned(x), Retain::ForBackward);
        MoeOutput::of(pass.unwrap_or_else(|e| panic!("{e}")))
    }

    /// Fallible form of [`DroplessMoe::forward`].
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
    /// sparse kernel rejects its inputs (including sanitizer failures in
    /// debug builds).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != hidden_size`, and unwinds with an
    /// [`megablocks_exec::ExecError`] payload when the ambient context
    /// trips.
    pub fn try_forward(&self, x: &Matrix) -> Result<DmoeOutput, SparseError> {
        let x = Cow::Owned(x.pooled_copy());
        Ok(MoeOutput::of(self.pipeline(x, Retain::ForBackward)?))
    }

    /// Inference-only forward pass.
    ///
    /// The same pipeline as [`DroplessMoe::try_forward`] — same kernels,
    /// same accumulation order, bit-identical outputs — but it keeps
    /// nothing for a backward pass: no [`DmoeCache`] is built, the input is
    /// never cloned, the GeLU runs in place on the SDD output blocks
    /// instead of into a second activation buffer, and every intermediate
    /// (gathered tokens, expert activations, expert outputs) goes back to
    /// the workspace arena once its consumers are done. A
    /// steady-state serving loop therefore allocates nothing per request
    /// beyond the returned output matrix. A serving engine bounds a batch
    /// by entering its deadline or cancel token with
    /// [`megablocks_exec::cancel::enter`] around the call; the pass then
    /// unwinds mid-kernel with an [`megablocks_exec::ExecError`] payload.
    ///
    /// # Errors
    ///
    /// Same as [`DroplessMoe::try_forward`].
    ///
    /// # Panics
    ///
    /// Same as [`DroplessMoe::try_forward`].
    pub fn infer(&self, x: &Matrix) -> Result<Matrix, SparseError> {
        Ok(self.pipeline(Cow::Borrowed(x), Retain::Nothing)?.0)
    }

    /// The one dMoE forward pipeline (Figure 6). Training and inference
    /// differ only in what they retain, so both run this body; a retained
    /// `x` is owned, and the cache keeps it.
    fn pipeline(&self, x: Cow<'_, Matrix>, retain: Retain) -> Result<Pass, SparseError> {
        let cfg = &self.cfg;
        assert_eq!(x.cols(), cfg.hidden_size, "input feature size mismatch");
        let op = match retain {
            Retain::ForBackward => "moe.dmoe.forward",
            Retain::Nothing => "moe.dmoe.infer",
        };
        let _span = telemetry::span(op);

        // (1) Assign tokens to experts; (3)-(5) permute them to group by
        // expert, compute the expert layers, un-permute and scale by
        // router confidence.
        let policy = |routing: &Routing| {
            // (2) Create the sparse matrix topology (Figure 3C): every
            // assignment is kept, each expert padded to the next block.
            let permute = PermuteInfo::new(routing, cfg.num_experts, cfg.block_size);
            let topology = Topology::for_moe(
                permute.kept_per_expert(),
                cfg.ffn_hidden_size,
                cfg.block_size,
            )?;
            let slots = permute.padded_rows();
            Ok((permute, topology, slots))
        };
        let mut pass = experts::token_choice_forward(
            &self.router,
            self.w1.value(),
            self.w2.value(),
            cfg.load_balance_weight,
            x,
            retain,
            policy,
        )?;
        if pass.1.is_some() {
            // Chaos injection site: an entered FaultPlan may poison the
            // layer output with a NaN here, exercising the trainer's
            // non-finite detection + rollback path.
            let output = pass.0.as_mut_slice();
            fault::maybe_poison(&sites::KERNEL_NAN_POISON, output);
        }
        Ok(pass)
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
        let _span = telemetry::span("moe.dmoe.backward");
        cache.backward(&mut self.router, &mut self.w1, &mut self.w2, d_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_exec as exec;
    use megablocks_tensor::init::seeded_rng;
    use megablocks_tensor::ops::gelu_scalar;

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
            .zip(out.cache.experts.permute.padded_tokens_per_expert())
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
    fn infer_returns_its_intermediates_to_the_workspace_on_drop() {
        let (layer, mut rng) = small_layer(8);
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
        let (layer, mut rng) = small_layer(9);
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
