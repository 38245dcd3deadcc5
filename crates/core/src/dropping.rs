//! The token-dropping MoE baseline (paper §2–3).
//!
//! This is the GShard/Switch/Tutel formulation MegaBlocks compares against:
//! every expert gets a fixed-size token buffer (`expert_capacity`),
//! assignments beyond the capacity are *dropped* (the token's
//! representation survives only through the residual connection), and
//! under-full buffers are *padded* — wasting compute and memory. Expert
//! computation runs through the batched-matmul primitive
//! ([`megablocks_tensor::batched_matmul`]), which is exactly the constraint
//! that forces the capacity mechanism (Figure 3A).
//!
//! [`CapacityFactor::Dynamic`](crate::CapacityFactor::Dynamic) reproduces
//! Tutel's no-drop mode: capacity is set per step to the maximum expert
//! load, trading dropping for worst-case padding — the memory-hungry
//! behaviour that shrinks Tutel's feasible micro-batch sizes in Table 3.

use megablocks_telemetry as telemetry;
use megablocks_tensor::ops::{gelu_grad_mul, gelu_scalar};
use megablocks_tensor::{batched_matmul, init, BatchedMatrix, Matrix};
use rand::rngs::StdRng;

use crate::{load_balancing_loss, CapacityFactor, MoeConfig, MoeStats, Param, Router, Routing};

/// Where each routing assignment landed: a buffer slot or the floor.
type Slot = Option<(usize, usize)>; // (expert, position within buffer)

/// Forward-pass cache for [`DroppingMoe::backward`].
#[derive(Debug, Clone)]
pub struct DroppingMoeCache {
    x: Matrix,
    routing: Routing,
    slots: Vec<Slot>,
    capacity: usize,
    xb: BatchedMatrix,
    h_pre: BatchedMatrix,
    h_act: BatchedMatrix,
    y: BatchedMatrix,
    d_probs_aux: Matrix,
}

/// Result of [`DroppingMoe::forward`].
#[derive(Debug, Clone)]
pub struct DroppingMoeOutput {
    /// Layer output, `num_tokens x hidden_size`. Dropped tokens produce
    /// zero rows (their value re-enters through the residual connection).
    pub output: Matrix,
    /// Forward statistics, including the number of dropped assignments and
    /// padding waste.
    pub stats: MoeStats,
    /// Cache to pass to [`DroppingMoe::backward`].
    pub cache: DroppingMoeCache,
}

/// Token-dropping MoE layer computed with batched matrix multiplication.
#[derive(Debug, Clone)]
pub struct DroppingMoe {
    cfg: MoeConfig,
    router: Router,
    w1: Param,
    w2: Param,
}

impl DroppingMoe {
    /// Creates a layer with the same parameterization (and, for equal
    /// seeds, identical initial weights) as [`crate::DroplessMoe`].
    pub fn new(cfg: MoeConfig, rng: &mut StdRng) -> Self {
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

    /// All trainable parameters, for the optimizer.
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

    /// Expert capacity for a batch of `num_tokens` under the configured
    /// policy; for [`CapacityFactor::Dynamic`] this needs the realized
    /// per-expert loads.
    fn capacity(&self, num_tokens: usize, tokens_per_expert: &[usize]) -> usize {
        match self.cfg.capacity {
            CapacityFactor::Fixed(f) => self.cfg.expert_capacity(num_tokens, f).max(1),
            CapacityFactor::Dynamic => tokens_per_expert.iter().copied().max().unwrap_or(0).max(1),
        }
    }

    /// Runs the forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != hidden_size`.
    pub fn forward(&self, x: &Matrix) -> DroppingMoeOutput {
        assert_eq!(
            x.cols(),
            self.cfg.hidden_size,
            "input feature size mismatch"
        );
        let _span = telemetry::span("moe.dropping.forward");
        let num_tokens = x.rows();
        let e = self.cfg.num_experts;
        let hidden = self.cfg.hidden_size;

        let routing = self.router.forward(x);
        let tokens_per_expert = routing.tokens_per_expert();
        let capacity = self.capacity(num_tokens, &tokens_per_expert);

        // Fill expert buffers in token order; overflow drops.
        let mut fill = vec![0usize; e];
        let mut dropped = 0usize;
        let slots: Vec<Slot> = routing
            .expert_indices
            .iter()
            .map(|&ex| {
                if fill[ex] < capacity {
                    let s = (ex, fill[ex]);
                    fill[ex] += 1;
                    Some(s)
                } else {
                    dropped += 1;
                    None
                }
            })
            .collect();

        // Permute into the batched operand (padding rows stay zero).
        let mut xb = BatchedMatrix::zeros(e, capacity, hidden);
        for (a, slot) in slots.iter().enumerate() {
            if let Some((ex, pos)) = *slot {
                let t = a / routing.top_k;
                xb.get_mut(ex).row_mut(pos).copy_from_slice(x.row(t));
            }
        }

        // Batched expert MLP: the Figure 3A formulation.
        let w1b = self.expert_batch(self.w1.value(), true);
        let w2b = self.expert_batch(self.w2.value(), false);
        let h_pre = batched_matmul(&xb, &w1b);
        let mut h_act = h_pre.clone();
        for i in 0..e {
            h_act.get_mut(i).map_inplace(gelu_scalar);
        }
        let y = batched_matmul(&h_act, &w2b);

        // Un-permute with confidence scaling; dropped assignments emit 0.
        let mut output = Matrix::zeros(num_tokens, hidden);
        for (a, slot) in slots.iter().enumerate() {
            if let Some((ex, pos)) = *slot {
                let t = a / routing.top_k;
                let w = routing.weights[a];
                let src = y.get(ex).row(pos);
                for (o, s) in output.row_mut(t).iter_mut().zip(src) {
                    *o += w * s;
                }
            }
        }

        let lb = load_balancing_loss(&routing, self.cfg.load_balance_weight);
        let kept = routing.expert_indices.len() - dropped;
        let stats = MoeStats {
            dropped_tokens: dropped,
            padding_rows: e * capacity - kept,
            tokens_per_expert,
            load_balancing_loss: lb.loss,
            padding_overhead: MoeStats::overhead(e * capacity - kept, kept),
            // `fill` holds the number of assignments each buffer accepted.
            expert_load: fill.clone(),
        };
        crate::record_moe_stats(&stats);
        DroppingMoeOutput {
            output,
            stats,
            cache: DroppingMoeCache {
                x: x.clone(),
                routing,
                slots,
                capacity,
                xb,
                h_pre,
                h_act,
                y,
                d_probs_aux: lb.d_probs,
            },
        }
    }

    /// Runs the backward pass, accumulating parameter gradients and
    /// returning the input gradient. Dropped tokens receive gradient only
    /// through the router.
    ///
    /// # Panics
    ///
    /// Panics if `d_out` does not match the forward output shape.
    pub fn backward(&mut self, cache: &DroppingMoeCache, d_out: &Matrix) -> Matrix {
        let _span = telemetry::span("moe.dropping.backward");
        let e = self.cfg.num_experts;
        let ffn = self.cfg.ffn_hidden_size;
        let hidden = self.cfg.hidden_size;
        assert_eq!(
            d_out.shape(),
            (cache.x.rows(), hidden),
            "d_out shape mismatch"
        );

        // Un-permute backward.
        let mut dy = BatchedMatrix::zeros(e, cache.capacity, hidden);
        let mut d_weights = vec![0.0f32; cache.slots.len()];
        for (a, slot) in cache.slots.iter().enumerate() {
            if let Some((ex, pos)) = *slot {
                let t = a / cache.routing.top_k;
                let w = cache.routing.weights[a];
                let y_row = cache.y.get(ex).row(pos).to_vec();
                let d_row = d_out.row(t);
                d_weights[a] = d_row.iter().zip(&y_row).map(|(d, v)| d * v).sum();
                let dst = dy.get_mut(ex).row_mut(pos);
                for (o, d) in dst.iter_mut().zip(d_row) {
                    *o = w * d;
                }
            }
        }

        // Per-expert MLP backward (batched GEMMs).
        let w1b = self.expert_batch(self.w1.value(), true);
        let w2b = self.expert_batch(self.w2.value(), false);
        let mut dxb = BatchedMatrix::zeros(e, cache.capacity, hidden);
        for ex in 0..e {
            let dh_act = megablocks_tensor::matmul_nt(dy.get(ex), w2b.get(ex));
            let dw2 = megablocks_tensor::matmul_tn(cache.h_act.get(ex), dy.get(ex));
            // Scatter dw2 into the concatenated parameter rows.
            for j in 0..ffn {
                let dst = self.w2.grad_mut().row_mut(ex * ffn + j);
                for (d, s) in dst.iter_mut().zip(dw2.row(j)) {
                    *d += s;
                }
            }
            let mut dh = dh_act;
            gelu_grad_mul(dh.as_mut_slice(), cache.h_pre.get(ex).as_slice());
            let dxe = megablocks_tensor::matmul_nt(&dh, w1b.get(ex));
            let dw1 = megablocks_tensor::matmul_tn(cache.xb.get(ex), &dh);
            for r in 0..hidden {
                let dst = &mut self.w1.grad_mut().row_mut(r)[ex * ffn..(ex + 1) * ffn];
                for (d, s) in dst.iter_mut().zip(dw1.row(r)) {
                    *d += s;
                }
            }
            *dxb.get_mut(ex) = dxe;
        }

        // Permute backward: kept assignments return gradient to tokens.
        let mut dx = Matrix::zeros(cache.x.rows(), hidden);
        for (a, slot) in cache.slots.iter().enumerate() {
            if let Some((ex, pos)) = *slot {
                let t = a / cache.routing.top_k;
                let src = dxb.get(ex).row(pos);
                let dst = dx.row_mut(t);
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
        }

        let dx_router = self.router.backward(
            &cache.x,
            &cache.routing,
            &d_weights,
            Some(&cache.d_probs_aux),
        );
        dx.add_assign(&dx_router);
        dx
    }

    /// Slices the concatenated weight into one per-expert matrix batch.
    /// `columns = true` slices `w1` (`hidden x E*ffn`) by column group;
    /// otherwise slices `w2` (`E*ffn x hidden`) by row group.
    fn expert_batch(&self, w: &Matrix, columns: bool) -> BatchedMatrix {
        let e = self.cfg.num_experts;
        let ffn = self.cfg.ffn_hidden_size;
        let hidden = self.cfg.hidden_size;
        let entries: Vec<Matrix> = (0..e)
            .map(|ex| {
                if columns {
                    Matrix::from_fn(hidden, ffn, |i, j| w[(i, ex * ffn + j)])
                } else {
                    w.rows_range(ex * ffn, (ex + 1) * ffn)
                }
            })
            .collect();
        BatchedMatrix::from_matrices(entries).expect("expert slices share shapes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_tensor::init::seeded_rng;

    fn cfg() -> MoeConfig {
        MoeConfig::new(6, 8, 3).with_block_size(4)
    }

    #[test]
    fn capacity_one_drops_overflow() {
        let mut rng = seeded_rng(1);
        let layer = DroppingMoe::new(cfg().with_capacity(CapacityFactor::Fixed(1.0)), &mut rng);
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
        let mut rng = seeded_rng(2);
        let layer = DroppingMoe::new(cfg().with_capacity(CapacityFactor::Dynamic), &mut rng);
        let x = init::normal(25, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        assert_eq!(out.stats.dropped_tokens, 0);
        // Padding pads every expert to the max load.
        let max_load = *out.stats.tokens_per_expert.iter().max().unwrap();
        assert_eq!(out.stats.padding_rows, 3 * max_load - 25);
    }

    #[test]
    fn dropped_tokens_produce_zero_output_rows() {
        let mut rng = seeded_rng(3);
        let layer = DroppingMoe::new(cfg().with_capacity(CapacityFactor::Fixed(0.05)), &mut rng);
        // capacity = max(ceil(12/3*0.05),1) = 1: most tokens drop.
        let x = init::normal(12, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        assert!(out.stats.dropped_tokens >= 12 - 3);
        for (a, slot) in out.cache.slots.iter().enumerate() {
            if slot.is_none() {
                assert!(out.output.row(a).iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn dynamic_matches_dropless_outputs() {
        // With dynamic capacity (no drops), the dropping layer computes the
        // same function as the dMoE given identical weights.
        let mut rng1 = seeded_rng(7);
        let mut rng2 = seeded_rng(7);
        let dropping = DroppingMoe::new(cfg().with_capacity(CapacityFactor::Dynamic), &mut rng1);
        let dropless = crate::DroplessMoe::new(cfg(), &mut rng2);
        let mut rng = seeded_rng(8);
        let x = init::normal(20, 6, 1.0, &mut rng);
        let a = dropping.forward(&x);
        let b = dropless.forward(&x);
        assert!(
            a.output.approx_eq(&b.output, 1e-4),
            "diff {}",
            a.output.max_abs_diff(&b.output)
        );
        assert_eq!(a.stats.dropped_tokens, 0);
        assert_eq!(b.stats.dropped_tokens, 0);
    }

    #[test]
    fn backward_matches_dropless_when_no_drops() {
        let mut rng1 = seeded_rng(9);
        let mut rng2 = seeded_rng(9);
        let mut dropping =
            DroppingMoe::new(cfg().with_capacity(CapacityFactor::Dynamic), &mut rng1);
        let mut dropless = crate::DroplessMoe::new(cfg(), &mut rng2);
        let mut rng = seeded_rng(10);
        let x = init::normal(14, 6, 1.0, &mut rng);
        let d = init::normal(14, 6, 0.3, &mut rng);
        let oa = dropping.forward(&x);
        let ob = dropless.forward(&x);
        let dxa = dropping.backward(&oa.cache, &d);
        let dxb = dropless.backward(&ob.cache, &d);
        assert!(
            dxa.approx_eq(&dxb, 1e-3),
            "dx diff {}",
            dxa.max_abs_diff(&dxb)
        );
        let ga = dropping.w1().grad();
        let gb = dropless.w1().grad();
        assert!(ga.approx_eq(gb, 1e-3), "dw1 diff {}", ga.max_abs_diff(gb));
        let ga = dropping.w2().grad();
        let gb = dropless.w2().grad();
        assert!(ga.approx_eq(gb, 1e-3), "dw2 diff {}", ga.max_abs_diff(gb));
    }

    #[test]
    fn higher_capacity_factor_means_more_padding_fewer_drops() {
        let mut drops = Vec::new();
        let mut pads = Vec::new();
        for cf in [1.0f32, 1.5, 2.0] {
            let mut rng = seeded_rng(11);
            let layer = DroppingMoe::new(cfg().with_capacity(CapacityFactor::Fixed(cf)), &mut rng);
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
}
