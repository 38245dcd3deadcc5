//! Sinkhorn routing — the BASE-layer approximation of Clark et al. (2022)
//! discussed in the paper's §7.
//!
//! BASE layers (Lewis et al. 2021) route by solving a linear assignment
//! problem that maximizes total token-expert affinity under a perfectly
//! balanced assignment; Clark et al. replace the exact (and slow) solver
//! with a few Sinkhorn-normalization iterations over the score matrix.
//! The result is *approximately* balanced — which is why Clark et al.
//! still train with capacity factor 2 — and the paper positions dropless
//! computation as complementary: with MegaBlocks kernels the leftover
//! imbalance costs only its actual FLOPs.
//!
//! [`SinkhornRouter::forward`] produces the same [`Routing`] structure as
//! the learned top-1 router, so it drops into the dMoE pipeline
//! unchanged; the backward pass differentiates through the plain softmax
//! confidence weights (the Sinkhorn plan itself is treated as a
//! non-differentiable assignment, as in Megatron-LM's implementation).

use megablocks_tensor::ops::{exp, softmax_rows, softmax_rows_backward};
use megablocks_tensor::{init, matmul, matmul_nt, matmul_tn, Matrix};
use rand::rngs::StdRng;

use crate::{Param, Routing};

/// A router that balances assignments with Sinkhorn iterations.
#[derive(Debug, Clone)]
pub struct SinkhornRouter {
    weight: Param,
    iterations: usize,
    temperature: f32,
}

impl SinkhornRouter {
    /// Creates a Sinkhorn router (top-1 only, as in Clark et al.).
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0` or `temperature <= 0`.
    pub fn new(
        hidden_size: usize,
        num_experts: usize,
        iterations: usize,
        temperature: f32,
        rng: &mut StdRng,
    ) -> Self {
        assert!(iterations > 0, "need at least one Sinkhorn iteration");
        assert!(temperature > 0.0, "temperature must be positive");
        Self {
            weight: Param::new(init::gpt2_normal(hidden_size, num_experts, rng)),
            iterations,
            temperature,
        }
    }

    /// The projection weight.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access for the optimizer.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Runs the Sinkhorn normalization on a score matrix: alternately
    /// scale columns to sum `tokens/experts` and rows to sum 1.
    fn sinkhorn_plan(&self, logits: &Matrix) -> Matrix {
        let tokens = logits.rows();
        let experts = logits.cols();
        let target_col = tokens as f32 / experts as f32;
        let mut p = logits.map(|v| exp(v / self.temperature));
        for _ in 0..self.iterations {
            // Column normalization.
            let mut col_sums = vec![0.0f32; experts];
            for i in 0..tokens {
                for (s, v) in col_sums.iter_mut().zip(p.row(i)) {
                    *s += v;
                }
            }
            for i in 0..tokens {
                for (v, s) in p.row_mut(i).iter_mut().zip(&col_sums) {
                    if *s > 0.0 {
                        *v *= target_col / s;
                    }
                }
            }
            // Row normalization.
            for i in 0..tokens {
                let sum: f32 = p.row(i).iter().sum();
                if sum > 0.0 {
                    let inv = 1.0 / sum;
                    for v in p.row_mut(i) {
                        *v *= inv;
                    }
                }
            }
        }
        p
    }

    /// Routes a batch of tokens: assignment from the Sinkhorn plan's
    /// row-argmax, confidence weights from the plain softmax (the
    /// differentiable path).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the router's hidden size.
    pub fn forward(&self, x: &Matrix) -> Routing {
        let logits = matmul(x, self.weight.value());
        let probs = softmax_rows(&logits);
        let plan = self.sinkhorn_plan(&logits);
        let mut expert_indices = Vec::with_capacity(x.rows());
        let mut weights = Vec::with_capacity(x.rows());
        for t in 0..x.rows() {
            let row = plan.row(t);
            let e = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            expert_indices.push(e);
            weights.push(probs[(t, e)]);
        }
        Routing {
            probs,
            expert_indices,
            weights,
            top_k: 1,
        }
    }

    /// Backward pass (identical contract to [`crate::Router::backward`]).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the forward pass.
    pub fn backward(
        &mut self,
        x: &Matrix,
        routing: &Routing,
        d_weights: &[f32],
        d_probs_extra: Option<&Matrix>,
    ) -> Matrix {
        assert_eq!(d_weights.len(), routing.expert_indices.len());
        let mut d_probs = match d_probs_extra {
            Some(m) => m.clone(),
            None => Matrix::zeros(routing.probs.rows(), routing.probs.cols()),
        };
        for (t, (&e, &dw)) in routing.expert_indices.iter().zip(d_weights).enumerate() {
            d_probs[(t, e)] += dw;
        }
        let d_logits = softmax_rows_backward(&routing.probs, &d_probs);
        self.weight.accumulate(&matmul_tn(x, &d_logits));
        matmul_nt(&d_logits, self.weight.value())
    }
}

/// Max-over-mean load imbalance of an assignment histogram (1.0 =
/// perfectly balanced).
pub fn load_imbalance(tokens_per_expert: &[usize]) -> f64 {
    let total: usize = tokens_per_expert.iter().sum();
    if total == 0 || tokens_per_expert.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / tokens_per_expert.len() as f64;
    let max = *tokens_per_expert.iter().max().expect("nonempty") as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Router;
    use megablocks_tensor::init::seeded_rng;

    #[test]
    fn sinkhorn_is_more_balanced_than_greedy_top1() {
        let mut rng = seeded_rng(1);
        let hidden = 16;
        let experts = 8;
        let greedy = Router::new(hidden, experts, 1, &mut rng);
        let mut rng2 = seeded_rng(1);
        let sinkhorn = SinkhornRouter::new(hidden, experts, 8, 1.0, &mut rng2);
        // Skewed inputs: a common bias direction makes greedy routing
        // collapse onto few experts.
        let mut x = init::normal(256, hidden, 1.0, &mut rng);
        for i in 0..x.rows() {
            for v in x.row_mut(i).iter_mut().take(4) {
                *v += 2.0;
            }
        }
        let ig = load_imbalance(&greedy.forward(&x).tokens_per_expert());
        let is = load_imbalance(&sinkhorn.forward(&x).tokens_per_expert());
        assert!(
            is < ig,
            "sinkhorn imbalance {is:.2} should beat greedy {ig:.2}"
        );
        assert!(is < 2.0, "sinkhorn imbalance {is:.2} should be near 1");
    }

    #[test]
    fn approximate_balance_is_not_perfect() {
        // Clark et al. §7: the approximation is no longer guaranteed to
        // avoid imbalance — verify it's *approximately* balanced, not
        // exactly (hence their capacity factor 2, hence dropless value).
        let mut rng = seeded_rng(2);
        let sinkhorn = SinkhornRouter::new(12, 6, 4, 1.0, &mut rng);
        let x = init::normal(120, 12, 1.5, &mut rng);
        let counts = sinkhorn.forward(&x).tokens_per_expert();
        let imb = load_imbalance(&counts);
        assert!((1.0..2.5).contains(&imb), "imbalance {imb}");
        assert_eq!(counts.iter().sum::<usize>(), 120);
    }

    #[test]
    fn plan_marginals_converge() {
        let mut rng = seeded_rng(3);
        let router = SinkhornRouter::new(8, 4, 24, 1.0, &mut rng);
        let x = init::normal(32, 8, 1.0, &mut rng);
        let logits = matmul(&x, router.weight().value());
        let plan = router.sinkhorn_plan(&logits);
        // Rows sum to 1 (last normalization is row-wise).
        for t in 0..32 {
            let s: f32 = plan.row(t).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {t} sums to {s}");
        }
        // Columns approximately sum to tokens/experts.
        for e in 0..4 {
            let s: f32 = (0..32).map(|t| plan[(t, e)]).sum();
            assert!((s - 8.0).abs() < 1.0, "column {e} sums to {s}");
        }
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut rng = seeded_rng(4);
        let mut router = SinkhornRouter::new(6, 3, 4, 1.0, &mut rng);
        let x = init::normal(10, 6, 1.0, &mut rng);
        let routing = router.forward(&x);
        let d_weights = vec![0.1f32; 10];
        let dx = router.backward(&x, &routing, &d_weights, None);
        assert_eq!(dx.shape(), (10, 6));
        assert!(router.weight().grad().max_abs() > 0.0);
    }

    #[test]
    fn imbalance_helper_edges() {
        assert_eq!(load_imbalance(&[]), 1.0);
        assert_eq!(load_imbalance(&[0, 0]), 1.0);
        assert_eq!(load_imbalance(&[4, 4, 4, 4]), 1.0);
        assert_eq!(load_imbalance(&[8, 0, 0, 0]), 4.0);
    }
}
