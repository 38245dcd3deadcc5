//! The learned top-k router (paper §2.1).
//!
//! Tokens are projected from `hidden_size` features to `num_experts` scores
//! by a learned weight matrix; scores are softmax-normalized and the top-k
//! experts per token are selected greedily. The selected probabilities are
//! the confidence weights that scale each expert's output (§2.4).

use megablocks_telemetry as telemetry;
use megablocks_tensor::ops::{softmax_rows, softmax_rows_backward_inplace};
use megablocks_tensor::{init, matmul, pooled_matmul, Matrix, Trans};
use rand::rngs::StdRng;

use crate::Param;

/// The routing decision for one batch of tokens.
///
/// Assignments are stored token-major: assignment `a = t * top_k + k` is
/// token `t`'s `k`-th expert choice. For top-1 routing (the paper's
/// configuration) there is exactly one assignment per token.
#[derive(Debug, Clone, PartialEq)]
pub struct Routing {
    /// Softmax router probabilities, `num_tokens x num_experts`. Cached for
    /// the backward pass and the load-balancing loss.
    pub probs: Matrix,
    /// Expert chosen by each assignment (length `num_tokens * top_k`).
    pub expert_indices: Vec<usize>,
    /// Router probability of each assignment — the confidence weight that
    /// scales the expert output.
    pub weights: Vec<f32>,
    /// Number of experts each token is routed to.
    pub top_k: usize,
}

impl Routing {
    /// Number of tokens routed.
    pub fn num_tokens(&self) -> usize {
        self.probs.rows()
    }

    /// Number of experts.
    pub fn num_experts(&self) -> usize {
        self.probs.cols()
    }

    /// Histogram of assignments per expert.
    pub fn tokens_per_expert(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_experts()];
        for &e in &self.expert_indices {
            counts[e] += 1;
        }
        counts
    }
}

/// The learned router: a linear projection to expert scores plus greedy
/// top-k selection.
#[derive(Debug, Clone)]
pub struct Router {
    weight: Param,
    top_k: usize,
}

impl Router {
    /// Creates a router for `hidden_size` features and `num_experts`
    /// experts, with GPT-2-style `N(0, 0.02)` initialization.
    ///
    /// # Panics
    ///
    /// Panics if `top_k` is zero or exceeds `num_experts`.
    pub fn new(hidden_size: usize, num_experts: usize, top_k: usize, rng: &mut StdRng) -> Self {
        assert!(
            top_k >= 1 && top_k <= num_experts,
            "top_k must be in 1..=num_experts"
        );
        Self {
            weight: Param::new(init::gpt2_normal(hidden_size, num_experts, rng)),
            top_k,
        }
    }

    /// The router projection weight (`hidden_size x num_experts`).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access for the optimizer.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// The number of experts selected per token.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Routes a batch of tokens (`num_tokens x hidden_size`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the router's hidden size.
    pub fn forward(&self, x: &Matrix) -> Routing {
        let _span = telemetry::span("moe.router.forward");
        let probs = self.probs(x);
        let mut expert_indices = Vec::with_capacity(probs.rows() * self.top_k);
        let mut weights = Vec::with_capacity(probs.rows() * self.top_k);
        for t in 0..probs.rows() {
            let row = probs.row(t);
            for &e in top_k_indices(row, self.top_k).iter() {
                expert_indices.push(e);
                weights.push(row[e]);
            }
        }
        Routing {
            probs,
            expert_indices,
            weights,
            top_k: self.top_k,
        }
    }

    /// Softmax router probabilities of `x`, `num_tokens x num_experts`.
    pub(crate) fn probs(&self, x: &Matrix) -> Matrix {
        softmax_rows(&matmul(x, self.weight.value()))
    }

    /// Backward pass of the router.
    ///
    /// * `x` — the forward input.
    /// * `routing` — the forward output.
    /// * `d_weights` — gradient with respect to each assignment's
    ///   confidence weight (from the weighted un-permutation, §2.4).
    /// * `d_probs_extra` — optional additional gradient on the full
    ///   probability matrix (from the load-balancing loss).
    ///
    /// Accumulates the weight gradient internally and returns the gradient
    /// with respect to `x`, in the calling thread's workspace arena.
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
        assert_eq!(
            d_weights.len(),
            routing.expert_indices.len(),
            "one weight gradient per assignment required"
        );
        let _span = telemetry::span("moe.router.backward");
        let mut d_probs = match d_probs_extra {
            Some(m) => {
                assert_eq!(
                    m.shape(),
                    routing.probs.shape(),
                    "d_probs_extra shape mismatch"
                );
                m.clone()
            }
            None => Matrix::zeros(routing.probs.rows(), routing.probs.cols()),
        };
        for (a, (&e, &dw)) in routing.expert_indices.iter().zip(d_weights).enumerate() {
            let t = a / routing.top_k;
            d_probs[(t, e)] += dw;
        }
        // The probability gradient becomes the logit gradient in place.
        let experts = routing.probs.cols();
        let (probs, d_logits) = (routing.probs.as_slice(), d_probs.as_mut_slice());
        softmax_rows_backward_inplace(probs, d_logits, experts);
        self.weight.accumulate_tn(x, &d_probs);
        pooled_matmul(&d_probs, Trans::N, self.weight.value(), Trans::T)
    }
}

/// Indices of the `k` largest values of `row`, in descending value order
/// (ties broken toward the lower index, matching a stable greedy argmax).
/// `f32::total_cmp` keeps the comparator a total order when a poisoned
/// layer below hands the router NaNs (each sorts to one end, by its sign
/// bit), so the sort cannot panic before the trainer's non-finite rollback
/// sees them.
pub(crate) fn top_k_indices(row: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..row.len()).collect();
    idx.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_tensor::init::seeded_rng;

    #[test]
    fn top_k_indices_selects_largest() {
        assert_eq!(top_k_indices(&[0.1, 0.5, 0.4], 1), vec![1]);
        assert_eq!(top_k_indices(&[0.1, 0.5, 0.4], 2), vec![1, 2]);
        // Ties go to the lower index.
        assert_eq!(top_k_indices(&[0.3, 0.3, 0.3], 2), vec![0, 1]);
    }

    #[test]
    fn nan_rows_at_64_experts_sort_without_panicking() {
        // `partial_cmp(..).unwrap_or(Equal)` is not a total order once a
        // value is NaN, and the standard sort aborts on that from 64
        // values up. (The selection alone: in a debug build the GEMM's
        // own NaN sweep stops `Router::forward` first.)
        for sign in [1.0f32, -1.0] {
            let row: Vec<f32> = (0..64)
                .map(|i| {
                    if i % 3 == 0 {
                        sign * f32::NAN
                    } else {
                        i as f32
                    }
                })
                .collect();
            let picked = top_k_indices(&row, 2);
            assert_eq!(picked.len(), 2);
            assert!(picked.iter().all(|&e| e < 64));
        }
    }

    #[test]
    fn forward_shapes_and_weight_consistency() {
        let mut rng = seeded_rng(1);
        let router = Router::new(8, 4, 2, &mut rng);
        let x = init::normal(10, 8, 1.0, &mut rng);
        let r = router.forward(&x);
        assert_eq!(r.probs.shape(), (10, 4));
        assert_eq!(r.expert_indices.len(), 20);
        assert_eq!(r.weights.len(), 20);
        // Weights are the probabilities at the selected indices.
        for (a, (&e, &w)) in r.expert_indices.iter().zip(&r.weights).enumerate() {
            let t = a / 2;
            assert_eq!(w, r.probs[(t, e)]);
        }
        // Top-1 choice has weight >= top-2 choice.
        for t in 0..10 {
            assert!(r.weights[2 * t] >= r.weights[2 * t + 1]);
        }
    }

    #[test]
    fn tokens_per_expert_sums_to_assignments() {
        let mut rng = seeded_rng(2);
        let router = Router::new(6, 3, 1, &mut rng);
        let x = init::normal(32, 6, 1.0, &mut rng);
        let r = router.forward(&x);
        let counts = r.tokens_per_expert();
        assert_eq!(counts.iter().sum::<usize>(), 32);
    }

    #[test]
    fn backward_matches_finite_difference() {
        // Scalar objective: sum over assignments of c_a * weight_a where
        // c_a are fixed coefficients (this is how the layer output depends
        // on routing weights).
        let mut rng = seeded_rng(3);
        let mut router = Router::new(5, 3, 1, &mut rng);
        let x = init::normal(6, 5, 1.0, &mut rng);
        let coef: Vec<f32> = (0..6).map(|i| (i as f32 * 0.7).sin()).collect();

        let objective = |router: &Router, x: &Matrix| -> f32 {
            let r = router.forward(x);
            r.weights.iter().zip(&coef).map(|(w, c)| w * c).sum()
        };

        let base_routing = router.forward(&x);
        let dx = router.backward(&x, &base_routing, &coef, None);

        // Finite difference on x. (Assignment indices may flip for some
        // perturbations; keep epsilon small and tolerate coarse agreement.)
        let eps = 1e-3;
        let mut checked = 0;
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let mut xp = x.clone();
                xp[(i, j)] += eps;
                let mut xm = x.clone();
                xm[(i, j)] -= eps;
                // Skip points where the top-k selection changes.
                let rp = router.forward(&xp);
                let rm = router.forward(&xm);
                if rp.expert_indices != base_routing.expert_indices
                    || rm.expert_indices != base_routing.expert_indices
                {
                    continue;
                }
                let num = (objective(&router, &xp) - objective(&router, &xm)) / (2.0 * eps);
                assert!(
                    (num - dx[(i, j)]).abs() < 3e-2 * (1.0 + num.abs()),
                    "dx mismatch at ({i},{j}): numeric {num}, analytic {}",
                    dx[(i, j)]
                );
                checked += 1;
            }
        }
        assert!(checked > 10, "too few finite-difference points were stable");

        // Weight gradient finite difference on one entry.
        let g = router.weight().grad()[(2, 1)];
        let orig = router.weight().value()[(2, 1)];
        router.weight_mut().value_mut()[(2, 1)] = orig + eps;
        let fp = objective(&router, &x);
        router.weight_mut().value_mut()[(2, 1)] = orig - eps;
        let fm = objective(&router, &x);
        router.weight_mut().value_mut()[(2, 1)] = orig;
        let num = (fp - fm) / (2.0 * eps);
        assert!(
            (num - g).abs() < 3e-2 * (1.0 + num.abs()),
            "dW mismatch: numeric {num}, analytic {g}"
        );
    }
}
