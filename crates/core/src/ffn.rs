//! The dense feed-forward layer of a standard Transformer — the layer that
//! MoE layers replace (paper §2), used by the Megatron-LM dense baseline.

use megablocks_tensor::ops::{add_bias, bias_backward, gelu_grad_mul, gelu_into};
use megablocks_tensor::{init, pooled_matmul, Matrix, Trans};
use rand::rngs::StdRng;

use crate::Param;

/// Forward-pass cache for [`DenseFfn::backward`].
#[derive(Debug, Clone)]
pub struct FfnCache {
    x: Matrix,
    h_pre: Matrix,
    h_act: Matrix,
}

/// A 2-layer MLP with GeLU and biases: `y = gelu(x W1 + b1) W2 + b2` —
/// the GPT-2 / Megatron FFN.
///
/// Matches the expert architecture of the MoE layers (which are bias-free,
/// as in MegaBlocks) up to the biases, so parameter-count and FLOP
/// comparisons are apples-to-apples.
#[derive(Debug, Clone)]
pub struct DenseFfn {
    w1: Param,
    b1: Param,
    w2: Param,
    b2: Param,
}

impl DenseFfn {
    /// Creates an FFN with GPT-2-style initialization (zero biases).
    pub fn new(hidden_size: usize, ffn_hidden_size: usize, rng: &mut StdRng) -> Self {
        Self {
            w1: Param::new(init::gpt2_normal(hidden_size, ffn_hidden_size, rng)),
            b1: Param::new(Matrix::zeros(1, ffn_hidden_size)),
            w2: Param::new(init::gpt2_normal(ffn_hidden_size, hidden_size, rng)),
            b2: Param::new(Matrix::zeros(1, hidden_size)),
        }
    }

    /// All trainable parameters, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2]
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.w1.count() + self.b1.count() + self.w2.count() + self.b2.count()
    }

    /// Forward pass on `x` (`num_tokens x hidden_size`). The output and
    /// the cache are in the calling thread's workspace arena, which gets
    /// them back when they are dropped; the cache keeps a copy of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the layer's hidden size.
    pub fn forward(&self, x: &Matrix) -> (Matrix, FfnCache) {
        self.forward_owned(x.pooled_copy())
    }

    /// [`DenseFfn::forward`] with `x` moved into the cache, not copied.
    #[doc(hidden)]
    pub fn forward_owned(&self, x: Matrix) -> (Matrix, FfnCache) {
        let mut h_pre = pooled_matmul(&x, Trans::N, self.w1.value(), Trans::N);
        add_bias(&mut h_pre, self.b1.value().row(0));
        let mut h_act = Matrix::pooled_zeros(h_pre.rows(), h_pre.cols());
        gelu_into(h_act.as_mut_slice(), h_pre.as_slice());
        let mut y = pooled_matmul(&h_act, Trans::N, self.w2.value(), Trans::N);
        add_bias(&mut y, self.b2.value().row(0));
        (y, FfnCache { x, h_pre, h_act })
    }

    /// Backward pass; accumulates weight gradients and returns the input
    /// gradient, in the calling thread's workspace arena.
    ///
    /// # Panics
    ///
    /// Panics if `d_out` does not match the forward output shape.
    pub fn backward(&mut self, cache: &FfnCache, d_out: &Matrix) -> Matrix {
        for (g, v) in self
            .b2
            .grad_mut()
            .row_mut(0)
            .iter_mut()
            .zip(bias_backward(d_out))
        {
            *g += v;
        }
        let mut dh = pooled_matmul(d_out, Trans::N, self.w2.value(), Trans::T);
        self.w2.accumulate_tn(&cache.h_act, d_out);
        gelu_grad_mul(dh.as_mut_slice(), cache.h_pre.as_slice());
        for (g, v) in self
            .b1
            .grad_mut()
            .row_mut(0)
            .iter_mut()
            .zip(bias_backward(&dh))
        {
            *g += v;
        }
        self.w1.accumulate_tn(&cache.x, &dh);
        pooled_matmul(&dh, Trans::N, self.w1.value(), Trans::T)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_tensor::init::seeded_rng;
    use megablocks_tensor::ops::cross_entropy;
    use megablocks_tensor::{matmul, matmul_nt};

    #[test]
    fn forward_shape() {
        let mut rng = seeded_rng(1);
        let ffn = DenseFfn::new(8, 32, &mut rng);
        let x = init::normal(5, 8, 1.0, &mut rng);
        let (y, _) = ffn.forward(&x);
        assert_eq!(y.shape(), (5, 8));
        assert_eq!(ffn.param_count(), 2 * 8 * 32 + 32 + 8);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = seeded_rng(2);
        let mut ffn = DenseFfn::new(6, 10, &mut rng);
        let x = init::normal(4, 6, 0.7, &mut rng);
        let readout = init::normal(6, 3, 0.5, &mut rng);
        let targets = vec![0usize, 1, 2, 1];

        let objective = |ffn: &DenseFfn, x: &Matrix| -> f32 {
            let (y, _) = ffn.forward(x);
            let logits = matmul(&y, &readout);
            cross_entropy(&logits, &targets, None).0
        };

        let (y, cache) = ffn.forward(&x);
        let logits = matmul(&y, &readout);
        let (_, dlogits) = cross_entropy(&logits, &targets, None);
        let d_out = matmul_nt(&dlogits, &readout);
        let dx = ffn.backward(&cache, &d_out);

        let eps = 1e-3;
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let mut xp = x.clone();
                xp[(i, j)] += eps;
                let mut xm = x.clone();
                xm[(i, j)] -= eps;
                let num = (objective(&ffn, &xp) - objective(&ffn, &xm)) / (2.0 * eps);
                assert!(
                    (num - dx[(i, j)]).abs() < 3e-2 * (1.0 + num.abs()),
                    "dx({i},{j}): numeric {num}, analytic {}",
                    dx[(i, j)]
                );
            }
        }

        for &(r, c) in &[(0usize, 0usize), (3, 7)] {
            let ana = ffn.w1.grad()[(r, c)];
            let orig = ffn.w1.value()[(r, c)];
            ffn.w1.value_mut()[(r, c)] = orig + eps;
            let fp = objective(&ffn, &x);
            ffn.w1.value_mut()[(r, c)] = orig - eps;
            let fm = objective(&ffn, &x);
            ffn.w1.value_mut()[(r, c)] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                "dw1({r},{c}): numeric {num}, analytic {ana}"
            );
        }
    }
}
