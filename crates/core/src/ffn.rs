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

    #[test]
    fn forward_shape() {
        let mut rng = seeded_rng(1);
        let ffn = DenseFfn::new(8, 32, &mut rng);
        let x = init::normal(5, 8, 1.0, &mut rng);
        let (y, _) = ffn.forward(&x);
        assert_eq!(y.shape(), (5, 8));
        assert_eq!(ffn.param_count(), 2 * 8 * 32 + 32 + 8);
    }
}
