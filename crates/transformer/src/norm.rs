//! Layer normalization with trainable gain/bias, wrapping the primitives
//! from `megablocks_tensor::ops`.

use megablocks_core::Param;
use megablocks_tensor::ops::{layer_norm, layer_norm_backward, LayerNormCache};
use megablocks_tensor::Matrix;

/// A layer-norm module: `y = (x - mean) / std * gamma + beta` per row.
///
/// `gamma`/`beta` are stored as `1 x hidden` [`Param`]s so one optimizer
/// path handles every parameter in the model.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm over `hidden` features (`gamma = 1`,
    /// `beta = 0`, `eps = 1e-5`).
    pub fn new(hidden: usize) -> Self {
        Self {
            gamma: Param::new(Matrix::full(1, hidden, 1.0)),
            beta: Param::new(Matrix::zeros(1, hidden)),
            eps: 1e-5,
        }
    }

    /// Trainable parameters, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    /// Parameter count (`2 * hidden`).
    pub fn param_count(&self) -> usize {
        self.gamma.count() + self.beta.count()
    }

    /// Forward pass; the cache feeds [`LayerNorm::backward`]. Both are in
    /// the calling thread's workspace arena, as is `backward`'s `dx`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, LayerNormCache) {
        layer_norm(
            x,
            self.gamma.value().row(0),
            self.beta.value().row(0),
            self.eps,
        )
    }

    /// Backward pass: accumulates gamma/beta gradients, returns `dx`.
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix, cache: &LayerNormCache) -> Matrix {
        let (dx, dgamma, dbeta) = layer_norm_backward(x, dy, self.gamma.value().row(0), cache);
        for (g, v) in self.gamma.grad_mut().row_mut(0).iter_mut().zip(&dgamma) {
            *g += v;
        }
        for (g, v) in self.beta.grad_mut().row_mut(0).iter_mut().zip(&dbeta) {
            *g += v;
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_init_normalizes() {
        let ln = LayerNorm::new(4);
        let x = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32);
        let (y, _) = ln.forward(&x);
        for i in 0..3 {
            let mean: f32 = y.row(i).iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4);
        }
        assert_eq!(ln.param_count(), 8);
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let mut ln = LayerNorm::new(4);
        let x = Matrix::from_fn(2, 4, |i, j| ((i + j) as f32).sin());
        let (_, cache) = ln.forward(&x);
        let dy = Matrix::full(2, 4, 1.0);
        let dx = ln.backward(&x, &dy, &cache);
        assert_eq!(dx.shape(), (2, 4));
        // dbeta = column sums of dy = 2 everywhere.
        assert!(ln.params_mut()[1]
            .grad()
            .approx_eq(&Matrix::full(1, 4, 2.0), 1e-6));
    }
}
