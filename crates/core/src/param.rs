use std::sync::OnceLock;

use megablocks_tensor::{gemm, Matrix, Trans};

/// A trainable parameter: a value matrix plus its accumulated gradient.
///
/// Layers accumulate gradients into [`Param::grad`] during `backward`; the
/// optimizer consumes them through [`Param::value`]/[`Param::grad`] pairs
/// and calls [`Param::zero_grad`] after each update — the same contract
/// Megatron-LM's fused optimizer has with its layers.
///
/// The gradient is allocated at its first use, so a model that only runs
/// inference never holds one. (Allocated up front, a model's untouched
/// zero gradients are resident or not depending on whether `calloc`
/// reuses freed heap memory for them: 8 MiB of `lm_generate`'s peak
/// resident set came and went with the heap's layout.)
#[derive(Debug, Clone)]
pub struct Param {
    value: Matrix,
    grad: OnceLock<Matrix>,
}

impl Param {
    /// Wraps an initial value; the gradient is zero, with the same shape.
    pub fn new(value: Matrix) -> Self {
        Self {
            value,
            grad: OnceLock::new(),
        }
    }

    /// The current parameter value.
    pub fn value(&self) -> &Matrix {
        &self.value
    }

    /// Mutable access to the value (used by the optimizer).
    pub fn value_mut(&mut self) -> &mut Matrix {
        &mut self.value
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &Matrix {
        let (rows, cols) = self.value.shape();
        self.grad.get_or_init(|| Matrix::zeros(rows, cols))
    }

    /// Mutable access to the gradient (used by layers to accumulate).
    pub fn grad_mut(&mut self) -> &mut Matrix {
        self.grad();
        self.grad.get_mut().expect("`grad` initialised it")
    }

    /// The value and the gradient, both mutable — for an optimizer that
    /// updates the value and clears the gradient in one pass.
    pub fn value_and_grad_mut(&mut self) -> (&mut Matrix, &mut Matrix) {
        self.grad();
        let grad = self.grad.get_mut().expect("`grad` initialised it");
        (&mut self.value, grad)
    }

    /// Adds `aᵀ·b` into the accumulated gradient as one accumulating GEMM:
    /// no temporary and no second pass. The same bits as accumulating a
    /// separately computed `aᵀ·b`: the kernel adds each element's finished
    /// sum once, and a sum that starts at `+0` is never `-0`, so
    /// `grad + (0 + sum) == grad + sum`.
    ///
    /// # Panics
    ///
    /// Panics if `aᵀ·b` has a different shape than the value.
    pub fn accumulate_tn(&mut self, a: &Matrix, b: &Matrix) {
        gemm(1.0, a, Trans::T, b, Trans::N, 1.0, self.grad_mut());
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        if let Some(grad) = self.grad.get_mut() {
            grad.fill_zero();
        }
    }

    /// Number of scalar parameters.
    pub fn count(&self) -> usize {
        self.value.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::new(Matrix::zeros(2, 2));
        let ones = Matrix::full(2, 2, 1.0);
        p.accumulate_tn(&ones, &Matrix::full(2, 2, 0.75));
        p.accumulate_tn(&ones, &Matrix::full(2, 2, 0.25));
        assert!(p.grad().approx_eq(&Matrix::full(2, 2, 2.0), 1e-6));
        p.zero_grad();
        assert_eq!(p.grad().max_abs(), 0.0);
        assert_eq!(p.count(), 4);
    }
}
