use megablocks_tensor::Matrix;

/// A trainable parameter: a value matrix plus its accumulated gradient.
///
/// Layers accumulate gradients into [`Param::grad`] during `backward`; the
/// optimizer consumes them through [`Param::value`]/[`Param::grad`] pairs
/// and calls [`Param::zero_grad`] after each update — the same contract
/// Megatron-LM's fused optimizer has with its layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    value: Matrix,
    grad: Matrix,
}

impl Param {
    /// Wraps an initial value; the gradient starts at zero with the same
    /// shape.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self { value, grad }
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
        &self.grad
    }

    /// Mutable access to the gradient (used by layers to accumulate).
    pub fn grad_mut(&mut self) -> &mut Matrix {
        &mut self.grad
    }

    /// The value and the gradient, both mutable — for an optimizer that
    /// updates the value and clears the gradient in one pass.
    pub fn value_and_grad_mut(&mut self) -> (&mut Matrix, &mut Matrix) {
        (&mut self.value, &mut self.grad)
    }

    /// Adds `g` into the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different shape than the value.
    pub fn accumulate(&mut self, g: &Matrix) {
        self.grad.add_assign(g);
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
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
        p.accumulate(&Matrix::full(2, 2, 1.5));
        p.accumulate(&Matrix::full(2, 2, 0.5));
        assert!(p.grad().approx_eq(&Matrix::full(2, 2, 2.0), 1e-6));
        p.zero_grad();
        assert_eq!(p.grad().max_abs(), 0.0);
        assert_eq!(p.count(), 4);
    }
}
