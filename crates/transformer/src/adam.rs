//! Adam optimizer and gradient clipping, matching the Megatron-LM training
//! recipe the paper uses (Adam, global-norm clipping, warmup + decay LR).

use megablocks_core::Param;
use megablocks_tensor::Matrix;

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay (AdamW-style; 0 disables).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Adam optimizer state over a fixed, ordered parameter list.
///
/// The parameter ordering must be stable across calls (which
/// `TransformerLm::params_mut` guarantees); state is allocated lazily on
/// the first step.
#[derive(Debug, Default)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: u32,
}

impl Adam {
    /// Creates an optimizer with the given hyperparameters.
    pub fn new(cfg: AdamConfig) -> Self {
        Self {
            cfg,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u32 {
        self.t
    }

    /// The optimizer state for checkpointing: `(t, m, v)`. The moment
    /// vectors are empty until the first step.
    pub fn state(&self) -> (u64, &[Matrix], &[Matrix]) {
        (u64::from(self.t), &self.m, &self.v)
    }

    /// Restores optimizer state captured by [`Adam::state`] (typically
    /// out of a v2 checkpoint). Empty moment vectors reset the optimizer
    /// to its lazily-initialized pristine state.
    ///
    /// # Panics
    ///
    /// Panics if `m` and `v` disagree in length or element shapes — a
    /// caller bug, since checkpoint loading validates shapes against the
    /// model first.
    pub fn restore(&mut self, t: u64, m: Vec<Matrix>, v: Vec<Matrix>) {
        assert_eq!(m.len(), v.len(), "moment vectors disagree in length");
        for (i, (mm, vv)) in m.iter().zip(&v).enumerate() {
            assert_eq!(
                mm.shape(),
                vv.shape(),
                "moment {i} shapes disagree between m and v"
            );
        }
        self.t = u32::try_from(t).expect("optimizer step count fits in u32");
        self.m = m;
        self.v = v;
    }

    /// Applies one Adam update at learning rate `lr` and zeroes the
    /// gradients.
    ///
    /// # Panics
    ///
    /// Panics if the parameter list changes shape or length between calls.
    pub fn step(&mut self, params: &mut [&mut Param], lr: f32) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Matrix::zeros(p.value().rows(), p.value().cols()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), params.len(), "parameter list changed length");
        self.t += 1;
        let b1 = self.cfg.beta1;
        let b2 = self.cfg.beta2;
        let bias1 = 1.0 - b1.powi(self.t as i32);
        let bias2 = 1.0 - b2.powi(self.t as i32);
        let wd = self.cfg.weight_decay;
        let eps = self.cfg.eps;
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            assert_eq!(p.value().shape(), m.shape(), "parameter shape changed");
            // One zipped pass over the four equal-length slices: no index,
            // so no bounds checks, and the gradient is cleared where it is
            // read. Element-wise with no reduction, so the values are the
            // ones the indexed loop produced, bit for bit.
            let (value, grad) = p.value_and_grad_mut();
            let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
            let weights = value.as_mut_slice().iter_mut().zip(grad.as_mut_slice());
            for ((mi, vi), (w, g)) in moments.zip(weights) {
                *mi = b1 * *mi + (1.0 - b1) * *g;
                *vi = b2 * *vi + (1.0 - b2) * *g * *g;
                let mhat = *mi / bias1;
                let vhat = *vi / bias2;
                *w -= lr * (mhat / (vhat.sqrt() + eps) + wd * *w);
                *g = 0.0;
            }
        }
    }
}

/// Clips gradients to a maximum global L2 norm; returns the pre-clip norm.
///
/// Matches Megatron-LM's `clip_grad_norm` (the paper trains with the
/// gradient-clipping settings of Shoeybi et al. 2019, i.e. clip at 1.0).
pub fn clip_grad_norm(params: &mut [&mut Param], max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    for p in params.iter() {
        for g in p.grad().as_slice() {
            sq += f64::from(*g) * f64::from(*g);
        }
    }
    let norm = sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params.iter_mut() {
            p.grad_mut().scale(scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(x0: f32) -> Param {
        Param::new(Matrix::full(1, 1, x0))
    }

    #[test]
    fn adam_minimizes_a_quadratic() {
        // f(x) = (x - 3)^2, grad = 2(x - 3).
        let mut p = quadratic_param(0.0);
        let mut opt = Adam::new(AdamConfig::default());
        for _ in 0..400 {
            let x = p.value()[(0, 0)];
            p.grad_mut()[(0, 0)] = 2.0 * (x - 3.0);
            opt.step(&mut [&mut p], 0.05);
        }
        let x = p.value()[(0, 0)];
        assert!((x - 3.0).abs() < 0.05, "converged to {x}");
        assert_eq!(opt.steps(), 400);
    }

    /// The zipped update is the indexed one, bit for bit: the formula as
    /// `step` used to spell it (one bounds-checked index per matrix per
    /// element) is written out here and run beside the optimizer for
    /// several steps, weight decay on, over parameters of two shapes.
    #[test]
    fn step_is_bit_identical_to_the_indexed_formula() {
        let cfg = AdamConfig {
            weight_decay: 0.01,
            ..AdamConfig::default()
        };
        let wave = |rows, cols, phase: f32| {
            Matrix::from_fn(rows, cols, |i, j| {
                ((i * cols + j) as f32 * 0.37 + phase).sin()
            })
        };
        let mut params = [Param::new(wave(7, 5, 0.0)), Param::new(wave(1, 33, 1.0))];
        let mut want: Vec<Vec<f32>> = params
            .iter()
            .map(|p| p.value().as_slice().to_vec())
            .collect();
        let mut m: Vec<Vec<f32>> = want.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut v = m.clone();
        let mut opt = Adam::new(cfg);
        for t in 1..=6 {
            let lr = 0.05 / t as f32;
            let bias1 = 1.0 - cfg.beta1.powi(t);
            let bias2 = 1.0 - cfg.beta2.powi(t);
            for (k, p) in params.iter_mut().enumerate() {
                let (rows, cols) = p.value().shape();
                let grad = wave(rows, cols, t as f32 + k as f32);
                p.accumulate(&grad);
                for i in 0..want[k].len() {
                    let g = grad.as_slice()[i];
                    let mi = cfg.beta1 * m[k][i] + (1.0 - cfg.beta1) * g;
                    let vi = cfg.beta2 * v[k][i] + (1.0 - cfg.beta2) * g * g;
                    m[k][i] = mi;
                    v[k][i] = vi;
                    let mhat = mi / bias1;
                    let vhat = vi / bias2;
                    let w = want[k][i];
                    want[k][i] = w - lr * (mhat / (vhat.sqrt() + cfg.eps) + cfg.weight_decay * w);
                }
            }
            let mut refs: Vec<&mut Param> = params.iter_mut().collect();
            opt.step(&mut refs, lr);
            for (k, p) in params.iter().enumerate() {
                let got: Vec<u32> = p.value().as_slice().iter().map(|x| x.to_bits()).collect();
                let want_bits: Vec<u32> = want[k].iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want_bits, "parameter {k} diverged at step {t}");
                assert_eq!(
                    p.grad().max_abs(),
                    0.0,
                    "gradient {k} not cleared at step {t}"
                );
            }
        }
        let (_, got_m, got_v) = opt.state();
        for k in 0..params.len() {
            assert_eq!(got_m[k].as_slice(), &m[k][..]);
            assert_eq!(got_v[k].as_slice(), &v[k][..]);
        }
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = quadratic_param(1.0);
        p.grad_mut()[(0, 0)] = 5.0;
        let mut opt = Adam::new(AdamConfig::default());
        opt.step(&mut [&mut p], 0.1);
        assert_eq!(p.grad()[(0, 0)], 0.0);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = quadratic_param(1.0);
        let mut opt = Adam::new(AdamConfig {
            weight_decay: 0.5,
            ..AdamConfig::default()
        });
        // Zero gradient: only decay acts.
        opt.step(&mut [&mut p], 0.1);
        assert!(p.value()[(0, 0)] < 1.0);
    }

    #[test]
    fn clip_reduces_large_norms_and_keeps_small_ones() {
        let mut a = Param::new(Matrix::full(1, 2, 0.0));
        a.grad_mut().row_mut(0).copy_from_slice(&[3.0, 4.0]); // norm 5
        let norm = clip_grad_norm(&mut [&mut a], 1.0);
        assert!((norm - 5.0).abs() < 1e-5);
        let g = a.grad();
        let new_norm = (g[(0, 0)].powi(2) + g[(0, 1)].powi(2)).sqrt();
        assert!((new_norm - 1.0).abs() < 1e-5);

        let mut b = Param::new(Matrix::full(1, 1, 0.0));
        b.grad_mut()[(0, 0)] = 0.5;
        let norm = clip_grad_norm(&mut [&mut b], 1.0);
        assert!((norm - 0.5).abs() < 1e-6);
        assert_eq!(b.grad()[(0, 0)], 0.5);
    }
}
