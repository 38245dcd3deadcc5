//! Adam optimizer and gradient clipping, matching the Megatron-LM training
//! recipe the paper uses (Adam, global-norm clipping, warmup + decay LR).
//!
//! A step makes two passes over the parameters, both banded over the
//! worker pool:
//!
//! * [`grad_norm`] sums the squares of the gradients in `f64`, in an
//!   order fixed by the data alone: each gradient is cut into [`CHUNK`]-
//!   element chunks, a chunk sums into [`LANES`] accumulators (element `i`
//!   into lane `i % LANES`), and the chunk sums are added in ascending
//!   order. Bands own whole chunks, so the norm has the same bits at any
//!   band count. It only reads.
//! * The update reads each gradient as `(g * grad_scale) * clip_coef` in
//!   registers — the rounding the separate averaging and clipping passes
//!   made — updates both moments and the weight, and clears the gradient,
//!   in one pass.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use megablocks_core::Param;
use megablocks_exec::{self as exec, LaunchPlan};
use megablocks_resilience as resilience;
use megablocks_resilience::sites::EXEC_WORKER_PANIC;
use megablocks_tensor::Matrix;

/// Elements per chunk: the unit of the norm's summation order and of both
/// passes' bands.
const CHUNK: usize = 16 * 1024;

/// `f64` accumulators per chunk of the norm.
const LANES: usize = 8;

/// Parameters with fewer elements in all run as one band on the caller.
const PARALLEL_THRESHOLD: usize = 1 << 16;

/// Launches of the update in a row that may finish no chunk before a
/// pre-body panic is re-raised instead of retried.
const FRUITLESS_RELAUNCHES: usize = 3;

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
    /// gradients, in one pass banded over the pool.
    ///
    /// The pass runs under no ambient context, so a caller's deadline or
    /// cancel token cannot stop it half-done, and it updates every element
    /// exactly once: a band that panics before its body runs (the pool's
    /// injected worker panic) is relaunched.
    ///
    /// # Panics
    ///
    /// Panics if the parameter list changes shape or length between calls,
    /// and re-raises a panic from inside a band's body — part of that
    /// band's chunk is updated and cannot be re-run.
    pub fn step(&mut self, params: &mut [&mut Param], lr: f32) {
        self.update(params, lr, 1.0, 1.0);
    }

    /// [`Adam::step`] over the gradients `(g * grad_scale) * clip_coef`:
    /// the averaging over micro-steps and the clip, applied in registers
    /// with the two roundings the separate passes made (a factor of 1.0
    /// changes no bit).
    pub(crate) fn update(
        &mut self,
        params: &mut [&mut Param],
        lr: f32,
        grad_scale: f32,
        clip_coef: f32,
    ) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Matrix::zeros(p.value().rows(), p.value().cols()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), params.len(), "parameter list changed length");
        self.t += 1;
        let AdamConfig {
            beta1: b1,
            beta2: b2,
            eps,
            weight_decay: wd,
        } = self.cfg;
        let bias1 = 1.0 - b1.powi(self.t as i32);
        let bias2 = 1.0 - b2.powi(self.t as i32);
        // One zipped pass over a chunk's four equal-length slices: no
        // index, so no bounds checks, and the gradient is cleared where it
        // is read. Element-wise with no reduction, so the values do not
        // depend on the chunking.
        let body = |s: &mut Slab<'_>| {
            let moments = s.m.iter_mut().zip(s.v.iter_mut());
            let weights = s.w.iter_mut().zip(s.g.iter_mut());
            for ((mi, vi), (w, g)) in moments.zip(weights) {
                let g = std::mem::take(g) * grad_scale * clip_coef;
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let mhat = *mi / bias1;
                let vhat = *vi / bias2;
                *w -= lr * (mhat / (vhat.sqrt() + eps) + wd * *w);
            }
        };
        let mut slabs = Vec::new();
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            assert_eq!(p.value().shape(), m.shape(), "parameter shape changed");
            let (value, grad) = p.value_and_grad_mut();
            let weights = value.as_mut_slice().chunks_mut(CHUNK);
            let weights = weights.zip(grad.as_mut_slice().chunks_mut(CHUNK));
            let moments = m.as_mut_slice().chunks_mut(CHUNK);
            let moments = moments.zip(v.as_mut_slice().chunks_mut(CHUNK));
            slabs.extend(weights.zip(moments).map(|((w, g), (m, v))| Once {
                work: Slab { w, g, m, v },
                progress: Progress::Pending,
            }));
        }
        launch_exactly_once("optim.adam", &mut slabs, &|s| s.w.len(), &body);
    }
}

/// One chunk of one parameter: weight, gradient and both moments.
struct Slab<'a> {
    w: &'a mut [f32],
    g: &'a mut [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
}

/// How far a unit of exactly-once work got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Progress {
    Pending,
    Started,
    Done,
}

/// A unit of work that must run exactly once, and how far it got.
struct Once<T> {
    work: T,
    progress: Progress,
}

/// Runs `body` on every unit exactly once, banded over the pool with the
/// bands balanced by `len`, under no ambient context. A launch that
/// panics with no unit left half-done (the panic came before a band's
/// body) is relaunched for the units still pending; one that leaves a
/// unit started and not done re-raises its panic, as does a run of
/// [`FRUITLESS_RELAUNCHES`] launches that finish nothing.
fn launch_exactly_once<T: Send>(
    op: &'static str,
    units: &mut [Once<T>],
    len: &dyn Fn(&T) -> usize,
    body: &(dyn Fn(&mut T) + Sync),
) {
    let _detached = exec::cancel::detach();
    let band_lens = balanced_bands(units, |u| len(&u.work));
    let run = |band: &mut [Once<T>], _: usize| {
        for unit in band.iter_mut().filter(|u| u.progress == Progress::Pending) {
            unit.progress = Progress::Started;
            body(&mut unit.work);
            unit.progress = Progress::Done;
        }
    };
    let done = |units: &[Once<T>]| {
        units
            .iter()
            .filter(|u| u.progress == Progress::Done)
            .count()
    };
    let (mut recovering, mut fruitless) = (false, 0);
    loop {
        let before = done(units);
        let plan = LaunchPlan::over_bands(op, &mut *units, band_lens.clone(), &run);
        let Err(payload) = catch_unwind(AssertUnwindSafe(|| plan.launch())) else {
            if recovering {
                resilience::record_recovered(&EXEC_WORKER_PANIC);
            }
            return;
        };
        resilience::record_detected(&EXEC_WORKER_PANIC);
        recovering = true;
        fruitless = if done(units) > before {
            0
        } else {
            fruitless + 1
        };
        if units.iter().any(|u| u.progress == Progress::Started) || fruitless > FRUITLESS_RELAUNCHES
        {
            resume_unwind(payload);
        }
    }
}

/// Band lengths, in units, for a launch over `units`: as many bands as the
/// pool's parallelism target (one below [`PARALLEL_THRESHOLD`] elements),
/// band `b` closed before the first unit whose midpoint lies past
/// `(b + 1) / bands` of the elements. No band is empty.
fn balanced_bands<U>(units: &[U], len: impl Fn(&U) -> usize) -> Vec<usize> {
    let total: usize = units.iter().map(&len).sum();
    let bands = exec::parallelism_for(total, PARALLEL_THRESHOLD).clamp(1, units.len().max(1));
    let mut lens = Vec::with_capacity(bands);
    let (mut start, mut seen) = (0, 0);
    for (i, pair) in units.windows(2).enumerate() {
        seen += len(&pair[0]);
        let next_mid = 2 * seen + len(&pair[1]);
        if lens.len() + 1 < bands && next_mid * bands >= 2 * total * (lens.len() + 1) {
            lens.push(i + 1 - start);
            start = i + 1;
        }
    }
    lens.push(units.len() - start);
    lens
}

/// One chunk of a gradient and the sum of its squares.
struct SquareSum<'g> {
    grad: &'g [f32],
    sum: f64,
}

/// The global L2 norm of the gradients `g * grad_scale`, in `f64`, in the
/// fixed order the module describes. Every `f32` square is exact and
/// finite in `f64`, so the norm is finite exactly when every gradient
/// element is.
pub(crate) fn grad_norm(params: &[&mut Param], grad_scale: f32) -> f64 {
    let mut chunks: Vec<SquareSum<'_>> = params
        .iter()
        .flat_map(|p| p.grad().as_slice().chunks(CHUNK))
        .map(|grad| SquareSum { grad, sum: 0.0 })
        .collect();
    let band_lens = balanced_bands(&chunks, |c| c.grad.len());
    let body = |band: &mut [SquareSum<'_>], _: usize| {
        for chunk in band {
            chunk.sum = square_sum(chunk.grad, grad_scale);
        }
    };
    LaunchPlan::over_bands("optim.grad_norm", &mut chunks, band_lens, &body).launch();
    chunks.iter().fold(0.0, |total, c| total + c.sum).sqrt()
}

/// `Σ (g * scale)²` over one chunk: element `i` into lane `i % LANES`,
/// then the lanes in ascending order.
fn square_sum(grad: &[f32], scale: f32) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let (groups, tail) = grad.as_chunks::<LANES>();
    for group in groups {
        for (lane, &g) in lanes.iter_mut().zip(group) {
            let x = f64::from(g * scale);
            *lane += x * x;
        }
    }
    for (lane, &g) in lanes.iter_mut().zip(tail) {
        let x = f64::from(g * scale);
        *lane += x * x;
    }
    lanes.iter().fold(0.0, |total, lane| total + lane)
}

/// The factor a clip at `max_norm` scales the gradients by, when the
/// pre-clip `norm` exceeds it.
pub(crate) fn clip_coef(norm: f32, max_norm: f32) -> Option<f32> {
    (norm > max_norm && norm > 0.0).then(|| max_norm / norm)
}

/// Clips gradients to a maximum global L2 norm; returns the pre-clip norm.
///
/// Matches Megatron-LM's `clip_grad_norm` (the paper trains with the
/// gradient-clipping settings of Shoeybi et al. 2019, i.e. clip at 1.0).
/// The norm is the fixed-order banded one the module describes; the
/// trainer folds the rescale into its update instead of calling this.
pub fn clip_grad_norm(params: &mut [&mut Param], max_norm: f32) -> f32 {
    let norm = grad_norm(params, 1.0) as f32;
    if let Some(coef) = clip_coef(norm, max_norm) {
        for p in params.iter_mut() {
            p.grad_mut().scale(coef);
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

    /// The fused update is the separate passes, bit for bit: averaging
    /// over `micro_steps`, the clip rescale and the Adam formula as `step`
    /// used to spell it (one bounds-checked index per matrix per element)
    /// are written out here as three passes and run beside the optimizer
    /// for several steps, weight decay on, over parameters of two shapes
    /// and several chunks. The norm the clip divides by is summed
    /// serially here, in parameter order, and must equal the fixed-order
    /// one.
    fn fused_update_matches_the_separate_passes(micro_steps: usize, clip: f32) {
        let cfg = AdamConfig {
            weight_decay: 0.01,
            ..AdamConfig::default()
        };
        let wave = |rows, cols, phase: f32| {
            Matrix::from_fn(rows, cols, |i, j| {
                ((i * cols + j) as f32 * 0.37 + phase).sin()
            })
        };
        let shapes = [(7, 5), (1, 33), (3, CHUNK + 11)];
        let mut params: Vec<Param> = shapes
            .iter()
            .enumerate()
            .map(|(k, &(r, c))| Param::new(wave(r, c, k as f32)))
            .collect();
        let mut want: Vec<Vec<f32>> = params
            .iter()
            .map(|p| p.value().as_slice().to_vec())
            .collect();
        let mut m: Vec<Vec<f32>> = want.iter().map(|w| vec![0.0; w.len()]).collect();
        let mut v = m.clone();
        let mut opt = Adam::new(cfg);
        let scale = 1.0 / micro_steps as f32;
        let mut clipped_steps = 0;
        for t in 1..=6 {
            let lr = 0.05 / t as f32;
            let bias1 = 1.0 - cfg.beta1.powi(t);
            let bias2 = 1.0 - cfg.beta2.powi(t);
            // Accumulation, as the model's backward adds micro-batches.
            let mut grads: Vec<Vec<f32>> = Vec::new();
            for (k, p) in params.iter_mut().enumerate() {
                let (rows, cols) = p.value().shape();
                for micro in 0..micro_steps {
                    let phase = t as f32 + k as f32 + 0.5 * micro as f32;
                    p.grad_mut().add_assign(&wave(rows, cols, phase));
                }
                grads.push(p.grad().as_slice().to_vec());
            }
            // Pass 1: average.
            for g in grads.iter_mut().flatten() {
                *g *= scale;
            }
            // Pass 2: clip by the serially summed norm.
            let mut sq = 0.0f64;
            for g in grads.iter().flatten() {
                sq += f64::from(*g) * f64::from(*g);
            }
            let norm = sq.sqrt() as f32;
            let refs: Vec<&mut Param> = params.iter_mut().collect();
            let fused_norm = grad_norm(&refs, scale) as f32;
            assert_eq!(fused_norm.to_bits(), norm.to_bits(), "norm at step {t}");
            let coef = clip_coef(norm, clip);
            if let Some(coef) = coef {
                clipped_steps += 1;
                for g in grads.iter_mut().flatten() {
                    *g *= coef;
                }
            }
            // Pass 3: the indexed formula.
            for (k, grad) in grads.iter().enumerate() {
                for i in 0..want[k].len() {
                    let g = grad[i];
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
            if micro_steps == 1 && coef.is_none() {
                opt.step(&mut refs, lr);
            } else {
                opt.update(&mut refs, lr, scale, coef.unwrap_or(1.0));
            }
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
        assert_eq!(clipped_steps > 0, clip < 1.0, "the clip is active as asked");
        let (_, got_m, got_v) = opt.state();
        for k in 0..params.len() {
            assert_eq!(got_m[k].as_slice(), &m[k][..]);
            assert_eq!(got_v[k].as_slice(), &v[k][..]);
        }
    }

    #[test]
    fn step_is_bit_identical_to_the_indexed_formula() {
        fused_update_matches_the_separate_passes(1, f32::MAX);
    }

    #[test]
    fn fused_average_and_clip_are_bit_identical_to_three_passes() {
        fused_update_matches_the_separate_passes(2, 0.5);
    }

    #[test]
    fn the_norm_is_finite_exactly_when_every_gradient_is() {
        let mut p = Param::new(Matrix::zeros(3, CHUNK));
        // Squares past `f32::MAX` are finite in `f64`, and so is their sum.
        p.grad_mut().as_mut_slice().fill(f32::MAX);
        assert!(grad_norm(&[&mut p], 1.0).is_finite());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut q = Param::new(Matrix::zeros(3, CHUNK));
            q.grad_mut().as_mut_slice()[CHUNK + 5] = bad;
            let norm = grad_norm(&[&mut p, &mut q], 1.0);
            assert!(!norm.is_finite(), "{bad} gave a finite norm {norm}");
        }
    }

    #[test]
    fn the_norm_has_the_same_bits_at_every_band_count() {
        let mut p = Param::new(Matrix::from_fn(5, CHUNK + 3, |i, j| {
            ((i * 7919 + j) as f32 * 0.013).sin() * 1e-3
        }));
        let mut q = Param::new(Matrix::from_fn(2, 9, |i, j| (i + j) as f32));
        let norms: Vec<u64> = [1, 2, 3, 5]
            .map(|threads| {
                exec::scoped_parallelism(threads, || grad_norm(&[&mut p, &mut q], 0.5).to_bits())
            })
            .to_vec();
        assert!(norms.windows(2).all(|w| w[0] == w[1]), "{norms:?}");
    }

    #[test]
    fn bands_are_balanced_by_elements_and_never_empty() {
        let sizes = [CHUNK, 3, CHUNK, CHUNK, 7, CHUNK, 1];
        for threads in 1..=8 {
            let lens = exec::scoped_parallelism(threads, || balanced_bands(&sizes, |&n| n));
            assert_eq!(lens.iter().sum::<usize>(), sizes.len());
            assert!(lens.iter().all(|&n| n > 0), "{threads} threads: {lens:?}");
            assert!(lens.len() <= threads.min(sizes.len()), "{lens:?}");
        }
        let two = exec::scoped_parallelism(2, || balanced_bands(&sizes, |&n| n));
        assert_eq!(two, [3, 4], "two bands of two chunks' elements each");
        let small = exec::scoped_parallelism(4, || balanced_bands(&[5, 6], |&n| n));
        assert_eq!(small, [2], "below the threshold: one band");
    }

    #[test]
    fn a_panic_inside_a_started_body_is_re_raised_and_nothing_reruns() {
        let mut units: Vec<Once<Vec<f32>>> = (0..6)
            .map(|_| Once {
                work: vec![0.0; PARALLEL_THRESHOLD],
                progress: Progress::Pending,
            })
            .collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec::scoped_parallelism(3, || {
                let body = |work: &mut Vec<f32>| {
                    work[0] += 1.0;
                    assert!(work.len() < PARALLEL_THRESHOLD, "torn on purpose");
                };
                launch_exactly_once("test.torn", &mut units, &|w| w.len(), &body);
            })
        }));
        assert!(caught.is_err(), "a torn unit must re-raise");
        assert!(units.iter().any(|u| u.progress == Progress::Started));
        assert!(
            units.iter().all(|u| u.work[0] <= 1.0),
            "no unit's body ran twice"
        );
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
