//! Causal multi-head self-attention with explicit backward pass and an
//! incremental (KV-cached) forward.

use megablocks_core::Param;
use megablocks_telemetry as telemetry;
use megablocks_tensor::ops::{
    add_bias, bias_backward, softmax_rows_backward, softmax_rows_inplace,
};
use megablocks_tensor::{gemm, init, matmul, matmul_nt, matmul_tn, Matrix, Trans};
use rand::rngs::StdRng;

/// What a forward pass keeps of its intermediates (`DroplessMoe`'s switch,
/// for `Attention`, `Block` and `TransformerLm`), which is also where they
/// live: retained ones outlive the step on the heap, the others are
/// borrowed from the calling thread's workspace arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retain {
    /// Everything `backward` reads.
    ForBackward,
    /// Only the output, which the caller recycles when done with it.
    Nothing,
}

impl Retain {
    /// A zeroed `rows x cols` matrix in this mode's storage.
    pub(crate) fn zeros(self, rows: usize, cols: usize) -> Matrix {
        match self {
            Retain::ForBackward => Matrix::zeros(rows, cols),
            Retain::Nothing => Matrix::pooled_zeros(rows, cols),
        }
    }

    /// `a * op_b(b)` in this mode's storage.
    pub(crate) fn matmul(self, a: &Matrix, b: &Matrix, op_b: Trans) -> Matrix {
        let n = match op_b {
            Trans::N => b.cols(),
            Trans::T => b.rows(),
        };
        let mut c = self.zeros(a.rows(), n);
        // `beta = 0`, as `tensor::matmul` has it: the refill is what first
        // touches a fresh heap matrix's pages, on this thread; leaving it
        // to the bands cost `train_dense` 12% more CPU per token.
        gemm(1.0, a, Trans::N, b, op_b, 0.0, &mut c);
        c
    }

    /// Gives a dead intermediate back to where [`Retain::zeros`] took it.
    pub(crate) fn release(self, m: Matrix) {
        if self == Retain::Nothing {
            m.recycle();
        }
    }
}

/// One layer's keys and values of one sequence, for incremental decoding.
/// Keys are stored transposed — column `p` of `k_t` is position `p`'s key,
/// heads stacked as in `qkv` — so a head's keys are a row slab that
/// `q·Kᵀ` streams; `v` is position-major.
#[derive(Debug, Clone)]
pub(crate) struct KvCache {
    /// `hidden x seq_len`.
    pub(crate) k_t: Matrix,
    /// `seq_len x hidden`.
    pub(crate) v: Matrix,
}

impl KvCache {
    pub(crate) fn new(hidden: usize, seq_len: usize) -> Self {
        Self {
            k_t: Matrix::zeros(hidden, seq_len),
            v: Matrix::zeros(seq_len, hidden),
        }
    }
}

/// Forward-pass cache for [`Attention::backward`].
#[derive(Debug, Clone)]
pub struct AttentionCache {
    x: Matrix,
    qkv: Matrix,
    probs: Vec<Matrix>,
    ctx: Matrix,
    batch: usize,
    seq: usize,
}

/// Multi-head causal self-attention (GPT-2 style, with qkv and projection
/// biases).
///
/// Activations are `(batch * seq) x hidden` row-major matrices; sequences
/// are contiguous row groups.
#[derive(Debug, Clone)]
pub struct Attention {
    w_qkv: Param,
    b_qkv: Param,
    w_o: Param,
    b_o: Param,
    num_heads: usize,
    hidden: usize,
}

impl Attention {
    /// Creates an attention module.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `num_heads`.
    pub fn new(hidden: usize, num_heads: usize, rng: &mut StdRng) -> Self {
        assert!(
            hidden.is_multiple_of(num_heads),
            "hidden must be divisible by num_heads"
        );
        Self {
            w_qkv: Param::new(init::gpt2_normal(hidden, 3 * hidden, rng)),
            b_qkv: Param::new(Matrix::zeros(1, 3 * hidden)),
            w_o: Param::new(init::gpt2_normal(hidden, hidden, rng)),
            b_o: Param::new(Matrix::zeros(1, hidden)),
            num_heads,
            hidden,
        }
    }

    /// Trainable parameters, for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.w_qkv,
            &mut self.b_qkv,
            &mut self.w_o,
            &mut self.b_o,
        ]
    }

    /// Parameter count (`4h² + 4h`).
    pub fn param_count(&self) -> usize {
        self.w_qkv.count() + self.b_qkv.count() + self.w_o.count() + self.b_o.count()
    }

    /// Forward pass over `batch` sequences of length `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != batch * seq` or `x.cols() != hidden`.
    pub fn forward(&self, x: &Matrix, batch: usize, seq: usize) -> (Matrix, AttentionCache) {
        let (out, cache) = self.pass(x, batch, seq, seq, None, Retain::ForBackward);
        (out, cache.expect("a ForBackward pass keeps its cache"))
    }

    /// The one attention forward. Training and inference differ only in
    /// what they retain. With `kv = Some((cache, past))` the rows of `x`
    /// are positions `past..past + seq` of one sequence (`batch == 1`):
    /// their keys and values become positions `past..` of `cache` and
    /// every query attends over positions `0..=` its own; without it each
    /// sequence is its own whole context (`past == 0`). Every row's key
    /// and value are computed, but only the last `keep` rows of each
    /// sequence are queried: the output is `batch * keep` rows.
    pub(crate) fn pass(
        &self,
        x: &Matrix,
        batch: usize,
        seq: usize,
        keep: usize,
        mut kv: Option<(&mut KvCache, usize)>,
        retain: Retain,
    ) -> (Matrix, Option<AttentionCache>) {
        let _span = telemetry::span("transformer.attention");
        assert_eq!(x.rows(), batch * seq, "row count must be batch * seq");
        assert_eq!(x.cols(), self.hidden, "feature size mismatch");
        assert!((1..=seq).contains(&keep), "keep must be in 1..=seq");
        assert!(
            keep == seq || retain == Retain::Nothing,
            "a pass kept for backward queries every row"
        );
        let h = self.hidden;
        let nh = self.num_heads;
        let d = h / nh;
        let scale = 1.0 / (d as f32).sqrt();

        let mut qkv = retain.matmul(x, self.w_qkv.value(), Trans::N);
        add_bias(&mut qkv, self.b_qkv.value().row(0));
        if let Some((cache, past)) = &mut kv {
            assert_eq!(batch, 1, "a KV cache holds one sequence");
            for i in 0..seq {
                let row = qkv.row(i);
                for (c, &k) in row[h..2 * h].iter().enumerate() {
                    cache.k_t[(c, *past + i)] = k;
                }
                cache.v.row_mut(*past + i).copy_from_slice(&row[2 * h..]);
            }
        }

        let mut ctx = retain.zeros(batch * keep, h);
        let mut probs = Vec::new();
        for b in 0..batch {
            for head in 0..nh {
                let q = extract(&qkv, b * seq + seq - keep, keep, head * d, d);
                // Keys and values: every cached position, or this sequence's.
                let (k, k_op, v) = match &kv {
                    Some((cache, past)) => (
                        extract(&cache.k_t, head * d, d, 0, past + seq),
                        Trans::N,
                        extract(&cache.v, 0, past + seq, head * d, d),
                    ),
                    None => (
                        extract(&qkv, b * seq, seq, h + head * d, d),
                        Trans::T,
                        extract(&qkv, b * seq, seq, 2 * h + head * d, d),
                    ),
                };
                let (ctx_h, p) = attend(&q, &k, k_op, &v, scale, retain);
                insert(&mut ctx, &ctx_h, b * keep, head * d);
                retain.release(ctx_h);
                for m in [q, k, v] {
                    m.recycle();
                }
                match retain {
                    Retain::ForBackward => probs.push(p),
                    Retain::Nothing => p.recycle(),
                }
            }
        }

        let mut out = retain.matmul(&ctx, self.w_o.value(), Trans::N);
        add_bias(&mut out, self.b_o.value().row(0));
        match retain {
            Retain::ForBackward => {
                let x = x.clone();
                let cache = AttentionCache {
                    x,
                    qkv,
                    probs,
                    ctx,
                    batch,
                    seq,
                };
                (out, Some(cache))
            }
            Retain::Nothing => {
                qkv.recycle();
                ctx.recycle();
                (out, None)
            }
        }
    }

    /// Backward pass; accumulates parameter gradients and returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if `d_out` does not match the forward output shape.
    pub fn backward(&mut self, cache: &AttentionCache, d_out: &Matrix) -> Matrix {
        let h = self.hidden;
        let nh = self.num_heads;
        let d = h / nh;
        let (batch, seq) = (cache.batch, cache.seq);
        assert_eq!(d_out.shape(), (batch * seq, h), "d_out shape mismatch");
        let scale = 1.0 / (d as f32).sqrt();

        // Output projection.
        let d_ctx = matmul_nt(d_out, self.w_o.value());
        self.w_o.accumulate(&matmul_tn(&cache.ctx, d_out));
        add_row_grad(self.b_o.grad_mut(), &bias_backward(d_out));

        // Per-head attention backward.
        let mut d_qkv = Matrix::zeros(batch * seq, 3 * h);
        for b in 0..batch {
            for head in 0..nh {
                let q = extract(&cache.qkv, b * seq, seq, head * d, d);
                let k = extract(&cache.qkv, b * seq, seq, h + head * d, d);
                let v = extract(&cache.qkv, b * seq, seq, 2 * h + head * d, d);
                let probs = &cache.probs[b * nh + head];
                let d_ctx_h = extract(&d_ctx, b * seq, seq, head * d, d);

                let dv = matmul_tn(probs, &d_ctx_h);
                let d_probs = matmul_nt(&d_ctx_h, &v);
                let mut d_scores = softmax_rows_backward(probs, &d_probs);
                // Masked positions have prob 0, so their gradient is
                // already 0; scale handles the 1/sqrt(d).
                d_scores.scale(scale);
                let dq = matmul(&d_scores, &k);
                let dk = matmul_tn(&d_scores, &q);

                insert(&mut d_qkv, &dq, b * seq, head * d);
                insert(&mut d_qkv, &dk, b * seq, h + head * d);
                insert(&mut d_qkv, &dv, b * seq, 2 * h + head * d);
                for m in [q, k, v, d_ctx_h] {
                    m.recycle();
                }
            }
        }

        // Input projection.
        self.w_qkv.accumulate(&matmul_tn(&cache.x, &d_qkv));
        add_row_grad(self.b_qkv.grad_mut(), &bias_backward(&d_qkv));
        matmul_nt(&d_qkv, self.w_qkv.value())
    }
}

/// One head of causal attention: the rows of `q` are the last `q.rows()`
/// of the positions `k` and `v` hold, and each attends over positions
/// `0..=` its own. `v` is position-major; `k` is too under `k_op =
/// Trans::T`, and is `Kᵀ` (one column per position) under `Trans::N`.
/// Returns the context rows and the attention probabilities (masked
/// entries exactly 0).
///
/// A masked score is `-inf`, so its probability is `+0` and it adds `+0`
/// to the softmax denominator and `0 * v` to a context accumulator that
/// started at `+0`: a query's outputs do not depend, bitwise, on how many
/// later positions share the call. That is what makes a cached key/value
/// row written by one call valid in every later one.
fn attend(
    q: &Matrix,
    k: &Matrix,
    k_op: Trans,
    v: &Matrix,
    scale: f32,
    retain: Retain,
) -> (Matrix, Matrix) {
    let past = v.rows() - q.rows();
    let mut scores = retain.matmul(q, k, k_op);
    scores.scale(scale);
    for i in 0..q.rows() {
        scores.row_mut(i)[past + i + 1..].fill(f32::NEG_INFINITY);
    }
    softmax_rows_inplace(&mut scores);
    let ctx = retain.matmul(&scores, v, Trans::N);
    (ctx, scores)
}

/// Copies rows `row0..row0+rows`, columns `col0..col0+width` of `m` into a
/// `rows x width` matrix from the workspace arena (recycle it).
fn extract(m: &Matrix, row0: usize, rows: usize, col0: usize, width: usize) -> Matrix {
    let mut out = Matrix::pooled_zeros(rows, width);
    for i in 0..rows {
        out.row_mut(i)
            .copy_from_slice(&m.row(row0 + i)[col0..col0 + width]);
    }
    out
}

/// Writes `block` over rows `row0..`, columns `col0..` of `m`.
fn insert(m: &mut Matrix, block: &Matrix, row0: usize, col0: usize) {
    for i in 0..block.rows() {
        m.row_mut(row0 + i)[col0..col0 + block.cols()].copy_from_slice(block.row(i));
    }
}

fn add_row_grad(grad: &mut Matrix, db: &[f32]) {
    for (g, v) in grad.row_mut(0).iter_mut().zip(db) {
        *g += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_tensor::init::seeded_rng;

    #[test]
    fn output_shape_and_param_count() {
        let mut rng = seeded_rng(1);
        let attn = Attention::new(16, 4, &mut rng);
        let x = init::normal(2 * 5, 16, 1.0, &mut rng);
        let (y, _) = attn.forward(&x, 2, 5);
        assert_eq!(y.shape(), (10, 16));
        assert_eq!(attn.param_count(), 4 * 16 * 16 + 4 * 16);
    }

    #[test]
    fn causality_holds() {
        // Changing a future token must not change earlier outputs.
        let mut rng = seeded_rng(2);
        let attn = Attention::new(8, 2, &mut rng);
        let x = init::normal(6, 8, 1.0, &mut rng);
        let (y, _) = attn.forward(&x, 1, 6);
        let mut x2 = x.clone();
        for j in 0..8 {
            x2[(5, j)] += 3.0; // perturb the last position
        }
        let (y2, _) = attn.forward(&x2, 1, 6);
        for i in 0..5 {
            for j in 0..8 {
                assert!(
                    (y[(i, j)] - y2[(i, j)]).abs() < 1e-6,
                    "position {i} leaked future information"
                );
            }
        }
        // The final position must change (sanity that the perturbation did
        // something).
        assert!(y.row(5) != y2.row(5));
    }

    #[test]
    fn cached_pass_equals_the_tail_of_the_full_causal_forward() {
        let mut rng = seeded_rng(5);
        let attn = Attention::new(8, 2, &mut rng);
        let x = init::normal(7, 8, 1.0, &mut rng);
        let (full, _) = attn.forward(&x, 1, 7);
        // Positions 0..3 in one call, 3..7 in a second over their cache,
        // with and without retention: rows of the full forward, bitwise.
        for retain in [Retain::Nothing, Retain::ForBackward] {
            let mut cache = KvCache::new(8, 7);
            let (head, _) = attn.pass(&x.rows_range(0, 3), 1, 3, 3, Some((&mut cache, 0)), retain);
            let (tail, _) = attn.pass(&x.rows_range(3, 7), 1, 4, 4, Some((&mut cache, 3)), retain);
            assert_eq!(head, full.rows_range(0, 3));
            assert_eq!(tail, full.rows_range(3, 7));
        }
        // Queries of the last rows only, cached or not, and per sequence
        // of a batch: the same rows of the full forward, bitwise.
        let mut cache = KvCache::new(8, 7);
        let (last, _) = attn.pass(&x, 1, 7, 1, Some((&mut cache, 0)), Retain::Nothing);
        assert_eq!(last, full.rows_range(6, 7));
        let x2 = init::normal(8, 8, 1.0, &mut rng);
        let (full2, _) = attn.forward(&x2, 2, 4);
        let (tails, _) = attn.pass(&x2, 2, 4, 2, None, Retain::Nothing);
        assert_eq!(tails.rows_range(0, 2), full2.rows_range(2, 4));
        assert_eq!(tails.rows_range(2, 4), full2.rows_range(6, 8));

        // The per-head routine itself, `len = 3` cached positions.
        let q = init::normal(7, 4, 1.0, &mut rng);
        let k = init::normal(7, 4, 1.0, &mut rng);
        let v = init::normal(7, 4, 1.0, &mut rng);
        let (ctx, probs) = attend(&q, &k, Trans::T, &v, 0.5, Retain::ForBackward);
        let tail = q.rows_range(3, 7);
        let (ctx_tail, probs_tail) = attend(&tail, &k, Trans::T, &v, 0.5, Retain::ForBackward);
        assert_eq!(ctx_tail, ctx.rows_range(3, 7));
        assert_eq!(probs_tail, probs.rows_range(3, 7));
        // Keys handed over as `Kᵀ` give the same bits.
        let k_t = k.transpose();
        let (ctx_t, probs_t) = attend(&tail, &k_t, Trans::N, &v, 0.5, Retain::ForBackward);
        assert_eq!(ctx_t, ctx_tail);
        assert_eq!(probs_t, probs_tail);
        assert_eq!(probs[(0, 1)], 0.0, "masked probabilities are exactly 0");
    }

    #[test]
    #[should_panic(expected = "a pass kept for backward queries every row")]
    fn a_pass_kept_for_backward_queries_every_row() {
        let mut rng = seeded_rng(6);
        let attn = Attention::new(8, 2, &mut rng);
        let x = init::normal(4, 8, 1.0, &mut rng);
        let _ = attn.pass(&x, 1, 4, 1, None, Retain::ForBackward);
    }

    #[test]
    fn sequences_in_batch_do_not_interact() {
        let mut rng = seeded_rng(3);
        let attn = Attention::new(8, 2, &mut rng);
        let x = init::normal(8, 8, 1.0, &mut rng);
        let (y, _) = attn.forward(&x, 2, 4);
        // Run sequence 0 alone; outputs must agree.
        let x0 = x.rows_range(0, 4);
        let (y0, _) = attn.forward(&x0, 1, 4);
        assert!(y.rows_range(0, 4).approx_eq(&y0, 1e-5));
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = seeded_rng(4);
        let mut attn = Attention::new(6, 2, &mut rng);
        let x = init::normal(4, 6, 0.8, &mut rng);
        let w = init::normal(4, 6, 0.5, &mut rng); // fixed projection for a scalar objective

        let objective = |attn: &Attention, x: &Matrix| -> f32 {
            let (y, _) = attn.forward(x, 1, 4);
            y.as_slice()
                .iter()
                .zip(w.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };

        let (y, cache) = attn.forward(&x, 1, 4);
        let _ = y;
        let dx = attn.backward(&cache, &w);

        let eps = 1e-3;
        for i in 0..4 {
            for j in 0..6 {
                let mut xp = x.clone();
                xp[(i, j)] += eps;
                let mut xm = x.clone();
                xm[(i, j)] -= eps;
                let num = (objective(&attn, &xp) - objective(&attn, &xm)) / (2.0 * eps);
                assert!(
                    (num - dx[(i, j)]).abs() < 3e-2 * (1.0 + num.abs()),
                    "dx({i},{j}): numeric {num}, analytic {}",
                    dx[(i, j)]
                );
            }
        }

        // Spot-check weight grads.
        let spots = [(0usize, 0usize), (3, 10), (5, 17)];
        for &(r, c) in &spots {
            let ana = attn.w_qkv.grad()[(r, c)];
            let orig = attn.w_qkv.value()[(r, c)];
            attn.w_qkv.value_mut()[(r, c)] = orig + eps;
            let fp = objective(&attn, &x);
            attn.w_qkv.value_mut()[(r, c)] = orig - eps;
            let fm = objective(&attn, &x);
            attn.w_qkv.value_mut()[(r, c)] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                "dw_qkv({r},{c}): numeric {num}, analytic {ana}"
            );
        }
        // Bias grads: db_o = column sums of upstream gradient w.
        let db_o = attn.b_o.grad();
        let want = bias_backward(&w);
        for j in 0..6 {
            assert!((db_o[(0, j)] - want[j]).abs() < 1e-5);
        }
    }
}
