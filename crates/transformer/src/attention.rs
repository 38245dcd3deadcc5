//! Causal multi-head self-attention with explicit backward pass and an
//! incremental (KV-cached) forward.

use std::sync::Mutex;

use megablocks_core::Param;
use megablocks_exec as exec;
use megablocks_telemetry as telemetry;
use megablocks_tensor::ops::{
    add_bias, bias_backward, softmax_rows_backward_inplace, softmax_rows_of,
};
use megablocks_tensor::{block_gemm, init, pooled_matmul, Matrix, OutView, PanelView, Trans};
use rand::rngs::StdRng;

/// What a forward pass keeps of its intermediates (`DroplessMoe`'s switch,
/// for `Attention`, `Block` and `TransformerLm`). Either way every buffer
/// is taken from the calling thread's workspace arena and goes back to it
/// when dropped: an intermediate once the pass is done with it, a
/// retained one with its `BlockCache` once backward has consumed it, so a
/// steady-state training step allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retain {
    /// Everything `backward` reads.
    ForBackward,
    /// Only the output, which the caller drops when done with it.
    Nothing,
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
    /// Every (sequence, head)'s `seq x seq` probabilities, in that order.
    probs: Matrix,
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

    /// Forward pass over `batch` sequences of length `seq`. The output and
    /// the cache are in the calling thread's workspace arena, which gets
    /// them back when they are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != batch * seq` or `x.cols() != hidden`.
    pub fn forward(&self, x: &Matrix, batch: usize, seq: usize) -> (Matrix, AttentionCache) {
        let x = x.pooled_copy();
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
    /// sequence are queried: the output is `batch * keep` rows. The pass
    /// takes `x`, which the cache keeps or the arena gets back.
    pub(crate) fn pass(
        &self,
        x: Matrix,
        batch: usize,
        seq: usize,
        keep: usize,
        kv: Option<(&mut KvCache, usize)>,
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
        let (h, nh, w) = (self.hidden, self.num_heads, 3 * self.hidden);
        let d = h / nh;
        let scale = 1.0 / (d as f32).sqrt();

        let mut qkv = pooled_matmul(&x, Trans::N, self.w_qkv.value(), Trans::N);
        add_bias(&mut qkv, self.b_qkv.value().row(0));
        let n = kv.as_ref().map_or(0, |(cache, _)| cache.k_t.cols());
        let (kv, len) = match kv {
            Some((cache, past)) => {
                assert_eq!(batch, 1, "a KV cache holds one sequence");
                for (i, row) in qkv.as_slice().chunks_exact(w).enumerate() {
                    let keys = cache.k_t.as_mut_slice()[past + i..].iter_mut().step_by(n);
                    keys.zip(&row[h..2 * h]).for_each(|(dst, &k)| *dst = k);
                    cache.v.row_mut(past + i).copy_from_slice(&row[2 * h..]);
                }
                (Some(&*cache), past + seq)
            }
            None => (None, seq),
        };

        let mut ctx = Matrix::pooled_zeros(batch * keep, h);
        let work = 2 * batch * nh * keep * len * d;
        let wide = if kv.is_some() && keep == 1 { n } else { len };
        // Every (sequence, head)'s probabilities in one buffer from this
        // thread's arena; the band of sequence `b` locks `b`'s share.
        let mut probs = Matrix::pooled_zeros(batch * nh * keep, wide);
        let shares = probs.as_mut_slice().chunks_mut(nh * keep * wide);
        let shares: Vec<Mutex<&mut [f32]>> = shares.map(Mutex::new).collect();
        launch(&mut ctx, batch, work, |rows, b| {
            let mut share = shares[b]
                .lock()
                .expect("a sequence's share is locked once, by its band");
            for (head, p) in share.chunks_exact_mut(keep * wide).enumerate() {
                let (col, at) = (head * d, b * seq * w + head * d);
                let q = view(&qkv, at + (seq - keep) * w, w, 1);
                // `Kᵀ` and `V`: every cached position, or this sequence's.
                let (k_t, v) = match kv {
                    Some(c) => (view(&c.k_t, col * n, n, 1), view(&c.v, col, h, 1)),
                    None => (view(&qkv, at + h, 1, w), view(&qkv, at + 2 * h, w, 1)),
                };
                let out = OutView::new(&mut rows[col..], h);
                attend(q, k_t, v, (keep, len, wide, d), scale, p, out);
            }
        });
        drop(shares);

        let mut out = pooled_matmul(&ctx, Trans::N, self.w_o.value(), Trans::N);
        add_bias(&mut out, self.b_o.value().row(0));
        match retain {
            Retain::ForBackward => {
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
            Retain::Nothing => (out, None),
        }
    }

    /// Backward pass; accumulates parameter gradients and returns `dx`, in
    /// the calling thread's workspace arena.
    ///
    /// # Panics
    ///
    /// Panics if `d_out` does not match the forward output shape.
    pub fn backward(&mut self, cache: &AttentionCache, d_out: &Matrix) -> Matrix {
        let (h, nh, w) = (self.hidden, self.num_heads, 3 * self.hidden);
        let d = h / nh;
        let (batch, seq) = (cache.batch, cache.seq);
        assert_eq!(d_out.shape(), (batch * seq, h), "d_out shape mismatch");
        let scale = 1.0 / (d as f32).sqrt();

        // Output projection.
        let d_ctx = pooled_matmul(d_out, Trans::N, self.w_o.value(), Trans::T);
        self.w_o.accumulate_tn(&cache.ctx, d_out);
        add_row_grad(self.b_o.grad_mut(), &bias_backward(d_out));

        // Per-head attention backward, in one launch: each head writes its
        // dQ, dK and dV columns of its sequence's rows of `d_qkv`.
        let mut d_qkv = Matrix::pooled_zeros(batch * seq, w);
        let work = 4 * batch * nh * seq * seq * d;
        launch(&mut d_qkv, batch, work, |rows, b| {
            for head in 0..nh {
                let (col, at) = (head * d, b * seq * w + head * d);
                let p_at = (b * nh + head) * seq * seq;
                let probs = &cache.probs.as_slice()[p_at..p_at + seq * seq];
                let d_ctx_h = view(&d_ctx, b * seq * h + col, h, 1);
                // dV = Pᵀ dC, dP = dC Vᵀ.
                let dv = OutView::new(&mut rows[2 * h + col..], w);
                block_gemm(seq, d, seq, 1.0, PanelView::new(probs, 1, seq), d_ctx_h, dv);
                // This band's thread takes the scratch and gets it back
                // when the head is done.
                let mut d_scores = Matrix::pooled_zeros(seq, seq);
                let v_t = view(&cache.qkv, at + 2 * h, 1, w);
                let dp = OutView::new(d_scores.as_mut_slice(), seq);
                block_gemm(seq, seq, d, 1.0, d_ctx_h, v_t, dp);
                softmax_rows_backward_inplace(probs, d_scores.as_mut_slice(), seq);
                // Masked positions' gradient is already 0; `scale` is 1/√d.
                d_scores.scale(scale);
                // dQ = dS K, dK = dSᵀ Q.
                let (k, q) = (view(&cache.qkv, at + h, w, 1), view(&cache.qkv, at, w, 1));
                let dq = OutView::new(&mut rows[col..], w);
                block_gemm(seq, d, seq, 1.0, view(&d_scores, 0, seq, 1), k, dq);
                let dk = OutView::new(&mut rows[h + col..], w);
                block_gemm(seq, d, seq, 1.0, view(&d_scores, 0, 1, seq), q, dk);
            }
        });
        drop(d_ctx);

        // Input projection.
        self.w_qkv.accumulate_tn(&cache.x, &d_qkv);
        add_row_grad(self.b_qkv.grad_mut(), &bias_backward(&d_qkv));
        pooled_matmul(&d_qkv, Trans::N, self.w_qkv.value(), Trans::T)
    }
}

/// One head of causal attention, read and written in place: the `rows`
/// queries `q` are the last of the `len` positions of `k_t` (`d x wide`,
/// `wide >= len`) and `v` (`len x d`), and each attends over positions
/// `0..=` its own. Writes the probabilities into `probs` (`rows x wide`,
/// zeroed; masked entries, and every column past `len`, come out `+0`)
/// and accumulates the context into `out` (zeroed).
///
/// A masked score is `-inf`, so its probability is `+0` and it adds `+0`
/// to the softmax denominator and `0 * v` to a context accumulator that
/// started at `+0`: a query's outputs do not depend, bitwise, on how many
/// later positions share the call. That makes a cached key/value row
/// written by one call valid in every later one, and lets a one-row query
/// score a cache's whole width, reading its `Kᵀ` in place, in strips.
fn attend(
    q: PanelView<'_>,
    k_t: PanelView<'_>,
    v: PanelView<'_>,
    (rows, len, wide, d): (usize, usize, usize, usize),
    scale: f32,
    probs: &mut [f32],
    out: OutView<'_>,
) {
    block_gemm(rows, wide, d, scale, q, k_t, OutView::new(probs, wide));
    for (i, row) in probs.chunks_exact_mut(wide).enumerate() {
        row[len - rows + i + 1..].fill(f32::NEG_INFINITY);
    }
    softmax_rows_of(probs, wide);
    block_gemm(rows, d, len, 1.0, PanelView::new(probs, wide, 1), v, out);
}

/// `m`'s storage from `offset` on, as a GEMM operand with these strides.
fn view(m: &Matrix, offset: usize, row_stride: usize, col_stride: usize) -> PanelView<'_> {
    PanelView::new(&m.as_slice()[offset..], row_stride, col_stride)
}

/// Runs `body(rows, b)` on each of `out`'s `batch` sequences' rows, as one
/// launch of bands of whole sequences: one inline band under 2¹⁶ of `work`.
fn launch(out: &mut Matrix, batch: usize, work: usize, body: impl Fn(&mut [f32], usize) + Sync) {
    let unit = out.len() / batch;
    let per_band = batch.div_ceil(exec::parallelism_for(work, 1 << 16).min(batch));
    let band = |rows: &mut [f32], b0: usize| {
        for (s, rows) in rows.chunks_mut(unit).enumerate() {
            body(rows, b0 + s);
        }
    };
    exec::LaunchPlan::over_items("attention.heads", out.as_mut_slice(), unit, per_band, &band)
        .launch();
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
            let (head, _) = attn.pass(x.rows_range(0, 3), 1, 3, 3, Some((&mut cache, 0)), retain);
            let (tail, _) = attn.pass(x.rows_range(3, 7), 1, 4, 4, Some((&mut cache, 3)), retain);
            assert_eq!(head, full.rows_range(0, 3));
            assert_eq!(tail, full.rows_range(3, 7));
        }
        // Queries of the last rows only, cached or not, and per sequence
        // of a batch: the same rows of the full forward, bitwise.
        // One row against a wider cache whose unwritten slots are NaN.
        let mut cache = KvCache::new(8, 10);
        cache.k_t.map_inplace(|_| f32::NAN);
        cache.v.map_inplace(|_| f32::NAN);
        let (last, _) = attn.pass(x.clone(), 1, 7, 1, Some((&mut cache, 0)), Retain::Nothing);
        assert_eq!(last, full.rows_range(6, 7));
        let x2 = init::normal(8, 8, 1.0, &mut rng);
        let (full2, _) = attn.forward(&x2, 2, 4);
        let (tails, _) = attn.pass(x2.clone(), 2, 4, 2, None, Retain::Nothing);
        assert_eq!(tails.rows_range(0, 2), full2.rows_range(2, 4));
        assert_eq!(tails.rows_range(2, 4), full2.rows_range(6, 8));

        // The per-head routine itself, `len = 3` cached positions.
        let q = init::normal(7, 4, 1.0, &mut rng);
        let k = init::normal(7, 4, 1.0, &mut rng);
        let v = init::normal(7, 4, 1.0, &mut rng);
        let head = |rows: usize, k_t: PanelView<'_>| {
            let mut ctx = Matrix::zeros(rows, 4);
            let q = PanelView::new(&q.as_slice()[(7 - rows) * 4..], 4, 1);
            let v = PanelView::new(v.as_slice(), 4, 1);
            let mut probs = Matrix::zeros(rows, 7);
            let out = OutView::new(ctx.as_mut_slice(), 4);
            attend(q, k_t, v, (rows, 7, 7, 4), 0.5, probs.as_mut_slice(), out);
            (ctx, probs)
        };
        let (ctx, probs) = head(7, PanelView::new(k.as_slice(), 1, 4));
        let (ctx_tail, probs_tail) = head(4, PanelView::new(k.as_slice(), 1, 4));
        assert_eq!(ctx_tail, ctx.rows_range(3, 7));
        assert_eq!(probs_tail, probs.rows_range(3, 7));
        // Keys stored as `Kᵀ` give the same bits.
        let k_t = k.transpose();
        let (ctx_t, probs_t) = head(4, PanelView::new(k_t.as_slice(), 7, 1));
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
        let _ = attn.pass(x, 1, 4, 1, None, Retain::ForBackward);
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
        // Two sequences, so a band that mixed up sequences or heads shows;
        // `w_qkv` scaled up from its GPT-2 init (where every score is ≈ 0
        // and the softmax uniform), so the Q and K paths carry gradients
        // the tolerance can see.
        let mut rng = seeded_rng(4);
        let mut attn = Attention::new(6, 2, &mut rng);
        attn.w_qkv.value_mut().scale(25.0);
        let x = init::normal(8, 6, 0.8, &mut rng);
        let w = init::normal(8, 6, 0.5, &mut rng); // fixed projection for a scalar objective

        let objective = |attn: &Attention, x: &Matrix| -> f32 {
            let (y, _) = attn.forward(x, 2, 4);
            y.as_slice()
                .iter()
                .zip(w.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };

        let (_, cache) = attn.forward(&x, 2, 4);
        let dx = attn.backward(&cache, &w);

        let eps = 1e-3;
        for i in 0..8 {
            for j in 0..6 {
                let mut xp = x.clone();
                xp[(i, j)] += eps;
                let mut xm = x.clone();
                xm[(i, j)] -= eps;
                let num = (objective(&attn, &xp) - objective(&attn, &xm)) / (2.0 * eps);
                assert!(
                    (num - dx[(i, j)]).abs() < 1e-3 * (1.0 + num.abs()),
                    "dx({i},{j}): numeric {num}, analytic {}",
                    dx[(i, j)]
                );
            }
        }

        // Spot-check `w_qkv`, `b_qkv` (a query, a key and a value column)
        // and `w_o`, by index into `params_mut`.
        let spots = [
            (0, 0usize, 0usize),
            (0, 3, 10),
            (0, 5, 17),
            (1, 0, 4),
            (1, 0, 8),
            (1, 0, 13),
            (2, 1, 2),
            (2, 4, 5),
        ];
        for &(which, r, c) in &spots {
            let ana = attn.params_mut()[which].grad()[(r, c)];
            let orig = attn.params_mut()[which].value()[(r, c)];
            attn.params_mut()[which].value_mut()[(r, c)] = orig + eps;
            let fp = objective(&attn, &x);
            attn.params_mut()[which].value_mut()[(r, c)] = orig - eps;
            let fm = objective(&attn, &x);
            attn.params_mut()[which].value_mut()[(r, c)] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 1e-3 * (1.0 + num.abs()),
                "param {which} ({r},{c}): numeric {num}, analytic {ana}"
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
