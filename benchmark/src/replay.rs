//! Per-layer attribution: after the traced operations, one operation's
//! shapes are replayed through each layer on its own — router, permutation,
//! topology, the six block-sparse products, attention, layer norm, the FFN
//! flavours, the LM head, the optimizer — and each call is timed from here.
//!
//! Every replayed call is also a span under the `replay` root, so the trace
//! file shows the same numbers the table does.

use std::time::Instant;

use crate::api::{self, DroplessMoe, Fallible, LmShape, Matrix, MoeShape, StdRng, TransformerLm};
use crate::metrics::Values;
use crate::stats::median;
use crate::trace::Recorder;

/// Shortest time a layer is replayed for.
const MIN_REPLAY_S: f64 = 0.03;
/// Fewest timed repetitions of a layer.
const MIN_REPS: usize = 5;
/// Most timed repetitions of a layer.
const MAX_REPS: usize = 400;

/// Times layers under one parent span.
pub struct Replayer<'a> {
    rec: &'a Recorder,
    parent: u32,
}

impl<'a> Replayer<'a> {
    /// A replayer whose spans hang under `parent`.
    pub fn new(rec: &'a Recorder, parent: u32) -> Self {
        Replayer { rec, parent }
    }

    /// Median milliseconds of `f`, after one untimed warm-up call.
    pub fn ms<R>(&self, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
        drop(f());
        let mut samples = Vec::new();
        let begun = Instant::now();
        while samples.len() < MIN_REPS
            || (begun.elapsed().as_secs_f64() < MIN_REPLAY_S && samples.len() < MAX_REPS)
        {
            let start = Instant::now();
            let out = f();
            let end = Instant::now();
            drop(out);
            self.rec
                .record(name, self.parent, samples.len() as u64, start, end);
            samples.push((end - start).as_secs_f64() * 1e3);
        }
        median(&samples)
    }
}

fn gflops(flops: usize, ms: f64) -> f64 {
    flops as f64 / (ms * 1e-3) / 1e9
}

/// What [`moe_parts`] measured, for the caller's coverage sum.
pub struct MoeTimes {
    /// `core.dmoe_fwd_ms`.
    pub fwd_ms: f64,
    /// `core.dmoe_bwd_ms` (0 without backward).
    pub bwd_ms: f64,
    /// `core.dmoe_infer_ms`.
    pub infer_ms: f64,
}

/// Replays one dMoE layer call on `x` part by part: `sparse.*` and the MoE
/// half of `core.*`. Useful FLOPs count real (unpadded) rows only.
pub fn moe_parts(
    t: &Replayer,
    layer: &DroplessMoe,
    shape: MoeShape,
    x: &Matrix,
    backward: bool,
    rng: &mut StdRng,
    out: &mut Values,
) -> Fallible<MoeTimes> {
    let router = api::dmoe_router(layer);
    let (w1, w2) = api::dmoe_weights(layer);

    let router_fwd = t.ms("core.router_fwd", || api::route(router, x));
    let routing = api::route(router, x);
    let permute_build = t.ms("core.permute_build", || api::permute_info(&routing, shape));
    let info = api::permute_info(&routing, shape)?;
    let topology_build = t.ms("sparse.topology_build", || {
        api::topology_for_moe(info.padded_tokens_per_expert(), shape)
    });
    let topo = api::topology_for_moe(info.padded_tokens_per_expert(), shape)?;
    let gather = t.ms("core.gather", || api::gather(x, &info));
    let xg = api::gather(x, &info);
    let flops = 2 * info.num_assignments() * shape.hidden * shape.ffn;
    let sdd = t.ms("sparse.sdd", || api::sdd(&xg, w1, &topo));
    let h = api::sdd(&xg, w1, &topo)?;
    let pre_act = api::zeros(info.padded_rows(), shape.ffn);
    let gelu = t.ms("tensor.gelu", || api::gelu(&pre_act));
    let dsd = t.ms("sparse.dsd", || api::dsd(&h, w2));
    let y = api::dsd(&h, w2)?;
    let scatter = t.ms("core.scatter", || api::scatter(&y, &info, &routing.weights));
    let infer_ms = t.ms("core.dmoe_infer", || api::dmoe_infer(layer, x));
    let fwd_ms = t.ms("core.dmoe_fwd", || api::dmoe_forward(layer, x));

    out.set("core.router_fwd_ms", router_fwd);
    out.set("core.permute_build_us", permute_build * 1e3);
    out.set("sparse.topology_build_us", topology_build * 1e3);
    out.set("sparse.nnz_blocks", topo.nnz_blocks() as f64);
    out.set("core.gather_ms", gather);
    out.set("sparse.sdd_gflops", gflops(flops, sdd));
    out.set("tensor.gelu_ms", gelu);
    out.set("sparse.dsd_gflops", gflops(flops, dsd));
    out.set("core.scatter_ms", scatter);
    out.set("core.dmoe_infer_ms", infer_ms);
    out.set("core.dmoe_fwd_ms", fwd_ms);
    let parts = router_fwd + permute_build + topology_build + gather + sdd + gelu + dsd + scatter;
    out.set("core.dmoe_glue_frac", 1.0 - parts / fwd_ms);
    out.set(
        "core.padding_overhead",
        info.padding_rows() as f64 / info.num_assignments().max(1) as f64,
    );

    let mut bwd_ms = 0.0;
    if backward {
        let d_out = api::normal(x.rows(), shape.hidden, 0.1, rng);
        let scatter_bwd = t.ms("core.scatter_bwd", || {
            api::scatter_backward(&d_out, &y, &info, &routing.weights)
        });
        let (dy, d_weights) = api::scatter_backward(&d_out, &y, &info, &routing.weights);
        let sdd_t = t.ms("sparse.sdd_t", || api::sdd_t(&dy, w2, &topo));
        let dh = api::sdd_t(&dy, w2, &topo)?;
        let dst_d = t.ms("sparse.dst_d", || api::dst_d(&h, &dy));
        let dsd_t = t.ms("sparse.dsd_t", || api::dsd_t(&dh, w1));
        let dxg = api::dsd_t(&dh, w1)?;
        let ddt_s = t.ms("sparse.ddt_s", || api::ddt_s(&xg, &dh));
        let gather_bwd = t.ms("core.gather_bwd", || api::gather_backward(&dxg, &info));
        let mut standalone_router = router.clone();
        let router_bwd = t.ms("core.router_bwd", || {
            api::route_backward(&mut standalone_router, x, &routing, &d_weights)
        });
        let mut trained = layer.clone();
        let kept = api::dmoe_forward(&trained, x)?;
        bwd_ms = t.ms("core.dmoe_bwd", || {
            api::dmoe_backward(&mut trained, &kept.cache, &d_out)
        });

        // The Tutel baseline at the same shape: layer level only.
        let mut dropping = api::new_dropping_cf1(shape, rng);
        let dropping_ms = t.ms("core.dropping_cf1_fwd_bwd", || {
            let kept = api::dropping_forward(&dropping, x);
            api::dropping_backward(&mut dropping, &kept.cache, &d_out)
        });
        let dropped = api::dropping_forward(&dropping, x).stats.dropped_tokens;

        out.set("core.scatter_bwd_ms", scatter_bwd);
        out.set("sparse.sdd_t_gflops", gflops(flops, sdd_t));
        out.set("sparse.dst_d_gflops", gflops(flops, dst_d));
        out.set("sparse.dsd_t_gflops", gflops(flops, dsd_t));
        out.set("sparse.ddt_s_gflops", gflops(flops, ddt_s));
        out.set("core.gather_bwd_ms", gather_bwd);
        out.set("core.router_bwd_ms", router_bwd);
        out.set("core.dmoe_bwd_ms", bwd_ms);
        out.set("core.dropping_cf1_fwd_bwd_ms", dropping_ms);
        out.set(
            "core.dropping_cf1_dropped_frac",
            dropped as f64 / x.rows() as f64,
        );
    }
    Ok(MoeTimes {
        fwd_ms,
        bwd_ms,
        infer_ms,
    })
}

/// What [`lm_parts`] measured, for the caller's coverage sum.
#[derive(Debug, Default)]
pub struct LmTimes {
    /// `transformer.attn_fwd_ms`.
    pub attn_fwd_ms: f64,
    /// `transformer.attn_bwd_ms` (0 without backward).
    pub attn_bwd_ms: f64,
    /// `transformer.block_fwd_ms`.
    pub block_fwd_ms: f64,
    /// `tensor.layernorm_fwd_bwd_ms` (0 without backward).
    pub layernorm_ms: f64,
    /// `tensor.gemm_lmhead_ms`.
    pub lmhead_ms: f64,
    /// `tensor.cross_entropy_ms` (0 without backward).
    pub cross_entropy_ms: f64,
    /// `core.dense_ffn_fwd_ms` (0 for a dMoE model).
    pub dense_fwd_ms: f64,
    /// `core.dense_ffn_bwd_ms` (0 for a dMoE model or without backward).
    pub dense_bwd_ms: f64,
}

/// Replays the language model's layers on `batch x seq` tokens:
/// `transformer.attn_*`, `transformer.block_*`, the dense FFN when the
/// model has one, and the `tensor.*` operations around them.
pub fn lm_parts(
    t: &Replayer,
    shape: LmShape,
    batch: usize,
    seq: usize,
    backward: bool,
    rng: &mut StdRng,
    out: &mut Values,
) -> LmTimes {
    let tokens = batch * seq;
    let x = api::normal(tokens, shape.hidden, 1.0, rng);
    let d = api::normal(tokens, shape.hidden, 0.1, rng);
    let mut times = LmTimes::default();

    let mut attn = api::new_attention(shape, rng);
    times.attn_fwd_ms = t.ms("transformer.attn_fwd", || {
        api::attention_forward(&attn, &x, batch, seq)
    });
    out.set("transformer.attn_fwd_ms", times.attn_fwd_ms);
    let mut block = api::new_block(shape, rng);
    times.block_fwd_ms = t.ms("transformer.block_fwd", || {
        api::block_forward(&block, &x, batch, seq)
    });
    out.set("transformer.block_fwd_ms", times.block_fwd_ms);

    let scores = api::normal(batch * shape.heads * seq, seq, 1.0, rng);
    out.set(
        "tensor.softmax_ms",
        t.ms("tensor.softmax", || api::softmax_rows(&scores)),
    );
    let w_ffn = api::normal(shape.hidden, shape.ffn, 0.02, rng);
    let gemm = t.ms("tensor.gemm_ffn", || api::matmul(&x, &w_ffn));
    out.set(
        "tensor.gemm_ffn_gflops",
        gflops(2 * tokens * shape.hidden * shape.ffn, gemm),
    );
    let wte = api::normal(shape.vocab, shape.hidden, 0.02, rng);
    times.lmhead_ms = t.ms("tensor.gemm_lmhead", || api::matmul_nt(&x, &wte));
    out.set("tensor.gemm_lmhead_ms", times.lmhead_ms);

    if shape.moe.is_none() {
        let mut ffn = api::new_dense_ffn(shape.hidden, shape.ffn, rng);
        times.dense_fwd_ms = t.ms("core.dense_ffn_fwd", || api::dense_ffn_forward(&ffn, &x));
        out.set("core.dense_ffn_fwd_ms", times.dense_fwd_ms);
        let pre_act = api::zeros(tokens, shape.ffn);
        out.set(
            "tensor.gelu_ms",
            t.ms("tensor.gelu", || api::gelu(&pre_act)),
        );
        if backward {
            let (_y, cache) = api::dense_ffn_forward(&ffn, &x);
            times.dense_bwd_ms = t.ms("core.dense_ffn_bwd", || {
                api::dense_ffn_backward(&mut ffn, &cache, &d)
            });
            out.set("core.dense_ffn_bwd_ms", times.dense_bwd_ms);
        }
    }

    if backward {
        let (_y, cache) = api::attention_forward(&attn, &x, batch, seq);
        times.attn_bwd_ms = t.ms("transformer.attn_bwd", || {
            api::attention_backward(&mut attn, &cache, &d)
        });
        out.set("transformer.attn_bwd_ms", times.attn_bwd_ms);
        let (_y, cache) = api::block_forward(&block, &x, batch, seq);
        out.set(
            "transformer.block_bwd_ms",
            t.ms("transformer.block_bwd", || {
                api::block_backward(&mut block, &cache, &d)
            }),
        );
        times.layernorm_ms = t.ms("tensor.layernorm_fwd_bwd", || {
            api::layer_norm_fwd_bwd(&x, &d)
        });
        out.set("tensor.layernorm_fwd_bwd_ms", times.layernorm_ms);
        let logits = api::matmul_nt(&x, &wte);
        let targets: Vec<usize> = (0..tokens).map(|i| (i * 7 + 3) % shape.vocab).collect();
        times.cross_entropy_ms = t.ms("tensor.cross_entropy", || {
            api::cross_entropy(&logits, &targets)
        });
        out.set("tensor.cross_entropy_ms", times.cross_entropy_ms);
    }
    times
}

/// The exec runtime as the replaying thread saw it: thread count, the fixed
/// cost of a launch, and the share of workspace requests since `before`
/// (an earlier [`api::workspace_counts`]) that a shelved buffer served.
pub fn exec_parts(t: &Replayer, workspace_before: (u64, u64), out: &mut Values) {
    let (hits, misses) = api::workspace_counts();
    let (hits, misses) = (hits - workspace_before.0, misses - workspace_before.1);
    if hits + misses > 0 {
        out.set(
            "exec.workspace_hit_frac",
            hits as f64 / (hits + misses) as f64,
        );
    }
    out.set("exec.threads", api::threads() as f64);
    out.set(
        "exec.launch_us",
        t.ms("exec.launch", api::empty_launch) * 1e3,
    );
}

/// `transformer.next_token_ms_ctx32` / `_ctx96` on `lm`; windows longer
/// than the model's maximum sequence are skipped.
pub fn next_token_parts(t: &Replayer, lm: &TransformerLm, tokens: &[usize], out: &mut Values) {
    let max_seq = api::lm_max_seq(lm);
    for (name, span, ctx) in [
        (
            "transformer.next_token_ms_ctx32",
            "transformer.next_token_ctx32",
            32,
        ),
        (
            "transformer.next_token_ms_ctx96",
            "transformer.next_token_ctx96",
            96,
        ),
    ] {
        if ctx <= max_seq && ctx <= tokens.len() {
            out.set(
                name,
                t.ms(span, || api::next_token_logits(lm, &tokens[..ctx])),
            );
        }
    }
}
