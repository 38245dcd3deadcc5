//! A pre-norm Transformer block with a pluggable feed-forward layer.

use megablocks_core::{
    DenseFfn, DmoeCache, DroplessMoe, DroppingMoe, DroppingMoeCache, ExpertChoiceCache,
    ExpertChoiceMoe, FfnCache, MoeStats, Param,
};
use megablocks_tensor::ops::LayerNormCache;
use megablocks_tensor::Matrix;
use rand::rngs::StdRng;

use crate::attention::{KvCache, Retain};
use crate::{Attention, AttentionCache, FfnKind, LayerNorm};

/// The feed-forward sub-layer of a block: dense, dropless MoE, or
/// token-dropping MoE.
#[derive(Debug, Clone)]
pub enum BlockFfn {
    /// Dense 2-layer MLP (Megatron-LM baseline).
    Dense(DenseFfn),
    /// MegaBlocks dropless MoE.
    Dropless(DroplessMoe),
    /// Token-dropping MoE (Tutel baseline).
    Dropping(DroppingMoe),
    /// Block-sparse MoE with expert-choice routing (Zhou et al. 2022).
    ExpertChoice(ExpertChoiceMoe),
}

/// Cache of whichever FFN flavor ran in the forward pass.
#[derive(Debug, Clone)]
enum FfnCacheKind {
    Dense(FfnCache),
    Dropless(DmoeCache),
    Dropping(DroppingMoeCache),
    ExpertChoice(ExpertChoiceCache),
}

impl FfnCacheKind {
    fn recycle(self) {
        match self {
            FfnCacheKind::Dense(c) => c.recycle(),
            FfnCacheKind::Dropless(c) | FfnCacheKind::Dropping(c) => c.recycle(),
            FfnCacheKind::ExpertChoice(c) => c.recycle(),
        }
    }
}

/// Forward-pass cache for [`Block::backward`].
#[derive(Debug, Clone)]
pub struct BlockCache {
    x: Matrix,
    ln1: LayerNormCache,
    attn: AttentionCache,
    mid: Matrix,
    ln2: LayerNormCache,
    ffn: FfnCacheKind,
    /// MoE statistics of this block's forward pass (None for dense FFN).
    pub moe_stats: Option<MoeStats>,
}

impl BlockCache {
    /// Returns the cache's buffers to the calling thread's workspace arena.
    pub fn recycle(self) {
        self.x.recycle();
        self.ln1.recycle();
        self.attn.recycle();
        self.mid.recycle();
        self.ln2.recycle();
        self.ffn.recycle();
    }
}

/// One pre-norm Transformer block:
/// `x + attn(ln1(x))` followed by `· + ffn(ln2(·))`.
#[derive(Debug, Clone)]
pub struct Block {
    ln1: LayerNorm,
    attn: Attention,
    ln2: LayerNorm,
    ffn: BlockFfn,
}

impl Block {
    /// Creates a block for `hidden` features with the given FFN flavor.
    pub fn new(
        hidden: usize,
        num_heads: usize,
        ffn_hidden: usize,
        ffn: &FfnKind,
        rng: &mut StdRng,
    ) -> Self {
        let ffn = match ffn {
            FfnKind::Dense => BlockFfn::Dense(DenseFfn::new(hidden, ffn_hidden, rng)),
            FfnKind::Dropless(cfg) => BlockFfn::Dropless(DroplessMoe::new(cfg.clone(), rng)),
            FfnKind::Dropping(cfg) => BlockFfn::Dropping(DroppingMoe::new(cfg.clone(), rng)),
            FfnKind::ExpertChoice(cfg) => {
                BlockFfn::ExpertChoice(ExpertChoiceMoe::new(cfg.clone(), rng))
            }
        };
        Self {
            ln1: LayerNorm::new(hidden),
            attn: Attention::new(hidden, num_heads, rng),
            ln2: LayerNorm::new(hidden),
            ffn,
        }
    }

    /// Trainable parameters of the block, in a stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.ln1.params_mut();
        p.extend(self.attn.params_mut());
        p.extend(self.ln2.params_mut());
        match &mut self.ffn {
            BlockFfn::Dense(f) => p.extend(f.params_mut()),
            BlockFfn::Dropless(f) => p.extend(f.params_mut()),
            BlockFfn::Dropping(f) => p.extend(f.params_mut()),
            BlockFfn::ExpertChoice(f) => p.extend(f.params_mut()),
        }
        p
    }

    /// The FFN sub-layer (for inspection by experiments).
    pub fn ffn(&self) -> &BlockFfn {
        &self.ffn
    }

    /// Whether the FFN maps each token on its own, so that a token's
    /// output does not depend on which other tokens share the call (dense
    /// and dropless do; a capacity limit or expert-choice routing does
    /// not).
    pub(crate) fn ffn_is_tokenwise(&self) -> bool {
        matches!(self.ffn, BlockFfn::Dense(_) | BlockFfn::Dropless(_))
    }

    /// Forward pass over `batch` sequences of length `seq`. The output and
    /// the cache are in the calling thread's workspace arena: give them
    /// back with [`Matrix::recycle`] and [`BlockCache::recycle`].
    pub fn forward(&self, x: &Matrix, batch: usize, seq: usize) -> (Matrix, BlockCache) {
        let x = x.pooled_copy();
        let (out, cache) = self.pass(x, batch, seq, seq, None, Retain::ForBackward);
        (out, cache.expect("a ForBackward pass keeps its cache"))
    }

    /// The one block forward; `keep`, `kv` and `retain` are
    /// [`Attention::pass`]'s: every row feeds the keys and values, and
    /// the last `keep` rows of each sequence run the rest of the block.
    /// The pass takes `x`, which the cache keeps or the arena gets back.
    pub(crate) fn pass(
        &self,
        x: Matrix,
        batch: usize,
        seq: usize,
        keep: usize,
        kv: Option<(&mut KvCache, usize)>,
        retain: Retain,
    ) -> (Matrix, Option<BlockCache>) {
        let (n1, ln1) = self.ln1.forward(&x);
        let (mut mid, attn) = self.attn.pass(n1, batch, seq, keep, kv, retain);
        // `attn + x` is `x + attn` bit for bit, without a copy of `x`; the
        // kept rows are the last `keep` of each sequence of `x`.
        let h = x.cols();
        let sequences = x.as_slice().chunks(seq * h);
        for (rows, xs) in mid.as_mut_slice().chunks_mut(keep * h).zip(sequences) {
            for (m, v) in rows.iter_mut().zip(&xs[(seq - keep) * h..]) {
                *m += v;
            }
        }

        let (n2, ln2) = self.ln2.forward(&mid);
        let (mut f, ffn) = match (&self.ffn, retain) {
            // The one FFN with a retention-free entry.
            (BlockFfn::Dropless(moe), Retain::Nothing) => {
                (moe.infer(&n2).unwrap_or_else(|e| panic!("{e}")), None)
            }
            (BlockFfn::Dense(ffn), _) => {
                let (y, c) = ffn.forward(&n2);
                (y, Some((FfnCacheKind::Dense(c), None)))
            }
            (BlockFfn::Dropless(moe), _) => {
                let out = moe.forward(&n2);
                let cache = FfnCacheKind::Dropless(out.cache);
                (out.output, Some((cache, Some(out.stats))))
            }
            (BlockFfn::Dropping(moe), _) => {
                let out = moe.forward(&n2);
                let cache = FfnCacheKind::Dropping(out.cache);
                (out.output, Some((cache, Some(out.stats))))
            }
            (BlockFfn::ExpertChoice(moe), _) => {
                let out = moe.forward(&n2);
                let cache = FfnCacheKind::ExpertChoice(out.cache);
                (out.output, Some((cache, Some(out.stats))))
            }
        };
        // Every FFN cache keeps its own copy of its input.
        n2.recycle();
        match retain {
            Retain::ForBackward => {
                f.add_assign(&mid);
                let (ffn, moe_stats) = ffn.expect("a ForBackward pass keeps the FFN cache");
                let cache = BlockCache {
                    x,
                    ln1,
                    attn: attn.expect("a ForBackward pass keeps the attention cache"),
                    mid,
                    ln2,
                    ffn,
                    moe_stats,
                };
                (f, Some(cache))
            }
            Retain::Nothing => {
                mid.add_assign(&f);
                f.recycle();
                x.recycle();
                ln1.recycle();
                ln2.recycle();
                if let Some((ffn, _)) = ffn {
                    ffn.recycle();
                }
                (mid, None)
            }
        }
    }

    /// Backward pass; accumulates parameter gradients and returns `dx`, in
    /// the calling thread's workspace arena.
    pub fn backward(&mut self, cache: &BlockCache, d_out: &Matrix) -> Matrix {
        // Second residual: d_out flows to both mid and the FFN branch.
        let d_n2 = match (&mut self.ffn, &cache.ffn) {
            (BlockFfn::Dense(ffn), FfnCacheKind::Dense(c)) => ffn.backward(c, d_out),
            (BlockFfn::Dropless(moe), FfnCacheKind::Dropless(c)) => moe.backward(c, d_out),
            (BlockFfn::Dropping(moe), FfnCacheKind::Dropping(c)) => moe.backward(c, d_out),
            (BlockFfn::ExpertChoice(moe), FfnCacheKind::ExpertChoice(c)) => moe.backward(c, d_out),
            _ => unreachable!("cache flavor always matches the layer flavor"),
        };
        // Each residual sum is added into the layer norm's gradient: `b + a`
        // is `a + b` bit for bit, without a copy of `d_out`.
        let mut d_mid = self.ln2.backward(&cache.mid, &d_n2, &cache.ln2);
        d_mid.add_assign(d_out);
        d_n2.recycle();

        // First residual.
        let d_n1 = self.attn.backward(&cache.attn, &d_mid);
        let mut dx = self.ln1.backward(&cache.x, &d_n1, &cache.ln1);
        dx.add_assign(&d_mid);
        d_n1.recycle();
        d_mid.recycle();
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megablocks_core::MoeConfig;
    use megablocks_tensor::init::{normal, seeded_rng};

    #[test]
    fn dense_block_roundtrip_shapes() {
        let mut rng = seeded_rng(1);
        let mut block = Block::new(8, 2, 16, &FfnKind::Dense, &mut rng);
        let x = normal(6, 8, 1.0, &mut rng);
        let (y, cache) = block.forward(&x, 2, 3);
        assert_eq!(y.shape(), (6, 8));
        assert!(cache.moe_stats.is_none());
        let dx = block.backward(&cache, &Matrix::full(6, 8, 0.1));
        assert_eq!(dx.shape(), (6, 8));
    }

    #[test]
    fn moe_block_reports_stats() {
        let mut rng = seeded_rng(2);
        let moe = MoeConfig::new(8, 16, 2).with_block_size(4);
        let mut block = Block::new(8, 2, 16, &FfnKind::Dropless(moe), &mut rng);
        let x = normal(8, 8, 1.0, &mut rng);
        let (y, cache) = block.forward(&x, 2, 4);
        assert_eq!(y.shape(), (8, 8));
        let stats = cache.moe_stats.as_ref().unwrap();
        assert_eq!(stats.dropped_tokens, 0);
        assert_eq!(stats.tokens_per_expert.iter().sum::<usize>(), 8);
        let dx = block.backward(&cache, &Matrix::full(8, 8, 0.05));
        assert_eq!(dx.shape(), (8, 8));
    }

    #[test]
    fn block_gradient_matches_finite_difference() {
        let mut rng = seeded_rng(3);
        let mut block = Block::new(6, 2, 8, &FfnKind::Dense, &mut rng);
        let x = normal(4, 6, 0.6, &mut rng);
        let w = normal(4, 6, 0.5, &mut rng);

        let objective = |block: &Block, x: &Matrix| -> f32 {
            let (y, _) = block.forward(x, 1, 4);
            y.as_slice()
                .iter()
                .zip(w.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };

        let (_, cache) = block.forward(&x, 1, 4);
        let dx = block.backward(&cache, &w);
        let eps = 1e-3;
        for i in 0..4 {
            for j in 0..6 {
                let mut xp = x.clone();
                xp[(i, j)] += eps;
                let mut xm = x.clone();
                xm[(i, j)] -= eps;
                let num = (objective(&block, &xp) - objective(&block, &xm)) / (2.0 * eps);
                assert!(
                    (num - dx[(i, j)]).abs() < 4e-2 * (1.0 + num.abs()),
                    "dx({i},{j}): numeric {num}, analytic {}",
                    dx[(i, j)]
                );
            }
        }
    }
}
