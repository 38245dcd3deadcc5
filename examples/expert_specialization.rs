//! Do experts specialize? The paper (§2) recalls the conjecture that MoE
//! quality gains come from experts specializing to parts of the data
//! distribution. The synthetic Pile exposes its latent document clusters,
//! so we can measure it directly: train a dMoE LM, route the corpus
//! through the first MoE layer's router, and compute the mutual
//! information between a token's cluster and its expert.
//!
//! Run with: `cargo run --release --example expert_specialization`

use megablocks::core::MoeConfig;
use megablocks::data::{PileConfig, SyntheticPile};
use megablocks::tensor::init::seeded_rng;
use megablocks::transformer::{
    BlockFfn, FfnKind, Trainer, TrainerConfig, TransformerConfig, TransformerLm,
};

/// Counts (cluster, expert) routing pairs over a slice of the corpus,
/// probing the first block's router on the model's real embeddings.
fn routing_histogram(
    model: &TransformerLm,
    pile: &SyntheticPile,
    seq: usize,
    num_experts: usize,
    num_clusters: usize,
) -> Vec<Vec<usize>> {
    let BlockFfn::Dropless(moe) = model.blocks()[0].ffn() else {
        panic!("example expects a dMoE first block");
    };
    let tokens = pile.tokens();
    let clusters = pile.cluster_of_token();
    let take = 4096.min(tokens.len());
    let windows = take / seq;
    let mut counts = vec![vec![0usize; num_experts]; num_clusters];
    for w in 0..windows {
        let start = w * seq;
        let window: Vec<usize> = tokens[start..start + seq]
            .iter()
            .map(|&t| t as usize)
            .collect();
        let x = model.embed_tokens(&window, 1);
        let routing = moe.router().forward(&x);
        for (i, &e) in routing.expert_indices.iter().enumerate() {
            counts[clusters[start + i] as usize][e] += 1;
        }
    }
    counts
}

/// Mutual information (nats) of a joint count table.
fn mutual_information(counts: &[Vec<usize>]) -> f64 {
    let total: usize = counts.iter().flatten().sum();
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    let rows: Vec<f64> = counts
        .iter()
        .map(|r| r.iter().sum::<usize>() as f64 / n)
        .collect();
    let mut cols = vec![0.0f64; counts[0].len()];
    for r in counts {
        for (c, &v) in cols.iter_mut().zip(r) {
            *c += v as f64 / n;
        }
    }
    let mut mi = 0.0;
    for (i, r) in counts.iter().enumerate() {
        for (j, &v) in r.iter().enumerate() {
            if v > 0 {
                let p = v as f64 / n;
                mi += p * (p / (rows[i] * cols[j])).ln();
            }
        }
    }
    mi
}

fn main() {
    let pile_cfg = PileConfig {
        vocab_size: 256,
        num_clusters: 8,
        num_tokens: 80_000,
        mean_doc_len: 64,
        branching: 4,
        noise: 0.1,
    };
    let pile = SyntheticPile::generate(&pile_cfg, 11);
    let (train, valid) = pile.split(0.9);

    let moe = MoeConfig::new(64, 128, 8).with_block_size(16);
    let model_cfg = TransformerConfig {
        vocab_size: 256,
        hidden_size: 64,
        num_layers: 2,
        num_heads: 2,
        seq_len: 64,
        ffn_hidden_size: 128,
        ffn: FfnKind::Dropless(moe),
    };
    let mut rng = seeded_rng(1);
    let model = TransformerLm::new(model_cfg, &mut rng);
    let tcfg = TrainerConfig {
        batch_size: 16,
        micro_batch_size: 8,
        seq_len: 64,
        lr_max: 3e-3,
        warmup_steps: 15,
        total_steps: 150,
        clip: 1.0,
        seed: 5,
    };
    let mut trainer = Trainer::new(model, tcfg);

    let before = routing_histogram(trainer.model(), &pile, 64, 8, 8);
    println!("training 150 steps...");
    trainer.train(&train, 150).expect("training completes");
    println!("validation loss: {:.4}", trainer.evaluate(&valid, 8).loss);
    let after = routing_histogram(trainer.model(), &pile, 64, 8, 8);

    println!("\ncluster -> expert routing histogram after training:");
    for (c, row) in after.iter().enumerate() {
        println!("  cluster {c}: {row:?}");
    }
    println!(
        "\nmutual information I(cluster; expert): before {:.4} nats, after {:.4} nats",
        mutual_information(&before),
        mutual_information(&after)
    );
    println!("(higher = experts specialized to clusters; ln(8) = 2.079 is the max)");
}
