//! Property-based tests for routing, permutation and the MoE layers.

use megablocks_core::{
    load_balancing_loss, padded_gather, padded_gather_backward, padded_scatter_backward,
    CapacityFactor, DroplessMoe, DroppingMoe, MoeConfig, PermuteInfo, Router, Routing,
};
use megablocks_tensor::init::{normal, seeded_rng};
use megablocks_tensor::Matrix;
use proptest::prelude::*;

fn routing_inputs() -> impl Strategy<Value = (Vec<usize>, usize, usize)> {
    // (expert assignments, num_experts, top_k)
    (1usize..6, 1usize..3).prop_flat_map(|(experts, top_k)| {
        proptest::collection::vec(0usize..experts, (top_k, 30 * top_k))
            .prop_filter("multiple of top_k", move |v| v.len() % top_k == 0)
            .prop_map(move |v| (v, experts, top_k))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn permute_info_invariants((indices, experts, top_k) in routing_inputs(), align in 1usize..9) {
        let info = PermuteInfo::with_alignment(&indices, experts, top_k, align);
        // Every assignment row is unique and in range.
        let row_of = |a| info.row_of(a).expect("every assignment is kept");
        let mut rows: Vec<usize> = (0..info.num_assignments()).map(row_of).collect();
        rows.sort_unstable();
        rows.dedup();
        prop_assert_eq!(rows.len(), info.num_assignments(), "destination rows must be unique");
        prop_assert!(rows.iter().all(|&r| r < info.padded_rows()));
        // Padded counts are aligned and cover the raw counts.
        for (&raw, &padded) in info.tokens_per_expert().iter().zip(info.padded_tokens_per_expert()) {
            prop_assert_eq!(padded % align, 0);
            prop_assert!(padded >= raw && padded < raw + align);
        }
        prop_assert_eq!(
            info.padded_rows(),
            info.padded_tokens_per_expert().iter().sum::<usize>()
        );
        // Rows grouped by expert are contiguous and ordered by token.
        for a in 1..info.num_assignments() {
            let (e_prev, e_cur) = (indices[a - 1], indices[a]);
            if e_prev == e_cur {
                prop_assert!(row_of(a) > row_of(a - 1));
            }
        }
    }

    #[test]
    fn gather_scatter_adjointness((indices, experts, top_k) in routing_inputs(), align in 1usize..6) {
        // <scatter(y), v> == <y, scatter^T(v)> with unit weights: gather
        // backward is the adjoint of gather, scatter of scatter.
        let info = PermuteInfo::with_alignment(&indices, experts, top_k, align);
        let h = 3;
        let n = info.num_tokens();
        let x = Matrix::from_fn(n, h, |i, j| ((i * 3 + j) as f32).sin());
        let g = padded_gather(&x, &info);
        let v = Matrix::from_fn(info.padded_rows(), h, |i, j| ((i + 2 * j) as f32).cos());
        // <gather(x), v> == <x, gather_backward(v)>
        let lhs: f32 = g.as_slice().iter().zip(v.as_slice()).map(|(a, b)| a * b).sum();
        let gb = padded_gather_backward(&v, &info);
        let rhs: f32 = x.as_slice().iter().zip(gb.as_slice()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn scatter_backward_weights_match_manual((indices, experts, top_k) in routing_inputs()) {
        let info = PermuteInfo::with_alignment(&indices, experts, top_k, 4);
        let h = 2;
        let y = Matrix::from_fn(info.padded_rows(), h, |i, j| (i + j) as f32 * 0.1);
        let weights: Vec<f32> = (0..info.num_assignments()).map(|a| 0.5 + (a % 3) as f32 * 0.25).collect();
        let d_out = Matrix::from_fn(info.num_tokens(), h, |i, j| ((i * 2 + j) as f32).sin());
        let (dy, dw) = padded_scatter_backward(&d_out, &y, &info, &weights);
        for a in 0..info.num_assignments() {
            let t = info.token_of(a);
            let r = info.row_of(a).expect("every assignment is kept");
            let manual: f32 = (0..h).map(|j| d_out[(t, j)] * y[(r, j)]).sum();
            prop_assert!((dw[a] - manual).abs() < 1e-5);
            for j in 0..h {
                prop_assert!((dy[(r, j)] - weights[a] * d_out[(t, j)]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn router_weights_are_valid_probabilities(tokens in 1usize..20, seed in 0u64..50) {
        let mut rng = seeded_rng(seed);
        let router = Router::new(5, 4, 2, &mut rng);
        let x = normal(tokens, 5, 1.0, &mut rng);
        let r = router.forward(&x);
        prop_assert_eq!(r.expert_indices.len(), tokens * 2);
        for (a, &w) in r.weights.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&w), "assignment {a} weight {w}");
        }
        // Within a token, the k selections are distinct experts.
        for t in 0..tokens {
            let e0 = r.expert_indices[2 * t];
            let e1 = r.expert_indices[2 * t + 1];
            prop_assert_ne!(e0, e1, "token {} selected the same expert twice", t);
        }
    }

    #[test]
    fn load_balance_loss_is_minimized_by_uniformity(experts in 2usize..8, tokens in 4usize..40) {
        // Uniform probs + balanced assignment = alpha; any collapsed
        // assignment with matching probs scores higher.
        let alpha = 0.01;
        let probs = Matrix::full(tokens, experts, 1.0 / experts as f32);
        let balanced: Vec<usize> = (0..tokens).map(|t| t % experts).collect();
        let weights: Vec<f32> = balanced.iter().map(|_| 1.0 / experts as f32).collect();
        let uniform = Routing {
            probs: probs.clone(),
            expert_indices: balanced,
            weights: weights.clone(),
            top_k: 1,
        };
        let lb_uniform = load_balancing_loss(&uniform, alpha);
        prop_assert!((lb_uniform.loss - alpha).abs() < 1e-6);

        let collapsed = Routing {
            probs,
            expert_indices: vec![0; tokens],
            weights,
            top_k: 1,
        };
        let lb_collapsed = load_balancing_loss(&collapsed, alpha);
        prop_assert!(lb_collapsed.loss >= lb_uniform.loss - 1e-7);
    }

    #[test]
    fn dmoe_handles_any_token_count(tokens in 1usize..40, seed in 0u64..20) {
        let cfg = MoeConfig::new(6, 8, 3).with_block_size(4);
        let mut rng = seeded_rng(seed);
        let layer = DroplessMoe::new(cfg, &mut rng);
        let x = normal(tokens, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        prop_assert_eq!(out.output.shape(), (tokens, 6));
        prop_assert_eq!(out.stats.dropped_tokens, 0);
        prop_assert!(out.output.as_slice().iter().all(|v| v.is_finite()));
        // Padding never exceeds one block per expert.
        prop_assert!(out.stats.padding_rows < 3 * 4);
    }

    #[test]
    fn dropping_never_exceeds_capacity(tokens in 1usize..40, cf in 0.25f32..2.5, seed in 0u64..20) {
        let cfg = MoeConfig::new(6, 8, 3)
            .with_block_size(4)
            .with_capacity(CapacityFactor::Fixed(cf));
        let mut rng = seeded_rng(seed);
        let layer = DroppingMoe::new(cfg.clone(), &mut rng);
        let x = normal(tokens, 6, 1.0, &mut rng);
        let out = layer.forward(&x);
        let cap = cfg.expert_capacity(tokens, cf).max(1);
        // kept per expert <= capacity
        for (e, &assigned) in out.stats.tokens_per_expert.iter().enumerate() {
            let kept = assigned.min(cap);
            let _ = (e, kept);
            prop_assert!(assigned.saturating_sub(cap) <= out.stats.dropped_tokens);
        }
        let total_kept: usize = out
            .stats
            .tokens_per_expert
            .iter()
            .map(|&a| a.min(cap))
            .sum();
        prop_assert_eq!(total_kept + out.stats.dropped_tokens, tokens);
    }
}
