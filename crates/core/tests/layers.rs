//! The MoE layers, the router and the dense FFN against one
//! finite-difference harness, and the exact identities that hold because
//! every MoE layer is one layer over a placement policy.

use megablocks_core::{
    CapacityFactor, DenseFfn, DroplessMoe, DroppingMoe, ExpertChoiceMoe, MoeConfig, MoeLayer,
    Param, Placement, Router,
};
use megablocks_tensor::init::{normal, seeded_rng};
use megablocks_tensor::Matrix;

const HIDDEN: usize = 6;

fn cfg() -> MoeConfig {
    MoeConfig::new(HIDDEN, 8, 3).with_block_size(4)
}

/// What the harness needs of a layer. It checks every parameter
/// `params_mut` returns and names each by its index there.
trait Layer {
    fn params_mut(&mut self) -> Vec<&mut Param>;
    /// Layer output and auxiliary loss.
    fn run(&self, x: &Matrix) -> (Matrix, f32);
    /// One forward and backward pass; returns `dx`.
    fn grads(&mut self, x: &Matrix, d_out: &Matrix) -> Matrix;
    /// Who goes where: finite differences are only valid where a
    /// perturbation leaves this unchanged.
    fn assignment(&mut self, x: &Matrix) -> Vec<usize>;
}

impl<P: Placement> Layer for MoeLayer<P> {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        MoeLayer::params_mut(self)
    }
    fn run(&self, x: &Matrix) -> (Matrix, f32) {
        let out = self.forward(x);
        (out.output, out.stats.load_balancing_loss)
    }
    fn grads(&mut self, x: &Matrix, d_out: &Matrix) -> Matrix {
        let out = self.forward(x);
        self.backward(&out.cache, d_out)
    }
    // Each expert's demand and each assignment's row: the rows alone fix
    // every kept assignment's expert once the demand fixes the offsets.
    fn assignment(&mut self, x: &Matrix) -> Vec<usize> {
        let out = self.forward(x);
        let permute = out.cache.permute();
        let rows = (0..permute.num_assignments()).map(|a| permute.row_of(a).unwrap_or(usize::MAX));
        permute
            .tokens_per_expert()
            .iter()
            .copied()
            .chain(rows)
            .collect()
    }
}

// The router's output is its per-assignment weights, one row of `top_k`
// per token, so the objective reads the first `tokens * top_k` entries of
// its weight matrix, and the backward takes the same entries as `d_weights`.
impl Layer for Router {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![self.weight_mut()]
    }
    fn run(&self, x: &Matrix) -> (Matrix, f32) {
        let routing = self.forward(x);
        let weights = Matrix::from_vec(x.rows(), self.top_k(), routing.weights);
        (weights.expect("top_k weights per token"), 0.0)
    }
    fn grads(&mut self, x: &Matrix, d_out: &Matrix) -> Matrix {
        let routing = self.forward(x);
        let d_weights = &d_out.as_slice()[..routing.weights.len()];
        self.backward(x, &routing, d_weights, None)
    }
    fn assignment(&mut self, x: &Matrix) -> Vec<usize> {
        self.forward(x).expert_indices
    }
}

// A dense FFN routes nothing: no perturbation changes who goes where.
impl Layer for DenseFfn {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        DenseFfn::params_mut(self)
    }
    fn run(&self, x: &Matrix) -> (Matrix, f32) {
        (self.forward(x).0, 0.0)
    }
    fn grads(&mut self, x: &Matrix, d_out: &Matrix) -> Matrix {
        let (_, cache) = self.forward(x);
        self.backward(&cache, d_out)
    }
    fn assignment(&mut self, _: &Matrix) -> Vec<usize> {
        Vec::new()
    }
}

fn objective(layer: &dyn Layer, x: &Matrix, w: &Matrix) -> f32 {
    let (out, aux) = layer.run(x);
    let dot: f32 = out
        .as_slice()
        .iter()
        .zip(w.as_slice())
        .map(|(a, b)| a * b)
        .sum();
    dot + aux
}

/// Checks `dx` and the gradient of every parameter against central
/// differences of `sum(output * w) + aux`.
fn check_gradients(name: &str, layer: &mut dyn Layer, tokens: usize, seed: u64) {
    const EPS: f32 = 2e-3;
    let close = |num: f32, ana: f32| (num - ana).abs() < 5e-2 * (1.0 + num.abs());
    let mut rng = seeded_rng(seed);
    let mut x = normal(tokens, HIDDEN, 0.6, &mut rng);
    let w = normal(tokens, HIDDEN, 0.5, &mut rng);

    let dx = layer.grads(&x, &w);
    let base = layer.assignment(&x);
    let grads: Vec<Matrix> = layer
        .params_mut()
        .iter()
        .map(|p| p.grad().clone())
        .collect();

    let mut checked = 0;
    for i in 0..tokens {
        for j in [0usize, 3, 5] {
            let orig = x[(i, j)];
            let mut at = |v: f32, layer: &mut dyn Layer| {
                x[(i, j)] = v;
                (layer.assignment(&x) == base).then(|| objective(layer, &x, &w))
            };
            let plus = at(orig + EPS, layer);
            let minus = at(orig - EPS, layer);
            x[(i, j)] = orig;
            let (Some(fp), Some(fm)) = (plus, minus) else {
                continue;
            };
            let num = (fp - fm) / (2.0 * EPS);
            assert!(
                close(num, dx[(i, j)]),
                "{name} dx({i},{j}): numeric {num}, analytic {}",
                dx[(i, j)]
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 10,
        "{name}: only {checked} stable finite-diff points"
    );

    for (p, grad) in grads.iter().enumerate() {
        let (rows, cols) = grad.shape();
        let mut checked = 0;
        for spot in 0..8 {
            let (r, c) = ((spot * 5) % rows, (spot * 7 + 1) % cols);
            let orig = layer.params_mut()[p].value()[(r, c)];
            let at = |v: f32, layer: &mut dyn Layer| {
                layer.params_mut()[p].value_mut()[(r, c)] = v;
                (layer.assignment(&x) == base).then(|| objective(layer, &x, &w))
            };
            let plus = at(orig + EPS, layer);
            let minus = at(orig - EPS, layer);
            layer.params_mut()[p].value_mut()[(r, c)] = orig;
            let (Some(fp), Some(fm)) = (plus, minus) else {
                continue;
            };
            let num = (fp - fm) / (2.0 * EPS);
            assert!(
                close(num, grad[(r, c)]),
                "{name} param {p} ({r},{c}): numeric {num}, analytic {}",
                grad[(r, c)]
            );
            checked += 1;
        }
        // Expert choice ranks near-equal probabilities, so most router
        // perturbations flip a pick.
        assert!(
            checked >= 2,
            "{name} param {p}: only {checked} stable points"
        );
    }
}

#[test]
fn every_layer_matches_finite_differences() {
    let dropping = |capacity| cfg().with_capacity(capacity);
    let mut rng = seeded_rng(1);
    let mut cases: Vec<(&str, Box<dyn Layer>)> = vec![
        (
            "dropless top-1",
            Box::new(DroplessMoe::new(cfg(), &mut rng)),
        ),
        (
            "dropless top-2",
            Box::new(DroplessMoe::new(cfg().with_top_k(2), &mut rng)),
        ),
        (
            "dropping cf 0.5",
            Box::new(DroppingMoe::new(
                dropping(CapacityFactor::Fixed(0.5)),
                &mut rng,
            )),
        ),
        (
            "dropping cf 1.0",
            Box::new(DroppingMoe::new(
                dropping(CapacityFactor::Fixed(1.0)),
                &mut rng,
            )),
        ),
        (
            "dropping dynamic",
            Box::new(DroppingMoe::new(
                dropping(CapacityFactor::Dynamic),
                &mut rng,
            )),
        ),
        (
            "expert choice",
            Box::new(ExpertChoiceMoe::new(cfg(), &mut rng)),
        ),
        ("dense ffn", Box::new(DenseFfn::new(HIDDEN, 8, &mut rng))),
        (
            "router top-1",
            Box::new(Router::new(HIDDEN, 3, 1, &mut rng)),
        ),
        (
            "router top-2",
            Box::new(Router::new(HIDDEN, 3, 2, &mut rng)),
        ),
    ];
    for (seed, (name, layer)) in cases.iter_mut().enumerate() {
        check_gradients(name, layer.as_mut(), 12, 10 + seed as u64);
    }
}

#[test]
fn dropping_at_dynamic_capacity_is_bit_identical_to_dropless() {
    // Same kernels over the same rows: padding every expert to the
    // largest load only appends zero rows, and those add +0.0.
    for top_k in [1, 2] {
        let cfg = cfg().with_top_k(top_k);
        let mut dropping = DroppingMoe::new(
            cfg.clone().with_capacity(CapacityFactor::Dynamic),
            &mut seeded_rng(7),
        );
        let mut dropless = DroplessMoe::new(cfg, &mut seeded_rng(7));
        let mut rng = seeded_rng(8);
        let x = normal(21, HIDDEN, 1.0, &mut rng);
        let d = normal(21, HIDDEN, 0.3, &mut rng);

        let a = dropping.forward(&x);
        let b = dropless.forward(&x);
        assert_eq!(a.stats.dropped_tokens, 0);
        assert_eq!(
            a.output.as_slice(),
            b.output.as_slice(),
            "top-{top_k} output"
        );
        let dxa = dropping.backward(&a.cache, &d);
        let dxb = dropless.backward(&b.cache, &d);
        assert_eq!(dxa.as_slice(), dxb.as_slice(), "top-{top_k} dx");
        for ((pa, pb), name) in dropping
            .params_mut()
            .into_iter()
            .zip(dropless.params_mut())
            .zip(["router", "w1", "w2"])
        {
            assert_eq!(
                pa.grad().as_slice(),
                pb.grad().as_slice(),
                "top-{top_k} d_{name}"
            );
        }
    }
}

#[test]
fn a_dropped_assignment_contributes_exactly_zero() {
    // A dropping layer over a batch equals a dropless layer over the
    // tokens it kept: same rows in the same order, so `==`, not a
    // tolerance. Without the auxiliary loss the router gradient is local
    // to a token, so `dx` compares too.
    let mut cfg = cfg().with_capacity(CapacityFactor::Fixed(0.5));
    cfg.load_balance_weight = 0.0;
    let mut dropping = DroppingMoe::new(cfg.clone(), &mut seeded_rng(3));
    let mut dropless = DroplessMoe::new(cfg.clone(), &mut seeded_rng(3));
    let mut rng = seeded_rng(4);
    let x = normal(18, HIDDEN, 1.0, &mut rng);
    let d = normal(18, HIDDEN, 0.3, &mut rng);

    // The drop rule: experts fill in token order up to the capacity.
    let capacity = cfg.expert_capacity(18, 0.5);
    let mut fill = [0usize; 3];
    let kept: Vec<usize> = (0..18)
        .zip(dropping.router().forward(&x).expert_indices)
        .filter(|&(_, e)| {
            fill[e] += 1;
            fill[e] <= capacity
        })
        .map(|(t, _)| t)
        .collect();
    let rows_of = |m: &Matrix| Matrix::from_fn(kept.len(), HIDDEN, |i, j| m[(kept[i], j)]);

    let a = dropping.forward(&x);
    assert_eq!(a.stats.dropped_tokens, 18 - kept.len());
    assert!(a.stats.dropped_tokens > 0, "the case must drop something");
    let b = dropless.forward(&rows_of(&x));
    let dxa = dropping.backward(&a.cache, &d);
    let dxb = dropless.backward(&b.cache, &rows_of(&d));

    assert_eq!(rows_of(&a.output).as_slice(), b.output.as_slice());
    assert_eq!(rows_of(&dxa).as_slice(), dxb.as_slice());
    assert_eq!(
        dropping.w1().grad().as_slice(),
        dropless.w1().grad().as_slice()
    );
    assert_eq!(
        dropping.w2().grad().as_slice(),
        dropless.w2().grad().as_slice()
    );
    for t in (0..18).filter(|t| !kept.contains(t)) {
        assert!(a.output.row(t).iter().all(|&v| v == 0.0), "output row {t}");
        assert!(dxa.row(t).iter().all(|&v| v == 0.0), "dx row {t}");
    }
}
