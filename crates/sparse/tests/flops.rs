//! `sparse.flops{variant}` counts the multiply-adds a product issues, not
//! the padded blocks it stores: over the same call it adds exactly what
//! `kernel.flops` adds. Alone in its binary: it reads the
//! process-global telemetry counters.

use megablocks_sparse::{ops, BlockSize, Topology};
use megablocks_telemetry as telemetry;
use megablocks_tensor::Matrix;

#[test]
fn sparse_flops_reconcile_with_kernel_flops_on_partial_and_empty_experts() {
    let bs = 8;
    // One partial block, no tokens, two full blocks, one row, 4 blocks + 5.
    let counts = [5, 0, 16, 1, 37];
    let (hidden, ffn) = (24, 2 * bs);
    let topo =
        Topology::for_moe(&counts, ffn, BlockSize::new(bs).expect("nonzero")).expect("aligned ffn");
    let (rows, cols) = topo.shape();
    let fill = |r, c| Matrix::from_fn(r, c, |i, j| ((i * 7 + j * 3) as f32).cos());
    let (x, w1, w2) = (fill(rows, hidden), fill(hidden, cols), fill(cols, hidden));

    let h = ops::sdd(&x, &w1, &topo);
    let products: [(&str, &dyn Fn()); 6] = [
        ("sdd", &|| drop(ops::sdd(&x, &w1, &topo))),
        ("dsd", &|| drop(ops::dsd(&h, &w2))),
        ("sdd_t", &|| drop(ops::sdd_t(&x, &w2, &topo))),
        ("dst_d", &|| drop(ops::dst_d(&h, &x))),
        ("dsd_t", &|| drop(ops::dsd_t(&h, &w1))),
        ("ddt_s", &|| drop(ops::ddt_s(&x, &h))),
    ];

    // Every product multiplies each real token row once through the
    // `hidden x ffn` weights of its expert.
    let real: usize = counts.iter().sum();
    let per_product = (2 * real * ffn * hidden) as u64;
    let kernel = telemetry::counter("kernel.flops");
    let kernel_start = kernel.get();
    let mut sparse_total = 0;
    for (variant, product) in products {
        let sparse = telemetry::counter_with("sparse.flops", &format!("sparse.{variant}"));
        let before = (sparse.get(), kernel.get());
        product();
        let (counted, issued) = (sparse.get() - before.0, kernel.get() - before.1);
        assert_eq!(counted, issued, "{variant}");
        assert_eq!(issued, per_product, "{variant}");
        sparse_total += counted;
    }
    assert_eq!(sparse_total, kernel.get() - kernel_start);
    // What the padded layout would have cost.
    assert!(per_product < (2 * topo.nnz() * hidden) as u64);
}
