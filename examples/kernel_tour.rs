//! A tour of the block-sparse machinery: the hybrid blocked-CSR-COO
//! encoding, transpose indices, and the six matrix products of a dMoE FFN
//! layer — checked against dense references, then timed on the analytic
//! A100 model at paper scale.
//!
//! Run with: `cargo run --release --example kernel_tour`
//!
//! Every product below runs on the one tiled GEMM routine, in the
//! instantiation this CPU supports; the printed numbers are the same bits
//! on every variant.

use megablocks::gpusim::sparse::{moe_op_time, MoeOp, MoeProblem};
use megablocks::gpusim::DeviceSpec;
use megablocks::sparse::{ops, BlockSize, Topology};
use megablocks::tensor::init::{normal, seeded_rng};
use megablocks::tensor::{matmul, tiled_variant};

fn main() {
    println!(
        "GEMM variant: {} (detected from the CPU; every variant gives the same bits)",
        tiled_variant()
    );

    // Three experts with 2, 1 and 3 blocks of tokens (block size 4):
    // the Figure 3C block-diagonal topology.
    let block = BlockSize::new(4).expect("nonzero");
    let topo = Topology::block_diagonal(&[2, 1, 3], &[2, 2, 2], block).expect("consistent");
    println!(
        "topology: {} x {} blocks, {} nonzero",
        topo.block_rows(),
        topo.block_cols(),
        topo.nnz_blocks()
    );
    println!("  row offsets:       {:?}", topo.row_offsets());
    println!("  col indices:       {:?}", topo.col_indices());
    println!(
        "  row indices (COO): {:?}  <- O(1) coordinates for SDD workers",
        topo.row_indices()
    );
    println!(
        "  transpose indices: {:?}  <- column-major view, no data movement",
        topo.transpose_indices()
    );
    println!(
        "  metadata size:     {} bytes for {} values",
        topo.metadata_bytes(),
        topo.nnz()
    );

    // The six products of a dMoE FFN (hidden=10 for readability).
    let mut rng = seeded_rng(0);
    let (t, inner) = topo.shape();
    let hidden = 10;
    let x = normal(t, hidden, 1.0, &mut rng);
    let w1 = normal(hidden, inner, 0.3, &mut rng);
    let w2 = normal(inner, hidden, 0.3, &mut rng);
    let dy = normal(t, hidden, 1.0, &mut rng);

    let h = ops::sdd(&x, &w1, &topo);
    let y = ops::dsd(&h, &w2);
    let dh = ops::sdd_t(&dy, &w2, &topo);
    let dw2 = ops::dst_d(&h, &dy);
    let dx = ops::dsd_t(&dh, &w1);
    let dw1 = ops::ddt_s(&x, &dh);

    // Verify each against dense math.
    let hd = h.to_dense();
    println!("\nforward/backward products vs dense reference (max abs diff):");
    println!("  SDD   {:.2e}", {
        let full = matmul(&x, &w1);
        let mut masked = full.clone();
        for i in 0..masked.rows() {
            for j in 0..masked.cols() {
                if topo.find(i / 4, j / 4).is_none() {
                    masked[(i, j)] = 0.0;
                }
            }
        }
        hd.max_abs_diff(&masked)
    });
    println!("  DSD   {:.2e}", y.max_abs_diff(&matmul(&hd, &w2)));
    println!("  SDD^T {:.2e}", {
        let full = matmul(&dy, &w2.transpose());
        let mut masked = full;
        for i in 0..masked.rows() {
            for j in 0..masked.cols() {
                if topo.find(i / 4, j / 4).is_none() {
                    masked[(i, j)] = 0.0;
                }
            }
        }
        dh.to_dense().max_abs_diff(&masked)
    });
    println!(
        "  DS^TD {:.2e}",
        dw2.max_abs_diff(&matmul(&hd.transpose(), &dy))
    );
    println!(
        "  DSD^T {:.2e}",
        dx.max_abs_diff(&matmul(&dh.to_dense(), &w1.transpose()))
    );
    println!(
        "  DD^TS {:.2e}",
        dw1.max_abs_diff(&matmul(&x.transpose(), &dh.to_dense()))
    );

    // Paper-scale timing on the A100 model: MoE-XS at micro-batch 64.
    let dev = DeviceSpec::a100_sxm4_80gb();
    let problem = MoeProblem::uniform(64, 64 * 1024, 512, 2048, 128);
    println!(
        "\nA100 model, MoE-XS kernel problems ({} tokens):",
        problem.total_tokens()
    );
    for op in MoeOp::ALL {
        let time = moe_op_time(&dev, &problem, op);
        let tflops = problem.op_flops() / time / 1e12;
        println!(
            "  {:<6} {:>8.0} us  {:>6.0} TFLOP/s",
            op.label(),
            time * 1e6,
            tflops
        );
    }
}
