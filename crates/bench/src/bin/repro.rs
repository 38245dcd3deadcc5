//! `repro` — regenerates every table and figure of the MegaBlocks paper.
//!
//! Usage: `repro <command> [--quick]`
//!
//! Commands:
//!   table1              Transformer configurations (weights, GFLOPs)
//!   table2              MoE configurations (weights, GFLOPs)
//!   table3              Max micro-batch sizes per framework (memory model)
//!   fig2                Loss vs capacity factor (scaled-down training)
//!   fig4                Matmul throughput vs tile shape (A100 model)
//!   fig7                End-to-end: dMoE vs Tutel vs Megatron-LM
//!   fig8                dMoE vs token-dropping MoEs at their best cf
//!   fig9                Block-sparse kernels vs cuBLAS batched (18 problems)
//!   ablation-launch     Hybrid blocked-CSR-COO vs dense-grid SDD (§5.1.3)
//!   ablation-transpose  Transpose indices vs explicit transpose (§5.1.4)
//!   all                 Everything above (quick mode for training figures)
//!
//! `--quick` shrinks the training runs for smoke-testing.

use megablocks_bench::{hours_at_loss, train_scaled, ScaledConfig, ScaledKind, Table};
use megablocks_gpusim::dense::gemm_throughput_tflops;
use megablocks_gpusim::memory::{
    max_micro_batch, moe_variant, paper_shape, training_memory, tutel_dynamic_expansion,
    MemoryPolicy, ModelShape,
};
use megablocks_gpusim::sparse::{
    moe_op_time, moe_op_time_with, relative_throughput, MoeOp, MoeProblem, SddLaunch,
};
use megablocks_gpusim::timeline::{
    end_to_end_hours, model_flops_utilization, tutel_dynamic_avg_expansion, ExecutionPolicy,
};
use megablocks_gpusim::{DeviceSpec, TileShape};
use megablocks_telemetry as telemetry;
use megablocks_transformer::{MoeSize, TransformerSize};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    // Naming the output files turns telemetry's recording switch on, and
    // every sink flushes when this guard drops — including during a
    // panic unwind, so an aborted run still leaves its metrics (the
    // per-step `train.step` events among them) and timeline trace on
    // disk.
    let _flush = telemetry::FlushOnDrop::new()
        .jsonl(format!("results/telemetry_{cmd}.jsonl"))
        .trace(format!("results/trace_{cmd}.json"))
        .with_summary(true);
    println!(
        "repro {cmd}: kernel backend {} ({})",
        megablocks_tensor::kernel_backend().name(),
        megablocks_tensor::tiled_variant()
    );
    match cmd {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "fig2" => fig2(quick),
        "fig4" => fig4(),
        "fig7" => fig7(quick),
        "fig8" => fig8(quick),
        "fig9" => fig9(),
        "ablation-launch" => ablation_launch(),
        "ablation-transpose" => ablation_transpose(),
        "ablation-blocksize" => ablation_blocksize(),
        "ablation-routing" => ablation_routing(quick),
        "all" => {
            table1();
            table2();
            table3();
            fig4();
            fig9();
            ablation_launch();
            ablation_transpose();
            ablation_blocksize();
            ablation_routing(quick);
            fig2(quick);
            fig7(quick);
            fig8(quick);
        }
        _ => {
            eprintln!(
                "usage: repro <table1|table2|table3|fig2|fig4|fig7|fig8|fig9|ablation-launch|ablation-transpose|ablation-blocksize|ablation-routing|all> [--quick]"
            );
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------------------
// Tables 1 and 2: model configurations
// ---------------------------------------------------------------------------

fn table1() {
    let mut t = Table::new(
        "Table 1: Transformer model configurations",
        &[
            "Transformer",
            "hidden",
            "layers",
            "Weights (M)",
            "paper",
            "GFLOPs",
            "paper",
        ],
    );
    for size in TransformerSize::ALL {
        let cfg = size.config();
        t.row(vec![
            size.name().into(),
            cfg.hidden_size.to_string(),
            cfg.num_layers.to_string(),
            format!("{:.0}", cfg.param_count() as f64 / 1e6),
            size.paper_weights_m().to_string(),
            format!("{:.0}", cfg.flops_per_sequence() / 1e9),
            size.paper_gflops().to_string(),
        ]);
    }
    t.print();
}

fn table2() {
    let mut t = Table::new(
        "Table 2: MoE model configurations (64 experts, top-1)",
        &[
            "MoE",
            "experts",
            "top_k",
            "Weights (M)",
            "paper",
            "GFLOPs",
            "paper",
        ],
    );
    for size in MoeSize::ALL {
        let cfg = size.config_dropless();
        t.row(vec![
            size.name().into(),
            "64".into(),
            "1".into(),
            format!("{:.0}", cfg.param_count() as f64 / 1e6),
            size.paper_weights_m().to_string(),
            format!("{:.0}", cfg.flops_per_sequence() / 1e9),
            size.paper_gflops().to_string(),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------------
// Table 3: micro-batch sizes from the memory model
// ---------------------------------------------------------------------------

fn table3() {
    let dev = DeviceSpec::a100_sxm4_80gb();
    let mut t = Table::new(
        "Table 3: largest micro_batch_size fitting 80GB (memory model)",
        &[
            "Framework",
            "Model",
            "micro_batch",
            "paper",
            "mem @ mbs (GB)",
        ],
    );
    let dense = [
        ("XS", 64),
        ("Small", 32),
        ("Medium", 16),
        ("Large", 16),
        ("XL", 8),
    ];
    for (name, paper) in dense {
        let shape = paper_shape(name).unwrap();
        let got = max_micro_batch(&dev, &shape, MemoryPolicy::Dense, 8).unwrap();
        let mem = training_memory(&shape, MemoryPolicy::Dense, got, 8) / 1e9;
        t.row(vec![
            "Megatron-LM".into(),
            format!("Transformer-{name}"),
            got.to_string(),
            paper.to_string(),
            format!("{mem:.1}"),
        ]);
    }
    for (name, paper) in [("XS", 64), ("Small", 32), ("Medium", 8)] {
        let shape = moe_variant(paper_shape(name).unwrap());
        let got = max_micro_batch(&dev, &shape, MemoryPolicy::MegaBlocks, 8).unwrap();
        let mem = training_memory(&shape, MemoryPolicy::MegaBlocks, got, 8) / 1e9;
        t.row(vec![
            "MegaBlocks".into(),
            format!("dMoE-{name}"),
            got.to_string(),
            paper.to_string(),
            format!("{mem:.1}"),
        ]);
    }
    for (name, paper) in [("XS", 32), ("Small", 8), ("Medium", 1)] {
        let shape = moe_variant(paper_shape(name).unwrap());
        let policy = MemoryPolicy::Tutel {
            expansion: tutel_dynamic_expansion(name),
        };
        let got = max_micro_batch(&dev, &shape, policy, 8).unwrap();
        let mem = training_memory(&shape, policy, got, 8) / 1e9;
        t.row(vec![
            "Tutel".into(),
            format!("dMoE-{name}"),
            got.to_string(),
            paper.to_string(),
            format!("{mem:.1}"),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------------
// Figure 4: tile-shape sweep
// ---------------------------------------------------------------------------

fn fig4() {
    let dev = DeviceSpec::a100_sxm4_80gb();
    let headers: Vec<String> = std::iter::once("size".to_string())
        .chain(TileShape::CUTLASS_SWEEP.iter().map(|t| t.to_string()))
        .chain(std::iter::once("winner".to_string()))
        .collect();
    let hrefs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Figure 4: matmul TFLOP/s vs threadblock tile shape (A100 model)",
        &hrefs,
    );
    for size in [512usize, 1024, 2048, 4096, 8192, 16384] {
        let mut cells = vec![size.to_string()];
        let mut best = (String::new(), f64::MIN);
        for tile in TileShape::CUTLASS_SWEEP {
            let tf = gemm_throughput_tflops(&dev, tile, size, size, size);
            cells.push(format!("{tf:.0}"));
            if tf > best.1 {
                best = (tile.to_string(), tf);
            }
        }
        cells.push(best.0);
        t.row(cells);
    }
    t.print();
    println!("Paper: 128x128 tiles perform consistently on-par or better.\n");
}

// ---------------------------------------------------------------------------
// Figure 9: block-sparse kernels vs cuBLAS batched
// ---------------------------------------------------------------------------

/// The three Figure 9 model configurations at their Table 3 micro-batches.
fn fig9_problems() -> Vec<(&'static str, MoeProblem)> {
    // (name, micro_batch); hidden/ffn from Table 1 dims.
    let cases: [(&'static str, usize, usize, usize); 3] = [
        ("XS", 64, 512, 2048),
        ("Small", 32, 768, 3072),
        ("Medium", 8, 1024, 4096),
    ];
    cases
        .iter()
        .map(|&(name, mbs, hidden, ffn)| {
            (name, MoeProblem::uniform(64, mbs * 1024, hidden, ffn, 128))
        })
        .collect()
}

fn fig9() {
    let dev = DeviceSpec::a100_sxm4_80gb();
    let mut t = Table::new(
        "Figure 9: block-sparse throughput relative to cuBLAS batched (18 problems)",
        &["model", "op", "relative"],
    );
    let mut ratios = Vec::new();
    for (name, problem) in fig9_problems() {
        for op in MoeOp::ALL {
            let r = relative_throughput(&dev, &problem, op);
            ratios.push(r);
            t.row(vec![
                format!("MoE-{name}"),
                op.label().into(),
                format!("{:.1}%", 100.0 * r),
            ]);
        }
    }
    t.print();
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let var = ratios.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / ratios.len() as f64;
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "Summary: mean {:.1}% (paper 98.6%), std {:.1}% (paper 4%), min {:.1}% (paper 91%), max {:.1}% (paper 104%)\n",
        100.0 * mean,
        100.0 * var.sqrt(),
        100.0 * min,
        100.0 * max
    );
}

// ---------------------------------------------------------------------------
// §5.1.3 / §5.1.4 ablations
// ---------------------------------------------------------------------------

fn ablation_launch() {
    let dev = DeviceSpec::a100_sxm4_80gb();
    let mut t = Table::new(
        "Ablation (5.1.3): SDD with hybrid blocked-CSR-COO vs dense-grid launch",
        &[
            "experts",
            "block sparsity",
            "hybrid (us)",
            "dense grid (us)",
            "overhead",
        ],
    );
    for experts in [4usize, 16, 64, 128] {
        let problem = MoeProblem::uniform(experts, 16384, 1024, 4096, 128);
        let sparsity = 1.0 - 1.0 / experts as f64;
        let hybrid = moe_op_time_with(&dev, &problem, MoeOp::Sdd, SddLaunch::HybridCoo, false);
        let dense = moe_op_time_with(&dev, &problem, MoeOp::Sdd, SddLaunch::DenseGrid, false);
        t.row(vec![
            experts.to_string(),
            format!("{:.1}%", 100.0 * sparsity),
            format!("{:.0}", hybrid * 1e6),
            format!("{:.0}", dense * 1e6),
            format!("{:.2}x", dense / hybrid),
        ]);
    }
    t.print();
    println!(
        "Paper: the cost of launching unused threadblocks is significant,\nparticularly for models with high expert counts.\n"
    );
}

fn ablation_transpose() {
    let dev = DeviceSpec::a100_sxm4_80gb();
    let mut t = Table::new(
        "Ablation (5.1.4): transpose indices vs explicit transposition",
        &[
            "model",
            "op",
            "indices (us)",
            "explicit (us)",
            "explicit cost",
        ],
    );
    for (name, problem) in fig9_problems() {
        for op in [MoeOp::DstD, MoeOp::DdtS] {
            let fast = moe_op_time(&dev, &problem, op);
            let slow = moe_op_time_with(&dev, &problem, op, SddLaunch::HybridCoo, true);
            t.row(vec![
                format!("MoE-{name}"),
                op.label().into(),
                format!("{:.0}", fast * 1e6),
                format!("{:.0}", slow * 1e6),
                format!("{:.2}x", slow / fast),
            ]);
        }
    }
    t.print();
}

fn ablation_routing(quick: bool) {
    // §7 of the paper: improved routing algorithms complement the
    // block-sparse computation. Train the same model with token-choice
    // (dMoE) and expert-choice routing on the same data.
    let cfg = scaled_cfg(quick, 64);
    println!(
        "Routing ablation (scaled): token-choice vs expert-choice, {} steps",
        cfg.steps
    );
    let mut t = Table::new(
        "Routing ablation: both routers ride the same block-sparse kernels",
        &["model", "val loss", "unrouted tokens %"],
    );
    for kind in [
        ScaledKind::Dropless,
        ScaledKind::ExpertChoice,
        ScaledKind::Dense,
    ] {
        let r = train_scaled(&cfg, kind);
        t.row(vec![
            r.kind_label.clone(),
            format!("{:.4}", r.final_val_loss),
            format!("{:.2}%", 100.0 * r.dropped_fraction),
        ]);
    }
    t.print();
}

fn ablation_blocksize() {
    let dev = DeviceSpec::a100_sxm4_80gb();
    let mut t = Table::new(
        "Ablation (5.1.2): sparsity block size vs dMoE FFN kernel time",
        &["block", "padding rows", "padding %", "layer time (us)"],
    );
    // An imbalanced 64-expert load summing to 32768 tokens (Zipf-ish).
    let loads: Vec<usize> = (0..64usize)
        .map(|e| {
            let w = 1.0 / (1.0 + e as f64 * 0.25);
            (w * 2200.0) as usize
        })
        .collect();
    let raw: usize = loads.iter().sum();
    for block in [32usize, 64, 128, 256] {
        let p = MoeProblem::from_loads(&loads, 1024, 2048, block);
        let padding = p.total_tokens() - raw;
        t.row(vec![
            format!("{block}x{block}"),
            padding.to_string(),
            format!("{:.1}%", 100.0 * padding as f64 / raw as f64),
            format!("{:.0}", p.layer_time(&dev) * 1e6),
        ]);
    }
    t.print();
    println!(
        "Small blocks minimize padding but run at lower per-tile efficiency;\n\
         128x128 balances the two (the paper's choice, §5.1.2).\n"
    );
}

// ---------------------------------------------------------------------------
// Figure 2: capacity-factor sweep (scaled training)
// ---------------------------------------------------------------------------

fn fig2(quick: bool) {
    let cfg = scaled_cfg(quick, 64);
    println!(
        "Figure 2 (scaled): {}-expert MoEs on the synthetic Pile, {} steps",
        cfg.num_experts, cfg.steps
    );
    let mut t = Table::new(
        "Figure 2: validation loss vs capacity factor",
        &["model", "val loss", "dropped %", "params"],
    );
    let kinds = [
        ScaledKind::Dense,
        ScaledKind::Dropping(1.0),
        ScaledKind::Dropping(1.5),
        ScaledKind::Dropping(2.0),
        ScaledKind::DynamicCapacity,
        ScaledKind::Dropless,
    ];
    for kind in kinds {
        let r = train_scaled(&cfg, kind);
        t.row(vec![
            r.kind_label.clone(),
            format!("{:.4}", r.final_val_loss),
            format!("{:.2}%", 100.0 * r.dropped_fraction),
            r.param_count.to_string(),
        ]);
    }
    t.print();
    println!(
        "Paper: loss decreases as capacity factor grows; the no-drop (max)\nconfiguration reaches the lowest loss.\n"
    );
}

// ---------------------------------------------------------------------------
// Figures 7 and 8: end-to-end training comparisons
// ---------------------------------------------------------------------------

/// Scaled stand-ins for the XS/Small/Medium families: quality comes from
/// these CPU runs; paper-scale timing comes from the A100 model.
fn scaled_cfg(quick: bool, hidden: usize) -> ScaledConfig {
    let mut cfg = ScaledConfig::default_family();
    cfg.hidden = hidden;
    cfg.ffn_hidden = hidden * 2;
    if quick {
        cfg.steps = 60;
    }
    cfg
}

struct E2eRow {
    family: &'static str,
    name: &'static str,
    mbs: usize,
    hours: f64,
    loss: f32,
}

fn paper_hours(shape: &ModelShape, policy: ExecutionPolicy, mbs: usize) -> f64 {
    let dev = DeviceSpec::a100_sxm4_80gb();
    end_to_end_hours(&dev, shape, policy, mbs, 10e9)
}

const E2E_SIZES: [(&str, usize); 3] = [("XS", 48), ("Small", 64), ("Medium", 96)];

fn fig7(quick: bool) {
    let dev = DeviceSpec::a100_sxm4_80gb();
    println!(
        "Figure 7 (hybrid): loss from scaled CPU training, time from the A100 model (10B tokens)"
    );

    // Scaled quality runs: one dense + one dropless per family size.
    let mut rows: Vec<E2eRow> = Vec::new();
    for (name, hidden) in E2E_SIZES {
        let cfg = scaled_cfg(quick, hidden);
        let dense = train_scaled(&cfg, ScaledKind::Dense);
        let dmoe = train_scaled(&cfg, ScaledKind::Dropless);
        let dshape = paper_shape(name).unwrap();
        let mshape = moe_variant(dshape.clone());
        let mbs_dense = max_micro_batch(&dev, &dshape, MemoryPolicy::Dense, 8).unwrap();
        let mbs_mega = max_micro_batch(&dev, &mshape, MemoryPolicy::MegaBlocks, 8).unwrap();
        let mbs_tutel = max_micro_batch(
            &dev,
            &mshape,
            MemoryPolicy::Tutel {
                expansion: tutel_dynamic_expansion(name),
            },
            8,
        )
        .unwrap();
        rows.push(E2eRow {
            family: "Megatron-LM",
            name,
            mbs: mbs_dense,
            hours: paper_hours(&dshape, ExecutionPolicy::DenseMegatron, mbs_dense),
            loss: dense.final_val_loss,
        });
        rows.push(E2eRow {
            family: "MegaBlocks dMoE",
            name,
            mbs: mbs_mega,
            hours: paper_hours(&mshape, ExecutionPolicy::MegaBlocks, mbs_mega),
            loss: dmoe.final_val_loss,
        });
        rows.push(E2eRow {
            family: "Tutel dMoE",
            name,
            mbs: mbs_tutel,
            hours: paper_hours(
                &mshape,
                ExecutionPolicy::Tutel {
                    expansion: tutel_dynamic_avg_expansion(name),
                },
                mbs_tutel,
            ),
            // Both dMoE formulations compute the same function: same loss.
            loss: dmoe.final_val_loss,
        });
    }

    let mut t = Table::new(
        "Figure 7: end-to-end training (10B tokens) — time model x scaled loss",
        &[
            "framework",
            "model",
            "micro_batch",
            "train (h)",
            "val loss (scaled)",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.family.into(),
            r.name.into(),
            r.mbs.to_string(),
            format!("{:.1}", r.hours),
            format!("{:.4}", r.loss),
        ]);
    }
    t.print();

    let mut s = Table::new(
        "Figure 7: MegaBlocks speedup over Tutel (paper: 1.38x / 2.0x / 4.35x)",
        &["model", "speedup"],
    );
    for (name, _) in E2E_SIZES {
        let mega = rows
            .iter()
            .find(|r| r.family == "MegaBlocks dMoE" && r.name == name)
            .unwrap();
        let tutel = rows
            .iter()
            .find(|r| r.family == "Tutel dMoE" && r.name == name)
            .unwrap();
        s.row(vec![
            format!("MoE-{name}"),
            format!("{:.2}x", tutel.hours / mega.hours),
        ]);
    }
    s.print();

    // Dense-vs-dMoE at equal loss: interpolate the dense (hours, loss)
    // frontier at each dMoE's loss.
    let dense_frontier: Vec<(f64, f32)> = rows
        .iter()
        .filter(|r| r.family == "Megatron-LM")
        .map(|r| (r.hours, r.loss))
        .collect();
    let mut s2 = Table::new(
        "Figure 7: dMoE speedup over dense at equal validation loss (paper: 1.8x - 2.4x)",
        &[
            "model",
            "dMoE loss",
            "dense-equivalent (h)",
            "dMoE (h)",
            "speedup",
        ],
    );
    for (name, _) in E2E_SIZES {
        let mega = rows
            .iter()
            .find(|r| r.family == "MegaBlocks dMoE" && r.name == name)
            .unwrap();
        match hours_at_loss(&dense_frontier, mega.loss) {
            Some(h_dense) => {
                s2.row(vec![
                    format!("dMoE-{name}"),
                    format!("{:.4}", mega.loss),
                    format!("{:.1}", h_dense),
                    format!("{:.1}", mega.hours),
                    format!("{:.2}x", h_dense / mega.hours),
                ]);
            }
            None => {
                s2.row(vec![
                    format!("dMoE-{name}"),
                    format!("{:.4}", mega.loss),
                    "beyond frontier".into(),
                    format!("{:.1}", mega.hours),
                    "n/a".into(),
                ]);
            }
        }
    }
    s2.print();

    let mut u = Table::new(
        "§6.1: Megatron sustained fraction of 2.5 PFLOP peak (paper: 21%-48%)",
        &["model", "MFU"],
    );
    for size in TransformerSize::ALL {
        let shape = paper_shape(size.name()).unwrap();
        let mbs = max_micro_batch(&dev, &shape, MemoryPolicy::Dense, 8).unwrap();
        let mfu = model_flops_utilization(
            &dev,
            &shape,
            ExecutionPolicy::DenseMegatron,
            mbs,
            size.config().flops_per_sequence(),
        );
        u.row(vec![
            format!("Transformer-{}", size.name()),
            format!("{:.0}%", 100.0 * mfu),
        ]);
    }
    u.print();
}

fn fig8(quick: bool) {
    let dev = DeviceSpec::a100_sxm4_80gb();
    println!("Figure 8 (hybrid): dMoE vs token-dropping MoEs at cf 1 / 1.5 / 2");
    let mut t = Table::new(
        "Figure 8: loss (scaled) and 10B-token time per configuration",
        &["model", "config", "val loss (scaled)", "train (h)"],
    );
    let mut speedups = Table::new(
        "Figure 8: dMoE speedup at equal loss vs best MoE (paper: 1.38x / 1.37x / 1.18x)",
        &["model", "speedup"],
    );
    for (name, hidden) in E2E_SIZES {
        let cfg = scaled_cfg(quick, hidden);
        let mshape = moe_variant(paper_shape(name).unwrap());
        let mbs = max_micro_batch(&dev, &mshape, MemoryPolicy::MegaBlocks, 8).unwrap();

        // Token-dropping MoEs can use the same micro-batch as the dMoE
        // (paper §6.2) — capacity memory at cf <= 2 fits.
        let mut frontier: Vec<(f64, f32)> = Vec::new();
        for cf in [1.0f32, 1.5, 2.0] {
            let r = train_scaled(&cfg, ScaledKind::Dropping(cf));
            let hours = paper_hours(
                &mshape,
                ExecutionPolicy::Tutel {
                    expansion: f64::from(cf),
                },
                mbs,
            );
            t.row(vec![
                format!("MoE-{name}"),
                format!("cf={cf}"),
                format!("{:.4}", r.final_val_loss),
                format!("{:.1}", hours),
            ]);
            frontier.push((hours, r.final_val_loss));
        }
        let dmoe = train_scaled(&cfg, ScaledKind::Dropless);
        let dmoe_hours = paper_hours(&mshape, ExecutionPolicy::MegaBlocks, mbs);
        t.row(vec![
            format!("MoE-{name}"),
            "dMoE (MegaBlocks)".into(),
            format!("{:.4}", dmoe.final_val_loss),
            format!("{:.1}", dmoe_hours),
        ]);
        let speedup = hours_at_loss(&frontier, dmoe.final_val_loss)
            .map(|h| format!("{:.2}x", h / dmoe_hours))
            .unwrap_or_else(|| "beyond frontier".into());
        speedups.row(vec![format!("MoE-{name}"), speedup]);
    }
    t.print();
    speedups.print();
}
