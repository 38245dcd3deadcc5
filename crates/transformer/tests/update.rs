//! The optimizer update is banded, and neither the band count nor a lost
//! band changes a bit of it: a dMoE trainer's weights, Adam moments and
//! gradient norm are the same at 1, 2 and 3 bands; an update whose band
//! panics before its body runs (`exec.worker_panic`) re-runs only the
//! chunks that did not run; and an update under a cancelled context
//! still runs to the end.
//!
//! The fault plan is process-global, so every test here takes one lock.

use std::sync::{Mutex, MutexGuard};

use megablocks_core::MoeConfig;
use megablocks_data::{PileConfig, SyntheticPile, TokenDataset};
use megablocks_exec::{self as exec, scoped_parallelism, CancelToken, Ctx};
use megablocks_resilience::sites::EXEC_WORKER_PANIC;
use megablocks_resilience::{clear_plan, install_plan, report, FaultPlan};
use megablocks_tensor::init::seeded_rng;
use megablocks_transformer::{FfnKind, Trainer, TrainerConfig, TransformerConfig, TransformerLm};

static PLAN: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

fn dataset() -> TokenDataset {
    SyntheticPile::generate(
        &PileConfig {
            vocab_size: 64,
            num_clusters: 4,
            num_tokens: 4_000,
            mean_doc_len: 32,
            branching: 2,
            noise: 0.05,
        },
        5,
    )
    .split(0.9)
    .0
}

/// A dMoE of about 300 000 parameters: enough chunks for three bands.
/// Two micro-steps and a clip the gradients exceed, so the update
/// averages and clips.
fn trainer() -> Trainer {
    let moe = MoeConfig::new(64, 256, 4).with_block_size(16);
    let cfg = TransformerConfig {
        vocab_size: 64,
        hidden_size: 64,
        num_layers: 2,
        num_heads: 2,
        seq_len: 32,
        ffn_hidden_size: 256,
        ffn: FfnKind::Dropless(moe),
    };
    let model = TransformerLm::new(cfg, &mut seeded_rng(3));
    Trainer::new(
        model,
        TrainerConfig {
            batch_size: 4,
            micro_batch_size: 2,
            seq_len: 32,
            lr_max: 2e-3,
            warmup_steps: 2,
            total_steps: 10,
            clip: 0.05,
            seed: 9,
        },
    )
}

/// Bits of every weight, gradient and Adam moment.
fn state_bits(trainer: &mut Trainer) -> Vec<Vec<u32>> {
    let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut out: Vec<Vec<u32>> = Vec::new();
    for p in trainer.model_mut().params_mut() {
        out.push(bits(p.value().as_slice()));
        out.push(bits(p.grad().as_slice()));
    }
    let (_, m, v) = trainer.optimizer().state();
    out.extend(m.iter().chain(v).map(|x| bits(x.as_slice())));
    out
}

#[test]
fn weights_moments_and_norm_do_not_depend_on_the_band_count() {
    let _serial = serial();
    let data = dataset();
    let runs: Vec<(Vec<Vec<u32>>, Vec<u32>)> = [1, 2, 3]
        .map(|threads| {
            scoped_parallelism(threads, || {
                let mut trainer = trainer();
                let logs = trainer.train(&data, 3).expect("no faults");
                assert!(logs[0].grad_norm > 0.05, "the clip is active");
                let norms = logs.iter().map(|l| l.grad_norm.to_bits()).collect();
                (state_bits(&mut trainer), norms)
            })
        })
        .into();
    for (threads, run) in [2, 3].iter().zip(&runs[1..]) {
        assert!(run.1 == runs[0].1, "grad norms differ at {threads} bands");
        assert!(
            run.0 == runs[0].0,
            "weights or moments differ at {threads} bands"
        );
    }
}

/// One step at three bands: accumulate, then update under `during`.
fn step(during: impl FnOnce(&mut Trainer, megablocks_transformer::PendingStep)) -> Vec<Vec<u32>> {
    let data = dataset();
    let mut trainer = trainer();
    scoped_parallelism(3, || {
        let pending = trainer.accumulate_step(&data);
        during(&mut trainer, pending);
    });
    state_bits(&mut trainer)
}

#[test]
fn a_band_lost_before_its_body_is_rerun_and_nothing_else() {
    let _serial = serial();
    let want = step(|t, pending| {
        t.apply_step(pending);
    });
    // The update is one launch of three bands, so call `i` of the site is
    // a band of it; 3 and 4 are bands of the relaunch.
    for calls in [&[0][..], &[1], &[2], &[0, 3, 4]] {
        let got = step(|t, pending| {
            install_plan(FaultPlan::seeded(1).at_calls(&EXEC_WORKER_PANIC, calls));
            t.apply_step(pending);
            let fired = report().injected_at(&EXEC_WORKER_PANIC);
            clear_plan();
            assert_eq!(fired, calls.len() as u64, "faults at {calls:?}");
        });
        assert!(got == want, "faults at {calls:?} changed the update");
    }
}

#[test]
fn a_cancelled_context_does_not_stop_the_update() {
    let _serial = serial();
    let want = step(|t, pending| {
        t.apply_step(pending);
    });
    let token = CancelToken::new();
    token.cancel();
    let got = step(|t, pending| {
        let _ambient = exec::cancel::enter(&Ctx::none().with_token(&token));
        t.apply_step(pending);
    });
    assert!(got == want, "the update under a cancelled token differs");
}
