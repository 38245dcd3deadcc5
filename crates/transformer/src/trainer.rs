//! Training loop with gradient accumulation, mirroring the paper's recipe:
//! global batch of 512 sequences split into the largest micro-batch that
//! fits in memory (Table 3), Adam with warmup + decay, gradient clipping at
//! 1.0.

use std::time::Instant;

use megablocks_data::TokenDataset;
use megablocks_exec as exec;
use megablocks_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{adam, Adam, AdamConfig, TransformerLm};

/// Trainer hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Sequences per optimizer step (the paper uses 512).
    pub batch_size: usize,
    /// Sequences per forward/backward micro-step (Table 3). Must divide
    /// `batch_size`.
    pub micro_batch_size: usize,
    /// Training sequence length.
    pub seq_len: usize,
    /// Peak learning rate.
    pub lr_max: f32,
    /// Linear warmup steps.
    pub warmup_steps: usize,
    /// Total optimizer steps (for the cosine decay horizon).
    pub total_steps: usize,
    /// Global-norm gradient clip.
    pub clip: f32,
    /// Data-sampling seed.
    pub seed: u64,
}

impl TrainerConfig {
    /// A small default suitable for the scaled-down reproduction runs.
    pub fn small(total_steps: usize) -> Self {
        Self {
            batch_size: 8,
            micro_batch_size: 4,
            seq_len: 32,
            lr_max: 3e-3,
            warmup_steps: total_steps / 20 + 1,
            total_steps,
            clip: 1.0,
            seed: 0,
        }
    }
}

/// Learning rate at optimizer step `step`: linear warmup to `lr_max`, then
/// cosine decay to 10% of peak over the remaining horizon.
pub fn lr_at_step(cfg: &TrainerConfig, step: usize) -> f32 {
    if step < cfg.warmup_steps {
        return cfg.lr_max * (step + 1) as f32 / cfg.warmup_steps as f32;
    }
    let progress =
        (step - cfg.warmup_steps) as f32 / (cfg.total_steps - cfg.warmup_steps).max(1) as f32;
    let progress = progress.clamp(0.0, 1.0);
    let min = 0.1 * cfg.lr_max;
    min + 0.5 * (cfg.lr_max - min) * (1.0 + (std::f32::consts::PI * progress).cos())
}

/// One record of training progress.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainLog {
    /// Optimizer step index.
    pub step: usize,
    /// Mean cross-entropy over the step's micro-batches.
    pub ce_loss: f32,
    /// Mean load-balancing loss over the step's micro-batches.
    pub lb_loss: f32,
    /// Total dropped token-assignments in the step.
    pub dropped_tokens: usize,
    /// Worst per-layer expert load imbalance (max load over mean load)
    /// observed across the step's micro-batches — the quantity Tutel's
    /// dynamic capacity factor tracks (1.0 for dense models).
    pub max_load_imbalance: f64,
    /// Pre-clip gradient norm.
    pub grad_norm: f32,
    /// Learning rate used.
    pub lr: f32,
    /// Training throughput for the step: tokens processed per wall-clock
    /// second (`batch_size * seq_len / elapsed`).
    pub tokens_per_sec: f64,
}

/// The output of [`Trainer::accumulate_step`]: per-step statistics whose
/// gradients are sitting on the model, waiting for
/// [`Trainer::apply_step`], and the averaged gradients' global norm.
/// Holding one of these is the window in which the fault-tolerant loop
/// validates the step (finite loss, finite norm) and can still roll it
/// back untouched.
#[derive(Debug, Clone)]
pub struct PendingStep {
    ce_loss: f32,
    lb_loss: f32,
    dropped_tokens: usize,
    max_load_imbalance: f64,
    /// Global L2 norm of the averaged gradients, before clipping.
    grad_norm: f64,
    started: Instant,
    /// The calling thread's workspace-arena misses when the step started.
    misses_before: u64,
    /// MoE-layer observations behind the routing-health fields of the
    /// `train.step` event.
    moe_layer_obs: usize,
    padding_rows: usize,
    kept_assignments: usize,
    total_assignments: usize,
    entropy_sum: f64,
}

impl PendingStep {
    /// Mean cross-entropy over the accumulated micro-batches.
    pub fn ce_loss(&self) -> f32 {
        self.ce_loss
    }

    /// Mean load-balancing loss over the accumulated micro-batches.
    pub fn lb_loss(&self) -> f32 {
        self.lb_loss
    }

    /// Global L2 norm of the averaged gradients, before clipping, in
    /// `f64`. Every `f32` square is finite in `f64`, so the norm is finite
    /// exactly when every gradient element is.
    pub fn grad_norm(&self) -> f64 {
        self.grad_norm
    }
}

/// Result of a validation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Mean cross-entropy over the evaluation batches.
    pub loss: f32,
    /// Number of batches evaluated.
    pub batches: usize,
}

/// A training harness binding a model, an optimizer and a dataset.
#[derive(Debug)]
pub struct Trainer {
    model: TransformerLm,
    optimizer: Adam,
    cfg: TrainerConfig,
    rng: StdRng,
    step: usize,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if `micro_batch_size` does not divide `batch_size`.
    pub fn new(model: TransformerLm, cfg: TrainerConfig) -> Self {
        assert!(
            cfg.batch_size.is_multiple_of(cfg.micro_batch_size),
            "micro_batch_size {} must divide batch_size {}",
            cfg.micro_batch_size,
            cfg.batch_size
        );
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            model,
            optimizer: Adam::new(AdamConfig::default()),
            cfg,
            rng,
            step: 0,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &TransformerLm {
        &self.model
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut TransformerLm {
        &mut self.model
    }

    /// The trainer configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Optimizer steps taken.
    pub fn step_count(&self) -> usize {
        self.step
    }

    /// Overrides the optimizer-step counter (checkpoint resume).
    pub fn set_step(&mut self, step: usize) {
        self.step = step;
    }

    /// The wrapped optimizer.
    pub fn optimizer(&self) -> &Adam {
        &self.optimizer
    }

    /// Mutable access to the wrapped optimizer (checkpoint resume).
    pub fn optimizer_mut(&mut self) -> &mut Adam {
        &mut self.optimizer
    }

    /// Raw state of the data-sampling RNG — snapshot before a step so a
    /// retry can resample the exact same batches.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores a data-sampling RNG snapshot taken by
    /// [`Trainer::rng_state`] (step rollback or checkpoint resume).
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Zeroes every parameter gradient — a rollback discards all
    /// accumulation from an abandoned step attempt.
    pub fn zero_grads(&mut self) {
        for p in self.model.params_mut().iter_mut() {
            p.zero_grad();
        }
    }

    /// Runs one optimizer step (with gradient accumulation over
    /// `batch_size / micro_batch_size` micro-batches) on `train`.
    pub fn train_step(&mut self, train: &TokenDataset) -> TrainLog {
        let pending = self.accumulate_step(train);
        self.apply_step(pending)
    }

    /// Advances the data RNG past one step's batches without training —
    /// the fault-tolerant loop skips a persistently failing step this
    /// way, keeping the data stream aligned with an uninterrupted run.
    pub fn skip_step_data(&mut self, train: &TokenDataset) {
        let micro_steps = self.cfg.batch_size / self.cfg.micro_batch_size;
        for _ in 0..micro_steps {
            let _ = train.sample_batch(self.cfg.micro_batch_size, self.cfg.seq_len, &mut self.rng);
        }
    }

    /// The accumulation phase of one step: samples and runs every
    /// micro-batch, leaving summed gradients on the parameters, and takes
    /// the averaged gradients' norm (read-only, so it stays inside the
    /// rollback window). Nothing
    /// is mutated beyond gradients and the data RNG, so the phase can be
    /// rolled back with [`Trainer::zero_grads`] +
    /// [`Trainer::set_rng_state`] — which is exactly what the
    /// fault-tolerant loop does when it catches a worker panic or a
    /// non-finite loss before calling [`Trainer::apply_step`].
    pub fn accumulate_step(&mut self, train: &TokenDataset) -> PendingStep {
        let started = Instant::now();
        let misses_before = exec::workspace::stats().misses;
        let micro_steps = self.cfg.batch_size / self.cfg.micro_batch_size;
        let mut ce = 0.0f32;
        let mut lb = 0.0f32;
        let mut dropped = 0usize;
        let mut imbalance = 1.0f64;
        let mut moe_layer_obs = 0usize;
        let mut padding_rows = 0usize;
        let mut kept_assignments = 0usize;
        let mut total_assignments = 0usize;
        let mut entropy_sum = 0.0f64;
        for _ in 0..micro_steps {
            let batch =
                train.sample_batch(self.cfg.micro_batch_size, self.cfg.seq_len, &mut self.rng);
            let stats =
                self.model
                    .train_step(&batch.inputs, &batch.targets, self.cfg.micro_batch_size);
            ce += stats.ce_loss;
            lb += stats.lb_loss;
            dropped += stats.dropped_tokens;
            for layer in &stats.moe_stats {
                imbalance =
                    imbalance.max(megablocks_core::load_imbalance(&layer.tokens_per_expert));
                moe_layer_obs += 1;
                padding_rows += layer.padding_rows;
                kept_assignments += layer.expert_load.iter().sum::<usize>();
                total_assignments += layer.tokens_per_expert.iter().sum::<usize>();
                entropy_sum += megablocks_core::count_entropy(&layer.tokens_per_expert) as f64;
            }
        }
        let grad_norm = {
            let _norm = telemetry::span("train.norm");
            adam::grad_norm(&self.model.params_mut(), 1.0 / micro_steps as f32)
        };
        PendingStep {
            ce_loss: ce / micro_steps as f32,
            lb_loss: lb / micro_steps as f32,
            dropped_tokens: dropped,
            max_load_imbalance: imbalance,
            grad_norm,
            started,
            misses_before,
            moe_layer_obs,
            padding_rows,
            kept_assignments,
            total_assignments,
            entropy_sum,
        }
    }

    /// The update phase of one step: one Adam pass that reads each
    /// accumulated gradient averaged over the micro-steps and clipped by
    /// the pending step's norm; then advances the step counter. Once it
    /// starts, the update runs to the end exactly once, as
    /// [`Adam::step`] does. Closes the step on the timeline:
    /// `train.step` spans the whole step from
    /// [`Trainer::accumulate_step`]'s start, `train.update` this phase
    /// only and `train.adam` its optimizer pass.
    pub fn apply_step(&mut self, pending: PendingStep) -> TrainLog {
        let update = telemetry::span("train.update");
        let PendingStep {
            ce_loss: ce,
            lb_loss: lb,
            dropped_tokens: dropped,
            max_load_imbalance: imbalance,
            grad_norm,
            started,
            misses_before,
            moe_layer_obs,
            padding_rows,
            kept_assignments,
            total_assignments,
            entropy_sum,
        } = pending;
        let micro_steps = self.cfg.batch_size / self.cfg.micro_batch_size;

        // The norm is of the averaged gradients; the update averages and
        // clips each gradient as it reads it.
        let grad_norm = grad_norm as f32;
        let coef = adam::clip_coef(grad_norm, self.cfg.clip).unwrap_or(1.0);
        let lr = lr_at_step(&self.cfg, self.step);
        {
            let _adam = telemetry::span("train.adam");
            let mut params = self.model.params_mut();
            let scale = 1.0 / micro_steps as f32;
            self.optimizer.update(&mut params, lr, scale, coef);
        }
        self.step += 1;

        let elapsed = started.elapsed();
        let tokens = self.cfg.batch_size * self.cfg.seq_len;
        let tokens_per_sec = tokens as f64 / elapsed.as_secs_f64().max(1e-9);
        telemetry::counter("train.tokens").add(tokens as u64);
        telemetry::histogram("train.step_us").record(elapsed.as_micros() as u64);
        telemetry::gauge("train.ce_loss").set(ce as f64);
        telemetry::gauge("train.lb_loss").set(lb as f64);
        telemetry::gauge("train.lr").set(lr as f64);
        telemetry::gauge("train.grad_norm").set(grad_norm as f64);
        telemetry::gauge("train.tokens_per_sec").set(tokens_per_sec);
        // Routing health over every MoE-layer observation of the step; a
        // dense step reads imbalance 1 and zeros.
        let padding_overhead = if kept_assignments == 0 {
            0.0
        } else {
            padding_rows as f64 / kept_assignments as f64
        };
        let drop_rate = if total_assignments == 0 {
            0.0
        } else {
            dropped as f64 / total_assignments as f64
        };
        let router_entropy = entropy_sum / moe_layer_obs.max(1) as f64;
        // Buffers the step could not take from this thread's arena: 0 once
        // the arena holds a step's working set.
        let workspace_misses = exec::workspace::stats().misses - misses_before;
        telemetry::event(
            "train.step",
            &[
                ("step", ((self.step - 1) as u64).into()),
                ("ce_loss", ce.into()),
                ("lb_loss", lb.into()),
                ("dropped_tokens", (dropped as u64).into()),
                ("grad_norm", grad_norm.into()),
                ("lr", lr.into()),
                ("tokens_per_sec", tokens_per_sec.into()),
                ("imbalance", imbalance.into()),
                ("padding_overhead", padding_overhead.into()),
                ("drop_rate", drop_rate.into()),
                ("router_entropy", router_entropy.into()),
                ("workspace_misses", workspace_misses.into()),
            ],
        );
        // Close the update first, so it lies inside the step it belongs to.
        drop(update);
        let elapsed_us = started.elapsed().as_micros() as u64;
        telemetry::trace_complete(
            "train.step",
            telemetry::trace_now_us().saturating_sub(elapsed_us),
            elapsed_us,
        );

        TrainLog {
            step: self.step - 1,
            ce_loss: ce,
            lb_loss: lb,
            dropped_tokens: dropped,
            max_load_imbalance: imbalance,
            grad_norm,
            lr,
            tokens_per_sec,
        }
    }

    /// Trains for `steps` optimizer steps, returning the per-step logs.
    pub fn train(&mut self, train: &TokenDataset, steps: usize) -> Vec<TrainLog> {
        (0..steps).map(|_| self.train_step(train)).collect()
    }

    /// Evaluates mean validation loss over up to `max_batches` sequential
    /// batches.
    pub fn evaluate(&self, valid: &TokenDataset, max_batches: usize) -> EvalResult {
        let batches = valid.sequential_batches(self.cfg.micro_batch_size, self.cfg.seq_len);
        let n = batches.len().min(max_batches).max(1).min(batches.len());
        if batches.is_empty() {
            return EvalResult {
                loss: f32::NAN,
                batches: 0,
            };
        }
        let mut total = 0.0f32;
        for b in batches.iter().take(n) {
            total += self
                .model
                .eval_loss(&b.inputs, &b.targets, self.cfg.micro_batch_size);
        }
        EvalResult {
            loss: total / n as f32,
            batches: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FfnKind, TransformerConfig};
    use megablocks_data::{PileConfig, SyntheticPile};
    use megablocks_tensor::init::seeded_rng;

    #[test]
    fn lr_schedule_warms_up_and_decays() {
        let cfg = TrainerConfig {
            warmup_steps: 10,
            total_steps: 100,
            lr_max: 1.0,
            ..TrainerConfig::small(100)
        };
        assert!(lr_at_step(&cfg, 0) < lr_at_step(&cfg, 5));
        assert!((lr_at_step(&cfg, 9) - 1.0).abs() < 1e-6);
        assert!(lr_at_step(&cfg, 50) < 1.0);
        assert!(lr_at_step(&cfg, 99) >= 0.1 - 1e-6);
        // Past the horizon the LR floors at 10%.
        assert!((lr_at_step(&cfg, 500) - 0.1).abs() < 1e-5);
    }

    #[test]
    fn training_reduces_validation_loss() {
        let pile = SyntheticPile::generate(
            &PileConfig {
                vocab_size: 64,
                num_clusters: 4,
                num_tokens: 6_000,
                mean_doc_len: 32,
                branching: 2,
                noise: 0.05,
            },
            7,
        );
        let (train, valid) = pile.split(0.9);
        let mut model_cfg = TransformerConfig::tiny(FfnKind::Dense);
        model_cfg.seq_len = 16;
        let mut rng = seeded_rng(1);
        let model = crate::TransformerLm::new(model_cfg, &mut rng);
        let tcfg = TrainerConfig {
            batch_size: 8,
            micro_batch_size: 4,
            seq_len: 16,
            lr_max: 2e-3,
            warmup_steps: 5,
            total_steps: 60,
            clip: 1.0,
            seed: 3,
        };
        let mut trainer = Trainer::new(model, tcfg);
        let before = trainer.evaluate(&valid, 4).loss;
        let logs = trainer.train(&train, 60);
        let after = trainer.evaluate(&valid, 4).loss;
        assert!(
            after < before - 0.3,
            "validation loss should drop: {before} -> {after}"
        );
        assert_eq!(logs.len(), 60);
        assert!(logs.iter().all(|l| l.grad_norm.is_finite()));
        assert!(logs.iter().all(|l| l.tokens_per_sec > 0.0));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn micro_batch_must_divide_batch() {
        let mut rng = seeded_rng(2);
        let model = crate::TransformerLm::new(TransformerConfig::tiny(FfnKind::Dense), &mut rng);
        let cfg = TrainerConfig {
            batch_size: 8,
            micro_batch_size: 3,
            ..TrainerConfig::small(10)
        };
        let _ = Trainer::new(model, cfg);
    }
}
