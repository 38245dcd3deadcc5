//! The fault-tolerant training loop.
//!
//! [`ResilientTrainer`] wraps a [`Trainer`] with the recovery discipline
//! the robustness milestone specifies:
//!
//! * **Exact step retry.** Each optimizer step snapshots the data RNG,
//!   runs the accumulation phase under `catch_unwind`, and validates the
//!   result (finite loss, finite gradients) *before* the optimizer
//!   touches any weight. A worker panic or a NaN/Inf rolls the attempt
//!   back (zero gradients, restore RNG) and retries with bounded
//!   exponential backoff — a recovered retry resamples the exact same
//!   batches and is bit-identical to a fault-free step.
//! * **Step skip.** A step that fails every retry is skipped: the data
//!   RNG advances past its batches, weights and optimizer state stay
//!   untouched, and training continues. Too many consecutive skips abort
//!   with [`TrainAbort`].
//! * **Periodic atomic checkpoints.** Every `checkpoint_every` steps a
//!   v2 checkpoint (weights + Adam moments + step + RNG state, CRC32
//!   checksummed) is written via write-temp + fsync + rename, with its
//!   own retry budget; old checkpoints are pruned. A torn or injected
//!   I/O failure can never leave a corrupt committed file.
//! * **Deadline & cancellation discipline.** With
//!   [`ResilienceConfig::step_deadline`] set, every step attempt runs
//!   under a *fresh* exec deadline; an attempt that blows its budget
//!   unwinds at the next cooperative cancellation point and is retried
//!   with new budget (deadline expiry is transient by construction), and
//!   so is an attempt whose launch the pool shed under overload. A
//!   tripped [`ResilienceConfig::cancel`] token is the opposite: a
//!   command, not a fault — the step rolls back immediately and is
//!   never retried. An aborted launch unwinds with an [`exec::ExecError`]
//!   payload, and the step classifies it by [`exec::ExecError::kind`];
//!   every other panic counts as a worker panic.
//! * **Auto-resume.** [`ResilientTrainer::resume_latest`] scans the
//!   checkpoint directory newest-first, skips any file that fails CRC or
//!   structural validation, and restores the first valid one.
//!
//! Every detection and recovery increments the `resilience.*` telemetry
//! counters declared by the fault-site catalogue in
//! `megablocks-resilience`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Duration;

use megablocks_core::checkpoint::{load_train_state_file, save_train_state_atomic, TrainState};
use megablocks_data::TokenDataset;
use megablocks_exec as exec;
use megablocks_resilience as resilience;
use megablocks_resilience::sites::{
    CHECKPOINT_IO, EXEC_BAND_STALL, EXEC_WORKER_PANIC, KERNEL_NAN_POISON, POOL_QUEUE_FLOOD,
};
use megablocks_resilience::RetryPolicy;
use megablocks_telemetry as telemetry;

use crate::{TrainLog, Trainer};

/// Configuration of the fault-tolerant loop.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Where checkpoints live; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every N optimizer steps (0 disables periodic saves).
    pub checkpoint_every: usize,
    /// Completed checkpoints retained after each successful save.
    pub keep_checkpoints: usize,
    /// Retry budget and backoff for failed steps and checkpoint writes.
    pub retry: RetryPolicy,
    /// Consecutive skipped steps tolerated before training aborts.
    pub max_consecutive_skips: usize,
    /// Wall-clock budget for one step attempt. Each attempt (first run
    /// and every retry) executes under a fresh [`exec::Deadline`] this
    /// far in the future; `None` leaves steps unbounded.
    pub step_deadline: Option<Duration>,
    /// External cancellation: when this token (or an ancestor) trips,
    /// the in-flight step unwinds at its next cooperative check, rolls
    /// back, and is *not* retried. `None` disables external cancel.
    pub cancel: Option<exec::CancelToken>,
    /// When set, the trainer holds a [`telemetry::FlushOnDrop`] guard
    /// exporting the metric registry (JSONL, at this path) and the
    /// timeline trace (same path with a `.trace.json` extension) when it
    /// is dropped — including during a panic unwind, so chaos-run
    /// observability is never silently truncated by an abort.
    pub telemetry_export: Option<PathBuf>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            checkpoint_dir: None,
            checkpoint_every: 0,
            keep_checkpoints: 2,
            retry: RetryPolicy::default_transient(),
            max_consecutive_skips: 4,
            step_deadline: None,
            cancel: None,
            telemetry_export: None,
        }
    }
}

/// What the fault-tolerant loop observed and did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceReport {
    /// Optimizer steps that completed (including after retries).
    pub steps_completed: usize,
    /// Step attempts that were retried after a rollback.
    pub step_retries: usize,
    /// Steps abandoned after exhausting the retry budget.
    pub steps_skipped: usize,
    /// Worker panics caught during accumulation.
    pub worker_panics: usize,
    /// Attempts rolled back for a non-finite loss or gradient.
    pub nonfinite_steps: usize,
    /// Attempts rolled back because the step deadline expired or the
    /// pool shed one of the step's launches under overload; each was
    /// retried with a fresh budget.
    pub deadline_steps: usize,
    /// Steps rolled back and abandoned because the cancel token tripped.
    pub cancelled_steps: usize,
    /// Checkpoints successfully committed to disk.
    pub checkpoints_written: usize,
    /// Checkpoint saves that failed even after retries (training
    /// continues; the failure is recorded here and in telemetry).
    pub checkpoint_failures: usize,
    /// The step restored by [`ResilientTrainer::resume_latest`], if any.
    pub resumed_from_step: Option<u64>,
}

/// Training gave up: too many consecutive steps failed every retry.
#[derive(Debug)]
pub struct TrainAbort {
    /// The optimizer step at which training stopped.
    pub step: usize,
    /// Consecutive steps skipped leading up to the abort.
    pub consecutive_skips: usize,
    /// The failure reason of the final attempt.
    pub last_reason: String,
}

impl std::fmt::Display for TrainAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "training aborted at step {}: {} consecutive steps failed every retry (last: {})",
            self.step, self.consecutive_skips, self.last_reason
        )
    }
}

impl std::error::Error for TrainAbort {}

/// A [`Trainer`] wrapped in retry, rollback, checkpoint and resume
/// machinery. See the module docs for the recovery contract.
#[derive(Debug)]
pub struct ResilientTrainer {
    trainer: Trainer,
    cfg: ResilienceConfig,
    report: ResilienceReport,
    consecutive_skips: usize,
    /// Flushes telemetry sinks on drop — even when dropping because a
    /// panic is unwinding through the training loop.
    _flush: Option<telemetry::FlushOnDrop>,
}

impl ResilientTrainer {
    /// Wraps `trainer` with the fault-tolerance policy `cfg`.
    pub fn new(trainer: Trainer, cfg: ResilienceConfig) -> Self {
        let flush = cfg.telemetry_export.as_ref().map(|path| {
            telemetry::FlushOnDrop::new()
                .jsonl(path.clone())
                .trace(path.with_extension("trace.json"))
        });
        ResilientTrainer {
            trainer,
            cfg,
            report: ResilienceReport::default(),
            consecutive_skips: 0,
            _flush: flush,
        }
    }

    /// The wrapped trainer.
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Mutable access to the wrapped trainer.
    pub fn trainer_mut(&mut self) -> &mut Trainer {
        &mut self.trainer
    }

    /// Unwraps into the inner trainer.
    pub fn into_trainer(self) -> Trainer {
        self.trainer
    }

    /// What the loop has observed and recovered so far.
    pub fn report(&self) -> &ResilienceReport {
        &self.report
    }

    /// The context one step attempt runs under: the configured cancel
    /// token plus a *fresh* deadline (the budget restarts per attempt —
    /// that is what makes deadline expiry retryable).
    fn step_ctx(&self) -> exec::Ctx {
        let mut ctx = exec::Ctx::none();
        if let Some(token) = &self.cfg.cancel {
            ctx = ctx.with_token(token);
        }
        if let Some(budget) = self.cfg.step_deadline {
            ctx = ctx.with_deadline(exec::Deadline::after(budget));
        }
        ctx
    }

    /// Restores the newest valid checkpoint in the configured directory,
    /// returning its step. Corrupt or torn files (bad CRC, truncation,
    /// architecture mismatch) are skipped — older checkpoints are tried
    /// until one validates. Returns `None` when checkpointing is
    /// disabled, the directory is empty, or nothing validates.
    pub fn resume_latest(&mut self) -> Option<u64> {
        let dir = self.cfg.checkpoint_dir.clone()?;
        let mut ckpts = list_checkpoints(&dir);
        ckpts.sort_by_key(|c| std::cmp::Reverse(c.0));
        let mut saw_corrupt = false;
        for (_, path) in ckpts {
            let mut params = self.trainer.model_mut().params_mut();
            match load_train_state_file(&path, &mut params) {
                Ok(state) => {
                    drop(params);
                    if saw_corrupt {
                        // Falling back to an older checkpoint healed the
                        // torn newer one.
                        resilience::record_recovered(&CHECKPOINT_IO);
                    }
                    let step = state.step;
                    self.apply_state(state);
                    self.report.resumed_from_step = Some(step);
                    telemetry::counter("resilience.resumed").inc();
                    telemetry::trace_instant("resilience.resumed");
                    return Some(step);
                }
                Err(e) => {
                    saw_corrupt = true;
                    resilience::record_detected(&CHECKPOINT_IO);
                    telemetry::counter("resilience.checkpoint.rejected").inc();
                    let _ = e; // surfaced via counters; older files are tried next
                }
            }
        }
        None
    }

    fn apply_state(&mut self, state: TrainState) {
        self.trainer.set_step(state.step as usize);
        // A v1 checkpoint (weights only) carries a zero RNG state and no
        // moments: keep the constructed RNG/optimizer and restart the
        // schedule from the restored weights.
        if state.rng_state != [0u64; 4] {
            self.trainer.set_rng_state(state.rng_state);
        }
        if state.has_optimizer() {
            self.trainer
                .optimizer_mut()
                .restore(state.opt_steps, state.m, state.v);
        }
    }

    /// Runs one fault-tolerant optimizer step. `Ok(Some(log))` is a
    /// completed step, `Ok(None)` a skipped one (every retry failed; the
    /// data stream advanced past its batches, weights untouched).
    ///
    /// # Errors
    ///
    /// Returns [`TrainAbort`] once more than
    /// [`ResilienceConfig::max_consecutive_skips`] successive steps
    /// skip.
    pub fn train_step(&mut self, data: &TokenDataset) -> Result<Option<TrainLog>, TrainAbort> {
        let rng_snapshot = self.trainer.rng_state();
        let mut last_reason = String::new();
        let mut saw_panic = false;
        let mut saw_nonfinite = false;
        let mut saw_deadline = false;
        let mut saw_overload = false;
        for attempt in 0..=self.cfg.retry.max_retries {
            if attempt > 0 {
                self.report.step_retries += 1;
                telemetry::counter_with("resilience.retries", "train.step").inc();
                telemetry::trace_instant("resilience.step_retry");
                let delay = self.cfg.retry.backoff(attempt - 1);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            let ctx = self.step_ctx();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _ambient = exec::cancel::enter(&ctx);
                self.trainer.accumulate_step(data)
            }));
            match outcome {
                Ok(pending) => {
                    if pending.ce_loss().is_finite() && pending.grad_norm().is_finite() {
                        if saw_panic {
                            resilience::record_recovered(&EXEC_WORKER_PANIC);
                        }
                        if saw_nonfinite {
                            resilience::record_recovered(&KERNEL_NAN_POISON);
                        }
                        if saw_deadline {
                            resilience::record_recovered(&EXEC_BAND_STALL);
                        }
                        if saw_overload {
                            resilience::record_recovered(&POOL_QUEUE_FLOOD);
                        }
                        let log = self.trainer.apply_step(pending);
                        self.report.steps_completed += 1;
                        self.consecutive_skips = 0;
                        self.maybe_checkpoint();
                        return Ok(Some(log));
                    }
                    resilience::record_detected(&KERNEL_NAN_POISON);
                    self.report.nonfinite_steps += 1;
                    telemetry::counter("resilience.trainer.nonfinite").inc();
                    saw_nonfinite = true;
                    last_reason =
                        format!("non-finite loss or gradient (ce = {})", pending.ce_loss());
                }
                Err(payload) => match payload.downcast::<exec::ExecError>() {
                    Ok(error) => {
                        last_reason = error.to_string();
                        match error.kind() {
                            // A cancelled step is a command, not a fault:
                            // retrying work someone asked to stop cannot
                            // succeed. Roll back, count it, and skip
                            // without burning the retry budget.
                            exec::CancelKind::Cancelled => {
                                self.report.cancelled_steps += 1;
                                telemetry::counter("resilience.trainer.cancelled").inc();
                                telemetry::trace_instant("resilience.step_cancelled");
                                self.trainer.zero_grads();
                                self.trainer.set_rng_state(rng_snapshot);
                                break;
                            }
                            // A blown deadline or an overload shed is
                            // retryable *because* the next attempt gets a
                            // fresh budget and a fresh admission decision;
                            // neither is a worker panic.
                            exec::CancelKind::DeadlineExceeded => saw_deadline = true,
                            exec::CancelKind::Overloaded => saw_overload = true,
                        }
                        self.report.deadline_steps += 1;
                        telemetry::counter("resilience.trainer.deadline").inc();
                    }
                    Err(payload) => {
                        last_reason = panic_reason(payload.as_ref());
                        resilience::record_detected(&EXEC_WORKER_PANIC);
                        self.report.worker_panics += 1;
                        telemetry::counter("resilience.trainer.panics").inc();
                        saw_panic = true;
                    }
                },
            }
            // Roll the attempt back exactly: discard partial gradient
            // accumulation and rewind the data stream.
            self.trainer.zero_grads();
            self.trainer.set_rng_state(rng_snapshot);
        }

        // Retries exhausted: skip this step's data and move on with the
        // weights untouched.
        self.trainer.skip_step_data(data);
        self.report.steps_skipped += 1;
        self.consecutive_skips += 1;
        telemetry::counter("resilience.trainer.skipped").inc();
        telemetry::trace_instant("resilience.step_skip");
        if self.consecutive_skips > self.cfg.max_consecutive_skips {
            return Err(TrainAbort {
                step: self.trainer.step_count(),
                consecutive_skips: self.consecutive_skips,
                last_reason,
            });
        }
        Ok(None)
    }

    /// Trains for `steps` step attempts, returning the logs of the
    /// completed ones (skipped steps produce no log).
    ///
    /// # Errors
    ///
    /// Propagates [`TrainAbort`] from [`ResilientTrainer::train_step`].
    pub fn train(
        &mut self,
        data: &TokenDataset,
        steps: usize,
    ) -> Result<Vec<TrainLog>, TrainAbort> {
        let mut logs = Vec::with_capacity(steps);
        for _ in 0..steps {
            if let Some(log) = self.train_step(data)? {
                logs.push(log);
            }
        }
        Ok(logs)
    }

    fn maybe_checkpoint(&mut self) {
        let every = self.cfg.checkpoint_every;
        if every == 0
            || self.cfg.checkpoint_dir.is_none()
            || !self.trainer.step_count().is_multiple_of(every)
        {
            return;
        }
        self.checkpoint_now();
    }

    /// Writes a v2 checkpoint of the current training state, atomically
    /// and with the configured retry budget. Failure (after retries) is
    /// recorded in the report and telemetry but does not stop training.
    pub fn checkpoint_now(&mut self) {
        let Some(dir) = self.cfg.checkpoint_dir.clone() else {
            return;
        };
        if std::fs::create_dir_all(&dir).is_err() {
            self.report.checkpoint_failures += 1;
            telemetry::counter("resilience.checkpoint.failed").inc();
            return;
        }
        let step = self.trainer.step_count() as u64;
        let (t, m, v) = self.trainer.optimizer().state();
        let state = TrainState {
            step,
            opt_steps: t,
            rng_state: self.trainer.rng_state(),
            m: m.to_vec(),
            v: v.to_vec(),
        };
        let path = dir.join(format!("step-{step:08}.ckpt"));
        let retry = self.cfg.retry;
        let trainer = &mut self.trainer;
        let mut failures = 0u32;
        let result = resilience::run_with_retry(&retry, "checkpoint.write", || {
            let params = trainer.model_mut().params_mut();
            save_train_state_atomic(&path, &params, &state).inspect_err(|_| {
                failures += 1;
                resilience::record_detected(&CHECKPOINT_IO);
            })
        });
        match result {
            Ok(()) => {
                if failures > 0 {
                    resilience::record_recovered(&CHECKPOINT_IO);
                }
                self.report.checkpoints_written += 1;
                telemetry::trace_instant("resilience.checkpoint_written");
                prune_checkpoints(&dir, self.cfg.keep_checkpoints.max(1));
            }
            Err(_) => {
                self.report.checkpoint_failures += 1;
                telemetry::counter("resilience.checkpoint.failed").inc();
            }
        }
    }
}

/// Checkpoints in `dir` as `(step, path)` pairs (non-checkpoint files are
/// ignored).
fn list_checkpoints(dir: &Path) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name().into_string().ok()?;
            let step = name.strip_prefix("step-")?.strip_suffix(".ckpt")?;
            Some((step.parse().ok()?, e.path()))
        })
        .collect()
}

fn prune_checkpoints(dir: &Path, keep: usize) {
    let mut ckpts = list_checkpoints(dir);
    ckpts.sort_by_key(|(step, _)| *step);
    let excess = ckpts.len().saturating_sub(keep);
    for (_, path) in ckpts.into_iter().take(excess) {
        let _ = std::fs::remove_file(path);
    }
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FfnKind, Trainer, TrainerConfig, TransformerConfig, TransformerLm};
    use megablocks_data::{PileConfig, SyntheticPile, TokenDataset};
    use megablocks_tensor::init::seeded_rng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mbrs-{tag}-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
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
            11,
        )
        .split(0.9)
        .0
    }

    fn trainer(total_steps: usize) -> Trainer {
        let mut model_cfg = TransformerConfig::tiny(FfnKind::Dense);
        model_cfg.seq_len = 16;
        let mut rng = seeded_rng(21);
        let model = TransformerLm::new(model_cfg, &mut rng);
        let cfg = TrainerConfig {
            batch_size: 4,
            micro_batch_size: 2,
            seq_len: 16,
            lr_max: 2e-3,
            warmup_steps: 2,
            total_steps,
            clip: 1.0,
            seed: 5,
        };
        Trainer::new(model, cfg)
    }

    #[test]
    fn resume_from_checkpoint_is_bit_exact() {
        let data = dataset();
        // Baseline: 10 uninterrupted steps.
        let mut baseline = trainer(10);
        let _ = baseline.train(&data, 10);
        let reference = baseline.evaluate(&data, 2).loss;

        // Crashy run: 6 steps, checkpoint at step 6, then a "new process"
        // resumes and finishes the remaining 4.
        let dir = temp_dir("resume");
        let cfg = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 6,
            ..ResilienceConfig::default()
        };
        let mut first = ResilientTrainer::new(trainer(10), cfg.clone());
        first.train(&data, 6).expect("no faults configured");
        assert_eq!(first.report().checkpoints_written, 1);
        drop(first); // the crash

        let mut resumed = ResilientTrainer::new(trainer(10), cfg);
        assert_eq!(resumed.resume_latest(), Some(6));
        assert_eq!(resumed.trainer().step_count(), 6);
        resumed.train(&data, 4).expect("no faults configured");
        let after = resumed.trainer().evaluate(&data, 2).loss;
        assert_eq!(
            after.to_bits(),
            reference.to_bits(),
            "v2 resume must replay the exact baseline trajectory: {reference} vs {after}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_checkpoints_are_pruned() {
        let data = dataset();
        let dir = temp_dir("prune");
        let cfg = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            keep_checkpoints: 2,
            ..ResilienceConfig::default()
        };
        let mut rt = ResilientTrainer::new(trainer(5), cfg);
        rt.train(&data, 5).expect("no faults configured");
        assert_eq!(rt.report().checkpoints_written, 5);
        let mut steps: Vec<u64> = list_checkpoints(&dir).into_iter().map(|(s, _)| s).collect();
        steps.sort_unstable();
        assert_eq!(steps, vec![4, 5], "only the newest two survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_a_corrupt_newest_checkpoint() {
        let data = dataset();
        let dir = temp_dir("corrupt");
        let cfg = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            keep_checkpoints: 3,
            ..ResilienceConfig::default()
        };
        let mut rt = ResilientTrainer::new(trainer(6), cfg.clone());
        rt.train(&data, 6).expect("no faults configured");
        // Tear the newest checkpoint the way a crash mid-write would.
        let mut ckpts = list_checkpoints(&dir);
        ckpts.sort_by_key(|(s, _)| *s);
        let (newest_step, newest_path) = ckpts.last().cloned().expect("checkpoints exist");
        assert_eq!(newest_step, 6);
        let bytes = std::fs::read(&newest_path).expect("read checkpoint");
        std::fs::write(&newest_path, &bytes[..bytes.len() / 2]).expect("truncate");

        let mut resumed = ResilientTrainer::new(trainer(6), cfg);
        assert_eq!(resumed.resume_latest(), Some(4), "falls back to step 4");
        assert_eq!(resumed.report().resumed_from_step, Some(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_no_checkpoints_is_a_noop() {
        let dir = temp_dir("empty");
        let cfg = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            ..ResilienceConfig::default()
        };
        let mut rt = ResilientTrainer::new(trainer(4), cfg);
        assert_eq!(rt.resume_latest(), None);
        assert_eq!(rt.trainer().step_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_step_deadline_is_retried_then_skipped() {
        let data = dataset();
        // A zero budget expires before the first kernel launch of every
        // attempt, so each one dies at a cooperative cancellation point.
        // The loop must classify those as retryable deadline rollbacks
        // (fresh budget per attempt), burn the retry budget, and skip —
        // never panic and never touch the weights.
        let cfg = ResilienceConfig {
            step_deadline: Some(Duration::ZERO),
            retry: RetryPolicy::immediate(2),
            ..ResilienceConfig::default()
        };
        let mut rt = ResilientTrainer::new(trainer(4), cfg);
        let outcome = rt
            .train_step(&data)
            .expect("one skip is below the abort bar");
        assert!(outcome.is_none(), "the step must be skipped, not completed");
        let report = rt.report();
        assert_eq!(report.deadline_steps, 3, "initial attempt + 2 retries");
        assert_eq!(report.step_retries, 2);
        assert_eq!(report.steps_skipped, 1);
        assert_eq!(report.cancelled_steps, 0);
        assert_eq!(
            report.worker_panics, 0,
            "deadline expiry must not be misclassified as a worker panic"
        );
        assert_eq!(rt.trainer().step_count(), 0, "weights stay untouched");
    }

    #[test]
    fn generous_step_deadline_trains_normally() {
        let data = dataset();
        let cfg = ResilienceConfig {
            step_deadline: Some(Duration::from_secs(3600)),
            ..ResilienceConfig::default()
        };
        let mut rt = ResilientTrainer::new(trainer(3), cfg);
        let logs = rt.train(&data, 3).expect("healthy run");
        assert_eq!(logs.len(), 3);
        let report = rt.report();
        assert_eq!(report.steps_completed, 3);
        assert_eq!(report.deadline_steps, 0);
        assert_eq!(report.step_retries, 0);
    }

    #[test]
    fn tripped_cancel_token_rolls_back_without_retrying() {
        let data = dataset();
        let token = exec::CancelToken::new();
        let cfg = ResilienceConfig {
            cancel: Some(token.clone()),
            retry: RetryPolicy::immediate(3),
            max_consecutive_skips: 10,
            ..ResilienceConfig::default()
        };
        let mut rt = ResilientTrainer::new(trainer(4), cfg);
        // A healthy step first, to prove the live token is inert.
        let first = rt.train_step(&data).expect("live token");
        assert!(first.is_some());

        // Cancellation is a command, not a fault: the step rolls back
        // and is skipped without spending a single retry.
        token.cancel();
        let rng_before = rt.trainer().rng_state();
        let outcome = rt.train_step(&data).expect("one skip is tolerated");
        assert!(outcome.is_none());
        let report = rt.report();
        assert_eq!(report.cancelled_steps, 1);
        assert_eq!(report.step_retries, 0, "cancel must not burn retries");
        assert_eq!(report.deadline_steps, 0);
        assert_eq!(report.steps_skipped, 1);
        assert_eq!(rt.trainer().step_count(), 1, "only the healthy step landed");
        // The skip advanced the data stream past the cancelled batches.
        assert_ne!(rt.trainer().rng_state(), rng_before);
    }

    #[test]
    fn parent_token_cancellation_reaches_the_trainer() {
        let data = dataset();
        let parent = exec::CancelToken::new();
        let cfg = ResilienceConfig {
            cancel: Some(parent.child()),
            retry: RetryPolicy::immediate(3),
            ..ResilienceConfig::default()
        };
        let mut rt = ResilientTrainer::new(trainer(4), cfg);
        parent.cancel();
        let outcome = rt.train_step(&data).expect("one skip is tolerated");
        assert!(outcome.is_none());
        assert_eq!(rt.report().cancelled_steps, 1);
        assert_eq!(rt.report().step_retries, 0);
    }
}
