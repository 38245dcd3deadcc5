//! How a [`Trainer`] step recovers.
//!
//! [`Trainer::try_train_step`] (which [`Trainer::train_step`] and
//! [`Trainer::train`] run) applies the recovery discipline the robustness
//! milestone specifies:
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
//!   checkpoint (weights + Adam moments + step + RNG state, CRC32
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
//! * **Auto-resume.** [`Trainer::resume_latest`] scans the checkpoint
//!   directory newest-first, skips any file that fails CRC or structural
//!   validation, and restores the first valid one.
//!
//! With no checkpoint directory, deadline or token (the default), a
//! fault-free step costs an RNG snapshot and two finiteness checks more
//! than its two phases. Every detection and recovery increments the
//! `resilience.*` telemetry counters declared by the fault-site catalogue
//! in `megablocks-resilience`.

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
use megablocks_resilience::{RetryPolicy, Site};
use megablocks_telemetry as telemetry;
use rand::rngs::StdRng;

use crate::{TrainLog, Trainer};

/// The recovery policy a [`Trainer`] runs its steps under.
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
        }
    }
}

/// What a trainer's recovery observed and did.
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
    /// The step restored by [`Trainer::resume_latest`], if any.
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
            "training stopped at step {}: {} consecutive steps failed every retry (last: {})",
            self.step, self.consecutive_skips, self.last_reason
        )
    }
}

impl std::error::Error for TrainAbort {}

impl Trainer {
    /// What recovery has observed and done so far.
    pub fn report(&self) -> &ResilienceReport {
        &self.report
    }

    /// Runs one optimizer step under the recovery policy.
    /// `Ok(Some(log))` is a completed step, `Ok(None)` a skipped one
    /// (every retry failed; the data stream advanced past its batches,
    /// weights untouched).
    ///
    /// # Errors
    ///
    /// Returns [`TrainAbort`] once more than
    /// [`ResilienceConfig::max_consecutive_skips`] successive steps
    /// skip.
    pub fn try_train_step(&mut self, data: &TokenDataset) -> Result<Option<TrainLog>, TrainAbort> {
        match self.step_or_skip(data) {
            Ok(log) => Ok(Some(log)),
            Err(skip) if skip.consecutive_skips <= self.resilience.max_consecutive_skips => {
                Ok(None)
            }
            Err(abort) => Err(abort),
        }
    }

    /// One step with its retries: the log of the attempt that completed,
    /// or, once every retry failed and the step was skipped, the run of
    /// skipped steps it ends.
    pub(crate) fn step_or_skip(&mut self, data: &TokenDataset) -> Result<TrainLog, TrainAbort> {
        let rng_snapshot = self.rng.state();
        // Fault sites seen by failed attempts, healed if one completes.
        let mut faults: Vec<Site> = Vec::new();
        let mut last_reason = String::new();
        for attempt in 0..=self.resilience.retry.max_retries {
            if attempt > 0 {
                self.report.step_retries += 1;
                telemetry::counter_with("resilience.retries", "train.step").inc();
                telemetry::trace_instant("resilience.step_retry");
                let delay = self.resilience.retry.backoff(attempt - 1);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            let ctx = self.step_ctx();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _ambient = exec::cancel::enter(&ctx);
                self.accumulate_step(data)
            }));
            let site = match outcome {
                Ok(pending) if pending.ce_loss.is_finite() && pending.grad_norm.is_finite() => {
                    for site in &faults {
                        resilience::record_recovered(site);
                    }
                    let log = self.apply_step(pending);
                    self.report.steps_completed += 1;
                    self.consecutive_skips = 0;
                    self.maybe_checkpoint();
                    return Ok(log);
                }
                Ok(pending) => {
                    resilience::record_detected(&KERNEL_NAN_POISON);
                    self.report.nonfinite_steps += 1;
                    telemetry::counter("resilience.trainer.nonfinite").inc();
                    last_reason = format!("non-finite loss or gradient (ce = {})", pending.ce_loss);
                    KERNEL_NAN_POISON
                }
                Err(payload) => match payload.downcast::<exec::ExecError>() {
                    Ok(error) => {
                        last_reason = error.to_string();
                        let site = match error.kind() {
                            // A cancelled step is a command, not a fault:
                            // retrying work someone asked to stop cannot
                            // succeed. Roll back, count it, and skip
                            // without burning the retry budget.
                            exec::CancelKind::Cancelled => {
                                self.report.cancelled_steps += 1;
                                telemetry::counter("resilience.trainer.cancelled").inc();
                                telemetry::trace_instant("resilience.step_cancelled");
                                self.rollback(rng_snapshot);
                                break;
                            }
                            // A blown deadline or an overload shed is
                            // retryable *because* the next attempt gets a
                            // fresh budget and a fresh admission decision;
                            // neither is a worker panic.
                            exec::CancelKind::DeadlineExceeded => EXEC_BAND_STALL,
                            exec::CancelKind::Overloaded => POOL_QUEUE_FLOOD,
                        };
                        self.report.deadline_steps += 1;
                        telemetry::counter("resilience.trainer.deadline").inc();
                        site
                    }
                    Err(payload) => {
                        last_reason = panic_reason(payload.as_ref());
                        resilience::record_detected(&EXEC_WORKER_PANIC);
                        self.report.worker_panics += 1;
                        telemetry::counter("resilience.trainer.panics").inc();
                        EXEC_WORKER_PANIC
                    }
                },
            };
            if !faults.contains(&site) {
                faults.push(site);
            }
            self.rollback(rng_snapshot);
        }

        // Retries exhausted: skip this step's data and move on with the
        // weights untouched, keeping the data stream aligned with an
        // uninterrupted run.
        for _ in 0..self.cfg.batch_size / self.cfg.micro_batch_size {
            let _ = data.sample_batch(self.cfg.micro_batch_size, self.cfg.seq_len, &mut self.rng);
        }
        self.report.steps_skipped += 1;
        self.consecutive_skips += 1;
        telemetry::counter("resilience.trainer.skipped").inc();
        telemetry::trace_instant("resilience.step_skip");
        Err(TrainAbort {
            step: self.step,
            consecutive_skips: self.consecutive_skips,
            last_reason,
        })
    }

    /// Rolls an abandoned attempt back exactly: discards its partial
    /// gradient accumulation and rewinds the data stream to `rng`.
    fn rollback(&mut self, rng: [u64; 4]) {
        for p in self.model.params_mut().iter_mut() {
            p.zero_grad();
        }
        self.rng = StdRng::from_state(rng);
    }

    /// The context one step attempt runs under: the configured cancel
    /// token plus a *fresh* deadline (the budget restarts per attempt —
    /// that is what makes deadline expiry retryable).
    fn step_ctx(&self) -> exec::Ctx {
        let mut ctx = exec::Ctx::none();
        if let Some(token) = &self.resilience.cancel {
            ctx = ctx.with_token(token);
        }
        if let Some(budget) = self.resilience.step_deadline {
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
        let dir = self.resilience.checkpoint_dir.clone()?;
        let mut ckpts = list_checkpoints(&dir);
        ckpts.sort_by_key(|c| std::cmp::Reverse(c.0));
        let mut saw_corrupt = false;
        for (_, path) in ckpts {
            // Errors surface through the counters; older files are tried next.
            let Ok(state) = load_train_state_file(&path, &mut self.model.params_mut()) else {
                saw_corrupt = true;
                resilience::record_detected(&CHECKPOINT_IO);
                telemetry::counter("resilience.checkpoint.rejected").inc();
                continue;
            };
            if saw_corrupt {
                // Falling back to an older checkpoint healed the torn
                // newer one.
                resilience::record_recovered(&CHECKPOINT_IO);
            }
            self.step = state.step as usize;
            // A parameters-only checkpoint carries a zero RNG state and no
            // moments: keep the constructed RNG and optimizer and restart
            // the schedule from the restored weights.
            if state.rng_state != [0u64; 4] {
                self.rng = StdRng::from_state(state.rng_state);
            }
            if state.has_optimizer() {
                self.optimizer.restore(state.opt_steps, state.m, state.v);
            }
            self.report.resumed_from_step = Some(state.step);
            telemetry::counter("resilience.resumed").inc();
            telemetry::trace_instant("resilience.resumed");
            return Some(state.step);
        }
        None
    }

    fn maybe_checkpoint(&mut self) {
        let every = self.resilience.checkpoint_every;
        if every != 0 && self.resilience.checkpoint_dir.is_some() && self.step.is_multiple_of(every)
        {
            self.checkpoint_now();
        }
    }

    /// Writes a checkpoint of the current training state, atomically and
    /// with the configured retry budget. Failure (after retries) is
    /// recorded in the report and telemetry but does not stop training.
    pub fn checkpoint_now(&mut self) {
        let Some(dir) = self.resilience.checkpoint_dir.clone() else {
            return;
        };
        if std::fs::create_dir_all(&dir).is_err() {
            self.report.checkpoint_failures += 1;
            telemetry::counter("resilience.checkpoint.failed").inc();
            return;
        }
        let step = self.step as u64;
        let (t, m, v) = self.optimizer.state();
        let state = TrainState {
            step,
            opt_steps: t,
            rng_state: self.rng.state(),
            m: m.to_vec(),
            v: v.to_vec(),
        };
        let path = dir.join(format!("step-{step:08}.ckpt"));
        let params = self.model.params_mut();
        let mut failures = 0u32;
        let result = resilience::run_with_retry(&self.resilience.retry, "checkpoint.write", || {
            save_train_state_atomic(&path, &params, &state).inspect_err(|_| {
                failures += 1;
                resilience::record_detected(&CHECKPOINT_IO);
            })
        });
        drop(params);
        match result {
            Ok(()) => {
                if failures > 0 {
                    resilience::record_recovered(&CHECKPOINT_IO);
                }
                self.report.checkpoints_written += 1;
                telemetry::trace_instant("resilience.checkpoint_written");
                prune_checkpoints(&dir, self.resilience.keep_checkpoints.max(1));
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
    use crate::{FfnKind, TrainerConfig, TransformerConfig, TransformerLm};
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
        baseline.train(&data, 10).expect("no faults configured");
        let reference = baseline.evaluate(&data, 2).loss;

        // Crashy run: 6 steps, checkpoint at step 6, then a "new process"
        // resumes and finishes the remaining 4.
        let dir = temp_dir("resume");
        let cfg = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 6,
            ..ResilienceConfig::default()
        };
        let mut first = trainer(10).with_resilience(cfg.clone());
        first.train(&data, 6).expect("no faults configured");
        assert_eq!(first.report().checkpoints_written, 1);
        drop(first); // the crash

        let mut resumed = trainer(10).with_resilience(cfg);
        assert_eq!(resumed.resume_latest(), Some(6));
        assert_eq!(resumed.step_count(), 6);
        resumed.train(&data, 4).expect("no faults configured");
        let after = resumed.evaluate(&data, 2).loss;
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
        let mut rt = trainer(5).with_resilience(cfg);
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
        let mut rt = trainer(6).with_resilience(cfg.clone());
        rt.train(&data, 6).expect("no faults configured");
        // Tear the newest checkpoint the way a crash mid-write would.
        let mut ckpts = list_checkpoints(&dir);
        ckpts.sort_by_key(|(s, _)| *s);
        let (newest_step, newest_path) = ckpts.last().cloned().expect("checkpoints exist");
        assert_eq!(newest_step, 6);
        let bytes = std::fs::read(&newest_path).expect("read checkpoint");
        std::fs::write(&newest_path, &bytes[..bytes.len() / 2]).expect("truncate");

        let mut resumed = trainer(6).with_resilience(cfg);
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
        let mut rt = trainer(4).with_resilience(cfg);
        assert_eq!(rt.resume_latest(), None);
        assert_eq!(rt.step_count(), 0);
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
        let mut rt = trainer(4).with_resilience(cfg);
        let outcome = rt
            .try_train_step(&data)
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
        assert_eq!(rt.step_count(), 0, "weights stay untouched");
    }

    #[test]
    fn generous_step_deadline_trains_normally() {
        let data = dataset();
        let cfg = ResilienceConfig {
            step_deadline: Some(Duration::from_secs(3600)),
            ..ResilienceConfig::default()
        };
        let mut rt = trainer(3).with_resilience(cfg);
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
        let mut rt = trainer(4).with_resilience(cfg);
        // A healthy step first, to prove the live token is inert.
        let first = rt.try_train_step(&data).expect("live token");
        assert!(first.is_some());

        // Cancellation is a command, not a fault: the step rolls back
        // and is skipped without spending a single retry.
        token.cancel();
        let rng_before = rt.rng.state();
        let outcome = rt.try_train_step(&data).expect("one skip is tolerated");
        assert!(outcome.is_none());
        let report = rt.report();
        assert_eq!(report.cancelled_steps, 1);
        assert_eq!(report.step_retries, 0, "cancel must not burn retries");
        assert_eq!(report.deadline_steps, 0);
        assert_eq!(report.steps_skipped, 1);
        assert_eq!(rt.step_count(), 1, "only the healthy step landed");
        // The skip advanced the data stream past the cancelled batches.
        assert_ne!(rt.rng.state(), rng_before);
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
        let mut rt = trainer(4).with_resilience(cfg);
        parent.cancel();
        let outcome = rt.try_train_step(&data).expect("one skip is tolerated");
        assert!(outcome.is_none());
        assert_eq!(rt.report().cancelled_steps, 1);
        assert_eq!(rt.report().step_retries, 0);
    }
}
