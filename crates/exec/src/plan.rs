//! First-class kernel launch plans.
//!
//! A [`LaunchPlan`] describes one kernel launch: a flat output slice, a
//! partition of that slice into disjoint contiguous bands, and a band
//! body. The output is `f32` for every kernel product; a plan over
//! another element type (the `f64` partial sums of the gradient norm,
//! the per-chunk slices of the optimizer update) goes through the same
//! launcher. It replaces the hand-rolled scoped-thread launchers that the
//! sparse (SDD/DSD/DDS) and dense (GEMM) paths used to duplicate — every
//! parallel region in the workspace now goes through this one seam.
//!
//! Two partition shapes cover every kernel:
//!
//! * [`LaunchPlan::over_items`] — the output is `items` equal units of
//!   `unit` elements (nonzero blocks for SDD, block-row bands for DSD,
//!   rows for DDS/GEMM); each band owns `items_per_band` consecutive
//!   items and the body receives `(band, first_item_index)`.
//! * [`LaunchPlan::over_bands`] — explicitly sized bands (the SDD and
//!   DSD launches, whose cost-balanced bands of block rows differ in
//!   length); the body receives `(band, band_index)`.
//!
//! Write disjointness holds *by construction*: bands are carved with
//! `chunks_mut`/`split_at_mut`, so no two tasks can alias an output
//! element, and the two constructors assert that the declared geometry
//! tiles the output exactly.
//!
//! Every launch also runs under the cancellation [`Ctx`] its submitting
//! thread entered ([`crate::cancel::enter`]) and is checked cooperatively
//! at band boundaries: a launch whose token trips or whose deadline
//! passes skips unstarted bands and ends in bounded time with a
//! structured [`ExecError`]. Queue admission is bounded too: a launch
//! that would flood the pool past its depth cap is shed with
//! [`ExecError::Overloaded`] when latency-bound, or degraded to inline
//! execution when not. [`LaunchPlan::launch`] unwinds with that error as
//! the panic payload; [`LaunchPlan::try_launch`] returns it.

use std::panic::resume_unwind;
use std::time::{Duration, Instant};

use megablocks_resilience as resilience;
use megablocks_telemetry as telemetry;

use crate::cancel::{self, CancelKind, Ctx, ExecError};
use crate::perturb;
use crate::pool;

/// How a plan slices its output.
enum Partition {
    /// `items` units of `unit` elements, `items_per_band` per band.
    Uniform { unit: usize, items_per_band: usize },
    /// Explicit per-band lengths, in elements.
    Explicit { band_lens: Vec<usize> },
}

/// One kernel launch: output bands plus the per-band body.
///
/// Build with [`LaunchPlan::over_items`] or [`LaunchPlan::over_bands`],
/// then call [`LaunchPlan::launch`]. The body must be `Sync`: every band
/// task shares it by reference. The elements are `f32` unless the output
/// says otherwise; each band is handed to one task, so they must be
/// `Send`.
pub struct LaunchPlan<'data, 'body, T = f32> {
    op: &'static str,
    data: &'data mut [T],
    partition: Partition,
    body: &'body (dyn Fn(&mut [T], usize) + Sync),
}

impl<'data, 'body, T: Send> LaunchPlan<'data, 'body, T> {
    /// Plan over `data.len() / unit` uniform items, `items_per_band` per
    /// band. The body receives each band and the index of its first item.
    ///
    /// # Panics
    ///
    /// Panics if `unit == 0` or `data.len()` is not a multiple of `unit`
    /// — a malformed plan is a kernel bug, never a data condition.
    pub fn over_items(
        op: &'static str,
        data: &'data mut [T],
        unit: usize,
        items_per_band: usize,
        body: &'body (dyn Fn(&mut [T], usize) + Sync),
    ) -> Self {
        assert!(unit > 0, "{op}: launch plan unit must be nonzero");
        assert!(
            data.len().is_multiple_of(unit),
            "{op}: output length {} is not a multiple of unit {unit}",
            data.len()
        );
        LaunchPlan {
            op,
            data,
            partition: Partition::Uniform {
                unit,
                items_per_band: items_per_band.max(1),
            },
            body,
        }
    }

    /// Plan over explicitly sized bands (`band_lens` in elements). The body
    /// receives each band and its index.
    ///
    /// # Panics
    ///
    /// Panics if the band lengths do not sum to `data.len()` — the bands
    /// must tile the output exactly.
    pub fn over_bands(
        op: &'static str,
        data: &'data mut [T],
        band_lens: Vec<usize>,
        body: &'body (dyn Fn(&mut [T], usize) + Sync),
    ) -> Self {
        let total: usize = band_lens.iter().sum();
        assert_eq!(
            total,
            data.len(),
            "{op}: band lengths sum to {total}, output has {} elements",
            data.len()
        );
        LaunchPlan {
            op,
            data,
            partition: Partition::Explicit { band_lens },
            body,
        }
    }

    /// Number of bands the plan will launch.
    pub fn bands(&self) -> usize {
        match &self.partition {
            Partition::Uniform {
                unit,
                items_per_band,
            } => {
                let items = self.data.len() / unit;
                items.div_ceil(*items_per_band).max(1)
            }
            Partition::Explicit { band_lens } => band_lens.len().max(1),
        }
    }

    /// Executes the plan on the shared worker pool.
    ///
    /// Single-band plans (and launches from inside a pool task) run
    /// inline on the caller. A panicking band is re-raised on the caller
    /// after every sibling band finished; the pool stays usable.
    ///
    /// # Panics
    ///
    /// Unwinds with the launch's [`ExecError`] as the panic payload when
    /// its context was cancelled, timed out or shed. The payload is raised
    /// with [`resume_unwind`], so no panic hook runs; whoever entered the
    /// context catches it with `catch_unwind` and downcasts it to
    /// [`ExecError`].
    pub fn launch(self) {
        if let Err(error) = self.try_launch() {
            resume_unwind(Box::new(error));
        }
    }

    /// Executes the plan like [`LaunchPlan::launch`], but returns this
    /// launch's own [`ExecError`] — cancellation, deadline expiry, or
    /// overload shed — instead of unwinding with it. With no ambient
    /// context entered the checks short-circuit and this always returns
    /// `Ok(())`. Band panics are re-raised either way, and so is an
    /// [`ExecError`] a nested [`LaunchPlan::launch`] unwound with inside
    /// a band.
    pub fn try_launch(self) -> Result<(), ExecError> {
        let bands = self.bands();
        telemetry::histogram("exec.launch.bands").record(bands as u64);
        let LaunchPlan {
            op,
            data,
            partition,
            body,
        } = self;
        // The launch runs under the submitter's ambient context, so a
        // deadline entered at (say) the trainer step or the serving batch
        // reaches every nested kernel launch without any call site
        // threading it through. An empty context keeps the fast path:
        // every check below short-circuits on `None`.
        let ctx = cancel::current();
        // Pre-launch cancellation point: refuse already-dead work before
        // building a single task.
        if let Some(kind) = ctx.status() {
            return Err(abort_error(op, kind));
        }
        // Only launches under a deadline or token shed on overload.
        let latency_bound = !ctx.is_empty();
        // Chaos injection site: under an installed FaultPlan a band task
        // may panic before running its body, exercising the pool's
        // park-and-reraise recovery path end to end. The trace
        // interval is recorded directly (not via `telemetry::span`) so
        // band executions land on each worker's timeline lane without
        // inflating the op's scalar span-family call counts.
        let guarded = |band: &mut [T], i: usize| {
            resilience::maybe_panic(&resilience::sites::EXEC_WORKER_PANIC);
            let band_start_us = telemetry::trace_now_us();
            body(band, i);
            telemetry::trace_complete(
                op,
                band_start_us,
                telemetry::trace_now_us().saturating_sub(band_start_us),
            );
        };
        if bands <= 1 {
            telemetry::counter_with("exec.launches", "inline").inc();
            let _ambient = cancel::enter(&ctx);
            guarded(data, 0);
            return finish_status(op, &ctx);
        }
        let guarded = &guarded;
        let ctx_ref = &ctx;
        // One band task: re-installs the launch context on whichever
        // thread runs the band (so kernel panel loops can poll it) and
        // checks the band-boundary cancellation point. A cancelled launch
        // skips every band that has not started; its output is discarded
        // with the launch error, so the skipped writes are unobservable.
        let run_band = |b: usize, band: &mut [T], i: usize| {
            perturb::stall(b);
            let _ambient = cancel::enter(ctx_ref);
            if ctx_ref.status().is_some() {
                return;
            }
            chaos_stall_band();
            if ctx_ref.status().is_none() {
                guarded(band, i);
            }
        };
        let run_band = &run_band;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(bands);
        match partition {
            Partition::Uniform {
                unit,
                items_per_band,
            } => {
                for (b, band) in data.chunks_mut(items_per_band * unit).enumerate() {
                    tasks.push(Box::new(move || run_band(b, band, b * items_per_band)));
                }
            }
            Partition::Explicit { band_lens } => {
                let mut rest = data;
                for (b, &len) in band_lens.iter().enumerate() {
                    let (band, tail) = rest.split_at_mut(len);
                    rest = tail;
                    tasks.push(Box::new(move || run_band(b, band, b)));
                }
            }
        }
        let tasks = perturb_submission_order(tasks);

        // Chaos `pool.queue_flood` site: force the admission decision
        // this launch would face on a flooded queue.
        let admission = if resilience::should_fail(&resilience::sites::POOL_QUEUE_FLOOD) {
            Err(pool::Rejected {
                tasks,
                depth: pool::pool().queue_depth(),
                cap: pool::queue_cap(),
            })
        } else {
            pool::pool().try_run(tasks)
        };
        if let Err(rejected) = admission {
            resilience::record_detected(&resilience::sites::POOL_QUEUE_FLOOD);
            telemetry::trace_instant("exec.shed");
            telemetry::histogram("exec.shed.depth").record(rejected.depth as u64);
            telemetry::gauge("exec.pool.queue_cap").set(rejected.cap as f64);
            if !latency_bound {
                // Plain throughput work has no deadline to miss:
                // degrade to inline execution on the submitter. The
                // queue stays bounded and the work still completes —
                // the recovery this site's counter pins.
                telemetry::counter_with("exec.shed", "inline").inc();
                telemetry::counter_with("exec.launches", "inline").inc();
                for task in rejected.tasks {
                    task();
                }
                resilience::record_recovered(&resilience::sites::POOL_QUEUE_FLOOD);
            } else {
                // Latency-bound work (it carries a deadline/token):
                // shed explicitly rather than queue into the flood.
                telemetry::counter_with("exec.shed", "rejected").inc();
                drop(rejected.tasks);
                return Err(abort_error(op, CancelKind::Overloaded));
            }
        }
        finish_status(op, &ctx)
    }
}

/// Maps an aborted context into the launch's structured error, emitting
/// the `exec.cancelled` counter (labelled by kind) and a trace instant.
fn abort_error(op: &'static str, kind: CancelKind) -> ExecError {
    telemetry::counter_with("exec.cancelled", kind.label()).inc();
    telemetry::trace_instant("exec.cancelled");
    match kind {
        CancelKind::Cancelled => ExecError::Cancelled { op },
        CancelKind::DeadlineExceeded => ExecError::DeadlineExceeded { op },
        CancelKind::Overloaded => ExecError::Overloaded { op },
    }
}

/// Post-launch verdict of the context: `Err` when the launch was
/// cancelled mid-flight (by its token or its deadline), in which case
/// the output must be considered garbage.
fn finish_status(op: &'static str, ctx: &Ctx) -> Result<(), ExecError> {
    match ctx.status() {
        Some(kind) => Err(abort_error(op, kind)),
        None => Ok(()),
    }
}

/// Chaos `exec.band_stall` site: parks the current band for the plan's
/// configured delay, sleeping in short slices and polling the ambient
/// context between them — an injected stall still unwinds promptly once
/// its deadline passes (or its token trips), which is exactly the
/// recovery the site exists to prove. A stall cut short that way counts
/// as detected.
fn chaos_stall_band() {
    let ms = resilience::delay_requested(&resilience::sites::EXEC_BAND_STALL);
    if ms == 0 {
        return;
    }
    let until = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < until {
        if cancel::poll_cancelled() {
            resilience::record_detected(&resilience::sites::EXEC_BAND_STALL);
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Reorders band tasks by the active schedule-perturbation seed (a no-op
/// at the default seed 0). Bands are disjoint, so any submission order is
/// semantically legal; perturbing it shows results do not depend on it.
fn perturb_submission_order(
    tasks: Vec<Box<dyn FnOnce() + Send + '_>>,
) -> Vec<Box<dyn FnOnce() + Send + '_>> {
    let seed = perturb::perturbation_seed();
    if seed == 0 || tasks.len() < 2 {
        return tasks;
    }
    let order = perturb::band_order(seed, tasks.len());
    let mut slots: Vec<Option<Box<dyn FnOnce() + Send + '_>>> =
        tasks.into_iter().map(Some).collect();
    let mut shuffled = Vec::with_capacity(slots.len());
    for &b in &order {
        if let Some(task) = slots[b].take() {
            shuffled.push(task);
        }
    }
    shuffled
}
