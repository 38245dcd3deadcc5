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
//! `chunks_mut`/`split_at_mut`, so no two bands can alias an output
//! element, and the two constructors assert that the declared geometry
//! tiles the output exactly. Each band sits in its own slot, taken once
//! by whichever thread claims that band index.
//!
//! Every launch also runs under the cancellation [`Ctx`] its submitting
//! thread entered ([`crate::cancel::enter`]) and is checked cooperatively
//! at band boundaries: a launch whose token trips or whose deadline
//! passes skips unstarted bands and ends in bounded time with a
//! structured [`ExecError`]. Queue admission is bounded too: a launch
//! that would flood the pool past its depth cap is shed with
//! [`ExecError::Overloaded`] when latency-bound, or run on the submitter
//! alone when not. [`LaunchPlan::launch`] unwinds with that error as
//! the panic payload; [`LaunchPlan::try_launch`] returns it.

use std::panic::resume_unwind;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use megablocks_telemetry as telemetry;

use crate::cancel::{self, CancelKind, Ctx, ExecError};
use crate::fault::{self, sites};
use crate::perturb;
use crate::pool;

/// One band of a plan's output, taken once by the thread that claims it.
type Band<'data, T> = Mutex<&'data mut [T]>;

/// One kernel launch: output bands plus the per-band body.
///
/// Build with [`LaunchPlan::over_items`] or [`LaunchPlan::over_bands`],
/// then call [`LaunchPlan::launch`]. The body must be `Sync`: every
/// thread that runs a band shares it by reference. The elements are `f32`
/// unless the output says otherwise; a band may run on any thread, so
/// they must be `Send`.
pub struct LaunchPlan<'data, 'body, T = f32> {
    op: &'static str,
    bands: Vec<Band<'data, T>>,
    /// Items per band: band `b`'s body receives `b * step`.
    step: usize,
    body: &'body (dyn Fn(&mut [T], usize) + Sync),
}

/// The bands `cut` carves, or one empty band if it carves none.
fn bands<'data, T>(cut: impl Iterator<Item = &'data mut [T]>) -> Vec<Band<'data, T>> {
    let mut bands: Vec<_> = cut.map(Mutex::new).collect();
    if bands.is_empty() {
        bands.push(Mutex::new(&mut []));
    }
    bands
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
        let step = items_per_band.max(1);
        LaunchPlan {
            op,
            bands: bands(data.chunks_mut(step.saturating_mul(unit))),
            step,
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
        let cut = band_lens.into_iter().scan(data, |rest, len| {
            let (band, tail) = std::mem::take(rest).split_at_mut(len);
            *rest = tail;
            Some(band)
        });
        LaunchPlan {
            op,
            bands: bands(cut),
            step: 1,
            body,
        }
    }

    /// Number of bands the plan will launch.
    pub fn bands(&self) -> usize {
        self.bands.len()
    }

    /// Executes the plan on the shared worker pool.
    ///
    /// Single-band plans (and launches from inside a pool worker's band)
    /// run inline on the caller. A panicking band is re-raised on the
    /// caller after every claimed band finished; the pool stays usable.
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
        let LaunchPlan {
            op,
            bands,
            step,
            body,
        } = self;
        let count = bands.len();
        telemetry::histogram("exec.launch.bands").record(count as u64);
        // The launch runs under the submitter's ambient context, so a
        // deadline entered at (say) the trainer step or the serving batch
        // reaches every nested kernel launch without any call site
        // threading it through; so does a fault plan entered around it.
        // An empty context keeps the fast path: every check below
        // short-circuits on `None`.
        let ctx = cancel::current();
        // Pre-launch cancellation point: refuse already-dead work before
        // a single band runs.
        if let Some(kind) = ctx.status() {
            return Err(abort_error(op, kind));
        }
        // Only launches under a deadline or token shed on overload.
        let latency_bound = !ctx.is_empty();
        // Bands are disjoint, so any claim order is legal; a perturbation
        // seed maps claim `k` to band `order[k]` to show results do not
        // depend on it.
        let order = match perturb::perturbation_seed() {
            0 => Vec::new(),
            seed => perturb::band_order(seed, count),
        };
        // One claimed band: re-installs the launch context on whichever
        // thread runs it (so kernel panel loops can poll it, and fault
        // sites count against the launch's plan) and checks
        // the band-boundary cancellation point. A cancelled launch skips
        // every band that has not started; its output is discarded with
        // the launch error, so the skipped writes are unobservable. Under
        // an entered FaultPlan a band may stall (multi-band launches
        // only) or panic before its body, exercising the pool's
        // park-and-reraise path end to end. The trace interval is
        // recorded directly (not via `telemetry::span`) so bands land on
        // each worker's timeline lane without inflating the op's scalar
        // span-family call counts.
        let run_band = |claim: usize| {
            let b = order.get(claim).copied().unwrap_or(claim);
            let _ambient = cancel::enter(&ctx);
            if count > 1 {
                perturb::stall(b);
                if ctx.status().is_none() {
                    chaos_stall_band();
                }
            }
            if ctx.status().is_some() {
                return;
            }
            let band =
                std::mem::take(&mut *bands[b].lock().unwrap_or_else(PoisonError::into_inner));
            fault::maybe_panic(&sites::EXEC_WORKER_PANIC);
            let band_start_us = telemetry::trace_now_us();
            body(band, b * step);
            telemetry::trace_complete(
                op,
                band_start_us,
                telemetry::trace_now_us().saturating_sub(band_start_us),
            );
        };

        // Chaos `pool.queue_flood` site: force the admission decision
        // this launch would face on a flooded queue.
        let admission = if count > 1 && fault::should_fail(&sites::POOL_QUEUE_FLOOD) {
            Err(pool::Rejected {
                depth: pool::pool().queue_depth(),
                cap: pool::queue_cap(),
            })
        } else {
            pool::try_run(count, &run_band)
        };
        if let Err(rejected) = admission {
            fault::record_detected(&sites::POOL_QUEUE_FLOOD);
            telemetry::trace_instant("exec.shed");
            telemetry::histogram("exec.shed.depth").record(rejected.depth as u64);
            telemetry::gauge("exec.pool.queue_cap").set(rejected.cap as f64);
            if latency_bound {
                // Latency-bound work (it carries a deadline/token): shed
                // explicitly rather than queue into the flood.
                telemetry::counter_with("exec.shed", "rejected").inc();
                return Err(abort_error(op, CancelKind::Overloaded));
            }
            // Plain throughput work has no deadline to miss: run it on the
            // submitter alone. The queue stays bounded and the work still
            // completes — the recovery this site's counter pins.
            telemetry::counter_with("exec.shed", "inline").inc();
            pool::run_inline(count, &run_band);
            fault::record_recovered(&sites::POOL_QUEUE_FLOOD);
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
    let ms = fault::delay_requested(&sites::EXEC_BAND_STALL);
    if ms == 0 {
        return;
    }
    let until = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < until {
        if cancel::poll_cancelled() {
            fault::record_detected(&sites::EXEC_BAND_STALL);
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
