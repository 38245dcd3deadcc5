//! Unified execution runtime for MegaBlocks-RS.
//!
//! The paper's performance story rests on kernels that *launch cheaply*
//! and iterate over precomputed metadata (§5.1.3–5.1.4); this crate is
//! the CPU stand-in's version of that contract. It owns the three pieces
//! every kernel in the workspace shares:
//!
//! * **A persistent worker pool** ([`pool`], [`Pool`]) — spawned once,
//!   sized by [`configure_threads`] or the `MEGABLOCKS_THREADS`
//!   environment variable (falling back to the CPU count), and reused by
//!   every launch for the lifetime of the process. A panicking task is
//!   re-raised on the submitter without poisoning or wedging the pool.
//! * **First-class launch plans** ([`LaunchPlan`]) — a disjoint band
//!   partition of an output slice plus a per-band body. The sparse
//!   SDD/DSD/DDS kernels, the dense GEMM and the expert-parallel shard
//!   loop all launch through this one abstraction; under
//!   `--features sanitize` every plan's geometry is proven to tile its
//!   output before a worker touches it.
//! * **Reusable workspaces** ([`workspace`], [`Workspace`]) — a
//!   per-thread buffer arena so kernel outputs and scratch reuse storage
//!   across calls within a training step instead of round-tripping
//!   through the allocator.
//!
//! * **A dynamic race sanitizer** ([`RaceViolation`], [`record_write`],
//!   [`set_perturbation`]) — under `--features sanitize`, every
//!   multi-band launch records its empirical per-band write sets and the
//!   submitter proves them pairwise disjoint and inside the geometry's
//!   claims after the launch; a seeded schedule-perturbation mode
//!   shuffles band submission order to flush out order-dependent
//!   overlaps. Violations surface from [`LaunchPlan::try_launch`] or as
//!   panics prefixed with [`RACE_PANIC_PREFIX`].
//!
//! * **Deadlines, cancellation & overload control** ([`cancel`],
//!   [`CancelToken`], [`Deadline`], [`Ctx`], [`ExecError`]) — every
//!   launch runs under a cancellation context (explicit or inherited
//!   from the thread), checked cooperatively at band boundaries and
//!   inside the tiled microkernel's panel loop; a background watchdog
//!   ([`LaunchPlan::with_stall_budget`]) cancels launches whose bands
//!   stall past a median-based budget; and pool admission is bounded
//!   ([`configure_queue_cap`]) with explicit load shedding for
//!   latency-bound launches.
//!
//! * **One settings resolver** ([`Setting`]) — programmatic request >
//!   environment variable > default, and a variable that does not parse
//!   panics at first use instead of falling back.
//!
//! Pool occupancy, queue depth, launch counts and workspace hit rates
//! are reported through `megablocks-telemetry` (`exec.*` metrics).

#![deny(missing_docs)]

pub mod cancel;
mod plan;
mod pool;
mod sanitizer;
mod setting;
mod watchdog;
pub mod workspace;

pub use cancel::{
    CancelKind, CancelToken, Ctx, Deadline, ExecError, CANCELLED_PANIC_PREFIX,
    DEADLINE_PANIC_PREFIX, OVERLOADED_PANIC_PREFIX,
};
pub use plan::LaunchPlan;
pub use pool::{
    configure_queue_cap, configure_threads, parallelism, parallelism_for, pool, queue_cap,
    scoped_parallelism, Pool,
};
pub use sanitizer::{
    band_order, perturbation_seed, record_write, record_write_span, set_perturbation, stall_slots,
    RaceViolation, RACE_PANIC_PREFIX,
};
pub use setting::{Setting, SettingValue};
pub use workspace::{Workspace, WorkspaceStats};
