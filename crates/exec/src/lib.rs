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
//!   every launch for the lifetime of the process. A launch is one
//!   shared object whose bands sit behind a claim counter: the submitter
//!   runs band 0, queues handles for the workers and keeps claiming
//!   bands itself, so it waits only on bands another thread has started.
//!   A panicking band is re-raised on the submitter without poisoning or
//!   wedging the pool.
//! * **First-class launch plans** ([`LaunchPlan`]) — a disjoint band
//!   partition of an output slice plus a per-band body. The sparse
//!   SDD/DSD/DDS kernels and the dense GEMM all launch through this one
//!   abstraction, whose constructors assert that the bands tile the
//!   output exactly.
//! * **Reusable workspaces** ([`workspace`]) — a per-thread buffer arena
//!   so kernel outputs and scratch reuse storage across calls within a
//!   training step instead of round-tripping through the allocator; its
//!   [`workspace::Buffer`] goes back to the arena when dropped.
//!
//! * **Seeded schedule perturbation** ([`set_perturbation`],
//!   [`band_order`], `MEGABLOCKS_PERTURB_SEED`) — bands are disjoint by
//!   construction, so any claim order is legal; a non-zero seed
//!   shuffles it and injects short stalls, and the determinism suites
//!   demand bit-identical results under every seed.
//!
//! * **Deadlines, cancellation & overload control** ([`cancel`],
//!   [`CancelToken`], [`Deadline`], [`Ctx`], [`ExecError`]) — every
//!   launch runs under a cancellation context (explicit or inherited
//!   from the thread), checked cooperatively at band boundaries and
//!   inside the tiled microkernel's panel loop, and pool admission is
//!   bounded ([`configure_queue_cap`]) with explicit load shedding for
//!   latency-bound launches. Every aborted launch ends one way:
//!   [`LaunchPlan::launch`] unwinds with the [`ExecError`] itself as the
//!   panic payload, which the code that entered the context catches by
//!   type.
//!
//! * **Seeded fault injection** ([`fault`]) — a [`fault::FaultPlan`] is
//!   entered like a context and travels in it: the sites in the pool,
//!   the launch path, the dMoE layer and the checkpoint writer fire on
//!   the calls it schedules, for the work done under it and no other,
//!   and recovery paths report `resilience.*` counters.
//!
//! * **One settings resolver** — each integer knob above resolves
//!   programmatic request > environment variable > default, and a
//!   variable that does not parse panics at first use instead of falling
//!   back.
//!
//! Pool occupancy, queue depth, launch counts and workspace hit rates
//! are reported through `megablocks-telemetry` (`exec.*` metrics).

#![deny(missing_docs)]

pub mod cancel;
pub mod fault;
mod perturb;
mod plan;
mod pool;
mod setting;
pub mod workspace;

pub use cancel::{CancelKind, CancelToken, Ctx, Deadline, ExecError};
pub use perturb::{band_order, perturbation_seed, set_perturbation, stall_slots};
pub use plan::LaunchPlan;
pub use pool::{
    configure_queue_cap, configure_threads, parallelism, parallelism_for, pool, queue_cap,
    scoped_parallelism, Pool,
};
pub use workspace::WorkspaceStats;
