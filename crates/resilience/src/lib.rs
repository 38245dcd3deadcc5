//! Fault-injection and fault-tolerance substrate for MegaBlocks-RS.
//!
//! The paper's dropless formulation removes one whole class of silent
//! failures (token dropping); this crate is the workspace's answer to the
//! *loud* ones — worker panics, NaN-poisoned kernels, stalled bands, a
//! flooded pool queue, torn checkpoint writes. It owns the pieces the
//! recovery paths in `exec`, `core` and `transformer` share:
//!
//! * **A deterministic fault-injection layer** ([`FaultPlan`], [`sites`]),
//!   always compiled. A plan is seeded and installed process-wide with
//!   [`install_plan`]; registered injection sites ([`Site`]) query it
//!   through hooks ([`maybe_panic`], [`maybe_poison`], [`should_fail`],
//!   [`delay_requested`], [`maybe_io_error`]) that cost one relaxed atomic
//!   load while no plan is installed.
//! * **CRC-checked, atomic file I/O** ([`crc32`], [`atomic_write`]) —
//!   the write-temp + fsync + rename discipline the v2 checkpoint format
//!   relies on, so a crash or injected I/O error can tear at most a temp
//!   file, never a committed checkpoint.
//! * **Bounded exponential-backoff retry** ([`RetryPolicy`],
//!   [`run_with_retry`]) shared by the checkpoint writer and the
//!   fault-tolerant trainer loop.
//!
//! Every injection and every recovery emits `resilience.*` telemetry:
//! `resilience.injected.<site>` when a fault fires,
//! `resilience.detected.<site>` when a recovery path notices one, and
//! `resilience.recovered.<site>` when it heals it. A unit test in
//! [`sites`] pins the catalogue to this naming scheme, and the root test
//! `tests/source_rules.rs` checks that every site is listed in
//! [`sites::ALL`] and wired outside the catalogue.

#![deny(missing_docs)]

mod crc;
mod io;
mod plan;
mod retry;
pub mod sites;

pub use crc::crc32;
pub use io::atomic_write;
pub use plan::{
    clear_plan, delay_requested, install_plan, maybe_io_error, maybe_panic, maybe_poison, report,
    should_fail, FaultPlan, FaultReport, SiteReport,
};
pub use retry::{run_with_retry, RetryPolicy};
pub use sites::Site;

use megablocks_telemetry as telemetry;

/// Records that a recovery path *noticed* a fault at `site` (its own or
/// an injected one). Detection happens on the recovery path, never in a
/// kernel hot loop.
pub fn record_detected(site: &Site) {
    telemetry::counter(site.detected).inc();
    telemetry::trace_instant(site.detected);
}

/// Records that a recovery path *healed* a fault at `site` — a retried
/// step succeeded, a checkpoint write went through on a later attempt.
pub fn record_recovered(site: &Site) {
    telemetry::counter(site.recovered).inc();
    telemetry::trace_instant(site.recovered);
}
