//! The registered fault-injection sites.
//!
//! A [`Site`] names one place in the workspace where a
//! [`FaultPlan`](super::FaultPlan) may inject a failure, together with the
//! three `resilience.*` telemetry counters its lifecycle reports to:
//! `injected` (the chaos layer fired), `detected` (a recovery path
//! noticed a fault — injected or genuine) and `recovered` (the recovery
//! path healed it).
//!
//! Every site's counters are `resilience.injected.<name>` /
//! `resilience.detected.<name>` / `resilience.recovered.<name>` (the unit
//! test below). The root test `tests/source_rules.rs` reads this file:
//! every `pub const …: Site` must be listed in [`ALL`] and named as
//! `sites::IDENT` by non-test code outside this file — a
//! registered-but-unwired site is a test failure, not dead weight.

/// One registered fault-injection site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// Stable site name (`subsystem.fault`), the key a
    /// [`super::FaultPlan`] schedules against.
    pub name: &'static str,
    /// Counter incremented when the chaos layer injects a fault here.
    pub injected: &'static str,
    /// Counter incremented when a recovery path detects a fault here.
    pub detected: &'static str,
    /// Counter incremented when a recovery path heals a fault here.
    pub recovered: &'static str,
}

/// Worker-panic injection inside the exec pool's launch path: a band task
/// panics before running its body, exercising the pool's park-and-reraise
/// path and the trainer's step retry.
pub const EXEC_WORKER_PANIC: Site = Site {
    name: "exec.worker_panic",
    injected: "resilience.injected.exec.worker_panic",
    detected: "resilience.detected.exec.worker_panic",
    recovered: "resilience.recovered.exec.worker_panic",
};

/// Kernel-output poisoning: a NaN is written into a dMoE forward output,
/// exercising non-finite loss/grad detection and step rollback.
pub const KERNEL_NAN_POISON: Site = Site {
    name: "kernel.nan_poison",
    injected: "resilience.injected.kernel.nan_poison",
    detected: "resilience.detected.kernel.nan_poison",
    recovered: "resilience.recovered.kernel.nan_poison",
};

/// Checkpoint I/O failure: a stage of `core::checkpoint::atomic_write`
/// returns an injected `io::Error`, exercising write retry/backoff and
/// proving a torn write never commits.
pub const CHECKPOINT_IO: Site = Site {
    name: "checkpoint.io",
    injected: "resilience.injected.checkpoint.io",
    detected: "resilience.detected.checkpoint.io",
    recovered: "resilience.recovered.checkpoint.io",
};

/// Band stall inside the exec launch path: one band of a launch plan
/// parks for the plan's configured delay (cooperatively, via
/// [`super::delay_requested`]), exercising the path on which the
/// launch's deadline cuts the stall short and unwinds.
pub const EXEC_BAND_STALL: Site = Site {
    name: "exec.band_stall",
    injected: "resilience.injected.exec.band_stall",
    detected: "resilience.detected.exec.band_stall",
    recovered: "resilience.recovered.exec.band_stall",
};

/// Pool-queue flood: a launch is treated as if the worker queue were at
/// its depth cap, exercising bounded admission — explicit shedding for
/// latency-bound launches, inline degradation for the rest.
pub const POOL_QUEUE_FLOOD: Site = Site {
    name: "pool.queue_flood",
    injected: "resilience.injected.pool.queue_flood",
    detected: "resilience.detected.pool.queue_flood",
    recovered: "resilience.recovered.pool.queue_flood",
};

/// Every registered site, in catalogue order.
pub const ALL: &[Site] = &[
    EXEC_WORKER_PANIC,
    KERNEL_NAN_POISON,
    CHECKPOINT_IO,
    EXEC_BAND_STALL,
    POOL_QUEUE_FLOOD,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_follow_the_naming_scheme() {
        for site in ALL {
            assert_eq!(site.injected, format!("resilience.injected.{}", site.name));
            assert_eq!(site.detected, format!("resilience.detected.{}", site.name));
            assert_eq!(
                site.recovered,
                format!("resilience.recovered.{}", site.name)
            );
        }
    }

    #[test]
    fn site_names_are_unique() {
        let mut names: Vec<_> = ALL.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }
}
