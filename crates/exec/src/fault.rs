//! Deterministic, seeded fault plans, the injection hooks sites query,
//! and the counters recovery paths report to.
//!
//! The paper's dropless formulation removes one whole class of silent
//! failures (token dropping); this module is the workspace's answer to
//! the *loud* ones — worker panics, NaN-poisoned kernels, stalled bands,
//! a flooded pool queue, torn checkpoint writes. A [`FaultPlan`]
//! schedules faults per [`Site`] two ways, composable:
//!
//! * **Explicit call indices** ([`FaultPlan::at_calls`]) — fire on
//!   exactly the n-th, m-th, … invocation of the site (0-based). Each
//!   site keeps an atomic call counter, so the *count* of firings is
//!   deterministic regardless of thread interleaving.
//! * **Seeded rate with a budget** ([`FaultPlan::with_rate`]) — each call
//!   fires with probability `rate`, decided by a SplitMix64 hash of
//!   `(seed, site, call index)`, capped at `budget` total firings so a
//!   chaos run always drains its faults and can finish.
//!
//! A plan is in force only where it was entered: [`FaultPlan::enter`]
//! puts it in the thread's ambient [`crate::Ctx`] until the returned
//! [`FaultScope`] drops, and every launch carries that context — plan
//! included — to whichever thread runs each of its bands. So two threads
//! may run under two plans at once, each scope's [`FaultScope::report`]
//! counts only the calls made under it, and a hook on a thread with no
//! plan takes one thread-local read and reports "no fault".
//!
//! Every injection and every recovery emits `resilience.*` telemetry:
//! `resilience.injected.<site>` when a fault fires,
//! `resilience.detected.<site>` when a recovery path notices one
//! ([`record_detected`]), and `resilience.recovered.<site>` when it heals
//! it ([`record_recovered`]).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use megablocks_telemetry as telemetry;

use crate::cancel::{self, Ctx, CtxScope};

pub mod sites;

pub use sites::Site;

/// How one site's faults are scheduled.
#[derive(Debug, Clone, Default, PartialEq)]
struct Schedule {
    /// Explicit 0-based call indices that fire.
    at_calls: Vec<u64>,
    /// Per-call firing probability in `[0, 1]`.
    rate: f64,
    /// Maximum rate-driven firings (explicit indices are exempt).
    budget: u64,
}

/// A deterministic, seeded fault-injection plan.
///
/// Build one with [`FaultPlan::seeded`], add per-site schedules, then
/// [`FaultPlan::enter`] it. Each entry starts its own call counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Milliseconds an injected [`sites::EXEC_BAND_STALL`] fault parks
    /// for.
    delay_ms: u64,
    schedules: Vec<(&'static str, Schedule)>,
}

impl FaultPlan {
    /// Creates an empty plan with the given seed (drives rate decisions).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_ms: 20,
            schedules: Vec::new(),
        }
    }

    /// Fires `site` on exactly the listed 0-based call indices.
    #[must_use]
    pub fn at_calls(mut self, site: &Site, calls: &[u64]) -> Self {
        let sched = self.schedule_mut(site);
        sched.at_calls.extend_from_slice(calls);
        sched.at_calls.sort_unstable();
        sched.at_calls.dedup();
        self
    }

    /// Fires `site` with probability `rate` per call, at most `budget`
    /// times over the plan's lifetime.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    #[must_use]
    pub fn with_rate(mut self, site: &Site, rate: f64, budget: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        let sched = self.schedule_mut(site);
        sched.rate = rate;
        sched.budget = budget;
        self
    }

    /// Sets the duration of injected band stalls (default 20 ms).
    #[must_use]
    pub fn delay_ms(mut self, ms: u64) -> Self {
        self.delay_ms = ms;
        self
    }

    fn schedule_mut(&mut self, site: &Site) -> &mut Schedule {
        if let Some(i) = self.schedules.iter().position(|(n, _)| *n == site.name) {
            return &mut self.schedules[i].1;
        }
        self.schedules.push((site.name, Schedule::default()));
        &mut self.schedules.last_mut().expect("just pushed").1
    }

    /// Puts the plan in force on the current thread, with fresh call
    /// counters, until the returned scope drops. The thread's token and
    /// deadline stay as they were; an outer plan is hidden until then.
    /// Launches submitted meanwhile carry the plan to every thread that
    /// runs one of their bands.
    pub fn enter(&self) -> FaultScope {
        let sites = self
            .schedules
            .iter()
            .map(|(name, sched)| ActiveSite {
                name,
                sched: sched.clone(),
                calls: AtomicU64::new(0),
                fired: AtomicU64::new(0),
                budget_left: AtomicU64::new(sched.budget),
            })
            .collect();
        let plan = Arc::new(ActivePlan {
            seed: self.seed,
            delay_ms: self.delay_ms,
            sites,
        });
        let ambient = cancel::enter(&Ctx::none().with_plan(Arc::clone(&plan)));
        FaultScope {
            plan,
            _ambient: ambient,
        }
    }
}

/// Injection counts for one site, from [`FaultScope::report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteReport {
    /// The site's registered name.
    pub site: &'static str,
    /// Calls the site made into the plan.
    pub calls: u64,
    /// Faults actually injected.
    pub injected: u64,
}

/// Snapshot of one entered plan's activity, from [`FaultScope::report`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Per-site activity, in plan order.
    pub sites: Vec<SiteReport>,
}

impl FaultReport {
    /// Faults injected at `site` so far (0 if the site is unscheduled).
    pub fn injected_at(&self, site: &Site) -> u64 {
        self.sites
            .iter()
            .find(|s| s.site == site.name)
            .map_or(0, |s| s.injected)
    }
}

#[derive(Debug)]
struct ActiveSite {
    name: &'static str,
    sched: Schedule,
    calls: AtomicU64,
    fired: AtomicU64,
    budget_left: AtomicU64,
}

/// An entered plan: its schedules and the counters every thread working
/// under it shares.
#[derive(Debug)]
pub(crate) struct ActivePlan {
    seed: u64,
    delay_ms: u64,
    sites: Vec<ActiveSite>,
}

/// A [`FaultPlan`] in force on the thread that entered it, until this
/// drops (which restores the thread's previous context).
#[must_use = "the plan is in force only while its scope lives"]
pub struct FaultScope {
    plan: Arc<ActivePlan>,
    _ambient: CtxScope,
}

impl FaultScope {
    /// What the plan has done so far, counting every call made under it
    /// on any thread and nothing made under another plan.
    pub fn report(&self) -> FaultReport {
        FaultReport {
            sites: self
                .plan
                .sites
                .iter()
                .map(|s| SiteReport {
                    site: s.name,
                    calls: s.calls.load(Relaxed),
                    injected: s.fired.load(Relaxed),
                })
                .collect(),
        }
    }
}

/// SplitMix64 over `(seed, site hash, call index)` — the whole
/// determinism story of rate-scheduled faults.
fn decision_hash(seed: u64, site: &str, call: u64) -> u64 {
    let mut z = seed ^ call.wrapping_mul(0x9E3779B97F4A7C15);
    for b in site.bytes() {
        z = z.wrapping_add(u64::from(b)).wrapping_mul(0x100000001B3);
    }
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One call into the ambient plan from `site`: advances the site's call
/// counter and decides whether a fault fires here. `Some(delay_ms)` when
/// it does.
fn fires(site: &Site) -> Option<u64> {
    let plan = cancel::ambient_plan()?;
    let s = plan.sites.iter().find(|s| s.name == site.name)?;
    let call = s.calls.fetch_add(1, Relaxed);
    let mut fire = s.sched.at_calls.binary_search(&call).is_ok();
    if !fire && s.sched.rate > 0.0 {
        let u = decision_hash(plan.seed, s.name, call) as f64 / u64::MAX as f64;
        // A rate hit fires only while budget is left to consume.
        fire = u < s.sched.rate
            && s.budget_left
                .fetch_update(Relaxed, Relaxed, |left| left.checked_sub(1))
                .is_ok();
    }
    if !fire {
        return None;
    }
    s.fired.fetch_add(1, Relaxed);
    telemetry::counter(site.injected).inc();
    telemetry::trace_instant(site.injected);
    Some(plan.delay_ms)
}

/// Message prefix of every injected panic and I/O error, so a log names
/// the fault as injected.
const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// Worker-panic hook: panics with a recognizable payload if the plan
/// fires at `site`.
#[inline]
pub fn maybe_panic(site: &Site) {
    if fires(site).is_some() {
        panic!("{} {}", INJECTED_PANIC_PREFIX, site.name);
    }
}

/// NaN-poisoning hook: overwrites one element of `data` with NaN if the
/// plan fires at `site`.
#[inline]
pub fn maybe_poison(site: &Site, data: &mut [f32]) {
    if fires(site).is_some() {
        if let Some(x) = data.first_mut() {
            *x = f32::NAN;
        }
    }
}

/// Structured-failure hook (a flooded pool queue): `true` if the plan
/// fires at `site`.
#[inline]
pub fn should_fail(site: &Site) -> bool {
    fires(site).is_some()
}

/// Cooperative-stall hook: if the plan fires at `site`, returns the
/// plan's configured delay in milliseconds *without sleeping* — the
/// caller parks on its own terms (typically in short slices, polling a
/// cancellation token between them), so an injected stall still unwinds
/// promptly once its deadline passes or its token trips.
#[inline]
pub fn delay_requested(site: &Site) -> u64 {
    fires(site).unwrap_or(0)
}

/// Checkpoint-I/O hook: returns an injected `io::Error` if the plan fires
/// at `site`.
#[inline]
pub fn maybe_io_error(site: &Site) -> std::io::Result<()> {
    if fires(site).is_some() {
        return Err(std::io::Error::other(format!(
            "{} {}",
            INJECTED_PANIC_PREFIX, site.name
        )));
    }
    Ok(())
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dedups_and_sorts_call_indices() {
        let plan = FaultPlan::seeded(1)
            .at_calls(&sites::EXEC_WORKER_PANIC, &[5, 1])
            .at_calls(&sites::EXEC_WORKER_PANIC, &[1, 3]);
        assert_eq!(plan.schedules.len(), 1);
        assert_eq!(plan.schedules[0].1.at_calls, vec![1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rate_must_be_a_probability() {
        let _ = FaultPlan::seeded(0).with_rate(&sites::CHECKPOINT_IO, 1.5, 3);
    }

    #[test]
    fn hooks_are_quiet_with_no_plan_installed() {
        assert!(cancel::ambient_plan().is_none());
        let mut data = [1.0f32];
        maybe_poison(&sites::KERNEL_NAN_POISON, &mut data);
        assert_eq!(data[0], 1.0);
        assert!(!should_fail(&sites::POOL_QUEUE_FLOOD));
        assert_eq!(delay_requested(&sites::EXEC_BAND_STALL), 0);
        assert!(maybe_io_error(&sites::CHECKPOINT_IO).is_ok());
        maybe_panic(&sites::EXEC_WORKER_PANIC); // must not panic
                                                // A scope that ended leaves nothing behind.
        drop(
            FaultPlan::seeded(1)
                .at_calls(&sites::POOL_QUEUE_FLOOD, &[0])
                .enter(),
        );
        assert!(!should_fail(&sites::POOL_QUEUE_FLOOD));
    }

    #[test]
    fn explicit_calls_fire_exactly_once_each() {
        let scope = FaultPlan::seeded(3)
            .at_calls(&sites::POOL_QUEUE_FLOOD, &[1, 3])
            .enter();
        let fired: Vec<bool> = (0..6)
            .map(|_| should_fail(&sites::POOL_QUEUE_FLOOD))
            .collect();
        assert_eq!(fired, vec![false, true, false, true, false, false]);
        assert_eq!(scope.report().injected_at(&sites::POOL_QUEUE_FLOOD), 2);
    }

    #[test]
    fn rate_respects_budget_and_is_seed_deterministic() {
        let run = |seed| {
            let _scope = FaultPlan::seeded(seed)
                .with_rate(&sites::CHECKPOINT_IO, 0.5, 4)
                .enter();
            (0..64)
                .map(|_| maybe_io_error(&sites::CHECKPOINT_IO).is_err())
                .collect::<Vec<bool>>()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.iter().filter(|&&f| f).count(), 4, "budget caps firings");
    }

    #[test]
    fn unscheduled_sites_stay_quiet() {
        let _scope = FaultPlan::seeded(5)
            .at_calls(&sites::POOL_QUEUE_FLOOD, &[0])
            .enter();
        maybe_panic(&sites::EXEC_WORKER_PANIC);
        assert_eq!(delay_requested(&sites::EXEC_BAND_STALL), 0);
    }

    #[test]
    fn an_injection_counts_under_the_sites_own_counter() {
        // Not in `sites::ALL`: the counter comes from the `Site` the hook
        // was handed, not from a catalogue lookup.
        const UNLISTED: Site = Site {
            name: "test.unlisted",
            injected: "resilience.injected.test.unlisted",
            detected: "resilience.detected.test.unlisted",
            recovered: "resilience.recovered.test.unlisted",
        };
        assert!(sites::ALL.iter().all(|s| s.name != UNLISTED.name));
        let before = telemetry::counter(UNLISTED.injected).get();
        let scope = FaultPlan::seeded(2).at_calls(&UNLISTED, &[0, 2]).enter();
        let fired = (0..3).filter(|_| should_fail(&UNLISTED)).count();
        drop(scope);
        assert_eq!(fired, 2);
        assert_eq!(telemetry::counter(UNLISTED.injected).get() - before, 2);
    }

    #[test]
    fn injected_panics_carry_the_marker_payload() {
        let _scope = FaultPlan::seeded(9)
            .at_calls(&sites::EXEC_WORKER_PANIC, &[0])
            .enter();
        let err = std::panic::catch_unwind(|| maybe_panic(&sites::EXEC_WORKER_PANIC))
            .expect_err("scheduled call must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "{msg}");
    }
}
