//! Deterministic, seeded fault plans and the injection hooks sites query.
//!
//! A [`FaultPlan`] schedules faults per [`Site`] two ways, composable:
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
//! The hooks are always compiled and [`install_plan`] / [`clear_plan`]
//! are the only switch. Every hook begins with one relaxed load of an
//! armed flag: with no plan installed it takes no lock, allocates nothing
//! and reports "no fault".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, RwLock};

use megablocks_telemetry as telemetry;

use crate::sites::Site;

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
/// [`install_plan`] it process-wide. Installing replaces any previous
/// plan and resets all call counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Milliseconds an injected [`crate::sites::EXEC_BAND_STALL`] fault
    /// parks for.
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
}

/// Injection counts for one site, from [`report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteReport {
    /// The site's registered name.
    pub site: &'static str,
    /// Calls the site made into the chaos layer.
    pub calls: u64,
    /// Faults actually injected.
    pub injected: u64,
}

/// Snapshot of the installed plan's activity, from [`report`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Per-site activity, in plan order.
    pub sites: Vec<SiteReport>,
}

impl FaultReport {
    /// Faults injected at `site` so far (0 if the site is unscheduled or
    /// no plan is installed).
    pub fn injected_at(&self, site: &Site) -> u64 {
        self.sites
            .iter()
            .find(|s| s.site == site.name)
            .map_or(0, |s| s.injected)
    }
}

struct ActiveSite {
    name: &'static str,
    sched: Schedule,
    calls: AtomicU64,
    fired: AtomicU64,
    budget_left: AtomicU64,
}

struct ActivePlan {
    seed: u64,
    delay_ms: u64,
    sites: Vec<ActiveSite>,
}

static PLAN: RwLock<Option<Arc<ActivePlan>>> = RwLock::new(None);

/// Set while `PLAN` may hold a plan. It publishes nothing — the plan is
/// only ever read through the lock — so relaxed ordering is enough: a hook
/// that sees a stale `true` finds `None` under the lock, and one that sees
/// a stale `false` behaves as if it ran just before the install.
static ARMED: AtomicBool = AtomicBool::new(false);

fn current() -> Option<Arc<ActivePlan>> {
    if !ARMED.load(Relaxed) {
        return None;
    }
    PLAN.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Installs `plan` process-wide, replacing any previous plan and
/// resetting all call counters.
pub fn install_plan(plan: FaultPlan) {
    let sites = plan
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
    let active = ActivePlan {
        seed: plan.seed,
        delay_ms: plan.delay_ms,
        sites,
    };
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(active));
    ARMED.store(true, Relaxed);
}

/// Removes the installed plan (all sites go quiet).
pub fn clear_plan() {
    ARMED.store(false, Relaxed);
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Injection activity of the installed plan (empty when no plan is
/// installed).
pub fn report() -> FaultReport {
    let Some(plan) = current() else {
        return FaultReport::default();
    };
    FaultReport {
        sites: plan
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

/// One call into the chaos layer from `site`: advances the site's call
/// counter and decides whether a fault fires here. `Some(delay_ms)` when
/// it does.
fn fires(site: &Site) -> Option<u64> {
    let plan = current()?;
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
pub(crate) const INJECTED_PANIC_PREFIX: &str = "injected fault:";

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

/// The plan is process-global: every test in this crate that installs one
/// *or* calls a hooked function holds this lock, so an install never
/// injects into a test running beside it.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites;

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
        let _guard = serial();
        assert!(current().is_none());
        let mut data = [1.0f32];
        maybe_poison(&sites::KERNEL_NAN_POISON, &mut data);
        assert_eq!(data[0], 1.0);
        assert!(!should_fail(&sites::POOL_QUEUE_FLOOD));
        assert_eq!(delay_requested(&sites::EXEC_BAND_STALL), 0);
        assert!(maybe_io_error(&sites::CHECKPOINT_IO).is_ok());
        maybe_panic(&sites::EXEC_WORKER_PANIC); // must not panic
        assert!(report().sites.is_empty());
    }

    #[test]
    fn explicit_calls_fire_exactly_once_each() {
        let _guard = serial();
        install_plan(FaultPlan::seeded(3).at_calls(&sites::POOL_QUEUE_FLOOD, &[1, 3]));
        let fired: Vec<bool> = (0..6)
            .map(|_| should_fail(&sites::POOL_QUEUE_FLOOD))
            .collect();
        assert_eq!(fired, vec![false, true, false, true, false, false]);
        assert_eq!(report().injected_at(&sites::POOL_QUEUE_FLOOD), 2);
        clear_plan();
    }

    #[test]
    fn rate_respects_budget_and_is_seed_deterministic() {
        let _guard = serial();
        let run = |seed| {
            install_plan(FaultPlan::seeded(seed).with_rate(&sites::CHECKPOINT_IO, 0.5, 4));
            let fired: Vec<bool> = (0..64)
                .map(|_| maybe_io_error(&sites::CHECKPOINT_IO).is_err())
                .collect();
            clear_plan();
            fired
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.iter().filter(|&&f| f).count(), 4, "budget caps firings");
    }

    #[test]
    fn unscheduled_sites_stay_quiet() {
        let _guard = serial();
        install_plan(FaultPlan::seeded(5).at_calls(&sites::POOL_QUEUE_FLOOD, &[0]));
        maybe_panic(&sites::EXEC_WORKER_PANIC);
        assert_eq!(delay_requested(&sites::EXEC_BAND_STALL), 0);
        clear_plan();
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
        let _guard = serial();
        let before = telemetry::counter(UNLISTED.injected).get();
        install_plan(FaultPlan::seeded(2).at_calls(&UNLISTED, &[0, 2]));
        let fired = (0..3).filter(|_| should_fail(&UNLISTED)).count();
        clear_plan();
        assert_eq!(fired, 2);
        assert_eq!(telemetry::counter(UNLISTED.injected).get() - before, 2);
    }

    #[test]
    fn injected_panics_carry_the_marker_payload() {
        let _guard = serial();
        install_plan(FaultPlan::seeded(9).at_calls(&sites::EXEC_WORKER_PANIC, &[0]));
        let err = std::panic::catch_unwind(|| maybe_panic(&sites::EXEC_WORKER_PANIC))
            .expect_err("scheduled call must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "{msg}");
        clear_plan();
    }
}
