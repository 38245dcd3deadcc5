//! Bounded exponential-backoff retry, shared by the checkpoint writer
//! and the fault-tolerant trainer loop.

use std::time::Duration;

use megablocks_telemetry as telemetry;

/// Retry policy: how many times to retry and how long to back off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Backoff before retry `k` is `base_delay * 2^k`, capped at
    /// [`RetryPolicy::max_delay`].
    pub base_delay: Duration,
    /// Upper bound on a single backoff sleep (before jitter).
    pub max_delay: Duration,
    /// Jitter amplitude as a percent of the computed backoff, in
    /// `0..=100`: retry `k` sleeps `backoff(k)` stretched by up to
    /// ±`jitter_pct`%, which desynchronizes retry storms when many
    /// callers back off from the same fault. The offset is derived from a
    /// hash of the op name and attempt index, so runs stay reproducible.
    pub jitter_pct: u32,
}

impl RetryPolicy {
    /// A small default: 3 retries, 10 ms base, 500 ms cap, 20% jitter.
    pub fn default_transient() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter_pct: 20,
        }
    }

    /// `max_retries` retries with no sleeping — for tests and for faults
    /// where waiting buys nothing (deterministic in-process retries).
    pub fn immediate(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_pct: 0,
        }
    }

    /// The same policy with a different jitter amplitude (clamped to
    /// `0..=100`).
    pub fn with_jitter(mut self, jitter_pct: u32) -> Self {
        self.jitter_pct = jitter_pct.min(100);
        self
    }

    /// The backoff before the `attempt`-th retry (0-based, jitter-free):
    /// exponential in `attempt` and capped at [`RetryPolicy::max_delay`].
    ///
    /// Every step saturates instead of wrapping: `2^attempt` exceeds
    /// `u32` past attempt 31 (`checked_shl` → the all-ones factor) and
    /// `base_delay * factor` can exceed `Duration` (`checked_mul` → the
    /// cap directly), so arbitrarily high attempt counts pin to
    /// `max_delay` rather than overflowing back to tiny sleeps.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_delay
            .checked_mul(factor)
            .map_or(self.max_delay, |d| d.min(self.max_delay))
    }

    /// The backoff before the `attempt`-th retry with the policy's
    /// deterministic jitter applied: `backoff(attempt)` scaled by a
    /// hash-derived factor in `[1 - jitter_pct%, 1 + jitter_pct%]`. The
    /// same `(salt, attempt)` pair always yields the same sleep.
    pub fn backoff_jittered(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.backoff(attempt);
        let pct = u64::from(self.jitter_pct.min(100));
        if pct == 0 || base.is_zero() {
            return base;
        }
        // Offset in [-pct, +pct], uniform over 2*pct + 1 integer points.
        let h = splitmix(salt ^ (u64::from(attempt) << 32));
        let offset = (h % (2 * pct + 1)) as i64 - pct as i64;
        let nanos = u64::try_from(base.as_nanos()).unwrap_or(u64::MAX);
        let delta = nanos / 100 * offset.unsigned_abs();
        let jittered = if offset < 0 {
            nanos.saturating_sub(delta)
        } else {
            nanos.saturating_add(delta)
        };
        Duration::from_nanos(jittered)
    }
}

/// SplitMix64 finalizer — the same mixer the fault plan uses for its
/// injection decisions, so jitter is deterministic across platforms.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the op name: the per-op jitter salt.
fn op_salt(op: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in op.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `f` until it succeeds or the policy is exhausted, sleeping the
/// policy's (jittered) backoff between attempts. Each retry increments
/// the `resilience.retries` counter (labelled by `op`); a success after
/// at least one retry counts as a recovery on the caller's site.
///
/// # Errors
///
/// Returns the *last* error once `policy.max_retries` retries have been
/// spent.
pub fn run_with_retry<T, E>(
    policy: &RetryPolicy,
    op: &'static str,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let salt = op_salt(op);
    let mut attempt = 0u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < policy.max_retries => {
                telemetry::counter_with("resilience.retries", op).inc();
                let delay = policy.backoff_jittered(attempt, salt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                attempt += 1;
                drop(e);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_after_transient_failures() {
        let mut calls = 0;
        let out = run_with_retry(&RetryPolicy::immediate(5), "test", || {
            calls += 1;
            if calls < 3 {
                Err("transient")
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));
    }

    #[test]
    fn gives_up_after_the_budget_with_the_last_error() {
        let mut calls = 0;
        let out: Result<(), String> = run_with_retry(&RetryPolicy::immediate(2), "test", || {
            calls += 1;
            Err(format!("attempt {calls}"))
        });
        assert_eq!(calls, 3, "1 attempt + 2 retries");
        assert_eq!(out.unwrap_err(), "attempt 3");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(60),
            jitter_pct: 0,
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(60), "capped");
        assert_eq!(p.backoff(31), Duration::from_millis(60), "huge attempt");
        assert_eq!(p.backoff(32), Duration::from_millis(60), "shift overflow");
    }

    #[test]
    fn backoff_saturates_at_the_cap_for_every_high_attempt() {
        // The saturation pin: past the overflow points (factor overflow
        // at 32, Duration overflow well before that with a large base)
        // every attempt must return exactly the cap — never a wrapped,
        // tiny, or panicking value.
        let p = RetryPolicy {
            max_retries: u32::MAX,
            base_delay: Duration::from_secs(u64::MAX / 4),
            max_delay: Duration::from_secs(3),
            jitter_pct: 0,
        };
        for attempt in [1, 2, 16, 31, 32, 33, 64, 1000, u32::MAX] {
            assert_eq!(
                p.backoff(attempt),
                Duration::from_secs(3),
                "attempt {attempt}"
            );
        }
    }

    #[test]
    fn jitter_stays_inside_its_bounds_and_is_deterministic() {
        let p = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(400),
            jitter_pct: 25,
        };
        let mut saw_nonzero_offset = false;
        for attempt in 0..64 {
            let base = p.backoff(attempt);
            let lo = base.mul_f64(0.75);
            let hi = base.mul_f64(1.25);
            for salt in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                let j = p.backoff_jittered(attempt, salt);
                assert!(
                    j >= lo && j <= hi,
                    "attempt {attempt} salt {salt}: {j:?} outside [{lo:?}, {hi:?}]"
                );
                assert_eq!(
                    j,
                    p.backoff_jittered(attempt, salt),
                    "jitter must be deterministic"
                );
                saw_nonzero_offset |= j != base;
            }
        }
        assert!(
            saw_nonzero_offset,
            "jitter must actually perturb some sleeps"
        );
    }

    #[test]
    fn zero_jitter_and_zero_base_are_exact() {
        let p = RetryPolicy::immediate(3);
        assert_eq!(p.backoff_jittered(0, 42), Duration::ZERO);
        let q = RetryPolicy::default_transient().with_jitter(0);
        for attempt in 0..8 {
            assert_eq!(q.backoff_jittered(attempt, 7), q.backoff(attempt));
        }
    }
}
