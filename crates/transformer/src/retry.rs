//! Bounded exponential-backoff retry: the policy the trainer's step loop
//! and its checkpoint writer back off by.

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
    /// Upper bound on a single backoff sleep.
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// A small default: 3 retries, 10 ms base, 500 ms cap.
    pub fn default_transient() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
        }
    }

    /// `max_retries` retries with no sleeping — for tests and for faults
    /// where waiting buys nothing (deterministic in-process retries).
    pub fn immediate(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The backoff before the `attempt`-th retry (0-based):
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
}

/// Runs `f` until it succeeds or the policy is exhausted, sleeping the
/// policy's backoff between attempts. Each retry increments
/// the `resilience.retries` counter (labelled by `op`); a success after
/// at least one retry counts as a recovery on the caller's site.
///
/// # Errors
///
/// Returns the *last* error once `policy.max_retries` retries have been
/// spent.
pub(crate) fn run_with_retry<T, E>(
    policy: &RetryPolicy,
    op: &'static str,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let mut attempt = 0u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < policy.max_retries => {
                telemetry::counter_with("resilience.retries", op).inc();
                let delay = policy.backoff(attempt);
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
        };
        for attempt in [1, 2, 16, 31, 32, 33, 64, 1000, u32::MAX] {
            assert_eq!(
                p.backoff(attempt),
                Duration::from_secs(3),
                "attempt {attempt}"
            );
        }
    }
}
