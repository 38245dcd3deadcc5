//! One process-wide runtime setting.
//!
//! Every knob the runtime has — the thread count, the perturbation seed,
//! the queue-cap request — is an integer and resolves the same way: a
//! programmatic request wins over the environment variable, which wins
//! over the default. It fails the same way too: a variable that is set but
//! does not parse panics at first use, naming the variable and the
//! rejected text. A typo must not silently run another configuration.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// A process-wide integer: [`Setting::set`] > environment variable >
/// default. Meant to live in a `static`; reads are two atomic loads.
pub(crate) struct Setting {
    var: Option<&'static str>,
    default: fn() -> u64,
    requested: AtomicU64,
    is_requested: AtomicBool,
    /// Environment-or-default, read once per process.
    fallback: OnceLock<u64>,
}

impl Setting {
    /// A setting read from environment variable `var` (if any), falling
    /// back to `default()`.
    pub(crate) const fn new(var: Option<&'static str>, default: fn() -> u64) -> Self {
        Setting {
            var,
            default,
            requested: AtomicU64::new(0),
            is_requested: AtomicBool::new(false),
            fallback: OnceLock::new(),
        }
    }

    /// Requests `value`, overriding the environment and the default for
    /// every later [`Setting::get`]. Returns the value in effect before.
    ///
    /// # Panics
    ///
    /// As [`Setting::get`].
    pub(crate) fn set(&self, value: u64) -> u64 {
        let previous = self.get();
        self.requested.store(value, Ordering::Relaxed);
        // Release/Acquire on the flag publishes the word stored above.
        self.is_requested.store(true, Ordering::Release);
        previous
    }

    /// The value in effect.
    ///
    /// # Panics
    ///
    /// Panics if nothing was requested and the environment variable is
    /// set to text that does not parse.
    pub(crate) fn get(&self) -> u64 {
        if self.is_requested.load(Ordering::Acquire) {
            return self.requested.load(Ordering::Relaxed);
        }
        *self.fallback.get_or_init(|| {
            let from_env = self.var.and_then(|var| {
                let raw = std::env::var_os(var)?;
                Some(parse_env(var, &raw.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")))
            });
            from_env.unwrap_or_else(self.default)
        })
    }
}

/// The value environment variable `var` holds as `text`, or a message
/// naming the variable and the rejected text.
fn parse_env(var: &str, text: &str) -> Result<u64, String> {
    text.trim()
        .parse()
        .map_err(|_| format!("{var}={text:?} is not valid (expected a non-negative integer)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unparsable_environment_text_is_rejected_by_name() {
        assert_eq!(parse_env("MEGABLOCKS_THREADS", " 4\n"), Ok(4));
        assert_eq!(parse_env("MEGABLOCKS_PERTURB_SEED", "0"), Ok(0));
        for text in ["abc", "", "-1", "1.5"] {
            let err = parse_env("MEGABLOCKS_THREADS", text).unwrap_err();
            assert!(err.contains("MEGABLOCKS_THREADS"), "{err}");
            assert!(err.contains(&format!("{text:?}")), "{err}");
        }
        let err = parse_env("MEGABLOCKS_PERTURB_SEED", "x").unwrap_err();
        assert!(err.contains("MEGABLOCKS_PERTURB_SEED=\"x\""), "{err}");
    }

    #[test]
    fn a_request_wins_over_the_default_and_reports_what_it_replaced() {
        static SETTING: Setting = Setting::new(None, || 7);
        assert_eq!(SETTING.get(), 7);
        assert_eq!(SETTING.set(0), 7);
        assert_eq!(SETTING.get(), 0);
        assert_eq!(SETTING.set(9), 0);
        assert_eq!(SETTING.get(), 9);
    }
}
