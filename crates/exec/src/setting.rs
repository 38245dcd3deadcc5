//! One process-wide runtime setting.
//!
//! Every knob the workspace exposes resolves the same way — a
//! programmatic request wins over the environment variable, which wins
//! over the default — and fails the same way: a variable that is set but
//! does not parse panics at first use, naming the variable and the
//! rejected text. A typo must not silently run another configuration.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// A value a [`Setting`] can hold: parsed from an environment variable
/// and stored in one atomic word (reads sit on kernel hot paths).
pub trait SettingValue: Copy {
    /// What a valid value looks like, for the rejection message.
    const EXPECTED: &'static str;

    /// Parses the text of the environment variable.
    fn parse(text: &str) -> Option<Self>;

    /// The value as an atomic word.
    fn to_bits(self) -> u64;

    /// Inverse of [`SettingValue::to_bits`].
    fn from_bits(bits: u64) -> Self;
}

impl SettingValue for usize {
    const EXPECTED: &'static str = "a non-negative integer";

    fn parse(text: &str) -> Option<Self> {
        text.trim().parse().ok()
    }

    fn to_bits(self) -> u64 {
        self as u64
    }

    fn from_bits(bits: u64) -> Self {
        // Only ever fed words `to_bits` produced from a `usize`.
        bits as usize
    }
}

impl SettingValue for u64 {
    const EXPECTED: &'static str = "a non-negative integer";

    fn parse(text: &str) -> Option<Self> {
        text.trim().parse().ok()
    }

    fn to_bits(self) -> u64 {
        self
    }

    fn from_bits(bits: u64) -> Self {
        bits
    }
}

/// A process-wide setting: [`Setting::set`] > environment variable >
/// default. Meant to live in a `static`.
pub struct Setting<T> {
    var: Option<&'static str>,
    default: fn() -> T,
    requested: AtomicU64,
    is_requested: AtomicBool,
    /// Environment-or-default, read once per process.
    fallback: OnceLock<T>,
}

impl<T: SettingValue> Setting<T> {
    /// A setting read from environment variable `var` (if any), falling
    /// back to `default()`.
    pub const fn new(var: Option<&'static str>, default: fn() -> T) -> Self {
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
    pub fn set(&self, value: T) -> T {
        let previous = self.get();
        self.requested.store(value.to_bits(), Ordering::Relaxed);
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
    pub fn get(&self) -> T {
        if self.is_requested.load(Ordering::Acquire) {
            return T::from_bits(self.requested.load(Ordering::Relaxed));
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
fn parse_env<T: SettingValue>(var: &str, text: &str) -> Result<T, String> {
    T::parse(text).ok_or_else(|| format!("{var}={text:?} is not valid (expected {})", T::EXPECTED))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unparsable_environment_text_is_rejected_by_name() {
        assert_eq!(parse_env::<usize>("MEGABLOCKS_THREADS", " 4\n"), Ok(4));
        assert_eq!(parse_env::<u64>("MEGABLOCKS_PERTURB_SEED", "0"), Ok(0));
        for text in ["abc", "", "-1", "1.5"] {
            let err = parse_env::<usize>("MEGABLOCKS_THREADS", text).unwrap_err();
            assert!(err.contains("MEGABLOCKS_THREADS"), "{err}");
            assert!(err.contains(&format!("{text:?}")), "{err}");
        }
        let err = parse_env::<u64>("MEGABLOCKS_PERTURB_SEED", "x").unwrap_err();
        assert!(err.contains("MEGABLOCKS_PERTURB_SEED=\"x\""), "{err}");
    }

    #[test]
    fn a_request_wins_over_the_default_and_reports_what_it_replaced() {
        static SETTING: Setting<usize> = Setting::new(None, || 7);
        assert_eq!(SETTING.get(), 7);
        assert_eq!(SETTING.set(0), 7);
        assert_eq!(SETTING.get(), 0);
        assert_eq!(SETTING.set(9), 0);
        assert_eq!(SETTING.get(), 9);
    }
}
