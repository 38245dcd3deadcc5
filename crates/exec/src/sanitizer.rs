//! Dynamic access-set race sanitizer for launch plans.
//!
//! The static `verify_plan` check proves a plan's declared geometry tiles
//! its output; this module verifies the *empirical* write sets. Under
//! `--features sanitize`, every multi-band launch allocates a shadow
//! [`AccessLog`] with one lock-free slot per band. Each band task records
//! the byte interval of the band slice it was actually handed (plus any
//! extra intervals kernels report through [`record_write`] /
//! [`record_write_span`]); after the launch completes, the submitter
//! sweeps the recorded intervals and asserts
//!
//! 1. **pairwise disjointness** — no byte of the output was written by
//!    two different bands ([`RaceViolation::Overlap`]), and
//! 2. **claim conformance** — every band stayed inside the interval the
//!    plan's geometry claimed for it ([`RaceViolation::ClaimMismatch`]).
//!
//! The per-band slots use interior mutability without locks: band `b`'s
//! task is the only writer of slot `b` (bands are disjoint by
//! construction, like the data they own), and the submitter only reads
//! the slots after the pool's completion rendezvous, which provides the
//! happens-before edge.
//!
//! Because schedule-dependent overlaps may only manifest under specific
//! interleavings, the sanitizer also carries a **seeded
//! schedule-perturbation mode** ([`set_perturbation`], or the
//! `MEGABLOCKS_PERTURB_SEED` environment variable): band tasks are
//! submitted in a seed-derived shuffled order and prefixed with short
//! injected stalls, flushing out order-dependent overlaps that the
//! natural schedule would mask. Seed 0 disables perturbation.
//!
//! Violations surface as [`RaceViolation`] from
//! [`LaunchPlan::try_launch`](crate::LaunchPlan::try_launch); the
//! panicking [`launch`](crate::LaunchPlan::launch) path re-raises them
//! with a message starting with [`RACE_PANIC_PREFIX`], which the
//! fault-tolerant trainer treats as non-retryable (a race does not go
//! away by rerunning the step).
//!
//! Without the `sanitize` feature every hook here compiles to a no-op
//! with an identical signature, so callers never gate their own code.

use std::fmt;

use crate::setting::Setting;

/// Prefix of every panic message raised for a detected race. The
/// fault-tolerant trainer matches on this to classify the panic as
/// non-retryable.
pub const RACE_PANIC_PREFIX: &str = "sanitize: race";

/// A violation detected by the access-set race sanitizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaceViolation {
    /// Two bands recorded overlapping write intervals.
    Overlap {
        /// The op whose launch raced.
        op: &'static str,
        /// Lower-numbered band of the racing pair.
        first_band: usize,
        /// Higher-numbered band of the racing pair.
        second_band: usize,
        /// First overlapping byte (offset into the plan's output).
        start: usize,
        /// One past the last overlapping byte.
        end: usize,
    },
    /// A band recorded a write outside the interval the plan's geometry
    /// claimed for it.
    ClaimMismatch {
        /// The op whose launch misbehaved.
        op: &'static str,
        /// The offending band.
        band: usize,
        /// Claimed byte interval `[start, end)`.
        claimed: (usize, usize),
        /// Recorded byte interval that escapes the claim.
        recorded: (usize, usize),
    },
}

impl fmt::Display for RaceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceViolation::Overlap {
                op,
                first_band,
                second_band,
                start,
                end,
            } => write!(
                f,
                "{RACE_PANIC_PREFIX}: {op} bands {first_band} and {second_band} \
                 both wrote output bytes {start}..{end}"
            ),
            RaceViolation::ClaimMismatch {
                op,
                band,
                claimed,
                recorded,
            } => write!(
                f,
                "{RACE_PANIC_PREFIX}: {op} band {band} wrote output bytes \
                 {}..{} outside its claimed {}..{}",
                recorded.0, recorded.1, claimed.0, claimed.1
            ),
        }
    }
}

impl std::error::Error for RaceViolation {}

/// The process-wide schedule-perturbation seed (0 = off):
/// [`set_perturbation`], then `MEGABLOCKS_PERTURB_SEED`, then off.
static PERTURB_SEED: Setting<u64> = Setting::new(Some("MEGABLOCKS_PERTURB_SEED"), || 0);

/// Sets the schedule-perturbation seed (0 disables perturbation),
/// overriding the `MEGABLOCKS_PERTURB_SEED` environment variable. Takes
/// effect for every subsequent sanitized launch in the process.
pub fn set_perturbation(seed: u64) {
    PERTURB_SEED.set(seed);
}

/// The active schedule-perturbation seed (0 = off).
pub fn perturbation_seed() -> u64 {
    PERTURB_SEED.get()
}

/// splitmix64: the deterministic mixer behind band shuffles and stall
/// injection. Dependency-free and stable across platforms.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The submission order perturbation seed `seed` imposes on a launch of
/// `bands` band tasks: a deterministic Fisher–Yates shuffle of
/// `0..bands`. Seed 0 returns the identity order. Pure — tests use this
/// to find seeds that place one band before another.
pub fn band_order(seed: u64, bands: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..bands).collect();
    if seed == 0 {
        return order;
    }
    let mut state = splitmix64(seed);
    for i in (1..bands).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Number of `yield_now` stalls perturbation seed `seed` injects before
/// band `band` runs (0..=7; 0 for most bands). Pure.
pub fn stall_slots(seed: u64, band: usize) -> u32 {
    if seed == 0 {
        return 0;
    }
    let r = splitmix64(seed ^ splitmix64(band as u64 + 1));
    if r.is_multiple_of(3) {
        (r >> 8) as u32 % 8
    } else {
        0
    }
}

/// Injects the schedule-perturbation stall for band `band`: a short run
/// of scheduler yields derived from the active seed. A no-op when
/// perturbation is off (seed 0). Called by the launch path at the top of
/// every band task.
pub(crate) fn stall(band: usize) {
    let seed = perturbation_seed();
    for _ in 0..stall_slots(seed, band) {
        std::thread::yield_now();
    }
}

/// Shadow race monitor for one multi-band launch. Under
/// `--features sanitize` it owns the launch's [`AccessLog`]; without the
/// feature every method is a no-op and the type is zero-sized, so the
/// launch path never gates its own code.
#[cfg(feature = "sanitize")]
pub(crate) struct Monitor {
    log: active::AccessLog,
}

/// Shadow race monitor for one multi-band launch. Under
/// `--features sanitize` it owns the launch's [`AccessLog`]; without the
/// feature every method is a no-op and the type is zero-sized, so the
/// launch path never gates its own code.
#[cfg(not(feature = "sanitize"))]
pub(crate) struct Monitor {}

/// RAII scope marking the current thread as executing one band of a
/// monitored launch; writes recorded while it lives are attributed to
/// that band. Zero-sized no-op without the `sanitize` feature.
#[cfg(feature = "sanitize")]
pub(crate) struct TaskScope {
    _guard: active::BandGuard,
}

/// RAII scope marking the current thread as executing one band of a
/// monitored launch; writes recorded while it lives are attributed to
/// that band. Zero-sized no-op without the `sanitize` feature.
#[cfg(not(feature = "sanitize"))]
pub(crate) struct TaskScope {}

#[cfg(feature = "sanitize")]
impl Monitor {
    /// Starts monitoring a launch of `data` whose geometry claims the
    /// per-band byte intervals `claims`.
    pub(crate) fn begin(op: &'static str, data: &[f32], claims: Vec<(usize, usize)>) -> Monitor {
        Monitor {
            log: active::AccessLog::new(op, data, claims),
        }
    }

    /// Enters band `band`, auto-recording the band slice the launcher
    /// carved for it. The returned scope must live for the whole band
    /// body so kernel-side [`record_write`] calls attribute correctly.
    pub(crate) fn enter(&self, band: usize, slice: &[f32]) -> TaskScope {
        self.log.record_band(band, slice);
        TaskScope {
            _guard: active::BandGuard::enter(&self.log, band),
        }
    }

    /// Sweeps the recorded write sets after the launch completed.
    pub(crate) fn finish(self) -> Result<(), RaceViolation> {
        self.log.check()
    }
}

#[cfg(not(feature = "sanitize"))]
impl Monitor {
    /// Starts monitoring a launch of `data` whose geometry claims the
    /// per-band byte intervals `claims`.
    pub(crate) fn begin(op: &'static str, data: &[f32], claims: Vec<(usize, usize)>) -> Monitor {
        let _ = (op, data, claims);
        Monitor {}
    }

    /// Enters band `band`, auto-recording the band slice the launcher
    /// carved for it. The returned scope must live for the whole band
    /// body so kernel-side [`record_write`] calls attribute correctly.
    pub(crate) fn enter(&self, band: usize, slice: &[f32]) -> TaskScope {
        let _ = (band, slice);
        TaskScope {}
    }

    /// Sweeps the recorded write sets after the launch completed.
    pub(crate) fn finish(self) -> Result<(), RaceViolation> {
        Ok(())
    }
}

#[cfg(feature = "sanitize")]
use active::record_write_impl;

/// Records that the current band task wrote the given slice. A no-op
/// outside a sanitized multi-band launch, or when the slice does not lie
/// inside the launch's output. Without the `sanitize` feature this
/// compiles to nothing.
#[cfg(feature = "sanitize")]
pub fn record_write(slice: &[f32]) {
    record_write_impl(Some(slice), None);
}

/// Records that the current band task wrote the given slice. A no-op
/// outside a sanitized multi-band launch, or when the slice does not lie
/// inside the launch's output. Without the `sanitize` feature this
/// compiles to nothing.
#[cfg(not(feature = "sanitize"))]
#[inline(always)]
pub fn record_write(slice: &[f32]) {
    let _ = slice;
}

/// Records that the current band task wrote `len_floats` output floats
/// starting at float index `start_float` of the launch's output slice.
/// Used by kernels whose write sets are derived from metadata rather
/// than a contiguous subslice, and by the race test suites to seed
/// deliberate overlaps. A no-op outside a sanitized multi-band launch.
/// Without the `sanitize` feature this compiles to nothing.
#[cfg(feature = "sanitize")]
pub fn record_write_span(start_float: usize, len_floats: usize) {
    record_write_impl(None, Some((start_float, len_floats)));
}

/// Records that the current band task wrote `len_floats` output floats
/// starting at float index `start_float` of the launch's output slice.
/// Used by kernels whose write sets are derived from metadata rather
/// than a contiguous subslice, and by the race test suites to seed
/// deliberate overlaps. A no-op outside a sanitized multi-band launch.
/// Without the `sanitize` feature this compiles to nothing.
#[cfg(not(feature = "sanitize"))]
#[inline(always)]
pub fn record_write_span(start_float: usize, len_floats: usize) {
    let _ = (start_float, len_floats);
}

#[cfg(feature = "sanitize")]
mod active {
    use std::cell::{RefCell, UnsafeCell};

    use super::RaceViolation;

    /// One band's recorded write intervals (byte offsets into the plan's
    /// output). Interior-mutable without a lock — see the SAFETY
    /// discussion on [`AccessLog`].
    struct Slot(UnsafeCell<Vec<(usize, usize)>>);

    // SAFETY: a Slot is shared across threads only through AccessLog,
    // whose access protocol guarantees exclusive mutation — band b's task
    // is the sole writer of slot b while the launch runs, and the
    // submitter reads the slots only after the pool's completion
    // rendezvous (a happens-before edge via the launch-state mutex and
    // condvar). No two threads ever touch the same slot concurrently.
    unsafe impl Sync for Slot {}

    /// Shadow write-set log for one sanitized launch: one slot per band
    /// plus the byte intervals the plan's geometry claims per band.
    pub(crate) struct AccessLog {
        op: &'static str,
        /// Base address of the output slice, as an integer (used only for
        /// offset arithmetic, never dereferenced).
        base: usize,
        /// Output length in bytes.
        total_bytes: usize,
        /// Per-band claimed byte intervals `[start, end)`.
        claims: Vec<(usize, usize)>,
        slots: Vec<Slot>,
    }

    thread_local! {
        /// Stack of (log address, band index) for launches this thread is
        /// currently executing a band of. A stack because nested launches
        /// (a band body launching a sub-plan inline) must attribute
        /// writes to the innermost active band.
        static ACTIVE: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
    }

    impl AccessLog {
        /// A log for one launch of `data` split into the claimed byte
        /// intervals `claims` (one per band).
        pub(crate) fn new(op: &'static str, data: &[f32], claims: Vec<(usize, usize)>) -> Self {
            let slots = (0..claims.len())
                .map(|_| Slot(UnsafeCell::new(Vec::new())))
                .collect();
            AccessLog {
                op,
                base: data.as_ptr() as usize,
                total_bytes: std::mem::size_of_val(data),
                claims,
                slots,
            }
        }

        /// Appends a byte interval to `band`'s slot.
        ///
        /// Caller contract (upheld by [`BandGuard`] + the pool's
        /// completion protocol): only the thread currently running band
        /// `band`'s task calls this, and never concurrently with
        /// [`AccessLog::check`].
        fn record(&self, band: usize, start: usize, end: usize) {
            if start >= end {
                return;
            }
            // SAFETY: exclusive access per the Slot protocol above — band
            // `band`'s task is the only writer of this slot, and the
            // submitter's read in `check` happens only after the launch's
            // completion rendezvous.
            let intervals = unsafe { &mut *self.slots[band].0.get() };
            intervals.push((start, end));
        }

        /// Records the contiguous band slice handed to band `band`, by
        /// pointer offset from the output base.
        pub(crate) fn record_band(&self, band: usize, slice: &[f32]) {
            let start = (slice.as_ptr() as usize).wrapping_sub(self.base);
            if start > self.total_bytes {
                return; // not our output (foreign scratch)
            }
            self.record(band, start, start + std::mem::size_of_val(slice));
        }

        /// Sweeps the recorded intervals: pairwise disjointness across
        /// bands first (the headline race), then per-band claim
        /// conformance.
        pub(crate) fn check(&self) -> Result<(), RaceViolation> {
            let mut all: Vec<(usize, usize, usize)> = Vec::new();
            for (band, slot) in self.slots.iter().enumerate() {
                // SAFETY: the launch completed — every band task finished
                // before `check` runs (the pool blocks the submitter on
                // the completion condvar), so no writer is live and the
                // submitter may read every slot.
                let intervals = unsafe { &*slot.0.get() };
                for &(s, e) in intervals {
                    all.push((s, e, band));
                }
            }
            all.sort_unstable();
            // Sweep with the running farthest end seen so far. Comparing
            // only adjacent intervals would miss an overlap hidden behind
            // a same-band interval that reaches farther; tracking the max
            // end and its band catches the first cross-band overlap in
            // every case (if the max is same-band, the true culprit pair
            // was already adjacent earlier in the sweep).
            let mut max_end = 0usize;
            let mut max_band = usize::MAX;
            for &(s, e, b) in &all {
                if s < max_end && b != max_band {
                    let (first, second) = if max_band < b {
                        (max_band, b)
                    } else {
                        (b, max_band)
                    };
                    return Err(RaceViolation::Overlap {
                        op: self.op,
                        first_band: first,
                        second_band: second,
                        start: s,
                        end: e.min(max_end),
                    });
                }
                if e > max_end {
                    max_end = e;
                    max_band = b;
                }
            }
            for (band, slot) in self.slots.iter().enumerate() {
                // SAFETY: as above — the launch completed, no live
                // writers remain, reading is race-free.
                let intervals = unsafe { &*slot.0.get() };
                let (cs, ce) = self.claims[band];
                for &(s, e) in intervals {
                    if s < cs || e > ce {
                        return Err(RaceViolation::ClaimMismatch {
                            op: self.op,
                            band,
                            claimed: (cs, ce),
                            recorded: (s, e),
                        });
                    }
                }
            }
            Ok(())
        }
    }

    /// RAII marker: the current thread is executing band `band` of `log`.
    /// Pushed before the band body runs and popped on drop — including
    /// the unwind path when the body panics, so a poisoned band can never
    /// leak its attribution onto a worker's next task.
    pub(crate) struct BandGuard;

    impl BandGuard {
        pub(crate) fn enter(log: &AccessLog, band: usize) -> BandGuard {
            ACTIVE.with(|a| {
                a.borrow_mut()
                    .push((log as *const AccessLog as usize, band));
            });
            BandGuard
        }
    }

    impl Drop for BandGuard {
        fn drop(&mut self) {
            ACTIVE.with(|a| {
                a.borrow_mut().pop();
            });
        }
    }

    /// Shared body of [`super::record_write`] / [`super::record_write_span`]:
    /// resolves the innermost active (log, band) for this thread and
    /// appends the interval.
    pub(crate) fn record_write_impl(slice: Option<&[f32]>, span: Option<(usize, usize)>) {
        ACTIVE.with(|a| {
            let Some(&(log_addr, band)) = a.borrow().last() else {
                return;
            };
            // SAFETY: the (log, band) pair was pushed by a live BandGuard
            // on this thread, and the guard's scope is strictly inside
            // the submitter's launch call, which keeps the AccessLog
            // alive on its stack until every band task has finished.
            let log = unsafe { &*(log_addr as *const AccessLog) };
            if let Some(s) = slice {
                log.record_band(band, s);
            }
            if let Some((start_float, len_floats)) = span {
                log.record(band, start_float * 4, (start_float + len_floats) * 4);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_order_is_deterministic_and_permutes() {
        let a = band_order(42, 8);
        let b = band_order(42, 8);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert_eq!(band_order(0, 5), vec![0, 1, 2, 3, 4]);
        // Different seeds give different orders for reasonable sizes.
        assert_ne!(band_order(1, 16), band_order(2, 16));
    }

    #[test]
    fn stall_slots_zero_without_seed() {
        for band in 0..16 {
            assert_eq!(stall_slots(0, band), 0);
        }
    }

    #[test]
    fn violation_messages_carry_the_panic_prefix() {
        let v = RaceViolation::Overlap {
            op: "sdd",
            first_band: 0,
            second_band: 3,
            start: 96,
            end: 128,
        };
        assert!(v.to_string().starts_with(RACE_PANIC_PREFIX));
        let c = RaceViolation::ClaimMismatch {
            op: "sdd",
            band: 2,
            claimed: (0, 64),
            recorded: (0, 96),
        };
        assert!(c.to_string().starts_with(RACE_PANIC_PREFIX));
    }

    #[cfg(feature = "sanitize")]
    mod active {
        use super::super::active::AccessLog;
        use super::super::RaceViolation;

        #[test]
        fn clean_log_passes() {
            let data = vec![0.0f32; 8];
            let log = AccessLog::new("t", &data, vec![(0, 16), (16, 32)]);
            log.record_band(0, &data[0..4]);
            log.record_band(1, &data[4..8]);
            assert!(log.check().is_ok());
        }

        #[test]
        fn overlap_is_reported_with_both_bands() {
            let data = vec![0.0f32; 8];
            let log = AccessLog::new("t", &data, vec![(0, 16), (16, 32)]);
            log.record_band(0, &data[0..4]);
            log.record_band(1, &data[2..8]); // overlaps floats 2..4
            match log.check() {
                Err(RaceViolation::Overlap {
                    first_band,
                    second_band,
                    start,
                    end,
                    ..
                }) => {
                    assert_eq!((first_band, second_band), (0, 1));
                    assert_eq!((start, end), (8, 16));
                }
                other => panic!("expected overlap, got {other:?}"),
            }
        }

        #[test]
        fn claim_escape_is_reported() {
            let data = vec![0.0f32; 8];
            let log = AccessLog::new("t", &data, vec![(0, 16), (16, 32)]);
            log.record_band(0, &data[0..6]); // escapes its 0..16 claim
            match log.check() {
                Err(RaceViolation::ClaimMismatch { band, .. }) => assert_eq!(band, 0),
                other => panic!("expected claim mismatch, got {other:?}"),
            }
        }

        #[test]
        fn foreign_slices_are_ignored() {
            let data = vec![0.0f32; 8];
            let scratch = [0.0f32; 8];
            let log = AccessLog::new("t", &data, vec![(0, 16), (16, 32)]);
            log.record_band(0, &scratch[0..8]);
            assert!(log.check().is_ok());
        }
    }
}
