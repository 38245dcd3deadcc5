//! Seeded schedule perturbation for launch plans.
//!
//! Bands are disjoint by construction (carved with `chunks_mut` /
//! `split_at_mut`), so any claim order is legal and results must not
//! depend on it. Under a non-zero seed ([`set_perturbation`], or the
//! `MEGABLOCKS_PERTURB_SEED` environment variable) a launch's claims map
//! to its bands in a seed-derived shuffled order, and each band of a
//! multi-band launch starts with a short injected stall — the determinism
//! suites run under several seeds and thread counts and demand
//! bit-identical results. Seed 0 disables perturbation.

use crate::setting::Setting;

/// The process-wide schedule-perturbation seed (0 = off):
/// [`set_perturbation`], then `MEGABLOCKS_PERTURB_SEED`, then off.
static PERTURB_SEED: Setting<u64> = Setting::new(Some("MEGABLOCKS_PERTURB_SEED"), || 0);

/// Sets the schedule-perturbation seed (0 disables perturbation),
/// overriding the `MEGABLOCKS_PERTURB_SEED` environment variable. Takes
/// effect for every subsequent multi-band launch in the process.
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

/// The band order perturbation seed `seed` imposes on a launch of
/// `bands` bands — claim `k` runs band `band_order(seed, bands)[k]`: a
/// deterministic Fisher–Yates shuffle of `0..bands`. Seed 0 returns the identity order. Pure — tests use this
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
/// every band of a multi-band launch.
pub(crate) fn stall(band: usize) {
    let seed = perturbation_seed();
    for _ in 0..stall_slots(seed, band) {
        std::thread::yield_now();
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
}
