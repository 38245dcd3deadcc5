//! Schedule perturbation reaches the launch path.
//!
//! The test pins the pool to one thread (`configure_threads(1)` → zero
//! workers → tasks run inline in submission order), so the shuffled
//! submission order *is* the execution order. It sets the process-wide
//! thread count and perturbation seed, so it is the only test in this
//! binary.

use std::sync::Mutex;

use megablocks_exec::{band_order, configure_threads, set_perturbation, LaunchPlan};

#[test]
fn bands_execute_in_the_seeded_order_and_in_identity_order_at_zero() {
    const BANDS: usize = 6;
    configure_threads(1);
    let executed = |seed: u64| {
        set_perturbation(seed);
        let order = Mutex::new(Vec::new());
        let body = |_band: &mut [f32], band: usize| {
            order.lock().expect("no band panics").push(band);
        };
        let mut out = vec![0.0f32; BANDS];
        LaunchPlan::over_items("perturb.order", &mut out, 1, 1, &body).launch();
        set_perturbation(0);
        order.into_inner().expect("no band panics")
    };

    assert_eq!(executed(0), (0..BANDS).collect::<Vec<_>>());
    let seed = (1..=64)
        .find(|&s| band_order(s, BANDS) != band_order(0, BANDS))
        .expect("some small seed shuffles six bands");
    assert_eq!(executed(seed), band_order(seed, BANDS));
}
