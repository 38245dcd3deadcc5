//! Every band runs exactly once under contention: four submitters share
//! a two-worker pool, so workers and submitters race to claim the same
//! launches' bands, and stale handles of finished launches sit in the
//! queue between them.
//!
//! Alone in its binary: it pins the process's pool to two workers.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::thread;
use std::time::{Duration, Instant};

use megablocks_exec::{configure_threads, pool, LaunchPlan};

#[test]
fn every_band_runs_once_with_four_submitters_on_three_threads() {
    const SUBMITTERS: usize = 4;
    const LAUNCHES: usize = 200;
    configure_threads(3);
    assert_eq!(pool().workers(), 2);
    #[allow(
        clippy::disallowed_methods,
        reason = "several submitters must launch at once from outside the pool"
    )]
    thread::scope(|s| {
        for submitter in 0..SUBMITTERS {
            s.spawn(move || {
                for launch in 0..LAUNCHES {
                    let bands = 2 + (submitter + launch) % 7;
                    let runs: Vec<AtomicUsize> = (0..bands).map(|_| AtomicUsize::new(0)).collect();
                    let body = |_: &mut [f32], band: usize| {
                        runs[band].fetch_add(1, Relaxed);
                    };
                    let mut data = vec![0.0f32; bands];
                    LaunchPlan::over_items("test.claim.once", &mut data, 1, 1, &body).launch();
                    let runs: Vec<usize> = runs.iter().map(|r| r.load(Relaxed)).collect();
                    assert_eq!(
                        runs,
                        vec![1; bands],
                        "submitter {submitter}, launch {launch}"
                    );
                }
            });
        }
    });
    // Workers drop the handles of finished launches as they pop them.
    let settle = Instant::now() + Duration::from_secs(30);
    while (pool().queue_depth() > 0 || pool().busy_workers() > 0) && Instant::now() < settle {
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(pool().queue_depth(), 0, "queue mirror must drain to zero");
    assert_eq!(pool().busy_workers(), 0, "busy mirror must drain to zero");
}
