//! A busy worker does not hold up a launch: the submitter claims every
//! band nobody else has started, so it never waits on a band that sits
//! queued behind a worker stuck in another launch.
//!
//! Alone in its binary: it pins the process's pool to one worker.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use megablocks_exec::{configure_threads, pool, LaunchPlan};

#[test]
fn a_launch_runs_on_its_submitter_while_the_only_worker_is_busy() {
    configure_threads(2);
    assert_eq!(pool().workers(), 1);
    let (release, held) = mpsc::channel::<()>();
    let held = Mutex::new(held);
    let entered = AtomicBool::new(false);
    let released = AtomicBool::new(false);
    #[allow(
        clippy::disallowed_methods,
        reason = "a second submitter must occupy the worker from outside the pool"
    )]
    thread::scope(|s| {
        s.spawn(|| {
            // The band on this thread holds until the worker has entered
            // the other, which then blocks until the main thread releases
            // it. Threads, not band indices, pick the roles: a
            // perturbation seed may hand either band to either thread.
            let body = |_: &mut [f32], _: usize| {
                let on_worker = thread::current()
                    .name()
                    .is_some_and(|name| name.starts_with("megablocks-exec"));
                if !on_worker {
                    while !entered.load(SeqCst) {
                        thread::yield_now();
                    }
                } else {
                    entered.store(true, SeqCst);
                    let held = held.lock().expect("one holder");
                    let _ = held.recv_timeout(Duration::from_secs(5));
                    released.store(true, SeqCst);
                }
            };
            let mut data = vec![0.0f32; 2];
            LaunchPlan::over_items("test.busy.hold", &mut data, 1, 1, &body).launch();
        });
        while !entered.load(SeqCst) {
            thread::yield_now();
        }

        let ran_on: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        let body = |_: &mut [f32], _: usize| {
            ran_on
                .lock()
                .expect("no band panics")
                .push(thread::current().id());
        };
        let mut data = vec![0.0f32; 4];
        let start = Instant::now();
        LaunchPlan::over_items("test.busy.free", &mut data, 1, 1, &body).launch();
        let elapsed = start.elapsed();
        let worker_was_released = released.load(SeqCst);
        release.send(()).expect("the held band is still waiting");

        let ran_on = ran_on.into_inner().expect("no band panics");
        let main = thread::current().id();
        assert_eq!(ran_on, vec![main; 4], "every band ran on the submitter");
        assert!(
            !worker_was_released,
            "the launch waited {elapsed:?}, until the busy worker was released"
        );
    });
}
