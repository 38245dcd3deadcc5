//! A pooled matrix goes back to the workspace arena that handed it out
//! when it is dropped — also while a panic unwinds — and only there: one
//! dropped on another thread, or after its thread's arena was torn down,
//! is freed and counted as a stray. The stray counter is process-wide, so
//! every test in this binary holds one lock.

use std::cell::RefCell;
use std::panic::catch_unwind;
use std::sync::{Mutex, MutexGuard};

use megablocks_exec::workspace;
use megablocks_telemetry as telemetry;
use megablocks_tensor::{pooled_matmul, Matrix, Trans};

fn strays_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn strays() -> u64 {
    telemetry::counter("exec.workspace.strays").get()
}

/// Runs `f` on a thread of its own, through that thread's teardown.
fn on_a_new_thread(f: impl FnOnce() + Send + 'static) {
    #[allow(
        clippy::disallowed_methods,
        reason = "the test needs a second thread and that thread's teardown"
    )]
    let thread = std::thread::spawn(f);
    thread.join().expect("the thread did not panic");
}

#[test]
fn a_panic_gives_back_every_pooled_matrix_it_unwinds() {
    let _lock = strays_lock();
    let (before, strayed) = (workspace::stats(), strays());
    let unwound = catch_unwind(|| {
        let a = Matrix::pooled_zeros(8, 8);
        let b = a.pooled_copy();
        let _c = pooled_matmul(&a, Trans::N, &b, Trans::T);
        panic!("a fault while three pooled matrices are live");
    });
    assert!(unwound.is_err());
    let after = workspace::stats();
    assert!(after.misses > before.misses, "the closure took no buffer");
    assert_eq!(
        (after.held_buffers - before.held_buffers) as u64,
        after.misses - before.misses,
        "every buffer the unwound code took is shelved again"
    );
    assert_eq!(strays(), strayed);
}

#[test]
fn a_pooled_matrix_dropped_on_another_thread_is_freed_there() {
    let _lock = strays_lock();
    let m = Matrix::pooled_zeros(16, 16);
    let (home, strayed) = (workspace::stats(), strays());
    on_a_new_thread(move || {
        drop(m);
        assert_eq!(workspace::stats().held_buffers, 0, "not shelved here");
    });
    assert_eq!(strays() - strayed, 1);
    assert_eq!(workspace::stats(), home, "the home arena is unchanged");
}

#[test]
fn a_pooled_matrix_outliving_its_arena_is_freed_at_teardown() {
    thread_local! {
        static HELD: RefCell<Option<Matrix>> = const { RefCell::new(None) };
    }
    let _lock = strays_lock();
    let strayed = strays();
    on_a_new_thread(|| {
        // Reached first, so torn down after the arena the matrix comes
        // from.
        HELD.with(|_| {});
        let m = Matrix::pooled_zeros(4, 4);
        HELD.with(|held| *held.borrow_mut() = Some(m));
    });
    assert_eq!(strays() - strayed, 1, "freed as a stray, without a panic");
}
