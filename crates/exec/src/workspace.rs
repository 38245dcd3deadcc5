//! Reusable kernel workspaces.
//!
//! Every kernel in the workspace produces a freshly sized `f32` buffer
//! (sparse outputs, dense outputs, permutation targets, weight-gradient
//! scratch). Allocating those from the global allocator on every call
//! wastes the very launch latency the pool saves, so the runtime keeps a
//! per-thread [`Workspace`] arena: [`take_zeroed`] hands out a recycled
//! buffer when one of sufficient capacity is shelved, and call sites
//! return short-lived buffers with [`recycle`] once their contents died
//! (e.g. a weight gradient after it has been accumulated). Within a
//! training step the same few buffers then ping-pong between kernels
//! instead of round-tripping through `malloc`.
//!
//! The arena is thread-local, so pool workers and the submitting thread
//! each reuse their own buffers without any locking; a buffer recycled
//! on a worker serves that worker's next allocation.

use std::cell::RefCell;
use std::collections::BTreeMap;

use megablocks_telemetry as telemetry;

/// Upper bound on floats a thread's arena will hold before it starts
/// dropping recycled buffers (64 MiB of `f32`s) — a backstop against
/// pathological workloads hoarding memory.
const CAP_FLOATS: usize = 16 << 20;

/// A size-bucketed arena of reusable `f32` buffers.
///
/// Normally used through the thread-local instance via [`take_zeroed`] /
/// [`recycle`]; owning one directly is useful in tests.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Shelved buffers keyed by capacity (each key holds a stack).
    shelves: BTreeMap<usize, Vec<Vec<f32>>>,
    held_floats: usize,
    hits: u64,
    misses: u64,
}

/// Counters describing one thread's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// Allocations served from a shelved buffer.
    pub hits: u64,
    /// Allocations that fell through to the global allocator.
    pub misses: u64,
    /// Buffers currently shelved.
    pub held_buffers: usize,
    /// Total floats currently shelved.
    pub held_floats: usize,
}

impl Workspace {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A zeroed buffer of exactly `len` floats, reusing the smallest
    /// shelved buffer whose capacity suffices.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let shelf = self
            .shelves
            .range_mut(len..)
            .next()
            .map(|(&cap, stack)| (cap, stack.pop()));
        if let Some((cap, Some(mut buf))) = shelf {
            if self.shelves.get(&cap).is_some_and(Vec::is_empty) {
                self.shelves.remove(&cap);
            }
            self.held_floats -= buf.capacity();
            buf.clear();
            buf.resize(len, 0.0);
            self.hits += 1;
            telemetry::counter("exec.workspace.hits").inc();
            telemetry::trace_counter_event("exec.workspace.hits", self.hits as f64);
            buf
        } else {
            self.misses += 1;
            telemetry::counter("exec.workspace.misses").inc();
            // A miss is the interesting event on a timeline: it marks a
            // cold allocation inside a step that should be steady-state.
            telemetry::trace_instant("exec.workspace.miss");
            telemetry::trace_counter_event("exec.workspace.misses", self.misses as f64);
            // A fresh buffer's capacity is its power-of-two size class, so
            // one that grows a little from one step to the next (a dMoE's,
            // whose padded rows follow the routing) is still a hit.
            let mut buf = Vec::with_capacity(len.next_power_of_two());
            buf.resize(len, 0.0);
            buf
        }
    }

    /// Shelves `buf` for reuse (dropped instead if it has no capacity or
    /// would take the arena past its 16M-float holding limit).
    pub fn recycle(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 || self.held_floats + cap > CAP_FLOATS {
            return;
        }
        self.held_floats += cap;
        self.shelves.entry(cap).or_default().push(buf);
    }

    /// Counters describing the arena.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            hits: self.hits,
            misses: self.misses,
            held_buffers: self.shelves.values().map(Vec::len).sum(),
            held_floats: self.held_floats,
        }
    }

    /// Drops every shelved buffer (counters are kept).
    pub fn clear(&mut self) {
        self.shelves.clear();
        self.held_floats = 0;
    }
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// A zeroed buffer of `len` floats from the current thread's arena.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    WORKSPACE.with(|w| w.borrow_mut().take_zeroed(len))
}

/// Returns a buffer to the current thread's arena for reuse.
pub fn recycle(buf: Vec<f32>) {
    WORKSPACE.with(|w| w.borrow_mut().recycle(buf));
}

/// Counters for the current thread's arena.
pub fn stats() -> WorkspaceStats {
    WORKSPACE.with(|w| w.borrow().stats())
}

/// Drops every buffer shelved on the current thread.
pub fn clear() {
    WORKSPACE.with(|w| w.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_is_a_hit_and_buffers_are_zeroed() {
        let mut ws = Workspace::new();
        let mut a = ws.take_zeroed(16);
        a.iter_mut().for_each(|v| *v = 7.0);
        let cap = a.capacity();
        ws.recycle(a);
        assert_eq!(ws.stats().held_buffers, 1);

        let b = ws.take_zeroed(10);
        assert!(b.capacity() >= 10 && b.capacity() <= cap.max(10));
        assert!(b.iter().all(|&v| v == 0.0), "recycled buffer not zeroed");
        let s = ws.stats();
        assert_eq!((s.hits, s.misses, s.held_buffers), (1, 1, 0));
    }

    #[test]
    fn a_miss_reserves_its_power_of_two_class() {
        let mut ws = Workspace::new();
        let a = ws.take_zeroed(40);
        assert_eq!((a.len(), a.capacity()), (40, 64));
        ws.recycle(a);
        let b = ws.take_zeroed(64);
        assert_eq!(b.len(), 64);
        assert_eq!(ws.stats().hits, 1, "a grown request within the class hits");
    }

    #[test]
    fn undersized_shelves_are_skipped() {
        let mut ws = Workspace::new();
        ws.recycle(Vec::with_capacity(4));
        let b = ws.take_zeroed(64);
        assert_eq!(b.len(), 64);
        assert_eq!(ws.stats().misses, 1);
        assert_eq!(ws.stats().held_buffers, 1, "small buffer stays shelved");
    }

    #[test]
    fn clear_empties_the_arena() {
        let mut ws = Workspace::new();
        ws.recycle(vec![0.0; 8]);
        ws.clear();
        let s = ws.stats();
        assert_eq!((s.held_buffers, s.held_floats), (0, 0));
    }

    #[test]
    fn the_holding_cap_bounds_shelving() {
        let mut ws = Workspace::new();
        // Reserved, never touched: no memory is committed for these.
        ws.recycle(Vec::with_capacity(CAP_FLOATS - 8));
        assert_eq!(ws.stats().held_buffers, 1, "under the cap: shelved");
        ws.recycle(Vec::with_capacity(16));
        assert_eq!(ws.stats().held_buffers, 1, "over the cap: dropped");
        ws.recycle(Vec::with_capacity(8));
        assert_eq!(ws.stats().held_buffers, 2, "exactly at the cap: shelved");
    }
}
