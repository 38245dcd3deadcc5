//! Reusable kernel workspaces.
//!
//! Every kernel in the workspace produces a freshly sized `f32` buffer
//! (sparse outputs, dense outputs, permutation targets, weight-gradient
//! scratch). Allocating those from the global allocator on every call
//! wastes the very launch latency the pool saves, so the runtime keeps a
//! per-thread arena: [`take_zeroed`] and [`take_copy`] hand out a shelved
//! buffer when one of sufficient capacity is there, wrapped in a
//! [`Buffer`] that puts it back on the shelf when it is dropped. Within a
//! training step the same few buffers then ping-pong between kernels
//! instead of round-tripping through `malloc`.
//!
//! Two rules keep the arena from hoarding:
//!
//! * **Only what the arena handed out goes back.** A [`Buffer`] made
//!   from a plain `Vec` (weights, gradients, a request's tokens) is freed
//!   on drop like any `Vec`.
//! * **Only to the thread that took it.** The arena is thread-local, so
//!   pool workers and the submitting thread each reuse their own buffers
//!   without locking. A buffer dropped on another thread, during thread
//!   teardown, or while its arena is borrowed is freed instead, and
//!   counted in `exec.workspace.strays`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, DerefMut};

use megablocks_telemetry as telemetry;

/// Upper bound on floats a thread's arena will hold before it starts
/// dropping returned buffers (64 MiB of `f32`s) — a backstop against
/// pathological workloads hoarding memory.
const CAP_FLOATS: usize = 16 << 20;

/// A size-bucketed arena of reusable `f32` buffers; one per thread.
#[derive(Debug, Default)]
struct Workspace {
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
    /// An empty buffer with room for `len` floats: the smallest shelved
    /// one whose capacity suffices, else a fresh one.
    fn take(&mut self, len: usize) -> Vec<f32> {
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
            Vec::with_capacity(len.next_power_of_two())
        }
    }

    /// Shelves `buf` for reuse (dropped instead if it has no capacity or
    /// would take the arena past its 16M-float holding limit).
    fn put(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 || self.held_floats + cap > CAP_FLOATS {
            return;
        }
        self.held_floats += cap;
        self.shelves.entry(cap).or_default().push(buf);
    }

    fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            hits: self.hits,
            misses: self.misses,
            held_buffers: self.shelves.values().map(Vec::len).sum(),
            held_floats: self.held_floats,
        }
    }

    fn clear(&mut self) {
        self.shelves.clear();
        self.held_floats = 0;
    }
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// The identity of a thread's arena: its address, unique among live
/// threads.
fn arena_id(arena: &RefCell<Workspace>) -> usize {
    std::ptr::from_ref(arena) as usize
}

/// `f32` storage: a plain allocation, or a buffer the calling
/// thread's arena handed out ([`take_zeroed`], [`take_copy`]), which
/// goes back to that arena when dropped on the thread that took it and
/// is freed anywhere else. A clone is always plain.
#[derive(Default)]
pub struct Buffer {
    data: Vec<f32>,
    /// The arena that handed the buffer out ([`arena_id`]); `None` if
    /// plain.
    home: Option<usize>,
}

impl From<Vec<f32>> for Buffer {
    /// A plain buffer: freed on drop.
    fn from(data: Vec<f32>) -> Self {
        Buffer { data, home: None }
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        let Some(home) = self.home else {
            return;
        };
        let data = std::mem::take(&mut self.data);
        // Another thread's buffer, a torn-down arena or a borrowed one is
        // freed with the closure.
        let shelved = WORKSPACE.try_with(|arena| {
            let ws = arena.try_borrow_mut().ok();
            ws.filter(|_| arena_id(arena) == home)
                .map(|mut ws| ws.put(data))
        });
        if !matches!(shelved, Ok(Some(()))) {
            telemetry::counter("exec.workspace.strays").inc();
        }
    }
}

impl Deref for Buffer {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl DerefMut for Buffer {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Self {
        Buffer::from(self.data.clone())
    }
}

impl PartialEq for Buffer {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl fmt::Debug for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.data.fmt(f)
    }
}

/// A buffer of `len` floats from the current thread's arena, filled by
/// `fill` from empty.
fn take(len: usize, fill: impl FnOnce(&mut Vec<f32>)) -> Buffer {
    WORKSPACE.with(|arena| {
        let mut data = arena.borrow_mut().take(len);
        fill(&mut data);
        Buffer {
            data,
            home: Some(arena_id(arena)),
        }
    })
}

/// A zeroed buffer of `len` floats from the current thread's arena.
pub fn take_zeroed(len: usize) -> Buffer {
    take(len, |data| data.resize(len, 0.0))
}

/// A copy of `src` in a buffer from the current thread's arena, written
/// once (no zero-fill first).
pub fn take_copy(src: &[f32]) -> Buffer {
    take(src.len(), |data| data.extend_from_slice(src))
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

    fn strays() -> u64 {
        telemetry::counter("exec.workspace.strays").get()
    }

    // Each test runs on its own thread, so the thread-local arena starts
    // empty.

    #[test]
    fn reuse_is_a_hit_and_buffers_are_zeroed() {
        let mut a = take_zeroed(16);
        a.iter_mut().for_each(|v| *v = 7.0);
        let cap = a.data.capacity();
        drop(a);
        assert_eq!(stats().held_buffers, 1, "a dropped buffer goes back");

        let b = take_zeroed(10);
        assert!(b.data.capacity() >= 10 && b.data.capacity() <= cap.max(10));
        assert!(b.iter().all(|&v| v == 0.0), "reused buffer not zeroed");
        let s = stats();
        assert_eq!((s.hits, s.misses, s.held_buffers), (1, 1, 0));

        drop(b);
        let c = take_copy(&[1.0, 2.0, 3.0]);
        assert_eq!(&c[..], &[1.0, 2.0, 3.0]);
        assert_eq!(stats().hits, 2, "a copy reuses a shelved buffer too");
    }

    #[test]
    fn a_miss_reserves_its_power_of_two_class() {
        let a = take_zeroed(40);
        assert_eq!((a.len(), a.data.capacity()), (40, 64));
        drop(a);
        let b = take_zeroed(64);
        assert_eq!(b.len(), 64);
        assert_eq!(stats().hits, 1, "a grown request within the class hits");
    }

    #[test]
    fn only_what_the_arena_handed_out_goes_back() {
        let pooled = take_zeroed(8);
        let plain = Buffer::from(vec![1.0; 32]);
        let copy = pooled.clone();
        drop((plain, copy));
        assert_eq!(
            stats().held_buffers,
            0,
            "plain and cloned buffers are freed"
        );
        drop(pooled);
        assert_eq!(stats().held_buffers, 1);
    }

    #[test]
    fn a_buffer_dropped_while_its_arena_is_borrowed_is_a_stray() {
        let buf = take_zeroed(8);
        let before = strays();
        WORKSPACE.with(|w| {
            let _held = w.borrow();
            drop(buf);
        });
        assert_eq!(strays() - before, 1);
        assert_eq!(stats().held_buffers, 0);
    }

    #[test]
    fn undersized_shelves_are_skipped() {
        let mut ws = Workspace::default();
        ws.put(Vec::with_capacity(4));
        let b = ws.take(64);
        assert!(b.capacity() >= 64);
        assert_eq!(ws.stats().misses, 1);
        assert_eq!(ws.stats().held_buffers, 1, "small buffer stays shelved");
    }

    #[test]
    fn clear_empties_the_arena() {
        drop(take_zeroed(8));
        clear();
        let s = stats();
        assert_eq!((s.held_buffers, s.held_floats), (0, 0));
    }

    #[test]
    fn the_holding_cap_bounds_shelving() {
        let mut ws = Workspace::default();
        // Reserved, never touched: no memory is committed for these.
        ws.put(Vec::with_capacity(CAP_FLOATS - 8));
        assert_eq!(ws.stats().held_buffers, 1, "under the cap: shelved");
        ws.put(Vec::with_capacity(16));
        assert_eq!(ws.stats().held_buffers, 1, "over the cap: dropped");
        ws.put(Vec::with_capacity(8));
        assert_eq!(ws.stats().held_buffers, 2, "exactly at the cap: shelved");
    }
}
