//! Cooperative cancellation, deadlines, and execution contexts.
//!
//! A [`CancelToken`] is a cheap shared flag (one relaxed atomic load to
//! poll) that marks in-flight work as abandoned; [`Deadline`] is a fixed
//! point in time after which work should stop. Both travel together in a
//! [`Ctx`], which a [`crate::LaunchPlan`] inherits from the submitting
//! thread's ambient context (installed with [`enter`]). Every band
//! re-installs the context on whichever thread runs it, so the tiled
//! microkernel's panel loop can poll [`poll_cancelled`] without any
//! plumbing through the kernel signatures. The same context carries the
//! [`crate::fault::FaultPlan`] in force, so a plan reaches every band of
//! every launch made under it, and no other.
//!
//! Cancellation is *cooperative*: nothing preempts a running band.
//! Instead the runtime checks the context at band boundaries and inside
//! the packed-panel loop, so an abandoned launch unwinds within one
//! panel's worth of work per in-flight band and skips every band that
//! has not started. The launch then ends with a structured
//! [`ExecError::Cancelled`] / [`ExecError::DeadlineExceeded`] instead of
//! running to completion: [`crate::LaunchPlan::launch`] unwinds with it
//! as the panic payload, and the code that entered the context catches
//! it by type (`catch_unwind`, then `downcast::<ExecError>()`).
//!
//! Tokens are hierarchical: [`CancelToken::child`] makes a token that
//! trips when either it *or any ancestor* is cancelled, so a trainer can
//! hold one root token and hand independent sub-tokens to each step.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::ActivePlan;

/// Why in-flight work was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelKind {
    /// An explicit [`CancelToken::cancel`] (or an ancestor's).
    Cancelled,
    /// A [`Deadline`] expired.
    DeadlineExceeded,
    /// The pool's bounded admission shed the launch under overload.
    Overloaded,
}

impl CancelKind {
    /// Short label used for `exec.cancelled` / `exec.shed` counters.
    pub fn label(self) -> &'static str {
        match self {
            CancelKind::Cancelled => "cancelled",
            CancelKind::DeadlineExceeded => "deadline",
            CancelKind::Overloaded => "overloaded",
        }
    }
}

struct TokenInner {
    cancelled: AtomicBool,
    parent: Option<Arc<TokenInner>>,
}

/// A shared cancellation flag. Cloning shares the flag; use
/// [`CancelToken::child`] for a token that also observes this one.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A fresh, live token with no ancestors.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                parent: None,
            }),
        }
    }

    /// A child token: cancelled when it *or any ancestor* is cancelled,
    /// while cancelling the child leaves the parent (and siblings) live.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Marks the token cancelled. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Relaxed);
    }

    /// [`CancelKind::Cancelled`] once this token or an ancestor was
    /// cancelled. A token never reads a deadline: expiry comes from the
    /// [`Deadline`] beside it in a [`Ctx`].
    pub fn kind(&self) -> Option<CancelKind> {
        let mut node = Some(&self.inner);
        while let Some(inner) = node {
            if inner.cancelled.load(Relaxed) {
                return Some(CancelKind::Cancelled);
            }
            node = inner.parent.as_ref();
        }
        None
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("kind", &self.kind())
            .finish()
    }
}

/// A fixed point in time after which work should stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            at: Instant::now() + budget,
        }
    }

    /// A deadline at an explicit instant.
    pub fn at(at: Instant) -> Self {
        Deadline { at }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before the deadline (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// The context a launch runs under: a cancel token and a deadline, and
/// the fault plan in force. Empty by default ([`Ctx::none`]) — and an
/// empty context costs nothing: every poll short-circuits on a `None`
/// check.
#[derive(Debug, Clone, Default)]
pub struct Ctx {
    token: Option<CancelToken>,
    deadline: Option<Deadline>,
    plan: Option<Arc<ActivePlan>>,
}

impl Ctx {
    /// The empty context: no token, no deadline, no fault plan.
    pub fn none() -> Self {
        Ctx::default()
    }

    /// Adds (a clone of) a cancel token to the context.
    pub fn with_token(mut self, token: &CancelToken) -> Self {
        self.token = Some(token.clone());
        self
    }

    /// Adds a deadline to the context.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub(crate) fn with_plan(mut self, plan: Arc<ActivePlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The context's cancel token, if any.
    pub fn token(&self) -> Option<&CancelToken> {
        self.token.as_ref()
    }

    /// The context's deadline, if any.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// Whether the context carries neither token nor deadline. Its fault
    /// plan does not count: a plan never makes work latency-bound.
    pub fn is_empty(&self) -> bool {
        self.token.is_none() && self.deadline.is_none()
    }

    /// This context without its token and deadline: only its fault plan.
    /// It is what [`detach`] leaves in force, and what a queued request
    /// records so the work another thread does for it runs under the
    /// plan of its submitter.
    pub fn detached(&self) -> Ctx {
        Ctx {
            plan: self.plan.clone(),
            ..Ctx::none()
        }
    }

    /// Why work under this context should stop, if it should: a tripped
    /// token wins over an expired deadline (it fired first).
    pub fn status(&self) -> Option<CancelKind> {
        if let Some(token) = &self.token {
            if let Some(kind) = token.kind() {
                return Some(kind);
            }
        }
        match &self.deadline {
            Some(d) if d.expired() => Some(CancelKind::DeadlineExceeded),
            _ => None,
        }
    }
}

thread_local! {
    /// The ambient context of the current thread: installed by [`enter`]
    /// on submitters and re-installed per band on workers.
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// RAII guard restoring the previous ambient context on drop.
pub struct CtxScope {
    /// `None` when [`enter`] was a no-op (empty context).
    prev: Option<Option<Ctx>>,
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Installs `ctx` as the current thread's ambient context until the
/// returned guard drops. Every launch plan inherits the ambient context,
/// so one `enter` at (say) the trainer step covers every nested kernel
/// launch.
///
/// The context has two parts, each kept from the outer context when
/// `ctx` lacks it: a token and deadline (kept when `ctx` has neither),
/// and a fault plan. So wrappers can unconditionally enter their
/// optional context without masking an outer deadline, and a step's
/// deadline does not hide the plan a drill entered around it. Entering
/// the empty context is a no-op.
pub fn enter(ctx: &Ctx) -> CtxScope {
    if ctx.is_empty() && ctx.plan.is_none() {
        return CtxScope { prev: None };
    }
    let prev = CURRENT.with(|c| {
        let mut current = c.borrow_mut();
        let mut next = ctx.clone();
        if let Some(outer) = current.as_ref() {
            if next.is_empty() {
                next.token.clone_from(&outer.token);
                next.deadline = outer.deadline;
            }
            if next.plan.is_none() {
                next.plan.clone_from(&outer.plan);
            }
        }
        current.replace(next)
    });
    CtxScope { prev: Some(prev) }
}

/// Removes the current thread's token and deadline until the returned
/// guard drops, so launches in between cannot be cancelled — for work
/// that must not stop half-done once it starts (an optimizer update
/// mutates weights in place; a deadline that cut it short would leave
/// them half-updated). The fault plan stays in force. [`enter`] cannot
/// do this: entering an empty context keeps the outer one.
pub fn detach() -> CtxScope {
    let prev = CURRENT.with(|c| {
        let mut current = c.borrow_mut();
        let detached = current.as_ref().map(Ctx::detached);
        std::mem::replace(&mut *current, detached)
    });
    CtxScope { prev: Some(prev) }
}

/// The current thread's ambient context (empty if none installed).
pub fn current() -> Ctx {
    CURRENT.with(|c| c.borrow().clone().unwrap_or_default())
}

/// The fault plan in force on the current thread, if one was entered.
pub(crate) fn ambient_plan() -> Option<Arc<ActivePlan>> {
    CURRENT.with(|c| c.borrow().as_ref()?.plan.clone())
}

/// Cooperative cancellation point: whether the ambient context wants the
/// current work abandoned. With no ambient context installed this is one
/// thread-local read — cheap enough for kernel panel loops.
pub fn poll_cancelled() -> bool {
    CURRENT.with(|c| match &*c.borrow() {
        Some(ctx) => ctx.status().is_some(),
        None => false,
    })
}

/// Why a launch did not run to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The context's cancel token (or an ancestor) was cancelled.
    Cancelled {
        /// The launching op.
        op: &'static str,
    },
    /// The context's deadline passed.
    DeadlineExceeded {
        /// The launching op.
        op: &'static str,
    },
    /// The pool's bounded admission shed the launch (queue at cap) and
    /// the context was latency-bound, so degrading inline was wrong.
    Overloaded {
        /// The launching op.
        op: &'static str,
    },
}

impl ExecError {
    /// The abort kind upper layers classify retryability by.
    pub fn kind(&self) -> CancelKind {
        match self {
            ExecError::Cancelled { .. } => CancelKind::Cancelled,
            ExecError::DeadlineExceeded { .. } => CancelKind::DeadlineExceeded,
            ExecError::Overloaded { .. } => CancelKind::Overloaded,
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Cancelled { op } => {
                write!(f, "{op} abandoned at a cancellation point")
            }
            ExecError::DeadlineExceeded { op } => write!(f, "{op} exceeded its deadline"),
            ExecError::Overloaded { op } => write!(f, "{op} shed at the pool queue cap"),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancel_is_sticky_and_typed() {
        let token = CancelToken::new();
        assert_eq!(token.kind(), None);
        token.cancel();
        assert_eq!(token.kind(), Some(CancelKind::Cancelled));
        // A second cancel changes nothing.
        token.cancel();
        assert_eq!(token.kind(), Some(CancelKind::Cancelled));
    }

    #[test]
    fn child_tokens_observe_ancestors_not_vice_versa() {
        let root = CancelToken::new();
        let child = root.child();
        let grandchild = child.child();
        child.cancel();
        assert!(root.kind().is_none(), "cancel must not propagate upward");
        assert!(
            grandchild.kind().is_some(),
            "cancel must propagate downward"
        );
        assert_eq!(grandchild.kind(), Some(CancelKind::Cancelled));
    }

    #[test]
    fn deadline_expiry_and_ctx_status() {
        let live = Ctx::none().with_deadline(Deadline::after(Duration::from_secs(3600)));
        assert_eq!(live.status(), None);
        let expired = Ctx::none().with_deadline(Deadline::after(Duration::ZERO));
        assert_eq!(expired.status(), Some(CancelKind::DeadlineExceeded));
        assert_eq!(
            expired.deadline().map(|d| d.remaining()),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn ambient_scopes_nest_and_restore() {
        assert!(!poll_cancelled(), "no ambient context installed");
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let outer = Ctx::none().with_token(&cancelled);
        {
            let _outer = enter(&outer);
            assert!(poll_cancelled());
            {
                // Empty contexts do not mask the outer scope.
                let _noop = enter(&Ctx::none());
                assert!(poll_cancelled());
                // A live inner context does replace it.
                let _inner = enter(&Ctx::none().with_token(&CancelToken::new()));
                assert!(!poll_cancelled());
            }
            assert!(poll_cancelled(), "inner scope must restore on drop");
            {
                // `detach` does mask it, and restores it on drop.
                let _detached = detach();
                assert!(!poll_cancelled());
                assert!(current().is_empty());
            }
            assert_eq!(current().status(), Some(CancelKind::Cancelled));
        }
        assert!(!poll_cancelled(), "outer scope must restore on drop");
    }
}
