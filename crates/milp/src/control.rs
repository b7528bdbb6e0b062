//! Execution control for long-running solves: cooperative cancellation,
//! unified deadlines, and progress observation.
//!
//! A MILP solve can run for minutes; a service answering many refinement
//! requests needs three things the search's own limits (the
//! [`SolverOptions::max_nodes`] node limit and a fixed per-LP pivot cap) do
//! not give it:
//!
//! * **Cancellation** — a [`CancelToken`] shared with other threads. The
//!   branch-and-bound node loop and the simplex pivot loops poll it
//!   cooperatively (every node, and every 64 pivots inside one LP), so a
//!   cancelled solve returns within a few pivots carrying its best incumbent
//!   and complete statistics under [`SolveStatus::Interrupted`].
//! * **A deadline** — one wall-clock budget ([`SolveControl::with_time_limit`])
//!   or absolute cut-off ([`SolveControl::with_deadline`]) honored by *every*
//!   backend the same way. It is the only wall-clock limit: exceeding it
//!   yields [`SolveStatus::Interrupted`]. Only the node limit, and an LP
//!   the search had to drop as unreliable (pivot cap reached, numerical
//!   trouble), end a solve `Feasible` or `LimitReached`.
//! * **Progress** — a [`SolveObserver`] receiving incumbent / node / bound
//!   events from the branch-and-bound loop, enabling anytime and streaming
//!   consumption of a running solve (including cancelling it from inside a
//!   callback once an answer is good enough).
//!
//! [`SolveControl`] bundles all three and is `Send + Sync + Clone`, so one
//! control can govern a whole batch of solves across worker threads.
//!
//! ```
//! use qr_milp::prelude::*;
//! use qr_milp::control::{CancelToken, SolveControl};
//!
//! let mut model = Model::new("doc");
//! let x = model.add_binary("x");
//! model.set_objective(LinExpr::term(x, 1.0));
//!
//! let token = CancelToken::new();
//! let control = SolveControl::new().with_cancel_token(token.clone());
//! // Another thread could call `token.cancel()` at any time...
//! let solution = Solver::default().solve_with_control(&model, &control).unwrap();
//! assert_eq!(solution.status, SolveStatus::Optimal); // finished before any cancel
//! ```
//!
//! [`SolverOptions::max_nodes`]: crate::branch_bound::SolverOptions::max_nodes
//! [`SolveStatus::Interrupted`]: crate::solution::SolveStatus::Interrupted

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cooperative cancellation flag.
///
/// Cloning the token shares the underlying flag: cancelling any clone
/// cancels them all. Solvers poll the token at node and pivot granularity,
/// so cancellation latency is bounded by a few simplex pivots.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CancelToken")
            .field(&self.is_cancelled())
            .finish()
    }
}

/// Snapshot of a running solve handed to every [`SolveObserver`] callback.
#[derive(Debug, Clone)]
pub struct SolveProgress {
    /// Branch-and-bound nodes processed so far.
    pub nodes: usize,
    /// LP relaxations solved so far.
    pub lp_solves: usize,
    /// Total simplex pivots so far.
    pub simplex_iterations: usize,
    /// Objective of the best incumbent found so far, if any.
    pub incumbent_objective: Option<f64>,
    /// Best proven lower (dual) bound on the objective.
    pub best_bound: f64,
}

/// Observer of branch-and-bound progress events.
///
/// Callbacks run synchronously inside the solve loop on whichever thread
/// drives it, and take `&self` — implementations that accumulate state use
/// interior mutability (atomics or a mutex) and must stay cheap. All methods
/// default to no-ops, so an observer implements only the events it cares
/// about. Pair an observer with a [`CancelToken`] to stop a solve from a
/// callback (anytime consumption):
///
/// ```
/// use qr_milp::control::{CancelToken, SolveObserver, SolveProgress};
///
/// /// Cancels the solve as soon as any incumbent exists.
/// struct FirstAnswer(CancelToken);
/// impl SolveObserver for FirstAnswer {
///     fn incumbent_found(&self, _progress: &SolveProgress) {
///         self.0.cancel();
///     }
/// }
/// ```
pub trait SolveObserver: Send + Sync {
    /// A new best incumbent was found (`progress.incumbent_objective` holds
    /// its objective).
    fn incumbent_found(&self, _progress: &SolveProgress) {}

    /// A branch-and-bound node was processed (fires for pruned nodes too).
    fn node_processed(&self, _progress: &SolveProgress) {}

    /// The proven dual bound improved (`progress.best_bound`).
    fn bound_improved(&self, _progress: &SolveProgress) {}
}

/// Execution control for one solve (or a batch of them): cooperative
/// cancellation, a deadline, and an optional progress observer. See the
/// [module docs](self).
#[derive(Clone, Default)]
pub struct SolveControl {
    time_limit: Option<Duration>,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    observer: Option<Arc<dyn SolveObserver>>,
}

impl SolveControl {
    /// A control with no deadline, no cancellation and no observer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the solve's wall-clock time, measured from when the solve
    /// starts. Exceeding it ends the solve with
    /// [`SolveStatus::Interrupted`](crate::solution::SolveStatus::Interrupted),
    /// best incumbent and statistics intact.
    ///
    /// Budgets **compose by tightening**: if a time limit is already set,
    /// the smaller of the two is kept, and a relative limit combined with an
    /// absolute [`with_deadline`](Self::with_deadline) resolves to whichever
    /// stop comes first (see [`deadline_from`](Self::deadline_from)). A
    /// layered caller — e.g. a server folding a per-connection budget into a
    /// request that already carries its own deadline — can therefore never
    /// accidentally *loosen* a stop that an earlier layer imposed.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(self.time_limit.map_or(limit, |prior| prior.min(limit)));
        self
    }

    /// Bound the solve by an absolute point in time (useful to share one
    /// cut-off across a batch of solves). Combined with
    /// [`with_time_limit`](Self::with_time_limit), the earlier of the two
    /// applies; combined with an already-set deadline, the earlier deadline
    /// is kept (tightening composition, like
    /// [`with_time_limit`](Self::with_time_limit)).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(self.deadline.map_or(deadline, |prior| prior.min(deadline)));
        self
    }

    /// Attach a cancellation token (keep a clone to cancel from elsewhere).
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attach a progress observer.
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<dyn SolveObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The configured relative time limit, if any.
    pub fn time_limit(&self) -> Option<Duration> {
        self.time_limit
    }

    /// The progress observer, if one is attached.
    pub fn observer(&self) -> Option<&dyn SolveObserver> {
        self.observer.as_deref()
    }

    /// Whether cancellation has been requested on the attached token.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The effective absolute deadline for a solve starting at `start`: the
    /// earlier of the relative time limit and the absolute deadline.
    pub fn deadline_from(&self, start: Instant) -> Option<Instant> {
        let relative = self.time_limit.map(|limit| start + limit);
        match (relative, self.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Resolve this control into the per-solve [`StopCondition`] polled by
    /// the simplex pivot loops, for a solve starting at `start`.
    pub fn stop_condition(&self, start: Instant) -> StopCondition {
        StopCondition {
            deadline: self.deadline_from(start),
            cancel: self.cancel.clone(),
        }
    }
}

// Manual impl: `dyn SolveObserver` is not Debug, so report its presence.
impl fmt::Debug for SolveControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveControl")
            .field("time_limit", &self.time_limit)
            .field("deadline", &self.deadline)
            .field("cancelled", &self.is_cancelled())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

/// A resolved, per-solve stop signal: an absolute deadline plus a cancel
/// token. This is what the inner simplex loops poll (every 64 pivots) — an
/// atomic load plus, on the polling stride, one clock read.
#[derive(Clone, Debug, Default)]
pub struct StopCondition {
    /// Absolute cut-off, if any.
    pub deadline: Option<Instant>,
    /// Cancellation flag, if any.
    pub cancel: Option<CancelToken>,
}

impl StopCondition {
    /// A condition that never triggers.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Whether the solve should stop now (cancelled or past the deadline).
    pub fn should_stop(&self) -> bool {
        self.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() > d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled() && !clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled() && clone.is_cancelled());
        assert!(format!("{token:?}").contains("true"));
    }

    #[test]
    fn deadline_resolution_takes_the_earlier_cutoff() {
        let start = Instant::now();
        let none = SolveControl::new();
        assert!(none.deadline_from(start).is_none());

        let relative = SolveControl::new().with_time_limit(Duration::from_secs(10));
        assert_eq!(
            relative.deadline_from(start),
            Some(start + Duration::from_secs(10))
        );

        let absolute = start + Duration::from_secs(5);
        let both = relative.with_deadline(absolute);
        assert_eq!(both.deadline_from(start), Some(absolute));
        assert_eq!(both.stop_condition(start).deadline, Some(absolute));
    }

    #[test]
    fn builders_tighten_and_never_loosen() {
        let start = Instant::now();
        // A later limit cannot displace an earlier one...
        let control = SolveControl::new()
            .with_time_limit(Duration::from_secs(1))
            .with_time_limit(Duration::from_secs(60));
        assert_eq!(control.time_limit(), Some(Duration::from_secs(1)));
        // ... and a tighter one wins regardless of call order.
        let control = SolveControl::new()
            .with_time_limit(Duration::from_secs(60))
            .with_time_limit(Duration::from_secs(1));
        assert_eq!(control.time_limit(), Some(Duration::from_secs(1)));

        let near = start + Duration::from_secs(2);
        let far = start + Duration::from_secs(90);
        let control = SolveControl::new().with_deadline(near).with_deadline(far);
        assert_eq!(control.deadline_from(start), Some(near));
        let control = SolveControl::new().with_deadline(far).with_deadline(near);
        assert_eq!(control.deadline_from(start), Some(near));
    }

    #[test]
    fn stop_condition_triggers_on_cancel_and_deadline() {
        let token = CancelToken::new();
        let stop = StopCondition {
            deadline: None,
            cancel: Some(token.clone()),
        };
        assert!(!stop.should_stop());
        token.cancel();
        assert!(stop.should_stop());

        let expired = SolveControl::new()
            .with_deadline(Instant::now() - Duration::from_millis(1))
            .stop_condition(Instant::now());
        assert!(expired.should_stop());
        assert!(!expired.is_cancelled());
        assert!(!StopCondition::none().should_stop());
    }

    #[test]
    fn observers_default_to_noops() {
        struct Silent;
        impl SolveObserver for Silent {}
        let progress = SolveProgress {
            nodes: 1,
            lp_solves: 1,
            simplex_iterations: 3,
            incumbent_objective: None,
            best_bound: f64::NEG_INFINITY,
        };
        let control = SolveControl::new().with_observer(Arc::new(Silent));
        let observer = control.observer().expect("observer attached");
        observer.incumbent_found(&progress);
        observer.node_processed(&progress);
        observer.bound_improved(&progress);
        assert!(format!("{control:?}").contains("observer: true"));
    }
}
