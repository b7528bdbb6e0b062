//! Unified algorithm dispatch: one trait, four backends.
//!
//! The paper compares the MILP engine (with and without the Section 4
//! optimizations) against two exhaustive baselines (`Naive`, `Naive+prov`)
//! and the Erica-style whole-output baseline (Section 5.3). Each is a
//! [`RefinementSolver`] — [`MilpSolver`], [`NaiveSolver`] in either mode and
//! [`EricaSolver`] — and [`RefinementSession::solve_with`] is the one entry
//! point for all of them. Every backend describes its answer through the
//! session and maps its search onto one
//! [`RefinementOutcome`](crate::session::RefinementOutcome), so all four
//! report a refinement, a proof of infeasibility or an interruption the same
//! way, and benchmarks, examples and tests select algorithms uniformly:
//!
//! ```
//! use qr_core::paper_example::{paper_database, scholarship_constraints, scholarship_query};
//! use qr_core::prelude::*;
//!
//! let session = RefinementSession::new(paper_database(), scholarship_query()).unwrap();
//! let request = RefinementRequest::new()
//!     .with_constraints(scholarship_constraints())
//!     .with_epsilon(0.0);
//! let backends: Vec<Box<dyn RefinementSolver>> = vec![
//!     Box::new(MilpSolver),
//!     Box::new(NaiveSolver::new(NaiveMode::Provenance)),
//! ];
//! for backend in &backends {
//!     let result = session.solve_with(backend.as_ref(), &request).unwrap();
//!     let refined = result.outcome.refined().expect("a refinement exists");
//!     assert!((refined.distance - 0.5).abs() < 1e-6, "{}", backend.label(&request));
//! }
//! ```

use crate::error::Result;
use crate::session::{RefinementRequest, RefinementResult, RefinementSession};

pub use crate::erica::EricaSolver;
pub use crate::naive::NaiveSolver;

/// An algorithm that can answer a [`RefinementRequest`] against a prepared
/// [`RefinementSession`], returning the common [`RefinementResult`].
///
/// Implementations must not re-annotate: the annotated relation inside the
/// session's current [`snapshot`](RefinementSession::snapshot) is the
/// shared, already-paid setup. A backend must pin **one** snapshot at the
/// start of a solve and use it throughout, so a concurrent
/// [`apply`](RefinementSession::apply) cannot change its answer mid-flight.
///
/// The `Send + Sync` supertraits are the concurrency contract: a backend can
/// be shared by reference across threads that call
/// [`RefinementSession::solve_with`] concurrently, so any internal state
/// must be immutable or synchronized. Implementations must also honor the
/// request's [`SolveControl`](qr_milp::control::SolveControl) — its unified
/// deadline and cancellation — and report an interrupted solve through
/// [`RefinementOutcome::Interrupted`](crate::session::RefinementOutcome::Interrupted).
pub trait RefinementSolver: Send + Sync {
    /// Human-readable algorithm label for benchmark output (may depend on the
    /// request, e.g. the MILP label reflects the optimization configuration).
    fn label(&self, request: &RefinementRequest) -> String;

    /// Answer one request against the session.
    fn solve(
        &self,
        session: &RefinementSession,
        request: &RefinementRequest,
    ) -> Result<RefinementResult>;
}

/// The paper's contribution: compile the request to a MILP over the session's
/// provenance annotations and solve it with `qr-milp`. Equivalent to calling
/// [`RefinementSession::solve`] directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct MilpSolver;

impl RefinementSolver for MilpSolver {
    fn label(&self, request: &RefinementRequest) -> String {
        request.optimizations.label().to_string()
    }

    fn solve(
        &self,
        session: &RefinementSession,
        request: &RefinementRequest,
    ) -> Result<RefinementResult> {
        session.solve(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMeasure;
    use crate::naive::NaiveMode;
    use crate::paper_example::{paper_database, scholarship_constraints, scholarship_query};

    fn paper_session() -> RefinementSession {
        RefinementSession::new(paper_database(), scholarship_query()).unwrap()
    }

    #[test]
    fn all_backends_answer_the_paper_example_uniformly() {
        let session = paper_session();
        let request = RefinementRequest::new()
            .with_constraints(scholarship_constraints())
            .with_epsilon(0.0)
            .with_distance(DistanceMeasure::Predicate);
        let backends: Vec<Box<dyn RefinementSolver>> = vec![
            Box::new(MilpSolver),
            Box::new(NaiveSolver::new(NaiveMode::Provenance)),
            Box::new(NaiveSolver::new(NaiveMode::Database)),
        ];
        for backend in &backends {
            let result = session.solve_with(backend.as_ref(), &request).unwrap();
            let refined = result
                .outcome
                .refined()
                .unwrap_or_else(|| panic!("{} finds a refinement", backend.label(&request)));
            assert!(
                (refined.distance - 0.5).abs() < 1e-6,
                "{}: distance {}",
                backend.label(&request),
                refined.distance
            );
            assert!(refined.proven_optimal, "{}", backend.label(&request));
        }
    }

    #[test]
    fn erica_solver_enforces_whole_output_semantics() {
        use qr_provenance::whatif::evaluate_refinement;
        let session = paper_session();
        // One constraint with k = 6 → Erica forces the output to exactly 6
        // tuples with at least 3 women among them.
        let request = RefinementRequest::new().with_constraint(
            crate::constraint::CardinalityConstraint::at_least(
                crate::constraint::Group::single("Gender", "F"),
                6,
                3,
            ),
        );
        let result = session.solve_with(&EricaSolver, &request).unwrap();
        let refined = result.outcome.refined().expect("a refinement exists");
        let output = evaluate_refinement(session.snapshot().annotated(), &refined.assignment);
        assert_eq!(output.len(), 6, "Erica's output size is exact");
    }

    /// Satellite contract of the unified deadline: every backend honors the
    /// request's `SolveControl` and reports `Interrupted` instead of running
    /// to completion. A pre-cancelled token is the sharpest version of it.
    #[test]
    fn all_backends_honor_the_unified_control() {
        use qr_milp::control::CancelToken;
        let session = paper_session();
        let backends: Vec<Box<dyn RefinementSolver>> = vec![
            Box::new(MilpSolver),
            Box::new(NaiveSolver::new(NaiveMode::Provenance)),
            Box::new(NaiveSolver::new(NaiveMode::Database)),
            Box::new(EricaSolver),
        ];
        for backend in &backends {
            let token = CancelToken::new();
            token.cancel();
            let request = RefinementRequest::new()
                .with_constraints(scholarship_constraints())
                .with_epsilon(0.0)
                .with_cancel_token(token);
            let result = session.solve_with(backend.as_ref(), &request).unwrap();
            assert!(
                result.outcome.is_interrupted(),
                "{} must report the interruption",
                backend.label(&request)
            );
            assert!(result.stats.interrupted, "{}", backend.label(&request));
        }
    }

    /// An ε that is NaN, negative or infinite is invalid input to the MILP
    /// and to the exhaustive search alike: neither may answer it, least of
    /// all with a proof of infeasibility.
    #[test]
    fn invalid_epsilon_is_rejected_by_milp_and_naive() {
        use crate::error::CoreError;
        let session = paper_session();
        for epsilon in [f64::NAN, -0.1, f64::INFINITY] {
            let request = RefinementRequest::new()
                .with_constraints(scholarship_constraints())
                .with_epsilon(epsilon);
            let milp = session.solve(&request).unwrap_err();
            assert!(
                matches!(milp, CoreError::InvalidInput(_)),
                "MILP at ε = {epsilon}: {milp:?}"
            );
            let naive = session
                .solve_with(&NaiveSolver::new(NaiveMode::Provenance), &request)
                .unwrap_err();
            assert!(
                matches!(naive, CoreError::InvalidInput(_)),
                "Naive+prov at ε = {epsilon}: {naive:?}"
            );
        }
    }

    #[test]
    fn labels_follow_the_paper() {
        let request = RefinementRequest::new();
        assert_eq!(MilpSolver.label(&request), "MILP+opt");
        let unopt = request
            .clone()
            .with_optimizations(crate::optimize::OptimizationConfig::none());
        assert_eq!(MilpSolver.label(&unopt), "MILP");
        assert_eq!(
            NaiveSolver::new(NaiveMode::Provenance).label(&request),
            "Naive+prov"
        );
        assert_eq!(
            NaiveSolver::new(NaiveMode::Database).label(&request),
            "Naive"
        );
        assert_eq!(EricaSolver.label(&request), "Erica-style");
    }
}
