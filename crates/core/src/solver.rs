//! Unified algorithm dispatch: one trait, four backends.
//!
//! The paper compares the MILP engine (with and without the Section 4
//! optimizations) against two exhaustive baselines (`Naive`, `Naive+prov`)
//! and the Erica-style whole-output baseline (Section 5.3). Each used to have
//! a bespoke entry point with its own argument list and result type;
//! [`RefinementSolver`] unifies them behind
//! [`RefinementSession::solve_with`], all returning a common
//! [`RefinementResult`], so benchmarks, examples and tests select algorithms
//! uniformly:
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

use crate::erica::{erica_refine_prepared, OutputConstraint};
use crate::error::Result;
use crate::naive::{naive_search_prepared, NaiveMode, NaiveOptions};
use crate::session::{
    exact_deviation, RefinedQuery, RefinementOutcome, RefinementRequest, RefinementResult,
    RefinementSession,
};

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
/// [`RefinementOutcome::Interrupted`].
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

/// Exhaustive search over the refinement space (`Naive` / `Naive+prov`),
/// evaluating candidates either on the relational engine or on the session's
/// provenance annotations.
///
/// The request's constraints, ε and distance measure apply; its MILP-specific
/// fields (optimizations, solver options) are ignored in favour of the
/// [`NaiveOptions`] budget carried here.
#[derive(Debug, Clone, Default)]
pub struct NaiveSolver {
    /// Search budget and evaluation mode.
    pub options: NaiveOptions,
}

impl NaiveSolver {
    /// An exhaustive search in the given evaluation mode with default budgets.
    #[must_use]
    pub fn new(mode: NaiveMode) -> Self {
        NaiveSolver {
            options: NaiveOptions {
                mode,
                ..NaiveOptions::default()
            },
        }
    }
}

impl RefinementSolver for NaiveSolver {
    fn label(&self, _request: &RefinementRequest) -> String {
        self.options.mode.to_string()
    }

    fn solve(
        &self,
        session: &RefinementSession,
        request: &RefinementRequest,
    ) -> Result<RefinementResult> {
        let snapshot = session.snapshot();
        let result = naive_search_prepared(
            snapshot.db(),
            snapshot.annotated(),
            &request.constraints,
            request.epsilon,
            request.distance,
            &self.options,
            &request.control,
        )?;
        Ok(result.into_refinement_result(session.query()))
    }
}

/// The Erica-style whole-output baseline (Section 5.3), posed uniformly: each
/// top-k cardinality constraint of the request becomes a whole-output
/// constraint, and the output size is forced to exactly k* — the paper's
/// adjustment for emulating top-k semantics in a system without ranking.
///
/// Erica's only distance measure is `DIS_pred` and it has no deviation
/// budget, so the request's `distance` and `epsilon` are ignored (constraints
/// must hold exactly); its solver options bound the search.
#[derive(Debug, Clone, Copy, Default)]
pub struct EricaSolver;

impl RefinementSolver for EricaSolver {
    fn label(&self, _request: &RefinementRequest) -> String {
        "Erica-style".to_string()
    }

    fn solve(
        &self,
        session: &RefinementSession,
        request: &RefinementRequest,
    ) -> Result<RefinementResult> {
        let output_size = request.constraints.k_star();
        let output_constraints: Vec<OutputConstraint> = request
            .constraints
            .constraints()
            .iter()
            .map(|c| OutputConstraint {
                group: c.group.clone(),
                bound: c.bound,
                n: c.n,
            })
            .collect();
        let snapshot = session.snapshot();
        let result = erica_refine_prepared(
            snapshot.annotated(),
            &output_constraints,
            output_size,
            request.solver_options.clone(),
            &request.control,
        )?;
        let best = result.best.map(|(assignment, distance)| {
            let (deviation, _) =
                exact_deviation(snapshot.annotated(), &request.constraints, &assignment);
            RefinedQuery {
                query: assignment.apply_to(session.query()),
                assignment,
                distance,
                objective: distance,
                deviation,
                proven_optimal: result.proven,
            }
        });
        let outcome = if result.interrupted {
            RefinementOutcome::Interrupted { best }
        } else {
            match best {
                Some(refined) => RefinementOutcome::Refined(refined),
                None => RefinementOutcome::NoRefinement {
                    proven_infeasible: result.proven,
                },
            }
        };
        Ok(RefinementResult {
            outcome,
            stats: result.stats,
            // Whole-output baseline solves are one-shot; resumable
            // checkpoints are a property of the session MILP path.
            resume: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMeasure;
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
