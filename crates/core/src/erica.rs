//! Erica-style baseline (Section 5.3): query refinement for cardinality
//! constraints over the *whole output*, without ranking.
//!
//! Erica [Li et al., VLDB 2023] refines selection predicates so that group
//! cardinality constraints hold over the entire query result. It has no
//! notion of ranking, so to emulate "top-k" behaviour the paper adds an
//! explicit output-size constraint. This module reproduces that adjusted
//! system on top of the same provenance annotations and MILP substrate:
//!
//! * expressions (1)–(3) of the refinement MILP are reused to model
//!   predicate refinements and tuple selection,
//! * group constraints are enforced over all selected tuples (no rank / top-k
//!   variables),
//! * the output size is constrained to be exactly k*, the largest k of the
//!   request's constraints,
//! * constraints must hold exactly (no deviation budget),
//! * the objective is the predicate-based distance, Erica's only measure.
//!
//! It runs as [`EricaSolver`], a [`RefinementSolver`] backend: a caller asks
//! [`RefinementSession::solve_with`] and gets the same [`RefinementResult`]
//! as from the MILP engine.

use crate::constraint::{BoundType, CardinalityConstraint, ConstraintSet};
use crate::distance::DistanceMeasure;
use crate::error::Result;
use crate::milp_model::{build_model, BuiltModel};
use crate::optimize::OptimizationConfig;
use crate::session::{
    milp_proven, RefinementOutcome, RefinementRequest, RefinementResult, RefinementSession,
    RefinementStats,
};
use crate::solver::RefinementSolver;
use qr_milp::{LinExpr, Sense, SolveStatus, Solver};
use std::time::Instant;

/// The Erica-style whole-output baseline (Section 5.3), posed uniformly: each
/// top-k cardinality constraint of the request must hold over the whole
/// output, and the output size is forced to exactly k* — the paper's
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

    /// Refine the session's query so that every constraint holds over an
    /// output of exactly k* tuples, minimising the predicate distance over
    /// one pinned snapshot. The request's control interrupts the search like
    /// any other backend's; under the node limit of its solver options the
    /// answer may be a feasible-but-unproven refinement, or none.
    fn solve(
        &self,
        session: &RefinementSession,
        request: &RefinementRequest,
    ) -> Result<RefinementResult> {
        let start = Instant::now();
        let snapshot = session.snapshot();
        let annotated = snapshot.annotated();
        let output_size = request.constraints.k_star();

        // No refinement can produce more output tuples than ~Q(D) contains.
        if output_size > annotated.len() {
            let elapsed = start.elapsed();
            let stats = RefinementStats {
                model_build_time: elapsed,
                total_time: elapsed,
                scope_size: annotated.len(),
                ..RefinementStats::default()
            };
            return Ok(RefinementResult {
                outcome: RefinementOutcome::from_search(None, true, false),
                stats,
                resume: None,
            });
        }

        // Reuse the refinement model builder for expressions (1)-(3) by
        // posing every constraint over the top-`output_size` with ε = 0, then
        // *replace* their rank-based semantics with whole-output ones by
        // adding direct selection-count constraints and an exact size
        // constraint. The rank machinery stays satisfiable (it constrains a
        // superset of what Erica needs) but the binding constraints are the
        // ones added below.
        let whole_output = ConstraintSet::from_constraints(
            request
                .constraints
                .constraints()
                .iter()
                .map(|c| CardinalityConstraint {
                    k: output_size,
                    ..c.clone()
                })
                .collect(),
        );
        let BuiltModel {
            mut model, vars, ..
        } = build_model(
            annotated,
            &whole_output,
            0.0,
            DistanceMeasure::Predicate,
            &OptimizationConfig {
                // Relevancy pruning is rank-based and does not apply to
                // whole-output constraints; lineage merging and the
                // single-bound relaxation remain valid.
                relevancy_pruning: false,
                lineage_merging: true,
                single_bound_relaxation: false,
            },
        )?;

        // Exact output size (Erica's adjustment for emulating top-k).
        let mut size_expr = LinExpr::zero();
        for &t in &vars.scope {
            size_expr.add_term(vars.selection[&t], 1.0);
        }
        model.add_constraint(
            "erica_output_size",
            size_expr,
            Sense::Eq,
            output_size as f64,
        );

        // Whole-output group constraints over the selection variables.
        for (idx, c) in whole_output.constraints().iter().enumerate() {
            let mut expr = LinExpr::zero();
            for &t in &vars.scope {
                if c.group
                    .matches(annotated.schema(), &annotated.tuples()[t].row)
                {
                    expr.add_term(vars.selection[&t], 1.0);
                }
            }
            let sense = match c.bound {
                BoundType::Lower => Sense::Ge,
                BoundType::Upper => Sense::Le,
            };
            model.add_constraint(format!("erica_group[{idx}]"), expr, sense, c.n as f64);
        }

        let mut stats = RefinementStats::for_model(&model, vars.scope.len(), start.elapsed());
        let solution = Solver::new(request.solver_options.clone())
            .solve_with_control(&model, &request.control)?;
        stats.record_solve(solution.stats);
        stats.total_time = start.elapsed();

        // Any status with an assignment — Optimal, Feasible, or an
        // interrupted solve carrying its incumbent — reports it through
        // `values`. Erica reports `DIS_pred` whatever the request asks, and
        // its deviation from the request's own top-k constraints.
        let best = (!solution.values.is_empty()).then(|| {
            let built = BuiltModel {
                model,
                vars,
                k_star: output_size,
            };
            let assignment = built.extract_assignment(&solution.values);
            session.describe(
                annotated,
                &request.constraints,
                DistanceMeasure::Predicate,
                output_size,
                assignment,
                None,
            )
        });
        Ok(RefinementResult {
            outcome: RefinementOutcome::from_search(
                best,
                milp_proven(solution.status),
                solution.status == SolveStatus::Interrupted,
            ),
            stats,
            // Whole-output baseline solves are one-shot; resumable
            // checkpoints are a property of the session MILP path.
            resume: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Group;
    use crate::paper_example::{paper_database, scholarship_query};
    use qr_provenance::whatif::evaluate_refinement;
    use qr_provenance::{AnnotatedRelation, PredicateAssignment};

    /// Solve one Erica request on the paper example, with default solver
    /// options and no control.
    fn whole_output_refine(request: &RefinementRequest) -> (RefinementSession, RefinementResult) {
        let session = RefinementSession::new(paper_database(), scholarship_query()).unwrap();
        let result = session.solve_with(&EricaSolver, request).unwrap();
        (session, result)
    }

    /// Whether `assignment`'s output has exactly k* tuples and meets every
    /// constraint of `constraints` over all of them.
    fn satisfies_whole_output(
        annotated: &AnnotatedRelation,
        assignment: &PredicateAssignment,
        constraints: &ConstraintSet,
    ) -> bool {
        let output = evaluate_refinement(annotated, assignment);
        if output.len() != constraints.k_star() {
            return false;
        }
        constraints.constraints().iter().all(|c| {
            let count = output
                .selected
                .iter()
                .filter(|&&t| {
                    c.group
                        .matches(annotated.schema(), &annotated.tuples()[t].row)
                })
                .count();
            match c.bound {
                BoundType::Lower => count >= c.n,
                BoundType::Upper => count <= c.n,
            }
        })
    }

    #[test]
    fn erica_finds_exact_output_size_refinement() {
        // Require an output of exactly 8 students with at least 4 women.
        let request = RefinementRequest::new().with_constraint(CardinalityConstraint::at_least(
            Group::single("Gender", "F"),
            8,
            4,
        ));
        let (session, result) = whole_output_refine(&request);
        let refined = result.outcome.refined().expect("a refinement exists");
        assert!(satisfies_whole_output(
            session.snapshot().annotated(),
            &refined.assignment,
            &request.constraints,
        ));
        assert!(
            refined.distance > 0.0,
            "the original query returns 7 tuples, so it must be refined"
        );
    }

    #[test]
    fn erica_infeasible_when_size_unreachable() {
        // Only 8 distinct female students exist in the join.
        let request = RefinementRequest::new().with_constraint(CardinalityConstraint::at_least(
            Group::single("Gender", "F"),
            20,
            10,
        ));
        let (_, result) = whole_output_refine(&request);
        assert!(result.outcome.refined().is_none());
    }

    #[test]
    fn erica_output_size_limits_refinements_vs_ranking_engine() {
        // Section 5.3's qualitative point: the exact-output-size requirement
        // excludes refinements the ranking-aware engine can use. Here the
        // ranking engine may return a query whose output has more than 6
        // tuples (only the top-6 matter), while Erica's must have exactly 6.
        let request = RefinementRequest::new().with_constraint(CardinalityConstraint::at_least(
            Group::single("Gender", "F"),
            6,
            3,
        ));
        let (session, result) = whole_output_refine(&request);
        let refined = result.outcome.refined().expect("a refinement exists");
        let output = evaluate_refinement(session.snapshot().annotated(), &refined.assignment);
        assert_eq!(output.len(), 6);
    }
}
