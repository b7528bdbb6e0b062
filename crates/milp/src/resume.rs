//! Checkpoint/restart state for interrupted branch-and-bound solves.
//!
//! When a solve under a [`SolveControl`](crate::control::SolveControl) ends
//! [`Interrupted`](crate::solution::SolveStatus::Interrupted), the solver
//! captures its live search state — the open-node frontier (each node with
//! its box bounds, parent LP bound and shared [`Basis`] snapshot), the best
//! incumbent, the proven global bound and the cumulative node counter — into
//! a [`ResumeState`] attached to the returned
//! [`Solution`](crate::solution::Solution).
//! [`Solver::resume_with_control`](crate::branch_bound::Solver::resume_with_control)
//! accepts that state and continues the search exactly where it stopped:
//! pruned subtrees are never re-explored, warm bases survive the restart, and
//! a chain of small-deadline solves converges to the same objective as one
//! uninterrupted solve.
//!
//! The state is pinned to the model it was captured from by a structural
//! fingerprint (variables, bounds, constraints, objective); resuming against
//! a different model fails with
//! [`MilpError::StaleResume`](crate::error::MilpError::StaleResume) instead
//! of silently searching the wrong problem.

use crate::basis::Basis;
use crate::model::Model;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One open node of a suspended branch-and-bound frontier: the box of
/// variable bounds still to be explored, the parent's LP bound (for pruning
/// before paying for this node's LP) and the parent's optimal basis (for
/// warm-starting this node's LP after the restart).
#[derive(Debug, Clone)]
pub(crate) struct FrontierNode {
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) parent_bound: f64,
    pub(crate) parent_basis: Option<Arc<Basis>>,
}

/// Opaque checkpoint of an interrupted branch-and-bound solve.
///
/// Captured by the solver whenever a controlled solve ends
/// [`Interrupted`](crate::solution::SolveStatus::Interrupted) with open nodes
/// remaining (see [`Solution::resume`](crate::solution::Solution::resume)),
/// and consumed by
/// [`Solver::resume_with_control`](crate::branch_bound::Solver::resume_with_control).
/// The internals are deliberately private: callers treat the state as an
/// opaque token whose only operations are the read-only accessors below and
/// resumption against the *same* model.
#[derive(Debug, Clone)]
pub struct ResumeState {
    /// Open nodes, in stack order (last entry is popped first on resume).
    pub(crate) frontier: Vec<FrontierNode>,
    /// Best incumbent found so far, if any.
    pub(crate) incumbent: Option<(f64, Vec<f64>)>,
    /// Best proven lower (dual) bound on the objective.
    pub(crate) best_bound: f64,
    /// Whether the root relaxation has been solved.
    pub(crate) root_processed: bool,
    /// Nodes processed across every earlier segment of this search.
    pub(crate) prior_nodes: usize,
    /// Number of completed solve segments behind this state.
    pub(crate) prior_segments: usize,
    /// Rotating pricing-window position of the LP workspace at capture, so a
    /// resumed segment prices columns in the same order the uninterrupted
    /// solve would have.
    pub(crate) pricing_cursor: usize,
    /// Structural fingerprint of the model this state belongs to.
    pub(crate) fingerprint: u64,
}

impl ResumeState {
    /// Number of open nodes in the suspended frontier.
    pub fn num_open_nodes(&self) -> usize {
        self.frontier.len()
    }

    /// Best proven lower (dual) bound on the objective so far.
    pub fn best_bound(&self) -> f64 {
        self.best_bound
    }

    /// Objective of the best incumbent found so far, if any.
    pub fn incumbent_objective(&self) -> Option<f64> {
        self.incumbent.as_ref().map(|(obj, _)| *obj)
    }

    /// Total branch-and-bound nodes processed across every completed segment
    /// of this search.
    pub fn nodes_so_far(&self) -> usize {
        self.prior_nodes
    }

    /// Number of completed (interrupted) solve segments behind this state.
    pub fn segments(&self) -> usize {
        self.prior_segments
    }
}

/// Structural fingerprint of a model: variable types, bounds and branch
/// priorities, constraint coefficients, senses and right-hand sides, and the
/// objective. Names are excluded — two models that differ only in labels
/// describe the same search. `f64`s hash by bit pattern, so the fingerprint
/// is exact (no tolerance): a resume state only matches the byte-identical
/// rebuild of its model.
pub(crate) fn model_fingerprint(model: &Model) -> u64 {
    let mut h = DefaultHasher::new();
    model.num_variables().hash(&mut h);
    for v in model.variables() {
        (v.var_type as u8).hash(&mut h);
        v.lower.to_bits().hash(&mut h);
        v.upper.to_bits().hash(&mut h);
        v.branch_priority.hash(&mut h);
    }
    model.num_constraints().hash(&mut h);
    for c in model.constraints() {
        (c.sense as u8).hash(&mut h);
        c.rhs.to_bits().hash(&mut h);
        c.expr.len().hash(&mut h);
        for (var, coeff) in c.expr.terms() {
            var.index().hash(&mut h);
            coeff.to_bits().hash(&mut h);
        }
    }
    model.objective().constant_part().to_bits().hash(&mut h);
    for (var, coeff) in model.objective().terms() {
        var.index().hash(&mut h);
        coeff.to_bits().hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::Sense;

    fn small_model() -> Model {
        let mut m = Model::new("fp");
        let x = m.add_binary("x");
        let y = m.add_integer("y", 0.0, 5.0);
        m.add_constraint(
            "c",
            LinExpr::term(x, 2.0) + LinExpr::term(y, 1.0),
            Sense::Le,
            4.0,
        );
        m.set_objective(LinExpr::term(x, -1.0) + LinExpr::term(y, -1.0));
        m
    }

    #[test]
    fn fingerprint_is_deterministic_and_name_blind() {
        let a = model_fingerprint(&small_model());
        let b = model_fingerprint(&small_model());
        assert_eq!(a, b, "same structure must fingerprint identically");

        // Renaming variables/constraints must not change the fingerprint.
        let mut renamed = Model::new("other-name");
        let x = renamed.add_binary("renamed_x");
        let y = renamed.add_integer("renamed_y", 0.0, 5.0);
        renamed.add_constraint(
            "renamed_c",
            LinExpr::term(x, 2.0) + LinExpr::term(y, 1.0),
            Sense::Le,
            4.0,
        );
        renamed.set_objective(LinExpr::term(x, -1.0) + LinExpr::term(y, -1.0));
        assert_eq!(a, model_fingerprint(&renamed));
    }

    #[test]
    fn fingerprint_sees_structural_changes() {
        let base = model_fingerprint(&small_model());

        let mut rhs_changed = small_model();
        rhs_changed.add_constraint("extra", LinExpr::constant(0.0), Sense::Le, 1.0);
        assert_ne!(base, model_fingerprint(&rhs_changed), "extra constraint");

        let mut obj_changed = small_model();
        obj_changed.set_objective(LinExpr::zero());
        assert_ne!(base, model_fingerprint(&obj_changed), "different objective");
    }
}
