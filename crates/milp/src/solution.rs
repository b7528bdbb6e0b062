//! Solver output: status, objective value, variable assignment, statistics.

use crate::basis::Basis;
use crate::model::VarId;
use crate::resume::ResumeState;
use std::sync::Arc;
use std::time::Duration;

/// Status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The returned assignment is optimal (within tolerances).
    Optimal,
    /// A feasible assignment was found but optimality was not proven: the
    /// node limit ([`SolverOptions::max_nodes`]) was reached, or an LP hit
    /// the fixed per-LP pivot cap or numerical trouble and the search had to
    /// drop that node.
    ///
    /// [`SolverOptions::max_nodes`]: crate::branch_bound::SolverOptions::max_nodes
    Feasible,
    /// The problem has no feasible mixed-integer assignment.
    Infeasible,
    /// The LP relaxation is unbounded below.
    Unbounded,
    /// No feasible assignment was found, and infeasibility was not proven:
    /// the node limit ([`SolverOptions::max_nodes`]) was reached, or an LP
    /// hit the fixed per-LP pivot cap or numerical trouble and the search
    /// had to drop that node.
    ///
    /// [`SolverOptions::max_nodes`]: crate::branch_bound::SolverOptions::max_nodes
    LimitReached,
    /// The solve was interrupted by its [`SolveControl`] — a cancelled
    /// [`CancelToken`] or an exceeded control deadline. The best incumbent
    /// found so far (if any) is returned in [`Solution::values`], and
    /// [`Solution::stats`] reflects all work done up to the interruption.
    ///
    /// [`SolveControl`]: crate::control::SolveControl
    /// [`CancelToken`]: crate::control::CancelToken
    Interrupted,
}

impl SolveStatus {
    /// Whether a usable assignment is available. For
    /// [`SolveStatus::Interrupted`] an incumbent may or may not exist; check
    /// [`Solution::values`] for emptiness.
    pub fn has_solution(&self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }
}

/// Statistics collected during a solve.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Number of branch-and-bound nodes processed.
    pub nodes: usize,
    /// Number of LP relaxations solved.
    pub lp_solves: usize,
    /// Total simplex iterations across all LP solves.
    pub simplex_iterations: usize,
    /// LP solves that started from a parent basis (dual simplex warm start).
    pub warm_lp_solves: usize,
    /// LP solves that ran the cold two-phase method: the root of a fresh
    /// search, and warm starts that fell back.
    pub cold_lp_solves: usize,
    /// Basis LU refactorizations across all LP solves (cold starts, warm
    /// basis restores, and stability-triggered rebuilds of the eta file).
    pub refactorizations: usize,
    /// Product-form eta updates across all LP solves — the factorized
    /// solver's per-pivot work proxy (each eta is `O(nnz)` bookkeeping where
    /// the dense tableau paid an `O(m·n)` elimination).
    pub eta_updates: usize,
    /// Peak nonzeros of the basis LU factors observed across the solve
    /// (fill-in health; compare against [`Self::matrix_nnz`]).
    pub lu_nnz: usize,
    /// Nonzeros of the stored sparse constraint matrix (structural + logical
    /// columns) — the denominator of the fill-in ratio.
    pub matrix_nnz: usize,
    /// Wall-clock time spent solving.
    pub solve_time: Duration,
    /// Best lower (dual) bound proven on the objective.
    pub best_bound: f64,
    /// Whether the solve was stopped by its
    /// [`SolveControl`](crate::control::SolveControl) (cancellation or
    /// control deadline) rather than running to a terminal status.
    pub interrupted: bool,
    /// 1 if this solve resumed a suspended search
    /// ([`Solver::resume_with_control`](crate::branch_bound::Solver::resume_with_control)),
    /// 0 for a fresh solve. A counter (not a bool) so it aggregates by
    /// addition like every other field.
    pub resumed_solves: usize,
    /// Open frontier nodes restored from the [`ResumeState`] at the start of
    /// a resumed solve (0 for a fresh solve).
    pub nodes_restored: usize,
    /// 1 if this solve ended interrupted with a [`ResumeState`] captured for
    /// a later segment, 0 otherwise.
    pub resume_captures: usize,
    /// 1 if this solve was seeded with a caller-supplied
    /// [`WarmStart`](crate::branch_bound::WarmStart) basis (cross-request
    /// reuse), 0 otherwise. A counter (not a bool) so it aggregates by
    /// addition like every other field.
    pub warm_entry_solves: usize,
}

impl SolveStats {
    /// Fraction of LP solves that took the warm-start path (0 when no LP was
    /// solved).
    pub fn warm_start_share(&self) -> f64 {
        let total = self.warm_lp_solves + self.cold_lp_solves;
        if total == 0 {
            0.0
        } else {
            self.warm_lp_solves as f64 / total as f64
        }
    }

    /// Peak LU fill-in relative to the constraint matrix (`lu_nnz /
    /// matrix_nnz`; 0 when no LP was solved). Values near 1 mean the
    /// Markowitz factorization is preserving the model's sparsity.
    pub fn lu_fill_ratio(&self) -> f64 {
        if self.matrix_nnz == 0 {
            0.0
        } else {
            self.lu_nnz as f64 / self.matrix_nnz as f64
        }
    }
}

/// Result of solving a MILP.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Solve status.
    pub status: SolveStatus,
    /// Objective value of the returned assignment (`f64::INFINITY` if none).
    pub objective: f64,
    /// Variable assignment, indexed by [`VarId`] index (empty if none).
    pub values: Vec<f64>,
    /// Solver statistics.
    pub stats: SolveStats,
    /// Checkpoint of the suspended search, present exactly when the solve
    /// ended [`SolveStatus::Interrupted`] with open nodes remaining. Feed it
    /// to
    /// [`Solver::resume_with_control`](crate::branch_bound::Solver::resume_with_control)
    /// to continue where this solve stopped. Boxed: the frontier can be
    /// large, and the common (uninterrupted) case should pay one pointer.
    pub resume: Option<Box<ResumeState>>,
    /// Snapshot of the simplex basis at the node that produced the returned
    /// assignment: present when this search found that assignment itself (at
    /// an integral leaf or in a dive), absent when the assignment is a
    /// [`WarmStart`](crate::branch_bound::WarmStart) incumbent that no node
    /// improved on. Feed it back via
    /// [`WarmStart`](crate::branch_bound::WarmStart) to seed a later solve of
    /// a nearby model (e.g. the same query at a different ε) — the basis of
    /// one optimum is usually a few dual pivots from the next. `Arc`: the
    /// same snapshot is shared with the search frontier and any cache.
    pub basis: Option<Arc<Basis>>,
}

impl Solution {
    /// Value assigned to a variable (0.0 when no solution is available).
    pub fn value(&self, var: VarId) -> f64 {
        self.values.get(var.index()).copied().unwrap_or(0.0)
    }

    /// Value of a binary/integer variable rounded to the nearest integer.
    pub fn int_value(&self, var: VarId) -> i64 {
        self.value(var).round() as i64
    }

    /// Whether a binary variable is set (value > 0.5).
    pub fn is_set(&self, var: VarId) -> bool {
        self.value(var) > 0.5
    }

    /// A solution representing an infeasible or limit outcome.
    pub fn without_assignment(status: SolveStatus, stats: SolveStats) -> Self {
        Solution {
            status,
            objective: f64::INFINITY,
            values: Vec::new(),
            stats,
            resume: None,
            basis: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let s = Solution {
            status: SolveStatus::Optimal,
            objective: 1.5,
            values: vec![0.0, 0.9, 2.49],
            stats: SolveStats::default(),
            resume: None,
            basis: None,
        };
        assert!(s.status.has_solution());
        assert_eq!(s.value(VarId(1)), 0.9);
        assert!(s.is_set(VarId(1)));
        assert!(!s.is_set(VarId(0)));
        assert_eq!(s.int_value(VarId(2)), 2);
        assert_eq!(s.value(VarId(99)), 0.0);
    }

    #[test]
    fn empty_solution() {
        let s = Solution::without_assignment(SolveStatus::Infeasible, SolveStats::default());
        assert!(!s.status.has_solution());
        assert!(s.objective.is_infinite());
        assert!(s.values.is_empty());
    }
}
