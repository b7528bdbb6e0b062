//! # qr-milp
//!
//! A self-contained Mixed-Integer Linear Programming (MILP) substrate.
//!
//! The paper solves its refinement MILP with IBM CPLEX (modeled through PuLP).
//! CPLEX is proprietary, so this crate provides the same capability from
//! scratch:
//!
//! * a PuLP-style [`Model`] builder with continuous, integer and binary
//!   variables, linear expressions and `<=` / `>=` / `==` constraints
//!   ([`model`], [`expr`]),
//! * a **sparse revised simplex** for the LP relaxation, organised around a
//!   reusable per-model workspace ([`simplex`]): the constraint matrix is
//!   stored once in CSC + CSR form ([`factor`]), the basis is LU-factorized
//!   with Markowitz pivoting ([`lu`]) and kept current across pivots by
//!   product-form eta updates with a stability-triggered refactorization
//!   policy ([`factor`]). Cold solves run a two-phase primal method from the
//!   all-logical basis; warm solves restore a snapshotted basis ([`basis`])
//!   by refactorizing it straight from the sparse matrix — `O(nnz)` — and
//!   repair branched bounds with a bound-flipping dual simplex ([`dual`]),
//!   skipping phase 1 entirely,
//! * interval-arithmetic bound propagation used as a presolve and at every
//!   branch-and-bound node ([`propagate`]),
//! * branch-and-bound with branching priorities, best-bound pruning, a
//!   structure-aware diving heuristic and a node limit
//!   ([`branch_bound`]). Each node LP is warm-started from its parent's
//!   optimal basis (a child differs by a single branched bound), which cuts
//!   per-node simplex pivots by an order of magnitude on the refinement
//!   MILPs; [`solution::SolveStats`] reports the warm/cold split, total
//!   pivots, refactorizations, eta updates and LU fill-in so both the
//!   warm-start gain and factorization health are observable,
//! * execution control for service use ([`control`]): the whole solve path
//!   is `Send + Sync`, and [`Solver::solve_with_control`] accepts a
//!   [`SolveControl`] carrying a cooperative [`CancelToken`], the solve's
//!   only wall-clock deadline, and a [`SolveObserver`] for incumbent / node /
//!   bound progress events. A cancelled or deadline-struck solve ends with
//!   [`SolveStatus::Interrupted`], still reporting its best incumbent and
//!   complete statistics.
//!
//! The solver targets the problem sizes produced by `qr-core` (hundreds to a
//! few thousand variables). It is exact: if it reports
//! [`SolveStatus::Optimal`] the returned assignment minimises the objective
//! among all feasible mixed-integer assignments (up to the configured
//! tolerances).
//!
//! ## Example
//!
//! ```
//! use qr_milp::prelude::*;
//!
//! // maximise x + 2y  s.t.  x + y <= 4, x <= 3, y <= 2, x,y >= 0 integer
//! let mut model = Model::new("example");
//! let x = model.add_integer("x", 0.0, 3.0);
//! let y = model.add_integer("y", 0.0, 2.0);
//! model.add_constraint("cap", LinExpr::from(x) + LinExpr::from(y), Sense::Le, 4.0);
//! // The solver minimises, so negate to maximise.
//! model.set_objective(LinExpr::from(x) * -1.0 + LinExpr::from(y) * -2.0);
//! let solution = Solver::default().solve(&model).unwrap();
//! assert_eq!(solution.status, SolveStatus::Optimal);
//! assert_eq!(solution.value(x).round(), 2.0);
//! assert_eq!(solution.value(y).round(), 2.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod basis;
pub mod branch_bound;
pub mod control;
pub mod dual;
pub mod error;
pub mod expr;
pub mod factor;
pub mod lu;
pub mod model;
pub mod propagate;
pub mod resume;
pub mod simplex;
pub mod solution;
pub mod tol;

pub use basis::{Basis, VarStatus};
pub use branch_bound::{Solver, SolverOptions, WarmStart};
pub use control::{CancelToken, SolveControl, SolveObserver, SolveProgress, StopCondition};
pub use error::{MilpError, Result};
pub use expr::LinExpr;
pub use model::{Model, Sense, VarId, VarType};
pub use resume::ResumeState;
pub use solution::{Solution, SolveStatus};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::branch_bound::{Solver, SolverOptions, WarmStart};
    pub use crate::control::{CancelToken, SolveControl, SolveObserver, SolveProgress};
    pub use crate::error::{MilpError, Result as MilpResult};
    pub use crate::expr::LinExpr;
    pub use crate::model::{Model, Sense, VarId, VarType};
    pub use crate::resume::ResumeState;
    pub use crate::solution::{Solution, SolveStatus};
}

// The concurrent-service contract: everything a worker thread needs to share
// or move must be `Send + Sync`. Checked at compile time — if a future change
// reintroduces an `Rc` or raw pointer anywhere on the solve path, this block
// stops compiling.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Model>();
    assert_send_sync::<Solver>();
    assert_send_sync::<SolverOptions>();
    assert_send_sync::<Solution>();
    assert_send_sync::<Basis>();
    assert_send_sync::<SolveControl>();
    assert_send_sync::<CancelToken>();
    assert_send_sync::<StopCondition>();
    assert_send_sync::<ResumeState>();
    assert_send_sync::<WarmStart>();
};
