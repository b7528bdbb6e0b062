//! # qr-core
//!
//! Query Refinement for Diverse Top-k Selection — the core library.
//!
//! This crate implements the paper's contribution: given a ranked SPJ query,
//! a set of cardinality (diversity) constraints over the top-k of its result,
//! a maximum deviation ε and a distance measure, find the refinement of the
//! query's selection predicates that is closest to the original query while
//! deviating from the constraints by at most ε (*Best Approximation
//! Refinement*, Definition 2.7).
//!
//! The solution follows the paper:
//!
//! * the problem is NP-hard (Theorem 2.8), so it is compiled to a
//!   mixed-integer linear program built from provenance annotations
//!   ([`milp_model`], Section 3),
//! * three distance measures are supported ([`distance`], Section 2.2):
//!   predicate distance, top-k Jaccard distance and Kendall's τ for top-k
//!   lists,
//! * three optimizations shrink the program ([`optimize`], Section 4),
//! * exhaustive-search baselines ([`naive`]) and an Erica-style whole-output
//!   baseline ([`erica`]) reproduce the paper's comparisons (Section 5). They
//!   and the MILP engine are backends of one [`RefinementSolver`] trait,
//!   answer through [`RefinementSession::solve_with`] and return the same
//!   [`RefinementResult`],
//! * the whole solve path is **thread-safe and interruptible**:
//!   [`RefinementSession`] is `Send + Sync`, so a caller shares it via `Arc`
//!   across its own threads and gets the same answers on any number of
//!   them; every backend honors one deadline and cooperative cancellation
//!   through a [`SolveControl`], and interrupted solves return
//!   [`RefinementOutcome::Interrupted`] with their best incumbent and full
//!   statistics. A [`SolveObserver`] streams incumbent / node / bound events
//!   from a running MILP solve.
//!
//! * sessions are **live**: [`RefinementSession::apply`] mutates the
//!   database at the tuple level ([`session::Mutation`]), repairs the
//!   provenance annotations incrementally from the typed delta and installs
//!   a new versioned [`session::AnnotatedSnapshot`] atomically — in-flight
//!   solves keep the snapshot they pinned, later requests see the new
//!   version.
//!
//! ## Quickstart
//!
//! The entry point is a [`RefinementSession`]: it owns the query and a
//! versioned snapshot (database + provenance annotations of `~Q(D)` — built
//! in full exactly once, at session construction) and answers any number of
//! [`RefinementRequest`]s:
//!
//! ```
//! use qr_core::prelude::*;
//! use qr_core::paper_example::{paper_database, scholarship_query};
//!
//! let session = RefinementSession::new(paper_database(), scholarship_query()).unwrap();
//! let result = session
//!     .solve(
//!         &RefinementRequest::new()
//!             // at least 3 of the top-6 scholarship recipients are women
//!             .with_constraint(CardinalityConstraint::at_least(Group::single("Gender", "F"), 6, 3))
//!             // at most 1 of the top-3 has a high family income
//!             .with_constraint(CardinalityConstraint::at_most(Group::single("Income", "High"), 3, 1))
//!             .with_epsilon(0.0)
//!             .with_distance(DistanceMeasure::Predicate),
//!     )
//!     .unwrap();
//!
//! let refined = result.outcome.refined().expect("a refinement exists");
//! assert_eq!(refined.deviation, 0.0);
//! println!("{}", qr_relation::sql::ToSql::to_sql(&refined.query));
//! ```
//!
//! ## Amortizing setup across an ε-sweep
//!
//! Because the session holds the annotations, a sweep (here over the maximum
//! deviation ε, as in the paper's Figure 5) pays provenance setup once
//! instead of once per point:
//!
//! ```
//! use qr_core::prelude::*;
//! use qr_core::paper_example::{paper_database, scholarship_constraints, scholarship_query};
//!
//! let session = RefinementSession::new(paper_database(), scholarship_query()).unwrap();
//! let base = RefinementRequest::new().with_constraints(scholarship_constraints());
//! for result in session.sweep_epsilon(&base, &[0.0, 0.25, 0.5]).unwrap() {
//!     // every per-request stat shows zero annotation time ...
//!     assert!(result.stats.annotation_time.is_zero());
//! }
//! // ... because the session paid it exactly once, up front.
//! assert_eq!(session.setup_stats().annotation_builds, 1);
//!
//! // Even a database mutation doesn't re-annotate from scratch: the session
//! // repairs the annotations from the delta and bumps its version instead.
//! session
//!     .apply(vec![Mutation::delete("Activities", vec![0])])
//!     .unwrap();
//! let stats = session.setup_stats();
//! assert_eq!(stats.annotation_builds, 1); // full builds: still just one
//! assert_eq!(stats.delta_annotations, 1); // the mutation was a repair
//! assert_eq!(stats.snapshot_version, 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod constraint;
pub mod distance;
pub mod erica;
pub mod error;
pub mod milp_model;
pub mod naive;
pub mod optimize;
pub mod paper_example;
pub mod session;
pub mod solver;
pub mod sync;

pub use cache::{CacheKey, SolutionCache};
pub use constraint::{BoundType, CardinalityConstraint, ConstraintSet, Group};
pub use distance::{
    jaccard_topk_distance, kendall_topk_distance, predicate_distance, DistanceMeasure,
};
pub use error::{CoreError, Result};
pub use milp_model::{build_model, BuiltModel, ModelVariables};
pub use naive::NaiveMode;
pub use optimize::OptimizationConfig;
pub use qr_milp::control::{CancelToken, SolveControl, SolveObserver, SolveProgress};
pub use session::{
    exact_deviation, exact_distance, AnnotatedSnapshot, Mutation, RefinedQuery, RefinementOutcome,
    RefinementRequest, RefinementResult, RefinementSession, RefinementStats, SessionResume,
    SessionStats,
};
pub use solver::{EricaSolver, MilpSolver, NaiveSolver, RefinementSolver};
pub use sync::{lock_or_recover, read_or_recover, write_or_recover};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::cache::SolutionCache;
    pub use crate::constraint::{BoundType, CardinalityConstraint, ConstraintSet, Group};
    pub use crate::distance::DistanceMeasure;
    pub use crate::error::{CoreError, Result as CoreResult};
    pub use crate::naive::NaiveMode;
    pub use crate::optimize::OptimizationConfig;
    pub use crate::session::{
        AnnotatedSnapshot, Mutation, RefinedQuery, RefinementOutcome, RefinementRequest,
        RefinementResult, RefinementSession, RefinementStats, SessionResume, SessionStats,
    };
    pub use crate::solver::{EricaSolver, MilpSolver, NaiveSolver, RefinementSolver};
    pub use qr_milp::control::{CancelToken, SolveControl, SolveObserver, SolveProgress};
}
