//! Session-based refinement API: annotate once, refine many times.
//!
//! The paper's experiments (Figures 3–9) repeatedly solve refinements of the
//! *same* query over the *same* database while sweeping ε, k*, constraint
//! counts, bound types and optimizations. Provenance annotation of `~Q(D)` —
//! the relaxed query evaluation that underpins every algorithm — depends only
//! on the database and the query, so a sweep of N requests needs it exactly
//! once.
//!
//! [`RefinementSession`] captures that invariant: it owns the query and a
//! versioned [`AnnotatedSnapshot`] (database + [`AnnotatedRelation`], the
//! annotation built in full exactly once, at session construction, and
//! repaired incrementally afterwards), and answers any number of
//! [`RefinementRequest`]s against it. A request bundles everything that may
//! vary between solves: constraints, the maximum deviation ε, the distance
//! measure, the Section 4 optimizations, and the MILP solver budget.
//!
//! ```
//! use qr_core::paper_example::{paper_database, scholarship_constraints, scholarship_query};
//! use qr_core::prelude::*;
//!
//! let session = RefinementSession::new(paper_database(), scholarship_query()).unwrap();
//! let base = RefinementRequest::new()
//!     .with_constraints(scholarship_constraints())
//!     .with_distance(DistanceMeasure::Predicate);
//!
//! // An ε-sweep pays the provenance setup once, not three times.
//! let results = session.sweep_epsilon(&base, &[0.0, 0.25, 0.5]).unwrap();
//! assert_eq!(results.len(), 3);
//! assert_eq!(session.setup_stats().annotation_builds, 1);
//! assert!(results.iter().all(|r| r.outcome.is_refined()));
//! ```
//!
//! Algorithms other than the MILP engine — the exhaustive baselines and the
//! Erica-style whole-output baseline — plug in uniformly through the
//! [`RefinementSolver`] trait via [`RefinementSession::solve_with`].
//!
//! # Concurrency, cancellation and progress
//!
//! A session is `Send + Sync` (checked at compile time): share it across
//! worker threads via `Arc`, or let the built-in worker pool do it —
//! [`RefinementSession::solve_batch_parallel`] and
//! [`RefinementSession::sweep_epsilon_parallel`] fan a batch out over std
//! threads and return results in request order, identical to the sequential
//! path. Each request carries a [`SolveControl`]: a unified wall-clock
//! deadline ([`RefinementRequest::with_time_limit`]) and a cooperative
//! [`CancelToken`] honored by *every* backend, plus an optional
//! [`SolveObserver`] streaming incumbent / node / bound events from the MILP
//! search. A cancelled or deadline-struck solve returns
//! [`RefinementOutcome::Interrupted`] carrying the best incumbent found so
//! far and complete statistics.
//!
//! # Live sessions: versioned snapshots
//!
//! A session is not pinned to a static database. [`RefinementSession::apply`]
//! takes tuple-level [`Mutation`]s, repairs the annotation incrementally
//! (see [`AnnotatedRelation::apply_delta`]) and atomically installs a new
//! [`AnnotatedSnapshot`] with a monotonically increasing version. Every
//! solve pins the snapshot current at its start — in-flight solves (including
//! batch workers and cancellable solves) are never affected by a concurrent
//! mutation, while requests submitted afterwards see the new version:
//!
//! ```
//! use qr_core::paper_example::{paper_database, scholarship_constraints, scholarship_query};
//! use qr_core::prelude::*;
//! use qr_relation::Value;
//!
//! let session = RefinementSession::new(paper_database(), scholarship_query()).unwrap();
//! assert_eq!(session.version(), 1);
//!
//! // A student drops out: delete their activity row by stable id.
//! let version = session
//!     .apply(vec![Mutation::delete("Activities", vec![0])])
//!     .unwrap();
//! assert_eq!(version, 2);
//!
//! let stats = session.setup_stats();
//! assert_eq!(stats.annotation_builds, 1); // full builds: construction only
//! assert_eq!(stats.delta_annotations, 1); // the mutation repaired in place
//! assert_eq!(stats.snapshot_version, 2);
//! ```

use crate::constraint::ConstraintSet;
use crate::distance::{
    jaccard_topk_distance, kendall_topk_distance, predicate_distance, DistanceMeasure,
};
use crate::error::Result;
use crate::milp_model::{build_model, BuiltModel};
use crate::optimize::OptimizationConfig;
use crate::solver::RefinementSolver;
// Both session locks guard data that is consistent at every intermediate
// point (scalar stats bumps, single-`Arc` snapshot swaps), so poisoning by a
// crashed worker is recoverable — see `crate::sync` for the contract.
use crate::sync::{lock_or_recover, read_or_recover, write_or_recover};
use qr_milp::control::{CancelToken, SolveControl, SolveObserver};
use qr_milp::solution::SolveStats;
use qr_milp::{SolveStatus, Solver, SolverOptions};
use qr_provenance::{
    whatif::evaluate_refinement, AnnotatedRelation, PredicateAssignment, RankedOutput,
};
use qr_relation::{Database, DatabaseDelta, Row, RowId, SpjQuery, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Shared, amortized setup work of a [`RefinementSession`], reported
/// separately from the per-request [`RefinementStats`] so callers can verify
/// (and benchmarks can report) that annotation happens once per session, not
/// once per solve.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Total time spent deriving annotations of `~Q(D)` — full builds and
    /// incremental delta repairs combined.
    pub annotation_time: Duration,
    /// How many times the annotation was built *from scratch*: 1 at session
    /// construction, plus one per [`RefinementSession::apply`] whose delta
    /// exceeded the rebuild threshold (those are also counted in
    /// [`Self::full_rebuilds`]). Incremental repairs are counted in
    /// [`Self::delta_annotations`] instead, so for a session that only ever
    /// repairs incrementally this stays 1 — tests assert on it to pin the
    /// amortization contract.
    pub annotation_builds: usize,
    /// How many [`RefinementSession::apply`] calls repaired the annotation
    /// incrementally from the database delta.
    pub delta_annotations: usize,
    /// How many [`RefinementSession::apply`] calls fell back to a full
    /// rebuild because the delta exceeded the rebuild threshold.
    pub full_rebuilds: usize,
    /// Version of the currently installed [`AnnotatedSnapshot`] (1 at
    /// construction, +1 per applied mutation batch).
    pub snapshot_version: u64,
    /// Number of tuples of `~Q(D)` in the current snapshot.
    pub tuples: usize,
    /// Number of lineage equivalence classes in `~Q(D)` in the current
    /// snapshot.
    pub lineage_classes: usize,
}

/// Timing and model-size statistics of a single refinement solve, mirroring
/// the quantities the paper reports (setup time vs. solver time, program
/// size).
///
/// Setup is split into the *shared* part ([`Self::annotation_time`],
/// amortized across a session and therefore zero for solves through
/// [`RefinementSession`]) and the *per-request* part
/// ([`Self::model_build_time`]); [`Self::setup_time`] remains their sum,
/// matching the paper's single "Setup" column.
#[derive(Debug, Clone, Default)]
pub struct RefinementStats {
    /// Time spent building provenance annotations. Zero for a solve through
    /// a [`RefinementSession`] (the session paid it once, see
    /// [`SessionStats::annotation_time`]) unless the caller charged that
    /// setup to the request with [`Self::charge_annotation`].
    pub annotation_time: Duration,
    /// Time spent constructing the MILP (or preparing the search) for this
    /// specific request.
    pub model_build_time: Duration,
    /// Total setup: `annotation_time + model_build_time` ("Setup").
    pub setup_time: Duration,
    /// Time spent inside the MILP solver or search loop ("Solver").
    pub solver_time: Duration,
    /// Total wall-clock time of the solve.
    pub total_time: Duration,
    /// Number of MILP variables.
    pub num_variables: usize,
    /// Number of MILP integer/binary variables.
    pub num_integer_variables: usize,
    /// Number of MILP constraints.
    pub num_constraints: usize,
    /// Number of tuples of `~Q(D)` kept in the program (after pruning).
    pub scope_size: usize,
    /// Number of lineage equivalence classes in `~Q(D)`.
    pub lineage_classes: usize,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// LP relaxations solved.
    pub lp_solves: usize,
    /// Total simplex pivots across all LP solves (MILP backend only).
    pub simplex_iterations: usize,
    /// Node LPs warm-started from a parent basis (MILP backend only).
    pub warm_lp_solves: usize,
    /// Node LPs solved from a cold crash basis (MILP backend only).
    pub cold_lp_solves: usize,
    /// Basis LU refactorizations across all node LPs (MILP backend only).
    pub refactorizations: usize,
    /// Product-form eta updates across all node LPs — the factorized
    /// solver's per-pivot work proxy (MILP backend only).
    pub eta_updates: usize,
    /// Peak basis LU fill-in (nonzeros) across the solve (MILP backend
    /// only); compare against [`Self::matrix_nnz`].
    pub lu_nnz: usize,
    /// Nonzeros of the sparse constraint matrix the solver stored (MILP
    /// backend only).
    pub matrix_nnz: usize,
    /// Candidate refinements evaluated (exhaustive baselines only).
    pub candidates_evaluated: usize,
    /// Whether the solve was stopped by its [`SolveControl`] (cancellation
    /// or control deadline) before reaching a terminal answer.
    pub interrupted: bool,
    /// 1 when this solve resumed a suspended search through
    /// [`RefinementSession::resume`], 0 for a fresh solve (MILP backend
    /// only). A counter so it aggregates by addition.
    pub resumed_solves: usize,
    /// Open branch-and-bound frontier nodes restored from the resume state
    /// at the start of a resumed solve (MILP backend only).
    pub nodes_restored: usize,
    /// 1 when this solve ended interrupted with a resume checkpoint captured
    /// (see [`RefinementResult::resume`]), 0 otherwise (MILP backend only).
    pub resume_captures: usize,
    /// 1 when this result was served from the session's
    /// [`SolutionCache`](crate::cache::SolutionCache) memo — an exact
    /// (family, version, ε) hit; no model was built and no solver ran.
    /// A counter so it aggregates by addition.
    pub cache_hits: usize,
    /// 1 when a cache-enabled solve found no exact memo and had to run the
    /// solver (possibly warm-started, see [`Self::cache_warm_starts`]).
    /// Always 0 on sessions without a cache.
    pub cache_misses: usize,
    /// 1 when the MILP solve was seeded with a cached basis/incumbent from
    /// the nearest solved ε of the same model family (cross-request warm
    /// start; mirrors [`qr_milp::solution::SolveStats::warm_entry_solves`]).
    pub cache_warm_starts: usize,
}

impl RefinementStats {
    /// Fold a share of session setup into these stats, producing the
    /// one-shot view: end-to-end benchmark rows charge annotation to the
    /// single request that triggered it.
    pub fn charge_annotation(&mut self, annotation_time: Duration) {
        self.annotation_time += annotation_time;
        self.setup_time += annotation_time;
        self.total_time += annotation_time;
    }

    /// Stats of a request that just built `model` in `model_build_time`:
    /// the model's shape, with the build as the request's whole setup (the
    /// session paid for annotation). The one prologue of every MILP-backed
    /// solve — fresh, resumed and Erica-style.
    pub(crate) fn for_model(
        model: &qr_milp::Model,
        scope_size: usize,
        annotated: &AnnotatedRelation,
        model_build_time: Duration,
    ) -> Self {
        RefinementStats {
            model_build_time,
            setup_time: model_build_time,
            num_variables: model.num_variables(),
            num_integer_variables: model.num_integer_variables(),
            num_constraints: model.num_constraints(),
            scope_size,
            lineage_classes: annotated.classes().len(),
            ..RefinementStats::default()
        }
    }

    /// Route one MILP solve's counters into these stats — the one
    /// `SolveStats → RefinementStats` merge. It destructures exhaustively, so
    /// a solver counter added without deciding how it reaches this layer is
    /// a compile error here.
    pub(crate) fn record_solve(&mut self, solve: SolveStats) {
        let SolveStats {
            nodes,
            lp_solves,
            simplex_iterations,
            warm_lp_solves,
            cold_lp_solves,
            refactorizations,
            eta_updates,
            lu_nnz,
            matrix_nnz,
            solve_time,
            // The objective bound is already carried by the solution's
            // objective/status; refinement callers never read it.
            best_bound: _,
            interrupted,
            resumed_solves,
            nodes_restored,
            resume_captures,
            warm_entry_solves,
        } = solve;
        self.solver_time = solve_time;
        self.nodes = nodes;
        self.lp_solves = lp_solves;
        self.simplex_iterations = simplex_iterations;
        self.warm_lp_solves = warm_lp_solves;
        self.cold_lp_solves = cold_lp_solves;
        self.refactorizations = refactorizations;
        self.eta_updates = eta_updates;
        self.lu_nnz = lu_nnz;
        self.matrix_nnz = matrix_nnz;
        self.interrupted = interrupted;
        self.resumed_solves = resumed_solves;
        self.nodes_restored = nodes_restored;
        self.resume_captures = resume_captures;
        // The solver reports whether the caller-supplied warm entry actually
        // seeded the search (0 when warm starts are disabled in the solver
        // options), which is exactly what "warm-started from the cache"
        // should mean at this layer.
        self.cache_warm_starts = warm_entry_solves;
    }
}

/// A running aggregate of [`RefinementStats`] across many solves — the shape
/// a long-lived service reports from a metrics endpoint: counter fields are
/// summed, model-size fields keep their maximum, and interruptions are
/// counted rather than or-ed.
///
/// [`record`](Self::record) destructures [`RefinementStats`] exhaustively,
/// so adding a stats field without deciding how it aggregates is a compile
/// error here — the same no-unrouted-stats discipline as the solver merge
/// sites.
#[derive(Debug, Clone, Default)]
pub struct StatsAggregate {
    /// Number of solves recorded.
    pub solves: usize,
    /// How many of them ended [`RefinementOutcome::Interrupted`]
    /// (cancellation or deadline).
    pub interrupted: usize,
    /// Summed annotation time charged to the recorded requests.
    pub annotation_time: Duration,
    /// Summed per-request MILP/model construction time.
    pub model_build_time: Duration,
    /// Summed solver/search time.
    pub solver_time: Duration,
    /// Summed total wall-clock time.
    pub total_time: Duration,
    /// Summed branch-and-bound nodes.
    pub nodes: usize,
    /// Summed LP relaxations solved.
    pub lp_solves: usize,
    /// Summed simplex pivots.
    pub simplex_iterations: usize,
    /// Summed warm-started node LPs.
    pub warm_lp_solves: usize,
    /// Summed cold node LPs.
    pub cold_lp_solves: usize,
    /// Summed basis LU refactorizations.
    pub refactorizations: usize,
    /// Summed product-form eta updates.
    pub eta_updates: usize,
    /// Summed exhaustive-baseline candidates.
    pub candidates_evaluated: usize,
    /// How many recorded solves resumed a suspended search.
    pub resumed_solves: usize,
    /// Summed frontier nodes restored by resumed solves.
    pub nodes_restored: usize,
    /// How many recorded solves ended with a resume checkpoint captured.
    pub resume_captures: usize,
    /// How many recorded solves were served from the solution-cache memo.
    pub cache_hits: usize,
    /// How many cache-enabled solves missed the memo and ran the solver.
    pub cache_misses: usize,
    /// How many recorded solves were warm-started from a cached basis.
    pub cache_warm_starts: usize,
    /// Largest MILP (variables) seen.
    pub max_variables: usize,
    /// Largest MILP (constraints) seen.
    pub max_constraints: usize,
    /// Largest pruned scope (tuples of `~Q(D)` kept) seen.
    pub max_scope: usize,
    /// Peak basis LU fill (nonzeros) seen.
    pub max_lu_nnz: usize,
    /// Largest sparse constraint matrix (nonzeros) seen.
    pub max_matrix_nnz: usize,
}

impl StatsAggregate {
    /// An empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one solve's statistics into the aggregate.
    pub fn record(&mut self, stats: &RefinementStats) {
        // Exhaustive destructuring: a new `RefinementStats` field must pick
        // an aggregation (sum / max / count / deliberately derived) here.
        let RefinementStats {
            annotation_time,
            model_build_time,
            // Derived: always annotation_time + model_build_time, so
            // aggregating it separately would double-count setup.
            setup_time: _,
            solver_time,
            total_time,
            num_variables,
            // Subsumed by num_variables for sizing purposes.
            num_integer_variables: _,
            num_constraints,
            scope_size,
            // A property of the session's annotation, not of one solve.
            lineage_classes: _,
            nodes,
            lp_solves,
            simplex_iterations,
            warm_lp_solves,
            cold_lp_solves,
            refactorizations,
            eta_updates,
            lu_nnz,
            matrix_nnz,
            candidates_evaluated,
            interrupted,
            resumed_solves,
            nodes_restored,
            resume_captures,
            cache_hits,
            cache_misses,
            cache_warm_starts,
        } = stats;
        self.solves += 1;
        self.interrupted += usize::from(*interrupted);
        self.resumed_solves += resumed_solves;
        self.nodes_restored += nodes_restored;
        self.resume_captures += resume_captures;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.cache_warm_starts += cache_warm_starts;
        self.annotation_time += *annotation_time;
        self.model_build_time += *model_build_time;
        self.solver_time += *solver_time;
        self.total_time += *total_time;
        self.nodes += nodes;
        self.lp_solves += lp_solves;
        self.simplex_iterations += simplex_iterations;
        self.warm_lp_solves += warm_lp_solves;
        self.cold_lp_solves += cold_lp_solves;
        self.refactorizations += refactorizations;
        self.eta_updates += eta_updates;
        self.candidates_evaluated += candidates_evaluated;
        self.max_variables = self.max_variables.max(*num_variables);
        self.max_constraints = self.max_constraints.max(*num_constraints);
        self.max_scope = self.max_scope.max(*scope_size);
        self.max_lu_nnz = self.max_lu_nnz.max(*lu_nnz);
        self.max_matrix_nnz = self.max_matrix_nnz.max(*matrix_nnz);
    }
}

/// A refinement returned by a solver.
#[derive(Debug, Clone)]
pub struct RefinedQuery {
    /// The concrete predicate assignment.
    pub assignment: PredicateAssignment,
    /// The refined query (the original query with the assignment applied).
    pub query: SpjQuery,
    /// Exact value of the requested distance measure for this refinement.
    pub distance: f64,
    /// The MILP objective value (may differ slightly from `distance` for the
    /// outcome-based measures, whose objectives are linear surrogates).
    pub objective: f64,
    /// Exact deviation (Definition 2.6) of the refined query's output.
    pub deviation: f64,
    /// Whether the solver proved optimality (vs. stopping at a feasible
    /// solution at its node limit).
    pub proven_optimal: bool,
}

/// Outcome of a refinement run.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // the Refined payload is the common case
pub enum RefinementOutcome {
    /// A refinement within the maximum deviation was found.
    Refined(RefinedQuery),
    /// No refinement with deviation at most ε exists (or none was found
    /// within the solver's limits — see the flag).
    NoRefinement {
        /// True when the solver proved infeasibility; false when it merely
        /// hit its node limit first.
        proven_infeasible: bool,
    },
    /// The solve was interrupted by its [`SolveControl`] — a cancelled
    /// [`CancelToken`] or an exceeded unified deadline — before reaching a
    /// terminal answer. The best incumbent found so far (a genuinely
    /// feasible refinement within ε, just not proven optimal) is carried
    /// along, and the result's [`RefinementStats`] reflect all work done up
    /// to the interruption.
    Interrupted {
        /// Best incumbent at the moment of interruption, if any was found.
        best: Option<RefinedQuery>,
    },
}

impl RefinementOutcome {
    /// The refined query, if one was found — including the best incumbent of
    /// an [`Interrupted`](Self::Interrupted) solve.
    #[must_use]
    pub fn refined(&self) -> Option<&RefinedQuery> {
        match self {
            RefinementOutcome::Refined(r) => Some(r),
            RefinementOutcome::Interrupted { best } => best.as_ref(),
            RefinementOutcome::NoRefinement { .. } => None,
        }
    }

    /// Consume the outcome, yielding the refined query if one was found.
    #[must_use]
    pub fn into_refined(self) -> Option<RefinedQuery> {
        match self {
            RefinementOutcome::Refined(r) => Some(r),
            RefinementOutcome::Interrupted { best } => best,
            RefinementOutcome::NoRefinement { .. } => None,
        }
    }

    /// Whether a refinement within the deviation budget was found (true for
    /// an interrupted solve that carries an incumbent).
    #[must_use]
    pub fn is_refined(&self) -> bool {
        self.refined().is_some()
    }

    /// Whether the solve was interrupted (cancelled or past its unified
    /// deadline) before reaching a terminal answer.
    #[must_use]
    pub fn is_interrupted(&self) -> bool {
        matches!(self, RefinementOutcome::Interrupted { .. })
    }

    /// Whether this outcome is a *proven terminal* answer — an optimal
    /// refinement or proven infeasibility — i.e. a deterministic property of
    /// (snapshot, request) independent of solver limits. Only such outcomes
    /// are memoized by the [`SolutionCache`](crate::cache::SolutionCache).
    #[must_use]
    pub fn is_proven_terminal(&self) -> bool {
        match self {
            RefinementOutcome::Refined(r) => r.proven_optimal,
            RefinementOutcome::NoRefinement { proven_infeasible } => *proven_infeasible,
            RefinementOutcome::Interrupted { .. } => false,
        }
    }
}

/// Result of a refinement solve, common to every algorithm backend.
#[derive(Debug, Clone)]
pub struct RefinementResult {
    /// The outcome (refined query or proof of absence).
    pub outcome: RefinementOutcome,
    /// Timing and size statistics.
    pub stats: RefinementStats,
    /// Checkpoint for continuing an interrupted solve, present exactly when
    /// the MILP engine was interrupted with open branch-and-bound nodes
    /// remaining. Feed it to [`RefinementSession::resume`] under a fresh
    /// [`SolveControl`] to continue the search where it stopped. Always
    /// `None` for the non-MILP backends and for solves that ran to a
    /// terminal answer.
    pub resume: Option<SessionResume>,
}

/// Opaque checkpoint of an interrupted [`RefinementSession`] solve: the
/// suspended MILP search state (open frontier, warm bases, incumbent and
/// proven bound) pinned to the session snapshot version it was solving
/// against, together with the originating request (whose parameters are
/// needed to rebuild the byte-identical model on resume).
///
/// Obtained from [`RefinementResult::resume`]; consumed by
/// [`RefinementSession::resume`]. Resuming after the session was mutated
/// ([`RefinementSession::apply`]) fails with
/// [`CoreError::StaleResume`](crate::error::CoreError::StaleResume) — the
/// suspended search is only meaningful against the exact database version it
/// started on.
#[derive(Debug, Clone)]
pub struct SessionResume {
    /// Suspended branch-and-bound state (frontier, incumbent, bound).
    state: qr_milp::ResumeState,
    /// Version of the [`AnnotatedSnapshot`] the interrupted solve pinned.
    snapshot_version: u64,
    /// The originating request. Its `control` field is irrelevant here: the
    /// resumed segment runs under the fresh control passed to
    /// [`RefinementSession::resume`], so the stored copy carries a default.
    request: RefinementRequest,
}

impl SessionResume {
    /// Version of the session snapshot the interrupted solve was pinned to;
    /// [`RefinementSession::resume`] requires the session to still be at
    /// this version.
    pub fn snapshot_version(&self) -> u64 {
        self.snapshot_version
    }

    /// Number of open branch-and-bound nodes in the suspended frontier.
    pub fn num_open_nodes(&self) -> usize {
        self.state.num_open_nodes()
    }

    /// Best proven lower (dual) bound on the objective so far.
    pub fn best_bound(&self) -> f64 {
        self.state.best_bound()
    }

    /// Objective of the best incumbent found so far, if any.
    pub fn incumbent_objective(&self) -> Option<f64> {
        self.state.incumbent_objective()
    }

    /// Total branch-and-bound nodes processed across every completed segment
    /// of this search.
    pub fn nodes_so_far(&self) -> usize {
        self.state.nodes_so_far()
    }

    /// Number of interrupted solve segments behind this state (1 after the
    /// first interruption, +1 per resumed-and-reinterrupted segment).
    pub fn segments(&self) -> usize {
        self.state.segments()
    }

    /// The request whose parameters a resumed segment solves under
    /// (constraints, ε, distance, optimizations, solver budget — everything
    /// except the execution control).
    pub fn request(&self) -> &RefinementRequest {
        &self.request
    }
}

/// Everything that may vary between solves against one session: constraints,
/// deviation budget, distance measure, optimizations, and solver budget.
///
/// Build one with the consuming `with_*` methods; defaults match the paper's
/// (ε = 0.5, `DIS_pred`, all Section 4 optimizations, default solver budget).
#[derive(Debug, Clone)]
pub struct RefinementRequest {
    /// Cardinality constraints over the top-k of the result.
    pub constraints: ConstraintSet,
    /// Maximum deviation ε (Definition 2.7).
    pub epsilon: f64,
    /// Distance measure to minimise.
    pub distance: DistanceMeasure,
    /// Which Section 4 optimizations to apply when building the MILP.
    pub optimizations: OptimizationConfig,
    /// MILP search options: the node limit and the propagation, rounding
    /// and warm-start switches. The per-LP pivot cap is a solver constant,
    /// and the wall-clock limit is the [`control`](Self::control) deadline.
    pub solver_options: SolverOptions,
    /// Execution control: cooperative cancellation, the unified deadline
    /// honored by *every* backend (MILP, Naive, Erica), and an optional
    /// progress observer. Interrupting a solve through it yields
    /// [`RefinementOutcome::Interrupted`].
    pub control: SolveControl,
}

impl Default for RefinementRequest {
    fn default() -> Self {
        RefinementRequest {
            constraints: ConstraintSet::new(),
            epsilon: 0.5,
            distance: DistanceMeasure::Predicate,
            optimizations: OptimizationConfig::all(),
            solver_options: SolverOptions::default(),
            control: SolveControl::default(),
        }
    }
}

impl RefinementRequest {
    /// A request with the paper's defaults and no constraints yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the whole constraint set.
    #[must_use]
    pub fn with_constraints(mut self, constraints: ConstraintSet) -> Self {
        self.constraints = constraints;
        self
    }

    /// Add a single cardinality constraint.
    #[must_use]
    pub fn with_constraint(mut self, constraint: crate::constraint::CardinalityConstraint) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// Set the maximum deviation ε (default 0.5, the paper's default).
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Set the distance measure to minimise (default `DIS_pred`).
    #[must_use]
    pub fn with_distance(mut self, distance: DistanceMeasure) -> Self {
        self.distance = distance;
        self
    }

    /// Set which Section 4 optimizations to apply (default: all).
    #[must_use]
    pub fn with_optimizations(mut self, optimizations: OptimizationConfig) -> Self {
        self.optimizations = optimizations;
        self
    }

    /// Override the MILP search options (node limit, ablation switches).
    #[must_use]
    pub fn with_solver_options(mut self, options: SolverOptions) -> Self {
        self.solver_options = options;
        self
    }

    /// Bound the solve's wall-clock time — the one deadline, honored
    /// identically by every backend (the MILP engine, the exhaustive
    /// baselines, and the Erica-style baseline). Exceeding it yields
    /// [`RefinementOutcome::Interrupted`] carrying the best incumbent found.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.control = self.control.with_time_limit(limit);
        self
    }

    /// Bound the solve by an absolute point in time. Like
    /// [`with_time_limit`](Self::with_time_limit) this composes by
    /// *tightening*: stacked with a relative limit or an earlier deadline,
    /// the earlier stop wins — a serving layer can fold its own latency
    /// budget into a request without ever loosening the request's own.
    #[must_use]
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.control = self.control.with_deadline(deadline);
        self
    }

    /// Attach a cancellation token (keep a clone; calling
    /// [`CancelToken::cancel`] from any thread interrupts the solve within a
    /// few simplex pivots).
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.control = self.control.with_cancel_token(token);
        self
    }

    /// Attach a progress observer receiving incumbent / node / bound events
    /// while the MILP engine searches.
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<dyn SolveObserver>) -> Self {
        self.control = self.control.with_observer(observer);
        self
    }

    /// Replace the whole execution control (cancellation + deadline +
    /// observer), e.g. to share one control across a batch.
    #[must_use]
    pub fn with_control(mut self, control: SolveControl) -> Self {
        self.control = control;
        self
    }
}

/// One immutable version of a session's database together with the matching
/// provenance annotations of `~Q(D)`.
///
/// Snapshots are what solves actually run against: a solve pins the `Arc` of
/// the snapshot current when it starts and keeps it for its whole duration,
/// so a concurrent [`RefinementSession::apply`] — which installs a *new*
/// snapshot rather than mutating the current one — can never change a result
/// mid-flight.
#[derive(Debug, Clone)]
pub struct AnnotatedSnapshot {
    version: u64,
    db: Database,
    annotated: AnnotatedRelation,
}

impl AnnotatedSnapshot {
    /// Monotonic version: 1 for the snapshot built at session construction,
    /// +1 per applied mutation batch.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The database state of this snapshot.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The provenance annotations of `~Q(D)` for this snapshot's database.
    pub fn annotated(&self) -> &AnnotatedRelation {
        &self.annotated
    }
}

/// One tuple-level database mutation, addressed by relation name and stable
/// [`RowId`]s, applied through [`RefinementSession::apply`].
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Append rows to a relation (ids are assigned by the database and
    /// reported in the session's delta bookkeeping).
    Insert {
        /// Name of the relation to insert into.
        relation: String,
        /// The rows to append, matching the relation's schema.
        rows: Vec<Row>,
    },
    /// Delete rows by stable id.
    Delete {
        /// Name of the relation to delete from.
        relation: String,
        /// Stable ids of the rows to delete.
        ids: Vec<RowId>,
    },
    /// Replace the values of existing rows in place (ids and ranking
    /// tie-break positions are kept).
    Update {
        /// Name of the relation to update.
        relation: String,
        /// `(row id, new row)` pairs; the new rows must match the schema.
        updates: Vec<(RowId, Row)>,
    },
}

impl Mutation {
    /// Insert rows into `relation`.
    pub fn insert(relation: impl Into<String>, rows: Vec<Row>) -> Self {
        Mutation::Insert {
            relation: relation.into(),
            rows,
        }
    }

    /// Delete the rows of `relation` with the given stable ids.
    pub fn delete(relation: impl Into<String>, ids: Vec<RowId>) -> Self {
        Mutation::Delete {
            relation: relation.into(),
            ids,
        }
    }

    /// Update rows of `relation` in place.
    pub fn update(relation: impl Into<String>, updates: Vec<(RowId, Row)>) -> Self {
        Mutation::Update {
            relation: relation.into(),
            updates,
        }
    }
}

/// A prepared refinement context: query + a versioned, atomically swapped
/// [`AnnotatedSnapshot`] (database + provenance annotations, the latter built
/// in full exactly once and repaired incrementally on mutation). See the
/// [module docs](self) for the why, a sweep example and the live-session
/// semantics.
#[derive(Debug)]
pub struct RefinementSession {
    query: SpjQuery,
    /// Current snapshot; read-locked only long enough to clone the `Arc`.
    current: RwLock<Arc<AnnotatedSnapshot>>,
    /// Accumulated setup statistics; doubles as the writer lock serializing
    /// [`apply`](RefinementSession::apply) calls.
    stats: Mutex<SessionStats>,
    /// Optional cross-request solution cache (`None` = reuse disabled, the
    /// default). See [`with_solution_cache`](Self::with_solution_cache).
    cache: Option<crate::cache::SolutionCache>,
}

impl Clone for RefinementSession {
    /// Cloning forks the session at its current snapshot: the clone starts
    /// from the same version and stats, and future [`apply`](Self::apply)
    /// calls on either side are independent. The clone gets a **fresh,
    /// empty** solution cache of the same capacity: after a fork, the two
    /// sides' snapshot versions advance independently, so a shared cache
    /// would conflate entries from diverged databases that happen to carry
    /// the same version number.
    fn clone(&self) -> Self {
        // The stats lock is `apply`'s writer lock, held until the new
        // snapshot is installed: reading the snapshot under it keeps the
        // clone's snapshot and stats from two different versions.
        let stats = lock_or_recover(&self.stats);
        RefinementSession {
            query: self.query.clone(),
            current: RwLock::new(self.snapshot()),
            stats: Mutex::new(stats.clone()),
            cache: self
                .cache
                .as_ref()
                .map(|c| crate::cache::SolutionCache::new(c.capacity())),
        }
    }
}

impl RefinementSession {
    /// Create a session for a query over a database, building the provenance
    /// annotations of `~Q(D)` now so that no subsequent solve has to. The
    /// initial snapshot has version 1.
    pub fn new(db: Database, query: SpjQuery) -> Result<Self> {
        let start = Instant::now();
        let annotated = AnnotatedRelation::build(&db, &query)?;
        let setup = SessionStats {
            annotation_time: start.elapsed(),
            annotation_builds: 1,
            delta_annotations: 0,
            full_rebuilds: 0,
            snapshot_version: 1,
            tuples: annotated.len(),
            lineage_classes: annotated.classes().len(),
        };
        Ok(RefinementSession {
            query,
            current: RwLock::new(Arc::new(AnnotatedSnapshot {
                version: 1,
                db,
                annotated,
            })),
            stats: Mutex::new(setup),
            cache: None,
        })
    }

    /// Enable cross-request solution reuse: retain up to `capacity` solved
    /// models' optimal bases, incumbents and proven outcomes in a
    /// [`SolutionCache`](crate::cache::SolutionCache), so later solves of
    /// the same constraint family warm-start from the nearest solved ε (and
    /// exact repeats skip the solver entirely). `capacity == 0` disables the
    /// cache. Reuse is observable per solve through
    /// [`RefinementStats::cache_hits`] / [`RefinementStats::cache_misses`] /
    /// [`RefinementStats::cache_warm_starts`].
    ///
    /// Invalidation is automatic and typed: cache keys carry the snapshot
    /// version, so [`apply`](Self::apply) (which bumps it) makes every older
    /// entry unreachable — a mutated session can never serve a stale answer.
    #[must_use]
    pub fn with_solution_cache(mut self, capacity: usize) -> Self {
        self.cache = (capacity > 0).then(|| crate::cache::SolutionCache::new(capacity));
        self
    }

    /// The session's solution cache, when one was enabled via
    /// [`with_solution_cache`](Self::with_solution_cache).
    pub fn solution_cache(&self) -> Option<&crate::cache::SolutionCache> {
        self.cache.as_ref()
    }

    /// The original (unrefined) query.
    pub fn query(&self) -> &SpjQuery {
        &self.query
    }

    /// Pin the current snapshot. The returned `Arc` stays valid (and
    /// unchanged) for as long as the caller holds it, no matter how many
    /// mutations are applied concurrently.
    pub fn snapshot(&self) -> Arc<AnnotatedSnapshot> {
        Arc::clone(&read_or_recover(&self.current))
    }

    /// Version of the current snapshot (1 at construction, +1 per applied
    /// mutation batch).
    pub fn version(&self) -> u64 {
        self.snapshot().version
    }

    /// Apply a batch of tuple-level [`Mutation`]s, atomically installing a
    /// new [`AnnotatedSnapshot`] with the next version, and return that
    /// version.
    ///
    /// The annotations of the new snapshot are repaired incrementally from
    /// the typed [`DatabaseDelta`] the mutations produce (see
    /// [`AnnotatedRelation::apply_delta`]); only when the composed delta
    /// exceeds the rebuild threshold does a full rebuild run (counted in
    /// [`SessionStats::full_rebuilds`]). In-flight solves keep the snapshot
    /// they pinned at start and are not affected. Writers are serialized;
    /// readers are never blocked for longer than an `Arc` clone.
    ///
    /// The batch is atomic: if any mutation fails (unknown relation or row
    /// id, arity/type mismatch), no new snapshot is installed and the
    /// session is unchanged.
    pub fn apply(&self, mutations: impl IntoIterator<Item = Mutation>) -> Result<u64> {
        // The stats mutex doubles as the writer lock: clone-mutate-repair
        // happens outside the snapshot RwLock so readers never wait on it.
        let mut stats = lock_or_recover(&self.stats);
        let current = self.snapshot();
        let mut db = current.db.clone();
        let mut delta = DatabaseDelta::new();
        for mutation in mutations {
            let step = match mutation {
                Mutation::Insert { relation, rows } => db.insert_rows(&relation, rows)?,
                Mutation::Delete { relation, ids } => db.delete_rows(&relation, &ids)?,
                Mutation::Update { relation, updates } => db.update_rows(&relation, updates)?,
            };
            delta.merge(step);
        }
        let start = Instant::now();
        let repaired = current.annotated.apply_delta(&db, &delta)?;
        // Exhaustive destructuring: adding a `SessionStats` field without
        // deciding how a mutation batch updates it is a compile error here.
        let SessionStats {
            annotation_time,
            annotation_builds,
            delta_annotations,
            full_rebuilds,
            snapshot_version,
            tuples,
            lineage_classes,
        } = &mut *stats;
        *annotation_time += start.elapsed();
        if repaired.rebuilt {
            *annotation_builds += 1;
            *full_rebuilds += 1;
        } else {
            *delta_annotations += 1;
        }
        let version = current.version + 1;
        *snapshot_version = version;
        *tuples = repaired.annotated.len();
        *lineage_classes = repaired.annotated.classes().len();
        let snapshot = Arc::new(AnnotatedSnapshot {
            version,
            db,
            annotated: repaired.annotated,
        });
        *write_or_recover(&self.current) = snapshot;
        Ok(version)
    }

    /// Statistics of the shared setup work: annotation time, full builds vs.
    /// incremental delta repairs, and the current snapshot version. Returned
    /// by value (a consistent copy under the stats lock).
    pub fn setup_stats(&self) -> SessionStats {
        lock_or_recover(&self.stats).clone()
    }

    /// Solve one Best Approximation Refinement request with the MILP engine,
    /// against the snapshot current when the call starts.
    ///
    /// The returned stats have [`RefinementStats::annotation_time`] zero: the
    /// session already paid annotation at construction (see
    /// [`setup_stats`](Self::setup_stats)).
    pub fn solve(&self, request: &RefinementRequest) -> Result<RefinementResult> {
        self.solve_on(&self.snapshot(), request)
    }

    /// Solve one request against an explicitly pinned [`AnnotatedSnapshot`]
    /// (obtained from [`snapshot`](Self::snapshot)); lets a caller run many
    /// solves against one coherent database version regardless of concurrent
    /// [`apply`](Self::apply) calls.
    pub fn solve_on(
        &self,
        snapshot: &AnnotatedSnapshot,
        request: &RefinementRequest,
    ) -> Result<RefinementResult> {
        let start = Instant::now();
        let annotated = snapshot.annotated();

        // Cross-request reuse, step 1: an exact (family, version, ε) memo
        // hit is equivalent to re-solving — only proven outcomes are ever
        // memoized — and skips even the model build.
        let cache_key = self
            .cache
            .as_ref()
            .map(|_| crate::cache::CacheKey::for_request(snapshot.version(), request));
        if let (Some(cache), Some(key)) = (&self.cache, &cache_key) {
            if let Some(mut hit) = cache.lookup_exact(key) {
                // The memoized stats describe the original solve; replace
                // them with this request's actual (near-zero) work, keeping
                // the model-shape fields for observability.
                hit.stats = RefinementStats {
                    num_variables: hit.stats.num_variables,
                    num_integer_variables: hit.stats.num_integer_variables,
                    num_constraints: hit.stats.num_constraints,
                    scope_size: hit.stats.scope_size,
                    lineage_classes: hit.stats.lineage_classes,
                    cache_hits: 1,
                    total_time: start.elapsed(),
                    ..RefinementStats::default()
                };
                hit.resume = None;
                return Ok(hit);
            }
        }

        // Per-request setup: MILP construction over the pinned annotations.
        let (built, mut stats) = build_request_model(annotated, request, start)?;
        // Reaching this point on a cache-enabled session means the memo
        // lookup above came back empty.
        stats.cache_misses = usize::from(self.cache.is_some());

        // Exact fast path: if the original query already deviates by at most
        // ε (and its output is long enough for the top-k* constraints to
        // apply, matching the model's `min_output_size` row), it is itself
        // the optimal refinement — every distance measure is zero on the
        // identity refinement and non-negative elsewhere (Definition 2.7), so
        // no search can do better.
        let original = PredicateAssignment::from_query(&self.query);
        let original_output = evaluate_refinement(annotated, &original);
        let original_deviation = request
            .constraints
            .deviation_of_output(annotated, &original_output.selected);
        if original_output.selected.len() >= built.k_star
            && original_deviation <= request.epsilon + qr_milp::tol::ABSOLUTE_GAP
        {
            let refined = self.describe(
                snapshot,
                request,
                &built,
                original,
                0.0,
                SolveStatus::Optimal,
            );
            stats.total_time = start.elapsed();
            let result = RefinementResult {
                outcome: RefinementOutcome::Refined(refined),
                stats,
                resume: None,
            };
            // The identity refinement is a proven optimum: memoize it so an
            // exact repeat skips the model build (and this evaluation) too.
            if let (Some(cache), Some(key)) = (&self.cache, cache_key) {
                cache.insert(key, None, None, Some(result.clone()));
            }
            return Ok(result);
        }

        // Solve — warm-started from the nearest solved ε of this model
        // family when the cache has a donor. The basis seeds the root node;
        // the incumbent is revalidated against *this* model before it may
        // bound anything, so a hint can never change the answer.
        let solver = Solver::new(request.solver_options.clone());
        let warm_hint = match (&self.cache, &cache_key) {
            (Some(cache), Some(key)) => cache.lookup_warm(key),
            _ => None,
        };
        let solution = match warm_hint {
            Some(hint) => {
                let mut warm = qr_milp::WarmStart::new();
                if let Some(basis) = hint.basis {
                    warm = warm.with_basis(basis);
                }
                if let Some(incumbent) = hint.incumbent {
                    warm = warm.with_incumbent(incumbent);
                }
                solver.solve_warm_with_control(&built.model, &warm, &request.control)?
            }
            None => solver.solve_with_control(&built.model, &request.control)?,
        };

        // Cross-request reuse, step 2: bank this solve's artifacts. The
        // basis/incumbent are warm hints for neighbouring ε; the full result
        // is memoized only when proven terminal.
        let banked_basis = solution.basis.clone();
        let banked_incumbent = solution
            .status
            .has_solution()
            .then(|| solution.values.clone());
        let result = self.finish_milp_solve(snapshot, request, &built, solution, stats, start);
        if let (Some(cache), Some(key)) = (&self.cache, cache_key) {
            let memo = result.outcome.is_proven_terminal().then(|| {
                let mut memo = result.clone();
                memo.resume = None;
                memo
            });
            cache.insert(key, banked_basis, banked_incumbent, memo);
        }
        Ok(result)
    }

    /// Continue an interrupted solve from its [`SessionResume`] checkpoint,
    /// under a fresh [`SolveControl`] (a new deadline, cancel token and/or
    /// observer — the original request's control does not apply).
    ///
    /// The session must still be at the snapshot version the interrupted
    /// solve was pinned to; if a mutation was applied in between, the
    /// suspended search would continue against a database that no longer
    /// exists, so this fails with
    /// [`CoreError::StaleResume`](crate::error::CoreError::StaleResume)
    /// instead. The model is rebuilt deterministically from the stored
    /// request against the pinned snapshot (the rebuild is fingerprint-checked
    /// by the MILP layer), and the search continues exactly where it stopped:
    /// pruned subtrees are never re-explored, and a chain of small-deadline
    /// resumes converges to the same answer as one uninterrupted solve.
    ///
    /// The returned result reports *this segment's* statistics, with
    /// [`RefinementStats::resumed_solves`] and
    /// [`RefinementStats::nodes_restored`] set; if the segment is itself
    /// interrupted, [`RefinementResult::resume`] carries the next checkpoint.
    pub fn resume(
        &self,
        resume: &SessionResume,
        control: &SolveControl,
    ) -> Result<RefinementResult> {
        let start = Instant::now();
        let snapshot = self.snapshot();
        if snapshot.version() != resume.snapshot_version {
            return Err(crate::error::CoreError::StaleResume {
                resume_version: resume.snapshot_version,
                session_version: snapshot.version(),
            });
        }
        let request = &resume.request;
        // Deterministic rebuild of the model the checkpoint was captured
        // from: same snapshot + same request parameters → byte-identical
        // coefficients. The MILP layer re-verifies via the structural
        // fingerprint before continuing.
        let (built, stats) = build_request_model(snapshot.annotated(), request, start)?;
        let solver = Solver::new(request.solver_options.clone());
        let solution = solver.resume_with_control(&built.model, &resume.state, control)?;
        Ok(self.finish_milp_solve(&snapshot, request, &built, solution, stats, start))
    }

    /// Package a MILP [`qr_milp::Solution`] into a [`RefinementResult`]
    /// against one pinned snapshot — the shared tail of
    /// [`solve_on`](Self::solve_on) and [`resume`](Self::resume): route the
    /// solver statistics, describe the assignment or incumbent, and pin any
    /// captured resume state to the snapshot version.
    fn finish_milp_solve(
        &self,
        snapshot: &AnnotatedSnapshot,
        request: &RefinementRequest,
        built: &BuiltModel,
        solution: qr_milp::Solution,
        mut stats: RefinementStats,
        start: Instant,
    ) -> RefinementResult {
        stats.record_solve(solution.stats);
        stats.total_time = start.elapsed();

        let outcome = match solution.status {
            SolveStatus::Optimal | SolveStatus::Feasible => {
                let assignment = built.extract_assignment(&solution.values);
                let refined = self.describe(
                    snapshot,
                    request,
                    built,
                    assignment,
                    solution.objective,
                    solution.status,
                );
                RefinementOutcome::Refined(refined)
            }
            SolveStatus::Infeasible | SolveStatus::Unbounded => RefinementOutcome::NoRefinement {
                proven_infeasible: true,
            },
            SolveStatus::LimitReached => RefinementOutcome::NoRefinement {
                proven_infeasible: false,
            },
            SolveStatus::Interrupted => {
                // The incumbent (when one exists) is a feasible refinement
                // within ε; package it exactly like a Feasible answer, but
                // keep the interruption visible in the outcome.
                let best = (!solution.values.is_empty()).then(|| {
                    let assignment = built.extract_assignment(&solution.values);
                    self.describe(
                        snapshot,
                        request,
                        built,
                        assignment,
                        solution.objective,
                        solution.status,
                    )
                });
                RefinementOutcome::Interrupted { best }
            }
        };

        // Pin the suspended search (if any) to this snapshot's version; the
        // stored request re-derives the identical model on resume. The
        // stored control is neutralized — a resumed segment always runs
        // under the fresh control passed to `resume`.
        let resume = solution.resume.map(|state| SessionResume {
            state: *state,
            snapshot_version: snapshot.version(),
            request: request.clone().with_control(SolveControl::default()),
        });

        RefinementResult {
            outcome,
            stats,
            resume,
        }
    }

    /// Solve one request with an explicitly chosen algorithm backend (the
    /// MILP engine, an exhaustive baseline, or the Erica-style baseline).
    pub fn solve_with(
        &self,
        solver: &dyn RefinementSolver,
        request: &RefinementRequest,
    ) -> Result<RefinementResult> {
        solver.solve(self, request)
    }

    /// Solve a batch of requests in order, all against the single snapshot
    /// current when the batch starts (so a concurrent [`apply`](Self::apply)
    /// cannot make the batch internally inconsistent).
    pub fn solve_batch(&self, requests: &[RefinementRequest]) -> Result<Vec<RefinementResult>> {
        let snapshot = self.snapshot();
        requests
            .iter()
            .map(|r| self.solve_on(&snapshot, r))
            .collect()
    }

    /// Solve a batch of requests on an internal pool of `workers` OS
    /// threads, sharing this session's annotations across all of them (the
    /// session is `Send + Sync`; each solve builds its own MILP and
    /// workspace, so nothing is locked on the hot path).
    ///
    /// Results come back **in request order**, and each individual result is
    /// identical to what the sequential [`solve_batch`](Self::solve_batch)
    /// returns for the same request (the solver is deterministic; only the
    /// timing statistics differ). `workers <= 1` degenerates to the
    /// sequential path.
    ///
    /// ```
    /// use qr_core::paper_example::{paper_database, scholarship_constraints, scholarship_query};
    /// use qr_core::prelude::*;
    ///
    /// let session = RefinementSession::new(paper_database(), scholarship_query()).unwrap();
    /// let requests: Vec<RefinementRequest> = [0.0, 0.25, 0.5]
    ///     .iter()
    ///     .map(|&eps| {
    ///         RefinementRequest::new()
    ///             .with_constraints(scholarship_constraints())
    ///             .with_epsilon(eps)
    ///     })
    ///     .collect();
    /// let results = session.solve_batch_parallel(&requests, 4).unwrap();
    /// assert_eq!(results.len(), 3);
    /// assert_eq!(session.setup_stats().annotation_builds, 1);
    /// ```
    pub fn solve_batch_parallel(
        &self,
        requests: &[RefinementRequest],
        workers: usize,
    ) -> Result<Vec<RefinementResult>> {
        // One snapshot for the whole batch: every worker solves against the
        // same pinned database version, exactly like the sequential path.
        let snapshot = self.snapshot();
        self.run_parallel(requests.len(), workers, |i| {
            self.solve_on(&snapshot, &requests[i])
        })
    }

    /// Sweep the maximum deviation ε over a base request (as in Figure 5),
    /// annotation paid once by the session rather than once per ε.
    pub fn sweep_epsilon(
        &self,
        base: &RefinementRequest,
        epsilons: &[f64],
    ) -> Result<Vec<RefinementResult>> {
        let snapshot = self.snapshot();
        epsilons
            .iter()
            .map(|&eps| self.solve_on(&snapshot, &base.clone().with_epsilon(eps)))
            .collect()
    }

    /// [`sweep_epsilon`](Self::sweep_epsilon) across an internal pool of
    /// `workers` threads; results are ordered like `epsilons` and identical
    /// to the sequential sweep's.
    pub fn sweep_epsilon_parallel(
        &self,
        base: &RefinementRequest,
        epsilons: &[f64],
        workers: usize,
    ) -> Result<Vec<RefinementResult>> {
        let snapshot = self.snapshot();
        self.run_parallel(epsilons.len(), workers, |i| {
            self.solve_on(&snapshot, &base.clone().with_epsilon(epsilons[i]))
        })
    }

    /// Shared worker-pool driver: run `task` for indices `0..len` on up to
    /// `workers` scoped std threads, handing out indices through one atomic
    /// counter (dynamic load balancing — solves vary wildly in cost) and
    /// reassembling results in index order for deterministic output.
    fn run_parallel<F>(&self, len: usize, workers: usize, task: F) -> Result<Vec<RefinementResult>>
    where
        F: Fn(usize) -> Result<RefinementResult> + Sync,
    {
        let workers = workers.min(len);
        if workers <= 1 {
            return (0..len).map(task).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<RefinementResult>>> = (0..len).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done: Vec<(usize, Result<RefinementResult>)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= len {
                                break done;
                            }
                            done.push((i, task(i)));
                        }
                    })
                })
                .collect();
            for handle in handles {
                // lint: allow-panic(join only fails if the worker panicked; re-raising on the caller's thread is the correct propagation)
                for (i, result) in handle.join().expect("batch worker panicked") {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            // lint: allow-panic(the atomic counter hands each index in 0..len to exactly one worker)
            .map(|slot| slot.expect("every index was handed to exactly one worker"))
            .collect()
    }

    /// Compute the exact distance/deviation of an assignment against one
    /// pinned snapshot and package it.
    fn describe(
        &self,
        snapshot: &AnnotatedSnapshot,
        request: &RefinementRequest,
        built: &BuiltModel,
        assignment: PredicateAssignment,
        objective: f64,
        status: SolveStatus,
    ) -> RefinedQuery {
        let annotated = snapshot.annotated();
        let refined_query = assignment.apply_to(&self.query);
        let output = evaluate_refinement(annotated, &assignment);
        let deviation = request
            .constraints
            .deviation_of_output(annotated, &output.selected);
        let distance = exact_distance(
            request.distance,
            annotated,
            &self.query,
            &assignment,
            built.k_star,
        );
        RefinedQuery {
            assignment,
            query: refined_query,
            distance,
            objective,
            deviation,
            proven_optimal: status == SolveStatus::Optimal,
        }
    }
}

/// Build `request`'s MILP over `annotated` and the stats of a request that
/// started at `start` and has just paid for that build — the setup shared by
/// [`RefinementSession::solve_on`] and [`RefinementSession::resume`].
fn build_request_model(
    annotated: &AnnotatedRelation,
    request: &RefinementRequest,
    start: Instant,
) -> Result<(BuiltModel, RefinementStats)> {
    let built = build_model(
        annotated,
        &request.constraints,
        request.epsilon,
        request.distance,
        &request.optimizations,
    )?;
    let stats = RefinementStats::for_model(
        &built.model,
        built.vars.scope.len(),
        annotated,
        start.elapsed(),
    );
    Ok((built, stats))
}

/// Identity key of an output tuple for top-k comparisons: the DISTINCT key if
/// the query de-duplicates (so the "same" entity selected through a different
/// join partner still counts as the same item), otherwise the tuple's
/// position in `~Q(D)`.
fn identity_key(annotated: &AnnotatedRelation, tuple_index: usize) -> Vec<Value> {
    match &annotated.tuples()[tuple_index].distinct_key {
        Some(key) => key.clone(),
        None => vec![Value::Int(tuple_index as i64)],
    }
}

/// Exact value of a distance measure for a concrete refinement.
pub fn exact_distance(
    measure: DistanceMeasure,
    annotated: &AnnotatedRelation,
    query: &SpjQuery,
    assignment: &PredicateAssignment,
    k_star: usize,
) -> f64 {
    match measure {
        DistanceMeasure::Predicate => predicate_distance(query, assignment),
        DistanceMeasure::JaccardTopK | DistanceMeasure::KendallTopK => {
            let original = evaluate_refinement(annotated, &PredicateAssignment::from_query(query));
            let refined = evaluate_refinement(annotated, assignment);
            let orig_keys: Vec<Vec<Value>> = original
                .top_k(k_star)
                .iter()
                .map(|&t| identity_key(annotated, t))
                .collect();
            let refined_keys: Vec<Vec<Value>> = refined
                .top_k(k_star)
                .iter()
                .map(|&t| identity_key(annotated, t))
                .collect();
            match measure {
                DistanceMeasure::JaccardTopK => jaccard_topk_distance(&orig_keys, &refined_keys),
                _ => kendall_topk_distance(&orig_keys, &refined_keys),
            }
        }
    }
}

/// Exact deviation of a concrete refinement's output (Definition 2.6).
pub fn exact_deviation(
    annotated: &AnnotatedRelation,
    constraints: &ConstraintSet,
    assignment: &PredicateAssignment,
) -> (f64, RankedOutput) {
    let output = evaluate_refinement(annotated, assignment);
    (
        constraints.deviation_of_output(annotated, &output.selected),
        output,
    )
}

// The concurrent-service contract: a session (and everything needed to
// submit requests to it and read results back) can cross and be shared
// across threads. Compile-time check — reintroducing interior mutability or
// an `Rc` anywhere in these types stops the build here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RefinementSession>();
    assert_send_sync::<AnnotatedSnapshot>();
    assert_send_sync::<Mutation>();
    assert_send_sync::<RefinementRequest>();
    assert_send_sync::<RefinementResult>();
    assert_send_sync::<RefinementOutcome>();
    assert_send_sync::<RefinementStats>();
    assert_send_sync::<SessionStats>();
    assert_send_sync::<StatsAggregate>();
    assert_send_sync::<RefinedQuery>();
    assert_send_sync::<SessionResume>();
    assert_send_sync::<crate::cache::SolutionCache>();
    assert_send_sync::<crate::cache::CacheKey>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{CardinalityConstraint, Group};
    use crate::paper_example::{paper_database, scholarship_constraints, scholarship_query};
    use qr_relation::CmpOp;

    fn paper_session() -> RefinementSession {
        RefinementSession::new(paper_database(), scholarship_query()).unwrap()
    }

    fn solve_paper(
        distance: DistanceMeasure,
        epsilon: f64,
        constraints: ConstraintSet,
        optimizations: OptimizationConfig,
    ) -> RefinementResult {
        paper_session()
            .solve(
                &RefinementRequest::new()
                    .with_constraints(constraints)
                    .with_epsilon(epsilon)
                    .with_distance(distance)
                    .with_optimizations(optimizations),
            )
            .unwrap()
    }

    #[test]
    fn scholarship_example_predicate_distance() {
        // Example 1.2: the closest refinement under DIS_pred that puts >= 3
        // women in the top-6 (and <= 1 high income in the top-3) adds SO to
        // the Activity predicate, at distance 0.5.
        let result = solve_paper(
            DistanceMeasure::Predicate,
            0.0,
            scholarship_constraints(),
            OptimizationConfig::all(),
        );
        let refined = result.outcome.refined().expect("a refinement exists");
        assert_eq!(refined.deviation, 0.0);
        assert!(refined.proven_optimal);
        assert!(
            (refined.distance - 0.5).abs() < 1e-6,
            "expected the Example 1.2 refinement at distance 0.5, got {} ({:?})",
            refined.distance,
            refined.assignment
        );
        let activity = &refined.assignment.categorical["Activity"];
        assert!(activity.contains("RB") && activity.contains("SO"));
        // GPA threshold unchanged.
        let gpa = refined.assignment.numeric[&("GPA".to_string(), CmpOp::Ge)];
        assert!((gpa - 3.7).abs() < 1e-9);
    }

    #[test]
    fn optimizations_do_not_change_the_optimum() {
        for config in [OptimizationConfig::all(), OptimizationConfig::none()] {
            let result = solve_paper(
                DistanceMeasure::Predicate,
                0.0,
                scholarship_constraints(),
                config,
            );
            let refined = result.outcome.refined().expect("a refinement exists");
            assert!((refined.distance - 0.5).abs() < 1e-6, "config {config:?}");
            assert_eq!(refined.deviation, 0.0);
        }
    }

    #[test]
    fn jaccard_distance_prefers_output_overlap() {
        // Under DIS_Jaccard at k*=3 (only the high-income constraint), the
        // Example 1.3 style refinement keeps more of the original top-3 than
        // the Example 1.2 one (cf. Example 2.3).
        let constraints = ConstraintSet::new().with(CardinalityConstraint::at_most(
            Group::single("Income", "High"),
            3,
            1,
        ));
        let result = solve_paper(
            DistanceMeasure::JaccardTopK,
            0.0,
            constraints,
            OptimizationConfig::all(),
        );
        let refined = result.outcome.refined().expect("a refinement exists");
        assert_eq!(refined.deviation, 0.0);
        // The original top-3 is {t4, t7, t8} with two high-income students; a
        // best refinement keeps 2 of 3 originals (Jaccard distance 0.5).
        assert!(
            refined.distance <= 0.5 + 1e-6,
            "distance {}",
            refined.distance
        );
    }

    #[test]
    fn theorem_2_5_no_refinement_case() {
        // The Table 3 instance of Theorem 2.5: no refinement can put 2 tuples
        // of group X='B' in the top-3 when ε = 0.
        use qr_relation::{DataType, Relation, SortOrder};
        let mut db = Database::new();
        db.insert(
            Relation::build("T")
                .column("X", DataType::Text)
                .column("Y", DataType::Text)
                .column("Z", DataType::Int)
                .rows(vec![
                    vec!["A".into(), "C".into(), 6.into()],
                    vec!["A".into(), "D".into(), 5.into()],
                    vec!["A".into(), "D".into(), 4.into()],
                    vec!["B".into(), "C".into(), 3.into()],
                    vec!["A".into(), "C".into(), 2.into()],
                    vec!["B".into(), "D".into(), 1.into()],
                ])
                .finish()
                .unwrap(),
        )
        .expect("fresh relation name");
        let query = SpjQuery::builder("T")
            .categorical_predicate("Y", ["C", "D"])
            .order_by("Z", SortOrder::Descending)
            .build()
            .unwrap();
        let session = RefinementSession::new(db, query).unwrap();
        let base = RefinementRequest::new()
            .with_constraint(CardinalityConstraint::at_least(
                Group::single("X", "B"),
                3,
                2,
            ))
            .with_distance(DistanceMeasure::Predicate);
        let result = session.solve(&base.clone().with_epsilon(0.0)).unwrap();
        assert!(matches!(
            result.outcome,
            RefinementOutcome::NoRefinement {
                proven_infeasible: true
            }
        ));
        // With ε = 0.5 a best-approximation refinement (1 of 2 required B
        // tuples, deviation 0.5) is returned instead — through the same
        // session, without re-annotating.
        let result = session.solve(&base.with_epsilon(0.5)).unwrap();
        let refined = result
            .outcome
            .refined()
            .expect("approximate refinement exists");
        assert!(refined.deviation <= 0.5 + 1e-9);
        assert_eq!(session.setup_stats().annotation_builds, 1);
    }

    #[test]
    fn stats_are_populated_and_split() {
        let result = solve_paper(
            DistanceMeasure::Predicate,
            0.5,
            scholarship_constraints(),
            OptimizationConfig::all(),
        );
        let stats = &result.stats;
        assert!(stats.num_variables > 0);
        assert!(stats.num_constraints > 0);
        assert!(stats.num_integer_variables > 0);
        assert!(stats.scope_size > 0);
        assert!(stats.lineage_classes > 0);
        assert!(stats.total_time >= stats.setup_time);
        // Session solves never re-annotate: the shared part is zero and the
        // setup column is exactly the per-request model build.
        assert_eq!(stats.annotation_time, Duration::ZERO);
        assert_eq!(stats.setup_time, stats.model_build_time);
    }

    #[test]
    fn original_query_already_satisfying_gives_zero_distance() {
        // A trivial constraint the original query already satisfies: at least
        // one high-income student in the top-6.
        let constraints = ConstraintSet::new().with(CardinalityConstraint::at_least(
            Group::single("Income", "High"),
            6,
            1,
        ));
        let result = solve_paper(
            DistanceMeasure::Predicate,
            0.0,
            constraints,
            OptimizationConfig::all(),
        );
        let refined = result
            .outcome
            .refined()
            .expect("the original query qualifies");
        assert!(refined.distance < 1e-9, "distance {}", refined.distance);
        assert_eq!(refined.deviation, 0.0);
    }

    #[test]
    fn kendall_distance_runs_and_satisfies_constraints() {
        let result = solve_paper(
            DistanceMeasure::KendallTopK,
            0.0,
            scholarship_constraints(),
            OptimizationConfig::all(),
        );
        let refined = result.outcome.refined().expect("a refinement exists");
        assert_eq!(refined.deviation, 0.0);
        assert!(refined.distance >= 0.0);
    }

    #[test]
    fn exact_distance_consistency() {
        let session = paper_session();
        let snapshot = session.snapshot();
        let query = session.query().clone();
        let identity = PredicateAssignment::from_query(&query);
        for m in DistanceMeasure::all() {
            assert_eq!(
                exact_distance(m, snapshot.annotated(), &query, &identity, 6),
                0.0
            );
        }
        let (dev, output) =
            exact_deviation(snapshot.annotated(), &scholarship_constraints(), &identity);
        assert!(
            dev > 0.0,
            "the original scholarship query violates the constraints"
        );
        assert_eq!(output.top_k(6).len(), 6);
    }

    #[test]
    fn sweep_epsilon_annotates_once_and_is_consistent() {
        let session = paper_session();
        let base = RefinementRequest::new()
            .with_constraints(scholarship_constraints())
            .with_distance(DistanceMeasure::Predicate);
        let epsilons = [0.0, 0.25, 0.5, 0.75, 1.0];
        let results = session.sweep_epsilon(&base, &epsilons).unwrap();
        assert_eq!(results.len(), epsilons.len());
        assert_eq!(session.setup_stats().annotation_builds, 1);
        for r in &results {
            assert_eq!(r.stats.annotation_time, Duration::ZERO);
            let refined = r.outcome.refined().expect("refinement exists at all ε");
            // Larger budgets can only get (weakly) closer to the original.
            assert!(refined.distance <= 0.5 + 1e-6);
        }
        // At ε = 0 the original query does not qualify, so the optimum is the
        // Example 1.2 refinement at distance 0.5, not the identity.
        assert!(results[0].outcome.refined().unwrap().distance > 0.0);
    }

    #[test]
    fn outcome_conveniences() {
        let refined_result = solve_paper(
            DistanceMeasure::Predicate,
            0.0,
            scholarship_constraints(),
            OptimizationConfig::all(),
        );
        assert!(refined_result.outcome.is_refined());
        assert!(refined_result.outcome.clone().into_refined().is_some());
        let none = RefinementOutcome::NoRefinement {
            proven_infeasible: true,
        };
        assert!(!none.is_refined());
        assert!(none.into_refined().is_none());
    }

    #[test]
    fn parallel_batch_matches_sequential_and_preserves_order() {
        let session = paper_session();
        let requests: Vec<RefinementRequest> = [0.0, 0.25, 0.5, 0.75]
            .iter()
            .map(|&eps| {
                RefinementRequest::new()
                    .with_constraints(scholarship_constraints())
                    .with_epsilon(eps)
            })
            .collect();
        let sequential = session.solve_batch(&requests).unwrap();
        let parallel = session.solve_batch_parallel(&requests, 4).unwrap();
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(
                format!("{:?}", s.outcome),
                format!("{:?}", p.outcome),
                "parallel result must be byte-identical to sequential"
            );
        }
        assert_eq!(session.setup_stats().annotation_builds, 1);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let session = paper_session();
        let base = RefinementRequest::new()
            .with_constraints(scholarship_constraints())
            .with_distance(DistanceMeasure::Predicate);
        let epsilons = [0.0, 0.5, 1.0];
        let sequential = session.sweep_epsilon(&base, &epsilons).unwrap();
        let parallel = session.sweep_epsilon_parallel(&base, &epsilons, 3).unwrap();
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(format!("{:?}", s.outcome), format!("{:?}", p.outcome));
        }
    }

    #[test]
    fn cancelled_request_returns_interrupted() {
        use qr_milp::control::CancelToken;
        let session = paper_session();
        let token = CancelToken::new();
        token.cancel();
        // Constraints the original query violates, so the exact fast path
        // cannot answer before the solver sees the cancelled token.
        let request = RefinementRequest::new()
            .with_constraints(scholarship_constraints())
            .with_epsilon(0.0)
            .with_cancel_token(token);
        let result = session.solve(&request).unwrap();
        assert!(result.outcome.is_interrupted());
        assert!(result.stats.interrupted);
        assert!(!result.outcome.is_refined(), "cancelled before any node");
    }

    /// Tentpole round-trip: an interrupted solve checkpoints, and resuming
    /// it under a fresh control finishes with exactly the answer an
    /// uninterrupted solve produces.
    #[test]
    fn interrupted_solves_checkpoint_and_resume_to_the_same_answer() {
        use qr_milp::control::CancelToken;
        let session = paper_session();
        let request = RefinementRequest::new()
            .with_constraints(scholarship_constraints())
            .with_epsilon(0.0);
        let uninterrupted = session.solve(&request).unwrap();
        let expected = uninterrupted.outcome.refined().expect("solvable");
        assert!(
            uninterrupted.resume.is_none(),
            "completed solves carry no checkpoint"
        );

        let token = CancelToken::new();
        token.cancel();
        let interrupted = session
            .solve(&request.clone().with_cancel_token(token))
            .unwrap();
        assert!(interrupted.outcome.is_interrupted());
        assert_eq!(interrupted.stats.resume_captures, 1);
        let resume = interrupted.resume.expect("interrupted solve checkpoints");
        assert_eq!(resume.snapshot_version(), session.version());
        assert_eq!(resume.num_open_nodes(), 1, "the untouched root");

        let resumed = session.resume(&resume, &SolveControl::default()).unwrap();
        let refined = resumed.outcome.refined().expect("resume completes");
        assert_eq!(refined.query, expected.query);
        assert!((refined.distance - expected.distance).abs() < qr_milp::tol::ASSERT_TOL);
        assert_eq!(resumed.stats.resumed_solves, 1);
        assert!(resumed.stats.nodes_restored > 0);
        assert!(resumed.resume.is_none(), "finished: nothing left to resume");
    }

    /// A checkpoint is pinned to the snapshot version it was solving
    /// against: after a mutation the session rejects it with the typed
    /// error instead of silently solving the wrong database.
    #[test]
    fn resume_after_mutation_is_a_typed_stale_error() {
        use qr_milp::control::CancelToken;
        let session = paper_session();
        let token = CancelToken::new();
        token.cancel();
        let request = RefinementRequest::new()
            .with_constraints(scholarship_constraints())
            .with_epsilon(0.0)
            .with_cancel_token(token);
        let resume = session.solve(&request).unwrap().resume.expect("checkpoint");

        session
            .apply(vec![Mutation::delete("Activities", vec![0])])
            .unwrap();
        let err = session
            .resume(&resume, &SolveControl::default())
            .expect_err("stale checkpoint must not solve");
        assert!(
            matches!(
                err,
                crate::error::CoreError::StaleResume {
                    resume_version: 1,
                    session_version: 2,
                }
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn apply_repairs_incrementally_and_matches_fresh_build() {
        let session = paper_session();
        assert_eq!(session.version(), 1);
        let request = RefinementRequest::new()
            .with_constraints(scholarship_constraints())
            .with_epsilon(0.0);
        let pinned = session.snapshot();
        let before = format!("{:?}", session.solve(&request).unwrap().outcome);

        // A new high-SAT robotics student joins mid-session.
        let version = session
            .apply(vec![
                Mutation::insert(
                    "Students",
                    vec![vec![
                        "t99".into(),
                        "F".into(),
                        "Low".into(),
                        3.9.into(),
                        1610.into(),
                    ]],
                ),
                Mutation::insert("Activities", vec![vec!["t99".into(), "RB".into()]]),
            ])
            .unwrap();
        assert_eq!(version, 2);
        assert_eq!(session.version(), 2);
        let stats = session.setup_stats();
        assert_eq!(stats.annotation_builds, 1, "small delta repairs in place");
        assert_eq!(stats.delta_annotations, 1);
        assert_eq!(stats.full_rebuilds, 0);
        assert_eq!(stats.snapshot_version, 2);

        // The repaired annotation is structurally identical to a fresh build
        // against the mutated database.
        let snapshot = session.snapshot();
        let fresh = AnnotatedRelation::build(snapshot.db(), session.query()).unwrap();
        assert_eq!(format!("{:?}", snapshot.annotated()), format!("{fresh:?}"),);

        // The pinned pre-mutation snapshot is untouched: solving on it still
        // reproduces the original answer, byte for byte.
        assert_eq!(pinned.version(), 1);
        let replay = format!("{:?}", session.solve_on(&pinned, &request).unwrap().outcome);
        assert_eq!(before, replay);
    }

    #[test]
    fn oversized_delta_falls_back_to_full_rebuild() {
        let session = paper_session();
        let snapshot = session.snapshot();
        let students: Vec<qr_relation::RowId> =
            snapshot.db().get("Students").unwrap().row_ids().to_vec();
        let version = session
            .apply(vec![Mutation::delete("Students", students)])
            .unwrap();
        assert_eq!(version, 2);
        let stats = session.setup_stats();
        assert_eq!(stats.full_rebuilds, 1, "delta touches most of the base");
        assert_eq!(stats.annotation_builds, 2);
        assert_eq!(stats.delta_annotations, 0);
        assert_eq!(stats.tuples, 0, "no students left to join");
    }

    #[test]
    fn failed_apply_leaves_the_session_unchanged() {
        let session = paper_session();
        let result = session.apply(vec![
            Mutation::delete("Students", vec![0]),
            Mutation::delete("NoSuchRelation", vec![0]),
        ]);
        assert!(
            result.is_err(),
            "unknown relation must fail the whole batch"
        );
        assert_eq!(session.version(), 1);
        let stats = session.setup_stats();
        assert_eq!(stats.delta_annotations, 0);
        assert_eq!(stats.annotation_builds, 1);
    }

    #[test]
    fn batch_solve_reuses_the_session() {
        let session = paper_session();
        let requests = vec![
            RefinementRequest::new()
                .with_constraints(scholarship_constraints())
                .with_epsilon(0.0),
            RefinementRequest::new()
                .with_constraints(scholarship_constraints())
                .with_epsilon(0.0)
                .with_distance(DistanceMeasure::JaccardTopK),
        ];
        let results = session.solve_batch(&requests).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.outcome.is_refined()));
        assert_eq!(session.setup_stats().annotation_builds, 1);
    }

    #[test]
    fn poisoned_locks_do_not_wedge_the_session() {
        let session = std::sync::Arc::new(paper_session());

        // Poison both internal locks: a worker panics while holding the
        // stats mutex, another while holding the snapshot write lock.
        for _ in 0..2 {
            let poisoner = std::sync::Arc::clone(&session);
            let _ = std::thread::spawn(move || {
                let _stats = poisoner.stats.lock();
                panic!("worker crash while holding the stats lock");
            })
            .join();
            let poisoner = std::sync::Arc::clone(&session);
            let _ = std::thread::spawn(move || {
                let _current = poisoner.current.write();
                panic!("worker crash while holding the snapshot lock");
            })
            .join();
        }
        assert!(session.stats.lock().is_err(), "stats mutex is poisoned");
        assert!(session.current.read().is_err(), "snapshot lock is poisoned");

        // Every lock-crossing entry point still works: snapshot cloning,
        // stats reporting, solving, and applying a mutation (which takes
        // both locks, the second one for writing).
        assert_eq!(session.snapshot().version(), 1);
        assert_eq!(session.setup_stats().annotation_builds, 1);
        let request = RefinementRequest::new()
            .with_constraints(scholarship_constraints())
            .with_epsilon(0.0);
        let result = session.solve(&request).unwrap();
        assert!(result.outcome.is_refined());
        let version = session
            .apply(vec![Mutation::delete("Students", vec![0])])
            .unwrap();
        assert_eq!(version, 2);
        assert_eq!(session.snapshot().version(), 2);
    }
}
