//! Centralized numeric tolerances for the whole solver stack.
//!
//! Every float comparison in the solve path trades off two failure modes:
//! too tight and honest floating-point noise is mistaken for infeasibility
//! (or a stable pivot is rejected), too loose and a genuinely infeasible or
//! suboptimal answer is accepted. Each constant below documents which
//! solver/paper property its value protects, so the trade-off is made once,
//! here, instead of ad hoc at every comparison site.
//!
//! This module is the **only** place in the workspace where a bare
//! float-tolerance literal (`1e-*`) may appear; `qr-lint`'s tolerance rule
//! enforces that everywhere else (including this crate's test modules)
//! references a named constant. Tolerances that must agree — the primal
//! feasibility tolerance shared by the simplex ratio test, the Harris
//! two-pass and bound propagation — are defined once and aliased, so they
//! cannot drift apart.

/// Primal feasibility tolerance: a basic value within `FEAS_TOL` of its bound
/// is treated as feasible. Shared by the primal simplex (phase-1 exit, ratio
/// test slack), the dual simplex and bound propagation — the paper's
/// refinement MILPs mix O(1) selection variables with O(big-M) indicator
/// rows, and a common feasibility yardstick keeps the three agreeing on
/// which bases are clean.
pub const FEAS_TOL: f64 = 1e-7;

/// Harris two-pass ratio-test slack: pass one relaxes each bound by this
/// amount to find the best attainable pivot magnitude, pass two picks the
/// largest pivot within that slack. Deliberately **the same value** as
/// [`FEAS_TOL`]: the slack spends exactly the infeasibility the feasibility
/// tolerance already forgives, no more.
pub const HARRIS_TOL: f64 = FEAS_TOL;

/// Dual feasibility (reduced-cost) tolerance: a reduced cost within
/// `COST_TOL` of zero does not make a column eligible to enter. Below the
/// distance-measure granularity of the refinement objectives (predicate
/// distances are multiples of ~1e-3), so optimality claims are never decided
/// by noise.
pub const COST_TOL: f64 = 1e-9;

/// Minimum pivot magnitude the simplex accepts in a ratio test. Pivoting on
/// anything smaller amplifies error by `1/|pivot| > 1e10` — past the point
/// where the verification pass could still distinguish a true optimum.
pub const PIVOT_TOL: f64 = 1e-10;

/// Minimum pivot magnitude for pivoting artificial variables out of the
/// basis when snapshotting it for warm starts (two orders looser than
/// [`PIVOT_TOL`]: a snapshot basis is refactorized from scratch on restore,
/// so it only needs to be safely nonsingular, not iteration-stable).
pub const SNAPSHOT_PIVOT_TOL: f64 = 1e-8;

/// Phase-1 objective threshold above which the LP is declared infeasible.
/// The phase-1 objective is a sum of artificial values (each `>= 0`), so
/// this bounds the total constraint violation a "feasible" claim may hide;
/// big-M rows scale violations by ~1e2, keeping true violations well above
/// this threshold.
pub const PHASE1_INFEAS_TOL: f64 = 1e-6;

/// Bound-violation slack accepted by the post-solve verification of an LP
/// optimum (`x` within bounds). Matches [`PHASE1_INFEAS_TOL`]: verification
/// must not reject what phase 1 was allowed to accept.
pub const VERIFY_BOUND_TOL: f64 = 1e-6;

/// Row-residual slack (relative to `1 + |rhs|`) accepted by the post-solve
/// verification of an LP optimum. One order looser than
/// [`VERIFY_BOUND_TOL`]: row activities accumulate one rounding per nonzero,
/// and the refinement rows have up to ~1e3 terms.
pub const VERIFY_ROW_TOL: f64 = 1e-5;

/// Scale of the deterministic cost perturbation applied by the anti-cycling
/// ladder (relative to `1 + |c_j|`). Chosen equal in magnitude to
/// [`FEAS_TOL`]: large enough to break degenerate ties, small enough that
/// the perturbed optimum re-verifies against the true costs.
pub const PERTURBATION_SCALE: f64 = 1e-7;

/// Magnitudes at or below this are indistinguishable from exact cancellation
/// at the coefficient scale of the refinement models (O(1) data, O(1e2)
/// big-M). Used for ratio-test tie detection, degenerate-step detection, the
/// crash basis' logical-feasibility check, and dropping negligible eta
/// entries.
pub const ZERO_TOL: f64 = 1e-12;

/// An eta pivot below this magnitude refuses the product-form update and
/// triggers refactorization instead (the update would amplify error by
/// `1/|pivot|`). Equal to [`FEAS_TOL`] by design: a pivot too small to
/// update through is also too small to trust a ratio test on.
pub const ETA_PIVOT_TOL: f64 = FEAS_TOL;

/// Relative floor for the eta pivot against the largest magnitude in its
/// column: below this the update loses ~9 of the ~16 significant digits and
/// the factorization refactorizes instead.
pub const ETA_REL_PIVOT_TOL: f64 = 1e-9;

/// Eta entries at or below this magnitude are not stored (alias of
/// [`ZERO_TOL`]: they contribute nothing at working precision and only grow
/// the eta file).
pub const ETA_DROP_TOL: f64 = ZERO_TOL;

/// Entries with magnitude at or below this are dropped during LU
/// elimination (treated as exact cancellation). One order below
/// [`ZERO_TOL`]: the factorization keeps a guard digit relative to what the
/// simplex already treats as zero.
pub const LU_DROP_TOL: f64 = 1e-13;

/// An LU pivot candidate must be at least this large in absolute terms;
/// anything smaller marks the basis as numerically singular. Slightly below
/// the simplex's own [`PIVOT_TOL`]: any basis the simplex legitimately built
/// must refactorize, while true singularity (cancellation down to machine
/// noise) stays firmly rejected.
pub const LU_ABS_PIVOT_TOL: f64 = 1e-11;

/// Relative threshold for Markowitz pivoting: a candidate must be at least
/// this fraction of the largest magnitude in its column. Trades a little
/// sparsity freedom for bounded element growth.
pub const LU_REL_PIVOT_TOL: f64 = 0.05;

/// Tolerance for considering an LP value integral (branching, rounding
/// dives, incumbent rounding). Matches the paper setup's CPLEX default
/// integrality tolerance; must stay above [`FEAS_TOL`] so a value the LP
/// calls feasible cannot oscillate between "integral" and "fractional".
pub const INTEGRALITY_TOL: f64 = 1e-6;

/// Absolute objective gap within which a node (or incumbent candidate) is
/// pruned as "cannot improve". Also the slack `qr-core` grants when
/// comparing deviations against ε and distances against an incumbent: the
/// solver cannot distinguish improvements below this gap, so the refinement
/// layer must not either.
pub const ABSOLUTE_GAP: f64 = 1e-9;

/// Minimum bound improvement propagation counts as progress; smaller
/// tightenings are discarded to guarantee the fixpoint loop terminates.
/// Equal to [`ABSOLUTE_GAP`]: a bound move the search could never act on is
/// not progress.
pub const BOUND_TIGHTEN_TOL: f64 = ABSOLUTE_GAP;

/// Floor for the strict-inequality margin δ used when the refinement MILP
/// translates `attr > v` big-M rows (`qr-core` halves the smallest gap
/// between adjacent domain values and clamps it here). Keeps δ representable
/// against big-M coefficients: `1e-6 × M` stays far above [`FEAS_TOL`].
pub const MIN_STRICT_DELTA: f64 = 1e-6;

/// Relative residual accepted by the `debug_assertions`-only LU/FTRAN/BTRAN
/// self-checks ([`crate::factor::BasisFactorization::refactorize`]). LU
/// solves are backward-stable, so honest factors land around
/// `1e-16 × ‖B‖ × ‖x‖`; a residual past this threshold means the factors do
/// not represent the basis (an indexing or update bug, not rounding).
pub const DEBUG_RESIDUAL_TOL: f64 = 1e-8;

/// Default absolute tolerance for objective/value assertions in tests
/// (matches [`INTEGRALITY_TOL`]: test optima are compared no tighter than
/// the solver's own integrality claims).
pub const ASSERT_TOL: f64 = 1e-6;

/// Loose assertion tolerance for accumulated row activities in tests
/// (matches [`VERIFY_ROW_TOL`]).
pub const ASSERT_LOOSE_TOL: f64 = 1e-5;

/// Tight assertion tolerance for direct solves (FTRAN/BTRAN round trips)
/// in tests, where no search slack is involved.
pub const ASSERT_TIGHT_TOL: f64 = 1e-10;

/// Assertion tolerance at the solver's gap granularity (alias of
/// [`ABSOLUTE_GAP`]) for tests comparing quantities the solver itself only
/// resolves up to the gap.
pub const ASSERT_GAP_TOL: f64 = ABSOLUTE_GAP;

// The ordering invariants the docs above promise, checked at compile time:
// a future edit that reorders the ladder (e.g. integrality below
// feasibility) fails the build instead of surfacing as a flaky solve.
const _LADDER_IS_ORDERED: () = {
    assert!(LU_DROP_TOL < ZERO_TOL);
    assert!(ZERO_TOL < LU_ABS_PIVOT_TOL);
    assert!(LU_ABS_PIVOT_TOL < PIVOT_TOL);
    assert!(PIVOT_TOL < SNAPSHOT_PIVOT_TOL);
    assert!(SNAPSHOT_PIVOT_TOL < FEAS_TOL);
    assert!(FEAS_TOL < INTEGRALITY_TOL);
    assert!(COST_TOL < FEAS_TOL);
    assert!(ABSOLUTE_GAP < INTEGRALITY_TOL);
    assert!(HARRIS_TOL == FEAS_TOL);
    assert!(ETA_DROP_TOL == ZERO_TOL);
    assert!(BOUND_TIGHTEN_TOL == ABSOLUTE_GAP);
};
