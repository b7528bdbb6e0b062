//! Sparse revised simplex with an LU-factorized basis and warm starts.
//!
//! The LP relaxations produced by `qr-core` are extremely sparse (big-M
//! indicator rows touch 2–3 structural columns; >95% zeros) with many boxed
//! variables (`0 <= x <= u`). The solver exploits both: the constraint
//! matrix is stored **once** in CSC + CSR form ([`crate::factor::SparseMatrix`]),
//! every row owns a *logical* column (slack for `<=`/`>=`, a fixed-at-zero
//! column for `==`), and all linear algebra runs through an LU factorization
//! of the basis ([`crate::lu`]) maintained by product-form eta updates
//! ([`crate::factor`]). A pivot costs one FTRAN (entering column), one BTRAN
//! (pivot row) and sparse bookkeeping — never the dense tableau's `O(m·n)`
//! elimination, which this module used to pay on every pivot.
//!
//! The solver is organised around [`LpWorkspace`], built **once per model**
//! and answering any number of solves with different variable bounds (the
//! branch-and-bound access pattern — every node changes bounds, never the
//! matrix):
//!
//! * a **cold** solve runs the textbook two-phase primal simplex from a
//!   crash basis: each row's logical column absorbs the initial residual
//!   when its bounds allow, and otherwise the row's *artificial* column — a
//!   permanent unit column of the sparse matrix, fixed at zero outside
//!   phase 1 — carries it through a phase-1 run minimising total artificial
//!   magnitude. Entering variables are priced partially (a rotating window
//!   over the column range) by devex, with the same anti-cycling ladder as
//!   before: randomised pricing, cost perturbation, Bland's rule,
//! * a **warm** solve ([`LpWorkspace::solve`] with a [`Basis`]) refactorizes
//!   `B` directly from the sparse matrix — `O(nnz)`, replacing the dense
//!   path's per-column tableau re-pivoting — and runs the bound-flipping
//!   dual simplex ([`crate::dual`]) to repair the (few) bound violations a
//!   branch introduces, skipping phase 1 entirely. A first child reuses the
//!   parent's factorization outright (its basis is the parent's). Any warm
//!   anomaly falls back to a cold solve transparently,
//! * refactorization is **stability-triggered** (eta-file length/fill or a
//!   too-small eta pivot — see [`crate::factor`]), not the old fixed
//!   64-reuse cadence; each refactorization also recomputes the basic values
//!   exactly, so drift can no longer chain across a long run of warm solves.
//!
//! Factorization health is observable: [`LpSolution`] reports
//! refactorizations, eta updates and LU fill per solve, and
//! [`crate::solution::SolveStats`] aggregates them across a tree.

use crate::basis::{Basis, VarStatus};
use crate::control::StopCondition;
use crate::dual::DualStatus;
use crate::error::{MilpError, Result};
use crate::factor::{BasisFactorization, EtaUpdate, SparseMatrix};
use crate::model::{Model, Sense};

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraints admit no feasible point (within tolerances).
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// No reliable answer: the iteration limit (or the caller's stop) was
    /// hit before convergence, or numerical trouble left neither a verified
    /// point nor a bound.
    IterationLimit,
}

/// Result of solving an LP relaxation.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Solve status.
    pub status: LpStatus,
    /// Objective value (meaningful for `Optimal`).
    pub objective: f64,
    /// Values of the model's structural variables, indexed by [`crate::model::VarId`] index.
    pub values: Vec<f64>,
    /// Number of simplex pivots performed (all phases, dual included).
    pub iterations: usize,
    /// Whether the solve started from a warm basis (dual simplex path) rather
    /// than a cold two-phase run.
    pub warm_started: bool,
    /// Basis refactorizations performed during this solve.
    pub refactorizations: usize,
    /// Product-form eta updates appended during this solve.
    pub eta_updates: usize,
    /// Peak nonzeros of the basis LU factors observed during the solve
    /// (fill-in health; compare against the constraint matrix nonzeros).
    pub lu_nnz: usize,
}

impl LpSolution {
    fn without_point(status: LpStatus, n_struct: usize, iterations: usize) -> Self {
        LpSolution {
            status,
            objective: f64::INFINITY,
            values: vec![0.0; n_struct],
            iterations,
            warm_started: false,
            refactorizations: 0,
            eta_updates: 0,
            lu_nnz: 0,
        }
    }
}

/// Feasibility tolerance used throughout the solver (re-exported from
/// [`crate::tol`], where every workspace tolerance is defined and documented).
pub use crate::tol::FEAS_TOL;
/// Pivot element magnitude below which a pivot is rejected.
pub(crate) use crate::tol::PIVOT_TOL;
use crate::tol::{
    COST_TOL, PERTURBATION_SCALE, PHASE1_INFEAS_TOL, SNAPSHOT_PIVOT_TOL, VERIFY_BOUND_TOL,
    VERIFY_ROW_TOL, ZERO_TOL,
};
/// Partial pricing scans at least this many columns per pivot before
/// settling on the best candidate seen.
const PRICING_WINDOW: usize = 128;

/// A reusable LP solving context for one [`Model`]: the bound-independent
/// problem data (sparse matrix, logical-column layout, objective) plus the
/// basis factorization and all per-solve scratch.
///
/// Build it once, then call [`solve`](Self::solve) per bound set. After an
/// optimal solve, [`snapshot_basis`](Self::snapshot_basis) captures the basis
/// for warm-starting related solves (branch-and-bound children).
pub struct LpWorkspace {
    // Bound-independent problem data.
    pub(crate) n_struct: usize,
    pub(crate) n_rows: usize,
    /// Structural + logical column count (`n_struct + n_rows`: every row
    /// owns a logical column, `==` rows a fixed-at-zero one). This is the
    /// column space [`Basis`] snapshots cover.
    pub(crate) core_cols: usize,
    /// Full column count including one artificial unit column per row
    /// (`core_cols + n_rows`). Artificials are fixed at zero except during a
    /// cold solve's phase 1.
    pub(crate) total_cols: usize,
    /// The constraint matrix in CSC + CSR form, logical and artificial unit
    /// columns included.
    pub(crate) matrix: SparseMatrix,
    pub(crate) rhs: Vec<f64>,
    senses: Vec<Sense>,
    /// Bounds of the logical columns (entries `>= n_struct`; structural
    /// entries are placeholders overwritten per solve).
    core_lower: Vec<f64>,
    core_upper: Vec<f64>,
    objective: Vec<f64>,
    objective_constant: f64,

    // Basis representation.
    pub(crate) factor: BasisFactorization,
    /// Slot -> column currently basic in that slot.
    pub(crate) basis: Vec<usize>,
    pub(crate) status: Vec<VarStatus>,
    /// Values of the basic variables, indexed by basis slot.
    pub(crate) x_basic: Vec<f64>,

    // Per-solve working data.
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    /// True costs of the current phase.
    pub(crate) cost: Vec<f64>,
    /// Working (possibly perturbed) costs.
    work_cost: Vec<f64>,
    pub(crate) reduced: Vec<f64>,
    devex: Vec<f64>,
    pricing_cursor: usize,

    // Dense scratch.
    /// FTRAN staging/output: the entering column `B⁻¹ a_q` (slot space).
    pub(crate) col_buf: Vec<f64>,
    /// BTRAN/right-hand-side staging (row space).
    pub(crate) row_buf: Vec<f64>,
    /// The pivot row `ρᵀA` over column space — valid only at the indices in
    /// [`Self::pivot_touched`] (stamp-guarded sparse accumulator).
    pub(crate) pivot_row: Vec<f64>,
    pub(crate) pivot_touched: Vec<usize>,
    pivot_stamp: Vec<u32>,
    stamp: u32,

    /// Whether `basis`/`status`/`factor` describe a consistent basis from the
    /// previous solve (enables free first-child warm starts).
    basis_valid: bool,
}

impl LpWorkspace {
    /// Build a workspace for `model`. The sparse constraint matrix, logical
    /// column layout and objective are extracted once here; variable bounds
    /// are supplied per [`solve`](Self::solve).
    pub fn new(model: &Model) -> Result<Self> {
        model.validate()?;
        let n_struct = model.num_variables();
        let n_rows = model.num_constraints();
        let core_cols = n_struct + n_rows;
        let total_cols = core_cols + n_rows;

        let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); total_cols];
        let mut core_lower = vec![0.0; core_cols];
        let mut core_upper = vec![0.0; core_cols];
        for (i, cons) in model.constraints().iter().enumerate() {
            for (v, c) in cons.expr.terms() {
                if c != 0.0 {
                    columns[v.index()].push((i, c));
                }
            }
            let logical = n_struct + i;
            columns[logical].push((i, 1.0));
            columns[core_cols + i].push((i, 1.0)); // artificial
            let (lo, up) = match cons.sense {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
                Sense::Eq => (0.0, 0.0),
            };
            core_lower[logical] = lo;
            core_upper[logical] = up;
        }
        let matrix = SparseMatrix::from_columns(n_rows, &columns);

        let mut objective = vec![0.0; total_cols];
        for (v, c) in model.objective().terms() {
            objective[v.index()] = c;
        }

        Ok(LpWorkspace {
            n_struct,
            n_rows,
            core_cols,
            total_cols,
            matrix,
            rhs: model.constraints().iter().map(|c| c.rhs).collect(),
            senses: model.constraints().iter().map(|c| c.sense).collect(),
            core_lower,
            core_upper,
            objective,
            objective_constant: model.objective().constant_part(),
            factor: BasisFactorization::default(),
            basis: Vec::new(),
            status: vec![VarStatus::AtLower; total_cols],
            x_basic: vec![0.0; n_rows],
            lower: vec![0.0; total_cols],
            upper: vec![0.0; total_cols],
            cost: vec![0.0; total_cols],
            work_cost: vec![0.0; total_cols],
            reduced: vec![0.0; total_cols],
            devex: vec![1.0; total_cols],
            pricing_cursor: 0,
            col_buf: vec![0.0; n_rows],
            row_buf: vec![0.0; n_rows],
            pivot_row: vec![0.0; total_cols],
            pivot_touched: Vec::new(),
            pivot_stamp: vec![0; total_cols],
            stamp: 0,
            basis_valid: false,
        })
    }

    /// Nonzeros of the stored constraint matrix (structural + logical
    /// columns; the per-row phase-1 artificials are excluded) — the
    /// denominator of the LU fill-in health metric.
    pub fn matrix_nnz(&self) -> usize {
        self.matrix.nnz() - self.n_rows
    }

    /// Current position of the rotating partial-pricing window. Captured into
    /// a [`ResumeState`](crate::resume::ResumeState) so a resumed search
    /// prices columns in the same order the uninterrupted solve would have —
    /// the cursor is the one piece of pricing state that outlives a single
    /// `solve` call (devex weights and the anti-cycling RNG reset per phase).
    pub(crate) fn pricing_cursor(&self) -> usize {
        self.pricing_cursor
    }

    /// Restore the rotating pricing-window position (see
    /// [`Self::pricing_cursor`]).
    pub(crate) fn set_pricing_cursor(&mut self, cursor: usize) {
        self.pricing_cursor = cursor;
    }

    /// Solve the LP with the given variable bounds. When `warm` is provided,
    /// the solver first attempts a warm start from that basis (dual simplex
    /// repair of the branched bounds); any warm-path failure falls back to a
    /// cold two-phase solve transparently. Numerical trouble on the cold path
    /// yields [`LpStatus::IterationLimit`], not an error.
    ///
    /// `stop` aborts the solve with [`LpStatus::IterationLimit`] once it
    /// triggers — a passed deadline or a cancelled
    /// [`CancelToken`](crate::control::CancelToken), polled every 64 pivots —
    /// so a single LP can never overshoot the caller's budget (or ignore a
    /// cancellation) by more than a few pivots.
    pub fn solve(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&Basis>,
        max_iterations: usize,
        stop: &StopCondition,
    ) -> Result<LpSolution> {
        let refac0 = self.factor.refactorization_count();
        let eta0 = self.factor.eta_update_count();
        // Pivots burned in abandoned warm attempts still count towards the
        // solve's iteration total — the statistics must reflect all work done.
        let mut wasted = 0usize;
        let mut solution = 'solved: {
            if let Some(basis) = warm {
                if let Some(mut solution) =
                    self.try_warm(lower, upper, basis, max_iterations, stop, &mut wasted)?
                {
                    solution.iterations += wasted;
                    break 'solved solution;
                }
            }
            let mut solution =
                self.solve_cold(lower, upper, max_iterations.saturating_sub(wasted), stop)?;
            solution.iterations += wasted;
            solution
        };
        solution.refactorizations = self.factor.refactorization_count() - refac0;
        solution.eta_updates = self.factor.eta_update_count() - eta0;
        solution.lu_nnz = self.factor.take_peak_lu_nnz();
        Ok(solution)
    }

    /// Snapshot the basis of the last verified-optimal solve, for
    /// warm-starting a related solve. Returns `None` when the workspace holds
    /// no reusable basis (the last solve did not end optimal, or an
    /// artificial column is stuck basic at a non-zero value).
    pub fn snapshot_basis(&mut self) -> Option<Basis> {
        if !self.basis_valid {
            return None;
        }
        // Pivot out any artificial column that is still basic (degenerate
        // equality rows leave them basic at value zero): a degenerate basis
        // change to the best-pivot nonbasic core column. Any dual
        // infeasibility this introduces is repaired by the warm path's
        // clean-up phase.
        for slot in 0..self.n_rows {
            if self.basis[slot] < self.core_cols {
                continue;
            }
            if self.x_basic[slot].abs() > FEAS_TOL {
                self.basis_valid = false;
                return None;
            }
            self.compute_pivot_row(slot);
            let mut best: Option<(usize, f64)> = None;
            for idx in 0..self.pivot_touched.len() {
                let j = self.pivot_touched[idx];
                if j >= self.core_cols || self.status[j].is_basic() {
                    continue;
                }
                let a = self.pivot_row[j].abs();
                if a > SNAPSHOT_PIVOT_TOL && best.map(|(_, b)| a > b).unwrap_or(true) {
                    best = Some((j, a));
                }
            }
            let Some((enter_col, _)) = best else {
                self.basis_valid = false;
                return None;
            };
            self.ftran_column(enter_col);
            if self.col_buf[slot].abs() < PIVOT_TOL {
                self.basis_valid = false;
                return None;
            }
            let art = self.basis[slot];
            let enter_value = nonbasic_value(
                self.status[enter_col],
                self.lower[enter_col],
                self.upper[enter_col],
            );
            self.status[art] = VarStatus::AtLower;
            self.status[enter_col] = VarStatus::Basic(slot);
            self.basis[slot] = enter_col;
            self.x_basic[slot] = enter_value;
            if self.update_factor_after_pivot(slot).is_err() {
                self.basis_valid = false;
                return None;
            }
        }
        Some(Basis::new(self.status[..self.core_cols].to_vec()))
    }

    /// Attempt a warm-started solve; `Ok(None)` means "fall back to cold".
    /// Pivots spent on abandoned attempts are accumulated into `wasted`.
    ///
    /// A first attempt reuses the previous solve's factorization when the
    /// basic sets agree (a first-child warm start then pays nothing). Any
    /// anomaly on that reused factorization — dual stall, an infeasibility
    /// certificate, a failed verification, numerical trouble — earns one
    /// retry from a *fresh* `O(nnz)` refactorization of the sparse matrix
    /// before the cold fallback (and an infeasibility verdict is only ever
    /// trusted from a freshly refactorized basis).
    fn try_warm(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        basis: &Basis,
        max_iterations: usize,
        stop: &StopCondition,
        wasted: &mut usize,
    ) -> Result<Option<LpSolution>> {
        if basis.num_columns() != self.core_cols || basis.num_basic() != self.n_rows {
            return Ok(None);
        }
        let mut reuse = self.basis_valid && self.basis_matches(basis);
        // lint: no-cancel-poll(at most two attempts, and warm_attempt polls `stop` in its pivot loop)
        loop {
            // One iteration budget spans every attempt (and, via `wasted`,
            // the cold fallback): a node LP cannot overshoot the caller's
            // `max_iterations` severalfold by restarting its counter.
            let budget = max_iterations.saturating_sub(*wasted);
            if budget == 0 {
                return Ok(None);
            }
            match self.warm_attempt(lower, upper, basis, budget, stop, reuse, wasted)? {
                Some(solution) => return Ok(Some(solution)),
                None if reuse => reuse = false,
                None => return Ok(None),
            }
        }
    }

    /// Whether the workspace's current basic set equals the snapshot's (no
    /// artificial may be basic: snapshots only cover the core columns).
    fn basis_matches(&self, target: &Basis) -> bool {
        self.basis.iter().all(|&col| col < self.core_cols)
            && target
                .statuses()
                .iter()
                .zip(&self.status)
                .all(|(t, s)| t.is_basic() == s.is_basic())
    }

    /// One warm attempt at a fixed `reuse` choice; `Ok(None)` means the
    /// attempt was abandoned (retry refactorized or fall back cold).
    #[allow(clippy::too_many_arguments)]
    fn warm_attempt(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        target: &Basis,
        max_iterations: usize,
        stop: &StopCondition,
        reuse: bool,
        wasted: &mut usize,
    ) -> Result<Option<LpSolution>> {
        self.basis_valid = false;
        if !reuse {
            // Restore the snapshot by refactorizing B straight from the
            // sparse matrix: O(nnz), no tableau re-pivoting.
            self.basis.clear();
            for (j, s) in target.statuses().iter().enumerate() {
                if s.is_basic() {
                    self.basis.push(j);
                }
            }
            if !self.factor.refactorize(&self.matrix, &self.basis) {
                return Ok(None); // singular/stale snapshot: go cold
            }
        }

        self.load_bounds(lower, upper);

        // Statuses: nonbasic rest points from the snapshot (reconciled with
        // the tightened bounds), basic slots from the installed basis,
        // artificials nonbasic at zero.
        for (j, s) in target.statuses().iter().enumerate() {
            self.status[j] = match s {
                VarStatus::Basic(_) => VarStatus::Basic(usize::MAX), // fixed below
                s => reconcile_status(*s, self.lower[j], self.upper[j]),
            };
        }
        for j in self.core_cols..self.total_cols {
            self.status[j] = VarStatus::AtLower;
        }
        for (slot, &col) in self.basis.iter().enumerate() {
            self.status[col] = VarStatus::Basic(slot);
        }

        self.recompute_x_basic();
        self.cost.copy_from_slice(&self.objective);
        self.work_cost.copy_from_slice(&self.cost);
        self.refresh_reduced();

        let mut iterations = 0usize;
        // The dual repair of a single branched bound needs few pivots; a stall
        // beyond this cap means the warm basis is a bad start — fall back.
        let dual_cap = max_iterations.min(4 * (self.core_cols + self.n_rows) + 1000);
        let dual_status = match self.dual_simplex(dual_cap, stop, &mut iterations) {
            Ok(status) => status,
            // Numerical trouble on the warm path is never fatal: abandon the
            // attempt (refactorized retry, then cold).
            Err(MilpError::NumericalTrouble(_)) => {
                *wasted += iterations;
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        match dual_status {
            DualStatus::Infeasible => {
                // An infeasibility certificate prunes a subtree, so only
                // trust one derived from a basis refactorized this solve; a
                // reused factorization earns a refactorized retry instead.
                if reuse {
                    *wasted += iterations;
                    return Ok(None);
                }
                self.basis_valid = true;
                let mut sol =
                    LpSolution::without_point(LpStatus::Infeasible, self.n_struct, iterations);
                sol.warm_started = true;
                return Ok(Some(sol));
            }
            DualStatus::IterationLimit => {
                *wasted += iterations;
                return Ok(None);
            }
            DualStatus::Feasible => {}
        }

        // Primal clean-up: certify optimality on the true costs (the dual run
        // maintains dual feasibility only up to the Harris tolerance).
        let status2 = match self.primal_phase(max_iterations, stop, &mut iterations) {
            Ok(status) => status,
            Err(MilpError::NumericalTrouble(_)) => {
                *wasted += iterations;
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        match status2 {
            LpStatus::Optimal => {}
            // A child LP of a bounded-optimal parent cannot truly be
            // unbounded, and a stalled clean-up means the warm trajectory
            // went bad. Either way, abandon the attempt rather than
            // fabricating a point.
            _ => {
                *wasted += iterations;
                return Ok(None);
            }
        }

        match self.package_optimal(iterations) {
            Some(mut sol) => {
                self.basis_valid = true;
                sol.warm_started = true;
                Ok(Some(sol))
            }
            // A warm "optimal" point that fails verification is numerical
            // drift; abandon the attempt rather than surfacing an unreliable
            // solve.
            None => {
                *wasted += iterations;
                Ok(None)
            }
        }
    }

    /// Cold two-phase solve from a crash basis.
    fn solve_cold(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        max_iterations: usize,
        stop: &StopCondition,
    ) -> Result<LpSolution> {
        self.basis_valid = false;
        let m = self.n_rows;
        let n_struct = self.n_struct;
        // An unreliable solve keeps the pivots it spent but reports neither a
        // point nor a bound; branch-and-bound falls back to the node's box
        // bound. Numerical trouble in either phase (a basis that turns
        // singular on refactorization, a vanishing pivot) ends here too, as
        // an abandoned warm attempt does: it costs this one LP, not the
        // whole search.
        let unreliable =
            |iterations| LpSolution::without_point(LpStatus::IterationLimit, n_struct, iterations);

        // (The crash below re-frees the artificials phase 1 needs.)
        self.load_bounds(lower, upper);

        // Initial nonbasic statuses and the crash residuals.
        for j in 0..self.n_struct {
            self.status[j] = initial_status(self.lower[j], self.upper[j]);
        }
        self.row_buf[..m].copy_from_slice(&self.rhs);
        for j in 0..self.n_struct {
            let v = nonbasic_value(self.status[j], self.lower[j], self.upper[j]);
            if v != 0.0 {
                self.matrix.scatter_column(j, -v, &mut self.row_buf);
            }
        }

        // Crash plan: per row, the logical absorbs the residual when its
        // bounds allow; otherwise the row's artificial column is freed on
        // the residual's side, given a ±1 phase-1 cost, and made basic.
        self.basis.clear();
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        let mut n_art = 0usize;
        for i in 0..m {
            let logical = self.n_struct + i;
            let artificial = self.core_cols + i;
            let residual = self.row_buf[i];
            let logical_feasible = residual >= self.lower[logical] - ZERO_TOL
                && residual <= self.upper[logical] + ZERO_TOL;
            self.status[artificial] = VarStatus::AtLower;
            if logical_feasible {
                self.basis.push(logical);
                self.status[logical] = VarStatus::Basic(i);
            } else {
                // The logical rests at zero (a true bound of all three row
                // kinds) while the artificial carries the residual.
                self.status[logical] = if self.upper[logical] == 0.0 && self.lower[logical] != 0.0 {
                    VarStatus::AtUpper
                } else {
                    VarStatus::AtLower
                };
                if residual >= 0.0 {
                    self.upper[artificial] = f64::INFINITY;
                    self.cost[artificial] = 1.0;
                } else {
                    self.lower[artificial] = f64::NEG_INFINITY;
                    self.cost[artificial] = -1.0;
                }
                self.basis.push(artificial);
                self.status[artificial] = VarStatus::Basic(i);
                n_art += 1;
            }
            self.x_basic[i] = residual;
        }
        if !self.factor.refactorize(&self.matrix, &self.basis) {
            // Cannot happen: the crash basis is a signed permutation of I.
            return Err(MilpError::NumericalTrouble(
                "crash basis failed to factorize".into(),
            ));
        }

        let mut iterations = 0usize;
        if n_art > 0 {
            // Phase 1: minimise total artificial magnitude (cost is ±1 on
            // the freed artificials, zero elsewhere — already in `cost`).
            let status1 = match self.primal_phase(max_iterations, stop, &mut iterations) {
                Err(MilpError::NumericalTrouble(_)) => return Ok(unreliable(iterations)),
                status => status?,
            };
            // Phase 1's objective (total infeasibility) is bounded below by
            // zero, so `Unbounded` can only be numerical noise — treat both
            // non-optimal outcomes as an unreliable solve.
            if status1 != LpStatus::Optimal {
                return Ok(unreliable(iterations));
            }

            // Judge feasibility on exact arithmetic: refactorize and
            // recompute the basic values from the pristine matrix, then
            // measure the leftover artificial magnitude.
            if !self.factor.refactorize(&self.matrix, &self.basis) {
                return Ok(unreliable(iterations));
            }
            self.recompute_x_basic();
            let mut phase1_obj = 0.0f64;
            for i in 0..m {
                if self.basis[i] >= self.core_cols {
                    phase1_obj += self.x_basic[i].abs();
                }
            }
            for j in self.core_cols..self.total_cols {
                if !self.status[j].is_basic() {
                    phase1_obj +=
                        nonbasic_value(self.status[j], self.lower[j], self.upper[j]).abs();
                }
            }
            if phase1_obj > PHASE1_INFEAS_TOL {
                return Ok(LpSolution::without_point(
                    LpStatus::Infeasible,
                    self.n_struct,
                    iterations,
                ));
            }

            // Fix artificials back to zero for phase 2 so they can never
            // re-enter with a non-zero value.
            for j in self.core_cols..self.total_cols {
                self.lower[j] = 0.0;
                self.upper[j] = 0.0;
                if !self.status[j].is_basic() {
                    self.status[j] = VarStatus::AtLower;
                }
            }
        }

        // Phase 2: minimise the true objective.
        self.cost.copy_from_slice(&self.objective);
        let status2 = match self.primal_phase(max_iterations, stop, &mut iterations) {
            Err(MilpError::NumericalTrouble(_)) => return Ok(unreliable(iterations)),
            status => status?,
        };

        match status2 {
            LpStatus::Optimal => match self.package_optimal(iterations) {
                Some(sol) => {
                    self.basis_valid = true;
                    Ok(sol)
                }
                // An "optimal" point that does not actually satisfy the model
                // is numerical drift; downgrade to the unreliable status so
                // branch-and-bound never builds an incumbent from it.
                None => Ok(unreliable(iterations)),
            },
            other => {
                // Unbounded / iteration-limited: report the current point
                // (callers treat it as advisory only — branch-and-bound
                // ignores iteration-limited values and only the root handles
                // Unbounded).
                let values = self.current_structural_values();
                let objective = self.objective_constant
                    + (0..self.n_struct)
                        .map(|j| self.objective[j] * values[j])
                        .sum::<f64>();
                Ok(LpSolution {
                    status: other,
                    objective,
                    values,
                    iterations,
                    warm_started: false,
                    refactorizations: 0,
                    eta_updates: 0,
                    lu_nnz: 0,
                })
            }
        }
    }

    // --- Revised-simplex linear algebra helpers. ---

    /// Install the working bounds for a solve: the caller's structural
    /// bounds, the fixed logical bounds, and artificials pinned at zero.
    fn load_bounds(&mut self, lower: &[f64], upper: &[f64]) {
        self.lower[..self.n_struct].copy_from_slice(&lower[..self.n_struct]);
        self.upper[..self.n_struct].copy_from_slice(&upper[..self.n_struct]);
        self.lower[self.n_struct..self.core_cols]
            .copy_from_slice(&self.core_lower[self.n_struct..]);
        self.upper[self.n_struct..self.core_cols]
            .copy_from_slice(&self.core_upper[self.n_struct..]);
        self.lower[self.core_cols..].fill(0.0);
        self.upper[self.core_cols..].fill(0.0);
    }

    /// `col_buf = B⁻¹ a_col` (FTRAN of a matrix column).
    pub(crate) fn ftran_column(&mut self, col: usize) {
        self.col_buf[..self.n_rows].fill(0.0);
        self.matrix.scatter_column(col, 1.0, &mut self.col_buf);
        self.factor.ftran(&mut self.col_buf);
    }

    /// Compute the pivot row `ρᵀA` for basis slot `r` (`ρ = B⁻ᵀ e_r`) into
    /// the stamped sparse accumulator [`Self::pivot_row`]/[`Self::pivot_touched`]:
    /// one BTRAN, then a pass over the CSR rows where `ρ` is nonzero.
    pub(crate) fn compute_pivot_row(&mut self, r: usize) {
        let m = self.n_rows;
        self.row_buf[..m].fill(0.0);
        self.row_buf[r] = 1.0;
        self.factor.btran(&mut self.row_buf);
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.pivot_stamp.iter_mut().for_each(|s| *s = 0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        self.pivot_touched.clear();
        for i in 0..m {
            let rho = self.row_buf[i];
            if rho == 0.0 {
                continue;
            }
            let (cols, vals) = self.matrix.row(i);
            for (&j, &a) in cols.iter().zip(vals) {
                if self.pivot_stamp[j] != stamp {
                    self.pivot_stamp[j] = stamp;
                    self.pivot_row[j] = 0.0;
                    self.pivot_touched.push(j);
                }
                self.pivot_row[j] += rho * a;
            }
        }
    }

    /// Recompute the basic values exactly: `x_B = B⁻¹ (b - N x_N)`.
    pub(crate) fn recompute_x_basic(&mut self) {
        let m = self.n_rows;
        self.row_buf[..m].copy_from_slice(&self.rhs);
        for j in 0..self.total_cols {
            if self.status[j].is_basic() {
                continue;
            }
            let v = nonbasic_value(self.status[j], self.lower[j], self.upper[j]);
            if v != 0.0 && v.is_finite() {
                self.matrix.scatter_column(j, -v, &mut self.row_buf);
            }
        }
        self.factor.ftran(&mut self.row_buf);
        self.x_basic[..m].copy_from_slice(&self.row_buf[..m]);
    }

    /// Recompute every reduced cost from the working costs: one BTRAN of the
    /// basic costs, then a pass over the CSR rows where the dual vector is
    /// nonzero.
    pub(crate) fn refresh_reduced(&mut self) {
        let m = self.n_rows;
        for i in 0..m {
            self.row_buf[i] = self.work_cost[self.basis[i]];
        }
        self.factor.btran(&mut self.row_buf);
        self.reduced.copy_from_slice(&self.work_cost);
        for i in 0..m {
            let y = self.row_buf[i];
            if y == 0.0 {
                continue;
            }
            let (cols, vals) = self.matrix.row(i);
            for (&j, &a) in cols.iter().zip(vals) {
                self.reduced[j] -= y * a;
            }
        }
        for i in 0..m {
            self.reduced[self.basis[i]] = 0.0;
        }
    }

    /// Record a completed basis change (slot `r` now holds a new column whose
    /// FTRAN image is in `col_buf`) with the factorization: a product-form
    /// eta when stable, otherwise a fresh refactorization — the
    /// stability-triggered policy that replaced the fixed 64-reuse cadence.
    /// A refactorization also recomputes the basic values exactly.
    pub(crate) fn update_factor_after_pivot(&mut self, r: usize) -> Result<()> {
        match self.factor.update(r, &self.col_buf) {
            EtaUpdate::Applied => Ok(()),
            EtaUpdate::Refactor => {
                if !self.factor.refactorize(&self.matrix, &self.basis) {
                    return Err(MilpError::NumericalTrouble(
                        "basis became singular during refactorization".into(),
                    ));
                }
                self.recompute_x_basic();
                Ok(())
            }
        }
    }

    /// Structural variable values at the current basis point.
    fn current_structural_values(&self) -> Vec<f64> {
        let mut values = vec![0.0; self.n_struct];
        #[allow(clippy::needless_range_loop)]
        for j in 0..self.n_struct {
            values[j] = match self.status[j] {
                VarStatus::Basic(slot) => self.x_basic[slot],
                s => nonbasic_value(s, self.lower[j], self.upper[j]),
            };
        }
        values
    }

    /// Extract and verify the optimal point from the current workspace state.
    /// Returns `None` when the point fails verification against the pristine
    /// rows (numerical drift).
    fn package_optimal(&mut self, iterations: usize) -> Option<LpSolution> {
        let values = self.current_structural_values();
        if !self.verify(&values) {
            return None;
        }
        let objective = self.objective_constant
            + (0..self.n_struct)
                .map(|j| self.objective[j] * values[j])
                .sum::<f64>();
        Some(LpSolution {
            status: LpStatus::Optimal,
            objective,
            values,
            iterations,
            warm_started: false,
            refactorizations: 0,
            eta_updates: 0,
            lu_nnz: 0,
        })
    }

    /// Check a candidate point against the original rows and bounds within a
    /// scaled tolerance. Guards against numerical drift — the solution
    /// reported to callers must satisfy the *model*, not the factorization's
    /// opinion of it.
    fn verify(&self, values: &[f64]) -> bool {
        for (j, &v) in values.iter().enumerate().take(self.n_struct) {
            if v < self.lower[j] - VERIFY_BOUND_TOL || v > self.upper[j] + VERIFY_BOUND_TOL {
                return false;
            }
        }
        for i in 0..self.n_rows {
            let (cols, vals) = self.matrix.row(i);
            let activity: f64 = cols
                .iter()
                .zip(vals)
                .filter(|&(&j, _)| j < self.n_struct)
                .map(|(&j, &a)| a * values[j])
                .sum();
            let tol = VERIFY_ROW_TOL * (1.0 + self.rhs[i].abs());
            let ok = match self.senses[i] {
                Sense::Le => activity <= self.rhs[i] + tol,
                Sense::Ge => activity >= self.rhs[i] - tol,
                Sense::Eq => (activity - self.rhs[i]).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Run one primal simplex phase to optimality w.r.t. `self.cost`,
    /// mutating the basis, statuses and factorization in place.
    ///
    /// Pricing is partial devex: a rotating window over the column range is
    /// scanned per pivot, with reduced costs maintained through the pivot row
    /// (BTRAN + one CSR pass — the dense tableau's `O(m·n)` elimination is
    /// gone). Degenerate stalls trigger, in escalating order: randomised
    /// pricing, cost perturbation (tiny status-aligned shifts, removed before
    /// returning `Optimal`), and Bland's rule. The old 5000-pivot stall
    /// bailout is retired: it existed to stop long in-place pivot runs from
    /// corrupting the dense tableau, and the factorized path refactorizes
    /// instead of accumulating that corruption.
    fn primal_phase(
        &mut self,
        max_iterations: usize,
        stop: &StopCondition,
        iterations: &mut usize,
    ) -> Result<LpStatus> {
        let n = self.total_cols;
        let m = self.n_rows;
        self.work_cost.copy_from_slice(&self.cost);
        self.refresh_reduced();
        let bland_threshold = 20 * (n + m) + 2000;
        let mut phase_iters = 0usize;
        // Anti-cycling ladder (see the phase docs): randomised pricing first,
        // then cost perturbation, then Bland.
        let mut degenerate_streak = 0usize;
        let mut perturbed = false;
        let mut perturbation_rounds = 0usize;
        let mut rng_state: u64 = 0x9E37_79B9_7F4A_7C15;
        // Devex reference weights (Forrest–Goldfarb, simplified): pricing by
        // d_j^2 / w_j approximates steepest-edge at a fraction of its cost.
        self.devex.iter_mut().for_each(|w| *w = 1.0);

        loop {
            if *iterations >= max_iterations {
                return Ok(LpStatus::IterationLimit);
            }
            // Checking the clock (and the cancel flag) every pivot would be
            // noticeable on small LPs; every 64 pivots bounds the overshoot
            // well under a millisecond.
            if (*iterations).is_multiple_of(64) && stop.should_stop() {
                return Ok(LpStatus::IterationLimit);
            }
            *iterations += 1;
            phase_iters += 1;
            let use_bland = phase_iters > bland_threshold
                || (degenerate_streak > 150 && perturbation_rounds >= 2);
            let randomize = !use_bland && degenerate_streak > 8;

            // Cost perturbation: after a sustained stall, shift every
            // nonbasic column's cost away from its bound by a tiny
            // pseudo-random amount. The statuses stay dual-consistent (the
            // shift only *grows* each reduced cost's distance from the
            // improving side), but exact ties — the fuel of degenerate
            // cycling — are broken. Removed before returning `Optimal`.
            if !perturbed && degenerate_streak > 48 && perturbation_rounds < 2 {
                for j in 0..n {
                    let sign = match self.status[j] {
                        VarStatus::AtLower => 1.0,
                        VarStatus::AtUpper => -1.0,
                        _ => continue,
                    };
                    rng_state ^= rng_state << 13;
                    rng_state ^= rng_state >> 7;
                    rng_state ^= rng_state << 17;
                    let unit = (rng_state >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                    let eps = sign * (0.5 + unit) * PERTURBATION_SCALE * (1.0 + self.cost[j].abs());
                    self.work_cost[j] += eps;
                    self.reduced[j] += eps;
                }
                perturbed = true;
                perturbation_rounds += 1;
                degenerate_streak = 0;
            }

            // --- Pricing: pick an entering column and a direction. ---
            let entering = if use_bland {
                let mut found = None;
                for j in 0..n {
                    if let Some((dir, _)) = self.price_column(j) {
                        found = Some((j, dir, 0.0));
                        break;
                    }
                }
                found
            } else if randomize {
                // Reservoir-sample one improving column uniformly.
                let mut found: Option<(usize, f64, f64)> = None;
                let mut improving_count = 0usize;
                for j in 0..n {
                    let Some((dir, score)) = self.price_column(j) else {
                        continue;
                    };
                    improving_count += 1;
                    rng_state ^= rng_state << 13;
                    rng_state ^= rng_state >> 7;
                    rng_state ^= rng_state << 17;
                    if found.is_none() || rng_state.is_multiple_of(improving_count as u64) {
                        found = Some((j, dir, score));
                    }
                }
                found
            } else {
                // Partial devex pricing: scan rotating windows until one
                // holds an improving column, then take the best of that
                // window; a full fruitless wrap proves optimality.
                let mut found: Option<(usize, f64, f64)> = None;
                let mut scanned = 0usize;
                let mut pos = self.pricing_cursor.min(n.saturating_sub(1));
                // lint: no-cancel-poll(bounded one pass over the columns; the enclosing pivot loop polls every 64 pivots)
                while scanned < n {
                    let j = pos;
                    pos += 1;
                    if pos == n {
                        pos = 0;
                    }
                    scanned += 1;
                    if let Some((dir, score)) = self.price_column(j) {
                        if found.map(|(_, _, s)| score > s).unwrap_or(true) {
                            found = Some((j, dir, score));
                        }
                    }
                    if found.is_some() && scanned.is_multiple_of(PRICING_WINDOW) {
                        break;
                    }
                }
                self.pricing_cursor = pos;
                found
            };

            let Some((enter_col, direction, _)) = entering else {
                if perturbed {
                    // Optimal for the perturbed costs: remove the shift and
                    // keep pivoting on the true costs (usually zero or a
                    // handful of pivots remain).
                    self.work_cost.copy_from_slice(&self.cost);
                    self.refresh_reduced();
                    perturbed = false;
                    degenerate_streak = 0;
                    continue;
                }
                return Ok(LpStatus::Optimal);
            };

            // --- Ratio test over the FTRANed entering column. ---
            // The entering variable moves away from its bound by `t >= 0` in
            // `direction`; basic variables change by
            // `-direction * t * col_buf[i]`.
            self.ftran_column(enter_col);
            let own_range = self.upper[enter_col] - self.lower[enter_col];
            let mut best_t = if own_range.is_finite() {
                own_range
            } else {
                f64::INFINITY
            };
            let mut leaving: Option<(usize, bool)> = None; // (slot, leaves_at_upper)
            let mut best_pivot_mag = 0.0f64;
            for i in 0..m {
                let alpha = direction * self.col_buf[i];
                let candidate = if alpha > PIVOT_TOL {
                    // Basic variable decreases towards its lower bound.
                    let lo = self.lower[self.basis[i]];
                    lo.is_finite()
                        .then(|| ((self.x_basic[i] - lo) / alpha, (i, false)))
                } else if alpha < -PIVOT_TOL {
                    // Basic variable increases towards its upper bound.
                    let up = self.upper[self.basis[i]];
                    up.is_finite()
                        .then(|| ((up - self.x_basic[i]) / (-alpha), (i, true)))
                } else {
                    None
                };
                let Some((t, which)) = candidate else {
                    continue;
                };
                let t = t.max(0.0);
                // Strictly smaller step wins; among (near-)ties prefer the
                // larger pivot element for numerical stability (or the
                // smallest leaving index under Bland).
                let is_tie = (t - best_t).abs() <= ZERO_TOL;
                let better = if t < best_t - ZERO_TOL {
                    true
                } else if is_tie {
                    if use_bland {
                        leaving.is_none_or(|(slot, _)| self.basis[i] < self.basis[slot])
                    } else {
                        alpha.abs() > best_pivot_mag
                    }
                } else {
                    false
                };
                if better {
                    best_t = t;
                    best_pivot_mag = alpha.abs();
                    leaving = Some(which);
                }
            }

            if best_t.is_infinite() {
                return Ok(LpStatus::Unbounded);
            }
            if best_t <= ZERO_TOL {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }

            // --- Update basic values. ---
            for i in 0..m {
                self.x_basic[i] -= direction * best_t * self.col_buf[i];
            }

            match leaving {
                None => {
                    // Bound flip: the entering column moves to its opposite
                    // bound; the basis (and factorization) are unchanged.
                    self.status[enter_col] = match self.status[enter_col] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        other => other,
                    };
                }
                Some((leave_slot, leaves_at_upper)) => {
                    let leave_col = self.basis[leave_slot];
                    let enter_from = nonbasic_value(
                        self.status[enter_col],
                        self.lower[enter_col],
                        self.upper[enter_col],
                    );
                    let enter_value = enter_from + direction * best_t;
                    let alpha_rq = self.col_buf[leave_slot];
                    if alpha_rq.abs() < PIVOT_TOL {
                        return Err(MilpError::NumericalTrouble(format!(
                            "pivot element too small ({alpha_rq:.3e})"
                        )));
                    }

                    // Pivot row (w.r.t. the *current* factorization), used to
                    // maintain reduced costs and devex weights.
                    self.compute_pivot_row(leave_slot);
                    let d_q = self.reduced[enter_col];
                    let ratio = d_q / alpha_rq;
                    let gamma = self.devex[enter_col].max(1.0);
                    for idx in 0..self.pivot_touched.len() {
                        let j = self.pivot_touched[idx];
                        let a = self.pivot_row[j];
                        if ratio != 0.0 {
                            self.reduced[j] -= ratio * a;
                        }
                        // Devex update over the scaled pivot row; the leaving
                        // column inherits the entering column's reference
                        // weight through the pivot element.
                        let p = a / alpha_rq;
                        let candidate = p * p * gamma;
                        if candidate > self.devex[j] {
                            self.devex[j] = candidate;
                        }
                    }
                    self.reduced[enter_col] = 0.0;
                    self.devex[leave_col] = (gamma / (alpha_rq * alpha_rq)).max(1.0);
                    self.devex[enter_col] = 1.0;
                    if self.devex.iter().any(|&w| w > 1e8) {
                        // Reference framework reset keeps weights meaningful.
                        self.devex.iter_mut().for_each(|w| *w = 1.0);
                    }

                    self.status[leave_col] = if leaves_at_upper {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                    self.status[enter_col] = VarStatus::Basic(leave_slot);
                    self.basis[leave_slot] = enter_col;
                    self.x_basic[leave_slot] = enter_value;
                    self.update_factor_after_pivot(leave_slot)?;
                }
            }

            // Periodically refresh reduced costs to limit drift.
            if phase_iters.is_multiple_of(256) {
                self.refresh_reduced();
            }
        }
    }

    /// Devex pricing of one column: `Some((direction, score))` when entering
    /// it (in that direction) improves the working objective.
    #[inline]
    fn price_column(&self, j: usize) -> Option<(f64, f64)> {
        // A fixed column cannot move; pricing it only buys degenerate
        // bound-flip churn.
        if self.lower[j] >= self.upper[j] && !self.status[j].is_basic() {
            return None;
        }
        let d = self.reduced[j];
        let (dir, improving) = match self.status[j] {
            VarStatus::Basic(_) => return None,
            VarStatus::AtLower => (1.0, d < -COST_TOL),
            VarStatus::AtUpper => (-1.0, d > COST_TOL),
            VarStatus::Free => {
                if d < -COST_TOL {
                    (1.0, true)
                } else if d > COST_TOL {
                    (-1.0, true)
                } else {
                    (1.0, false)
                }
            }
        };
        improving.then(|| (dir, d * d / self.devex[j]))
    }
}

fn initial_status(lower: f64, upper: f64) -> VarStatus {
    if lower.is_finite() {
        VarStatus::AtLower
    } else if upper.is_finite() {
        VarStatus::AtUpper
    } else {
        VarStatus::Free
    }
}

/// Re-anchor a nonbasic status after its bounds changed (a tightened branch
/// can give a previously free column a finite bound, or remove the bound a
/// status referred to entirely).
fn reconcile_status(status: VarStatus, lower: f64, upper: f64) -> VarStatus {
    match status {
        VarStatus::Basic(r) => VarStatus::Basic(r),
        VarStatus::AtLower if lower.is_finite() => VarStatus::AtLower,
        VarStatus::AtUpper if upper.is_finite() => VarStatus::AtUpper,
        _ => initial_status(lower, upper),
    }
}

pub(crate) fn nonbasic_value(status: VarStatus, lower: f64, upper: f64) -> f64 {
    match status {
        VarStatus::AtLower => lower,
        VarStatus::AtUpper => upper,
        VarStatus::Free => 0.0,
        // lint: allow-panic(every call site guards on nonbasic status; a basic column here is a bookkeeping bug)
        VarStatus::Basic(_) => unreachable!("nonbasic_value called on basic column"),
    }
}

/// Convenience: build a one-shot workspace and cold-solve the LP relaxation
/// of a model with the given bounds, optionally bounded by a
/// [`StopCondition`] (deadline and/or cancellation). Branch-and-bound keeps
/// a long-lived [`LpWorkspace`] instead.
pub fn solve_lp(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    max_iterations: usize,
    stop: &StopCondition,
) -> Result<LpSolution> {
    LpWorkspace::new(model)?.solve(lower, upper, None, max_iterations, stop)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Model, Sense};
    use crate::tol::{ASSERT_GAP_TOL, ASSERT_LOOSE_TOL, ASSERT_TOL};

    fn bounds_of(model: &Model) -> (Vec<f64>, Vec<f64>) {
        (
            model.variables().iter().map(|v| v.lower).collect(),
            model.variables().iter().map(|v| v.upper).collect(),
        )
    }

    fn solve(model: &Model) -> LpSolution {
        let (lo, up) = bounds_of(model);
        solve_lp(model, &lo, &up, 100_000, &StopCondition::none()).unwrap()
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 2y st x + y <= 4, x + 3y <= 6, x,y >= 0  => x=4, y=0, obj=12
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(
            "c1",
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Le,
            4.0,
        );
        m.add_constraint(
            "c2",
            LinExpr::term(x, 1.0) + LinExpr::term(y, 3.0),
            Sense::Le,
            6.0,
        );
        m.set_objective(LinExpr::term(x, -3.0) + LinExpr::term(y, -2.0));
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(
            (s.objective - (-12.0)).abs() < ASSERT_TOL,
            "objective {}",
            s.objective
        );
        assert!((s.values[x.index()] - 4.0).abs() < ASSERT_TOL);
        assert!(s.values[y.index()].abs() < ASSERT_TOL);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y st x + y = 10, x >= 3, y >= 2  => obj = 10
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", 3.0, f64::INFINITY);
        let y = m.add_continuous("y", 2.0, f64::INFINITY);
        m.add_constraint(
            "sum",
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Eq,
            10.0,
        );
        m.set_objective(LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0));
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 10.0).abs() < ASSERT_TOL);
        assert!((s.values[x.index()] + s.values[y.index()] - 10.0).abs() < ASSERT_TOL);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c", LinExpr::term(x, 1.0), Sense::Ge, 2.0);
        m.set_objective(LinExpr::term(x, 1.0));
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.add_constraint("c", LinExpr::term(x, 1.0), Sense::Ge, 1.0);
        m.set_objective(LinExpr::term(x, -1.0));
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_respected_without_rows() {
        // min -x - y st x + y <= 10, x <= 3, y <= 4 (bounds, not rows) => obj -7
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, 4.0);
        m.add_constraint(
            "c",
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Le,
            10.0,
        );
        m.set_objective(LinExpr::term(x, -1.0) + LinExpr::term(y, -1.0));
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - (-7.0)).abs() < ASSERT_TOL);
        assert!((s.values[x.index()] - 3.0).abs() < ASSERT_TOL);
        assert!((s.values[y.index()] - 4.0).abs() < ASSERT_TOL);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x st x >= -5 (bound), x + 3 >= 0 -> x >= -3 => obj -3
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", -5.0, 5.0);
        m.add_constraint("c", LinExpr::term(x, 1.0), Sense::Ge, -3.0);
        m.set_objective(LinExpr::term(x, 1.0));
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - (-3.0)).abs() < ASSERT_TOL);
    }

    #[test]
    fn objective_constant_carried_through() {
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", 0.0, 2.0);
        m.set_objective(LinExpr::term(x, 1.0) + LinExpr::constant(100.0));
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 100.0).abs() < ASSERT_TOL);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Several redundant constraints through the same vertex.
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        for i in 0..10 {
            m.add_constraint(
                format!("c{i}"),
                LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0 + i as f64 * ASSERT_GAP_TOL),
                Sense::Le,
                1.0,
            );
        }
        m.set_objective(LinExpr::term(x, -1.0) + LinExpr::term(y, -1.0));
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 1.0).abs() < ASSERT_LOOSE_TOL);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn bigger_random_lp_feasible_and_optimal_bound() {
        // A transportation-style LP with known optimum.
        // min sum_{i,j} c_ij x_ij, row sums = supply, col sums = demand.
        let supplies = [20.0, 30.0, 25.0];
        let demands = [10.0, 25.0, 20.0, 20.0];
        let costs = [
            [8.0, 6.0, 10.0, 9.0],
            [9.0, 12.0, 13.0, 7.0],
            [14.0, 9.0, 16.0, 5.0],
        ];
        let mut m = Model::new("transport");
        let mut vars = vec![];
        for i in 0..3 {
            let mut row = vec![];
            for j in 0..4 {
                row.push(m.add_continuous(format!("x{i}{j}"), 0.0, f64::INFINITY));
            }
            vars.push(row);
        }
        for i in 0..3 {
            let mut e = LinExpr::zero();
            for j in 0..4 {
                e.add_term(vars[i][j], 1.0);
            }
            m.add_constraint(format!("s{i}"), e, Sense::Le, supplies[i]);
        }
        for j in 0..4 {
            let mut e = LinExpr::zero();
            for i in 0..3 {
                e.add_term(vars[i][j], 1.0);
            }
            m.add_constraint(format!("d{j}"), e, Sense::Eq, demands[j]);
        }
        let mut obj = LinExpr::zero();
        for i in 0..3 {
            for j in 0..4 {
                obj.add_term(vars[i][j], costs[i][j]);
            }
        }
        m.set_objective(obj);
        let s = solve(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        // The optimum of this instance is 615 (verified by the MODI method:
        // the plan x01=20, x10=10, x12=20, x13=0, x21=5, x23=20 has all
        // non-negative reduced costs).
        for j in 0..4 {
            let col: f64 = (0..3).map(|i| s.values[vars[i][j].index()]).sum();
            assert!((col - demands[j]).abs() < ASSERT_LOOSE_TOL);
        }
        for i in 0..3 {
            let row: f64 = (0..4).map(|j| s.values[vars[i][j].index()]).sum();
            assert!(row <= supplies[i] + ASSERT_LOOSE_TOL);
        }
        assert!(
            (s.objective - 615.0).abs() < ASSERT_LOOSE_TOL,
            "objective {}",
            s.objective
        );
    }

    #[test]
    fn warm_start_matches_cold_after_bound_change() {
        // Solve, snapshot, tighten a bound as branching would, and check the
        // warm re-solve agrees with a from-scratch cold solve.
        let mut m = Model::new("warm");
        let x = m.add_continuous("x", 0.0, 4.0);
        let y = m.add_continuous("y", 0.0, 4.0);
        m.add_constraint(
            "c1",
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Le,
            6.0,
        );
        m.add_constraint(
            "c2",
            LinExpr::term(x, 2.0) + LinExpr::term(y, 1.0),
            Sense::Ge,
            2.0,
        );
        m.set_objective(LinExpr::term(x, -2.0) + LinExpr::term(y, -1.0));
        let (lo, up) = bounds_of(&m);

        let mut ws = LpWorkspace::new(&m).unwrap();
        let root = ws
            .solve(&lo, &up, None, 10_000, &StopCondition::none())
            .unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        assert!(!root.warm_started);
        let basis = ws.snapshot_basis().expect("optimal solve snapshots");

        // Branch: x <= 1.
        let mut up2 = up.clone();
        up2[x.index()] = 1.0;
        let warm = ws
            .solve(&lo, &up2, Some(&basis), 10_000, &StopCondition::none())
            .unwrap();
        assert!(warm.warm_started, "child solve should take the warm path");
        assert_eq!(warm.status, LpStatus::Optimal);
        let cold = solve_lp(&m, &lo, &up2, 10_000, &StopCondition::none()).unwrap();
        assert!(
            (warm.objective - cold.objective).abs() < ASSERT_TOL,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }

    #[test]
    fn warm_start_detects_child_infeasibility() {
        let mut m = Model::new("warm-inf");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint(
            "c",
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Ge,
            5.0,
        );
        m.set_objective(LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0));
        let (lo, up) = bounds_of(&m);
        let mut ws = LpWorkspace::new(&m).unwrap();
        let root = ws
            .solve(&lo, &up, None, 10_000, &StopCondition::none())
            .unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = ws.snapshot_basis().unwrap();
        // x <= 1, y <= 2 makes the >= 5 row unsatisfiable.
        let mut up2 = up.clone();
        up2[x.index()] = 1.0;
        up2[y.index()] = 2.0;
        let warm = ws
            .solve(&lo, &up2, Some(&basis), 10_000, &StopCondition::none())
            .unwrap();
        assert_eq!(warm.status, LpStatus::Infeasible);
    }

    #[test]
    fn workspace_is_reusable_across_many_solves() {
        let mut m = Model::new("reuse");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint(
            "c",
            LinExpr::term(x, 1.0) + LinExpr::term(y, 2.0),
            Sense::Le,
            10.0,
        );
        m.set_objective(LinExpr::term(x, -1.0) + LinExpr::term(y, -1.0));
        let (lo, up) = bounds_of(&m);
        let mut ws = LpWorkspace::new(&m).unwrap();
        let mut basis: Option<Basis> = None;
        for cap in [10.0, 8.0, 6.0, 4.0, 2.0] {
            let mut up2 = up.clone();
            up2[x.index()] = cap;
            let sol = ws
                .solve(&lo, &up2, basis.as_ref(), 10_000, &StopCondition::none())
                .unwrap();
            assert_eq!(sol.status, LpStatus::Optimal);
            let expected = -(cap + (10.0 - cap) / 2.0);
            assert!(
                (sol.objective - expected).abs() < ASSERT_TOL,
                "cap {cap}: got {} want {expected}",
                sol.objective
            );
            basis = ws.snapshot_basis();
            assert!(basis.is_some());
        }
    }
}
