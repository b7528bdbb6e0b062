//! Basis factorization maintenance: the sparse constraint matrix and the
//! product-form eta file on top of the LU factors.
//!
//! [`SparseMatrix`] stores the LP constraint matrix once, in **CSC** (the
//! solver's column view: FTRAN right-hand sides, ratio tests) with a parallel
//! **CSR** view (the pricing view: reduced-cost updates walk only the rows
//! where the BTRAN solution is nonzero).
//!
//! [`BasisFactorization`] wraps [`crate::lu::LuFactors`] and keeps it current
//! across simplex pivots with **product-form (PFI) eta updates**: replacing
//! the basis column in slot `r` by column `a_q` multiplies `B` on the right
//! by an elementary matrix `E` whose column `r` is `α = B⁻¹ a_q` — a vector
//! the simplex iteration has already computed for its ratio test. `B⁻¹`
//! application then composes the LU solve with the stored etas (forward for
//! FTRAN, reversed and transposed for BTRAN), so a pivot costs `O(nnz(α))`
//! bookkeeping instead of the dense tableau's `O(m·n)` elimination.
//!
//! The eta file refactorizes on a **stability/size trigger**
//! ([`EtaUpdate::Refactor`]): a too-small pivot in `α` (absolutely, or
//! relative to the largest entry of `α`), a full eta file (`MAX_ETAS` etas),
//! or an eta file holding more than `ETA_FILL_FACTOR` times the LU factors'
//! nonzeros all force a fresh Markowitz factorization — which is `O(nnz)` on
//! these bases, cheap enough to treat as a first-class operation rather than
//! a last resort. Every basis, whatever its size, runs this one kernel.

use crate::lu::{LuFactors, LuScratch};
use crate::tol::{ETA_DROP_TOL, ETA_PIVOT_TOL, ETA_REL_PIVOT_TOL};

/// Maximum number of eta matrices chained on one factorization.
const MAX_ETAS: usize = 48;

/// Refactorize when the eta file holds more than this multiple of the LU
/// factors' nonzeros (fill-in trigger: applying the etas has begun to cost
/// more than refactorizing).
const ETA_FILL_FACTOR: usize = 2;

/// A sparse matrix stored in both CSC (column) and CSR (row) form.
///
/// Built once per LP from the model; the CSC side drives FTRAN right-hand
/// sides and ratio tests, the CSR side drives pricing (computing a tableau
/// row `ρᵀA` touches only the rows where `ρ` is nonzero).
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    m: usize,
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    col_val: Vec<f64>,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    row_val: Vec<f64>,
}

impl SparseMatrix {
    /// Build from per-column entry lists `(row, value)`; zero values are
    /// skipped. `m` is the row count; the column count is `columns.len()`.
    pub fn from_columns(m: usize, columns: &[Vec<(usize, f64)>]) -> Self {
        let n = columns.len();
        let mut col_ptr = Vec::with_capacity(n + 1);
        col_ptr.push(0);
        let nnz: usize = columns.iter().map(|c| c.len()).sum();
        let mut row_idx = Vec::with_capacity(nnz);
        let mut col_val = Vec::with_capacity(nnz);
        let mut row_counts = vec![0usize; m];
        for col in columns {
            for &(row, val) in col {
                if val == 0.0 {
                    continue;
                }
                debug_assert!(row < m);
                row_idx.push(row);
                col_val.push(val);
                row_counts[row] += 1;
            }
            col_ptr.push(row_idx.len());
        }

        // CSR view by counting sort over the CSC entries.
        let mut row_ptr = Vec::with_capacity(m + 1);
        row_ptr.push(0);
        for i in 0..m {
            row_ptr.push(row_ptr[i] + row_counts[i]);
        }
        let mut cursor = row_ptr[..m].to_vec();
        let mut col_idx = vec![0usize; row_idx.len()];
        let mut row_val = vec![0.0f64; row_idx.len()];
        for j in 0..n {
            for k in col_ptr[j]..col_ptr[j + 1] {
                let i = row_idx[k];
                col_idx[cursor[i]] = j;
                row_val[cursor[i]] = col_val[k];
                cursor[i] += 1;
            }
        }

        SparseMatrix {
            m,
            n,
            col_ptr,
            row_idx,
            col_val,
            row_ptr,
            col_idx,
            row_val,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.m
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Column `j` as parallel `(rows, values)` slices (CSC view).
    pub fn column(&self, j: usize) -> (&[usize], &[f64]) {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[range.clone()], &self.col_val[range])
    }

    /// Row `i` as parallel `(columns, values)` slices (CSR view).
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[range.clone()], &self.row_val[range])
    }

    /// Scatter `scale * column j` into a dense row-space vector.
    pub fn scatter_column(&self, j: usize, scale: f64, out: &mut [f64]) {
        let (rows, vals) = self.column(j);
        for (&i, &v) in rows.iter().zip(vals) {
            out[i] += scale * v;
        }
    }

    /// Dot product of a dense row-space vector with column `j`.
    pub fn column_dot(&self, j: usize, x: &[f64]) -> f64 {
        let (rows, vals) = self.column(j);
        rows.iter().zip(vals).map(|(&i, &v)| v * x[i]).sum()
    }
}

/// One product-form update: basis slot `r` received a column whose FTRAN
/// image was `α`; `B_new = B_old · E` with `E = I` except column `r = α`.
#[derive(Debug, Clone)]
struct Eta {
    slot: usize,
    pivot: f64,
    /// Off-pivot entries of `α`, as `(slot, value)`.
    entries: Vec<(usize, f64)>,
}

/// Outcome of [`BasisFactorization::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtaUpdate {
    /// The eta was appended; the factorization tracks the new basis.
    Applied,
    /// The update was refused (unstable pivot), or the eta file is full or
    /// has outgrown the LU factors: the caller must refactorize from the
    /// matrix before the next solve.
    Refactor,
}

/// LU factors plus the eta file: a complete representation of `B⁻¹` that the
/// revised simplex keeps current across pivots.
#[derive(Debug, Default)]
pub struct BasisFactorization {
    lu: LuFactors,
    lu_scratch: LuScratch,
    etas: Vec<Eta>,
    eta_nnz: usize,
    /// Entry buffers of retired etas, recycled by [`Self::update`] so the
    /// pivot hot path performs no steady-state allocation.
    spare_entries: Vec<Vec<(usize, f64)>>,
    /// Lifetime counters, read (as deltas) by the solver statistics.
    refactorizations: usize,
    eta_updates: usize,
    peak_lu_nnz: usize,
}

impl BasisFactorization {
    /// Factorize the basis from scratch (sparse Markowitz LU; the eta file
    /// is cleared). Returns `false` on a singular basis (the factorization is
    /// then unusable until a successful call).
    pub fn refactorize(&mut self, matrix: &SparseMatrix, basis: &[usize]) -> bool {
        self.spare_entries
            .extend(self.etas.drain(..).map(|eta| eta.entries));
        self.eta_nnz = 0;
        self.refactorizations += 1;
        let ok = self.lu.factorize(matrix, basis, &mut self.lu_scratch);
        if ok {
            self.peak_lu_nnz = self.peak_lu_nnz.max(self.lu.nnz());
            #[cfg(debug_assertions)]
            self.debug_check_residuals(matrix, basis);
        }
        ok
    }

    /// `debug_assertions`-only self-check run after every successful
    /// refactorization: round-trip probe vectors through FTRAN and BTRAN and
    /// measure the residuals against the sparse matrix itself. LU solves are
    /// backward-stable, so an honest factorization leaves residuals around
    /// machine precision; a residual past
    /// [`crate::tol::DEBUG_RESIDUAL_TOL`] means the factors do not represent
    /// the basis (an indexing or update bug, not rounding) and panics here,
    /// at the factorization, instead of surfacing later as a mysteriously
    /// infeasible or suboptimal solve.
    #[cfg(debug_assertions)]
    fn debug_check_residuals(&mut self, matrix: &SparseMatrix, basis: &[usize]) {
        use crate::tol::DEBUG_RESIDUAL_TOL;
        let m = basis.len();

        // FTRAN probe: b = B·1 (row space), solve B x = b, then measure
        // ‖B x − b‖∞ relative to ‖b‖∞.
        let mut b = vec![0.0; m];
        for &col in basis {
            matrix.scatter_column(col, 1.0, &mut b);
        }
        let scale = b.iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
        let mut x = b.clone();
        self.ftran(&mut x);
        let mut bx = vec![0.0; m];
        for (slot, &col) in basis.iter().enumerate() {
            matrix.scatter_column(col, x[slot], &mut bx);
        }
        let ftran_residual = bx
            .iter()
            .zip(&b)
            .map(|(lhs, rhs)| (lhs - rhs).abs())
            .fold(0.0f64, f64::max);
        debug_assert!(
            ftran_residual <= DEBUG_RESIDUAL_TOL * scale,
            "FTRAN self-check: residual {ftran_residual:e} exceeds {:e} \
             (the LU factors do not represent the basis)",
            DEBUG_RESIDUAL_TOL * scale,
        );

        // BTRAN probe: c = Bᵀ·1 (slot space), solve Bᵀ y = c, then measure
        // ‖Bᵀ y − c‖∞ relative to ‖c‖∞.
        let ones = vec![1.0; m];
        let mut c: Vec<f64> = basis
            .iter()
            .map(|&col| matrix.column_dot(col, &ones))
            .collect();
        let scale = c.iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
        let expected = c.clone();
        self.btran(&mut c);
        let btran_residual = basis
            .iter()
            .zip(&expected)
            .map(|(&col, rhs)| (matrix.column_dot(col, &c) - rhs).abs())
            .fold(0.0f64, f64::max);
        debug_assert!(
            btran_residual <= DEBUG_RESIDUAL_TOL * scale,
            "BTRAN self-check: residual {btran_residual:e} exceeds {:e} \
             (the LU factors do not represent the basis)",
            DEBUG_RESIDUAL_TOL * scale,
        );
    }

    /// Replace the column in basis slot `r`, where `alpha` is the FTRAN image
    /// `B⁻¹ a_q` of the entering column (dense, slot-indexed). On
    /// [`EtaUpdate::Refactor`] nothing was recorded and the caller must
    /// [`refactorize`](Self::refactorize) with the updated basis.
    pub fn update(&mut self, r: usize, alpha: &[f64]) -> EtaUpdate {
        let pivot = alpha[r];
        if pivot.abs() < ETA_PIVOT_TOL
            || self.etas.len() >= MAX_ETAS
            || self.eta_nnz > ETA_FILL_FACTOR * self.lu.nnz().max(self.lu.dim())
        {
            return EtaUpdate::Refactor;
        }
        // One pass: collect the off-pivot entries and the column's magnitude
        // for the relative stability check, reusing a retired eta's buffer.
        let mut entries = self.spare_entries.pop().unwrap_or_default();
        entries.clear();
        let mut max_mag = pivot.abs();
        for (i, &v) in alpha.iter().enumerate() {
            let mag = v.abs();
            max_mag = max_mag.max(mag);
            if i != r && mag > ETA_DROP_TOL {
                entries.push((i, v));
            }
        }
        if pivot.abs() < ETA_REL_PIVOT_TOL * max_mag {
            self.spare_entries.push(entries);
            return EtaUpdate::Refactor;
        }
        self.eta_nnz += entries.len() + 1;
        self.eta_updates += 1;
        self.etas.push(Eta {
            slot: r,
            pivot,
            entries,
        });
        EtaUpdate::Applied
    }

    /// Solve `B x = b` in place (`b` row-indexed in, solution slot-indexed
    /// out): LU solve, then the etas in application order.
    pub fn ftran(&mut self, x: &mut [f64]) {
        self.lu.ftran(x);
        for eta in &self.etas {
            let xr = x[eta.slot] / eta.pivot;
            x[eta.slot] = xr;
            if xr != 0.0 {
                for &(i, v) in &eta.entries {
                    x[i] -= v * xr;
                }
            }
        }
    }

    /// Solve `Bᵀ y = c` in place (`c` slot-indexed in, solution row-indexed
    /// out): the eta transposes in reverse order, then the LU solve.
    pub fn btran(&mut self, x: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut acc = x[eta.slot];
            for &(i, v) in &eta.entries {
                acc -= v * x[i];
            }
            x[eta.slot] = acc / eta.pivot;
        }
        self.lu.btran(x);
    }

    /// Number of etas chained on the last refactorization.
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Nonzeros of the current LU factors (fill-in metric; the eta file is
    /// not counted).
    pub fn lu_nnz(&self) -> usize {
        self.lu.nnz()
    }

    /// Largest LU size seen since the last call to this method (resets the
    /// tracker to the current size). Lets each solve report its own peak
    /// fill even when a late refactorization of a sparser basis shrank the
    /// factors before the solve finished.
    pub fn take_peak_lu_nnz(&mut self) -> usize {
        std::mem::replace(&mut self.peak_lu_nnz, self.lu.nnz())
    }

    /// Lifetime refactorization count.
    pub fn refactorization_count(&self) -> usize {
        self.refactorizations
    }

    /// Lifetime eta-update count.
    pub fn eta_update_count(&self) -> usize {
        self.eta_updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tol::{ASSERT_TIGHT_TOL, ZERO_TOL};

    fn two_by_two() -> SparseMatrix {
        // Columns: [2, 1], [0, 4], e0, e1.
        SparseMatrix::from_columns(
            2,
            &[
                vec![(0, 2.0), (1, 1.0)],
                vec![(1, 4.0)],
                vec![(0, 1.0)],
                vec![(1, 1.0)],
            ],
        )
    }

    #[test]
    fn csr_and_csc_agree() {
        let m = two_by_two();
        assert_eq!(m.nnz(), 5);
        let (cols, vals) = m.row(1);
        let mut pairs: Vec<(usize, f64)> = cols.iter().zip(vals).map(|(&c, &v)| (c, v)).collect();
        pairs.sort_by_key(|&(c, _)| c);
        assert_eq!(pairs, vec![(0, 1.0), (1, 4.0), (3, 1.0)]);
        assert!((m.column_dot(0, &[1.0, 10.0]) - 12.0).abs() < ZERO_TOL);
    }

    #[test]
    fn eta_update_tracks_column_replacement() {
        let m = two_by_two();
        let mut f = BasisFactorization::default();
        // Start from the slack basis {e0, e1}.
        let mut basis = vec![2usize, 3];
        assert!(f.refactorize(&m, &basis));

        // Bring column 0 into slot 0: alpha = B^-1 a_0 = a_0.
        let mut alpha = vec![0.0; 2];
        m.scatter_column(0, 1.0, &mut alpha);
        f.ftran(&mut alpha);
        assert_eq!(f.update(0, &alpha), EtaUpdate::Applied);
        basis[0] = 0;

        // FTRAN through the eta must now agree with a fresh factorization.
        let b = [3.0, 7.0];
        let mut via_eta = b;
        f.ftran(&mut via_eta);
        let mut fresh = BasisFactorization::default();
        assert!(fresh.refactorize(&m, &basis));
        let mut via_fresh = b;
        fresh.ftran(&mut via_fresh);
        for i in 0..2 {
            assert!(
                (via_eta[i] - via_fresh[i]).abs() < ASSERT_TIGHT_TOL,
                "slot {i}: {} vs {}",
                via_eta[i],
                via_fresh[i]
            );
        }

        // Same for BTRAN.
        let c = [-1.0, 2.0];
        let mut y_eta = c;
        f.btran(&mut y_eta);
        let mut y_fresh = c;
        fresh.btran(&mut y_fresh);
        for i in 0..2 {
            assert!((y_eta[i] - y_fresh[i]).abs() < ASSERT_TIGHT_TOL);
        }
    }

    #[test]
    fn tiny_eta_pivot_requests_refactorization() {
        let m = two_by_two();
        let mut f = BasisFactorization::default();
        assert!(f.refactorize(&m, &[2, 3]));
        let alpha = vec![ZERO_TOL, 5.0];
        assert_eq!(f.update(0, &alpha), EtaUpdate::Refactor);
        assert_eq!(f.eta_count(), 0);
        // As the largest entry of its column the pivot passes the relative
        // check, so only the absolute floor refuses it.
        let alpha = vec![ETA_PIVOT_TOL / 2.0, 0.0];
        assert_eq!(f.update(0, &alpha), EtaUpdate::Refactor);
        assert_eq!(f.eta_count(), 0);
    }

    /// The `m × m` identity factorized as a slack basis: its LU holds
    /// exactly `m` pivots, so the eta-file triggers below fire at known
    /// counts. Returns the matrix too, for refactorizing after a refusal.
    fn identity_basis(m: usize) -> (SparseMatrix, BasisFactorization) {
        let columns: Vec<Vec<(usize, f64)>> = (0..m).map(|i| vec![(i, 1.0)]).collect();
        let matrix = SparseMatrix::from_columns(m, &columns);
        let mut f = BasisFactorization::default();
        assert!(f.refactorize(&matrix, &(0..m).collect::<Vec<_>>()));
        assert_eq!(f.lu_nnz(), m);
        (matrix, f)
    }

    #[test]
    fn small_relative_eta_pivot_requests_refactorization() {
        // The pivot clears the absolute floor but is tiny next to the rest
        // of its column: the relative trigger alone refuses the update.
        let (_, mut f) = identity_basis(2);
        let pivot = 10.0 * ETA_PIVOT_TOL;
        let refused = [pivot, 10.0 * pivot / ETA_REL_PIVOT_TOL];
        assert_eq!(f.update(0, &refused), EtaUpdate::Refactor);
        assert_eq!(f.eta_count(), 0);
        // The same pivot beside a smaller off-pivot entry is accepted.
        let accepted = [pivot, pivot / (10.0 * ETA_REL_PIVOT_TOL)];
        assert_eq!(f.update(0, &accepted), EtaUpdate::Applied);
        assert_eq!(f.eta_count(), 1);
    }

    #[test]
    fn eta_file_refactorizes_at_max_etas() {
        // Unit etas add one nonzero each and never reach the fill trigger
        // on this basis, so only the length cap refuses the next update.
        let m = MAX_ETAS;
        assert!(MAX_ETAS <= ETA_FILL_FACTOR * m);
        let (matrix, mut f) = identity_basis(m);
        let unit = |r: usize| {
            let mut e = vec![0.0; m];
            e[r] = 1.0;
            e
        };
        for r in 0..MAX_ETAS {
            assert_eq!(f.update(r, &unit(r)), EtaUpdate::Applied, "eta {r}");
        }
        assert_eq!(f.eta_count(), MAX_ETAS);
        assert_eq!(f.update(0, &unit(0)), EtaUpdate::Refactor);
        assert_eq!(f.eta_count(), MAX_ETAS);
        // A refactorization clears the file and updates apply again.
        assert!(f.refactorize(&matrix, &(0..m).collect::<Vec<_>>()));
        assert_eq!(f.eta_count(), 0);
        assert_eq!(f.update(0, &unit(0)), EtaUpdate::Applied);
    }

    #[test]
    fn eta_file_refactorizes_when_it_outgrows_the_lu() {
        // Dense etas store m nonzeros each against an m-nonzero LU: once the
        // file holds more than ETA_FILL_FACTOR × m nonzeros the next update
        // is refused, long before the length cap.
        let m = 8;
        let (_, mut f) = identity_basis(m);
        let alpha = vec![1.0; m];
        let applied = (0..=MAX_ETAS)
            .take_while(|&r| f.update(r % m, &alpha) == EtaUpdate::Applied)
            .count();
        assert_eq!(applied, ETA_FILL_FACTOR + 1);
        assert!(applied < MAX_ETAS);
        assert_eq!(f.eta_count(), applied);
    }

    #[test]
    fn refactorize_refuses_singular_bases() {
        // Two copies of the same column: numerically singular, must refuse.
        let column = vec![(0, 1.0), (1, 2.0)];
        let m = SparseMatrix::from_columns(2, &[column.clone(), column]);
        let mut f = BasisFactorization::default();
        assert!(!f.refactorize(&m, &[0, 1]));
    }
}
