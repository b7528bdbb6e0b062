//! Sparse LU factorization of a simplex basis with Markowitz pivoting.
//!
//! The refinement LPs are extremely sparse (big-M indicator rows touch 2–3
//! structural columns, and most basis columns are unit logical columns), so
//! the basis matrix `B` is factorized as `P B Q = L U` by right-looking
//! Gaussian elimination where each pivot is chosen to minimise the
//! **Markowitz count** `(r_i - 1)(c_j - 1)` — the worst-case fill-in of the
//! elimination step — among entries that also pass a threshold test against
//! the largest magnitude in their column (stability). Unit columns and
//! singleton rows are eliminated with *zero* fill, so `nnz(L) + nnz(U)` stays
//! close to `nnz(B)` on the refinement bases.
//!
//! The pivot search does not rescan the slots at every step (see
//! [`LuFactors::factorize`]): the active singleton columns sit in a
//! slot-ordered bitset and the other active columns in a heap ordered by
//! (count, slot). Only the columns an elimination step touches are
//! re-filed, and they reach the heap only when a step finds no live
//! singleton. A factorization therefore costs the elimination work on the
//! factors' nonzeros, a logarithmic heap update per re-filed column, and a
//! scan of `m / 64` bitset words per step.
//!
//! The factors support the two solves the revised simplex needs:
//!
//! * [`LuFactors::ftran`] — solve `B x = b` (entering column / basic values),
//! * [`LuFactors::btran`] — solve `Bᵀ y = c` (pricing / pivot rows),
//!
//! both in-place on a dense work vector, skipping zero positions so a sparse
//! right-hand side costs roughly the flops of its nonzero pattern.
//!
//! [`LuFactors`] is only a snapshot of one basis; pivot-by-pivot maintenance
//! (product-form eta updates, refactorization policy) lives in
//! [`crate::factor`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::factor::SparseMatrix;

use crate::tol::{
    LU_ABS_PIVOT_TOL as ABS_PIVOT_TOL, LU_DROP_TOL as DROP_TOL, LU_REL_PIVOT_TOL as REL_PIVOT_TOL,
};

/// How many of the sparsest active columns the pivot search inspects per
/// elimination step (Suhl-style bounded Markowitz search).
const SEARCH_COLS: usize = 4;

/// Sparse LU factors of a basis matrix `B` (`m × m`, given as `m` column
/// indices into a [`SparseMatrix`]), with row and column permutations chosen
/// by Markowitz pivoting.
///
/// Storage layout (all flattened, rebuilt in place by
/// [`factorize`](Self::factorize)):
///
/// * `L` is unit lower triangular in elimination order; column `k` holds the
///   multipliers of step `k` indexed by *original* row,
/// * `U` is upper triangular in elimination order; the column eliminated at
///   step `k` holds its above-diagonal entries indexed by *step*, and the
///   diagonal is the pivot sequence.
#[derive(Debug, Default)]
pub struct LuFactors {
    m: usize,
    /// Step -> original row eliminated at that step.
    pivot_rows: Vec<usize>,
    /// Step -> basis slot (position in the basis column list) eliminated.
    pivot_slots: Vec<usize>,
    /// Original row -> step at which it was eliminated.
    row_pos: Vec<usize>,
    /// Pivot values per step (the diagonal of `U`).
    pivots: Vec<f64>,
    // L columns per step: entries (original_row, multiplier).
    l_ptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    // U columns per step: entries (earlier_step, value).
    u_ptr: Vec<usize>,
    u_steps: Vec<usize>,
    u_vals: Vec<f64>,
    /// Dense scratch used by the solves (slot/step staging area).
    scratch: Vec<f64>,
}

/// Marks a [`LuScratch::row_slots`] record whose entry has left its column.
const GONE: usize = usize::MAX;

/// Reusable working storage for [`LuFactors::factorize`]; keeping it outside
/// the factors lets a caller refactorize thousands of times without
/// re-allocating the elimination structures.
#[derive(Debug, Default)]
pub struct LuScratch {
    /// Active entries per basis slot: (original_row, value).
    cols: Vec<Vec<(usize, f64)>>,
    /// Per slot, parallel to `cols`: the position of each entry's record in
    /// its row's `row_slots` list.
    col_recs: Vec<Vec<usize>>,
    /// Per original row: one `(slot, index into cols[slot])` record per entry
    /// the row has had in a column. The index is exact while the entry is in
    /// an active column and [`GONE`] once it left; records of eliminated
    /// columns are stale and skipped.
    row_slots: Vec<Vec<(usize, usize)>>,
    /// Exact active-nonzero counts per row (a column's count is its length).
    row_count: Vec<usize>,
    row_done: Vec<bool>,
    col_done: Vec<bool>,
    /// Dense index: position+1 of each row in the column currently being
    /// updated (0 = absent).
    pos_of_row: Vec<usize>,
    /// U columns under construction, per slot: entries (step, value).
    u_build: Vec<Vec<(usize, f64)>>,
    /// The pivot row's entries of the current step: (slot, value).
    u_row: Vec<(usize, f64)>,
    /// Active columns with exactly one entry, one bit per slot.
    singletons: Vec<u64>,
    /// The other active columns, keyed by (count, slot). Keys whose count or
    /// column went stale are dropped when they surface.
    candidates: BinaryHeap<Reverse<(usize, usize)>>,
    /// Non-singleton columns whose count changed since the heap last saw
    /// them, pushed into it when a step has no live singleton: most steps
    /// have one, so most count changes never reach the heap.
    dirty: Vec<usize>,
    is_dirty: Vec<bool>,
}

impl LuScratch {
    /// Append `(row, val)` to column `slot`, recording it in the row's list.
    fn push_entry(&mut self, slot: usize, row: usize, val: f64) {
        self.col_recs[slot].push(self.row_slots[row].len());
        self.row_slots[row].push((slot, self.cols[slot].len()));
        self.cols[slot].push((row, val));
    }

    /// `swap_remove` entry `idx` of column `slot`, keeping the records of
    /// the removed entry and of the one moved into its place exact.
    fn swap_remove_entry(&mut self, slot: usize, idx: usize) -> (usize, f64) {
        let (row, val) = self.cols[slot].swap_remove(idx);
        let rec = self.col_recs[slot].swap_remove(idx);
        self.row_slots[row][rec].1 = GONE;
        if let Some(&(moved_row, _)) = self.cols[slot].get(idx) {
            self.row_slots[moved_row][self.col_recs[slot][idx]].1 = idx;
        }
        (row, val)
    }

    /// File active column `slot` under its current count: into the
    /// singleton bitset for count 1, otherwise out of it and onto the dirty
    /// list.
    fn file_column(&mut self, slot: usize) {
        let bit = 1u64 << (slot % 64);
        if self.cols[slot].len() == 1 {
            self.singletons[slot / 64] |= bit;
        } else {
            self.singletons[slot / 64] &= !bit;
            if !self.is_dirty[slot] {
                self.is_dirty[slot] = true;
                self.dirty.push(slot);
            }
        }
    }

    /// Markowitz pivot search. Returns the `(slot, index_in_column)` of:
    ///
    /// 1. the lowest-slot active singleton column whose entry passes
    ///    [`ABS_PIVOT_TOL`] (Markowitz cost 0, unbeatable; numerically dead
    ///    singletons are skipped), otherwise
    /// 2. among the [`SEARCH_COLS`] active non-singleton columns smallest by
    ///    (count, slot), the entry that passes the stability threshold with
    ///    the least Markowitz cost, then the larger magnitude, then the
    ///    earlier position, otherwise
    /// 3. the same choice over every active column (rare).
    ///
    /// Rule 1 reads the singleton bitset from its lowest word and rule 2
    /// pops the candidate heap, after pushing the dirty columns; only rule 3
    /// walks the slots.
    fn select_pivot(&mut self) -> Option<(usize, usize)> {
        for (word_idx, &word) in self.singletons.iter().enumerate() {
            let mut bits = word;
            // lint: no-cancel-poll(one iteration per set bit of a 64-bit word)
            while bits != 0 {
                let slot = word_idx * 64 + bits.trailing_zeros() as usize;
                let (row, val) = self.cols[slot][0];
                if !self.row_done[row] && val.abs() >= ABS_PIVOT_TOL {
                    return Some((slot, 0));
                }
                bits &= bits - 1;
            }
        }

        for slot in self.dirty.drain(..) {
            self.is_dirty[slot] = false;
            let count = self.cols[slot].len();
            if !self.col_done[slot] && count != 1 {
                self.candidates.push(Reverse((count, slot)));
            }
        }
        // The SEARCH_COLS smallest live keys, in (count, slot) order; equal
        // keys surface together, so a repeat is the previous key.
        let mut chosen: [usize; SEARCH_COLS] = [usize::MAX; SEARCH_COLS];
        let mut n_chosen = 0usize;
        while n_chosen < SEARCH_COLS {
            let Some(Reverse((count, slot))) = self.candidates.pop() else {
                break;
            };
            let live = !self.col_done[slot] && self.cols[slot].len() == count;
            if live && (n_chosen == 0 || chosen[n_chosen - 1] != slot) {
                chosen[n_chosen] = slot;
                n_chosen += 1;
            }
        }
        for &slot in &chosen[..n_chosen] {
            self.candidates.push(Reverse((self.cols[slot].len(), slot)));
        }

        let mut best = None;
        for &slot in &chosen[..n_chosen] {
            self.fold_best_entry(slot, &mut best);
        }
        if best.is_none() {
            // None of the sparsest columns had a stable entry: widen the
            // search to every active column.
            for slot in (0..self.cols.len()).filter(|&s| !self.col_done[s]) {
                self.fold_best_entry(slot, &mut best);
            }
        }
        best.map(|(slot, idx, _, _)| (slot, idx))
    }

    /// Fold the threshold-passing entries of column `slot` into `best`
    /// (slot, idx, Markowitz cost, magnitude): a lower cost wins, then a
    /// strictly larger magnitude, so ties keep the earlier entry.
    fn fold_best_entry(&self, slot: usize, best: &mut Option<(usize, usize, usize, f64)>) {
        let col = &self.cols[slot];
        let col_max = col
            .iter()
            .filter(|&&(r, _)| !self.row_done[r])
            .map(|&(_, v)| v.abs())
            .fold(0.0f64, f64::max);
        if col_max < ABS_PIVOT_TOL {
            return;
        }
        let threshold = (col_max * REL_PIVOT_TOL).max(ABS_PIVOT_TOL);
        for (idx, &(row, val)) in col.iter().enumerate() {
            if self.row_done[row] || val.abs() < threshold {
                continue;
            }
            let cost = (self.row_count[row] - 1) * (col.len() - 1);
            let better = match *best {
                None => true,
                Some((_, _, c, mag)) => cost < c || (cost == c && val.abs() > mag),
            };
            if better {
                *best = Some((slot, idx, cost, val.abs()));
            }
        }
    }
}

impl LuFactors {
    /// Factorize the basis given by `basis` (slot -> column of `matrix`).
    /// Returns `false` when the basis is numerically or structurally singular
    /// (the factors are then unusable until the next successful call).
    ///
    /// Each step pivots on the lowest-slot live singleton column if there is
    /// one, and otherwise on the cheapest stable entry of the sparsest
    /// columns (the rule is spelled out on the private `select_pivot`). When
    /// a step's L column is empty (a singleton pivot, the common case) the
    /// rank-1 update changes no value, so its index and drop passes over the
    /// target columns are skipped — unless the basis loaded an entry at or
    /// below [`DROP_TOL`], which the first drop pass over its column would
    /// remove.
    pub fn factorize(
        &mut self,
        matrix: &SparseMatrix,
        basis: &[usize],
        ws: &mut LuScratch,
    ) -> bool {
        let m = matrix.num_rows();
        debug_assert_eq!(basis.len(), m);
        self.m = m;
        self.pivot_rows.clear();
        self.pivot_slots.clear();
        self.pivots.clear();
        self.row_pos.clear();
        self.row_pos.resize(m, usize::MAX);
        self.l_ptr.clear();
        self.l_ptr.push(0);
        self.l_rows.clear();
        self.l_vals.clear();
        self.scratch.resize(m, 0.0);

        // --- Load the working matrix. ---
        ws.cols.resize_with(m, Vec::new);
        ws.col_recs.resize_with(m, Vec::new);
        ws.row_slots.resize_with(m, Vec::new);
        ws.u_build.resize_with(m, Vec::new);
        ws.row_count.clear();
        ws.row_count.resize(m, 0);
        ws.row_done.clear();
        ws.row_done.resize(m, false);
        ws.col_done.clear();
        ws.col_done.resize(m, false);
        ws.pos_of_row.clear();
        ws.pos_of_row.resize(m, 0);
        ws.singletons.clear();
        ws.singletons.resize(m.div_ceil(64), 0);
        ws.candidates.clear();
        ws.dirty.clear();
        ws.is_dirty.clear();
        ws.is_dirty.resize(m, false);
        for slot in 0..m {
            ws.cols[slot].clear();
            ws.col_recs[slot].clear();
            ws.u_build[slot].clear();
        }
        for row in 0..m {
            ws.row_slots[row].clear();
        }
        let mut tiny_loaded = false;
        for (slot, &col) in basis.iter().enumerate() {
            let (rows, vals) = matrix.column(col);
            for (&row, &val) in rows.iter().zip(vals) {
                if val == 0.0 {
                    continue;
                }
                tiny_loaded |= val.abs() <= DROP_TOL;
                ws.push_entry(slot, row, val);
                ws.row_count[row] += 1;
            }
            if ws.cols[slot].is_empty() {
                return false; // structurally singular: empty column
            }
            ws.file_column(slot);
        }
        if ws.row_count.contains(&0) {
            return false; // structurally singular: empty row
        }

        // --- Elimination: m Markowitz-pivoted steps. ---
        for step in 0..m {
            let Some((p_slot, p_idx)) = ws.select_pivot() else {
                return false; // no acceptable pivot: singular
            };
            let p_row = ws.cols[p_slot][p_idx].0;
            let p_val = ws.cols[p_slot][p_idx].1;
            self.pivot_rows.push(p_row);
            self.pivot_slots.push(p_slot);
            self.pivots.push(p_val);
            self.row_pos[p_row] = step;
            ws.row_done[p_row] = true;
            ws.col_done[p_slot] = true;
            ws.singletons[p_slot / 64] &= !(1u64 << (p_slot % 64));

            // L column: the pivot column's other active entries, scaled.
            for &(row, val) in &ws.cols[p_slot] {
                if row == p_row || ws.row_done[row] {
                    continue;
                }
                self.l_rows.push(row);
                self.l_vals.push(val / p_val);
                ws.row_count[row] -= 1;
            }
            // lint: allow-panic(l_ptr starts as vec![0] and only ever grows)
            let l_start = *self.l_ptr.last().expect("l_ptr is never empty");
            let l_end = self.l_rows.len();
            self.l_ptr.push(l_end);

            // Pivot row: each live record names an active column holding
            // the row and the entry's exact index; record U entries and
            // remove them from the active columns.
            let mut u_row = std::mem::take(&mut ws.u_row);
            u_row.clear();
            for rec in 0..ws.row_slots[p_row].len() {
                let (slot, idx) = ws.row_slots[p_row][rec];
                if idx == GONE || ws.col_done[slot] {
                    continue;
                }
                debug_assert_eq!(ws.cols[slot][idx].0, p_row);
                let (_, val) = ws.swap_remove_entry(slot, idx);
                u_row.push((slot, val));
                ws.u_build[slot].push((step, val));
            }

            // Rank-1 update: cols[j] -= l_col * u_j for every U-row entry.
            // An empty L column changes nothing, and with no loaded entry at
            // or below DROP_TOL its drop pass would drop nothing.
            if l_start < l_end || tiny_loaded {
                for &(slot, u_val) in &u_row {
                    if u_val == 0.0 {
                        continue;
                    }
                    // Index the target column by row for the merge.
                    for (idx, &(row, _)) in ws.cols[slot].iter().enumerate() {
                        ws.pos_of_row[row] = idx + 1;
                    }
                    for l_idx in l_start..l_end {
                        let row = self.l_rows[l_idx];
                        let delta = -self.l_vals[l_idx] * u_val;
                        let pos = ws.pos_of_row[row];
                        if pos == 0 {
                            ws.push_entry(slot, row, delta);
                            ws.pos_of_row[row] = ws.cols[slot].len();
                            ws.row_count[row] += 1;
                        } else {
                            ws.cols[slot][pos - 1].1 += delta;
                        }
                    }
                    // Drop numerically cancelled entries and clear the index.
                    let mut idx = 0;
                    while idx < ws.cols[slot].len() {
                        let (row, val) = ws.cols[slot][idx];
                        ws.pos_of_row[row] = 0;
                        if val.abs() <= DROP_TOL {
                            ws.swap_remove_entry(slot, idx);
                            ws.row_count[row] -= 1;
                            // swap_remove moved an unvisited entry into idx;
                            // its pos_of_row entry is cleared when idx
                            // reaches it.
                        } else {
                            idx += 1;
                        }
                    }
                }
            }
            for &(slot, _) in &u_row {
                ws.file_column(slot);
            }
            ws.u_row = u_row;
        }

        // --- Flatten U in step order. ---
        self.u_ptr.clear();
        self.u_ptr.push(0);
        self.u_steps.clear();
        self.u_vals.clear();
        for step in 0..m {
            let slot = self.pivot_slots[step];
            for &(s, v) in &ws.u_build[slot] {
                self.u_steps.push(s);
                self.u_vals.push(v);
            }
            self.u_ptr.push(self.u_steps.len());
        }
        true
    }

    /// Number of rows/columns of the factorized basis.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Total stored nonzeros (`L` off-diagonals + `U` off-diagonals +
    /// pivots) — the fill-in health metric reported by the solver stats.
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.pivots.len()
    }

    /// Solve `B x = b` in place: `x` enters holding `b` indexed by row and
    /// leaves holding the solution indexed by **basis slot**.
    pub fn ftran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        // Forward: L z = P b, in elimination order over original rows.
        for step in 0..self.m {
            let z = x[self.pivot_rows[step]];
            if z != 0.0 {
                for idx in self.l_ptr[step]..self.l_ptr[step + 1] {
                    x[self.l_rows[idx]] -= self.l_vals[idx] * z;
                }
            }
        }
        // Backward: U w = z, scatter form (skips zero solution entries).
        for step in (0..self.m).rev() {
            let w = x[self.pivot_rows[step]] / self.pivots[step];
            self.scratch[self.pivot_slots[step]] = w;
            if w != 0.0 {
                for idx in self.u_ptr[step]..self.u_ptr[step + 1] {
                    x[self.pivot_rows[self.u_steps[idx]]] -= self.u_vals[idx] * w;
                }
            }
        }
        x.copy_from_slice(&self.scratch[..self.m]);
    }

    /// Solve `Bᵀ y = c` in place: `x` enters holding `c` indexed by **basis
    /// slot** and leaves holding the solution indexed by row.
    pub fn btran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        // Forward: Uᵀ t = Qᵀ c (gather over each U column's earlier steps).
        for step in 0..self.m {
            let mut acc = x[self.pivot_slots[step]];
            for idx in self.u_ptr[step]..self.u_ptr[step + 1] {
                acc -= self.u_vals[idx] * self.scratch[self.u_steps[idx]];
            }
            self.scratch[step] = acc / self.pivots[step];
        }
        // Backward: Lᵀ (P y) = t (gather; every referenced row position is a
        // later, already-final step).
        for step in (0..self.m).rev() {
            let mut acc = self.scratch[step];
            for idx in self.l_ptr[step]..self.l_ptr[step + 1] {
                acc -= self.l_vals[idx] * self.scratch[self.row_pos[self.l_rows[idx]]];
            }
            self.scratch[step] = acc;
        }
        for step in 0..self.m {
            x[self.pivot_rows[step]] = self.scratch[step];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::SparseMatrix;
    use crate::tol::ASSERT_TIGHT_TOL;
    use proptest::prelude::*;

    fn matrix_from_dense(dense: &[&[f64]]) -> SparseMatrix {
        let m = dense.len();
        let n = dense[0].len();
        let cols: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|j| {
                (0..m)
                    .filter(|&i| dense[i][j] != 0.0)
                    .map(|i| (i, dense[i][j]))
                    .collect()
            })
            .collect();
        SparseMatrix::from_columns(m, &cols)
    }

    #[test]
    fn factorize_and_solve_small() {
        let mat = matrix_from_dense(&[&[2.0, 1.0, 0.0], &[0.0, 0.0, 3.0], &[4.0, 0.0, 1.0]]);
        let basis = [0usize, 1, 2];
        let mut lu = LuFactors::default();
        let mut ws = LuScratch::default();
        assert!(lu.factorize(&mat, &basis, &mut ws));

        // B x = b with b = (3, 6, 9): solve and check by substitution.
        let b = [3.0, 6.0, 9.0];
        let mut x = b;
        lu.ftran(&mut x);
        #[allow(clippy::needless_range_loop)]
        for i in 0..3 {
            let mut acc = 0.0;
            for (slot, &col) in basis.iter().enumerate() {
                let (rows, vals) = mat.column(col);
                for (&r, &v) in rows.iter().zip(vals) {
                    if r == i {
                        acc += v * x[slot];
                    }
                }
            }
            assert!(
                (acc - b[i]).abs() < ASSERT_TIGHT_TOL,
                "row {i}: {acc} vs {}",
                b[i]
            );
        }

        // B^T y = c with c = (1, -2, 5).
        let c = [1.0, -2.0, 5.0];
        let mut y = c;
        lu.btran(&mut y);
        for (slot, &col) in basis.iter().enumerate() {
            let (rows, vals) = mat.column(col);
            let acc: f64 = rows.iter().zip(vals).map(|(&r, &v)| v * y[r]).sum();
            assert!((acc - c[slot]).abs() < ASSERT_TIGHT_TOL, "slot {slot}");
        }
    }

    #[test]
    fn singular_basis_rejected() {
        let mat = matrix_from_dense(&[&[1.0, 2.0, 0.0], &[2.0, 4.0, 0.0], &[0.0, 0.0, 1.0]]);
        // Columns 0 and 1 are linearly dependent.
        let mut lu = LuFactors::default();
        let mut ws = LuScratch::default();
        assert!(!lu.factorize(&mat, &[0, 1, 2], &mut ws));
    }

    #[test]
    fn zero_column_rejected() {
        let cols = vec![vec![(0usize, 1.0)], vec![]];
        let mat = SparseMatrix::from_columns(2, &cols);
        let mut lu = LuFactors::default();
        let mut ws = LuScratch::default();
        assert!(!lu.factorize(&mat, &[0, 1], &mut ws));
    }

    /// The pivot search as it stood before the singleton bitset and the
    /// candidate heap: every step rescans all `m` slots, the pivot-row walk
    /// finds each entry with a linear `position` search, and every rank-1
    /// update runs its index and drop passes. Kept only so the proptest
    /// below can check that the factorization above reproduces it bit for
    /// bit.
    mod reference {
        use super::super::{LuFactors, ABS_PIVOT_TOL, DROP_TOL, REL_PIVOT_TOL, SEARCH_COLS};
        use crate::factor::SparseMatrix;

        #[derive(Debug, Default)]
        pub(super) struct Scratch {
            cols: Vec<Vec<(usize, f64)>>,
            row_slots: Vec<Vec<usize>>,
            row_count: Vec<usize>,
            col_count: Vec<usize>,
            row_done: Vec<bool>,
            col_done: Vec<bool>,
            pos_of_row: Vec<usize>,
            u_build: Vec<Vec<(usize, f64)>>,
        }

        pub(super) fn factorize(
            lu: &mut LuFactors,
            matrix: &SparseMatrix,
            basis: &[usize],
            ws: &mut Scratch,
        ) -> bool {
            let m = matrix.num_rows();
            lu.m = m;
            lu.pivot_rows.clear();
            lu.pivot_slots.clear();
            lu.pivots.clear();
            lu.row_pos.clear();
            lu.row_pos.resize(m, usize::MAX);
            lu.l_ptr.clear();
            lu.l_ptr.push(0);
            lu.l_rows.clear();
            lu.l_vals.clear();
            lu.scratch.resize(m, 0.0);

            ws.cols.resize_with(m, Vec::new);
            ws.row_slots.resize_with(m, Vec::new);
            ws.u_build.resize_with(m, Vec::new);
            ws.row_count.clear();
            ws.row_count.resize(m, 0);
            ws.col_count.clear();
            ws.col_count.resize(m, 0);
            ws.row_done.clear();
            ws.row_done.resize(m, false);
            ws.col_done.clear();
            ws.col_done.resize(m, false);
            ws.pos_of_row.clear();
            ws.pos_of_row.resize(m, 0);
            for slot in 0..m {
                ws.cols[slot].clear();
                ws.u_build[slot].clear();
            }
            for row in 0..m {
                ws.row_slots[row].clear();
            }
            for (slot, &col) in basis.iter().enumerate() {
                let (rows, vals) = matrix.column(col);
                for (&row, &val) in rows.iter().zip(vals) {
                    if val == 0.0 {
                        continue;
                    }
                    ws.cols[slot].push((row, val));
                    ws.row_slots[row].push(slot);
                    ws.row_count[row] += 1;
                }
                ws.col_count[slot] = ws.cols[slot].len();
                if ws.cols[slot].is_empty() {
                    return false;
                }
            }
            if ws.row_count.contains(&0) {
                return false;
            }

            for step in 0..m {
                let Some((p_slot, p_idx)) = select_pivot(ws, m) else {
                    return false;
                };
                let p_row = ws.cols[p_slot][p_idx].0;
                let p_val = ws.cols[p_slot][p_idx].1;
                lu.pivot_rows.push(p_row);
                lu.pivot_slots.push(p_slot);
                lu.pivots.push(p_val);
                lu.row_pos[p_row] = step;
                ws.row_done[p_row] = true;
                ws.col_done[p_slot] = true;

                let col = std::mem::take(&mut ws.cols[p_slot]);
                for &(row, val) in &col {
                    if row == p_row || ws.row_done[row] {
                        continue;
                    }
                    lu.l_rows.push(row);
                    lu.l_vals.push(val / p_val);
                    ws.row_count[row] -= 1;
                }
                let l_start = lu.l_ptr[lu.l_ptr.len() - 1];
                let l_end = lu.l_rows.len();
                lu.l_ptr.push(l_end);
                ws.cols[p_slot] = col;

                let row_slots = std::mem::take(&mut ws.row_slots[p_row]);
                let mut u_row: Vec<(usize, f64)> = Vec::with_capacity(row_slots.len());
                for &slot in &row_slots {
                    if ws.col_done[slot] {
                        continue;
                    }
                    let Some(idx) = ws.cols[slot].iter().position(|&(r, _)| r == p_row) else {
                        continue;
                    };
                    let (_, val) = ws.cols[slot].swap_remove(idx);
                    ws.col_count[slot] -= 1;
                    u_row.push((slot, val));
                    ws.u_build[slot].push((step, val));
                }
                ws.row_slots[p_row] = row_slots;

                for &(slot, u_val) in &u_row {
                    if u_val == 0.0 {
                        continue;
                    }
                    for (idx, &(row, _)) in ws.cols[slot].iter().enumerate() {
                        ws.pos_of_row[row] = idx + 1;
                    }
                    for l_idx in l_start..l_end {
                        let row = lu.l_rows[l_idx];
                        let delta = -lu.l_vals[l_idx] * u_val;
                        let pos = ws.pos_of_row[row];
                        if pos == 0 {
                            ws.cols[slot].push((row, delta));
                            ws.pos_of_row[row] = ws.cols[slot].len();
                            ws.row_slots[row].push(slot);
                            ws.row_count[row] += 1;
                            ws.col_count[slot] += 1;
                        } else {
                            ws.cols[slot][pos - 1].1 += delta;
                        }
                    }
                    let mut idx = 0;
                    while idx < ws.cols[slot].len() {
                        let (row, val) = ws.cols[slot][idx];
                        ws.pos_of_row[row] = 0;
                        if val.abs() <= DROP_TOL {
                            ws.cols[slot].swap_remove(idx);
                            ws.col_count[slot] -= 1;
                            ws.row_count[row] -= 1;
                        } else {
                            idx += 1;
                        }
                    }
                }
            }

            lu.u_ptr.clear();
            lu.u_ptr.push(0);
            lu.u_steps.clear();
            lu.u_vals.clear();
            for step in 0..m {
                let slot = lu.pivot_slots[step];
                for &(s, v) in &ws.u_build[slot] {
                    lu.u_steps.push(s);
                    lu.u_vals.push(v);
                }
                lu.u_ptr.push(lu.u_steps.len());
            }
            true
        }

        fn select_pivot(ws: &Scratch, m: usize) -> Option<(usize, usize)> {
            let mut chosen: [usize; SEARCH_COLS] = [usize::MAX; SEARCH_COLS];
            let mut n_chosen = 0usize;
            for slot in 0..m {
                if ws.col_done[slot] {
                    continue;
                }
                if ws.col_count[slot] == 1 {
                    let col = &ws.cols[slot];
                    if let Some(idx) = col
                        .iter()
                        .position(|&(r, v)| !ws.row_done[r] && v.abs() >= ABS_PIVOT_TOL)
                    {
                        return Some((slot, idx));
                    }
                    continue;
                }
                let mut insert = n_chosen;
                while insert > 0 && ws.col_count[slot] < ws.col_count[chosen[insert - 1]] {
                    insert -= 1;
                }
                if insert < SEARCH_COLS {
                    let end = (n_chosen + 1).min(SEARCH_COLS);
                    for k in (insert + 1..end).rev() {
                        chosen[k] = chosen[k - 1];
                    }
                    chosen[insert] = slot;
                    n_chosen = end;
                }
            }

            let mut best: Option<(usize, usize, usize)> = None;
            let mut best_mag = 0.0f64;
            let mut scan_column = |slot: usize, best: &mut Option<(usize, usize, usize)>| {
                let col = &ws.cols[slot];
                let col_max = col
                    .iter()
                    .filter(|&&(r, _)| !ws.row_done[r])
                    .map(|&(_, v)| v.abs())
                    .fold(0.0f64, f64::max);
                if col_max < ABS_PIVOT_TOL {
                    return;
                }
                let threshold = (col_max * REL_PIVOT_TOL).max(ABS_PIVOT_TOL);
                for (idx, &(row, val)) in col.iter().enumerate() {
                    if ws.row_done[row] || val.abs() < threshold {
                        continue;
                    }
                    let cost = (ws.row_count[row] - 1) * (ws.col_count[slot] - 1);
                    let better = match *best {
                        None => true,
                        Some((_, _, c)) => cost < c || (cost == c && val.abs() > best_mag),
                    };
                    if better {
                        *best = Some((slot, idx, cost));
                        best_mag = val.abs();
                    }
                }
            };
            for &slot in &chosen[..n_chosen] {
                scan_column(slot, &mut best);
            }
            if best.is_none() {
                for slot in (0..m).filter(|&s| !ws.col_done[s]) {
                    scan_column(slot, &mut best);
                }
            }
            best.map(|(slot, idx, _)| (slot, idx))
        }
    }

    /// Everything a factorization leaves behind, with every float as its
    /// bit pattern, so `==` means bit-identical.
    fn factor_bits(lu: &LuFactors) -> Vec<Vec<u64>> {
        let ints = |v: &[usize]| v.iter().map(|&x| x as u64).collect::<Vec<u64>>();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        vec![
            vec![lu.m as u64],
            ints(&lu.pivot_slots),
            ints(&lu.pivot_rows),
            ints(&lu.row_pos),
            bits(&lu.pivots),
            ints(&lu.l_ptr),
            ints(&lu.l_rows),
            bits(&lu.l_vals),
            ints(&lu.u_ptr),
            ints(&lu.u_steps),
            bits(&lu.u_vals),
        ]
    }

    /// A random basis shaped like the refinement bases, plus the features
    /// that steer the pivot search. Slot `j` holds row `perm[j]` of a random
    /// row permutation: alone with probability `slack_pct`% (a slack-like
    /// singleton column), and
    /// otherwise as a structural column with `1..=extra` (with
    /// `fixed_extra`, exactly `extra`: count ties) more rows. `palette` 0
    /// draws small integers (exact cancellation to 0), 1 continuous
    /// magnitudes, 2 values a fraction of `LU_DROP_TOL` away from ±1
    /// (cancellation to a nonzero `≤ LU_DROP_TOL`). With `dead`, one column
    /// is scaled below `LU_ABS_PIVOT_TOL` (a dead singleton once it is down
    /// to one entry), and with probability `tiny_pct`% a structural column
    /// gets an extra entry at or below `LU_DROP_TOL`.
    #[derive(Debug, Clone, Copy)]
    struct BasisShape {
        m: usize,
        slack_pct: u64,
        extra: usize,
        fixed_extra: bool,
        palette: u64,
        dead: bool,
        tiny_pct: u64,
    }

    fn random_basis(shape: BasisShape, seed: u64) -> (SparseMatrix, Vec<usize>) {
        let mut rng = proptest::test_runner::TestRng::new(seed);
        let m = shape.m;
        let value = |rng: &mut proptest::test_runner::TestRng| -> f64 {
            let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
            let mag = match shape.palette {
                0 => [1.0, 2.0, 0.5, 4.0][rng.below(4) as usize],
                1 => 0.1 + 3.0 * rng.next_f64(),
                _ => [1.0, 1.0 + DROP_TOL * 0.25, 1.0 - DROP_TOL * 0.5, 2.0][rng.below(4) as usize],
            };
            sign * mag
        };
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let dead_slot = shape.dead.then(|| rng.below(m as u64) as usize);
        let mut columns: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        for (slot, &own_row) in perm.iter().enumerate() {
            let mut col = vec![(own_row, value(&mut rng))];
            if rng.below(100) >= shape.slack_pct {
                let n_extra = if shape.fixed_extra {
                    shape.extra
                } else {
                    1 + rng.below(shape.extra as u64) as usize
                };
                for _ in 0..n_extra {
                    let row = rng.below(m as u64) as usize;
                    if col.iter().all(|&(r, _)| r != row) {
                        col.push((row, value(&mut rng)));
                    }
                }
                if rng.below(100) < shape.tiny_pct {
                    let row = rng.below(m as u64) as usize;
                    if col.iter().all(|&(r, _)| r != row) {
                        col.push((row, DROP_TOL * 0.5));
                    }
                }
            }
            if dead_slot == Some(slot) {
                for entry in &mut col {
                    entry.1 *= ABS_PIVOT_TOL * 0.2;
                }
            }
            columns.push(col);
        }
        let matrix = SparseMatrix::from_columns(m, &columns);
        (matrix, (0..m).collect())
    }

    fn shape_strategy() -> impl Strategy<Value = BasisShape> {
        (
            (1usize..150, 0u64..100, 1usize..5),
            (any::<bool>(), 0u64..3, 0u64..4, 0u64..12),
        )
            .prop_map(
                |((m, slack_pct, extra), (fixed_extra, palette, dead, tiny_pct))| BasisShape {
                    m,
                    slack_pct,
                    extra,
                    fixed_extra,
                    palette,
                    dead: dead == 0,
                    tiny_pct,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The bitset/heap pivot search with exact entry records and the
        /// empty-L shortcut reproduces the slot-scan factorization bit for
        /// bit: the same verdict, pivot sequence, L, U and pivots — over
        /// near-slack and structural bases, count ties, dead singletons,
        /// exact and near cancellations, and tiny loaded entries. One
        /// scratch serves every basis of a case, as in the solver.
        #[test]
        fn pivot_search_matches_slot_scan_reference(shape in shape_strategy(), seed in 1u64..1_000_000) {
            let mut lu = LuFactors::default();
            let mut ws = LuScratch::default();
            let mut lu_ref = LuFactors::default();
            let mut ws_ref = reference::Scratch::default();
            // Shrink and regrow the scratch between rounds.
            for (round, m) in [shape.m, shape.m / 2 + 1, shape.m].into_iter().enumerate() {
                let shape = BasisShape { m, ..shape };
                let (matrix, basis) = random_basis(shape, seed * 3 + round as u64);
                let ok = lu.factorize(&matrix, &basis, &mut ws);
                let ok_ref = reference::factorize(&mut lu_ref, &matrix, &basis, &mut ws_ref);
                prop_assert_eq!(ok, ok_ref);
                prop_assert_eq!(factor_bits(&lu), factor_bits(&lu_ref));
            }
        }
    }
}
