//! Reusable simplex basis snapshots for warm-started node LP solves.
//!
//! A branch-and-bound child node differs from its parent by a single variable
//! bound (plus whatever node propagation tightens), so the parent's optimal
//! basis is dual feasible for the child: the objective and the constraint
//! matrix are unchanged, only bounds move. [`Basis`] captures exactly the
//! information needed to restart the simplex from that point — which columns
//! are basic and at which bound every nonbasic column rests — without storing
//! any factorization. [`crate::simplex::LpWorkspace`] restores a snapshot by
//! LU-factorizing its basic set directly from the sparse constraint matrix
//! (a sparse elimination — see [`crate::lu`]) and then runs the bound-flip
//! dual simplex ([`crate::dual`]) to restore primal feasibility.

/// Status of one column in a simplex basis.
///
/// Mirrors the textbook bounded-variable simplex states: a column is either
/// basic in some row, or nonbasic resting at one of its bounds (or at zero
/// when both bounds are infinite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarStatus {
    /// Basic in the given basis slot. The slot index is advisory: a warm
    /// start only uses the *set* of basic columns (slot assignment is
    /// re-derived when the basis is refactorized).
    Basic(usize),
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free column (both bounds infinite), resting at zero.
    Free,
}

impl VarStatus {
    /// Whether the column is basic.
    #[must_use]
    pub fn is_basic(&self) -> bool {
        matches!(self, VarStatus::Basic(_))
    }
}

/// A snapshot of a simplex basis: one [`VarStatus`] per column of the LP
/// (structural variables first, then one logical column per row).
///
/// Snapshots are taken from an optimal solve via
/// [`crate::simplex::LpWorkspace::snapshot_basis`] and handed back to
/// [`crate::simplex::LpWorkspace::solve`] to warm-start a related solve.
/// They are cheap to clone (one byte-sized enum per column) and are shared
/// between sibling branch-and-bound nodes via `Rc`.
#[derive(Debug, Clone)]
pub struct Basis {
    statuses: Vec<VarStatus>,
}

impl Basis {
    /// Build a snapshot from per-column statuses. `statuses[j]` describes
    /// column `j` in the workspace's column order (structural, then logical).
    pub(crate) fn new(statuses: Vec<VarStatus>) -> Self {
        Basis { statuses }
    }

    /// Per-column statuses (structural variables first, then logicals).
    pub fn statuses(&self) -> &[VarStatus] {
        &self.statuses
    }

    /// Number of columns covered by the snapshot.
    pub fn num_columns(&self) -> usize {
        self.statuses.len()
    }

    /// Number of basic columns (must equal the row count of the LP for the
    /// snapshot to be loadable).
    pub fn num_basic(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_basic()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_accessors() {
        let basis = Basis::new(vec![
            VarStatus::Basic(0),
            VarStatus::AtLower,
            VarStatus::AtUpper,
            VarStatus::Basic(1),
            VarStatus::Free,
        ]);
        assert_eq!(basis.num_columns(), 5);
        assert_eq!(basis.num_basic(), 2);
        assert!(basis.statuses()[0].is_basic());
        assert!(!basis.statuses()[4].is_basic());
    }
}
