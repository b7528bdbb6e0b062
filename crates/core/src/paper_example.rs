//! The paper's running example (Tables 1 and 2, the *scholarship query*).
//!
//! The database and the query live in [`qr_relation::paper_example`], so the
//! unit tests of every layer share one copy; this module adds the example's
//! diversity constraints.

use crate::constraint::{CardinalityConstraint, ConstraintSet, Group};
pub use qr_relation::paper_example::{paper_database, scholarship_query};

/// The diversity constraints of Example 1.1: at least 3 of the top-6 are
/// women, at most 1 of the top-3 has a high family income.
pub fn scholarship_constraints() -> ConstraintSet {
    ConstraintSet::new()
        .with(CardinalityConstraint::at_least(
            Group::single("Gender", "F"),
            6,
            3,
        ))
        .with(CardinalityConstraint::at_most(
            Group::single("Income", "High"),
            3,
            1,
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_relation::evaluate;

    #[test]
    fn example_database_shapes() {
        let db = paper_database();
        assert_eq!(db.get("Students").unwrap().len(), 14);
        assert_eq!(db.get("Activities").unwrap().len(), 14);
        let q = scholarship_query();
        assert_eq!(evaluate(&db, &q).unwrap().len(), 7);
        let c = scholarship_constraints();
        assert_eq!(c.len(), 2);
        assert_eq!(c.k_star(), 6);
    }
}
