//! Conjunctive SPJ queries with `ORDER BY` and optional `DISTINCT`.
//!
//! A [`SpjQuery`] selects tuples from the natural join of one or more base
//! relations, filters them by the conjunction of its numerical and categorical
//! predicates, optionally de-duplicates on the projected attributes
//! (`SELECT DISTINCT`), projects, and ranks the result by a single scoring
//! attribute (`ORDER BY score DESC|ASC`).
//!
//! This is exactly the query class of Section 2 of the paper.

use crate::error::{RelationError, Result};
use crate::predicate::{CategoricalPredicate, CmpOp, NumericPredicate};

/// Ranking direction of the `ORDER BY` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortOrder {
    /// Highest score first (the common case in the paper).
    Descending,
    /// Lowest score first.
    Ascending,
}

/// Projection list of the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectList {
    /// `SELECT *`: all columns of the joined relation.
    All,
    /// An explicit list of column names.
    Columns(Vec<String>),
}

impl SelectList {
    /// The explicit columns, if any.
    pub fn columns(&self) -> Option<&[String]> {
        match self {
            SelectList::All => None,
            SelectList::Columns(c) => Some(c),
        }
    }
}

/// A conjunctive Select-Project-Join query with `ORDER BY`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpjQuery {
    /// Base relations, natural-joined left to right.
    pub tables: Vec<String>,
    /// Projection list.
    pub select: SelectList,
    /// Whether `SELECT DISTINCT` semantics apply (de-duplicate on the
    /// projected attributes, keeping the highest-ranked duplicate).
    pub distinct: bool,
    /// Numerical selection predicates (conjunctive).
    pub numeric_predicates: Vec<NumericPredicate>,
    /// Categorical selection predicates (conjunctive).
    pub categorical_predicates: Vec<CategoricalPredicate>,
    /// Scoring attribute of the `ORDER BY` clause.
    pub order_by: String,
    /// Ranking direction.
    pub order: SortOrder,
}

impl SpjQuery {
    /// Start building a query over a single base relation; more relations can
    /// be added with [`SpjQueryBuilder::join`].
    pub fn builder(table: impl Into<String>) -> SpjQueryBuilder {
        SpjQueryBuilder {
            tables: vec![table.into()],
            select: SelectList::All,
            distinct: false,
            numeric_predicates: Vec::new(),
            categorical_predicates: Vec::new(),
            order_by: None,
            order: SortOrder::Descending,
        }
    }

    /// Total number of selection predicates, `|Preds(Q)|` in the paper.
    pub fn predicate_count(&self) -> usize {
        self.numeric_predicates.len() + self.categorical_predicates.len()
    }

    /// The numerical predicate on an attribute, if any. If the attribute has
    /// several numerical predicates (e.g. `x >= 1 AND x <= 3`) the first one
    /// is returned; use [`SpjQuery::numeric_predicate_with_op`] to
    /// disambiguate.
    pub fn numeric_predicate(&self, attribute: &str) -> Option<&NumericPredicate> {
        self.numeric_predicates
            .iter()
            .find(|p| p.attribute == attribute)
    }

    /// The numerical predicate on an attribute with a specific operator.
    pub fn numeric_predicate_with_op(
        &self,
        attribute: &str,
        op: CmpOp,
    ) -> Option<&NumericPredicate> {
        self.numeric_predicates
            .iter()
            .find(|p| p.attribute == attribute && p.op == op)
    }

    /// The categorical predicate on an attribute, if any.
    pub fn categorical_predicate(&self, attribute: &str) -> Option<&CategoricalPredicate> {
        self.categorical_predicates
            .iter()
            .find(|p| p.attribute == attribute)
    }

    /// Attributes appearing in selection predicates, `Preds(Q)` in the paper.
    pub fn predicate_attributes(&self) -> Vec<&str> {
        self.numeric_predicates
            .iter()
            .map(|p| p.attribute.as_str())
            .chain(
                self.categorical_predicates
                    .iter()
                    .map(|p| p.attribute.as_str()),
            )
            .collect()
    }

    /// A copy of the query with all selection predicates and the `DISTINCT`
    /// marker removed: the query `~Q` of Section 3.1, whose output contains
    /// the output of every possible refinement.
    pub fn relaxed(&self) -> SpjQuery {
        SpjQuery {
            tables: self.tables.clone(),
            select: SelectList::All,
            distinct: false,
            numeric_predicates: Vec::new(),
            categorical_predicates: Vec::new(),
            order_by: self.order_by.clone(),
            order: self.order,
        }
    }

    /// Validate basic structural invariants (non-empty FROM list, unique
    /// predicate attributes).
    pub fn validate(&self) -> Result<()> {
        if self.tables.is_empty() {
            return Err(RelationError::InvalidQuery(
                "query has no base relations".into(),
            ));
        }
        if self.order_by.is_empty() {
            return Err(RelationError::InvalidQuery(
                "query has no ORDER BY attribute".into(),
            ));
        }
        // Numerical predicates are identified by (attribute, operator): the
        // same attribute may carry e.g. both a lower and an upper bound
        // (`"Space Walks" >= 1 AND "Space Walks" <= 3` in the paper's Q_A),
        // but repeating the same operator would be ambiguous for refinement.
        let mut seen_num: Vec<(&str, CmpOp)> = Vec::new();
        for p in &self.numeric_predicates {
            let key = (p.attribute.as_str(), p.op);
            if seen_num.contains(&key) {
                return Err(RelationError::InvalidQuery(format!(
                    "attribute `{}` has more than one `{}` predicate",
                    p.attribute, p.op
                )));
            }
            seen_num.push(key);
        }
        // Categorical predicates are identified by attribute alone.
        let mut seen_cat: Vec<&str> = Vec::new();
        for p in &self.categorical_predicates {
            if seen_cat.contains(&p.attribute.as_str()) {
                return Err(RelationError::InvalidQuery(format!(
                    "attribute `{}` appears in more than one categorical predicate",
                    p.attribute
                )));
            }
            seen_cat.push(p.attribute.as_str());
        }
        Ok(())
    }
}

/// Fluent builder for [`SpjQuery`].
#[derive(Debug, Clone)]
pub struct SpjQueryBuilder {
    tables: Vec<String>,
    select: SelectList,
    distinct: bool,
    numeric_predicates: Vec<NumericPredicate>,
    categorical_predicates: Vec<CategoricalPredicate>,
    order_by: Option<String>,
    order: SortOrder,
}

impl SpjQueryBuilder {
    /// Natural-join another base relation.
    pub fn join(mut self, table: impl Into<String>) -> Self {
        self.tables.push(table.into());
        self
    }

    /// Project an explicit list of columns (default is `SELECT *`).
    pub fn select<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.select = SelectList::Columns(columns.into_iter().map(Into::into).collect());
        self
    }

    /// Use `SELECT DISTINCT` semantics.
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// Add a numerical predicate `attribute op constant`.
    pub fn numeric_predicate(
        mut self,
        attribute: impl Into<String>,
        op: CmpOp,
        constant: f64,
    ) -> Self {
        self.numeric_predicates
            .push(NumericPredicate::new(attribute, op, constant));
        self
    }

    /// Add a categorical predicate `attribute IN values`.
    pub fn categorical_predicate<I, S>(mut self, attribute: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.categorical_predicates
            .push(CategoricalPredicate::new(attribute, values));
        self
    }

    /// Set the `ORDER BY` attribute and direction.
    pub fn order_by(mut self, attribute: impl Into<String>, order: SortOrder) -> Self {
        self.order_by = Some(attribute.into());
        self.order = order;
        self
    }

    /// Validate and construct the query.
    pub fn build(self) -> Result<SpjQuery> {
        let order_by = self
            .order_by
            .ok_or_else(|| RelationError::InvalidQuery("ORDER BY attribute is required".into()))?;
        let query = SpjQuery {
            tables: self.tables,
            select: self.select,
            distinct: self.distinct,
            numeric_predicates: self.numeric_predicates,
            categorical_predicates: self.categorical_predicates,
            order_by,
            order: self.order,
        };
        query.validate()?;
        Ok(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::scholarship_query;

    #[test]
    fn builder_produces_expected_structure() {
        let q = scholarship_query();
        assert_eq!(q.tables, vec!["Students", "Activities"]);
        assert!(q.distinct);
        assert_eq!(q.predicate_count(), 2);
        assert_eq!(q.order_by, "SAT");
        assert_eq!(q.order, SortOrder::Descending);
        assert!(q.numeric_predicate("GPA").is_some());
        assert!(q.numeric_predicate("SAT").is_none());
        assert!(q.categorical_predicate("Activity").is_some());
    }

    #[test]
    fn relaxed_removes_predicates_and_distinct() {
        let q = scholarship_query();
        let relaxed = q.relaxed();
        assert_eq!(relaxed.predicate_count(), 0);
        assert!(!relaxed.distinct);
        assert_eq!(relaxed.select, SelectList::All);
        assert_eq!(relaxed.order_by, "SAT");
    }

    #[test]
    fn order_by_is_required() {
        let err = SpjQuery::builder("t").build().unwrap_err();
        assert!(matches!(err, RelationError::InvalidQuery(_)));
    }

    #[test]
    fn same_attribute_different_ops_allowed() {
        // Q_A in the paper has "Space Walks" <= 3 AND "Space Walks" >= 1.
        let q = SpjQuery::builder("t")
            .numeric_predicate("x", CmpOp::Ge, 1.0)
            .numeric_predicate("x", CmpOp::Le, 2.0)
            .order_by("score", SortOrder::Descending)
            .build()
            .unwrap();
        assert_eq!(q.numeric_predicates.len(), 2);
        assert_eq!(
            q.numeric_predicate_with_op("x", CmpOp::Le)
                .unwrap()
                .constant,
            2.0
        );
    }

    #[test]
    fn duplicate_predicate_rejected() {
        let err = SpjQuery::builder("t")
            .numeric_predicate("x", CmpOp::Ge, 1.0)
            .numeric_predicate("x", CmpOp::Ge, 2.0)
            .order_by("score", SortOrder::Descending)
            .build()
            .unwrap_err();
        assert!(matches!(err, RelationError::InvalidQuery(_)));
        let err = SpjQuery::builder("t")
            .categorical_predicate("c", ["a"])
            .categorical_predicate("c", ["b"])
            .order_by("score", SortOrder::Descending)
            .build()
            .unwrap_err();
        assert!(matches!(err, RelationError::InvalidQuery(_)));
    }

    #[test]
    fn predicate_attributes_lists_all() {
        let q = scholarship_query();
        let attrs = q.predicate_attributes();
        assert!(attrs.contains(&"GPA"));
        assert!(attrs.contains(&"Activity"));
    }
}
