//! Relations: a schema plus a bag of rows.

use crate::error::{RelationError, Result};
use crate::schema::{Column, DataType, Schema};
use crate::value::Value;
use std::fmt;

/// A row is a vector of values matching the relation's schema arity.
pub type Row = Vec<Value>;

/// Stable identity of a row within one relation.
///
/// Ids are assigned from a per-relation counter that never reuses a value:
/// inserts append fresh ids, deletes preserve the order of the survivors and
/// updates keep the id of the row they rewrite. Consequently ids are
/// **strictly increasing in storage order** — downstream incremental
/// provenance relies on this to equate "compare rows by id" with "compare
/// rows by position".
pub type RowId = u64;

/// A named relation: schema + rows (bag semantics, insertion order preserved).
///
/// Every row carries a stable [`RowId`] so that tuple-level mutations
/// ([`insert_rows`](Relation::insert_rows), [`delete_rows`](Relation::delete_rows),
/// [`update_rows`](Relation::update_rows)) can be described by typed deltas.
/// Equality compares name, schema and row values only — id bookkeeping is
/// deliberately excluded so that e.g. a CSV round trip compares equal.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    row_ids: Vec<RowId>,
    next_row_id: RowId,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.schema == other.schema && self.rows == other.rows
    }
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Relation {
            name: name.into(),
            schema,
            rows: Vec::new(),
            row_ids: Vec::new(),
            next_row_id: 0,
        }
    }

    /// Start building a relation fluently.
    pub fn build(name: impl Into<String>) -> RelationBuilder {
        RelationBuilder {
            name: name.into(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the relation (returns a new relation sharing the same data).
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows, in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row after validating arity and column types.
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        self.validate_row(&row)?;
        self.push_row_unchecked(row);
        Ok(())
    }

    /// Check that a row matches the schema's arity and column types.
    fn validate_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        for (value, column) in row.iter().zip(self.schema.columns()) {
            if !column.dtype.accepts(value) {
                return Err(RelationError::TypeMismatch {
                    column: column.name.clone(),
                    expected: column.dtype.to_string(),
                    found: format!("{} ({})", value, value.type_name()),
                });
            }
        }
        Ok(())
    }

    /// Append a row without validation (used internally by the evaluator,
    /// which only produces well-typed rows).
    pub(crate) fn push_row_unchecked(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.schema.len());
        self.row_ids.push(self.next_row_id);
        self.next_row_id += 1;
        self.rows.push(row);
    }

    /// Stable ids of the rows, aligned with [`rows`](Relation::rows) and
    /// strictly increasing in storage order.
    pub fn row_ids(&self) -> &[RowId] {
        &self.row_ids
    }

    /// Storage position of the row with a stable id (binary search: ids are
    /// strictly increasing in storage order).
    pub fn position_of(&self, id: RowId) -> Option<usize> {
        self.row_ids.binary_search(&id).ok()
    }

    /// The row with a stable id, if it still exists.
    pub fn row_by_id(&self, id: RowId) -> Option<&Row> {
        self.position_of(id).map(|idx| &self.rows[idx])
    }

    /// Append rows, assigning each a fresh [`RowId`]; returns the new ids in
    /// order. Validation happens before any row is appended, so the relation
    /// is untouched on error.
    pub fn insert_rows(&mut self, rows: Vec<Row>) -> Result<Vec<RowId>> {
        for row in &rows {
            self.validate_row(row)?;
        }
        let mut ids = Vec::with_capacity(rows.len());
        for row in rows {
            ids.push(self.next_row_id);
            self.push_row_unchecked(row);
        }
        Ok(ids)
    }

    /// Delete the rows with the given ids (duplicates are tolerated),
    /// preserving the storage order of the survivors. Returns the deleted
    /// ids in storage order. Errors — without deleting anything — if any id
    /// is unknown.
    pub fn delete_rows(&mut self, ids: &[RowId]) -> Result<Vec<RowId>> {
        let mut doomed: Vec<RowId> = Vec::with_capacity(ids.len());
        for &id in ids {
            if self.position_of(id).is_none() {
                return Err(RelationError::UnknownRowId {
                    relation: self.name.clone(),
                    id,
                });
            }
            if !doomed.contains(&id) {
                doomed.push(id);
            }
        }
        doomed.sort_unstable();
        let mut write = 0;
        for read in 0..self.rows.len() {
            if doomed.binary_search(&self.row_ids[read]).is_ok() {
                continue;
            }
            if write != read {
                self.rows.swap(write, read);
                self.row_ids.swap(write, read);
            }
            write += 1;
        }
        self.rows.truncate(write);
        self.row_ids.truncate(write);
        Ok(doomed)
    }

    /// Rewrite rows in place, keeping each row's id and storage position.
    /// Returns the changed ids in first-touch order (duplicate ids apply
    /// last-writer-wins and are reported once). Validation happens before
    /// any row is rewritten, so the relation is untouched on error.
    pub fn update_rows(&mut self, updates: Vec<(RowId, Row)>) -> Result<Vec<RowId>> {
        let mut positions = Vec::with_capacity(updates.len());
        for (id, row) in &updates {
            let idx = self
                .position_of(*id)
                .ok_or_else(|| RelationError::UnknownRowId {
                    relation: self.name.clone(),
                    id: *id,
                })?;
            self.validate_row(row)?;
            positions.push(idx);
        }
        let mut changed: Vec<RowId> = Vec::with_capacity(updates.len());
        for ((id, row), idx) in updates.into_iter().zip(positions) {
            self.rows[idx] = row;
            if !changed.contains(&id) {
                changed.push(id);
            }
        }
        Ok(changed)
    }

    /// Value of `column` in row `row_idx`.
    pub fn value(&self, row_idx: usize, column: &str) -> Option<&Value> {
        let col = self.schema.index_of(column)?;
        self.rows.get(row_idx).map(|r| &r[col])
    }

    /// Iterate over `(row_index, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.rows.iter().enumerate()
    }

    /// Project onto a subset of columns (in the given order).
    pub fn project(&self, columns: &[&str]) -> Result<Relation> {
        let mut indices = Vec::with_capacity(columns.len());
        let mut schema = Schema::default();
        for &c in columns {
            let idx = self.schema.require(c, &self.name)?;
            indices.push(idx);
            schema.push(self.schema.columns()[idx].clone())?;
        }
        let mut out = Relation::new(self.name.clone(), schema);
        for row in &self.rows {
            out.push_row_unchecked(indices.iter().map(|&i| row[i].clone()).collect());
        }
        Ok(out)
    }

    /// Distinct values appearing in a column.
    pub fn distinct_values(&self, column: &str) -> Result<Vec<Value>> {
        let idx = self.schema.require(column, &self.name)?;
        let mut values: Vec<Value> = Vec::new();
        for row in &self.rows {
            if row[idx].is_null() {
                continue;
            }
            if !values.contains(&row[idx]) {
                values.push(row[idx].clone());
            }
        }
        values.sort();
        Ok(values)
    }

    /// Minimum and maximum numeric value appearing in a column, ignoring NULLs.
    pub fn numeric_range(&self, column: &str) -> Result<Option<(f64, f64)>> {
        let idx = self.schema.require(column, &self.name)?;
        let mut range: Option<(f64, f64)> = None;
        for row in &self.rows {
            if let Some(v) = row[idx].as_f64() {
                range = Some(match range {
                    None => (v, v),
                    Some((lo, hi)) => (lo.min(v), hi.max(v)),
                });
            }
        }
        Ok(range)
    }

    /// Pretty-print the first `limit` rows as an ASCII table.
    pub fn preview(&self, limit: usize) -> String {
        let mut out = String::new();
        let names = self.schema.names();
        out.push_str(&names.join(" | "));
        out.push('\n');
        for row in self.rows.iter().take(limit) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        if self.rows.len() > limit {
            out.push_str(&format!("... ({} more rows)\n", self.rows.len() - limit));
        }
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} rows)", self.name, self.rows.len())
    }
}

/// Fluent builder for [`Relation`].
#[derive(Debug)]
pub struct RelationBuilder {
    name: String,
    columns: Vec<Column>,
    rows: Vec<Row>,
}

impl RelationBuilder {
    /// Declare a column.
    pub fn column(mut self, name: impl Into<String>, dtype: DataType) -> Self {
        self.columns.push(Column::new(name, dtype));
        self
    }

    /// Append a row (validated when [`finish`](Self::finish) is called).
    pub fn row(mut self, row: Row) -> Self {
        self.rows.push(row);
        self
    }

    /// Append many rows.
    pub fn rows(mut self, rows: impl IntoIterator<Item = Row>) -> Self {
        self.rows.extend(rows);
        self
    }

    /// Validate and construct the relation.
    pub fn finish(self) -> Result<Relation> {
        let mut schema = Schema::default();
        for c in self.columns {
            schema.push(c)?;
        }
        let mut rel = Relation::new(self.name, schema);
        for row in self.rows {
            rel.push_row(row)?;
        }
        Ok(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn students() -> Relation {
        Relation::build("students")
            .column("id", DataType::Text)
            .column("gpa", DataType::Float)
            .column("sat", DataType::Int)
            .row(vec![Value::text("t1"), Value::float(3.7), Value::int(1590)])
            .row(vec![Value::text("t2"), Value::float(3.8), Value::int(1580)])
            .row(vec![Value::text("t3"), Value::float(3.6), Value::int(1570)])
            .finish()
            .unwrap()
    }

    #[test]
    fn build_and_access() {
        let r = students();
        assert_eq!(r.len(), 3);
        assert_eq!(r.value(1, "gpa"), Some(&Value::float(3.8)));
        assert_eq!(r.value(1, "missing"), None);
        assert_eq!(r.value(9, "gpa"), None);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = students();
        let err = r.push_row(vec![Value::text("t4")]).unwrap_err();
        assert!(matches!(
            err,
            RelationError::ArityMismatch {
                expected: 3,
                found: 1
            }
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut r = students();
        let err = r
            .push_row(vec![Value::int(4), Value::float(3.0), Value::int(1000)])
            .unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
    }

    #[test]
    fn int_accepted_in_float_column() {
        let mut r = students();
        assert!(r
            .push_row(vec![Value::text("t4"), Value::int(4), Value::int(1000)])
            .is_ok());
    }

    #[test]
    fn projection() {
        let r = students();
        let p = r.project(&["sat", "id"]).unwrap();
        assert_eq!(p.schema().names(), vec!["sat", "id"]);
        assert_eq!(p.value(0, "sat"), Some(&Value::int(1590)));
        assert!(r.project(&["nope"]).is_err());
    }

    #[test]
    fn distinct_and_range() {
        let r = students();
        assert_eq!(r.distinct_values("id").unwrap().len(), 3);
        assert_eq!(r.numeric_range("gpa").unwrap(), Some((3.6, 3.8)));
        assert_eq!(r.numeric_range("id").unwrap(), None);
    }

    #[test]
    fn preview_truncates() {
        let r = students();
        let p = r.preview(2);
        assert!(p.contains("1 more rows"));
    }

    #[test]
    fn row_ids_survive_mutation() {
        let mut r = students();
        assert_eq!(r.row_ids(), &[0, 1, 2]);

        let added = r
            .insert_rows(vec![
                vec![Value::text("t4"), Value::float(3.9), Value::int(1500)],
                vec![Value::text("t5"), Value::float(3.5), Value::int(1510)],
            ])
            .unwrap();
        assert_eq!(added, vec![3, 4]);

        let removed = r.delete_rows(&[3, 1, 3]).unwrap();
        assert_eq!(removed, vec![1, 3]);
        assert_eq!(r.row_ids(), &[0, 2, 4]);
        assert_eq!(r.value(2, "id"), Some(&Value::text("t5")));

        let changed = r
            .update_rows(vec![(
                2,
                vec![Value::text("t3b"), Value::float(3.65), Value::int(1571)],
            )])
            .unwrap();
        assert_eq!(changed, vec![2]);
        assert_eq!(r.position_of(2), Some(1));
        assert_eq!(r.row_by_id(2).unwrap()[0], Value::text("t3b"));
        // Ids stay strictly increasing in storage order.
        assert!(r.row_ids().windows(2).all(|w| w[0] < w[1]));

        // New inserts never reuse a deleted id.
        let re_added = r
            .insert_rows(vec![vec![
                Value::text("t6"),
                Value::float(3.2),
                Value::int(1400),
            ]])
            .unwrap();
        assert_eq!(re_added, vec![5]);
    }

    #[test]
    fn mutations_are_atomic_on_error() {
        let mut r = students();
        let err = r
            .insert_rows(vec![
                vec![Value::text("ok"), Value::float(3.0), Value::int(1)],
                vec![Value::text("bad")],
            ])
            .unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { .. }));
        assert_eq!(r.len(), 3);

        let err = r.delete_rows(&[0, 99]).unwrap_err();
        assert!(matches!(err, RelationError::UnknownRowId { id: 99, .. }));
        assert_eq!(r.len(), 3);

        let err = r
            .update_rows(vec![
                (0, vec![Value::text("x"), Value::float(1.0), Value::int(1)]),
                (42, vec![]),
            ])
            .unwrap_err();
        assert!(matches!(err, RelationError::UnknownRowId { id: 42, .. }));
        assert_eq!(r.value(0, "id"), Some(&Value::text("t1")));
    }
}
