//! A database is a catalog of named relations.

use crate::delta::RelationDelta;
use crate::error::{RelationError, Result};
use crate::relation::{Relation, Row, RowId};
use std::collections::BTreeMap;

/// A catalog of named relations.
///
/// Relation names are case-sensitive and unique. [`insert`](Database::insert)
/// refuses to overwrite an existing relation; use
/// [`replace`](Database::replace) for explicit wholesale replacement, or the
/// tuple-level mutation API ([`insert_rows`](Database::insert_rows),
/// [`delete_rows`](Database::delete_rows),
/// [`update_rows`](Database::update_rows)) which describes each change as a
/// [`RelationDelta`] with stable row identity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a relation under its own name. Errors with
    /// [`RelationError::DuplicateRelation`] if a relation with that name
    /// already exists (see [`replace`](Database::replace) for the overwrite).
    pub fn insert(&mut self, relation: Relation) -> Result<()> {
        if self.relations.contains_key(relation.name()) {
            return Err(RelationError::DuplicateRelation(
                relation.name().to_string(),
            ));
        }
        self.relations.insert(relation.name().to_string(), relation);
        Ok(())
    }

    /// Insert or overwrite a relation under its own name, returning the
    /// displaced relation if one existed.
    pub fn replace(&mut self, relation: Relation) -> Option<Relation> {
        self.relations.insert(relation.name().to_string(), relation)
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| RelationError::UnknownRelation(name.to_string()))
    }

    fn get_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| RelationError::UnknownRelation(name.to_string()))
    }

    /// Append rows to a relation; returns the delta listing the fresh
    /// [`RowId`]s. Validation happens before any row lands, so the database
    /// is untouched on error.
    pub fn insert_rows(&mut self, relation: &str, rows: Vec<Row>) -> Result<RelationDelta> {
        let added = self.get_mut(relation)?.insert_rows(rows)?;
        Ok(RelationDelta {
            relation: relation.to_string(),
            added,
            ..RelationDelta::default()
        })
    }

    /// Delete rows from a relation by stable id; returns the delta listing
    /// the removed ids. Errors — without deleting anything — if any id is
    /// unknown.
    pub fn delete_rows(&mut self, relation: &str, ids: &[RowId]) -> Result<RelationDelta> {
        let removed = self.get_mut(relation)?.delete_rows(ids)?;
        Ok(RelationDelta {
            relation: relation.to_string(),
            removed,
            ..RelationDelta::default()
        })
    }

    /// Rewrite rows of a relation in place by stable id; returns the delta
    /// listing the changed ids. Errors — without changing anything — if any
    /// id is unknown or any row is ill-typed.
    pub fn update_rows(
        &mut self,
        relation: &str,
        updates: Vec<(RowId, Row)>,
    ) -> Result<RelationDelta> {
        let changed = self.get_mut(relation)?.update_rows(updates)?;
        Ok(RelationDelta {
            relation: relation.to_string(),
            changed,
            ..RelationDelta::default()
        })
    }

    /// Whether a relation with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Remove a relation, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        self.relations.remove(name)
    }

    /// Number of relations in the catalog.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total number of rows across all relations.
    pub fn total_rows(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::value::Value;

    #[test]
    fn insert_get_remove() {
        let mut db = Database::new();
        assert!(db.is_empty());
        let r = Relation::build("t")
            .column("x", DataType::Int)
            .row(vec![Value::int(1)])
            .finish()
            .unwrap();
        db.insert(r).unwrap();
        assert_eq!(db.len(), 1);
        assert!(db.contains("t"));
        assert_eq!(db.get("t").unwrap().len(), 1);
        assert!(matches!(
            db.get("nope"),
            Err(RelationError::UnknownRelation(_))
        ));
        assert_eq!(db.total_rows(), 1);
        assert!(db.remove("t").is_some());
        assert!(db.is_empty());
    }

    #[test]
    fn insert_rejects_duplicate_and_replace_overwrites() {
        let mut db = Database::new();
        let r1 = Relation::build("t")
            .column("x", DataType::Int)
            .finish()
            .unwrap();
        let r2 = Relation::build("t")
            .column("x", DataType::Int)
            .row(vec![Value::int(1)])
            .finish()
            .unwrap();
        db.insert(r1).unwrap();
        let err = db.insert(r2.clone()).unwrap_err();
        assert!(matches!(err, RelationError::DuplicateRelation(name) if name == "t"));
        assert_eq!(db.get("t").unwrap().len(), 0);

        let displaced = db.replace(r2).unwrap();
        assert_eq!(displaced.len(), 0);
        assert_eq!(db.len(), 1);
        assert_eq!(db.get("t").unwrap().len(), 1);
    }

    #[test]
    fn row_mutations_produce_deltas() {
        let mut db = Database::new();
        db.insert(
            Relation::build("t")
                .column("x", DataType::Int)
                .row(vec![Value::int(1)])
                .row(vec![Value::int(2)])
                .finish()
                .unwrap(),
        )
        .unwrap();

        let delta = db
            .insert_rows("t", vec![vec![Value::int(3)], vec![Value::int(4)]])
            .unwrap();
        assert_eq!(delta.relation, "t");
        assert_eq!(delta.added, vec![2, 3]);

        let delta = db.delete_rows("t", &[1]).unwrap();
        assert_eq!(delta.removed, vec![1]);
        assert_eq!(db.get("t").unwrap().row_ids(), &[0, 2, 3]);

        let delta = db
            .update_rows("t", vec![(2, vec![Value::int(30)])])
            .unwrap();
        assert_eq!(delta.changed, vec![2]);
        assert_eq!(
            db.get("t").unwrap().row_by_id(2),
            Some(&vec![Value::int(30)])
        );

        assert!(db.insert_rows("nope", vec![]).is_err());
        assert!(db.delete_rows("t", &[99]).is_err());
        assert!(db
            .update_rows("t", vec![(99, vec![Value::int(0)])])
            .is_err());
    }
}
