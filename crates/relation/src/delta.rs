//! Typed deltas describing tuple-level mutations of a [`Database`].
//!
//! Every mutation entry point ([`Database::insert_rows`],
//! [`Database::delete_rows`], [`Database::update_rows`]) returns a
//! [`RelationDelta`]: the stable [`RowId`]s that were added, removed or
//! changed in one relation. Deltas compose with [`DatabaseDelta::merge`] so a
//! batch of mutations can be applied downstream (e.g. by incremental
//! provenance annotation in `qr-provenance`) in one step.
//!
//! [`Database`]: crate::database::Database
//! [`Database::insert_rows`]: crate::database::Database::insert_rows
//! [`Database::delete_rows`]: crate::database::Database::delete_rows
//! [`Database::update_rows`]: crate::database::Database::update_rows

use crate::relation::RowId;
use std::collections::BTreeSet;

/// Tuple-level changes to one relation, with stable row identity.
///
/// The three id lists are disjoint: a row is *added* (it did not exist
/// before), *removed* (it no longer exists) or *changed* (it exists on both
/// sides with different values, keeping its [`RowId`] and its position).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationDelta {
    /// Name of the mutated relation.
    pub relation: String,
    /// Ids of rows that were inserted.
    pub added: Vec<RowId>,
    /// Ids of rows that were deleted.
    pub removed: Vec<RowId>,
    /// Ids of rows whose values were updated in place.
    pub changed: Vec<RowId>,
}

impl RelationDelta {
    /// An empty delta for a relation.
    pub fn new(relation: impl Into<String>) -> Self {
        RelationDelta {
            relation: relation.into(),
            ..RelationDelta::default()
        }
    }

    /// Whether the delta describes no change at all.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }

    /// Total number of row-level changes (added + removed + changed).
    pub fn rows_touched(&self) -> usize {
        self.added.len() + self.removed.len() + self.changed.len()
    }

    /// Fold a later delta of the same relation into this one, keeping the
    /// combined delta equivalent to applying both in sequence:
    ///
    /// * a row added here and changed later is still just *added*,
    /// * a row added here and removed later cancels out entirely,
    /// * a row changed here and removed later is just *removed*,
    /// * repeated changes collapse into one.
    pub fn merge(&mut self, later: &RelationDelta) {
        debug_assert_eq!(self.relation, later.relation);
        let added: BTreeSet<RowId> = self.added.iter().copied().collect();
        let later_removed: BTreeSet<RowId> = later.removed.iter().copied().collect();

        // Rows added in this delta and removed later never become visible.
        self.added.retain(|id| !later_removed.contains(id));
        self.changed.retain(|id| !later_removed.contains(id));
        for &id in &later.added {
            self.added.push(id);
        }
        for &id in &later.removed {
            // A later removal of a row this delta added was cancelled above.
            if !added.contains(&id) {
                self.removed.push(id);
            }
        }
        let changed: BTreeSet<RowId> = self.changed.iter().copied().collect();
        for &id in &later.changed {
            if !added.contains(&id) && !changed.contains(&id) {
                self.changed.push(id);
            }
        }
    }
}

/// Tuple-level changes across a whole database: at most one
/// [`RelationDelta`] per relation, in first-touch order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatabaseDelta {
    relations: Vec<RelationDelta>,
}

impl DatabaseDelta {
    /// An empty database delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no relation changed.
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(RelationDelta::is_empty)
    }

    /// The per-relation deltas, in first-touch order.
    pub fn relations(&self) -> &[RelationDelta] {
        &self.relations
    }

    /// The delta of one relation, if it was touched.
    pub fn for_relation(&self, name: &str) -> Option<&RelationDelta> {
        self.relations.iter().find(|d| d.relation == name)
    }

    /// Total number of row-level changes across all relations.
    pub fn rows_touched(&self) -> usize {
        self.relations.iter().map(RelationDelta::rows_touched).sum()
    }

    /// Fold a later relation delta in (see [`RelationDelta::merge`] for the
    /// sequencing semantics).
    pub fn merge(&mut self, later: RelationDelta) {
        match self
            .relations
            .iter_mut()
            .find(|d| d.relation == later.relation)
        {
            Some(existing) => existing.merge(&later),
            None => self.relations.push(later),
        }
    }
}

impl From<RelationDelta> for DatabaseDelta {
    fn from(delta: RelationDelta) -> Self {
        DatabaseDelta {
            relations: vec![delta],
        }
    }
}

impl FromIterator<RelationDelta> for DatabaseDelta {
    fn from_iter<T: IntoIterator<Item = RelationDelta>>(iter: T) -> Self {
        let mut out = DatabaseDelta::new();
        for delta in iter {
            out.merge(delta);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_collapses_sequenced_changes() {
        let mut first = RelationDelta {
            relation: "t".into(),
            added: vec![10, 11],
            removed: vec![2],
            changed: vec![3],
        };
        let later = RelationDelta {
            relation: "t".into(),
            added: vec![12],
            removed: vec![10, 3],
            changed: vec![11, 4],
        };
        first.merge(&later);
        // 10 was added then removed: gone. 11 was added then changed: added.
        assert_eq!(first.added, vec![11, 12]);
        // 3 was changed then removed: removed only.
        assert_eq!(first.removed, vec![2, 3]);
        assert_eq!(first.changed, vec![4]);
        assert_eq!(first.rows_touched(), 5);
    }

    #[test]
    fn database_delta_groups_by_relation() {
        let mut db_delta = DatabaseDelta::new();
        assert!(db_delta.is_empty());
        db_delta.merge(RelationDelta {
            relation: "a".into(),
            added: vec![1],
            ..RelationDelta::default()
        });
        db_delta.merge(RelationDelta {
            relation: "b".into(),
            removed: vec![2],
            ..RelationDelta::default()
        });
        db_delta.merge(RelationDelta {
            relation: "a".into(),
            changed: vec![1],
            ..RelationDelta::default()
        });
        assert_eq!(db_delta.relations().len(), 2);
        // 1 was added then changed within the same composed delta: added.
        assert_eq!(db_delta.for_relation("a").unwrap().added, vec![1]);
        assert!(db_delta.for_relation("a").unwrap().changed.is_empty());
        assert_eq!(db_delta.rows_touched(), 2);
        assert!(db_delta.for_relation("nope").is_none());
    }
}
