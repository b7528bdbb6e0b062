//! Provenance-based what-if evaluation of concrete refinements.
//!
//! Given the annotations of [`crate::annotate::AnnotatedRelation`], any
//! concrete assignment of the query's predicates (a candidate refinement) can
//! be re-evaluated directly over the lineage atoms, without touching the
//! database again. This is the engine behind the paper's `Naive+prov`
//! baseline and is also used to verify solutions returned by the MILP.

use crate::annotate::AnnotatedRelation;
use crate::lineage::{Lineage, LineageAtom};
use qr_relation::{CmpOp, SpjQuery};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// A concrete assignment of the query's selection predicates: the categorical
/// value sets and numerical constants a refinement chose.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateAssignment {
    /// Selected values per categorical predicate attribute.
    pub categorical: BTreeMap<String, BTreeSet<String>>,
    /// Constant per numerical predicate `(attribute, operator)`.
    pub numeric: BTreeMap<(String, CmpOp), f64>,
}

impl PredicateAssignment {
    /// The assignment corresponding to the original (unrefined) query.
    pub fn from_query(query: &SpjQuery) -> Self {
        let categorical = query
            .categorical_predicates
            .iter()
            .map(|p| (p.attribute.clone(), p.values.clone()))
            .collect();
        let numeric = query
            .numeric_predicates
            .iter()
            .map(|p| ((p.attribute.clone(), p.op), p.constant))
            .collect();
        PredicateAssignment {
            categorical,
            numeric,
        }
    }

    /// Whether a tuple with the given lineage satisfies every predicate under
    /// this assignment.
    pub fn satisfies(&self, lineage: &Lineage) -> bool {
        lineage.atoms().all(|atom| match atom {
            LineageAtom::Categorical { attribute, value } => self
                .categorical
                .get(attribute)
                .map(|values| values.contains(value))
                .unwrap_or(false),
            LineageAtom::Numeric {
                attribute,
                op,
                value,
            } => match (self.numeric.get(&(attribute.clone(), *op)), value.as_f64()) {
                (Some(&constant), Some(v)) => op.eval(v, constant),
                _ => false,
            },
            LineageAtom::Unsatisfiable { .. } => false,
        })
    }

    /// Apply this assignment to a query, producing the refined query.
    pub fn apply_to(&self, query: &SpjQuery) -> SpjQuery {
        let mut refined = query.clone();
        for p in &mut refined.categorical_predicates {
            if let Some(values) = self.categorical.get(&p.attribute) {
                p.values = values.clone();
            }
        }
        for p in &mut refined.numeric_predicates {
            if let Some(&constant) = self.numeric.get(&(p.attribute.clone(), p.op)) {
                p.constant = constant;
            }
        }
        refined
    }
}

/// The ranked output of a refinement, as tuple indices into the annotated
/// relation (rank order, after DISTINCT de-duplication).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedOutput {
    /// Selected tuple indices, best rank first.
    pub selected: Vec<usize>,
}

impl RankedOutput {
    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// Whether the output is empty.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }

    /// The top-k prefix (shorter if the output has fewer tuples).
    pub fn top_k(&self, k: usize) -> &[usize] {
        &self.selected[..k.min(self.selected.len())]
    }
}

/// Evaluate a concrete refinement over the provenance annotations.
pub fn evaluate_refinement(
    annotated: &AnnotatedRelation,
    assignment: &PredicateAssignment,
) -> RankedOutput {
    let distinct = annotated.query().distinct;
    let mut selected = Vec::new();
    let mut selected_set: HashSet<usize> = HashSet::new();
    for (i, tuple) in annotated.tuples().iter().enumerate() {
        if !assignment.satisfies(&tuple.lineage) {
            continue;
        }
        if distinct
            && tuple
                .duplicate_predecessors
                .iter()
                .any(|p| selected_set.contains(p))
        {
            continue;
        }
        selected.push(i);
        if distinct {
            selected_set.insert(i);
        }
    }
    RankedOutput { selected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_relation::paper_example::{paper_database, scholarship_query};
    use qr_relation::prelude::*;

    fn ids_of(annotated: &AnnotatedRelation, output: &RankedOutput) -> Vec<String> {
        let id_idx = annotated.schema().index_of("ID").unwrap();
        output
            .selected
            .iter()
            .map(|&i| annotated.tuples()[i].row[id_idx].to_string())
            .collect()
    }

    /// What-if evaluation must agree with full query evaluation on the engine.
    fn engine_ids(db: &Database, query: &SpjQuery) -> Vec<String> {
        let result = evaluate(db, query).unwrap();
        let id_idx = result.schema().index_of("ID").unwrap();
        result
            .rows()
            .iter()
            .map(|r| r[id_idx].to_string())
            .collect()
    }

    #[test]
    fn original_query_assignment_matches_engine() {
        let db = paper_database();
        let q = scholarship_query();
        let annotated = AnnotatedRelation::build(&db, &q).unwrap();
        let assignment = PredicateAssignment::from_query(&q);
        let output = evaluate_refinement(&annotated, &assignment);
        assert_eq!(ids_of(&annotated, &output), engine_ids(&db, &q));
    }

    #[test]
    fn refined_assignments_match_engine() {
        let db = paper_database();
        let q = scholarship_query();
        let annotated = AnnotatedRelation::build(&db, &q).unwrap();

        // Example 1.2: Activity in {RB, SO}.
        let mut a1 = PredicateAssignment::from_query(&q);
        a1.categorical
            .get_mut("Activity")
            .unwrap()
            .insert("SO".to_string());
        let refined_q1 = a1.apply_to(&q);
        let out1 = evaluate_refinement(&annotated, &a1);
        assert_eq!(ids_of(&annotated, &out1), engine_ids(&db, &refined_q1));
        assert_eq!(out1.top_k(6).len(), 6);

        // Example 1.3: GPA >= 3.6, Activity in {RB, GD}.
        let mut a2 = PredicateAssignment::from_query(&q);
        *a2.numeric.get_mut(&("GPA".to_string(), CmpOp::Ge)).unwrap() = 3.6;
        let activity = a2.categorical.get_mut("Activity").unwrap();
        activity.insert("GD".to_string());
        let refined_q2 = a2.apply_to(&q);
        let out2 = evaluate_refinement(&annotated, &a2);
        assert_eq!(ids_of(&annotated, &out2), engine_ids(&db, &refined_q2));
    }

    #[test]
    fn distinct_deduplication_in_whatif() {
        let db = paper_database();
        let q = scholarship_query();
        let annotated = AnnotatedRelation::build(&db, &q).unwrap();
        // Select both RB and TU: t4 and t8 each have two join tuples but must
        // appear once.
        let mut a = PredicateAssignment::from_query(&q);
        let activity = a.categorical.get_mut("Activity").unwrap();
        activity.insert("TU".to_string());
        let out = evaluate_refinement(&annotated, &a);
        let ids = ids_of(&annotated, &out);
        assert_eq!(ids.iter().filter(|s| s.as_str() == "t4").count(), 1);
        assert_eq!(ids.iter().filter(|s| s.as_str() == "t8").count(), 1);
    }

    #[test]
    fn empty_categorical_selection_selects_nothing() {
        let db = paper_database();
        let q = scholarship_query();
        let annotated = AnnotatedRelation::build(&db, &q).unwrap();
        let mut a = PredicateAssignment::from_query(&q);
        a.categorical.get_mut("Activity").unwrap().clear();
        let out = evaluate_refinement(&annotated, &a);
        assert!(out.is_empty());
        assert_eq!(out.top_k(5), &[] as &[usize]);
    }

    #[test]
    fn apply_to_produces_refined_query() {
        let q = scholarship_query();
        let mut a = PredicateAssignment::from_query(&q);
        *a.numeric.get_mut(&("GPA".to_string(), CmpOp::Ge)).unwrap() = 3.5;
        a.categorical
            .get_mut("Activity")
            .unwrap()
            .insert("SO".to_string());
        let refined = a.apply_to(&q);
        assert_eq!(refined.numeric_predicates[0].constant, 3.5);
        assert!(refined.categorical_predicates[0].values.contains("SO"));
        assert!(refined.categorical_predicates[0].values.contains("RB"));
        // The original query is untouched.
        assert_eq!(q.numeric_predicates[0].constant, 3.7);
    }

    #[test]
    fn round_trip_from_query_is_identity() {
        let q = scholarship_query();
        let a = PredicateAssignment::from_query(&q);
        let back = a.apply_to(&q);
        assert_eq!(back, q);
    }
}
