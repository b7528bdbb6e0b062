//! Annotated relations: the ranked tuples of `~Q(D)` with lineage,
//! DISTINCT duplicate sets and lineage equivalence classes — buildable from
//! scratch or incrementally repaired from a [`DatabaseDelta`].

use crate::lineage::{Lineage, LineageAtom};
use qr_relation::{
    evaluate_relaxed_traced, join_tables_traced, CmpOp, Database, DatabaseDelta, RelationError,
    Result as RelationResult, Row, RowFilter, RowId, Schema, SelectList, SortOrder, SpjQuery,
    Value,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// One tuple of `~Q(D)` together with its annotations.
///
/// The row values and the lineage are reference-counted so that incremental
/// re-annotation ([`AnnotatedRelation::apply_delta`]) can carry unaffected
/// tuples into the next annotation without copying their payload.
#[derive(Debug, Clone)]
pub struct AnnotatedTuple {
    /// 0-based position of the tuple in the ranking of `~Q(D)`.
    pub rank: usize,
    /// The tuple's values (full schema of the natural join).
    pub row: Arc<Row>,
    /// The tuple's lineage.
    pub lineage: Arc<Lineage>,
    /// Stable ids of the base rows this tuple joins, one per query table in
    /// table order. Used to decide which tuples a database delta invalidates.
    pub sources: Vec<RowId>,
    /// Values of the DISTINCT attributes (only for `SELECT DISTINCT` queries).
    pub distinct_key: Option<Vec<Value>>,
    /// `S(t)`: indices of higher-ranked tuples sharing this tuple's DISTINCT
    /// key (empty for queries without DISTINCT).
    pub duplicate_predecessors: Vec<usize>,
}

/// A lineage equivalence class: all tuples of `~Q(D)` sharing one lineage.
#[derive(Debug, Clone)]
pub struct LineageClass {
    /// The shared lineage.
    pub lineage: Lineage,
    /// Member tuple indices, in rank order.
    pub members: Vec<usize>,
}

/// Fraction of base rows a delta may touch before
/// [`AnnotatedRelation::apply_delta`] falls back to a full rebuild.
///
/// Measured with the `ablation` figure of `qr-bench`'s `experiments` binary,
/// which times repairs forced down the incremental path against a fresh
/// [`AnnotatedRelation::build`] on TPC-H at 180 and 720 orders. Over nine
/// runs, a single-row repair ran a median 12x (180 orders) and 14x (720
/// orders) faster than the build, and the gap closes as the delta grows. A
/// delta that updates all 180 orders touches 0.68 of the base rows across
/// the query's tables and costs about as much as the build (median ratio
/// 1.04), because repair re-derives most tuples anyway while also paying the
/// merge bookkeeping. 0.7 sits at that measured break-even point. At 720
/// orders even the whole-relation delta (0.89 of the base rows) repaired
/// about as fast as a build (median ratio 1.10).
pub const DEFAULT_REBUILD_FRACTION: f64 = 0.7;

/// Result of [`AnnotatedRelation::apply_delta`]: the repaired annotation plus
/// a record of how it was obtained.
#[derive(Debug)]
pub struct DeltaAnnotation {
    /// The annotation matching the mutated database.
    pub annotated: AnnotatedRelation,
    /// Whether the delta exceeded the rebuild threshold and a full
    /// [`AnnotatedRelation::build`] ran instead of the incremental repair.
    pub rebuilt: bool,
    /// Tuples of `~Q(D)` that were freshly joined and annotated (0 when
    /// `rebuilt` is true).
    pub tuples_added: usize,
    /// Tuples of the previous annotation invalidated by the delta (0 when
    /// `rebuilt` is true).
    pub tuples_dropped: usize,
}

/// Resolved per-query annotation bookkeeping: predicate attribute columns and
/// DISTINCT key columns. Shared by the full build and the delta path so both
/// produce identical annotations.
struct AnnotationContext {
    cat_attrs: Vec<(String, usize)>,
    num_attrs: Vec<(String, CmpOp, usize)>,
    distinct_cols: Option<Vec<usize>>,
}

impl AnnotationContext {
    fn new(query: &SpjQuery, schema: &Schema, relation_name: &str) -> RelationResult<Self> {
        let mut cat_attrs = Vec::new();
        for p in &query.categorical_predicates {
            cat_attrs.push((
                p.attribute.clone(),
                schema.require(&p.attribute, relation_name)?,
            ));
        }
        let mut num_attrs = Vec::new();
        for p in &query.numeric_predicates {
            num_attrs.push((
                p.attribute.clone(),
                p.op,
                schema.require(&p.attribute, relation_name)?,
            ));
        }
        let distinct_cols: Option<Vec<usize>> = if query.distinct {
            let cols: Vec<String> = match &query.select {
                SelectList::All => schema.names().iter().map(|s| s.to_string()).collect(),
                SelectList::Columns(c) => c.clone(),
            };
            let mut idx = Vec::with_capacity(cols.len());
            for c in &cols {
                idx.push(schema.require(c, relation_name)?);
            }
            Some(idx)
        } else {
            None
        };
        Ok(AnnotationContext {
            cat_attrs,
            num_attrs,
            distinct_cols,
        })
    }

    /// Annotate one row of `~Q(D)`: lineage atoms and DISTINCT key. Rank and
    /// duplicate predecessors are filled in later, once the global tuple
    /// order is known.
    fn annotate(&self, row: Row, sources: Vec<RowId>) -> AnnotatedTuple {
        let mut atoms = Vec::new();
        for (attr, idx) in &self.cat_attrs {
            match row[*idx].as_text() {
                Some(v) => atoms.push(LineageAtom::Categorical {
                    attribute: attr.clone(),
                    value: v.to_string(),
                }),
                None => atoms.push(LineageAtom::Unsatisfiable {
                    attribute: attr.clone(),
                }),
            }
        }
        for (attr, op, idx) in &self.num_attrs {
            if row[*idx].as_f64().is_some() {
                atoms.push(LineageAtom::Numeric {
                    attribute: attr.clone(),
                    op: *op,
                    value: row[*idx].clone(),
                });
            } else {
                atoms.push(LineageAtom::Unsatisfiable {
                    attribute: attr.clone(),
                });
            }
        }
        let distinct_key = self
            .distinct_cols
            .as_ref()
            .map(|cols| cols.iter().map(|&i| row[i].clone()).collect());
        AnnotatedTuple {
            rank: 0,
            row: Arc::new(row),
            lineage: Arc::new(Lineage::new(atoms)),
            sources,
            distinct_key,
            duplicate_predecessors: Vec::new(),
        }
    }
}

/// An `f64` ordered by `total_cmp`, usable as a `BTreeMap` key. `-0.0` is
/// normalised to `0.0` on construction so the two compare as one value.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FloatKey(f64);

impl FloatKey {
    fn new(v: f64) -> Self {
        FloatKey(if v == 0.0 { 0.0 } else { v })
    }
}

impl Eq for FloatKey {}

impl PartialOrd for FloatKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FloatKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Multiplicity-counted value domains of the query's predicate attributes,
/// maintained incrementally under tuple insertion and removal so that
/// [`AnnotatedRelation::categorical_domain`],
/// [`AnnotatedRelation::numeric_domain`] and [`AnnotatedRelation::min_gap`]
/// answer from sorted maps instead of scanning `~Q(D)`.
#[derive(Debug, Clone, Default)]
struct DomainCache {
    cat: BTreeMap<String, BTreeMap<String, usize>>,
    num: BTreeMap<String, BTreeMap<FloatKey, usize>>,
    cat_cols: Vec<(String, usize)>,
    num_cols: Vec<(String, usize)>,
}

impl DomainCache {
    /// An empty cache covering the query's predicate attributes.
    fn for_query(query: &SpjQuery, schema: &Schema) -> RelationResult<Self> {
        let mut cache = DomainCache::default();
        for p in &query.categorical_predicates {
            if !cache.cat.contains_key(&p.attribute) {
                let idx = schema.require(&p.attribute, "~Q(D)")?;
                cache.cat.insert(p.attribute.clone(), BTreeMap::new());
                cache.cat_cols.push((p.attribute.clone(), idx));
            }
        }
        for p in &query.numeric_predicates {
            if !cache.num.contains_key(&p.attribute) {
                let idx = schema.require(&p.attribute, "~Q(D)")?;
                cache.num.insert(p.attribute.clone(), BTreeMap::new());
                cache.num_cols.push((p.attribute.clone(), idx));
            }
        }
        Ok(cache)
    }

    fn add_row(&mut self, row: &Row) {
        for (attr, idx) in &self.cat_cols {
            if let Some(v) = row[*idx].as_text() {
                // lint: allow-panic(cat_cols and cat are populated from the same keys at construction)
                let counts = self.cat.get_mut(attr).expect("cached attribute");
                *counts.entry(v.to_string()).or_insert(0) += 1;
            }
        }
        for (attr, idx) in &self.num_cols {
            if let Some(v) = row[*idx].as_f64() {
                // lint: allow-panic(num_cols and num are populated from the same keys at construction)
                let counts = self.num.get_mut(attr).expect("cached attribute");
                *counts.entry(FloatKey::new(v)).or_insert(0) += 1;
            }
        }
    }

    fn remove_row(&mut self, row: &Row) {
        for (attr, idx) in &self.cat_cols {
            if let Some(v) = row[*idx].as_text() {
                // lint: allow-panic(cat_cols and cat are populated from the same keys at construction)
                let counts = self.cat.get_mut(attr).expect("cached attribute");
                if let Some(n) = counts.get_mut(v) {
                    *n -= 1;
                    if *n == 0 {
                        counts.remove(v);
                    }
                }
            }
        }
        for (attr, idx) in &self.num_cols {
            if let Some(v) = row[*idx].as_f64() {
                // lint: allow-panic(num_cols and num are populated from the same keys at construction)
                let counts = self.num.get_mut(attr).expect("cached attribute");
                let key = FloatKey::new(v);
                if let Some(n) = counts.get_mut(&key) {
                    *n -= 1;
                    if *n == 0 {
                        counts.remove(&key);
                    }
                }
            }
        }
    }
}

/// The annotated relaxed query result `~Q(D)`.
///
/// This is the provenance structure from which both the MILP model and the
/// provenance-based what-if evaluation are built. It is constructed once with
/// [`build`](AnnotatedRelation::build) and thereafter kept in sync with a
/// mutating database via [`apply_delta`](AnnotatedRelation::apply_delta),
/// which re-annotates only the tuples whose lineage touches changed base
/// rows.
#[derive(Debug, Clone)]
pub struct AnnotatedRelation {
    query: SpjQuery,
    schema: Schema,
    tuples: Vec<AnnotatedTuple>,
    classes: Vec<LineageClass>,
    class_of: Vec<usize>,
    domains: DomainCache,
}

impl AnnotatedRelation {
    /// Evaluate `~Q(D)` and annotate every tuple.
    pub fn build(db: &Database, query: &SpjQuery) -> RelationResult<Self> {
        query.validate()?;
        let traced = evaluate_relaxed_traced(db, query)?;
        let schema = traced.relation.schema().clone();
        let ctx = AnnotationContext::new(query, &schema, traced.relation.name())?;

        let mut domains = DomainCache::for_query(query, &schema)?;
        let mut tuples = Vec::with_capacity(traced.relation.len());
        for (row, sources) in traced.relation.rows().iter().zip(traced.sources) {
            domains.add_row(row);
            tuples.push(ctx.annotate(row.clone(), sources));
        }

        compute_ranks_and_duplicates(&mut tuples);
        let (classes, class_of) = group_classes(&tuples);
        Ok(AnnotatedRelation {
            query: query.clone(),
            schema,
            tuples,
            classes,
            class_of,
            domains,
        })
    }

    /// Re-annotate after a database mutation, using
    /// [`DEFAULT_REBUILD_FRACTION`] as the rebuild threshold.
    ///
    /// `db` must be the database *after* the mutations described by `delta`
    /// were applied (the mutation API on [`Database`] produces matching
    /// deltas). The result is identical — tuple for tuple, class for class,
    /// domain for domain — to a fresh [`build`](AnnotatedRelation::build)
    /// against `db`, but only tuples whose lineage touches changed rows are
    /// re-derived:
    ///
    /// 1. tuples of `~Q(D)` sourcing a removed or changed base row are
    ///    dropped,
    /// 2. join tuples involving an added or changed base row are freshly
    ///    joined (one filtered traced join per query table, excluding
    ///    earlier tables' new rows so no tuple is derived twice) and
    ///    annotated,
    /// 3. the survivors and the fresh tuples are merged by ranking order
    ///    (order-by value, ties by base-row id — equivalent to join order
    ///    because row ids grow monotonically in storage order),
    /// 4. ranks, DISTINCT duplicate sets, lineage classes and the cached
    ///    attribute domains are repaired structurally, reusing the surviving
    ///    tuples' class assignments instead of re-hashing their lineages.
    pub fn apply_delta(
        &self,
        db: &Database,
        delta: &DatabaseDelta,
    ) -> RelationResult<DeltaAnnotation> {
        self.apply_delta_with_threshold(db, delta, DEFAULT_REBUILD_FRACTION)
    }

    /// [`apply_delta`](AnnotatedRelation::apply_delta) with an explicit
    /// rebuild threshold: when the delta touches more than
    /// `rebuild_fraction` of the base rows of the query's tables, fall back
    /// to a full [`build`](AnnotatedRelation::build). A fraction of `0.0`
    /// always rebuilds; a fraction `>= 1.0` (practically) always repairs.
    pub fn apply_delta_with_threshold(
        &self,
        db: &Database,
        delta: &DatabaseDelta,
        rebuild_fraction: f64,
    ) -> RelationResult<DeltaAnnotation> {
        let mut touched = 0usize;
        let mut base_rows = 0usize;
        for table in &self.query.tables {
            if let Some(d) = delta.for_relation(table) {
                touched += d.rows_touched();
            }
            base_rows += db.get(table)?.len();
        }
        if touched as f64 > rebuild_fraction * base_rows as f64 {
            return Ok(DeltaAnnotation {
                annotated: Self::build(db, &self.query)?,
                rebuilt: true,
                tuples_added: 0,
                tuples_dropped: 0,
            });
        }

        // Per table position: ids whose tuples die (removed ∪ changed) and
        // ids that contribute fresh join tuples (added ∪ changed).
        let tables = &self.query.tables;
        let mut dead_ids: Vec<HashSet<RowId>> = vec![HashSet::new(); tables.len()];
        let mut new_ids: Vec<HashSet<RowId>> = vec![HashSet::new(); tables.len()];
        for (t, table) in tables.iter().enumerate() {
            if let Some(d) = delta.for_relation(table) {
                dead_ids[t].extend(d.removed.iter().copied());
                dead_ids[t].extend(d.changed.iter().copied());
                new_ids[t].extend(d.added.iter().copied());
                new_ids[t].extend(d.changed.iter().copied());
            }
        }

        // 1. Survivors keep their payload (Arc bump) and old class id.
        let mut domains = self.domains.clone();
        let mut kept: Vec<(AnnotatedTuple, Option<usize>)> = Vec::with_capacity(self.tuples.len());
        for (i, tuple) in self.tuples.iter().enumerate() {
            let dies = tuple
                .sources
                .iter()
                .zip(dead_ids.iter())
                .any(|(src, dead)| dead.contains(src));
            if dies {
                domains.remove_row(&tuple.row);
            } else {
                kept.push((tuple.clone(), Some(self.class_of[i])));
            }
        }
        let tuples_dropped = self.tuples.len() - kept.len();

        // 2. Fresh join tuples: for table t, join (old rows of tables < t) ×
        //    (new rows of t) × (all rows of tables > t). The telescoping
        //    filters make the union exact — no tuple appears twice.
        let ctx = AnnotationContext::new(&self.query, &self.schema, "~Q(D)")?;
        let old_class_index: HashMap<&Lineage, usize> = self
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| (&c.lineage, i))
            .collect();
        let mut fresh: Vec<(AnnotatedTuple, Option<usize>)> = Vec::new();
        for t in 0..tables.len() {
            if new_ids[t].is_empty() {
                continue;
            }
            let filters: Vec<RowFilter<'_>> = (0..tables.len())
                .map(|j| {
                    if j < t {
                        RowFilter::Except(&new_ids[j])
                    } else if j == t {
                        RowFilter::Only(&new_ids[t])
                    } else {
                        RowFilter::All
                    }
                })
                .collect();
            let (joined, sources) = join_tables_traced(db, tables, &filters)?;
            for (row, src) in joined.rows().iter().zip(sources) {
                domains.add_row(row);
                let tuple = ctx.annotate(row.clone(), src);
                let old_class = old_class_index.get(&*tuple.lineage).copied();
                fresh.push((tuple, old_class));
            }
        }
        let tuples_added = fresh.len();

        // 3. Merge by ranking order. Survivors are already ordered; fresh
        //    tuples are sorted by the same key, then the two runs merge.
        let order_idx = self.schema.require(&self.query.order_by, "~Q(D)")?;
        let order = self.query.order;
        let ranking_key = |a: &AnnotatedTuple, b: &AnnotatedTuple| {
            let va = &a.row[order_idx];
            let vb = &b.row[order_idx];
            let cmp = match order {
                SortOrder::Descending => vb.cmp(va),
                SortOrder::Ascending => va.cmp(vb),
            };
            cmp.then_with(|| a.sources.cmp(&b.sources))
        };
        fresh.sort_by(|a, b| ranking_key(&a.0, &b.0));
        let mut merged: Vec<(AnnotatedTuple, Option<usize>)> =
            Vec::with_capacity(kept.len() + fresh.len());
        {
            let mut ki = kept.into_iter().peekable();
            let mut fi = fresh.into_iter().peekable();
            loop {
                match (ki.peek(), fi.peek()) {
                    (Some(k), Some(f)) => {
                        if ranking_key(&k.0, &f.0).is_le() {
                            // lint: allow-panic(peek just returned Some)
                            merged.push(ki.next().unwrap());
                        } else {
                            // lint: allow-panic(peek just returned Some)
                            merged.push(fi.next().unwrap());
                        }
                    }
                    // lint: allow-panic(peek just returned Some)
                    (Some(_), None) => merged.push(ki.next().unwrap()),
                    // lint: allow-panic(peek just returned Some)
                    (None, Some(_)) => merged.push(fi.next().unwrap()),
                    (None, None) => break,
                }
            }
        }

        // 4. Structural repair of ranks, duplicate sets and classes.
        let (mut tuples, hints): (Vec<AnnotatedTuple>, Vec<Option<usize>>) =
            merged.into_iter().unzip();
        compute_ranks_and_duplicates(&mut tuples);
        let (classes, class_of) = repair_classes(&tuples, &hints, &self.classes);
        Ok(DeltaAnnotation {
            annotated: AnnotatedRelation {
                query: self.query.clone(),
                schema: self.schema.clone(),
                tuples,
                classes,
                class_of,
                domains,
            },
            rebuilt: false,
            tuples_added,
            tuples_dropped,
        })
    }

    /// The query the annotation was built for.
    pub fn query(&self) -> &SpjQuery {
        &self.query
    }

    /// Schema of `~Q(D)` (all columns of the natural join).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The annotated tuples, in rank order.
    pub fn tuples(&self) -> &[AnnotatedTuple] {
        &self.tuples
    }

    /// Number of tuples, `|~Q(D)|`.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether `~Q(D)` is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The lineage equivalence classes.
    pub fn classes(&self) -> &[LineageClass] {
        &self.classes
    }

    /// Index of the lineage class a tuple belongs to.
    pub fn class_of(&self, tuple_index: usize) -> usize {
        self.class_of[tuple_index]
    }

    /// Value of `column` for a tuple.
    pub fn value(&self, tuple_index: usize, column: &str) -> RelationResult<&Value> {
        let idx = self.schema.require(column, "~Q(D)")?;
        self.tuples
            .get(tuple_index)
            .map(|t| &t.row[idx])
            .ok_or_else(|| {
                RelationError::InvalidQuery(format!("tuple index {tuple_index} out of range"))
            })
    }

    /// The relevancy-based pruning of Section 4: the indices of tuples that
    /// can possibly appear in the top-`k_star` of *some* refinement, i.e. the
    /// union over all lineage classes of each class's first `k_star` members.
    /// Returned in rank order.
    pub fn relevant_indices(&self, k_star: usize) -> Vec<usize> {
        let mut keep: Vec<usize> = self
            .classes
            .iter()
            .flat_map(|c| c.members.iter().take(k_star).copied())
            .collect();
        keep.sort_unstable();
        keep
    }

    /// Distinct values of a categorical attribute across `~Q(D)` (the domain
    /// over which refinements of a categorical predicate range).
    ///
    /// Predicate attributes answer from the incrementally maintained domain
    /// cache; other attributes fall back to a scan.
    pub fn categorical_domain(&self, attribute: &str) -> RelationResult<Vec<String>> {
        if let Some(counts) = self.domains.cat.get(attribute) {
            return Ok(counts.keys().cloned().collect());
        }
        let idx = self.schema.require(attribute, "~Q(D)")?;
        let mut values: Vec<String> = Vec::new();
        for t in &self.tuples {
            if let Some(v) = t.row[idx].as_text() {
                if !values.iter().any(|x| x == v) {
                    values.push(v.to_string());
                }
            }
        }
        values.sort();
        Ok(values)
    }

    /// Sorted distinct numeric values of an attribute across `~Q(D)` (the
    /// candidate constants for refining a numerical predicate).
    ///
    /// Predicate attributes answer from the incrementally maintained domain
    /// cache; other attributes fall back to a scan.
    pub fn numeric_domain(&self, attribute: &str) -> RelationResult<Vec<f64>> {
        if let Some(counts) = self.domains.num.get(attribute) {
            return Ok(counts.keys().map(|k| k.0).collect());
        }
        let idx = self.schema.require(attribute, "~Q(D)")?;
        let mut values: Vec<f64> = Vec::new();
        for t in &self.tuples {
            if let Some(v) = t.row[idx].as_f64() {
                if !values.iter().any(|x| (x - v).abs() < f64::EPSILON) {
                    values.push(v);
                }
            }
        }
        values.sort_by(f64::total_cmp);
        Ok(values)
    }

    /// The smallest pairwise gap between distinct values of a numeric
    /// attribute (used to pick the strict-inequality relaxation constant δ).
    pub fn min_gap(&self, attribute: &str) -> RelationResult<f64> {
        let domain = self.numeric_domain(attribute)?;
        let mut gap = f64::INFINITY;
        for w in domain.windows(2) {
            gap = gap.min(w[1] - w[0]);
        }
        Ok(if gap.is_finite() { gap } else { 1.0 })
    }
}

/// Assign ranks in order and recompute every tuple's DISTINCT duplicate
/// predecessors `S(t)` from its stored key. Shared by the full build and the
/// delta repair so both derive identical structures.
fn compute_ranks_and_duplicates(tuples: &mut [AnnotatedTuple]) {
    let mut seen_keys: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, tuple) in tuples.iter_mut().enumerate() {
        tuple.rank = i;
        match tuple.distinct_key.clone() {
            None => tuple.duplicate_predecessors = Vec::new(),
            Some(key) => {
                let predecessors = seen_keys.get(&key).cloned().unwrap_or_default();
                seen_keys.entry(key).or_default().push(i);
                tuple.duplicate_predecessors = predecessors;
            }
        }
    }
}

/// Group tuples into lineage equivalence classes, in order of first
/// appearance, by hashing every tuple's lineage.
fn group_classes(tuples: &[AnnotatedTuple]) -> (Vec<LineageClass>, Vec<usize>) {
    let mut class_index: HashMap<Arc<Lineage>, usize> = HashMap::new();
    let mut classes: Vec<LineageClass> = Vec::new();
    let mut class_of = vec![0usize; tuples.len()];
    for (i, t) in tuples.iter().enumerate() {
        let idx = *class_index
            .entry(Arc::clone(&t.lineage))
            .or_insert_with(|| {
                classes.push(LineageClass {
                    lineage: (*t.lineage).clone(),
                    members: Vec::new(),
                });
                classes.len() - 1
            });
        classes[idx].members.push(i);
        class_of[i] = idx;
    }
    (classes, class_of)
}

/// Rebuild the class list after a delta, re-hashing only tuples without an
/// old-class hint (i.e. fresh tuples whose lineage matches no previous
/// class). Class order is first appearance in the new ranking, exactly as
/// [`group_classes`] would produce.
fn repair_classes(
    tuples: &[AnnotatedTuple],
    hints: &[Option<usize>],
    old_classes: &[LineageClass],
) -> (Vec<LineageClass>, Vec<usize>) {
    let mut by_old_class: HashMap<usize, usize> = HashMap::new();
    let mut by_lineage: HashMap<Arc<Lineage>, usize> = HashMap::new();
    let mut classes: Vec<LineageClass> = Vec::new();
    let mut class_of = vec![0usize; tuples.len()];
    for (i, t) in tuples.iter().enumerate() {
        let idx = match hints[i] {
            Some(old) => *by_old_class.entry(old).or_insert_with(|| {
                classes.push(LineageClass {
                    lineage: old_classes[old].lineage.clone(),
                    members: Vec::new(),
                });
                classes.len() - 1
            }),
            None => *by_lineage.entry(Arc::clone(&t.lineage)).or_insert_with(|| {
                classes.push(LineageClass {
                    lineage: (*t.lineage).clone(),
                    members: Vec::new(),
                });
                classes.len() - 1
            }),
        };
        classes[idx].members.push(i);
        class_of[i] = idx;
    }
    (classes, class_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_relation::paper_example::{paper_database, scholarship_query};
    use qr_relation::{DataType, Relation, SortOrder};

    #[test]
    fn table5_annotation_structure() {
        let db = paper_database();
        let annotated = AnnotatedRelation::build(&db, &scholarship_query()).unwrap();
        // Table 5 of the paper: 14 annotated tuples (t4 and t8 appear twice).
        assert_eq!(annotated.len(), 14);
        // Every lineage has exactly two atoms (Activity, GPA).
        assert!(annotated.tuples().iter().all(|t| t.lineage.len() == 2));
    }

    #[test]
    fn duplicate_predecessors_for_distinct() {
        let db = paper_database();
        let annotated = AnnotatedRelation::build(&db, &scholarship_query()).unwrap();
        // t4 appears twice (RB and TU) at adjacent ranks; the second
        // occurrence's S(t) contains the first.
        let id_idx = annotated.schema().index_of("ID").unwrap();
        let t4_occurrences: Vec<usize> = annotated
            .tuples()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.row[id_idx] == Value::text("t4"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(t4_occurrences.len(), 2);
        assert!(annotated.tuples()[t4_occurrences[0]]
            .duplicate_predecessors
            .is_empty());
        assert_eq!(
            annotated.tuples()[t4_occurrences[1]].duplicate_predecessors,
            vec![t4_occurrences[0]]
        );
    }

    #[test]
    fn lineage_classes_group_shared_lineage() {
        let db = paper_database();
        let annotated = AnnotatedRelation::build(&db, &scholarship_query()).unwrap();
        // Example 4.1: [Lineage(t14)] = {t7, t10, t14} (Activity RB, GPA 3.7).
        let id_idx = annotated.schema().index_of("ID").unwrap();
        let t14_idx = annotated
            .tuples()
            .iter()
            .position(|t| t.row[id_idx] == Value::text("t14"))
            .unwrap();
        let class = &annotated.classes()[annotated.class_of(t14_idx)];
        let ids: Vec<String> = class
            .members
            .iter()
            .map(|&i| annotated.tuples()[i].row[id_idx].to_string())
            .collect();
        assert_eq!(ids, vec!["t7", "t10", "t14"]);
    }

    #[test]
    fn relevancy_pruning_drops_unreachable_tuples() {
        let db = paper_database();
        let annotated = AnnotatedRelation::build(&db, &scholarship_query()).unwrap();
        // With k* = 2, t14 (third member of its class) can never reach the
        // top-2 and must be pruned (Example 4.1).
        let id_idx = annotated.schema().index_of("ID").unwrap();
        let keep = annotated.relevant_indices(2);
        let kept_ids: Vec<String> = keep
            .iter()
            .map(|&i| annotated.tuples()[i].row[id_idx].to_string())
            .collect();
        assert!(!kept_ids.contains(&"t14".to_string()));
        assert!(kept_ids.contains(&"t7".to_string()));
        assert!(kept_ids.contains(&"t10".to_string()));
        // Pruning keeps rank order and never duplicates indices.
        assert!(keep.windows(2).all(|w| w[0] < w[1]));
        // With k* >= max class size nothing is pruned.
        assert_eq!(annotated.relevant_indices(100).len(), annotated.len());
    }

    #[test]
    fn domains() {
        let db = paper_database();
        let annotated = AnnotatedRelation::build(&db, &scholarship_query()).unwrap();
        let activities = annotated.categorical_domain("Activity").unwrap();
        assert_eq!(activities, vec!["GD", "MO", "RB", "SO", "TU"]);
        let gpas = annotated.numeric_domain("GPA").unwrap();
        assert_eq!(gpas.first().copied(), Some(3.6));
        assert_eq!(gpas.last().copied(), Some(4.0));
        assert!((annotated.min_gap("GPA").unwrap() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn null_predicate_values_are_unsatisfiable() {
        let mut db = Database::new();
        db.insert(
            Relation::build("T")
                .column("id", DataType::Text)
                .column("cat", DataType::Text)
                .column("score", DataType::Int)
                .row(vec!["a".into(), Value::Null, 10.into()])
                .row(vec!["b".into(), "x".into(), 5.into()])
                .finish()
                .unwrap(),
        )
        .expect("fresh relation name");
        let q = SpjQuery::builder("T")
            .categorical_predicate("cat", ["x"])
            .order_by("score", SortOrder::Descending)
            .build()
            .unwrap();
        let annotated = AnnotatedRelation::build(&db, &q).unwrap();
        assert!(annotated.tuples()[0].lineage.is_unsatisfiable());
        assert!(!annotated.tuples()[1].lineage.is_unsatisfiable());
    }

    #[test]
    fn no_distinct_means_no_duplicate_sets() {
        let db = paper_database();
        let mut q = scholarship_query();
        q.distinct = false;
        let annotated = AnnotatedRelation::build(&db, &q).unwrap();
        assert!(annotated.tuples().iter().all(|t| t.distinct_key.is_none()));
        assert!(annotated
            .tuples()
            .iter()
            .all(|t| t.duplicate_predecessors.is_empty()));
    }
}
