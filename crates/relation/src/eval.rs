//! Query evaluation: natural joins, selection, DISTINCT, ranking, top-k.
//!
//! Evaluation is row-at-a-time and fully deterministic. Ranking ties on the
//! `ORDER BY` attribute are broken by the tuple's position in the relaxed
//! (unfiltered) join `~Q(D)`, so every query output is a total order. The MILP
//! model in `qr-core` relies on this property: the relative order of tuples is
//! identical across all refinements of a query (Section 3.1 of the paper).

use crate::database::Database;
use crate::error::{RelationError, Result};
use crate::query::{SelectList, SortOrder, SpjQuery};
use crate::relation::{Relation, Row, RowId};
use crate::schema::Schema;
use crate::value::Value;
use std::collections::{HashMap, HashSet};

/// Evaluate a query, returning the ranked result relation.
///
/// The result's rows are ordered by the `ORDER BY` attribute (descending or
/// ascending per the query), with ties broken by join order; projection and
/// DISTINCT are applied as in SQL (`SELECT DISTINCT` keeps, for each
/// combination of projected values, the highest-ranked tuple).
pub fn evaluate(db: &Database, query: &SpjQuery) -> Result<Relation> {
    query.validate()?;
    let joined = join_tables(db, &query.tables)?;
    let ranked = rank(&joined, &query.order_by, query.order)?;
    let filtered = filter(&ranked, query)?;
    let deduped = if query.distinct {
        dedup(&filtered, query)?
    } else {
        filtered
    };
    project_select(&deduped, query)
}

/// Evaluate the relaxed query `~Q` (all selection predicates and DISTINCT
/// removed, no projection): the ranked universe over which refinements range.
///
/// The returned relation keeps *all* columns of the natural join, so lineage
/// can be computed from it, and is ordered exactly like [`evaluate`] orders
/// its results.
pub fn evaluate_relaxed(db: &Database, query: &SpjQuery) -> Result<Relation> {
    Ok(evaluate_relaxed_traced(db, query)?.relation)
}

/// A ranked relaxed result together with, for each output row, the stable
/// [`RowId`]s of the base rows it joins (one per query table, in table order).
#[derive(Debug, Clone)]
pub struct TracedRelaxed {
    /// The ranked relaxed relation `~Q(D)` (all join columns kept).
    pub relation: Relation,
    /// `sources[i][t]` is the id of the row of `query.tables[t]` that output
    /// row `i` was joined from.
    pub sources: Vec<Vec<RowId>>,
}

/// [`evaluate_relaxed`], additionally tracing each output row back to the
/// stable ids of its base rows. Incremental provenance annotation uses the
/// trace to decide which output tuples a database delta invalidates.
pub fn evaluate_relaxed_traced(db: &Database, query: &SpjQuery) -> Result<TracedRelaxed> {
    query.validate()?;
    let filters = vec![RowFilter::All; query.tables.len()];
    let (joined, sources) = join_tables_traced(db, &query.tables, &filters)?;
    rank_traced(joined, sources, &query.order_by, query.order)
}

/// A per-table admission filter over stable row ids, used by
/// [`join_tables_traced`] to join only the delta-relevant slice of the
/// database.
#[derive(Debug, Clone, Copy)]
pub enum RowFilter<'a> {
    /// Admit every row.
    All,
    /// Admit only rows whose id is in the set.
    Only(&'a HashSet<RowId>),
    /// Admit only rows whose id is *not* in the set.
    Except(&'a HashSet<RowId>),
}

impl RowFilter<'_> {
    fn admits(&self, id: RowId) -> bool {
        match self {
            RowFilter::All => true,
            RowFilter::Only(set) => set.contains(&id),
            RowFilter::Except(set) => !set.contains(&id),
        }
    }
}

/// Natural-join the query's tables left to right, admitting only base rows
/// that pass the per-table filter, and tracing each output row to the stable
/// ids of its base rows. With all filters set to [`RowFilter::All`] the output
/// order is identical to the untraced join.
pub fn join_tables_traced(
    db: &Database,
    tables: &[String],
    filters: &[RowFilter<'_>],
) -> Result<(Relation, Vec<Vec<RowId>>)> {
    debug_assert_eq!(tables.len(), filters.len());
    let first = db.get(&tables[0])?;
    let mut acc = Relation::new(first.name().to_string(), first.schema().clone());
    let mut sources: Vec<Vec<RowId>> = Vec::new();
    for (i, row) in first.iter() {
        let id = first.row_ids()[i];
        if filters[0].admits(id) {
            acc.push_row_unchecked(row.clone());
            sources.push(vec![id]);
        }
    }
    for (t, name) in tables.iter().enumerate().skip(1) {
        let right = db.get(name)?;
        let (next, next_sources) = natural_join_traced(&acc, &sources, right, filters[t])?;
        acc = next;
        sources = next_sources;
    }
    Ok((acc, sources))
}

/// Order rows by the scoring attribute (ties keep join order), permuting the
/// source trace alongside.
fn rank_traced(
    relation: Relation,
    sources: Vec<Vec<RowId>>,
    order_by: &str,
    order: SortOrder,
) -> Result<TracedRelaxed> {
    let idx = relation.schema().require(order_by, relation.name())?;
    let mut order_keys: Vec<usize> = (0..relation.len()).collect();
    order_keys.sort_by(|&a, &b| {
        let va = &relation.rows()[a][idx];
        let vb = &relation.rows()[b][idx];
        let cmp = match order {
            SortOrder::Descending => vb.cmp(va),
            SortOrder::Ascending => va.cmp(vb),
        };
        cmp.then(a.cmp(&b))
    });
    let mut out = Relation::new(relation.name().to_string(), relation.schema().clone());
    let mut out_sources = Vec::with_capacity(order_keys.len());
    for &i in &order_keys {
        out.push_row_unchecked(relation.rows()[i].clone());
        out_sources.push(sources[i].clone());
    }
    Ok(TracedRelaxed {
        relation: out,
        sources: out_sources,
    })
}

/// The top-k prefix of a ranked relation (fewer rows if the relation is smaller).
pub fn top_k(relation: &Relation, k: usize) -> Relation {
    let mut out = Relation::new(relation.name().to_string(), relation.schema().clone());
    for row in relation.rows().iter().take(k) {
        out.push_row_unchecked(row.clone());
    }
    out
}

/// Natural-join the given base relations left to right.
fn join_tables(db: &Database, tables: &[String]) -> Result<Relation> {
    let filters = vec![RowFilter::All; tables.len()];
    Ok(join_tables_traced(db, tables, &filters)?.0)
}

/// Left-side row count up to which the traced join step probes the right
/// relation directly instead of building a hash index over it.
const SMALL_LEFT_NESTED_LOOP: usize = 16;

/// One traced step of the left-to-right join: accumulator (with its source
/// trace) against a base relation, admitting only filtered base rows.
fn natural_join_traced(
    left: &Relation,
    left_sources: &[Vec<RowId>],
    right: &Relation,
    right_filter: RowFilter<'_>,
) -> Result<(Relation, Vec<Vec<RowId>>)> {
    let join_cols = left.schema().common_columns(right.schema());
    if join_cols.is_empty() {
        return Err(RelationError::NoJoinColumns {
            left: left.name().to_string(),
            right: right.name().to_string(),
        });
    }
    let left_idx: Vec<usize> = join_cols
        .iter()
        // lint: allow-panic(common_columns only returns names present in both schemas)
        .map(|c| left.schema().index_of(c).expect("common column"))
        .collect();
    let right_idx: Vec<usize> = join_cols
        .iter()
        // lint: allow-panic(common_columns only returns names present in both schemas)
        .map(|c| right.schema().index_of(c).expect("common column"))
        .collect();

    let mut schema = Schema::default();
    for c in left.schema().columns() {
        schema.push(c.clone())?;
    }
    let right_extra: Vec<usize> = right
        .schema()
        .columns()
        .iter()
        .enumerate()
        .filter(|(i, _)| !right_idx.contains(i))
        .map(|(i, c)| schema.push(c.clone()).map(|_| i))
        .collect::<Result<Vec<_>>>()?;

    let name = format!("{}⋈{}", left.name(), right.name());
    let mut out = Relation::new(name, schema);
    let mut out_sources: Vec<Vec<RowId>> = Vec::new();
    let mut emit = |li: usize, lrow: &Row, ri: usize| {
        let rrow = &right.rows()[ri];
        let mut row: Row = lrow.clone();
        row.extend(right_extra.iter().map(|&j| rrow[j].clone()));
        out.push_row_unchecked(row);
        let mut src = left_sources[li].clone();
        src.push(right.row_ids()[ri]);
        out_sources.push(src);
    };

    // A tiny left side (the delta-repair path filters the accumulator down
    // to a handful of fresh rows) probes the right rows directly: same
    // output order as the hash join below, none of its per-row key
    // allocations — the index build would dominate the whole join.
    if left.len() <= SMALL_LEFT_NESTED_LOOP {
        for (li, lrow) in left.iter() {
            // NULL join keys never match (SQL semantics).
            if left_idx.iter().any(|&j| lrow[j].is_null()) {
                continue;
            }
            for (ri, rrow) in right.iter() {
                if right_filter.admits(right.row_ids()[ri])
                    && left_idx
                        .iter()
                        .zip(right_idx.iter())
                        .all(|(&lj, &rj)| lrow[lj] == rrow[rj])
                {
                    emit(li, lrow, ri);
                }
            }
        }
        return Ok((out, out_sources));
    }

    // Hash index over the admitted right rows, in storage order.
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, row) in right.iter() {
        if !right_filter.admits(right.row_ids()[i]) {
            continue;
        }
        let key: Vec<Value> = right_idx.iter().map(|&j| row[j].clone()).collect();
        index.entry(key).or_default().push(i);
    }

    for (li, lrow) in left.iter() {
        let key: Vec<Value> = left_idx.iter().map(|&j| lrow[j].clone()).collect();
        // NULL join keys never match (SQL semantics).
        if key.iter().any(Value::is_null) {
            continue;
        }
        if let Some(matches) = index.get(&key) {
            for &ri in matches {
                emit(li, lrow, ri);
            }
        }
    }
    Ok((out, out_sources))
}

/// Order rows by the scoring attribute (stable: ties keep join order).
fn rank(relation: &Relation, order_by: &str, order: SortOrder) -> Result<Relation> {
    let idx = relation.schema().require(order_by, relation.name())?;
    let mut order_keys: Vec<usize> = (0..relation.len()).collect();
    order_keys.sort_by(|&a, &b| {
        let va = &relation.rows()[a][idx];
        let vb = &relation.rows()[b][idx];
        let cmp = match order {
            SortOrder::Descending => vb.cmp(va),
            SortOrder::Ascending => va.cmp(vb),
        };
        cmp.then(a.cmp(&b))
    });
    let mut out = Relation::new(relation.name().to_string(), relation.schema().clone());
    for i in order_keys {
        out.push_row_unchecked(relation.rows()[i].clone());
    }
    Ok(out)
}

/// Keep only rows satisfying every predicate of the query.
fn filter(relation: &Relation, query: &SpjQuery) -> Result<Relation> {
    // Resolve predicate attribute indices once.
    let mut num_idx = Vec::with_capacity(query.numeric_predicates.len());
    for p in &query.numeric_predicates {
        let idx = relation.schema().require(&p.attribute, relation.name())?;
        if !relation.schema().columns()[idx].dtype.is_numeric() {
            return Err(RelationError::PredicateType {
                attribute: p.attribute.clone(),
                message: "numerical predicate on non-numeric column".into(),
            });
        }
        num_idx.push((idx, p));
    }
    let mut cat_idx = Vec::with_capacity(query.categorical_predicates.len());
    for p in &query.categorical_predicates {
        let idx = relation.schema().require(&p.attribute, relation.name())?;
        cat_idx.push((idx, p));
    }
    let mut out = Relation::new(relation.name().to_string(), relation.schema().clone());
    'rows: for row in relation.rows() {
        for (idx, p) in &num_idx {
            if !p.matches(&row[*idx]) {
                continue 'rows;
            }
        }
        for (idx, p) in &cat_idx {
            if !p.matches(&row[*idx]) {
                continue 'rows;
            }
        }
        out.push_row_unchecked(row.clone());
    }
    Ok(out)
}

/// `SELECT DISTINCT` semantics: for each combination of projected attribute
/// values, keep only the first (highest-ranked) row.
fn dedup(relation: &Relation, query: &SpjQuery) -> Result<Relation> {
    let key_columns: Vec<String> = match &query.select {
        SelectList::All => relation
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        SelectList::Columns(c) => c.clone(),
    };
    let mut key_idx = Vec::with_capacity(key_columns.len());
    for c in &key_columns {
        key_idx.push(relation.schema().require(c, relation.name())?);
    }
    let mut seen: HashMap<Vec<Value>, ()> = HashMap::new();
    let mut out = Relation::new(relation.name().to_string(), relation.schema().clone());
    for row in relation.rows() {
        let key: Vec<Value> = key_idx.iter().map(|&i| row[i].clone()).collect();
        if seen.insert(key, ()).is_none() {
            out.push_row_unchecked(row.clone());
        }
    }
    Ok(out)
}

/// Apply the projection list (keeping row order).
fn project_select(relation: &Relation, query: &SpjQuery) -> Result<Relation> {
    match &query.select {
        SelectList::All => Ok(relation.clone()),
        SelectList::Columns(cols) => {
            let refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
            relation.project(&refs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::{paper_database, scholarship_query};
    use crate::predicate::CmpOp;
    use crate::schema::DataType;

    fn ids(rel: &Relation) -> Vec<String> {
        rel.rows()
            .iter()
            .map(|r| r[rel.schema().index_of("ID").unwrap()].to_string())
            .collect()
    }

    #[test]
    fn scholarship_query_matches_paper_example_1_1() {
        let db = paper_database();
        let q = scholarship_query();
        let result = evaluate(&db, &q).unwrap();
        // The paper reports the ranking [t4, t7, t8, t10, t11, t12] (the six
        // scholarship recipients); t14 also qualifies (GPA 3.7, RB) and ranks
        // last with SAT 1410.
        assert_eq!(
            ids(&top_k(&result, 6)),
            vec!["t4", "t7", "t8", "t10", "t11", "t12"]
        );
        assert_eq!(result.len(), 7);
        assert_eq!(ids(&result)[6], "t14");
    }

    #[test]
    fn refined_query_example_1_2() {
        // Add SO to the Activity predicate: top-6 = t1, t2, t4, t6, t7, t8.
        let db = paper_database();
        let mut q = scholarship_query();
        q.categorical_predicates[0] = q.categorical_predicates[0].with_values(["RB", "SO"]);
        let result = evaluate(&db, &q).unwrap();
        let top6 = top_k(&result, 6);
        assert_eq!(ids(&top6), vec!["t1", "t2", "t4", "t6", "t7", "t8"]);
    }

    #[test]
    fn refined_query_example_1_3() {
        // GPA >= 3.6 and Activity in {RB, GD}: ranking starts t3, t4, t7, t8, t10, t11, t12.
        let db = paper_database();
        let mut q = scholarship_query();
        q.numeric_predicates[0] = q.numeric_predicates[0].with_constant(3.6);
        q.categorical_predicates[0] = q.categorical_predicates[0].with_values(["RB", "GD"]);
        let result = evaluate(&db, &q).unwrap();
        let top6 = top_k(&result, 6);
        assert_eq!(ids(&top6), vec!["t3", "t4", "t7", "t8", "t10", "t11"]);
        assert_eq!(ids(&result)[6], "t12");
    }

    #[test]
    fn relaxed_query_contains_all_join_tuples() {
        // Table 5 of the paper: ~Q(D) has 14 tuples (students with activities).
        let db = paper_database();
        let q = scholarship_query();
        let relaxed = evaluate_relaxed(&db, &q).unwrap();
        assert_eq!(relaxed.len(), 14);
        // It keeps all columns of the join, including GPA/SAT/Activity.
        assert!(relaxed.schema().index_of("Activity").is_some());
        assert!(relaxed.schema().index_of("GPA").is_some());
    }

    #[test]
    fn distinct_keeps_highest_ranked_duplicate() {
        // t4 and t8 appear twice in the join (RB and TU); DISTINCT output keeps one.
        let db = paper_database();
        let mut q = scholarship_query();
        // Select both activities so the duplicates would both qualify.
        q.categorical_predicates[0] = q.categorical_predicates[0].with_values(["RB", "TU"]);
        let result = evaluate(&db, &q).unwrap();
        let id_list = ids(&result);
        assert_eq!(id_list.iter().filter(|s| s.as_str() == "t4").count(), 1);
        assert_eq!(id_list.iter().filter(|s| s.as_str() == "t8").count(), 1);
    }

    #[test]
    fn top_k_shorter_than_k() {
        let db = paper_database();
        let q = scholarship_query();
        let result = evaluate(&db, &q).unwrap();
        assert_eq!(top_k(&result, 100).len(), result.len());
        assert_eq!(top_k(&result, 0).len(), 0);
    }

    #[test]
    fn ascending_order() {
        let db = paper_database();
        let q = SpjQuery::builder("Students")
            .order_by("SAT", SortOrder::Ascending)
            .build()
            .unwrap();
        let result = evaluate(&db, &q).unwrap();
        let sats: Vec<f64> = result
            .rows()
            .iter()
            .map(|r| {
                r[result.schema().index_of("SAT").unwrap()]
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert!(sats.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn missing_table_and_column_errors() {
        let db = paper_database();
        let q = SpjQuery::builder("Nope")
            .order_by("x", SortOrder::Descending)
            .build()
            .unwrap();
        assert!(matches!(
            evaluate(&db, &q),
            Err(RelationError::UnknownRelation(_))
        ));
        let q = SpjQuery::builder("Students")
            .order_by("Nope", SortOrder::Descending)
            .build()
            .unwrap();
        assert!(matches!(
            evaluate(&db, &q),
            Err(RelationError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn numeric_predicate_on_text_column_errors() {
        let db = paper_database();
        let q = SpjQuery::builder("Students")
            .numeric_predicate("Gender", CmpOp::Ge, 1.0)
            .order_by("SAT", SortOrder::Descending)
            .build()
            .unwrap();
        assert!(matches!(
            evaluate(&db, &q),
            Err(RelationError::PredicateType { .. })
        ));
    }

    #[test]
    fn join_without_common_columns_errors() {
        let mut db = Database::new();
        db.insert(
            Relation::build("a")
                .column("x", DataType::Int)
                .finish()
                .unwrap(),
        )
        .unwrap();
        db.insert(
            Relation::build("b")
                .column("y", DataType::Int)
                .finish()
                .unwrap(),
        )
        .unwrap();
        let q = SpjQuery::builder("a")
            .join("b")
            .order_by("x", SortOrder::Descending)
            .build()
            .unwrap();
        assert!(matches!(
            evaluate(&db, &q),
            Err(RelationError::NoJoinColumns { .. })
        ));
    }

    #[test]
    fn null_join_keys_do_not_match() {
        let mut db = Database::new();
        db.insert(
            Relation::build("a")
                .column("k", DataType::Text)
                .column("score", DataType::Int)
                .row(vec![Value::Null, Value::int(10)])
                .row(vec![Value::text("x"), Value::int(5)])
                .finish()
                .unwrap(),
        )
        .unwrap();
        db.insert(
            Relation::build("b")
                .column("k", DataType::Text)
                .column("tag", DataType::Text)
                .row(vec![Value::Null, Value::text("n")])
                .row(vec![Value::text("x"), Value::text("t")])
                .finish()
                .unwrap(),
        )
        .unwrap();
        let q = SpjQuery::builder("a")
            .join("b")
            .order_by("score", SortOrder::Descending)
            .build()
            .unwrap();
        let result = evaluate(&db, &q).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.value(0, "k"), Some(&Value::text("x")));
    }
}
