//! # qr-relation
//!
//! An in-memory relational substrate for the *Query Refinement for Diverse
//! Top-k Selection* reproduction.
//!
//! The paper evaluates conjunctive Select-Project-Join (SPJ) queries with an
//! `ORDER BY` clause over a DBMS (DuckDB). This crate provides exactly that
//! fragment, built from scratch:
//!
//! * typed [`Value`]s with a total order ([`value`]),
//! * [`Schema`]s and [`Relation`]s ([`schema`], [`relation`]),
//! * a [`Database`] catalog of named relations ([`database`]),
//! * numerical and categorical selection [`predicate`]s,
//! * conjunctive SPJ [`SpjQuery`]s with `DISTINCT` and `ORDER BY` ([`query`]),
//! * query evaluation including natural joins and top-k extraction ([`eval`]),
//! * CSV import/export ([`csv`]) and SQL pretty-printing ([`sql`]),
//! * the paper's running example, its database and scholarship query
//!   ([`paper_example`]).
//!
//! The engine is intentionally simple (row-at-a-time, hash joins) but fully
//! deterministic: ties in the `ORDER BY` attribute are broken by the row's
//! provenance position so that rankings are total orders, which the MILP
//! model in `qr-core` relies on.
//!
//! ## Example
//!
//! ```
//! use qr_relation::prelude::*;
//!
//! let mut db = Database::new();
//! db.insert(
//!     Relation::build("students")
//!         .column("id", DataType::Text)
//!         .column("gpa", DataType::Float)
//!         .column("sat", DataType::Int)
//!         .row(vec![Value::text("t1"), Value::float(3.9), Value::int(1520)])
//!         .row(vec![Value::text("t2"), Value::float(3.5), Value::int(1580)])
//!         .finish()
//!         .unwrap(),
//! )
//! .unwrap();
//!
//! // Tuple-level mutations return typed deltas with stable row ids.
//! let delta = db
//!     .insert_rows(
//!         "students",
//!         vec![vec![Value::text("t3"), Value::float(3.4), Value::int(1600)]],
//!     )
//!     .unwrap();
//! assert_eq!(delta.added, vec![2]);
//!
//! let query = SpjQuery::builder("students")
//!     .numeric_predicate("gpa", CmpOp::Ge, 3.7)
//!     .order_by("sat", SortOrder::Descending)
//!     .build()
//!     .unwrap();
//!
//! let result = evaluate(&db, &query).unwrap();
//! assert_eq!(result.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csv;
pub mod database;
pub mod delta;
pub mod error;
pub mod eval;
pub mod paper_example;
pub mod predicate;
pub mod query;
pub mod relation;
pub mod schema;
pub mod sql;
pub mod value;

pub use database::Database;
pub use delta::{DatabaseDelta, RelationDelta};
pub use error::{RelationError, Result};
pub use eval::{
    evaluate, evaluate_relaxed, evaluate_relaxed_traced, join_tables_traced, top_k, RowFilter,
    TracedRelaxed,
};
pub use predicate::{CategoricalPredicate, CmpOp, NumericPredicate};
pub use query::{SelectList, SortOrder, SpjQuery, SpjQueryBuilder};
pub use relation::{Relation, RelationBuilder, Row, RowId};
pub use schema::{Column, DataType, Schema};
pub use value::Value;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::csv::{read_csv_str, write_csv_string};
    pub use crate::database::Database;
    pub use crate::delta::{DatabaseDelta, RelationDelta};
    pub use crate::error::{RelationError, Result as RelationResult};
    pub use crate::eval::{evaluate, evaluate_relaxed, top_k};
    pub use crate::predicate::{CategoricalPredicate, CmpOp, NumericPredicate};
    pub use crate::query::{SelectList, SortOrder, SpjQuery, SpjQueryBuilder};
    pub use crate::relation::{Relation, RelationBuilder, Row, RowId};
    pub use crate::schema::{Column, DataType, Schema};
    pub use crate::sql::ToSql;
    pub use crate::value::Value;
}
