//! The paper's running example (Tables 1 and 2, the *scholarship query*).
//!
//! Kept as library code (not test-only) because the unit tests of every
//! layer, the integration tests and the examples all exercise it, and
//! because it is the fastest way for a new user to see the system end to
//! end. `qr_core::paper_example` re-exports it beside the example's
//! diversity constraints.

use crate::{CmpOp, DataType, Database, Relation, SortOrder, SpjQuery};

/// The `Students` ⋈ `Activities` database of Tables 1 and 2.
pub fn paper_database() -> Database {
    let students = Relation::build("Students")
        .column("ID", DataType::Text)
        .column("Gender", DataType::Text)
        .column("Income", DataType::Text)
        .column("GPA", DataType::Float)
        .column("SAT", DataType::Int)
        .rows(vec![
            vec![
                "t1".into(),
                "M".into(),
                "Medium".into(),
                3.7.into(),
                1590.into(),
            ],
            vec![
                "t2".into(),
                "F".into(),
                "Low".into(),
                3.8.into(),
                1580.into(),
            ],
            vec![
                "t3".into(),
                "F".into(),
                "Low".into(),
                3.6.into(),
                1570.into(),
            ],
            vec![
                "t4".into(),
                "M".into(),
                "High".into(),
                3.8.into(),
                1560.into(),
            ],
            vec![
                "t5".into(),
                "F".into(),
                "Medium".into(),
                3.6.into(),
                1550.into(),
            ],
            vec![
                "t6".into(),
                "F".into(),
                "Low".into(),
                3.7.into(),
                1550.into(),
            ],
            vec![
                "t7".into(),
                "M".into(),
                "Low".into(),
                3.7.into(),
                1540.into(),
            ],
            vec![
                "t8".into(),
                "F".into(),
                "High".into(),
                3.9.into(),
                1530.into(),
            ],
            vec![
                "t9".into(),
                "F".into(),
                "Medium".into(),
                3.8.into(),
                1530.into(),
            ],
            vec![
                "t10".into(),
                "M".into(),
                "High".into(),
                3.7.into(),
                1520.into(),
            ],
            vec![
                "t11".into(),
                "F".into(),
                "Low".into(),
                3.8.into(),
                1490.into(),
            ],
            vec![
                "t12".into(),
                "M".into(),
                "Medium".into(),
                4.0.into(),
                1480.into(),
            ],
            vec![
                "t13".into(),
                "M".into(),
                "High".into(),
                3.5.into(),
                1430.into(),
            ],
            vec![
                "t14".into(),
                "F".into(),
                "Low".into(),
                3.7.into(),
                1410.into(),
            ],
        ])
        .finish()
        // lint: allow-panic(static data transcribed from the paper; malformedness is a compile-time-adjacent bug)
        .expect("paper Students relation is well formed");
    let activities = Relation::build("Activities")
        .column("ID", DataType::Text)
        .column("Activity", DataType::Text)
        .rows(vec![
            vec!["t1".into(), "SO".into()],
            vec!["t2".into(), "SO".into()],
            vec!["t3".into(), "GD".into()],
            vec!["t4".into(), "RB".into()],
            vec!["t4".into(), "TU".into()],
            vec!["t5".into(), "MO".into()],
            vec!["t6".into(), "SO".into()],
            vec!["t7".into(), "RB".into()],
            vec!["t8".into(), "RB".into()],
            vec!["t8".into(), "TU".into()],
            vec!["t10".into(), "RB".into()],
            vec!["t11".into(), "RB".into()],
            vec!["t12".into(), "RB".into()],
            vec!["t14".into(), "RB".into()],
        ])
        .finish()
        // lint: allow-panic(static data transcribed from the paper; malformedness is a compile-time-adjacent bug)
        .expect("paper Activities relation is well formed");
    let mut db = Database::new();
    // lint: allow-panic(both names are distinct string literals in an empty database)
    db.insert(students).expect("fresh relation name");
    // lint: allow-panic(both names are distinct string literals in an empty database)
    db.insert(activities).expect("fresh relation name");
    db
}

/// The *scholarship query* of Example 1.1.
pub fn scholarship_query() -> SpjQuery {
    SpjQuery::builder("Students")
        .join("Activities")
        .select(["ID", "Gender", "Income"])
        .distinct()
        .numeric_predicate("GPA", CmpOp::Ge, 3.7)
        .categorical_predicate("Activity", ["RB"])
        .order_by("SAT", SortOrder::Descending)
        .build()
        // lint: allow-panic(fixed query literal from Example 1.1; it can only fail if the builder itself regresses)
        .expect("scholarship query is well formed")
}
