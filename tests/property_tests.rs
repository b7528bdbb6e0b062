//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use query_refinement::core::paper_example::{
    paper_database, scholarship_constraints, scholarship_query,
};
use query_refinement::core::{
    build_model, jaccard_topk_distance, kendall_topk_distance, BuiltModel, CardinalityConstraint,
    ConstraintSet, DistanceMeasure, Group, NaiveMode, OptimizationConfig, RefinementRequest,
    RefinementSession,
};
use query_refinement::datagen::Workload;
use query_refinement::milp::{LinExpr, Model, Sense, SolveStatus, Solver, VarId};
use query_refinement::provenance::{
    whatif::evaluate_refinement, AnnotatedRelation, PredicateAssignment,
};
use query_refinement::relation::csv::{read_csv_str, write_csv_string};
use query_refinement::relation::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The provenance what-if evaluation agrees with the relational engine on
    /// every refinement of the scholarship query, using a session's shared
    /// annotations for the what-if side.
    #[test]
    fn whatif_matches_engine_for_any_refinement(
        activities in proptest::collection::btree_set(
            prop_oneof!["RB", "SO", "GD", "MO", "TU"].prop_map(String::from), 0..5),
        gpa_tenths in 34u32..41,
    ) {
        let db = paper_database();
        let query = scholarship_query();
        let session = RefinementSession::new(db.clone(), query.clone()).unwrap();
        let snapshot = session.snapshot();
        let annotated = snapshot.annotated();
        let mut assignment = PredicateAssignment::from_query(&query);
        assignment.categorical.insert("Activity".to_string(), activities.clone());
        let gpa = gpa_tenths as f64 / 10.0;
        assignment.numeric.insert(("GPA".to_string(), CmpOp::Ge), gpa);

        let refined_query = assignment.apply_to(&query);
        let engine_output = evaluate(&db, &refined_query).unwrap();
        let whatif_output = evaluate_refinement(annotated, &assignment);
        prop_assert_eq!(engine_output.len(), whatif_output.len());

        let id_idx = annotated.schema().index_of("ID").unwrap();
        let whatif_ids: Vec<String> = whatif_output
            .selected
            .iter()
            .map(|&i| annotated.tuples()[i].row[id_idx].to_string())
            .collect();
        let engine_ids: Vec<String> = engine_output
            .rows()
            .iter()
            .map(|r| r[engine_output.schema().index_of("ID").unwrap()].to_string())
            .collect();
        prop_assert_eq!(whatif_ids, engine_ids);
    }

    /// The request builder stores exactly what it is given, and label
    /// round-trips hold for every distance measure and naive mode spelled in
    /// any ASCII case.
    #[test]
    fn request_builder_and_label_round_trips(
        epsilon in 0.0f64..2.0,
        measure_idx in 0usize..3,
        mode in any::<bool>(),
        uppercase in any::<bool>(),
    ) {
        let measure = DistanceMeasure::all()[measure_idx];
        let request = RefinementRequest::new()
            .with_epsilon(epsilon)
            .with_distance(measure)
            .with_constraint(CardinalityConstraint::at_least(
                Group::single("Gender", "F"), 6, 3));
        prop_assert_eq!(request.epsilon, epsilon);
        prop_assert_eq!(request.distance, measure);
        prop_assert_eq!(request.constraints.len(), 1);

        let label = if uppercase {
            measure.to_string().to_ascii_uppercase()
        } else {
            measure.to_string().to_ascii_lowercase()
        };
        prop_assert_eq!(label.parse::<DistanceMeasure>().unwrap(), measure);

        let naive_mode = if mode { NaiveMode::Provenance } else { NaiveMode::Database };
        let label = if uppercase {
            naive_mode.to_string().to_ascii_uppercase()
        } else {
            naive_mode.to_string().to_ascii_lowercase()
        };
        prop_assert_eq!(label.parse::<NaiveMode>().unwrap(), naive_mode);
    }

    /// Deviation (Definition 2.6) is always in [0, 1] for single-constraint
    /// sets and is zero exactly when the constraint is satisfied.
    #[test]
    fn deviation_is_normalised(k in 1usize..20, n in 1usize..20, observed in 0usize..25, lower in any::<bool>()) {
        prop_assume!(n <= k);
        let group = Group::single("Gender", "F");
        let constraint = if lower {
            CardinalityConstraint::at_least(group, k, n)
        } else {
            CardinalityConstraint::at_most(group, k, n)
        };
        let set = ConstraintSet::new().with(constraint.clone());
        let dev = set.deviation(&[observed]);
        prop_assert!((0.0..=1.0).contains(&dev));
        prop_assert_eq!(dev == 0.0, constraint.is_satisfied(observed));
    }

    /// The top-k Jaccard distance is a symmetric, bounded dissimilarity; the
    /// Kendall distance is non-negative and zero on identical lists.
    #[test]
    fn outcome_distances_are_well_behaved(
        a in proptest::collection::vec(0u8..12, 1..8),
        b in proptest::collection::vec(0u8..12, 1..8),
    ) {
        // De-duplicate while preserving order (top-k lists have no repeats).
        let dedup = |xs: &[u8]| {
            let mut seen = BTreeSet::new();
            xs.iter().copied().filter(|x| seen.insert(*x)).collect::<Vec<_>>()
        };
        let a = dedup(&a);
        let b = dedup(&b);
        let j_ab = jaccard_topk_distance(&a, &b);
        let j_ba = jaccard_topk_distance(&b, &a);
        prop_assert!((j_ab - j_ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&j_ab));
        prop_assert_eq!(jaccard_topk_distance(&a, &a), 0.0);
        prop_assert_eq!(kendall_topk_distance(&a, &a), 0.0);
        prop_assert!(kendall_topk_distance(&a, &b) >= 0.0);
    }

    /// CSV round trip: writing a relation and reading it back preserves rows.
    #[test]
    fn csv_round_trip(rows in proptest::collection::vec((0i64..1000, -100.0f64..100.0, "[a-z ,]{0,12}"), 1..30)) {
        let mut rel = Relation::build("t")
            .column("id", DataType::Int)
            .column("score", DataType::Float)
            .column("label", DataType::Text)
            .finish()
            .unwrap();
        for (id, score, label) in &rows {
            // Round the float to avoid display-precision mismatches.
            let score = (score * 100.0).round() / 100.0;
            rel.push_row(vec![Value::int(*id), Value::float(score), Value::text(label.trim())]).unwrap();
        }
        let text = write_csv_string(&rel);
        let back = read_csv_str(
            "t",
            &[("id", DataType::Int), ("score", DataType::Float), ("label", DataType::Text)],
            &text,
        )
        .unwrap();
        prop_assert_eq!(back.len(), rel.len());
        for (orig, parsed) in rel.rows().iter().zip(back.rows()) {
            prop_assert_eq!(&orig[0], &parsed[0]);
            prop_assert_eq!(&orig[1], &parsed[1]);
            // Text may lose surrounding whitespace (values are trimmed on read).
            let orig_label = orig[2].to_string();
            let parsed_label = parsed[2].to_string();
            prop_assert_eq!(orig_label.trim(), parsed_label.trim());
        }
    }

    /// MILP solver sanity on a family of two-variable problems with a known
    /// optimum: maximise x + y over x <= a, y <= b, x + y <= c.
    #[test]
    fn milp_two_variable_box_problems(a in 0i64..12, b in 0i64..12, c in 0i64..20) {
        let mut model = Model::new("box");
        let x = model.add_integer("x", 0.0, a as f64);
        let y = model.add_integer("y", 0.0, b as f64);
        model.add_constraint("sum", LinExpr::from(x) + LinExpr::from(y), Sense::Le, c as f64);
        model.set_objective(LinExpr::term(x, -1.0) + LinExpr::term(y, -1.0));
        let solution = Solver::default().solve(&model).unwrap();
        prop_assert_eq!(solution.status, SolveStatus::Optimal);
        let expected = (a + b).min(c) as f64;
        prop_assert!((solution.objective + expected).abs() < 1e-6,
            "expected {} got {}", expected, -solution.objective);
    }

    /// Every rank row (expression (5)) and every Case 3 row of the Kendall
    /// objective equals its definition, computed term by term from the
    /// model's variable handles, on generated Astronauts and TPC-H
    /// instances and on the paper example (a DISTINCT query), under any
    /// optimization flags and every distance measure.
    #[test]
    fn rank_and_case3_rows_equal_their_definitions(
        dataset in 0usize..3,
        size in 0usize..1000,
        seed in 0u64..1000,
        k in 3usize..9,
        flags in (any::<bool>(), any::<bool>(), any::<bool>()),
        measure_idx in 0usize..3,
    ) {
        let (db, query, constraints) = match dataset {
            0 => {
                let w = Workload::astronauts(20 + size % 61, seed);
                let c = w.default_constraints(k);
                (w.db, w.query, c)
            }
            1 => {
                let w = Workload::tpch(10 + size % 21, seed);
                let c = w.default_constraints(k);
                (w.db, w.query, c)
            }
            _ => (paper_database(), scholarship_query(), scholarship_constraints()),
        };
        let config = OptimizationConfig {
            relevancy_pruning: flags.0,
            lineage_merging: flags.1,
            single_bound_relaxation: flags.2,
        };
        let distance = DistanceMeasure::all()[measure_idx];
        let annotated = AnnotatedRelation::build(&db, &query).unwrap();
        // Instances too small for the top-k* are rejected as invalid input.
        let built = build_model(&annotated, &constraints, 0.5, distance, &config);
        prop_assume!(built.is_ok());
        let built = built.unwrap();
        check_rank_rows(&built)?;
        if distance == DistanceMeasure::KendallTopK {
            check_case3_rows(&built)?;
        }
    }
}

/// The terms of the model row named `name`, with its right-hand side.
fn row(built: &BuiltModel, name: &str) -> Option<(BTreeMap<VarId, f64>, f64)> {
    built
        .model
        .constraints()
        .iter()
        .find(|c| c.name == name)
        .map(|c| (c.expr.terms().collect(), c.rhs))
}

/// Expression (5) for each rank variable s_t, by definition:
/// 1 + N(1 − r_t) + Σ_{t' ∈ scope, t' < t} r_{t'} − s_t (sense) 0, so each
/// selection variable carries the number of better-ranked scope tuples that
/// use it, r_t gets −N on top, s_t gets −1, and the rhs is −(1 + N).
fn check_rank_rows(built: &BuiltModel) -> Result<(), proptest::test_runner::TestCaseError> {
    let vars = &built.vars;
    let n = vars.scope.len() as f64;
    let rank_rows = built
        .model
        .constraints()
        .iter()
        .filter(|c| c.name.starts_with("rank["))
        .count();
    prop_assert_eq!(rank_rows, vars.rank.len());
    for (&t, &s) in &vars.rank {
        let mut expected: BTreeMap<VarId, f64> = BTreeMap::new();
        for &t2 in &vars.scope {
            if t2 < t {
                *expected.entry(vars.selection[&t2]).or_insert(0.0) += 1.0;
            }
        }
        *expected.entry(vars.selection[&t]).or_insert(0.0) += -n;
        *expected.entry(s).or_insert(0.0) += -1.0;
        let (terms, rhs) = row(built, &format!("rank[{t}]")).expect("every s_t has a rank row");
        prop_assert!(terms == expected, "rank[{t}]: {terms:?} != {expected:?}");
        prop_assert!(rhs == -(1.0 + n), "rank[{t}]: rhs {rhs}");
    }
    Ok(())
}

/// The Case 3 rows of each original top-k* tuple t kept in scope:
/// case3_ub[t] = case3 − (N + 1) l_t − Σ newcomers ≤ 0 and
/// case3_lb[t] = case3 + (N + 1) l_t − Σ newcomers ≥ 0, where the newcomers
/// are the l_{t',k*} of the scope tuples outside the original top-k*.
fn check_case3_rows(built: &BuiltModel) -> Result<(), proptest::test_runner::TestCaseError> {
    let vars = &built.vars;
    let k_star = built.k_star;
    let coeff = vars.scope.len() as f64 + 1.0;
    let original: BTreeSet<usize> = vars.original_top_k.iter().copied().collect();
    let newcomers: Vec<VarId> = vars
        .scope
        .iter()
        .filter(|t| !original.contains(t))
        .map(|&t| vars.topk[&(t, k_star)])
        .collect();
    for &t in &vars.original_top_k {
        let Some(&l_t) = vars.topk.get(&(t, k_star)) else {
            prop_assert!(row(built, &format!("case3_ub[{t}]")).is_none());
            continue;
        };
        for (name, l_t_coeff) in [("case3_ub", -coeff), ("case3_lb", coeff)] {
            let (terms, rhs) = row(built, &format!("{name}[{t}]")).expect("a Case 3 row");
            let case3: Vec<VarId> = terms
                .keys()
                .copied()
                .filter(|&v| built.model.variable(v).name == format!("case3[{t}]"))
                .collect();
            prop_assert!(case3.len() == 1, "{name}[{t}] has one case3 term");
            let mut expected: BTreeMap<VarId, f64> = BTreeMap::new();
            expected.insert(case3[0], 1.0);
            expected.insert(l_t, l_t_coeff);
            for &l in &newcomers {
                expected.insert(l, -1.0);
            }
            prop_assert_eq!(newcomers.len() + 2, expected.len());
            prop_assert!(terms == expected, "{name}[{t}]: {terms:?} != {expected:?}");
            prop_assert!(rhs == 0.0, "{name}[{t}]: rhs {rhs}");
        }
    }
    Ok(())
}
