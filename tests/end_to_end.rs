//! End-to-end integration tests over the synthetic benchmark workloads:
//! engine vs. exhaustive baseline, optimization ablations, Erica baseline —
//! all driven through the session API.
//!
//! Instances are kept deliberately small so the suite stays fast in debug
//! builds; the full-size runs live in `qr-bench`.

use query_refinement::core::exact_deviation;
use query_refinement::core::prelude::*;
use query_refinement::datagen::{DatasetId, Workload};
use query_refinement::milp::SolverOptions;
use query_refinement::relation::prelude::*;
use std::time::Duration;

fn tiny(id: DatasetId) -> Workload {
    match id {
        DatasetId::Astronauts => Workload::astronauts(80, 1),
        DatasetId::LawStudents => Workload::law_students(150, 1),
        DatasetId::Meps => Workload::meps(150, 1),
        DatasetId::Tpch => Workload::tpch(40, 1),
    }
}

fn session_for(w: &Workload) -> RefinementSession {
    RefinementSession::new(w.db.clone(), w.query.clone()).expect("annotation builds")
}

/// Tight search limits: the Law-Students/MEPS instances are NP-hard MILPs the
/// from-scratch solver cannot prove optimal quickly, and these tests assert
/// properties of whatever incumbent the budget yields, not optimality.
fn bounded_solver_options() -> SolverOptions {
    SolverOptions { max_nodes: 20_000 }
}

/// The wall-clock half of the bounded budget.
const TIME_LIMIT: Duration = Duration::from_secs(10);

fn tiny_constraints(w: &Workload) -> ConstraintSet {
    ConstraintSet::new().with(w.constraint_with_bound(1, 5, Some(2)))
}

#[test]
fn tpch_engine_matches_naive_optimum() {
    let w = tiny(DatasetId::Tpch);
    let constraints = tiny_constraints(&w);
    let session = session_for(&w);
    let request = RefinementRequest::new()
        .with_constraints(constraints.clone())
        .with_epsilon(0.5)
        .with_distance(DistanceMeasure::Predicate);
    let milp = session.solve(&request).unwrap();
    // The exhaustive baseline goes through the same session and request,
    // only the backend differs.
    let naive = session
        .solve_with(&NaiveSolver::new(NaiveMode::Provenance), &request)
        .unwrap();
    let refined = milp.outcome.refined().expect("TPC-H refinement exists");
    let naive_refined = naive.outcome.refined().expect("naive refinement exists");
    assert!(
        naive_refined.proven_optimal,
        "TPC-H has a tiny refinement space; naive must finish"
    );
    assert!(
        (refined.distance - naive_refined.distance).abs() < 1e-6,
        "engine {} vs naive {}",
        refined.distance,
        naive_refined.distance
    );
}

#[test]
fn refinements_respect_the_deviation_budget_on_all_datasets() {
    for id in DatasetId::all() {
        let w = tiny(id);
        let constraints = tiny_constraints(&w);
        let result = session_for(&w)
            .solve(
                &RefinementRequest::new()
                    .with_constraints(constraints)
                    .with_epsilon(0.5)
                    .with_distance(DistanceMeasure::Predicate)
                    .with_solver_options(bounded_solver_options())
                    .with_time_limit(TIME_LIMIT),
            )
            .unwrap();
        if let Some(refined) = result.outcome.refined() {
            assert!(
                refined.deviation <= 0.5 + 1e-9,
                "{}: deviation {} exceeds ε",
                w.id.label(),
                refined.deviation
            );
            // Re-evaluating the refined query on the engine gives a ranked
            // output at least as long as k*.
            let output = evaluate(&w.db, &refined.query).unwrap();
            assert!(output.len() >= 5, "{}", w.id.label());
        }
    }
}

#[test]
fn numerically_troubled_cold_lp_does_not_abort_the_solve() {
    // On this instance a cold node LP refactorizes a singular basis early in
    // the search. The search must treat that LP as unreliable (box bound,
    // midpoint branching) and keep going, not fail the whole solve.
    let w = Workload::astronauts(80, 20240317);
    let session = session_for(&w);
    let request = RefinementRequest::new()
        .with_constraints(w.lower_bound_pair(5))
        .with_epsilon(0.0)
        .with_distance(DistanceMeasure::KendallTopK)
        .with_time_limit(Duration::from_secs(5));
    let result = session
        .solve(&request)
        .expect("one troubled LP must not abort the solve");
    if let Some(refined) = result.outcome.refined() {
        let (deviation, _) = exact_deviation(
            session.snapshot().annotated(),
            &request.constraints,
            &refined.assignment,
        );
        assert!(
            deviation <= request.epsilon + 1e-9,
            "deviation {deviation} exceeds ε = {}",
            request.epsilon
        );
    }
}

#[test]
fn optimizations_preserve_the_optimum_on_tpch() {
    // TPC-H keeps the model tiny (five lineage classes), so both the
    // optimized and the unoptimized build prove optimality quickly and must
    // agree on the optimum. (The heavier workloads are exercised by the
    // benchmark harness, where the unoptimized build is allowed to time out,
    // as in the paper.) One session serves both configurations.
    let w = tiny(DatasetId::Tpch);
    let session = session_for(&w);
    let base = RefinementRequest::new()
        .with_constraints(tiny_constraints(&w))
        .with_epsilon(0.5)
        .with_distance(DistanceMeasure::Predicate);
    let mut distances = Vec::new();
    for config in [OptimizationConfig::all(), OptimizationConfig::none()] {
        let result = session
            .solve(&base.clone().with_optimizations(config))
            .unwrap();
        let refined = result.outcome.refined().expect("refinement exists");
        assert!(refined.proven_optimal);
        distances.push(refined.distance);
    }
    assert!(
        (distances[0] - distances[1]).abs() < 1e-6,
        "optimized {} vs unoptimized {}",
        distances[0],
        distances[1]
    );
    assert_eq!(session.setup_stats().annotation_builds, 1);
}

#[test]
fn erica_baseline_respects_exact_output_size() {
    let w = tiny(DatasetId::LawStudents);
    // At least 3 women in an output of exactly 8 (k* = 8).
    let request = RefinementRequest::new()
        .with_constraint(CardinalityConstraint::at_least(
            Group::single("Sex", "F"),
            8,
            3,
        ))
        .with_solver_options(bounded_solver_options())
        .with_time_limit(TIME_LIMIT);
    let session = session_for(&w);
    let erica = session.solve_with(&EricaSolver, &request).unwrap();
    if let Some(refined) = erica.outcome.refined() {
        let output = query_refinement::provenance::whatif::evaluate_refinement(
            session.snapshot().annotated(),
            &refined.assignment,
        );
        assert_eq!(output.len(), 8);
    }
}

#[test]
fn stats_report_setup_and_solver_split() {
    let w = tiny(DatasetId::Tpch);
    let session = session_for(&w);
    let result = session
        .solve(
            &RefinementRequest::new()
                .with_constraints(tiny_constraints(&w))
                .with_epsilon(0.5),
        )
        .unwrap();
    let stats = &result.stats;
    assert!(stats.total_time >= stats.setup_time());
    assert!(stats.num_variables > 0 && stats.num_constraints > 0);
    let lineage_classes = session.setup_stats().lineage_classes;
    assert!(
        (1..=5).contains(&lineage_classes),
        "Q5 has at most 5 classes"
    );
    // The split: session solves carry no annotation time of their own ...
    assert!(stats.annotation_time.is_zero());
    assert_eq!(stats.setup_time(), stats.model_build_time);
    // ... the session does, once.
    assert_eq!(session.setup_stats().annotation_builds, 1);
}
