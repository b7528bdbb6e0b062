//! Session-reuse contract tests: one `RefinementSession` must answer many
//! requests with exactly the results of one-shot solves, paying provenance
//! annotation exactly once (verified through the split `RefinementStats`).

use query_refinement::core::paper_example::{
    paper_database, scholarship_constraints, scholarship_query,
};
use query_refinement::core::prelude::*;
use std::time::Duration;

fn paper_session() -> RefinementSession {
    RefinementSession::new(paper_database(), scholarship_query()).expect("annotation builds")
}

fn base_request() -> RefinementRequest {
    RefinementRequest::new()
        .with_constraints(scholarship_constraints())
        .with_epsilon(0.0)
}

/// Solving the same request twice through one session yields identical
/// outcomes and distances, across all three distance measures.
#[test]
fn repeated_solves_are_identical() {
    let session = paper_session();
    for distance in DistanceMeasure::all() {
        let request = base_request().with_distance(distance);
        let first = session.solve(&request).unwrap();
        let second = session.solve(&request).unwrap();
        let a = first.outcome.refined().expect("refinement exists");
        let b = second.outcome.refined().expect("refinement exists");
        assert_eq!(a.assignment, b.assignment, "{distance:?}");
        assert_eq!(a.distance, b.distance, "{distance:?}");
        assert_eq!(a.deviation, b.deviation, "{distance:?}");
        assert_eq!(a.proven_optimal, b.proven_optimal, "{distance:?}");
    }
    assert_eq!(session.setup_stats().annotation_builds, 1);
}

/// A solve through a long-lived session and a one-shot solve through a
/// fresh, single-use session agree on outcome, distance and deviation for
/// all three distance measures.
#[test]
fn session_matches_one_shot_engine() {
    let session = paper_session();
    for distance in DistanceMeasure::all() {
        let request = base_request().with_distance(distance);
        let session_result = session.solve(&request).unwrap();
        let one_shot_result = paper_session().solve(&request).unwrap();
        let s = session_result.outcome.refined().expect("session refines");
        let e = one_shot_result.outcome.refined().expect("one-shot refines");
        assert_eq!(s.assignment, e.assignment, "{distance:?}");
        assert!(
            (s.distance - e.distance).abs() < 1e-9,
            "{distance:?}: session {} vs one-shot {}",
            s.distance,
            e.distance
        );
        assert_eq!(s.deviation, e.deviation, "{distance:?}");
    }
}

/// The acceptance criterion of the session redesign: sweeping N ε values (as
/// in the fig5 bench) through one session performs provenance annotation
/// exactly once, observable through the split stats — every per-request stat
/// reports zero annotation time, while a one-shot solve that charges its
/// session's annotation to the request reports a non-zero one.
#[test]
fn epsilon_sweep_annotates_exactly_once() {
    let session = paper_session();
    let epsilons = [0.0, 0.25, 0.5, 0.75, 1.0];
    let results = session.sweep_epsilon(&base_request(), &epsilons).unwrap();

    assert_eq!(results.len(), epsilons.len());
    assert_eq!(
        session.setup_stats().annotation_builds,
        1,
        "the session annotates once, up front"
    );
    assert!(session.setup_stats().annotation_time > Duration::ZERO);
    for (eps, result) in epsilons.iter().zip(&results) {
        assert_eq!(
            result.stats.annotation_time,
            Duration::ZERO,
            "eps={eps}: session solves must not re-annotate"
        );
        assert_eq!(
            result.stats.setup_time(),
            result.stats.model_build_time,
            "eps={eps}: per-request setup is the model build alone"
        );
        assert!(result.outcome.is_refined(), "eps={eps}");
    }

    // Contrast: a one-shot solve (a single-use session, as the benchmark
    // rows run it) pays annotation on the solve.
    let single_use = paper_session();
    let mut one_shot = single_use.solve(&base_request()).unwrap();
    one_shot
        .stats
        .charge_annotation(single_use.setup_stats().annotation_time);
    assert!(one_shot.stats.annotation_time > Duration::ZERO);
    assert_eq!(
        one_shot.stats.setup_time(),
        one_shot.stats.annotation_time + one_shot.stats.model_build_time
    );
}

/// `into_refined` and `is_refined` conveniences behave like `refined`.
#[test]
fn outcome_conveniences_round_trip() {
    let session = paper_session();
    let result = session.solve(&base_request()).unwrap();
    assert!(result.outcome.is_refined());
    let by_ref = result.outcome.refined().map(|r| r.distance);
    let by_val = result.outcome.into_refined().map(|r| r.distance);
    assert_eq!(by_ref, by_val);
}

/// Warm-started node LPs are the common case on a fig3-style workload — the
/// acceptance criterion of the warm-start redesign, pinned through the
/// `RefinementStats` fields.
#[test]
fn warm_starts_cut_fig3_workload_pivots() {
    use query_refinement::datagen::Workload;
    use query_refinement::milp::SolverOptions;

    let w = Workload::astronauts(100, 20240317);
    let constraints = ConstraintSet::new().with(w.constraint_with_bound(1, 5, Some(2)));
    let session = RefinementSession::new(w.db.clone(), w.query.clone()).unwrap();
    let base = RefinementRequest::new()
        .with_constraints(constraints)
        .with_epsilon(0.5)
        .with_solver_options(SolverOptions { max_nodes: 20_000 })
        .with_time_limit(Duration::from_secs(60));

    let warm = session.solve(&base).unwrap();
    eprintln!(
        "warm: pivots {} lps {} (warm {} cold {}) etas {} in {:?}",
        warm.stats.simplex_iterations,
        warm.stats.lp_solves,
        warm.stats.warm_lp_solves,
        warm.stats.cold_lp_solves,
        warm.stats.eta_updates,
        warm.stats.solver_time,
    );
    assert!(warm.outcome.is_refined());
    assert!(
        warm.stats.warm_lp_solves + warm.stats.cold_lp_solves == warm.stats.lp_solves,
        "warm/cold split must partition the LP count"
    );
    let warm_share = warm.stats.warm_lp_solves as f64 / warm.stats.lp_solves.max(1) as f64;
    assert!(warm_share >= 0.8, "warm share {warm_share:.2}");
}
