//! Cross-request reuse, end to end.
//!
//! Three contracts, mirroring the subsystem's promises:
//!
//! * **Work reduction**: a fig5-style ε-sweep on a cache-enabled session
//!   does measurably fewer cold LP solves and fewer total simplex pivots
//!   than the identical sweep cache-off — asserted through
//!   [`RefinementStats`], not timing.
//! * **Answer identity**: caching is an optimization, never a semantic: over
//!   random ε/constraint sequences, a cached session's answers are
//!   result-identical to an uncached session's (distance / deviation /
//!   proven flags — assignments may tie-flip among equal optima).
//! * **Invalidation**: [`RefinementSession::apply`] bumps the snapshot
//!   version, after which no stale cache entry can be served — the mutated
//!   session answers exactly like a fresh, cache-less session on the
//!   mutated database.

use proptest::prelude::*;
use query_refinement::core::paper_example::{
    paper_database, scholarship_constraints, scholarship_query,
};
use query_refinement::core::prelude::*;

const TOL: f64 = qr_milp::tol::ASSERT_TOL;

fn session() -> RefinementSession {
    RefinementSession::new(paper_database(), scholarship_query()).expect("session builds")
}

fn base_request() -> RefinementRequest {
    RefinementRequest::new().with_constraints(scholarship_constraints())
}

/// Result identity as the solver defines it: same outcome kind, same
/// distance/deviation/optimality claims. Variable assignments may differ
/// among equally-optimal refinements (degenerate ties), so they are not part
/// of the contract.
fn assert_result_identical(a: &RefinementResult, b: &RefinementResult, context: &str) {
    match (&a.outcome, &b.outcome) {
        (RefinementOutcome::Refined(ra), RefinementOutcome::Refined(rb)) => {
            assert!(
                (ra.distance - rb.distance).abs() <= TOL,
                "{context}: distance {} vs {}",
                ra.distance,
                rb.distance
            );
            assert!(
                ra.deviation <= rb.deviation + TOL && rb.deviation <= ra.deviation + TOL,
                "{context}: deviation {} vs {}",
                ra.deviation,
                rb.deviation
            );
            assert_eq!(
                ra.proven_optimal, rb.proven_optimal,
                "{context}: optimality claims differ"
            );
        }
        (
            RefinementOutcome::NoRefinement {
                proven_infeasible: pa,
            },
            RefinementOutcome::NoRefinement {
                proven_infeasible: pb,
            },
        ) => assert_eq!(pa, pb, "{context}: infeasibility claims differ"),
        (oa, ob) => panic!("{context}: outcome kinds differ: {oa:?} vs {ob:?}"),
    }
}

/// The tentpole's headline contract: chaining warm starts across the
/// requests of an ε-sweep removes cold LP solves and pivots, visibly in the
/// stats, without changing a single answer.
#[test]
fn cached_epsilon_sweep_does_measurably_less_cold_work() {
    let epsilons = [0.5, 0.4, 0.3, 0.2, 0.1, 0.0];
    let cold_session = session();
    let warm_session = session().with_solution_cache(16);
    let base = base_request();

    let cold = cold_session
        .sweep_epsilon(&base, &epsilons)
        .expect("cache-off sweep");
    let warm = warm_session
        .sweep_epsilon(&base, &epsilons)
        .expect("cache-on sweep");

    // Identical answers, point for point.
    for ((eps, c), w) in epsilons.iter().zip(&cold).zip(&warm) {
        assert_result_identical(c, w, &format!("ε={eps}"));
        // ε only moves the deviation budget's right-hand side; the layout
        // must match for bases to be transplantable at all.
        assert_eq!(c.stats.num_variables, w.stats.num_variables);
    }

    let cold_cold_lps: usize = cold.iter().map(|r| r.stats.cold_lp_solves).sum();
    let warm_cold_lps: usize = warm.iter().map(|r| r.stats.cold_lp_solves).sum();
    let cold_pivots: usize = cold.iter().map(|r| r.stats.simplex_iterations).sum();
    let warm_pivots: usize = warm.iter().map(|r| r.stats.simplex_iterations).sum();
    let warm_entries: usize = warm.iter().map(|r| r.stats.cache_warm_starts).sum();

    assert!(
        warm_entries >= 1,
        "at least one sweep point must warm-start from a cached basis"
    );
    assert!(
        warm_cold_lps < cold_cold_lps,
        "cache-on sweep must do fewer cold LP solves ({warm_cold_lps} vs {cold_cold_lps})"
    );
    assert!(
        warm_pivots < cold_pivots,
        "cache-on sweep must do fewer total pivots ({warm_pivots} vs {cold_pivots})"
    );
    // The cache-off session must never report cache traffic.
    assert!(cold
        .iter()
        .all(|r| r.stats.cache_hits == 0 && r.stats.cache_misses == 0));
}

/// An exact repeat of a proven solve is served from the memo: no model
/// build, no solver, `cache_hits = 1`, same answer.
#[test]
fn exact_repeat_is_served_from_the_memo() {
    let cached = session().with_solution_cache(8);
    let request = base_request().with_epsilon(0.0);
    let first = cached.solve(&request).expect("first solve");
    assert_eq!(first.stats.cache_hits, 0);
    assert_eq!(first.stats.cache_misses, 1);

    let second = cached.solve(&request).expect("repeat solve");
    assert_result_identical(&first, &second, "memo repeat");
    assert_eq!(second.stats.cache_hits, 1);
    assert_eq!(second.stats.cache_misses, 0);
    assert_eq!(second.stats.nodes, 0, "no search ran");
    assert_eq!(second.stats.lp_solves, 0, "no LP ran");
    assert!(
        second.stats.model_build_time.is_zero(),
        "no model was built"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Answer identity under reuse, fuzzed: for a random constraint
    /// tightness and a random ε sequence (duplicates and near-duplicates
    /// included — exactly the traffic that exercises memo hits and
    /// nearest-ε warm starts), every cached answer equals the uncached one.
    #[test]
    fn cached_solves_are_result_identical_to_cold_solves(
        min_women in 1usize..4,
        epsilons in proptest::collection::vec(0.0f64..1.0, 1..7),
    ) {
        let constraints = ConstraintSet::from_constraints(vec![
            CardinalityConstraint::at_least(Group::single("Gender", "F"), 6, min_women),
        ]);
        let cold_session = session();
        let warm_session = session().with_solution_cache(4);
        for (i, eps) in epsilons.iter().enumerate() {
            // Round to a small grid so repeats (exact memo hits) actually
            // occur alongside fresh values.
            let eps = (eps * 8.0).round() / 8.0;
            let request = RefinementRequest::new()
                .with_constraints(constraints.clone())
                .with_epsilon(eps);
            let cold = cold_session.solve(&request).expect("cold solve");
            let warm = warm_session.solve(&request).expect("cached solve");
            assert_result_identical(&cold, &warm, &format!("step {i}, ε={eps}"));
        }
    }

    /// Invalidation, fuzzed across mutate/solve interleavings: after an
    /// `apply`, the cached session answers exactly like a fresh cache-less
    /// session on the mutated database — a stale entry is never served
    /// (version mismatch), and the memo counters restart from zero.
    #[test]
    fn apply_never_serves_a_stale_entry(
        epsilons in proptest::collection::vec(0.0f64..1.0, 1..4),
        delete_id in 0u64..6,
    ) {
        let cached = session().with_solution_cache(8);
        let grid: Vec<f64> = epsilons.iter().map(|e| (e * 4.0).round() / 4.0).collect();
        // Warm the cache (memos + bases for every point) at version 1.
        cached
            .sweep_epsilon(&base_request(), &grid)
            .expect("warm-up sweep");

        let mutation = Mutation::delete("Activities", vec![delete_id]);
        cached.apply(vec![mutation.clone()]).expect("mutation applies");

        let fresh = session();
        fresh.apply(vec![mutation]).expect("mutation applies");

        let mut served_at_new_version: Vec<f64> = Vec::new();
        for eps in &grid {
            let request = base_request().with_epsilon(*eps);
            let after = cached.solve(&request).expect("post-apply solve");
            let expected = fresh.solve(&request).expect("reference solve");
            assert_result_identical(&expected, &after, &format!("post-apply ε={eps}"));
            if served_at_new_version.contains(eps) {
                // A repeat *within* the new version may hit its own memo…
                prop_assert_eq!(after.stats.cache_hits, 1);
            } else {
                // …but a memo recorded before the mutation must never be
                // served after it.
                prop_assert_eq!(after.stats.cache_hits, 0);
                served_at_new_version.push(*eps);
            }
        }
    }
}

/// Stale entries are also *reclaimed*, not just bypassed: serving the new
/// version lazily evicts everything recorded at the old one.
#[test]
fn version_mismatch_evicts_stale_entries() {
    let cached = session().with_solution_cache(8);
    cached
        .sweep_epsilon(&base_request(), &[0.0, 0.25, 0.5])
        .expect("warm-up sweep");
    let occupied = cached.solution_cache().expect("cache enabled").len();
    assert!(occupied >= 1, "the sweep must have populated the cache");

    cached
        .apply(vec![Mutation::delete("Activities", vec![0])])
        .expect("mutation applies");
    // First post-mutation solve serves version 2: every version-1 slot is
    // unreachable and gets pruned; only the new solve's entry remains.
    cached
        .solve(&base_request().with_epsilon(0.25))
        .expect("post-apply solve");
    assert_eq!(
        cached.solution_cache().expect("cache enabled").len(),
        1,
        "all pre-mutation entries must be evicted on first use of the new version"
    );
}
