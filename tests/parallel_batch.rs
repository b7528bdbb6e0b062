//! Thread-count determinism: four threads sharing one session, each calling
//! `solve_on` against one pinned snapshot, return byte-identical
//! `RefinementOutcome`s, in the same order, as the session's sequential
//! `solve_batch` and `sweep_epsilon` — property-tested over random request
//! batches on the fig3 astronaut workload — and a session shared via `Arc`
//! across manually spawned threads behaves the same way.

use proptest::prelude::*;
use query_refinement::core::prelude::*;
use query_refinement::datagen::Workload;
use query_refinement::milp::SolverOptions;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One fig3 astronaut session shared by every proptest case (annotation is
/// paid once for the whole suite; the session is `Sync`, so cases and their
/// threads may all read it).
fn fig3_session() -> &'static RefinementSession {
    static SESSION: OnceLock<RefinementSession> = OnceLock::new();
    SESSION.get_or_init(|| {
        let w = Workload::astronauts(100, 20240317);
        RefinementSession::new(w.db.clone(), w.query.clone()).unwrap()
    })
}

fn fig3_request(epsilon: f64, bound: usize, distance: DistanceMeasure) -> RefinementRequest {
    let w = Workload::astronauts(100, 20240317);
    RefinementRequest::new()
        .with_constraints(ConstraintSet::new().with(w.constraint_with_bound(1, 5, Some(bound))))
        .with_epsilon(epsilon)
        .with_distance(distance)
        .with_solver_options(SolverOptions { max_nodes: 20_000 })
        .with_time_limit(Duration::from_secs(60))
}

/// Answer `requests` on four scoped threads that share `session` and one
/// pinned snapshot, each taking the next contiguous share of the batch, and
/// return the results in request order.
fn solve_on_threads(
    session: &RefinementSession,
    requests: &[RefinementRequest],
) -> Vec<RefinementResult> {
    let snapshot = session.snapshot();
    let share = requests.len().div_ceil(4);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (snapshot, mine) = (&snapshot, requests.iter().skip(t * share).take(share));
                scope.spawn(move || {
                    mine.map(|r| session.solve_on(snapshot, r).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("solver thread panicked"))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any batch of requests, four threads return outcomes byte-identical
    /// (same `Debug` rendering, which covers every field bit-for-bit) and in
    /// the same order as the sequential `solve_batch`.
    #[test]
    fn four_worker_batch_is_byte_identical_to_sequential(
        specs in proptest::collection::vec((0usize..4, 1usize..3), 2..5),
    ) {
        const EPSILONS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
        let session = fig3_session();
        let requests: Vec<RefinementRequest> = specs
            .iter()
            .map(|&(eps_idx, bound)| {
                fig3_request(EPSILONS[eps_idx], bound, DistanceMeasure::Predicate)
            })
            .collect();
        let sequential = session.solve_batch(&requests).unwrap();
        let threaded = solve_on_threads(session, &requests);
        prop_assert_eq!(sequential.len(), threaded.len());
        for (s, t) in sequential.iter().zip(&threaded) {
            prop_assert_eq!(format!("{:?}", s.outcome), format!("{:?}", t.outcome));
        }
        prop_assert_eq!(session.setup_stats().annotation_builds, 1);
    }
}

/// The `Arc<RefinementSession>` worker-pool pattern from the README: spawn
/// plain `std::thread` workers over a shared session and collect the same
/// answers the session gives sequentially.
#[test]
fn arc_shared_session_across_threads_matches_sequential() {
    let session = Arc::new({
        let w = Workload::astronauts(100, 20240317);
        RefinementSession::new(w.db.clone(), w.query.clone()).unwrap()
    });
    let requests: Vec<RefinementRequest> = [0.0, 0.5, 1.0]
        .iter()
        .map(|&eps| fig3_request(eps, 2, DistanceMeasure::Predicate))
        .collect();

    let handles: Vec<_> = requests
        .iter()
        .map(|request| {
            let session = Arc::clone(&session);
            let request = request.clone();
            std::thread::spawn(move || session.solve(&request).unwrap())
        })
        .collect();
    let threaded: Vec<RefinementResult> = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread panicked"))
        .collect();

    let sequential = session.solve_batch(&requests).unwrap();
    for (s, t) in sequential.iter().zip(&threaded) {
        assert_eq!(format!("{:?}", s.outcome), format!("{:?}", t.outcome));
    }
    assert_eq!(session.setup_stats().annotation_builds, 1);
}

/// An ε-sweep on four threads mirrors the sequential `sweep_epsilon` exactly
/// (fig5's access pattern).
#[test]
fn parallel_epsilon_sweep_matches_sequential() {
    let session = fig3_session();
    let base = fig3_request(0.0, 2, DistanceMeasure::Predicate);
    let epsilons = [0.0, 0.25, 0.5, 1.0];
    let sequential = session.sweep_epsilon(&base, &epsilons).unwrap();
    let requests: Vec<RefinementRequest> = epsilons
        .iter()
        .map(|&eps| base.clone().with_epsilon(eps))
        .collect();
    let threaded = solve_on_threads(session, &requests);
    assert_eq!(sequential.len(), threaded.len());
    for (s, t) in sequential.iter().zip(&threaded) {
        assert_eq!(format!("{:?}", s.outcome), format!("{:?}", t.outcome));
    }
}
