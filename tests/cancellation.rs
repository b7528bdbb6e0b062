//! Cancellation-latency contract: cancelling a fig3-scale solve mid-flight
//! returns promptly with `RefinementOutcome::Interrupted`, a usable
//! incumbent, and a complete `RefinementStats` snapshot.

use query_refinement::core::prelude::*;
use query_refinement::datagen::Workload;
use query_refinement::milp::SolverOptions;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The fig3 astronaut workload configuration used by the warm-start
/// acceptance test — a real MILP search over thousands of node LPs.
fn fig3_session_and_request() -> (RefinementSession, RefinementRequest) {
    let w = Workload::astronauts(100, 20240317);
    let constraints = ConstraintSet::new().with(w.constraint_with_bound(1, 5, Some(2)));
    let session = RefinementSession::new(w.db.clone(), w.query.clone()).unwrap();
    let request = RefinementRequest::new()
        .with_constraints(constraints)
        .with_epsilon(0.5)
        .with_solver_options(SolverOptions {
            max_nodes: 1_000_000,
        })
        .with_time_limit(Duration::from_secs(120));
    (session, request)
}

/// Observer that cancels the solve as soon as the search holds an incumbent
/// *and* has processed a handful of nodes past it — deterministic mid-flight
/// cancellation that does not depend on machine speed — and records when the
/// cancel was issued so the test can measure the return latency.
struct CancelMidFlight {
    token: CancelToken,
    cancelled_at: Mutex<Option<Instant>>,
    armed: AtomicBool,
}

impl SolveObserver for CancelMidFlight {
    fn incumbent_found(&self, _progress: &SolveProgress) {
        self.armed.store(true, Ordering::Release);
    }

    fn node_processed(&self, progress: &SolveProgress) {
        if self.armed.load(Ordering::Acquire) && progress.nodes >= 8 {
            let mut at = self.cancelled_at.lock().unwrap();
            if at.is_none() {
                *at = Some(Instant::now());
                self.token.cancel();
            }
        }
    }
}

#[test]
fn cancelling_a_fig3_solve_returns_promptly_with_incumbent_and_stats() {
    let (session, base) = fig3_session_and_request();
    let token = CancelToken::new();
    let observer = Arc::new(CancelMidFlight {
        token: token.clone(),
        cancelled_at: Mutex::new(None),
        armed: AtomicBool::new(false),
    });
    let request = base
        .clone()
        .with_cancel_token(token)
        .with_observer(observer.clone());

    let result = session.solve(&request).unwrap();
    let cancelled_at = observer
        .cancelled_at
        .lock()
        .unwrap()
        .expect("the observer cancelled mid-flight");
    // Cancellation is polled every node and every 64 pivots inside an LP, so
    // the solve must come back within a few pivots of the cancel. A generous
    // bound keeps the assertion robust on a loaded CI box while still being
    // far below what the full search takes.
    let latency = cancelled_at.elapsed();
    assert!(
        latency < Duration::from_secs(5),
        "cancelled solve took {latency:?} to return"
    );

    // The outcome is the interrupted terminal state with the best incumbent.
    assert!(result.outcome.is_interrupted());
    assert!(result.stats.interrupted);
    let best = result
        .outcome
        .refined()
        .expect("the incumbent found before the cancel is carried out");
    assert!(best.deviation <= 0.5 + 1e-9, "incumbent respects epsilon");
    assert!(!best.proven_optimal);

    // The stats snapshot is complete and consistent with the observer's view.
    assert!(result.stats.nodes >= 8);
    assert!(result.stats.lp_solves > 0);
    assert!(result.stats.simplex_iterations > 0);
    assert!(result.stats.total_time >= result.stats.solver_time);

    // And the interruption really did cut the search short: the same request
    // without the token explores further.
    let full = session.solve(&base).unwrap();
    assert!(full.outcome.is_refined() && !full.outcome.is_interrupted());
    assert!(full.stats.nodes > result.stats.nodes);
    let full_best = full.outcome.refined().unwrap();
    assert!(full_best.distance <= best.distance + 1e-9);
}

#[test]
fn unified_time_limit_interrupts_every_backend_mid_search() {
    // A deadline so tight no backend can finish the astronaut workload, but
    // long enough that the MILP usually seeds an incumbent first. All three
    // algorithm families must come back Interrupted — not run to completion,
    // and not mislabel the stop as a proven answer.
    let (session, base) = fig3_session_and_request();
    // Overshoot bound derived from this machine's measured annotation-build
    // baseline rather than a fixed wall-clock constant: a loaded CI box that
    // took 1s to build the annotation is allowed proportionally more slack,
    // while a fast machine still gets a tight 5s ceiling.
    let baseline = session.setup_stats().annotation_time;
    let overshoot_bound = Duration::from_secs(5).max(baseline * 20);
    let backends: Vec<Box<dyn RefinementSolver>> = vec![
        Box::new(MilpSolver),
        Box::new(NaiveSolver::new(NaiveMode::Provenance)),
    ];
    for backend in &backends {
        let request = base.clone().with_time_limit(Duration::from_millis(30));
        let start = Instant::now();
        let result = session.solve_with(backend.as_ref(), &request).unwrap();
        let elapsed = start.elapsed();
        assert!(
            result.outcome.is_interrupted(),
            "{}: expected Interrupted, got {:?}",
            backend.label(&request),
            result.outcome
        );
        assert!(
            elapsed < overshoot_bound,
            "{}: deadline overshoot ({elapsed:?} vs bound {overshoot_bound:?})",
            backend.label(&request)
        );
    }
}
