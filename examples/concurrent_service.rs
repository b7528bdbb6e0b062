//! The concurrent refinement service in miniature: one `RefinementSession`
//! shared across worker threads, a progress observer streaming solver
//! events, and a cooperative cancellation that returns the best incumbent
//! found so far.
//!
//! ```bash
//! cargo run --release --example concurrent_service
//! ```

use qr_core::paper_example::{paper_database, scholarship_constraints, scholarship_query};
use qr_core::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Streams solver events the way a service would stream progress to a
/// client, and cancels the solve as soon as the first incumbent appears —
/// "anytime" consumption: take the first good-enough answer instead of
/// waiting for the optimality proof. Callbacks run on the solving thread, so
/// state is kept in atomics.
struct FirstAnswer {
    token: CancelToken,
    nodes: AtomicUsize,
    incumbents: AtomicUsize,
}

impl SolveObserver for FirstAnswer {
    fn incumbent_found(&self, progress: &SolveProgress) {
        self.incumbents.fetch_add(1, Ordering::Relaxed);
        println!(
            "  [observer] incumbent {:.3} after {} nodes -> cancelling",
            progress.incumbent_objective.unwrap_or(f64::NAN),
            progress.nodes
        );
        self.token.cancel();
    }

    fn node_processed(&self, progress: &SolveProgress) {
        self.nodes.store(progress.nodes, Ordering::Relaxed);
    }
}

fn main() {
    // The session is the shared, read-only state of the service: database,
    // query, and provenance annotations, built exactly once.
    let session = Arc::new(RefinementSession::new(paper_database(), scholarship_query()).unwrap());

    // --- 1. Manually spawned workers sharing the session via Arc. ---
    let handles: Vec<_> = DistanceMeasure::all()
        .into_iter()
        .map(|distance| {
            let session = Arc::clone(&session);
            let request = RefinementRequest::new()
                .with_constraints(scholarship_constraints())
                .with_epsilon(0.0)
                .with_distance(distance);
            std::thread::spawn(move || (distance, session.solve(&request).unwrap()))
        })
        .collect();
    println!("worker threads over one Arc<RefinementSession>:");
    for handle in handles {
        let (distance, result) = handle.join().unwrap();
        let refined = result.outcome.refined().expect("refinement exists");
        println!("  {distance} -> distance {:.3}", refined.distance);
    }
    assert_eq!(session.setup_stats().annotation_builds, 1);

    // --- 2. Observation + cancellation. ---
    // The observer cancels through its token the moment an incumbent exists,
    // so the solve comes back Interrupted mid-search, still carrying that
    // incumbent and a complete stats snapshot. The unified deadline is a
    // belt-and-braces backstop should no incumbent ever appear.
    let token = CancelToken::new();
    let log = Arc::new(FirstAnswer {
        token: token.clone(),
        nodes: AtomicUsize::new(0),
        incumbents: AtomicUsize::new(0),
    });
    let request = RefinementRequest::new()
        .with_constraints(scholarship_constraints())
        .with_epsilon(0.0)
        .with_observer(log.clone())
        .with_cancel_token(token)
        .with_time_limit(Duration::from_secs(30));
    let result = session.solve(&request).unwrap();
    println!(
        "observed solve: {} nodes, {} incumbent event(s), interrupted: {}",
        log.nodes.load(Ordering::Relaxed),
        log.incumbents.load(Ordering::Relaxed),
        result.stats.interrupted,
    );
    match &result.outcome {
        RefinementOutcome::Interrupted { best } => println!(
            "  anytime answer: distance {:.3} (feasible, optimality unproven)",
            best.as_ref().expect("cancelled on incumbent").distance
        ),
        outcome => {
            // Only reachable if the solve finished before the first
            // incumbent event could cancel it (optimal in one node).
            let refined = outcome.refined().expect("refinement exists");
            println!(
                "  completed before cancel: distance {:.3}",
                refined.distance
            );
        }
    }
}
