//! Execution-control contract tests at the MILP level: cancellation and the
//! control deadline end a solve with `SolveStatus::Interrupted` (best
//! incumbent and statistics intact), and `SolveObserver` callbacks stream
//! incumbent / node / bound events from the branch-and-bound loop.

use qr_milp::control::{CancelToken, SolveControl, SolveObserver, SolveProgress};
use qr_milp::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Max-weight matchings on odd cycles: half-integral LP optima force real
/// branching, so the tree is deep enough to observe and interrupt.
fn branchy_model(cycles: &[usize]) -> Model {
    let mut m = Model::new("branchy");
    let mut profit = LinExpr::zero();
    for (cycle, &len) in cycles.iter().enumerate() {
        let xs: Vec<_> = (0..len)
            .map(|i| m.add_binary(format!("x{cycle}_{i}")))
            .collect();
        for i in 0..len {
            let j = (i + 1) % len;
            m.add_constraint(
                format!("edge{cycle}_{i}"),
                LinExpr::term(xs[i], 1.0) + LinExpr::term(xs[j], 1.0),
                Sense::Le,
                1.0,
            );
        }
        for (i, &x) in xs.iter().enumerate() {
            profit.add_term(x, -(1.0 + 0.01 * (i + cycle) as f64));
        }
    }
    m.set_objective(profit);
    m
}

#[test]
fn pre_cancelled_token_interrupts_immediately() {
    let token = CancelToken::new();
    token.cancel();
    let control = SolveControl::new().with_cancel_token(token);
    let s = Solver::default()
        .solve_with_control(&branchy_model(&[5, 7, 9]), &control)
        .unwrap();
    assert_eq!(s.status, SolveStatus::Interrupted);
    assert!(s.values.is_empty(), "no incumbent before the first node");
    assert_eq!(s.stats.nodes, 0);
    assert!(s.stats.interrupted);
}

#[test]
fn expired_control_deadline_interrupts() {
    let control = SolveControl::new().with_time_limit(Duration::ZERO);
    let s = Solver::default()
        .solve_with_control(&branchy_model(&[5, 7, 9]), &control)
        .unwrap();
    assert_eq!(s.status, SolveStatus::Interrupted);
    assert!(s.stats.interrupted);
}

/// Observer that counts events and cancels the solve a few nodes after the
/// first incumbent appears — a deterministic mid-flight cancellation that
/// does not depend on machine speed.
struct CancelAfterIncumbent {
    token: CancelToken,
    nodes: AtomicUsize,
    incumbents: AtomicUsize,
    bounds: AtomicUsize,
}

impl SolveObserver for CancelAfterIncumbent {
    fn incumbent_found(&self, progress: &SolveProgress) {
        assert!(progress.incumbent_objective.is_some());
        self.incumbents.fetch_add(1, Ordering::Relaxed);
        self.token.cancel();
    }

    fn node_processed(&self, progress: &SolveProgress) {
        assert!(progress.nodes > self.nodes.swap(progress.nodes, Ordering::Relaxed));
    }

    fn bound_improved(&self, _progress: &SolveProgress) {
        self.bounds.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn observer_streams_events_and_can_cancel_mid_flight() {
    let token = CancelToken::new();
    let observer = Arc::new(CancelAfterIncumbent {
        token: token.clone(),
        nodes: AtomicUsize::new(0),
        incumbents: AtomicUsize::new(0),
        bounds: AtomicUsize::new(0),
    });
    let control = SolveControl::new()
        .with_cancel_token(token)
        .with_observer(observer.clone());
    let solver = Solver::default();
    let s = solver
        .solve_with_control(&branchy_model(&[5, 7, 9, 11]), &control)
        .unwrap();

    assert_eq!(s.status, SolveStatus::Interrupted);
    assert!(s.stats.interrupted);
    // The interrupted solve still carries the incumbent the observer saw...
    assert_eq!(observer.incumbents.load(Ordering::Relaxed), 1);
    assert!(!s.values.is_empty(), "incumbent survives the interruption");
    assert!(s.objective.is_finite());
    // ... and a complete statistics snapshot.
    assert!(s.stats.nodes > 0);
    assert_eq!(observer.nodes.load(Ordering::Relaxed), s.stats.nodes);
    assert!(s.stats.lp_solves > 0);
    assert_eq!(
        observer.bounds.load(Ordering::Relaxed),
        1,
        "root bound event"
    );

    // An uncontrolled run of the same model proves the cancel cut it short.
    let full = solver.solve(&branchy_model(&[5, 7, 9, 11])).unwrap();
    assert_eq!(full.status, SolveStatus::Optimal);
    assert!(full.stats.nodes > s.stats.nodes);
    // The incumbent reported at interruption is a genuinely feasible point:
    // the full solve's optimum can only be at least as good.
    assert!(full.objective <= s.objective + 1e-9);
}

/// Deadline composition: when a control carries both a relative time limit
/// and an absolute deadline — the exact combination a server produces by
/// stacking a per-connection budget onto a per-request deadline — the
/// effective stop is the *earlier* of the two, in both directions.
#[test]
fn earlier_of_time_limit_and_deadline_wins() {
    let model = branchy_model(&[5, 7, 9]);

    // Generous relative budget, already-expired absolute deadline: the
    // deadline must stop the solve immediately; the 10-minute limit must not
    // mask it.
    let control = SolveControl::new()
        .with_time_limit(Duration::from_secs(600))
        .with_deadline(Instant::now() - Duration::from_millis(1));
    let s = Solver::default()
        .solve_with_control(&model, &control)
        .unwrap();
    assert_eq!(s.status, SolveStatus::Interrupted);
    assert!(s.stats.interrupted);
    assert_eq!(s.stats.nodes, 0, "expired deadline stops before any node");

    // Expired relative budget, generous absolute deadline: symmetric.
    let control = SolveControl::new()
        .with_deadline(Instant::now() + Duration::from_secs(600))
        .with_time_limit(Duration::ZERO);
    let s = Solver::default()
        .solve_with_control(&model, &control)
        .unwrap();
    assert_eq!(s.status, SolveStatus::Interrupted);
    assert!(s.stats.interrupted);
}

/// Stacked budgets only ever tighten: re-applying a *looser* limit or a
/// *later* deadline (as an outer layer naively might) leaves the earlier
/// stop in force.
#[test]
fn stacked_controls_cannot_loosen_an_earlier_stop() {
    let model = branchy_model(&[5, 7, 9]);
    let control = SolveControl::new()
        .with_time_limit(Duration::ZERO) // request-level: already exhausted
        .with_time_limit(Duration::from_secs(600)) // connection-level budget
        .with_deadline(Instant::now() + Duration::from_secs(600));
    let s = Solver::default()
        .solve_with_control(&model, &control)
        .unwrap();
    assert_eq!(
        s.status,
        SolveStatus::Interrupted,
        "the tighter request budget must survive the looser connection layer"
    );
}

/// The node limit is a search budget, not an interruption: it ends the solve
/// `LimitReached`/`Feasible`, never `Interrupted`. Wall-clock stops belong to
/// the control alone.
#[test]
fn node_limit_is_not_an_interruption() {
    let solver = Solver::new(SolverOptions { max_nodes: 0 });
    let s = solver.solve(&branchy_model(&[5, 7, 9])).unwrap();
    assert_eq!(s.status, SolveStatus::LimitReached);
    assert!(!s.stats.interrupted);
}
