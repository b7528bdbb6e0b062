//! Checkpoint/restart contract tests at the MILP level: an interrupted solve
//! captures a `ResumeState`, `Solver::resume_with_control` continues exactly
//! where it stopped, a chain of small-budget segments converges to the same
//! objective (and assignment) as one uninterrupted solve without re-exploring
//! pruned subtrees, and a stale state is rejected with a typed error.

use qr_milp::control::{CancelToken, SolveControl, SolveObserver, SolveProgress};
use qr_milp::prelude::*;
use qr_milp::resume::ResumeState;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Max-weight matchings on odd cycles: half-integral LP optima force real
/// branching, so the tree is deep enough to interrupt repeatedly.
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

/// Observer that trips its cancel token after a fixed number of nodes — a
/// deterministic mid-flight interruption that does not depend on wall-clock
/// speed.
struct CancelAfterNodes {
    token: CancelToken,
    threshold: usize,
    seen: AtomicUsize,
}

impl SolveObserver for CancelAfterNodes {
    fn node_processed(&self, _progress: &SolveProgress) {
        if self.seen.fetch_add(1, Ordering::Relaxed) + 1 >= self.threshold {
            self.token.cancel();
        }
    }
}

/// Run one segment that interrupts itself after `nodes` processed nodes.
fn interrupted_segment(
    solver: &Solver,
    model: &Model,
    seed: Option<&ResumeState>,
    nodes: usize,
) -> Solution {
    let token = CancelToken::new();
    let control = SolveControl::new()
        .with_cancel_token(token.clone())
        .with_observer(Arc::new(CancelAfterNodes {
            token,
            threshold: nodes,
            seen: AtomicUsize::new(0),
        }));
    match seed {
        None => solver.solve_with_control(model, &control).unwrap(),
        Some(state) => solver.resume_with_control(model, state, &control).unwrap(),
    }
}

#[test]
fn pre_cancelled_solve_captures_the_untouched_root() {
    let model = branchy_model(&[5, 7, 9]);
    let token = CancelToken::new();
    token.cancel();
    let control = SolveControl::new().with_cancel_token(token);
    let s = Solver::default()
        .solve_with_control(&model, &control)
        .unwrap();
    assert_eq!(s.status, SolveStatus::Interrupted);
    assert_eq!(s.stats.nodes, 0);
    assert_eq!(s.stats.resume_captures, 1);
    let state = s.resume.expect("root pushed back into the checkpoint");
    assert_eq!(state.num_open_nodes(), 1, "exactly the untouched root");
    assert_eq!(state.nodes_so_far(), 0);
    assert_eq!(state.segments(), 1);
    assert!(state.incumbent_objective().is_none());

    // Resuming under an unconstrained control finishes the search and
    // reports the restoration in its statistics.
    let resumed = Solver::default()
        .resume_with_control(&model, &state, &SolveControl::new())
        .unwrap();
    assert_eq!(resumed.status, SolveStatus::Optimal);
    assert_eq!(resumed.stats.resumed_solves, 1);
    assert_eq!(resumed.stats.nodes_restored, 1);
    assert_eq!(resumed.stats.resume_captures, 0);
    assert!(resumed.resume.is_none(), "completed solves carry no state");

    let full = Solver::default().solve(&model).unwrap();
    assert!((resumed.objective - full.objective).abs() < 1e-9);
}

#[test]
fn chained_small_budget_segments_match_one_uninterrupted_solve() {
    let model = branchy_model(&[5, 7, 9, 11]);
    let solver = Solver::default();
    let full = solver.solve(&model).unwrap();
    assert_eq!(full.status, SolveStatus::Optimal);

    // Chain segments of ~6 nodes each until the search completes.
    let mut state: Option<Box<ResumeState>> = None;
    let mut chain_nodes = 0usize;
    let mut segments = 0usize;
    let mut restored_total = 0usize;
    let final_solution = loop {
        segments += 1;
        assert!(segments <= 200, "chain failed to converge");
        let s = interrupted_segment(&solver, &model, state.as_deref(), 6);
        chain_nodes += s.stats.nodes;
        restored_total += s.stats.nodes_restored;
        match s.status {
            SolveStatus::Interrupted => {
                assert_eq!(s.stats.resume_captures, 1);
                state = Some(s.resume.expect("interrupted with open nodes"));
            }
            _ => break s,
        }
    };

    assert!(segments > 2, "model too easy to exercise chaining");
    assert!(restored_total > 0, "later segments restored a frontier");
    assert_eq!(final_solution.status, SolveStatus::Optimal);
    assert!(
        (final_solution.objective - full.objective).abs() < 1e-9,
        "chained objective {} vs uninterrupted {}",
        final_solution.objective,
        full.objective
    );
    assert_eq!(
        final_solution.values, full.values,
        "the chain must converge to the same assignment"
    );
    // No re-exploration of pruned subtrees: re-processing at most one
    // interrupted node per segment is the only admissible overhead.
    assert!(
        chain_nodes <= full.stats.nodes + segments,
        "chain processed {chain_nodes} nodes vs {} uninterrupted (+{segments} allowed)",
        full.stats.nodes
    );
}

#[test]
fn resume_keeps_incumbent_and_bound_across_segments() {
    let model = branchy_model(&[5, 7, 9, 11]);
    let solver = Solver::default();
    // First segment: long enough for the dive to seed an incumbent.
    let s1 = interrupted_segment(&solver, &model, None, 8);
    assert_eq!(s1.status, SolveStatus::Interrupted);
    let state = s1.resume.expect("open frontier");
    let inc = state
        .incumbent_objective()
        .expect("dive seeds an incumbent within 8 nodes");
    assert!(state.best_bound().is_finite());
    assert!(
        state.best_bound() <= inc + 1e-9,
        "bound sandwiches incumbent"
    );

    // The next segment starts from that incumbent — never worse.
    let s2 = interrupted_segment(&solver, &model, Some(&state), 8);
    assert!(s2.objective <= inc + 1e-9);
}

#[test]
fn stale_resume_is_a_typed_error_not_a_wrong_answer() {
    let model = branchy_model(&[5, 7, 9]);
    let token = CancelToken::new();
    token.cancel();
    let control = SolveControl::new().with_cancel_token(token);
    let s = Solver::default()
        .solve_with_control(&model, &control)
        .unwrap();
    let state = s.resume.expect("captured");

    // A structurally different model (one more cycle) must be rejected.
    let other = branchy_model(&[5, 7, 9, 3]);
    let err = Solver::default()
        .resume_with_control(&other, &state, &SolveControl::new())
        .unwrap_err();
    assert!(
        matches!(err, MilpError::StaleResume { expected, actual } if expected != actual),
        "got {err:?}"
    );
    // The error is descriptive enough to log.
    assert!(err.to_string().contains("stale resume state"));

    // A *renamed* but structurally identical rebuild is accepted.
    let rebuilt = branchy_model(&[5, 7, 9]);
    let ok = Solver::default()
        .resume_with_control(&rebuilt, &state, &SolveControl::new())
        .unwrap();
    assert_eq!(ok.status, SolveStatus::Optimal);
}

#[test]
fn completed_and_limit_solves_carry_no_resume_state() {
    let model = branchy_model(&[5]);
    let s = Solver::default().solve(&model).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert!(s.resume.is_none());
    assert_eq!(s.stats.resume_captures, 0);
    assert_eq!(s.stats.resumed_solves, 0);
    assert_eq!(s.stats.nodes_restored, 0);

    // A legacy node-limit stop is a limit, not an interruption: no capture.
    let limited = Solver::new(SolverOptions { max_nodes: 1 })
        .solve(&branchy_model(&[5, 7, 9]))
        .unwrap();
    assert!(limited.resume.is_none());
    assert_eq!(limited.stats.resume_captures, 0);
}
