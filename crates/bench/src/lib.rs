//! # qr-bench
//!
//! Shared harness code for reproducing the paper's evaluation (Section 5).
//!
//! Every figure of the paper has a corresponding Criterion bench target in
//! `benches/` and a sweep in the `experiments` binary
//! (`cargo run -p qr-bench --release --bin experiments -- <figure>`), which
//! prints the same series the paper plots: setup time, solver time and total
//! time per dataset, distance measure and swept parameter.
//!
//! The harness is built on `qr-core`'s session API: a [`RefinementSession`]
//! per workload (provenance annotation paid once), algorithm backends
//! selected uniformly through the [`RefinementSolver`] trait, and parameter
//! sweeps submitted as [`RefinementRequest`]s.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use qr_core::{
    ConstraintSet, DistanceMeasure, MilpSolver, NaiveMode, NaiveSolver, OptimizationConfig,
    RefinementOutcome, RefinementRequest, RefinementResult, RefinementSession, RefinementSolver,
};
use qr_datagen::Workload;
use qr_milp::SolverOptions;
use std::time::Duration;

/// Default `k` for all experiments (the paper's default).
pub const DEFAULT_K: usize = 10;
/// Default maximum deviation ε (the paper's default).
pub const DEFAULT_EPSILON: f64 = 0.5;
/// Seed used for every synthetic dataset in the harness.
pub const SEED: u64 = 20240317;

/// Per-instance deadline of every benchmark request: it stands in for the
/// paper's one-hour timeout (scaled down because the from-scratch solver
/// replaces CPLEX).
pub const BENCHMARK_TIME_LIMIT: Duration = Duration::from_secs(60);

/// Solver options used throughout the benchmark: a node budget on top of
/// the request's [`BENCHMARK_TIME_LIMIT`].
pub fn benchmark_solver_options() -> SolverOptions {
    SolverOptions {
        max_nodes: 20_000,
        ..SolverOptions::default()
    }
}

/// Prepare a session for a workload (annotation happens here, once).
pub fn session_for(workload: &Workload) -> RefinementSession {
    RefinementSession::new(workload.db.clone(), workload.query.clone())
        .expect("workload annotation builds")
}

/// A request with the benchmark solver budget and deadline applied.
pub fn benchmark_request(
    constraints: &ConstraintSet,
    epsilon: f64,
    distance: DistanceMeasure,
    config: OptimizationConfig,
) -> RefinementRequest {
    RefinementRequest::new()
        .with_constraints(constraints.clone())
        .with_epsilon(epsilon)
        .with_distance(distance)
        .with_optimizations(config)
        .with_solver_options(benchmark_solver_options())
        .with_time_limit(BENCHMARK_TIME_LIMIT)
}

/// A single measurement row, printed by the `experiments` binary.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Dataset label (Astronauts, Law Students, MEPS, TPC-H).
    pub dataset: String,
    /// Algorithm label (MILP, MILP+opt, Naive, Naive+prov, ...).
    pub algorithm: String,
    /// Distance measure label (QD, JAC, KEN) or "-".
    pub distance: String,
    /// Value of the swept parameter (k*, ε, #constraints, data size, ...).
    pub parameter: String,
    /// Setup time in seconds (provenance + MILP construction).
    pub setup_seconds: f64,
    /// Total time in seconds.
    pub total_seconds: f64,
    /// Whether a refinement within ε was found.
    pub refined: bool,
    /// Exact distance of the refinement (NaN if none).
    pub distance_value: f64,
    /// Exact deviation of the refinement (NaN if none).
    pub deviation: f64,
}

impl ExperimentRow {
    /// Header line for the tab-separated output.
    pub fn header() -> String {
        "dataset\talgorithm\tdistance\tparameter\tsetup_s\ttotal_s\trefined\tdist\tdev".to_string()
    }

    /// Tab-separated rendering of the row.
    pub fn render(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{}\t{:.3}\t{:.3}",
            self.dataset,
            self.algorithm,
            self.distance,
            self.parameter,
            self.setup_seconds,
            self.total_seconds,
            self.refined,
            self.distance_value,
            self.deviation
        )
    }

    /// Build a row from a unified solve result.
    pub fn from_result(
        dataset: impl Into<String>,
        algorithm: impl Into<String>,
        distance: DistanceMeasure,
        parameter: impl Into<String>,
        result: &RefinementResult,
    ) -> ExperimentRow {
        let (refined, dist, dev) = match result.outcome.refined() {
            Some(r) => (true, r.distance, r.deviation),
            None => (false, f64::NAN, f64::NAN),
        };
        ExperimentRow {
            dataset: dataset.into(),
            algorithm: algorithm.into(),
            distance: distance.to_string(),
            parameter: parameter.into(),
            setup_seconds: result.stats.setup_time.as_secs_f64(),
            total_seconds: result.stats.total_time.as_secs_f64(),
            refined,
            distance_value: dist,
            deviation: dev,
        }
    }
}

/// Whether a solve stopped at its budget rather than proving its answer.
fn timed_out(outcome: &RefinementOutcome) -> bool {
    match outcome {
        RefinementOutcome::Refined(r) => !r.proven_optimal,
        RefinementOutcome::NoRefinement { proven_infeasible } => !proven_infeasible,
        RefinementOutcome::Interrupted { .. } => true,
    }
}

/// Run any algorithm backend end-to-end on a workload (session construction
/// included, charged to the row's setup/total so one-shot rows stay
/// comparable with the paper's per-run "Setup" column).
pub fn run_solver(
    workload: &Workload,
    solver: &dyn RefinementSolver,
    request: &RefinementRequest,
    parameter: impl Into<String>,
) -> ExperimentRow {
    let session = session_for(workload);
    let mut result = session
        .solve_with(solver, request)
        .expect("solver run does not error");
    result
        .stats
        .charge_annotation(session.setup_stats().annotation_time);
    ExperimentRow::from_result(
        workload.id.label(),
        solver.label(request),
        request.distance,
        parameter,
        &result,
    )
}

/// Run the MILP-based engine on a workload and convert the result to a row.
pub fn run_engine(
    workload: &Workload,
    constraints: &ConstraintSet,
    epsilon: f64,
    distance: DistanceMeasure,
    config: OptimizationConfig,
    parameter: impl Into<String>,
) -> ExperimentRow {
    let request = benchmark_request(constraints, epsilon, distance, config);
    run_solver(workload, &MilpSolver, &request, parameter)
}

/// Run one of the exhaustive baselines on a workload, stopped at `budget`.
pub fn run_naive(
    workload: &Workload,
    constraints: &ConstraintSet,
    epsilon: f64,
    distance: DistanceMeasure,
    mode: NaiveMode,
    budget: Duration,
    parameter: impl Into<String>,
) -> ExperimentRow {
    let solver = NaiveSolver::new(mode);
    let request = benchmark_request(constraints, epsilon, distance, OptimizationConfig::all())
        .with_time_limit(budget);
    let session = session_for(workload);
    let mut result = session
        .solve_with(&solver, &request)
        .expect("naive search does not error");
    result
        .stats
        .charge_annotation(session.setup_stats().annotation_time);
    let mut algorithm = solver.label(&request);
    if timed_out(&result.outcome) {
        algorithm.push_str(" (timeout)");
    }
    ExperimentRow::from_result(
        workload.id.label(),
        algorithm,
        request.distance,
        parameter,
        &result,
    )
}

/// Sweep ε through one session (Figure 5's access pattern): annotation is
/// paid once by the session, and each row reports only its per-request
/// times. With `threads > 1` the sweep runs on the session's internal worker
/// pool ([`RefinementSession::sweep_epsilon_parallel`]) — same results, same
/// order. Returns the shared annotation seconds alongside the rows.
pub fn run_epsilon_sweep(
    workload: &Workload,
    constraints: &ConstraintSet,
    epsilons: &[f64],
    distance: DistanceMeasure,
    config: OptimizationConfig,
    threads: usize,
) -> (f64, Vec<ExperimentRow>) {
    let session = session_for(workload);
    let base = benchmark_request(constraints, 0.0, distance, config);
    let results = session
        .sweep_epsilon_parallel(&base, epsilons, threads.max(1))
        .expect("epsilon sweep does not error");
    let rows = epsilons
        .iter()
        .zip(&results)
        .map(|(eps, result)| {
            ExperimentRow::from_result(
                workload.id.label(),
                config.label(),
                distance,
                format!("eps={eps}"),
                result,
            )
        })
        .collect();
    (session.setup_stats().annotation_time.as_secs_f64(), rows)
}

/// Workloads used by the Criterion benches: smaller than the defaults so that
/// a full `cargo bench` pass finishes quickly; the `experiments` binary uses
/// the full default sizes.
pub fn bench_workloads() -> Vec<Workload> {
    vec![
        Workload::astronauts(180, SEED),
        Workload::law_students(400, SEED),
        Workload::meps(400, SEED),
        Workload::tpch(100, SEED),
    ]
}

/// The full-size workloads used by the `experiments` binary.
pub fn experiment_workloads() -> Vec<Workload> {
    Workload::all(SEED)
}

/// A deliberately tiny instance of a workload, used by the Criterion benches
/// so that a full `cargo bench --workspace` pass stays in the minutes range.
/// The full-size parameter sweeps live in the `experiments` binary.
pub fn tiny_workload(id: qr_datagen::DatasetId) -> Workload {
    use qr_datagen::DatasetId;
    match id {
        DatasetId::Astronauts => Workload::astronauts(100, SEED),
        DatasetId::LawStudents => Workload::law_students(250, SEED),
        DatasetId::Meps => Workload::meps(250, SEED),
        DatasetId::Tpch => Workload::tpch(60, SEED),
    }
}

/// The small `k` used by the Criterion benches.
pub const TINY_K: usize = 5;

/// Constraint (1) of Table 6 for a tiny workload, with a bound of 2 in the
/// top-[`TINY_K`].
pub fn tiny_constraints(workload: &Workload) -> ConstraintSet {
    ConstraintSet::new().with(workload.constraint_with_bound(1, TINY_K, Some(2)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_datagen::DatasetId;

    #[test]
    fn row_rendering() {
        let row = ExperimentRow {
            dataset: "Astronauts".into(),
            algorithm: "MILP+opt".into(),
            distance: "QD".into(),
            parameter: "k=10".into(),
            setup_seconds: 0.1234,
            total_seconds: 1.5,
            refined: true,
            distance_value: 0.5,
            deviation: 0.0,
        };
        let text = row.render();
        assert!(text.starts_with("Astronauts\tMILP+opt\tQD\tk=10"));
        assert!(ExperimentRow::header().contains("total_s"));
    }

    #[test]
    fn bench_workloads_are_small() {
        for w in bench_workloads() {
            assert!(w.main_relation_size() <= 400);
        }
    }

    #[test]
    fn epsilon_sweep_amortizes_annotation() {
        let w = tiny_workload(DatasetId::Tpch);
        let constraints = tiny_constraints(&w);
        let (annotation_seconds, rows) = run_epsilon_sweep(
            &w,
            &constraints,
            &[0.5, 1.0],
            DistanceMeasure::Predicate,
            OptimizationConfig::all(),
            1,
        );
        assert!(annotation_seconds >= 0.0);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.algorithm == "MILP+opt"));
    }
}
