//! Scholarship awards over the synthetic Law Students dataset (query Q_L).
//!
//! A foundation ranks Great-Lakes-region students with a high GPA by their
//! LSAT score and awards the top ten. We require gender balance in the top
//! ten and compare the refinements chosen by the predicate and Jaccard
//! distance measures, plus the exhaustive `Naive+prov` baseline — every
//! algorithm dispatched through the same session and solver trait.
//!
//! Run with: `cargo run --release --example scholarship_awards`

use query_refinement::core::prelude::*;
use query_refinement::datagen::{DatasetId, Workload};
use query_refinement::milp::SolverOptions;
use query_refinement::relation::prelude::*;
use std::time::Duration;

fn main() {
    let workload = Workload::new(DatasetId::LawStudents, 42);
    let k = 10;
    let constraints = workload.default_constraints(k); // at least k/2 women in the top-k

    println!("Query Q_L:\n{}\n", workload.query.to_sql());
    println!("Constraints: {}\n", constraints);

    // A visible search budget: at this dataset size the from-scratch solver
    // may return the best incumbent found rather than a proven optimum.
    let budget = SolverOptions { max_nodes: 50_000 };

    let session = RefinementSession::new(workload.db.clone(), workload.query.clone())
        .expect("annotation builds");
    let base = RefinementRequest::new()
        .with_constraints(constraints)
        .with_epsilon(0.25)
        .with_solver_options(budget)
        .with_time_limit(Duration::from_secs(10));

    for distance in [DistanceMeasure::Predicate, DistanceMeasure::JaccardTopK] {
        let result = session
            .solve(&base.clone().with_distance(distance))
            .expect("engine runs");
        match result.outcome.refined() {
            Some(refined) => println!(
                "[{}] distance {:.3}, deviation {:.3}, {} vars / {} constraints, total {:?}\n{}\n",
                distance,
                refined.distance,
                refined.deviation,
                result.stats.num_variables,
                result.stats.num_constraints,
                result.stats.total_time,
                refined.query.to_sql()
            ),
            None => println!("[{}] no refinement within the deviation budget\n", distance),
        }
    }

    // The exhaustive baseline enumerates every refinement; on Q_L's domain it
    // is still feasible, just slower. Same session, same request — only the
    // solver backend differs.
    let naive = NaiveSolver::new(NaiveMode::Provenance);
    let request = base.with_distance(DistanceMeasure::Predicate);
    let result = session
        .solve_with(&naive, &request)
        .expect("naive search runs");
    match result.outcome.refined() {
        Some(refined) => println!(
            "[{}] best distance {:.3}, deviation {:.3}, {} candidates in {:?} (exhausted: {})",
            naive.label(&request),
            refined.distance,
            refined.deviation,
            result.stats.candidates_evaluated,
            result.stats.total_time,
            refined.proven_optimal
        ),
        None => println!("[{}] found no refinement", naive.label(&request)),
    }
}
