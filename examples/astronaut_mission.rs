//! Astronaut mission selection (query Q_A of Table 6).
//!
//! Candidates with a Physics background and one to three space walks are
//! ranked by accumulated flight hours. The selection committee wants women
//! and active-duty astronauts represented among the top ten. The categorical
//! predicate (graduate major) has a large domain, which is exactly the regime
//! where the exhaustive baseline explodes but the MILP stays tractable.
//!
//! Run with: `cargo run --release --example astronaut_mission`

use query_refinement::core::prelude::*;
use query_refinement::datagen::{DatasetId, Workload};
use query_refinement::milp::SolverOptions;
use query_refinement::relation::prelude::*;
use std::time::Duration;

fn main() {
    let workload = Workload::new(DatasetId::Astronauts, 7);
    let k = 10;
    let constraints = ConstraintSet::new()
        .with(workload.constraint_with_bound(1, k, Some(3))) // at least 3 women in the top-10
        .with(workload.constraint(3, k)); // at least k/5 active astronauts

    println!("Query Q_A:\n{}\n", workload.query.to_sql());
    println!("Constraints: {}\n", constraints);

    // A visible search budget: the unoptimized build in particular may return
    // its best incumbent rather than a proven optimum within this window.
    let budget = SolverOptions { max_nodes: 50_000 };

    // One session answers both optimization configurations (Figure 3a):
    // provenance annotation happens once, each request only rebuilds the MILP.
    let session = RefinementSession::new(workload.db.clone(), workload.query.clone())
        .expect("annotation builds");
    println!(
        "shared setup: annotation {:?}\n",
        session.setup_stats().annotation_time
    );
    let base = RefinementRequest::new()
        .with_constraints(constraints)
        .with_epsilon(0.5)
        .with_distance(DistanceMeasure::Predicate)
        .with_solver_options(budget)
        .with_time_limit(Duration::from_secs(10));

    for config in [OptimizationConfig::none(), OptimizationConfig::all()] {
        let result = session
            .solve(&base.clone().with_optimizations(config))
            .expect("engine runs");
        println!(
            "[{}] {} variables, {} constraints, model build {:?}, solver {:?}",
            config.label(),
            result.stats.num_variables,
            result.stats.num_constraints,
            result.stats.model_build_time,
            result.stats.solver_time,
        );
        if let Some(refined) = result.outcome.refined() {
            println!(
                "  -> distance {:.3}, deviation {:.3}\n{}\n",
                refined.distance,
                refined.deviation,
                refined.query.to_sql()
            );
        } else {
            println!("  -> no refinement within ε\n");
        }
    }
}
