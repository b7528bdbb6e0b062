//! Recruiting patients for a healthcare study (query Q_M over MEPS).
//!
//! A study invites the heaviest users of the healthcare system among adults
//! with larger families. The recruiters need both sexes represented in the
//! top ten invitations and want to understand how much the invitation
//! criteria must change (predicate distance) versus how much the invited
//! cohort changes (top-k Jaccard distance) — the Example 1.3 trade-off.
//!
//! Run with: `cargo run --release --example healthcare_study`

use query_refinement::core::prelude::*;
use query_refinement::core::{exact_distance, DistanceMeasure as DM};
use query_refinement::datagen::{DatasetId, Workload};
use query_refinement::milp::SolverOptions;
use query_refinement::relation::prelude::*;
use std::time::Duration;

fn main() {
    let workload = Workload::new(DatasetId::Meps, 11);
    let k = 10;
    let constraints = workload.default_constraints(k);
    println!("Query Q_M:\n{}\n", workload.query.to_sql());
    println!("Constraints: {}\n", constraints);

    // The session's annotations serve both solves *and* the exact distance
    // cross-checks below — no separate AnnotatedRelation::build needed.
    let session = RefinementSession::new(workload.db.clone(), workload.query.clone())
        .expect("annotation builds");
    let snapshot = session.snapshot();
    println!(
        "~Q(D): {} tuples in {} lineage equivalence classes (annotated once, {:?})\n",
        snapshot.annotated().len(),
        snapshot.annotated().classes().len(),
        session.setup_stats().annotation_time
    );

    // A visible search budget: at this dataset size the from-scratch solver
    // may return the best incumbent found rather than a proven optimum.
    let budget = SolverOptions { max_nodes: 50_000 };
    let base = RefinementRequest::new()
        .with_constraints(constraints)
        .with_epsilon(0.5)
        .with_solver_options(budget)
        .with_time_limit(Duration::from_secs(10));

    let mut refinements = Vec::new();
    for distance in [DistanceMeasure::Predicate, DistanceMeasure::JaccardTopK] {
        let result = session
            .solve(&base.clone().with_distance(distance))
            .expect("engine runs");
        if let Some(refined) = result.outcome.refined() {
            let qd = exact_distance(
                DM::Predicate,
                snapshot.annotated(),
                session.query(),
                &refined.assignment,
                k,
            );
            let jac = exact_distance(
                DM::JaccardTopK,
                snapshot.annotated(),
                session.query(),
                &refined.assignment,
                k,
            );
            println!(
                "[{}] refined query:\n{}\n  predicate distance {:.3} | top-k Jaccard {:.3} | deviation {:.3}\n",
                distance,
                refined.query.to_sql(),
                qd,
                jac,
                refined.deviation
            );
            refinements.push((distance, refined.clone()));
        } else {
            println!("[{}] no refinement within ε\n", distance);
        }
    }

    // The two objectives generally pick different refinements: one minimises
    // how much the criteria move, the other how much the cohort changes.
    if refinements.len() == 2 {
        println!(
            "predicate-optimal and outcome-optimal refinements are {}",
            if refinements[0].1.assignment == refinements[1].1.assignment {
                "identical on this instance"
            } else {
                "different, illustrating the Example 1.3 trade-off"
            }
        );
    }
}
