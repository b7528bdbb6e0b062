//! Exhaustive-search baselines (`Naive` and `Naive+prov`).
//!
//! The paper compares the MILP solution against a brute-force search over the
//! space of refinements: every combination of a candidate constant per
//! numerical predicate (drawn from the attribute's domain) and a non-empty
//! subset of values per categorical predicate. `Naive` re-evaluates every
//! candidate query on the database engine; `Naive+prov` evaluates candidates
//! over the provenance annotations instead, skipping the DBMS round-trip.
//! Both are exponential in the number of predicates and their domain sizes.
//!
//! Both run as [`NaiveSolver`], a [`RefinementSolver`] backend: a caller
//! asks [`RefinementSession::solve_with`] and gets the same
//! [`RefinementResult`] as from the MILP engine.

use crate::error::{CoreError, Result};
use crate::milp_model::check_epsilon;
use crate::session::{
    exact_distance, RefinementOutcome, RefinementRequest, RefinementResult, RefinementSession,
    RefinementStats,
};
use crate::solver::RefinementSolver;
use qr_milp::control::StopCondition;
use qr_provenance::{whatif::evaluate_refinement, PredicateAssignment};
use qr_relation::{evaluate, CmpOp};
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

/// How candidate refinements are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NaiveMode {
    /// Re-evaluate every candidate on the relational engine ("Naïve").
    Database,
    /// Evaluate candidates over provenance annotations ("Naïve+prov").
    Provenance,
}

impl NaiveMode {
    /// Label used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            NaiveMode::Database => "Naive",
            NaiveMode::Provenance => "Naive+prov",
        }
    }
}

impl fmt::Display for NaiveMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for NaiveMode {
    type Err = CoreError;

    /// Parse a benchmark label or mode name: `Naive` / `database` / `db` for
    /// the relational-engine mode, `Naive+prov` / `provenance` / `prov` for
    /// the provenance mode (case-insensitive).
    fn from_str(s: &str) -> Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "naive" | "database" | "db" => Ok(NaiveMode::Database),
            "naive+prov" | "naiveprov" | "provenance" | "prov" => Ok(NaiveMode::Provenance),
            _ => Err(CoreError::Parse(format!(
                "unknown naive mode '{s}' (expected Naive or Naive+prov)"
            ))),
        }
    }
}

/// Hard cap on the number of candidates one exhaustive search evaluates.
const MAX_CANDIDATES: usize = 2_000_000;

/// Exhaustive search over the refinement space (`Naive` / `Naive+prov`),
/// evaluating candidates either on the relational engine or on the session's
/// provenance annotations.
///
/// The request's constraints, ε, distance measure and
/// [`SolveControl`](qr_milp::control::SolveControl) deadline apply; its
/// MILP-specific fields (optimizations, solver options) are ignored. A
/// search evaluates at most 2,000,000 candidates.
#[derive(Debug, Clone)]
pub struct NaiveSolver {
    /// Evaluation mode.
    pub mode: NaiveMode,
}

impl RefinementSolver for NaiveSolver {
    fn label(&self, _request: &RefinementRequest) -> String {
        self.mode.to_string()
    }

    /// Enumerate every candidate over one pinned snapshot, keeping the
    /// closest one within ε. The snapshot's database is only consulted in
    /// [`NaiveMode::Database`], which re-evaluates every candidate on the
    /// relational engine.
    ///
    /// The candidate loop polls the request's
    /// [`SolveControl`](qr_milp::control::SolveControl): a triggered control
    /// stops the search as [`RefinementOutcome::Interrupted`], carrying the
    /// best candidate so far. A completed enumeration proves its answer; the
    /// candidate cap stops the search unproven. An ε that is not finite and
    /// non-negative is [`CoreError::InvalidInput`], as for the MILP.
    fn solve(
        &self,
        session: &RefinementSession,
        request: &RefinementRequest,
    ) -> Result<RefinementResult> {
        self.search(session, request, MAX_CANDIDATES)
    }
}

impl NaiveSolver {
    /// An exhaustive search in the given evaluation mode.
    #[must_use]
    pub fn new(mode: NaiveMode) -> Self {
        NaiveSolver { mode }
    }

    /// The exhaustive search behind [`RefinementSolver::solve`], stopping
    /// unproven after `max_candidates` candidates.
    fn search(
        &self,
        session: &RefinementSession,
        request: &RefinementRequest,
        max_candidates: usize,
    ) -> Result<RefinementResult> {
        let start = Instant::now();
        let stop = request.control.stop_condition(start);
        let snapshot = session.snapshot();
        let annotated = snapshot.annotated();
        let query = session.query();
        let constraints = &request.constraints;
        check_epsilon(request.epsilon)?;
        constraints.validate(annotated)?;
        let k_star = constraints.k_star();
        let setup_time = start.elapsed();

        // Candidate choices per predicate. Setup is polled between predicates:
        // subset enumeration is exponential in the categorical domain, so a
        // tight deadline must be able to interrupt before the search loop is
        // ever reached (the partial choice tables are fine to abandon — the
        // search loop's first poll breaks immediately with `interrupted` set).
        let mut numeric_choices: Vec<((String, CmpOp), Vec<f64>)> = Vec::new();
        for p in &query.numeric_predicates {
            if stop.should_stop() {
                break;
            }
            let mut domain = annotated.numeric_domain(&p.attribute)?;
            if !domain.iter().any(|v| (v - p.constant).abs() < f64::EPSILON) {
                domain.push(p.constant);
            }
            numeric_choices.push(((p.attribute.clone(), p.op), domain));
        }
        let mut categorical_choices: Vec<(String, Vec<BTreeSet<String>>)> = Vec::new();
        for p in &query.categorical_predicates {
            if stop.should_stop() {
                break;
            }
            let domain = annotated.categorical_domain(&p.attribute)?;
            categorical_choices.push((p.attribute.clone(), non_empty_subsets(&domain, &stop)));
        }

        // Odometer over the cartesian product of all choices.
        let dimensions: Vec<usize> = numeric_choices
            .iter()
            .map(|(_, d)| d.len())
            .chain(categorical_choices.iter().map(|(_, s)| s.len()))
            .collect();
        let mut counters = vec![0usize; dimensions.len()];

        // The closest candidate so far, with its exact distance.
        let mut best: Option<(PredicateAssignment, f64)> = None;
        let mut evaluated = 0usize;
        let mut exhausted = true;
        let mut interrupted = false;

        'search: loop {
            if stop.should_stop() {
                exhausted = false;
                interrupted = true;
                break;
            }
            if evaluated >= max_candidates {
                exhausted = false;
                break;
            }

            // Materialise the candidate assignment.
            let mut assignment = PredicateAssignment::from_query(query);
            for (i, (key, domain)) in numeric_choices.iter().enumerate() {
                assignment.numeric.insert(key.clone(), domain[counters[i]]);
            }
            for (j, (attr, subsets)) in categorical_choices.iter().enumerate() {
                let idx = counters[numeric_choices.len() + j];
                assignment
                    .categorical
                    .insert(attr.clone(), subsets[idx].clone());
            }
            evaluated += 1;

            // Evaluate deviation (and output size) for the candidate.
            let (deviation, output_len) = match self.mode {
                NaiveMode::Provenance => {
                    let output = evaluate_refinement(annotated, &assignment);
                    (
                        constraints.deviation_of_output(annotated, &output.selected),
                        output.len(),
                    )
                }
                NaiveMode::Database => {
                    let refined_query = assignment.apply_to(query);
                    let result = evaluate(snapshot.db(), &refined_query)?;
                    // Count group members in the top-k prefixes of the result.
                    let counts: Vec<usize> = constraints
                        .constraints()
                        .iter()
                        .map(|c| {
                            result
                                .rows()
                                .iter()
                                .take(c.k)
                                .filter(|row| c.group.matches(result.schema(), row))
                                .count()
                        })
                        .collect();
                    (constraints.deviation(&counts), result.len())
                }
            };

            if output_len >= k_star && deviation <= request.epsilon + qr_milp::tol::ABSOLUTE_GAP {
                let dist = exact_distance(request.distance, annotated, query, &assignment, k_star);
                let better = best
                    .as_ref()
                    .map(|(_, d)| dist < *d - qr_milp::tol::ZERO_TOL)
                    .unwrap_or(true);
                if better {
                    best = Some((assignment, dist));
                }
            }

            // Advance the odometer.
            if dimensions.is_empty() {
                break;
            }
            let mut pos = 0;
            // lint: no-cancel-poll(bounded by the predicate count per advance; the enclosing 'search loop polls every candidate)
            loop {
                counters[pos] += 1;
                if counters[pos] < dimensions[pos] {
                    break;
                }
                counters[pos] = 0;
                pos += 1;
                if pos == dimensions.len() {
                    break 'search;
                }
            }
        }

        let total = start.elapsed();
        let stats = RefinementStats {
            model_build_time: setup_time,
            solver_time: total.saturating_sub(setup_time),
            total_time: total,
            scope_size: annotated.len(),
            candidates_evaluated: evaluated,
            interrupted,
            ..RefinementStats::default()
        };
        let best = best.map(|(assignment, _)| {
            session.describe(
                annotated,
                constraints,
                request.distance,
                k_star,
                assignment,
                None,
            )
        });
        Ok(RefinementResult {
            outcome: RefinementOutcome::from_search(best, exhausted, interrupted),
            stats,
            // The exhaustive baselines have no frontier to suspend; only the
            // session MILP path produces resumable checkpoints.
            resume: None,
        })
    }
}

/// All non-empty subsets of a (small) domain, as value sets.
///
/// The enumeration is exponential in the domain size, so it polls `stop`
/// every stride of masks: a 20-value domain allocates a million sets, which
/// takes whole seconds — far beyond any tight deadline. A triggered stop
/// returns the subsets built so far; the caller's search loop notices the
/// same condition immediately and reports the solve as interrupted.
fn non_empty_subsets(domain: &[String], stop: &StopCondition) -> Vec<BTreeSet<String>> {
    // Cap the enumeration so pathological domains cannot allocate 2^n sets;
    // the search loop's candidate cap / control deadline handles the rest.
    const MAX_DOMAIN_FOR_FULL_ENUMERATION: usize = 20;
    const STOP_POLL_STRIDE: u64 = 4096;
    let n = domain.len().min(MAX_DOMAIN_FOR_FULL_ENUMERATION);
    let mut subsets = Vec::with_capacity((1usize << n) - 1);
    for mask in 1u64..(1u64 << n) {
        if mask % STOP_POLL_STRIDE == 0 && stop.should_stop() {
            break;
        }
        let subset: BTreeSet<String> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| domain[i].clone())
            .collect();
        subsets.push(subset);
    }
    subsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{CardinalityConstraint, ConstraintSet, Group};
    use crate::distance::DistanceMeasure;
    use crate::paper_example::{paper_database, scholarship_constraints, scholarship_query};
    use qr_relation::{Database, SpjQuery};

    /// Search `query` over `db` exhaustively through a fresh session, with
    /// no control.
    fn exhaustive_search(
        db: &Database,
        query: &SpjQuery,
        constraints: &ConstraintSet,
        epsilon: f64,
        distance: DistanceMeasure,
        mode: NaiveMode,
    ) -> Result<RefinementResult> {
        let session = RefinementSession::new(db.clone(), query.clone())?;
        let request = RefinementRequest::new()
            .with_constraints(constraints.clone())
            .with_epsilon(epsilon)
            .with_distance(distance);
        session.solve_with(&NaiveSolver::new(mode), &request)
    }

    #[test]
    fn subsets_enumeration() {
        let domain = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let subsets = non_empty_subsets(&domain, &StopCondition::none());
        assert_eq!(subsets.len(), 7);
        assert!(subsets.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn mode_display_and_from_str_round_trip() {
        for mode in [NaiveMode::Database, NaiveMode::Provenance] {
            assert_eq!(mode.to_string().parse::<NaiveMode>().unwrap(), mode);
        }
        assert_eq!("prov".parse::<NaiveMode>().unwrap(), NaiveMode::Provenance);
        assert_eq!("DB".parse::<NaiveMode>().unwrap(), NaiveMode::Database);
        assert!("cplex".parse::<NaiveMode>().is_err());
    }

    #[test]
    fn naive_modes_agree_on_the_paper_example() {
        let db = paper_database();
        let query = scholarship_query();
        let constraints = scholarship_constraints();
        let prov = exhaustive_search(
            &db,
            &query,
            &constraints,
            0.0,
            DistanceMeasure::Predicate,
            NaiveMode::Provenance,
        )
        .unwrap();
        let dbms = exhaustive_search(
            &db,
            &query,
            &constraints,
            0.0,
            DistanceMeasure::Predicate,
            NaiveMode::Database,
        )
        .unwrap();
        assert!(prov.outcome.is_proven_terminal() && dbms.outcome.is_proven_terminal());
        assert_eq!(
            prov.stats.candidates_evaluated,
            dbms.stats.candidates_evaluated
        );
        let prov = prov.outcome.refined().expect("refinement exists");
        let dbms = dbms.outcome.refined().expect("refinement exists");
        assert!((prov.distance - dbms.distance).abs() < 1e-9);
        assert_eq!(prov.deviation, 0.0);
        assert_eq!(dbms.deviation, 0.0);
    }

    #[test]
    fn naive_matches_milp_optimum_on_predicate_distance() {
        let db = paper_database();
        let query = scholarship_query();
        let constraints = scholarship_constraints();
        let naive = exhaustive_search(
            &db,
            &query,
            &constraints,
            0.0,
            DistanceMeasure::Predicate,
            NaiveMode::Provenance,
        )
        .unwrap();
        let naive_dist = naive.outcome.refined().expect("refinement exists").distance;

        let milp = RefinementSession::new(db, query)
            .unwrap()
            .solve(
                &RefinementRequest::new()
                    .with_constraints(constraints)
                    .with_epsilon(0.0)
                    .with_distance(DistanceMeasure::Predicate),
            )
            .unwrap();
        let refined = milp.outcome.refined().expect("refinement exists");
        assert!(
            (refined.distance - naive_dist).abs() < 1e-6,
            "MILP distance {} vs naive optimum {}",
            refined.distance,
            naive_dist
        );
    }

    #[test]
    fn naive_matches_milp_optimum_on_jaccard_distance() {
        let db = paper_database();
        let query = scholarship_query();
        let constraints = ConstraintSet::new().with(CardinalityConstraint::at_least(
            Group::single("Gender", "F"),
            6,
            3,
        ));
        let naive = exhaustive_search(
            &db,
            &query,
            &constraints,
            0.0,
            DistanceMeasure::JaccardTopK,
            NaiveMode::Provenance,
        )
        .unwrap();
        let naive_dist = naive.outcome.refined().expect("refinement exists").distance;
        let milp = RefinementSession::new(db, query)
            .unwrap()
            .solve(
                &RefinementRequest::new()
                    .with_constraints(constraints)
                    .with_epsilon(0.0)
                    .with_distance(DistanceMeasure::JaccardTopK),
            )
            .unwrap();
        let refined = milp.outcome.refined().expect("refinement exists");
        assert!(
            refined.distance <= naive_dist + 1e-6,
            "MILP Jaccard distance {} should not exceed the naive optimum {}",
            refined.distance,
            naive_dist
        );
    }

    #[test]
    fn infeasible_case_returns_no_candidate() {
        use qr_relation::{DataType, Relation, SortOrder};
        let mut db = Database::new();
        db.insert(
            Relation::build("T")
                .column("X", DataType::Text)
                .column("Y", DataType::Text)
                .column("Z", DataType::Int)
                .rows(vec![
                    vec!["A".into(), "C".into(), 6.into()],
                    vec!["A".into(), "D".into(), 5.into()],
                    vec!["A".into(), "D".into(), 4.into()],
                    vec!["B".into(), "C".into(), 3.into()],
                    vec!["A".into(), "C".into(), 2.into()],
                    vec!["B".into(), "D".into(), 1.into()],
                ])
                .finish()
                .unwrap(),
        )
        .expect("fresh relation name");
        let query = SpjQuery::builder("T")
            .categorical_predicate("Y", ["C", "D"])
            .order_by("Z", SortOrder::Descending)
            .build()
            .unwrap();
        let constraints = ConstraintSet::new().with(CardinalityConstraint::at_least(
            Group::single("X", "B"),
            3,
            2,
        ));
        let result = exhaustive_search(
            &db,
            &query,
            &constraints,
            0.0,
            DistanceMeasure::Predicate,
            NaiveMode::Provenance,
        )
        .unwrap();
        // An exhausted search with no candidate proves infeasibility.
        assert!(matches!(
            result.outcome,
            RefinementOutcome::NoRefinement {
                proven_infeasible: true
            }
        ));
    }

    #[test]
    fn candidate_cap_is_respected() {
        let session = RefinementSession::new(paper_database(), scholarship_query()).unwrap();
        let request = RefinementRequest::new()
            .with_constraints(scholarship_constraints())
            .with_epsilon(0.5)
            .with_distance(DistanceMeasure::Predicate);
        let result = NaiveSolver::new(NaiveMode::Provenance)
            .search(&session, &request, 5)
            .unwrap();
        assert_eq!(result.stats.candidates_evaluated, 5);
        // The cap stops the enumeration short, so nothing is proven.
        assert!(!result.outcome.is_proven_terminal());
    }
}
