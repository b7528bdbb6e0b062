//! Answers, the correctness gate, and the traced replay of one solve through
//! the layers' public functions.
//!
//! [`replay_solve`] calls what `RefinementSession::solve_on` calls, in the
//! same order — cache lookup, `build_model`, the identity fast-path check,
//! `Solver::solve_with_control` (or its warm variant), then the exact
//! distance and deviation of the answer — with a span around each call, so a
//! traced run can say which layer a request's time went to.

use crate::trace::Tracer;
use qr_core::{
    build_model, exact_deviation, exact_distance, CacheKey, RefinedQuery, RefinementOutcome,
    RefinementRequest, RefinementResult, RefinementStats, SolutionCache,
};
use qr_milp::control::{SolveObserver, SolveProgress};
use qr_milp::{SolveStatus, Solver, WarmStart};
use qr_provenance::whatif::evaluate_refinement;
use qr_provenance::{AnnotatedRelation, PredicateAssignment};
use qr_relation::sql::ToSql;
use qr_relation::{evaluate_relaxed_traced, Database, SpjQuery};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Answers agree when their distances differ by at most this much.
pub const DISTANCE_TOL: f64 = 1e-9;

/// The comparable part of one answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// `refined`, `no_refinement`, `no_refinement_within_limits` or
    /// `interrupted` (the wire protocol's outcome names).
    pub outcome: String,
    pub proven: bool,
    pub distance: Option<f64>,
    pub deviation: Option<f64>,
    pub sql: Option<String>,
}

impl Answer {
    pub fn of(outcome: &RefinementOutcome) -> Self {
        let (name, proven) = match outcome {
            RefinementOutcome::Refined(r) => ("refined", r.proven_optimal),
            RefinementOutcome::NoRefinement {
                proven_infeasible: true,
            } => ("no_refinement", true),
            RefinementOutcome::NoRefinement { .. } => ("no_refinement_within_limits", false),
            RefinementOutcome::Interrupted { .. } => ("interrupted", false),
        };
        let refined = outcome.refined();
        Answer {
            outcome: name.to_string(),
            proven,
            distance: refined.map(|r| r.distance),
            deviation: refined.map(|r| r.deviation),
            sql: refined.map(|r| r.query.to_sql()),
        }
    }

    /// The correctness gate's first half: a proven answer whose outcome,
    /// proven flag and distance equal the reference's.
    pub fn check_against(&self, reference: &Answer) -> Result<(), String> {
        if !self.proven {
            return Err(format!("unproven answer ({})", self.outcome));
        }
        if self.outcome != reference.outcome || self.proven != reference.proven {
            return Err(format!(
                "outcome {} (proven {}) but the reference is {} (proven {})",
                self.outcome, self.proven, reference.outcome, reference.proven
            ));
        }
        match (self.distance, reference.distance) {
            (Some(a), Some(b)) if (a - b).abs() <= DISTANCE_TOL => Ok(()),
            (None, None) => Ok(()),
            (a, b) => Err(format!("distance {a:?} but the reference is {b:?}")),
        }
    }
}

/// The correctness gate's second half: re-evaluate a refinement's deviation
/// independently and require it to be within ε and equal to the reported one.
pub fn check_deviation(
    annotated: &AnnotatedRelation,
    request: &RefinementRequest,
    refined: &RefinedQuery,
) -> Result<(), String> {
    let (deviation, _) = exact_deviation(annotated, &request.constraints, &refined.assignment);
    if deviation > request.epsilon + DISTANCE_TOL {
        return Err(format!(
            "re-evaluated deviation {deviation} exceeds ε = {}",
            request.epsilon
        ));
    }
    if (deviation - refined.deviation).abs() > DISTANCE_TOL {
        return Err(format!(
            "reported deviation {} but re-evaluated {deviation}",
            refined.deviation
        ));
    }
    Ok(())
}

/// The gate for an answer that returns the original query itself, without a
/// reference solve: no refinement is closer than distance 0, so when the
/// original query is a valid refinement — at least k* tuples and a deviation
/// within ε, both re-evaluated here — a reference solve must answer
/// `refined`, proven, at distance 0. `None` when the answer is not the
/// original query; the caller then needs a reference solve.
pub fn check_identity(
    annotated: &AnnotatedRelation,
    query: &SpjQuery,
    request: &RefinementRequest,
    outcome: &RefinementOutcome,
) -> Option<Result<(), String>> {
    let refined = outcome.refined()?;
    let identity = PredicateAssignment::from_query(query);
    if refined.assignment != identity {
        return None;
    }
    let checked = (|| {
        if !refined.proven_optimal {
            return Err("unproven answer (refined)".to_string());
        }
        let k_star = request.constraints.k_star();
        let selected = evaluate_refinement(annotated, &identity).selected.len();
        if selected < k_star {
            return Err(format!(
                "the original query selects {selected} tuples, fewer than k* = {k_star}"
            ));
        }
        let distance = exact_distance(request.distance, annotated, query, &identity, k_star);
        if distance.abs() > DISTANCE_TOL || refined.distance.abs() > DISTANCE_TOL {
            return Err(format!(
                "distance {} but the original query's re-evaluates to {distance}, and the reference is 0",
                refined.distance
            ));
        }
        check_deviation(annotated, request, refined)
    })();
    Some(checked)
}

/// Both halves of the gate for a library answer.
pub fn check_result(
    annotated: &AnnotatedRelation,
    request: &RefinementRequest,
    result: &RefinementResult,
    reference: &Answer,
) -> Result<(), String> {
    Answer::of(&result.outcome).check_against(reference)?;
    match result.outcome.refined() {
        Some(refined) => check_deviation(annotated, request, refined),
        None => Ok(()),
    }
}

/// Work counters gathered by traced replays, summed over requests.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub requests: usize,
    pub builds: usize,
    pub model_vars: usize,
    pub model_rows: usize,
    pub fastpath: usize,
    pub describes: usize,
    pub solver_calls: usize,
    pub nodes: usize,
    pub lp_solves: usize,
    pub pivots: usize,
    pub warm_lps: usize,
    pub cold_lps: usize,
    pub refactorizations: usize,
    pub eta_updates: usize,
    pub lu_fill: f64,
    pub root_ms: Vec<f64>,
    pub first_incumbent_ms: Vec<f64>,
    pub writes: usize,
    pub rebuilds: usize,
    pub annotations: usize,
    pub tuples: usize,
    pub lineage_classes: usize,
}

/// Records when a solve first proves a bound (the root LP) and first finds
/// an incumbent.
struct FirstEvents {
    start: Instant,
    root: OnceLock<f64>,
    incumbent: OnceLock<f64>,
}

impl FirstEvents {
    fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

impl SolveObserver for FirstEvents {
    fn bound_improved(&self, _: &SolveProgress) {
        let _ = self.root.set(self.elapsed_ms());
    }

    fn incumbent_found(&self, _: &SolveProgress) {
        let _ = self.incumbent.set(self.elapsed_ms());
    }
}

/// The session's cache, as the replay sees it: the store and the snapshot
/// version requests are keyed by.
pub struct CacheView<'a> {
    pub cache: &'a SolutionCache,
    pub version: u64,
}

/// The traced set-up of one session: the join `AnnotatedRelation::build`
/// starts with, on its own, then the whole build (`provenance.annotate_ms`
/// is the difference).
pub fn annotate(
    t: &mut Tracer,
    c: &mut Counters,
    db: &Database,
    query: &SpjQuery,
) -> qr_relation::Result<AnnotatedRelation> {
    t.span("relation.join", |_| evaluate_relaxed_traced(db, query))?;
    let a = t.span("provenance.annotate", |_| {
        AnnotatedRelation::build(db, query)
    })?;
    c.annotations += 1;
    c.tuples += a.len();
    c.lineage_classes += a.classes().len();
    Ok(a)
}

/// Replay one solve of `request` against `annotated` (the annotations of
/// `query` over the current database) through the layers' public functions,
/// in the order the session calls them.
pub fn replay_solve(
    t: &mut Tracer,
    c: &mut Counters,
    annotated: &AnnotatedRelation,
    query: &SpjQuery,
    request: &RefinementRequest,
    cache: Option<&CacheView<'_>>,
) -> Result<Answer, String> {
    c.requests += 1;
    let key = cache.map(|v| CacheKey::for_request(v.version, request));
    if let (Some(view), Some(key)) = (cache, &key) {
        if let Some(hit) = t.span("core.cache", |_| view.cache.lookup_exact(key)) {
            return Ok(Answer::of(&hit.outcome));
        }
    }

    let built = t
        .span("core.model_build", |_| {
            build_model(
                annotated,
                &request.constraints,
                request.epsilon,
                request.distance,
                &request.optimizations,
            )
        })
        .map_err(|e| e.to_string())?;
    c.builds += 1;
    c.model_vars += built.model.num_variables();
    c.model_rows += built.model.num_constraints();

    let identity = PredicateAssignment::from_query(query);
    let (selected, identity_deviation) = t.span("provenance.whatif", |_| {
        let output = evaluate_refinement(annotated, &identity);
        let deviation = request
            .constraints
            .deviation_of_output(annotated, &output.selected);
        (output.selected.len(), deviation)
    });
    if selected >= built.k_star
        && identity_deviation <= request.epsilon + qr_milp::tol::ABSOLUTE_GAP
    {
        c.fastpath += 1;
        let refined = describe(
            t,
            c,
            annotated,
            query,
            request,
            built.k_star,
            identity,
            0.0,
            true,
        );
        let outcome = RefinementOutcome::Refined(refined);
        if let (Some(view), Some(key)) = (cache, key) {
            t.span("core.cache", |_| {
                view.cache.insert(key, None, None, Some(memo(&outcome)))
            });
        }
        return Ok(Answer::of(&outcome));
    }

    let warm = match (cache, &key) {
        (Some(view), Some(key)) => t.span("core.cache", |_| view.cache.lookup_warm(key)),
        _ => None,
    };
    let events = Arc::new(FirstEvents {
        start: Instant::now(),
        root: OnceLock::new(),
        incumbent: OnceLock::new(),
    });
    let control = request.control.clone().with_observer(events.clone());
    let solver = Solver::new(request.solver_options.clone());
    let solution = t
        .span("milp.search", |_| match warm {
            Some(hint) => {
                let mut start = WarmStart::new();
                if let Some(basis) = hint.basis {
                    start = start.with_basis(basis);
                }
                if let Some(incumbent) = hint.incumbent {
                    start = start.with_incumbent(incumbent);
                }
                solver.solve_warm_with_control(&built.model, &start, &control)
            }
            None => solver.solve_with_control(&built.model, &control),
        })
        .map_err(|e| e.to_string())?;
    let s = &solution.stats;
    c.solver_calls += 1;
    c.nodes += s.nodes;
    c.lp_solves += s.lp_solves;
    c.pivots += s.simplex_iterations;
    c.warm_lps += s.warm_lp_solves;
    c.cold_lps += s.cold_lp_solves;
    c.refactorizations += s.refactorizations;
    c.eta_updates += s.eta_updates;
    c.lu_fill += s.lu_fill_ratio();
    c.root_ms.extend(events.root.get());
    c.first_incumbent_ms.extend(events.incumbent.get());

    let proven = solution.status == SolveStatus::Optimal;
    let outcome = match solution.status {
        SolveStatus::Optimal | SolveStatus::Feasible => {
            let assignment = built.extract_assignment(&solution.values);
            let refined = describe(
                t,
                c,
                annotated,
                query,
                request,
                built.k_star,
                assignment,
                solution.objective,
                proven,
            );
            RefinementOutcome::Refined(refined)
        }
        SolveStatus::Infeasible | SolveStatus::Unbounded => RefinementOutcome::NoRefinement {
            proven_infeasible: true,
        },
        SolveStatus::LimitReached => RefinementOutcome::NoRefinement {
            proven_infeasible: false,
        },
        SolveStatus::Interrupted => RefinementOutcome::Interrupted { best: None },
    };
    if let (Some(view), Some(key)) = (cache, key) {
        let banked = solution
            .status
            .has_solution()
            .then(|| solution.values.clone());
        let memo = outcome.is_proven_terminal().then(|| memo(&outcome));
        t.span("core.cache", |_| {
            view.cache.insert(key, solution.basis.clone(), banked, memo)
        });
    }
    Ok(Answer::of(&outcome))
}

fn memo(outcome: &RefinementOutcome) -> RefinementResult {
    RefinementResult {
        outcome: outcome.clone(),
        stats: RefinementStats::default(),
        resume: None,
    }
}

/// The exact distance and deviation of an assignment (the session's
/// `describe`).
#[allow(clippy::too_many_arguments)]
fn describe(
    t: &mut Tracer,
    c: &mut Counters,
    annotated: &AnnotatedRelation,
    query: &SpjQuery,
    request: &RefinementRequest,
    k_star: usize,
    assignment: PredicateAssignment,
    objective: f64,
    proven_optimal: bool,
) -> RefinedQuery {
    c.describes += 1;
    t.span("core.describe", |_| {
        let (deviation, _) = exact_deviation(annotated, &request.constraints, &assignment);
        let distance = exact_distance(request.distance, annotated, query, &assignment, k_star);
        RefinedQuery {
            query: assignment.apply_to(query),
            assignment,
            distance,
            objective,
            deviation,
            proven_optimal,
        }
    })
}

/// The server's own numbers for a traced `serve` run (zero elsewhere).
#[derive(Debug, Clone, Default)]
pub struct ServerLayer {
    /// Client round trip minus the response's `stats.total_ms`, for the
    /// first request on a connection and for later ones.
    pub overhead_first_ms: Vec<f64>,
    pub overhead_next_ms: Vec<f64>,
    /// `Metrics` sums divided by `accepted`.
    pub queue_wait_ms: f64,
    pub session_fetch_ms: f64,
    pub connections: usize,
    pub shed: usize,
}

/// Everything a traced run hands to [`per_layer`].
pub struct Traced {
    pub tracer: Tracer,
    pub counters: Counters,
    /// Shares and overhead compare the replayed requests from this id on
    /// with their untraced runs; the earlier ones warmed the process up.
    pub first_compared: u64,
    /// Summed untraced latency of the compared operations, as the client
    /// saw it (the blocking path the layers must account for).
    pub untraced_ms: f64,
    /// The part of `untraced_ms` the replay re-runs: the same as
    /// `untraced_ms` for library workloads, the in-library solve time for
    /// `serve`.
    pub replayed_ms: f64,
    /// The part of `untraced_ms` spent outside the library, in the server
    /// and on the wire (`serve` only).
    pub server_ms: f64,
    /// Cache hit and warm-start shares of the untraced requests.
    pub cache_hit_share: f64,
    pub cache_warm_share: f64,
    pub server: ServerLayer,
}

fn mean(values: &[f64]) -> f64 {
    crate::stats::ratio(values.iter().sum(), values.len() as f64)
}

/// The per-layer metrics, in `BENCHMARK.json` order. Times are means per
/// call of the named function; counts are means per solver call or model
/// build; shares are of the untraced blocking-path latency.
pub fn per_layer(traced: &Traced) -> Vec<crate::stats::Metric> {
    use crate::stats::{ratio, Metric};
    let totals = traced.tracer.totals();
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |name: &str| ratio(span(name).ms, span(name).count as f64);
    let c = &traced.counters;
    let calls = c.solver_calls as f64;
    let builds = c.builds as f64;
    let search = span("milp.search");
    let join = span("relation.join");
    let annotate = span("provenance.annotate");
    let server = &traced.server;
    let first = traced.first_compared;
    let layers = traced.tracer.layer_self_ms(first);
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let share = |ms: f64| ratio(ms, traced.untraced_ms);
    let accounted = layers.values().sum::<f64>() + traced.server_ms;
    let replayed =
        traced.tracer.span_ms("core.solve", first) + traced.tracer.span_ms("core.apply", first);
    vec![
        Metric::new(
            "milp.search_ms",
            "ms",
            per_call("milp.search"),
            search.count,
        ),
        Metric::new("milp.root_ms", "ms", mean(&c.root_ms), c.root_ms.len()),
        Metric::new(
            "milp.first_incumbent_ms",
            "ms",
            mean(&c.first_incumbent_ms),
            c.first_incumbent_ms.len(),
        ),
        Metric::new(
            "milp.nodes",
            "count",
            ratio(c.nodes as f64, calls),
            c.solver_calls,
        ),
        Metric::new(
            "milp.lp_solves",
            "count",
            ratio(c.lp_solves as f64, calls),
            c.solver_calls,
        ),
        Metric::new(
            "milp.pivots",
            "count",
            ratio(c.pivots as f64, calls),
            c.solver_calls,
        ),
        Metric::new(
            "milp.us_per_pivot",
            "us",
            ratio(search.ms * 1e3, c.pivots as f64),
            c.pivots,
        ),
        Metric::new(
            "milp.warm_lp_share",
            "ratio",
            ratio(c.warm_lps as f64, (c.warm_lps + c.cold_lps) as f64),
            c.warm_lps + c.cold_lps,
        ),
        Metric::new(
            "milp.refactorizations",
            "count",
            ratio(c.refactorizations as f64, calls),
            c.solver_calls,
        ),
        Metric::new(
            "milp.eta_updates",
            "count",
            ratio(c.eta_updates as f64, calls),
            c.solver_calls,
        ),
        Metric::new(
            "milp.lu_fill_ratio",
            "ratio",
            ratio(c.lu_fill, calls),
            c.solver_calls,
        ),
        Metric::new(
            "core.model_build_ms",
            "ms",
            per_call("core.model_build"),
            c.builds,
        ),
        Metric::new(
            "core.model_vars",
            "count",
            ratio(c.model_vars as f64, builds),
            c.builds,
        ),
        Metric::new(
            "core.model_rows",
            "count",
            ratio(c.model_rows as f64, builds),
            c.builds,
        ),
        Metric::new(
            "core.fastpath_share",
            "ratio",
            ratio(c.fastpath as f64, builds),
            c.builds,
        ),
        Metric::new(
            "core.describe_ms",
            "ms",
            per_call("core.describe"),
            c.describes,
        ),
        Metric::new(
            "core.cache_hit_share",
            "ratio",
            traced.cache_hit_share,
            c.requests,
        ),
        Metric::new(
            "core.cache_warm_share",
            "ratio",
            traced.cache_warm_share,
            c.requests,
        ),
        Metric::new(
            "provenance.annotate_ms",
            "ms",
            (per_call("provenance.annotate") - per_call("relation.join")).max(0.0),
            annotate.count,
        ),
        Metric::new(
            "provenance.repair_ms",
            "ms",
            per_call("provenance.repair"),
            c.writes,
        ),
        Metric::new(
            "provenance.rebuild_share",
            "ratio",
            ratio(c.rebuilds as f64, c.writes as f64),
            c.writes,
        ),
        Metric::new(
            "provenance.whatif_ms",
            "ms",
            per_call("provenance.whatif"),
            span("provenance.whatif").count,
        ),
        Metric::new(
            "provenance.tuples",
            "count",
            ratio(c.tuples as f64, c.annotations as f64),
            c.annotations,
        ),
        Metric::new(
            "provenance.lineage_classes",
            "count",
            ratio(c.lineage_classes as f64, c.annotations as f64),
            c.annotations,
        ),
        Metric::new(
            "relation.join_ms",
            "ms",
            per_call("relation.join"),
            join.count,
        ),
        Metric::new(
            "relation.copy_ms",
            "ms",
            per_call("relation.copy"),
            c.writes,
        ),
        Metric::new(
            "relation.mutate_ms",
            "ms",
            per_call("relation.mutate"),
            c.writes,
        ),
        Metric::new(
            "server.overhead_first_ms",
            "ms",
            mean(&server.overhead_first_ms),
            server.overhead_first_ms.len(),
        ),
        Metric::new(
            "server.overhead_next_ms",
            "ms",
            mean(&server.overhead_next_ms),
            server.overhead_next_ms.len(),
        ),
        Metric::new(
            "server.queue_wait_ms",
            "ms",
            server.queue_wait_ms,
            server.connections,
        ),
        Metric::new(
            "server.session_fetch_ms",
            "ms",
            server.session_fetch_ms,
            server.connections,
        ),
        Metric::new("server.connections", "count", server.connections as f64, 1),
        Metric::new("server.shed", "count", server.shed as f64, 1),
        Metric::new("share.milp", "ratio", share(layer("milp")), c.requests),
        Metric::new("share.core", "ratio", share(layer("core")), c.requests),
        Metric::new(
            "share.provenance",
            "ratio",
            share(layer("provenance")),
            c.requests,
        ),
        Metric::new(
            "share.relation",
            "ratio",
            share(layer("relation")),
            c.requests,
        ),
        Metric::new("share.server", "ratio", share(traced.server_ms), c.requests),
        Metric::new(
            "trace.remainder_share",
            "ratio",
            share(traced.untraced_ms - accounted),
            c.requests,
        ),
        Metric::new(
            "trace.overhead_share",
            "ratio",
            ratio(replayed - traced.replayed_ms, traced.replayed_ms),
            c.requests,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_core::paper_example::{paper_database, scholarship_constraints, scholarship_query};
    use qr_core::RefinementSession;
    use std::time::Duration;

    fn session_and_request() -> (RefinementSession, RefinementRequest) {
        let session = RefinementSession::new(paper_database(), scholarship_query()).unwrap();
        let request = RefinementRequest::new()
            .with_constraints(scholarship_constraints())
            .with_epsilon(0.0);
        (session, request)
    }

    #[test]
    fn a_right_answer_passes_the_gate() {
        let (session, request) = session_and_request();
        let result = session.solve(&request).unwrap();
        let reference = Answer::of(&result.outcome);
        check_result(
            session.snapshot().annotated(),
            &request,
            &result,
            &reference,
        )
        .unwrap();
    }

    #[test]
    fn a_seeded_wrong_answer_fails_the_gate() {
        let (session, request) = session_and_request();
        let result = session.solve(&request).unwrap();
        let annotated = session.snapshot().annotated().clone();
        let mut reference = Answer::of(&result.outcome);
        reference.distance = reference.distance.map(|d| d + 1e-6);
        assert!(check_result(&annotated, &request, &result, &reference).is_err());

        // A misreported deviation is caught by the independent re-evaluation.
        let reference = Answer::of(&result.outcome);
        let mut wrong = result.clone();
        if let RefinementOutcome::Refined(r) = &mut wrong.outcome {
            r.deviation += 0.25;
        }
        assert!(check_result(&annotated, &request, &wrong, &reference).is_err());
    }

    #[test]
    fn an_identity_answer_is_checked_without_a_reference_solve() {
        let (session, request) = session_and_request();
        let loose = request.clone().with_epsilon(1.0);
        let result = session.solve(&loose).unwrap();
        let annotated = session.snapshot().annotated().clone();
        let query = session.query().clone();
        check_identity(&annotated, &query, &loose, &result.outcome)
            .expect("the original query answers ε = 1")
            .unwrap();

        // The same answer to a request the original query does not meet.
        let err = check_identity(&annotated, &query, &request, &result.outcome)
            .expect("still the original query")
            .unwrap_err();
        assert!(err.contains("exceeds"), "{err}");

        // A misreported distance.
        let mut wrong = result.outcome.clone();
        if let RefinementOutcome::Refined(r) = &mut wrong {
            r.distance = 0.5;
        }
        assert!(check_identity(&annotated, &query, &loose, &wrong)
            .expect("still the original query")
            .is_err());

        // A real refinement is left to a reference solve.
        let refined = session.solve(&request).unwrap();
        assert!(check_identity(&annotated, &query, &request, &refined.outcome).is_none());
    }

    #[test]
    fn an_interrupted_solve_fails_the_gate() {
        let (session, request) = session_and_request();
        let reference = Answer::of(&session.solve(&request).unwrap().outcome);
        let interrupted = session
            .solve(&request.with_time_limit(Duration::ZERO))
            .unwrap();
        assert!(interrupted.outcome.is_interrupted());
        let err = Answer::of(&interrupted.outcome)
            .check_against(&reference)
            .unwrap_err();
        assert!(err.contains("unproven"), "{err}");
    }

    #[test]
    fn the_replay_answers_like_the_session() {
        let (session, request) = session_and_request();
        let reference = Answer::of(&session.solve(&request).unwrap().outcome);
        let snapshot = session.snapshot();
        let mut t = Tracer::new();
        let mut c = Counters::default();
        t.set_request(1);
        let replayed = replay_solve(
            &mut t,
            &mut c,
            snapshot.annotated(),
            session.query(),
            &request,
            None,
        )
        .unwrap();
        replayed.check_against(&reference).unwrap();
        assert_eq!((c.requests, c.builds), (1, 1));
        assert!(t.totals().contains_key("core.model_build"));
    }
}
