//! Server-side observability: lock-free request counters, per-stage latency
//! sums, and the folded per-solve statistics behind the `metrics` op.
//!
//! Counters are plain relaxed atomics — they are monotone tallies with no
//! cross-counter invariant, so a metrics scrape may observe a request that
//! has been accepted but not yet finished; that skew is inherent to live
//! counters and harmless. The `solver` block's totals (which *do* update
//! many rows per solve) sit behind a poison-recovering mutex instead.

use crate::json::Json;
use crate::pool::PoolCounters;
use crate::resume::ResumeCounters;
use qr_core::{lock_or_recover, RefinementStats};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How a `solver`-block row folds one solve's value into its total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// The sum over solves.
    Sum,
    /// The largest value seen.
    Max,
}

/// Number of rows, and so of keys, in the `solver` block.
const SOLVER_ROWS: usize = 25;

/// The `solver` block's one table, in render order: `solves`, then a row per
/// reported [`RefinementStats`] field. A row is its key, its fold, and this
/// solve's value (times in milliseconds). The stats are destructured
/// exhaustively, so a new field is a compile error here until it gets a row
/// or a stated reason to be skipped.
fn solver_rows(stats: &RefinementStats) -> [(&'static str, Fold, f64); SOLVER_ROWS] {
    use Fold::{Max, Sum};
    let RefinementStats {
        annotation_time,
        model_build_time,
        solver_time,
        total_time,
        num_variables,
        num_constraints,
        scope_size,
        nodes,
        lp_solves,
        simplex_iterations,
        warm_lp_solves,
        cold_lp_solves,
        refactorizations,
        eta_updates,
        lu_nnz,
        matrix_nnz,
        candidates_evaluated,
        interrupted,
        resumed_solves,
        nodes_restored,
        resume_captures,
        cache_hits,
        cache_misses,
        cache_warm_starts,
    } = *stats;
    let ms = |time: Duration| time.as_secs_f64() * 1e3;
    let n = |count: usize| count as f64;
    [
        ("solves", Sum, 1.0),
        // Counts the solves that ended interrupted.
        ("interrupted", Sum, n(usize::from(interrupted))),
        ("annotation_ms", Sum, ms(annotation_time)),
        ("model_build_ms", Sum, ms(model_build_time)),
        ("solver_ms", Sum, ms(solver_time)),
        ("total_ms", Sum, ms(total_time)),
        ("nodes", Sum, n(nodes)),
        ("lp_solves", Sum, n(lp_solves)),
        ("simplex_iterations", Sum, n(simplex_iterations)),
        ("warm_lp_solves", Sum, n(warm_lp_solves)),
        ("cold_lp_solves", Sum, n(cold_lp_solves)),
        ("refactorizations", Sum, n(refactorizations)),
        ("eta_updates", Sum, n(eta_updates)),
        ("resumed_solves", Sum, n(resumed_solves)),
        ("nodes_restored", Sum, n(nodes_restored)),
        ("resume_captures", Sum, n(resume_captures)),
        ("cache_hits", Sum, n(cache_hits)),
        ("cache_misses", Sum, n(cache_misses)),
        ("cache_warm_starts", Sum, n(cache_warm_starts)),
        ("candidates_evaluated", Sum, n(candidates_evaluated)),
        ("max_variables", Max, n(num_variables)),
        ("max_constraints", Max, n(num_constraints)),
        ("max_scope", Max, n(scope_size)),
        ("max_lu_nnz", Max, n(lu_nnz)),
        ("max_matrix_nnz", Max, n(matrix_nnz)),
    ]
}

/// All server counters and the folded solver statistics. One per server,
/// shared by every connection and worker via `Arc`.
#[derive(Default)]
pub struct Metrics {
    /// Requests admitted to the solve queue.
    pub accepted: AtomicUsize,
    /// Requests refused admission (queue depth / estimated wait).
    pub shed: AtomicUsize,
    /// Admitted solves cancelled because their client went away (or the
    /// server drained) before completion.
    pub cancelled: AtomicUsize,
    /// Admitted solves that hit their deadline and returned a degraded
    /// (incumbent-carrying) response.
    pub timed_out: AtomicUsize,
    /// Admitted solves that completed normally.
    pub completed: AtomicUsize,
    /// Malformed requests answered with `bad_request`.
    pub bad_requests: AtomicUsize,
    /// `resume` requests received (token redemption attempts, valid or not).
    pub resume_ops: AtomicUsize,
    /// Worker panics converted to `internal` errors.
    pub internal_errors: AtomicUsize,
    /// Connections whose read timed out (byte-dribbling or idle clients).
    pub read_timeouts: AtomicUsize,
    /// Total connections accepted.
    pub connections: AtomicUsize,
    /// Current solve-queue depth (incremented at enqueue, decremented when a
    /// worker picks the job up).
    pub queue_depth: AtomicUsize,

    /// Summed time jobs spent waiting in the queue, in microseconds.
    pub queue_wait_us: AtomicU64,
    /// Summed time jobs spent inside `RefinementSession::solve`, in
    /// microseconds.
    pub solve_us: AtomicU64,
    /// Summed time spent building/fetching pool sessions, in microseconds.
    pub session_us: AtomicU64,

    /// The `solver` block's totals over every finished solve, one per row
    /// of `solver_rows`.
    solver: Mutex<[f64; SOLVER_ROWS]>,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one finished solve's statistics.
    pub fn record_stats(&self, stats: &RefinementStats) {
        let mut totals = lock_or_recover(&self.solver);
        for (total, (_, fold, value)) in totals.iter_mut().zip(solver_rows(stats)) {
            *total = match fold {
                Fold::Sum => *total + value,
                Fold::Max => total.max(value),
            };
        }
    }

    /// The `solver` block: each row's key with its total, in table order.
    fn solver_block(&self) -> Json {
        let totals = *lock_or_recover(&self.solver);
        // The keys do not depend on the stats, so an all-zero solve's rows
        // supply them.
        let keys = solver_rows(&RefinementStats::default()).map(|(key, _, _)| key);
        Json::obj(keys.into_iter().zip(totals.map(Json::Num)).collect())
    }

    /// Add a duration to a microsecond latency counter.
    pub fn add_latency(counter: &AtomicU64, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        counter.fetch_add(us, Ordering::Relaxed);
    }

    /// Render the full metrics payload for a `metrics` response.
    pub fn render(&self, id: Option<&Json>, pool: PoolCounters, resume: ResumeCounters) -> String {
        let load = |c: &AtomicUsize| Json::count(c.load(Ordering::Relaxed));
        let us = |c: &AtomicU64| Json::Num(c.load(Ordering::Relaxed) as f64 / 1e3);

        let server = Json::obj(vec![
            ("accepted", load(&self.accepted)),
            ("shed", load(&self.shed)),
            ("cancelled", load(&self.cancelled)),
            ("timed_out", load(&self.timed_out)),
            ("completed", load(&self.completed)),
            ("bad_requests", load(&self.bad_requests)),
            ("resume_ops", load(&self.resume_ops)),
            ("internal_errors", load(&self.internal_errors)),
            ("read_timeouts", load(&self.read_timeouts)),
            ("connections", load(&self.connections)),
            ("queue_depth", load(&self.queue_depth)),
        ]);
        let latency = Json::obj(vec![
            ("queue_wait_ms", us(&self.queue_wait_us)),
            ("solve_ms", us(&self.solve_us)),
            ("session_ms", us(&self.session_us)),
        ]);
        let pool = Json::obj(vec![
            ("resident_sessions", Json::count(pool.resident)),
            ("session_builds", Json::count(pool.builds)),
            ("session_evictions", Json::count(pool.evictions)),
        ]);
        let resume = Json::obj(vec![
            ("resident_checkpoints", Json::count(resume.resident)),
            ("tokens_issued", Json::count(resume.issued)),
            ("tokens_redeemed", Json::count(resume.redeemed)),
            ("tokens_expired", Json::count(resume.expired)),
            ("tokens_evicted", Json::count(resume.evicted)),
        ]);
        let mut pairs = vec![
            ("ok".to_string(), Json::Bool(true)),
            ("server".to_string(), server),
            ("latency".to_string(), latency),
            ("pool".to_string(), pool),
            ("resume".to_string(), resume),
            ("solver".to_string(), self.solver_block()),
        ];
        if let Some(id) = id {
            pairs.insert(0, ("id".to_string(), id.clone()));
        }
        Json::Obj(pairs).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact key list of an object block, in render order.
    fn keys(block: &Json) -> Vec<&str> {
        match block {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object block, got {other:?}"),
        }
    }

    #[test]
    fn renders_every_counter_as_valid_json() {
        let m = Metrics::new();
        m.accepted.store(3, Ordering::Relaxed);
        m.shed.store(1, Ordering::Relaxed);
        Metrics::add_latency(&m.solve_us, Duration::from_millis(5));
        // One cache-hit solve, so the reuse counters are exercised end to
        // end, not just present.
        let solved = RefinementStats {
            cache_hits: 1,
            ..Default::default()
        };
        m.record_stats(&solved);
        let rendered = m.render(
            Some(&Json::str("m1")),
            PoolCounters {
                resident: 2,
                builds: 4,
                evictions: 2,
            },
            ResumeCounters {
                resident: 1,
                issued: 3,
                redeemed: 2,
                expired: 0,
                evicted: 0,
            },
        );
        let v = Json::parse(&rendered).expect("valid JSON");
        assert_eq!(
            keys(&v),
            ["id", "ok", "server", "latency", "pool", "resume", "solver"]
        );
        assert_eq!(v.get("id").and_then(Json::as_str), Some("m1"));

        // Each block's key set is pinned exactly: scrapers (the benchmark's
        // serve workload among them) read a missing key as 0, so a rename
        // must fail here instead of silently zeroing a metric downstream.
        let server = v.get("server").expect("server block");
        assert_eq!(
            keys(server),
            [
                "accepted",
                "shed",
                "cancelled",
                "timed_out",
                "completed",
                "bad_requests",
                "resume_ops",
                "internal_errors",
                "read_timeouts",
                "connections",
                "queue_depth",
            ]
        );
        assert_eq!(server.get("accepted").and_then(Json::as_u64), Some(3));
        assert_eq!(server.get("shed").and_then(Json::as_u64), Some(1));
        let latency = v.get("latency").expect("latency block");
        assert_eq!(keys(latency), ["queue_wait_ms", "solve_ms", "session_ms"]);
        assert_eq!(latency.get("solve_ms").and_then(Json::as_f64), Some(5.0));
        let pool = v.get("pool").expect("pool block");
        assert_eq!(
            keys(pool),
            ["resident_sessions", "session_builds", "session_evictions"]
        );
        assert_eq!(
            pool.get("session_evictions").and_then(Json::as_u64),
            Some(2)
        );
        let resume = v.get("resume").expect("resume block");
        assert_eq!(
            keys(resume),
            [
                "resident_checkpoints",
                "tokens_issued",
                "tokens_redeemed",
                "tokens_expired",
                "tokens_evicted",
            ]
        );
        assert_eq!(resume.get("tokens_issued").and_then(Json::as_u64), Some(3));
        assert_eq!(
            resume.get("resident_checkpoints").and_then(Json::as_u64),
            Some(1)
        );
        let solver = v.get("solver").expect("solver block");
        assert_eq!(
            keys(solver),
            [
                "solves",
                "interrupted",
                "annotation_ms",
                "model_build_ms",
                "solver_ms",
                "total_ms",
                "nodes",
                "lp_solves",
                "simplex_iterations",
                "warm_lp_solves",
                "cold_lp_solves",
                "refactorizations",
                "eta_updates",
                "resumed_solves",
                "nodes_restored",
                "resume_captures",
                "cache_hits",
                "cache_misses",
                "cache_warm_starts",
                "candidates_evaluated",
                "max_variables",
                "max_constraints",
                "max_scope",
                "max_lu_nnz",
                "max_matrix_nnz",
            ]
        );
        assert_eq!(solver.get("solves").and_then(Json::as_u64), Some(1));
        assert_eq!(solver.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(solver.get("cache_misses").and_then(Json::as_u64), Some(0));
        assert_eq!(
            solver.get("cache_warm_starts").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn solver_rows_start_at_zero_then_sum_or_keep_the_maximum() {
        let m = Metrics::new();
        let fresh = m.solver_block();
        assert_eq!(keys(&fresh).len(), SOLVER_ROWS);
        for key in keys(&fresh) {
            assert_eq!(fresh.get(key).and_then(Json::as_f64), Some(0.0), "{key}");
        }

        let solve = |nodes, build_ms, num_variables, lu_nnz, interrupted| RefinementStats {
            nodes,
            model_build_time: Duration::from_millis(build_ms),
            num_variables,
            lu_nnz,
            interrupted,
            ..Default::default()
        };
        m.record_stats(&solve(3, 2, 10, 50, true));
        m.record_stats(&solve(4, 3, 7, 80, false));
        let solver = m.solver_block();
        let value = |key| solver.get(key).and_then(Json::as_f64);
        assert_eq!(value("solves"), Some(2.0));
        // Sum rows add the two solves.
        assert_eq!(value("nodes"), Some(7.0));
        assert_eq!(value("model_build_ms"), Some(5.0));
        // `max_*` rows keep the larger value, whichever solve brought it.
        assert_eq!(value("max_variables"), Some(10.0));
        assert_eq!(value("max_lu_nnz"), Some(80.0));
        // `interrupted` counts the solves that were.
        assert_eq!(value("interrupted"), Some(1.0));
    }

    #[test]
    fn absurd_latencies_clamp_instead_of_panicking() {
        let c = AtomicU64::new(0);
        Metrics::add_latency(&c, Duration::MAX);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX);
    }
}
