//! Server-side observability: lock-free request counters, per-stage latency
//! sums, and the aggregated solver statistics behind the `metrics` op.
//!
//! Counters are plain relaxed atomics — they are monotone tallies with no
//! cross-counter invariant, so a metrics scrape may observe a request that
//! has been accepted but not yet finished; that skew is inherent to live
//! counters and harmless. The [`StatsAggregate`] (which *does* update many
//! fields per solve) sits behind a poison-recovering mutex instead.

use crate::json::Json;
use crate::pool::PoolCounters;
use crate::resume::ResumeCounters;
use qr_core::{lock_or_recover, RefinementStats, StatsAggregate};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// All server counters and the solver-stats aggregate. One per server,
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

    /// Aggregated per-solve statistics (exhaustive-destructure discipline
    /// lives in `qr_core`).
    pub stats: Mutex<StatsAggregate>,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one finished solve's statistics.
    pub fn record_stats(&self, stats: &RefinementStats) {
        lock_or_recover(&self.stats).record(stats);
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
        let agg = lock_or_recover(&self.stats).clone();
        let solver = Json::obj(vec![
            ("solves", Json::count(agg.solves)),
            ("interrupted", Json::count(agg.interrupted)),
            ("annotation_ms", Json::millis(agg.annotation_time)),
            ("model_build_ms", Json::millis(agg.model_build_time)),
            ("solver_ms", Json::millis(agg.solver_time)),
            ("total_ms", Json::millis(agg.total_time)),
            ("nodes", Json::count(agg.nodes)),
            ("lp_solves", Json::count(agg.lp_solves)),
            ("simplex_iterations", Json::count(agg.simplex_iterations)),
            ("warm_lp_solves", Json::count(agg.warm_lp_solves)),
            ("cold_lp_solves", Json::count(agg.cold_lp_solves)),
            ("refactorizations", Json::count(agg.refactorizations)),
            ("eta_updates", Json::count(agg.eta_updates)),
            ("resumed_solves", Json::count(agg.resumed_solves)),
            ("nodes_restored", Json::count(agg.nodes_restored)),
            ("resume_captures", Json::count(agg.resume_captures)),
            ("cache_hits", Json::count(agg.cache_hits)),
            ("cache_misses", Json::count(agg.cache_misses)),
            ("cache_warm_starts", Json::count(agg.cache_warm_starts)),
            (
                "candidates_evaluated",
                Json::count(agg.candidates_evaluated),
            ),
            ("max_variables", Json::count(agg.max_variables)),
            ("max_constraints", Json::count(agg.max_constraints)),
            ("max_scope", Json::count(agg.max_scope)),
            ("max_lu_nnz", Json::count(agg.max_lu_nnz)),
            ("max_matrix_nnz", Json::count(agg.max_matrix_nnz)),
        ]);

        let mut pairs = vec![
            ("ok".to_string(), Json::Bool(true)),
            ("server".to_string(), server),
            ("latency".to_string(), latency),
            ("pool".to_string(), pool),
            ("resume".to_string(), resume),
            ("solver".to_string(), solver),
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
    fn absurd_latencies_clamp_instead_of_panicking() {
        let c = AtomicU64::new(0);
        Metrics::add_latency(&c, Duration::MAX);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX);
    }
}
