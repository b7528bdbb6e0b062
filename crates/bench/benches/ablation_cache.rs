//! Ablation: the cross-request solution cache on an ε-sweep. Beyond
//! wall-clock timing, the bench prints the cold-LP/pivot/cache counters from
//! `RefinementStats` — the numbers behind the "a sweep pays for its first
//! point, then coasts" claim.

use criterion::{criterion_group, criterion_main, Criterion};
use qr_bench::{benchmark_request, session_for, tiny_workload, TINY_K};
use qr_core::{ConstraintSet, DistanceMeasure, OptimizationConfig};
use qr_datagen::DatasetId;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_cache");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    let w = tiny_workload(DatasetId::Tpch);
    // A bound the original query violates, so every sweep point runs a real
    // MILP search instead of short-circuiting on the fast path.
    let constraints =
        ConstraintSet::new().with(w.constraint_with_bound(1, TINY_K, Some(TINY_K - 1)));
    let base = benchmark_request(
        &constraints,
        0.0,
        DistanceMeasure::Predicate,
        OptimizationConfig::all(),
    );
    // Descending, the interactive "tighten until it breaks" pattern: the
    // loosest point solves first and its basis/incumbent seed every tighter
    // point (ascending would lead with proven-infeasible points, which
    // memoize but have no basis to donate).
    let epsilons = [0.5f64, 0.4, 0.3, 0.2, 0.1, 0.0];

    // Cache-off: every sweep point solves from scratch.
    let cold_session = session_for(&w);
    group.bench_function(format!("{}/sweep/cache-off", w.id.label()), |b| {
        b.iter(|| cold_session.sweep_epsilon(&base, &epsilons).unwrap())
    });

    // Cache-on steady state: after the first iteration the whole sweep is
    // served from memos — the interactive re-ask pattern.
    let warm_session = session_for(&w).with_solution_cache(16);
    group.bench_function(format!("{}/sweep/cache-on", w.id.label()), |b| {
        b.iter(|| warm_session.sweep_epsilon(&base, &epsilons).unwrap())
    });

    // Work accounting for the claim behind the ablation (printed once,
    // outside the timed loops). A *fresh* cached session shows the first
    // pass: later points warm-start from earlier points' bases.
    let first_pass = session_for(&w).with_solution_cache(16);
    for (label, session) in [("cache-off", &cold_session), ("cache-on", &first_pass)] {
        let results = session.sweep_epsilon(&base, &epsilons).unwrap();
        let cold_lps: usize = results.iter().map(|r| r.stats.cold_lp_solves).sum();
        let pivots: usize = results.iter().map(|r| r.stats.simplex_iterations).sum();
        let warm_entries: usize = results.iter().map(|r| r.stats.cache_warm_starts).sum();
        let hits: usize = results.iter().map(|r| r.stats.cache_hits).sum();
        println!(
            "{}/sweep/{label}: {} cold LPs, {} pivots, {} cache warm starts, {} memo hits",
            w.id.label(),
            cold_lps,
            pivots,
            warm_entries,
            hits,
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
