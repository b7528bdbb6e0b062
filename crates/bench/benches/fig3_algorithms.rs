//! Figure 3: per-request running time of the compared algorithms (MILP,
//! MILP+opt, Naive+prov) on small instances of the benchmark workloads, all
//! dispatched through the solver trait against one prepared session per
//! dataset (annotation is paid outside the measured loop). The full-size
//! comparison, including the plain Naive baseline and all three distance
//! measures, is produced by `cargo run -p qr-bench --release --bin experiments -- fig3`.

use criterion::{criterion_group, criterion_main, Criterion};
use qr_bench::{benchmark_request, session_for, tiny_constraints, tiny_workload};
use qr_core::{DistanceMeasure, MilpSolver, NaiveMode, NaiveSolver, OptimizationConfig};
use qr_datagen::DatasetId;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_algorithms");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    for id in [DatasetId::Tpch, DatasetId::Astronauts] {
        let w = tiny_workload(id);
        let constraints = tiny_constraints(&w);
        let session = session_for(&w);
        let opt = benchmark_request(
            &constraints,
            0.5,
            DistanceMeasure::Predicate,
            OptimizationConfig::all(),
        );
        let unopt = benchmark_request(
            &constraints,
            0.5,
            DistanceMeasure::Predicate,
            OptimizationConfig::none(),
        );
        let naive = NaiveSolver::new(NaiveMode::Provenance);
        let naive_request = opt.clone().with_time_limit(Duration::from_secs(5));
        group.bench_function(format!("{}/MILP+opt/QD", w.id.label()), |b| {
            b.iter(|| session.solve_with(&MilpSolver, &opt).unwrap())
        });
        group.bench_function(format!("{}/MILP/QD", w.id.label()), |b| {
            b.iter(|| session.solve_with(&MilpSolver, &unopt).unwrap())
        });
        group.bench_function(format!("{}/Naive+prov/QD", w.id.label()), |b| {
            b.iter(|| session.solve_with(&naive, &naive_request).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
