//! Reproduce the paper's evaluation figures.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qr-bench --release --bin experiments -- \
//!     [fig3|fig4|fig5|fig6|fig7|fig8|fig9|erica|ablation|all]... [--quick]
//!     [--distance QD,JAC,KEN] [--threads N]
//! ```
//!
//! No figure name runs every figure. An unknown figure name or flag prints
//! the usage line to stderr and exits with status 2.
//!
//! Each figure prints one tab-separated row per measured configuration:
//! dataset, algorithm, distance measure, swept parameter, setup seconds,
//! total seconds, and the refinement found (distance/deviation). Shapes —
//! which algorithm wins, how runtime scales with each parameter — correspond
//! to the paper's Figures 3–9; absolute times differ because the MILP solver
//! is the from-scratch `qr-milp` rather than CPLEX (see the README).
//!
//! `ablation` measures two things the figures do not: each Section 4
//! optimization switched off in turn, and the incremental annotation repair
//! against a full build (the measurement behind
//! `qr_provenance::DEFAULT_REBUILD_FRACTION`), which prints its own header.
//!
//! `--distance` restricts the measured distance measures; labels are parsed
//! with [`DistanceMeasure`]'s `FromStr` (QD/JAC/KEN or
//! predicate/jaccard/kendall, case-insensitive).
//!
//! `--threads N` answers each session's request batch on N worker threads
//! through the parallel batch API (`solve_batch_parallel` /
//! `sweep_epsilon_parallel`) for the per-session sweeps (Figures 4–6).
//! Results are identical to the sequential run — only wall-clock changes —
//! so the reproduced series stay comparable.

use qr_bench::{
    bench_workloads, benchmark_request, experiment_workloads, run_engine, run_epsilon_sweep,
    run_naive, session_for, ExperimentRow, DEFAULT_EPSILON, DEFAULT_K, SEED,
};
use qr_core::{
    CardinalityConstraint, ConstraintSet, DistanceMeasure, EricaSolver, Group, NaiveMode,
    OptimizationConfig, RefinementSolver,
};
use qr_datagen::{DatasetId, Workload};
use qr_provenance::AnnotatedRelation;
use qr_relation::{Database, DatabaseDelta, RowId, Value};
use std::time::{Duration, Instant};

/// One-line usage, printed with every argument error.
const USAGE: &str =
    "usage: experiments [fig3|fig4|fig5|fig6|fig7|fig8|fig9|erica|ablation|all]... \
                     [--quick] [--distance QD,JAC,KEN] [--threads N]";

/// Figure names, in the order they run.
const FIGURES: [&str; 9] = [
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "erica", "ablation",
];

/// Parsed command line.
#[derive(Debug)]
struct Options {
    /// Figures to run (no name, or `all`, selects every figure).
    figures: Vec<&'static str>,
    /// Small workloads and short sweeps.
    quick: bool,
    /// `--distance`: the measured distance measures, overriding the default.
    distances: Option<Vec<DistanceMeasure>>,
    /// `--threads`: worker threads for the per-session sweeps (at least 1).
    threads: usize,
}

/// Parse the arguments after the program name. Unknown figure names and
/// flags, missing values and malformed values are errors.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        figures: Vec::new(),
        quick: false,
        distances: None,
        threads: 1,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        // `--flag=value` and `--flag value` are equivalent.
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
            _ => (arg.as_str(), None),
        };
        match flag {
            "--quick" if inline.is_none() => options.quick = true,
            "--distance" | "--threads" => {
                let value = match inline {
                    Some(value) => value,
                    None => args
                        .next()
                        .ok_or_else(|| format!("{flag} requires a value"))?,
                };
                if flag == "--distance" {
                    let measures = value
                        .split(',')
                        .map(|label| label.trim().parse::<DistanceMeasure>())
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("--distance: {e}"))?;
                    options.distances = Some(measures);
                } else {
                    let n: usize = value
                        .parse()
                        .map_err(|e| format!("--threads: invalid worker count '{value}': {e}"))?;
                    options.threads = n.max(1);
                }
            }
            "all" => options.figures.extend(FIGURES),
            _ if flag.starts_with('-') => return Err(format!("unknown flag '{arg}'")),
            name => match FIGURES.iter().find(|figure| **figure == name) {
                Some(figure) => options.figures.push(figure),
                None => return Err(format!("unknown figure '{name}'")),
            },
        }
    }
    if options.figures.is_empty() {
        options.figures.extend(FIGURES);
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        figures,
        quick,
        distances,
        threads,
    } = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("experiments: {message}\n{USAGE}");
        std::process::exit(2)
    });
    let selected = |name: &str| figures.contains(&name);
    let distances = distances.unwrap_or_else(|| {
        if quick {
            vec![DistanceMeasure::Predicate]
        } else {
            DistanceMeasure::all().to_vec()
        }
    });

    let workloads = if quick {
        bench_workloads()
    } else {
        experiment_workloads()
    };
    println!(
        "# workloads: {}",
        workloads
            .iter()
            .map(|w| format!("{} ({} rows)", w.id.label(), w.main_relation_size()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if threads > 1 {
        println!("# per-session sweeps run on {threads} worker threads");
    }
    println!("{}", ExperimentRow::header());

    if selected("fig3") {
        fig3(&workloads, quick, &distances);
    }
    if selected("fig4") {
        fig4(&workloads, quick, &distances, threads);
    }
    if selected("fig5") {
        fig5(&workloads, quick, &distances, threads);
    }
    if selected("fig6") {
        fig6(&workloads, quick, &distances, threads);
    }
    if selected("fig7") {
        fig7(&workloads);
    }
    if selected("fig8") {
        fig8(quick);
    }
    if selected("fig9") {
        fig9(&workloads);
    }
    if selected("erica") {
        erica_comparison(quick);
    }
    if selected("ablation") {
        ablation(&workloads, quick, &distances);
    }
}

/// Figure 3: running time of MILP, MILP+opt, Naive and Naive+prov.
fn fig3(workloads: &[Workload], quick: bool, distances: &[DistanceMeasure]) {
    println!(
        "# Figure 3: compared algorithms (k*={DEFAULT_K}, eps={DEFAULT_EPSILON}, constraint (1))"
    );
    let naive_budget = Duration::from_secs(if quick { 5 } else { 30 });
    for w in workloads {
        let constraints = w.default_constraints(DEFAULT_K);
        for &distance in distances {
            for config in [OptimizationConfig::all(), OptimizationConfig::none()] {
                // The unoptimized MILP on the larger workloads is exactly the
                // configuration the paper reports as timing out; skip it in
                // quick mode.
                if quick && config == OptimizationConfig::none() && w.id != DatasetId::Astronauts {
                    continue;
                }
                let row = run_engine(
                    w,
                    &constraints,
                    DEFAULT_EPSILON,
                    distance,
                    config,
                    "default",
                );
                println!("{}", row.render());
            }
            for mode in [NaiveMode::Provenance, NaiveMode::Database] {
                let row = run_naive(
                    w,
                    &constraints,
                    DEFAULT_EPSILON,
                    distance,
                    mode,
                    naive_budget,
                    "default",
                );
                println!("{}", row.render());
            }
        }
    }
}

/// Answer a session's request grid as one batch on the parallel batch API
/// (sequential when `threads == 1`) and print one row per entry, labelled by
/// the grid's swept-parameter strings. Shared by the per-session figures.
fn run_session_batch(
    w: &Workload,
    session: &qr_core::RefinementSession,
    grid: Vec<(String, DistanceMeasure, qr_core::RefinementRequest)>,
    threads: usize,
) {
    let requests: Vec<_> = grid.iter().map(|(_, _, r)| r.clone()).collect();
    let results = session
        .solve_batch_parallel(&requests, threads)
        .expect("engine run does not error");
    for ((parameter, distance, _), result) in grid.iter().zip(&results) {
        let row = ExperimentRow::from_result(
            w.id.label(),
            OptimizationConfig::all().label(),
            *distance,
            parameter.clone(),
            result,
        );
        println!("{}", row.render());
    }
}

/// Figure 4: effect of k*. One session per workload answers every (k,
/// distance) request — annotation is paid once per dataset, not once per
/// configuration — and the whole request grid is submitted as one batch to
/// the parallel batch API (sequential when `--threads 1`).
fn fig4(workloads: &[Workload], quick: bool, distances: &[DistanceMeasure], threads: usize) {
    println!("# Figure 4: effect of k*");
    let ks: Vec<usize> = if quick {
        vec![10, 30]
    } else {
        vec![10, 30, 50, 70, 90]
    };
    for w in workloads {
        let session = session_for(w);
        println!(
            "# {} session: annotation {:.3}s (shared by {} solves)",
            w.id.label(),
            session.setup_stats().annotation_time.as_secs_f64(),
            ks.len() * distances.len()
        );
        let mut grid = Vec::new();
        for &k in &ks {
            let constraints = w.default_constraints(k);
            for &distance in distances {
                grid.push((
                    format!("k={k}"),
                    distance,
                    benchmark_request(
                        &constraints,
                        DEFAULT_EPSILON,
                        distance,
                        OptimizationConfig::all(),
                    ),
                ));
            }
        }
        run_session_batch(w, &session, grid, threads);
    }
}

/// Figure 5: effect of the maximum deviation ε, swept through one session
/// per workload and distance measure.
fn fig5(workloads: &[Workload], quick: bool, distances: &[DistanceMeasure], threads: usize) {
    println!("# Figure 5: effect of the maximum deviation");
    let epsilons: Vec<f64> = if quick {
        vec![0.0, 1.0]
    } else {
        vec![0.0, 0.25, 0.5, 0.75, 1.0]
    };
    for w in workloads {
        let constraints = w.default_constraints(DEFAULT_K);
        for &distance in distances {
            let (annotation_seconds, rows) = run_epsilon_sweep(
                w,
                &constraints,
                &epsilons,
                distance,
                OptimizationConfig::all(),
                threads,
            );
            println!(
                "# {} {distance} sweep: annotation {annotation_seconds:.3}s, paid once for {} eps values",
                w.id.label(),
                epsilons.len()
            );
            for row in rows {
                println!("{}", row.render());
            }
        }
    }
}

/// Figure 6: effect of the number of constraints, via one session (and one
/// parallel batch) per workload.
fn fig6(workloads: &[Workload], quick: bool, distances: &[DistanceMeasure], threads: usize) {
    println!("# Figure 6: effect of the number of constraints");
    let counts: Vec<usize> = if quick {
        vec![1, 3]
    } else {
        vec![1, 2, 3, 4, 5]
    };
    for w in workloads {
        let session = session_for(w);
        let mut grid = Vec::new();
        for &count in &counts {
            let constraints = w.constraint_prefix(count, DEFAULT_K);
            for &distance in distances {
                grid.push((
                    format!("constraints={count}"),
                    distance,
                    benchmark_request(
                        &constraints,
                        DEFAULT_EPSILON,
                        distance,
                        OptimizationConfig::all(),
                    ),
                ));
            }
        }
        run_session_batch(w, &session, grid, threads);
    }
}

/// Figure 7: lower-bound-only versus mixed constraint sets.
fn fig7(workloads: &[Workload]) {
    println!("# Figure 7: constraint types (single-bound relaxation)");
    for w in workloads {
        let session = session_for(w);
        for (label, constraints) in [
            ("lower-bound", w.lower_bound_pair(DEFAULT_K)),
            ("combined", w.mixed_pair(DEFAULT_K)),
        ] {
            let request = benchmark_request(
                &constraints,
                DEFAULT_EPSILON,
                DistanceMeasure::Predicate,
                OptimizationConfig::all(),
            );
            let result = session.solve(&request).expect("engine run does not error");
            let row = ExperimentRow::from_result(
                w.id.label(),
                OptimizationConfig::all().label(),
                DistanceMeasure::Predicate,
                label,
                &result,
            );
            println!("{}", row.render());
        }
    }
}

/// Figure 8: effect of the data size (SDV-style scale-up). Every size is a
/// different database, so each gets its own session (annotation is part of
/// what scales with the data).
fn fig8(quick: bool) {
    println!("# Figure 8: effect of data size");
    let factors: Vec<usize> = if quick { vec![1, 2] } else { vec![1, 2, 3, 4] };
    for id in DatasetId::all() {
        let base = Workload::new(id, SEED);
        let base_size = base.main_relation_size();
        for &factor in &factors {
            let scaled = if factor == 1 {
                base.clone()
            } else {
                base.scaled(base_size * factor, SEED + factor as u64)
            };
            let constraints = scaled.default_constraints(DEFAULT_K);
            let row = run_engine(
                &scaled,
                &constraints,
                DEFAULT_EPSILON,
                DistanceMeasure::Predicate,
                OptimizationConfig::all(),
                format!("rows={}", scaled.main_relation_size()),
            );
            println!("{}", row.render());
        }
    }
}

/// Figure 9: categorical-only versus numerical-only predicates. Each variant
/// is a different query, hence its own session.
fn fig9(workloads: &[Workload]) {
    println!("# Figure 9: predicate types (Astronauts, Law Students)");
    for w in workloads {
        if !matches!(w.id, DatasetId::Astronauts | DatasetId::LawStudents) {
            continue;
        }
        let constraints = w.default_constraints(DEFAULT_K);
        let mut cat_only = w.query.clone();
        cat_only.numeric_predicates.clear();
        let mut num_only = w.query.clone();
        num_only.categorical_predicates.clear();
        for (label, query) in [("categorical-only", cat_only), ("numerical-only", num_only)] {
            let variant = Workload {
                id: w.id,
                db: w.db.clone(),
                query,
            };
            let row = run_engine(
                &variant,
                &constraints,
                DEFAULT_EPSILON,
                DistanceMeasure::Predicate,
                OptimizationConfig::all(),
                label,
            );
            println!("{}", row.render());
        }
    }
}

/// Section 5.3: comparison with the Erica-style whole-output baseline, both
/// algorithms dispatched uniformly through the solver trait against one
/// session.
fn erica_comparison(quick: bool) {
    println!("# Section 5.3: comparison with Erica (Law Students, l[Sex=F] over the top-k, eps=0)");
    let size = if quick {
        400
    } else {
        qr_datagen::workload::default_sizes::LAW_STUDENTS
    };
    let w = Workload::law_students(size, SEED);
    // The comparison query relaxes Q_L's GPA lower bound to 3.0, as in the paper.
    let mut query = w.query.clone();
    for p in &mut query.numeric_predicates {
        if p.op == qr_relation::CmpOp::Ge {
            p.constant = 3.0;
        }
    }
    let comparison = Workload {
        id: w.id,
        db: w.db.clone(),
        query,
    };
    let k = if quick { 20 } else { 50 };
    let n = k / 2;
    let constraints = ConstraintSet::new().with(CardinalityConstraint::at_least(
        Group::single("Sex", "F"),
        k,
        n,
    ));

    let session = session_for(&comparison);
    let request = benchmark_request(
        &constraints,
        0.0,
        DistanceMeasure::Predicate,
        OptimizationConfig::all(),
    );
    let backends: [(&dyn RefinementSolver, String); 2] = [
        (&qr_core::MilpSolver, format!("top-k engine k={k}")),
        (&EricaSolver, format!("output=={k}")),
    ];
    for (backend, parameter) in backends {
        let result = session
            .solve_with(backend, &request)
            .expect("comparison backend runs");
        let row = ExperimentRow::from_result(
            comparison.id.label(),
            backend.label(&request),
            DistanceMeasure::Predicate,
            parameter,
            &result,
        );
        println!("{}", row.render());
    }
}

/// Ablation of the Section 4 optimizations: fig3's request with each
/// optimization switched off in turn, then with none. `--quick` runs the
/// small Astronauts instance (100 rows, constraint (1) with a bound of 2 in
/// the top-5), on which every configuration finishes in seconds. Each row
/// gets its own session, as in fig3.
fn ablation(workloads: &[Workload], quick: bool, distances: &[DistanceMeasure]) {
    println!(
        "# Ablation: Section 4 optimizations (eps={DEFAULT_EPSILON}, parameter = configuration)"
    );
    let small;
    let cases: Vec<(&Workload, ConstraintSet)> = if quick {
        small = Workload::astronauts(100, SEED);
        let constraints = ConstraintSet::new().with(small.constraint_with_bound(1, 5, Some(2)));
        vec![(&small, constraints)]
    } else {
        workloads
            .iter()
            .map(|w| (w, w.default_constraints(DEFAULT_K)))
            .collect()
    };
    let all = OptimizationConfig::all();
    let configs = [
        ("all", all),
        (
            "no-relevancy",
            OptimizationConfig {
                relevancy_pruning: false,
                ..all
            },
        ),
        (
            "no-merging",
            OptimizationConfig {
                lineage_merging: false,
                ..all
            },
        ),
        (
            "no-single-bound",
            OptimizationConfig {
                single_bound_relaxation: false,
                ..all
            },
        ),
        ("none", OptimizationConfig::none()),
    ];
    for (w, constraints) in &cases {
        println!("# {} ({} rows)", w.id.label(), w.main_relation_size());
        for &distance in distances {
            for (label, config) in configs {
                let row = run_engine(w, constraints, DEFAULT_EPSILON, distance, config, label);
                println!("{}", row.render());
            }
        }
    }
    incremental_annotation();
}

/// Ablation of incremental annotation: a full `AnnotatedRelation::build`
/// against a repair forced down the incremental path (threshold 1.0), for
/// Orders updates of 1 row up to the whole relation, on TPC-H at 180 and 720
/// orders. `base_share` is the share of the query's base rows the delta
/// touches, the quantity `DEFAULT_REBUILD_FRACTION` is compared with.
fn incremental_annotation() {
    // A one-row repair takes tens of microseconds, so a single run is noise.
    let runs = 15;
    println!("# Ablation: incremental annotation vs. full build (TPC-H Orders updates, median of {runs} runs)");
    println!("dataset\tpath\torders\tdelta_rows\tbase_share\tmedian_us\tbuild_ratio");
    let base = Workload::tpch(60, SEED);
    let scaled = base.scaled(base.main_relation_size() * 4, SEED + 4);
    for w in [&base, &scaled] {
        let orders = w.main_relation_size();
        let base_rows: usize = w
            .query
            .tables
            .iter()
            .map(|t| w.db.get(t).expect("TPC-H has the query's tables").len())
            .sum();
        let annotated = AnnotatedRelation::build(&w.db, &w.query).expect("annotation builds");
        let build = median_micros(runs, || {
            AnnotatedRelation::build(&w.db, &w.query).expect("annotation builds")
        });
        println!("TPC-H\tbuild\t{orders}\t-\t-\t{build:.1}\t1.00");
        for delta_rows in [1, orders / 20, orders / 5, orders / 2, orders] {
            let (mutated, delta) = update_orders(&w.db, delta_rows);
            let repair = median_micros(runs, || {
                annotated
                    .apply_delta_with_threshold(&mutated, &delta, 1.0)
                    .expect("repair succeeds")
            });
            println!(
                "TPC-H\trepair\t{orders}\t{delta_rows}\t{:.2}\t{repair:.1}\t{:.2}",
                delta.rows_touched() as f64 / base_rows as f64,
                build / repair
            );
        }
    }
}

/// Update the first `rows` Orders rows, nudging the order-by Revenue value
/// so the repair has to re-rank, and return the mutated database with the
/// delta that describes it.
fn update_orders(db: &Database, rows: usize) -> (Database, DatabaseDelta) {
    let mut mutated = db.clone();
    let orders = db.get("Orders").expect("TPC-H has Orders");
    let revenue = orders
        .schema()
        .index_of("Revenue")
        .expect("Orders has Revenue");
    let updates: Vec<(RowId, Vec<Value>)> = orders
        .row_ids()
        .iter()
        .take(rows)
        .map(|&id| {
            let mut row = orders.row_by_id(id).expect("id exists").clone();
            if let Value::Float(v) = row[revenue] {
                row[revenue] = Value::float(v + 0.5);
            }
            (id, row)
        })
        .collect();
    let delta = mutated
        .update_rows("Orders", updates)
        .expect("updates are well formed")
        .into();
    (mutated, delta)
}

/// Median wall-clock time of `runs` calls of `f`, in microseconds.
fn median_micros<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[runs / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn no_figure_or_all_selects_every_figure() {
        let options = parse(&[]).unwrap();
        assert_eq!(options.figures, FIGURES);
        assert!(!options.quick);
        assert_eq!(options.distances, None);
        assert_eq!(options.threads, 1);
        assert_eq!(parse(&["all", "--quick"]).unwrap().figures, FIGURES);
    }

    #[test]
    fn figures_and_flags_parse_in_both_value_forms() {
        let options = parse(&["fig5", "erica", "ablation", "--quick", "--threads", "4"]).unwrap();
        assert_eq!(options.figures, ["fig5", "erica", "ablation"]);
        assert!(options.quick);
        assert_eq!(options.threads, 4);
        let options = parse(&["--distance=QD,ken", "fig3", "--threads=0"]).unwrap();
        assert_eq!(options.figures, ["fig3"]);
        assert_eq!(
            options.distances,
            Some(vec![
                DistanceMeasure::Predicate,
                DistanceMeasure::KendallTopK
            ])
        );
        assert_eq!(options.threads, 1, "a zero worker count runs sequentially");
        assert!(parse(&["all"]).unwrap().figures.contains(&"ablation"));
    }

    #[test]
    fn unknown_names_flags_and_values_are_rejected() {
        let err = parse(&["fig10", "--quick"]).unwrap_err();
        assert!(err.contains("fig10"), "{err}");
        let err = parse(&["fig3", "--quik"]).unwrap_err();
        assert!(err.contains("--quik"), "{err}");
        assert!(parse(&["fig3", "--quick=yes"]).is_err());
        assert!(parse(&["fig3", "--threads"]).is_err());
        assert!(parse(&["fig3", "--threads", "many"]).is_err());
        assert!(parse(&["fig3", "--distance", "QD,cosine"]).is_err());
    }
}
