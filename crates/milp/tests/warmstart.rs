//! Warm-start regression tests: pivot budgets on the big-M indicator
//! structure that used to stall phase 1, and a property check that
//! branch-and-bound finds the optimum that trying every integer assignment
//! finds.
//!
//! The pivot-budget assertions count simplex iterations, not wall-clock time,
//! so they are deterministic across build profiles — but run them with
//! `cargo test -p qr-milp --release` in CI so the dense simplex is fast
//! enough to keep the suite snappy.

use proptest::prelude::*;
use qr_milp::control::StopCondition;
use qr_milp::prelude::*;
use qr_milp::simplex::{solve_lp, LpStatus};

/// A big-M indicator chain in the shape of the paper's expressions (1)/(2):
/// one continuous threshold linked to `values` indicator binaries, plus a
/// cardinality row over the indicators. Heavily degenerate — many vertices
/// share the same objective value — which is exactly what used to drive
/// phase 1 into its 600-pivot stall bailout.
fn big_m_indicator_model(n_values: usize, at_least: usize) -> (Model, Vec<VarId>) {
    let mut m = Model::new("bigm-chain");
    let lo = 3.0;
    let hi = 3.0 + n_values as f64 * 0.1;
    let c = m.add_continuous("C", lo, hi);
    let big_m = (hi - lo) + hi.abs() + 1.0;
    let delta = 0.01;
    let mut inds = Vec::with_capacity(n_values);
    let mut count = LinExpr::zero();
    for i in 0..n_values {
        let v = 3.05 + i as f64 * 0.1;
        let ind = m.add_binary(format!("ind_{i}"));
        m.set_branch_priority(ind, 90);
        // C + M*ind >= v + delta  (ind = 1 iff v >= C)
        m.add_constraint(
            format!("lo_{i}"),
            LinExpr::term(c, 1.0) + LinExpr::term(ind, big_m),
            Sense::Ge,
            v + delta,
        );
        // C + M*ind <= v + M
        m.add_constraint(
            format!("hi_{i}"),
            LinExpr::term(c, 1.0) + LinExpr::term(ind, big_m),
            Sense::Le,
            v + big_m,
        );
        count.add_term(ind, 1.0);
        inds.push(ind);
    }
    m.add_constraint("at_least", count, Sense::Ge, at_least as f64);
    // Push the threshold as high as possible — conflicts with the
    // cardinality row, forcing real search.
    m.set_objective(LinExpr::term(c, -1.0));
    (m, inds)
}

#[test]
fn big_m_chain_solves_under_tight_pivot_budget() {
    // 40 indicators, at least 25 selected: the optimum puts C at the largest
    // threshold that still admits 25 indicators.
    let (m, inds) = big_m_indicator_model(40, 25);
    let s = Solver::default().solve(&m).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal, "stats: {:?}", s.stats);
    let selected = inds.iter().filter(|&&i| s.is_set(i)).count();
    assert!(selected >= 25, "selected {selected}");
    // Pre-warm-start this class of model burned five-digit pivot counts in
    // degenerate phase-1 crawls (and routinely tripped the 600-pivot stall
    // bailout). The warm-started tree must stay far below that.
    assert!(
        s.stats.simplex_iterations < 8_000,
        "pivot budget blown: {} pivots over {} LPs ({} nodes)",
        s.stats.simplex_iterations,
        s.stats.lp_solves,
        s.stats.nodes
    );
    assert!(
        s.stats.warm_start_share() >= 0.5,
        "warm share {:.2}",
        s.stats.warm_start_share()
    );
}

#[test]
fn degenerate_lp_terminates_without_stall_bailout() {
    // A single heavily degenerate LP: many parallel rows through one vertex,
    // plus fixed columns. The cost-perturbation ladder must reach optimality
    // in a bounded number of pivots instead of tripping the stall bailout.
    let mut m = Model::new("degenerate");
    let n = 24;
    let xs: Vec<_> = (0..n)
        .map(|i| m.add_continuous(format!("x{i}"), 0.0, 1.0))
        .collect();
    for r in 0..n {
        let mut e = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            e.add_term(x, 1.0 + ((i + r) % 3) as f64 * 1e-9);
        }
        m.add_constraint(format!("c{r}"), e, Sense::Le, 6.0);
    }
    let mut obj = LinExpr::zero();
    for &x in &xs {
        obj.add_term(x, -1.0);
    }
    m.set_objective(obj);
    let (lo, up): (Vec<f64>, Vec<f64>) = (
        m.variables().iter().map(|v| v.lower).collect(),
        m.variables().iter().map(|v| v.upper).collect(),
    );
    let s = solve_lp(&m, &lo, &up, 50_000, &StopCondition::none()).unwrap();
    assert_eq!(s.status, LpStatus::Optimal);
    assert!(
        (s.objective + 6.0).abs() < 1e-5,
        "objective {}",
        s.objective
    );
    assert!(s.iterations < 2_000, "{} pivots", s.iterations);
}

/// Build a random small MILP from proptest-drawn integers. Coefficients and
/// bounds are kept small so optima are well-conditioned. One row kind in
/// four is an equality with a positive right-hand side, which excludes the
/// origin: some models have no feasible assignment at all, and the others
/// often need branching to meet the equality with integers.
fn random_milp(spec: &[(u8, u8, u8)], n_vars: usize, rhs_slack: u8) -> Model {
    let mut m = Model::new("random");
    let vars: Vec<_> = (0..n_vars)
        .map(|i| {
            if i % 3 == 2 {
                m.add_continuous(format!("c{i}"), 0.0, 4.0)
            } else {
                m.add_integer(format!("x{i}"), 0.0, 3.0)
            }
        })
        .collect();
    let mut obj = LinExpr::zero();
    for (i, &v) in vars.iter().enumerate() {
        obj.add_term(v, -(1.0 + (i % 4) as f64));
    }
    m.set_objective(obj);
    for (row, &(a, b, sense)) in spec.iter().enumerate() {
        let mut e = LinExpr::zero();
        for (i, &v) in vars.iter().enumerate() {
            let coeff = ((a as usize + i * (b as usize + 1)) % 5) as f64 - 1.0;
            if coeff != 0.0 {
                e.add_term(v, coeff);
            }
        }
        let rhs = (rhs_slack % 7) as f64 + row as f64;
        match sense % 4 {
            0 => m.add_constraint(format!("r{row}"), e, Sense::Le, rhs),
            1 => m.add_constraint(format!("r{row}"), e, Sense::Ge, -rhs),
            2 => m.add_constraint(format!("r{row}"), e, Sense::Le, rhs + 2.0),
            _ => m.add_constraint(format!("r{row}"), e, Sense::Eq, rhs + 1.0),
        }
    }
    m
}

/// The optimum of `model` by enumeration: every assignment of its integer
/// variables within their bounds, with the continuous rest solved as an LP.
/// `None` when no assignment is feasible.
fn enumerated_optimum(model: &Model) -> Option<f64> {
    let vars = model.variables();
    let integers: Vec<usize> = (0..vars.len())
        .filter(|&i| vars[i].var_type != VarType::Continuous)
        .collect();
    let mut lower: Vec<f64> = vars.iter().map(|v| v.lower).collect();
    let mut upper: Vec<f64> = vars.iter().map(|v| v.upper).collect();
    for &i in &integers {
        upper[i] = lower[i];
    }
    let mut best: Option<f64> = None;
    loop {
        let lp = solve_lp(model, &lower, &upper, 50_000, &StopCondition::none()).unwrap();
        match lp.status {
            LpStatus::Optimal => {
                best = Some(best.map_or(lp.objective, |b: f64| b.min(lp.objective)));
            }
            LpStatus::Infeasible => {}
            other => panic!("enumeration LP ended {other:?}"),
        }
        let mut k = 0;
        loop {
            let Some(&i) = integers.get(k) else {
                return best;
            };
            if lower[i] < vars[i].upper {
                lower[i] += 1.0;
                upper[i] = lower[i];
                break;
            }
            lower[i] = vars[i].lower;
            upper[i] = lower[i];
            k += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Branch-and-bound agrees with enumeration on random small MILPs: it
    /// answers `Infeasible` exactly when no integer assignment is feasible,
    /// and otherwise proves the enumerated optimum.
    #[test]
    fn search_matches_enumeration_on_random_milps(
        a in 0u8..255,
        b in 0u8..8,
        sense in 0u8..255,
        rhs_slack in 0u8..255,
        n_rows in 1usize..5,
        n_vars in 2usize..7,
    ) {
        let spec: Vec<(u8, u8, u8)> = (0..n_rows)
            .map(|r| (a.wrapping_add(r as u8 * 37), b, sense.wrapping_add(r as u8)))
            .collect();
        let model = random_milp(&spec, n_vars, rhs_slack);
        let search = Solver::default().solve(&model).unwrap();
        match enumerated_optimum(&model) {
            None => prop_assert_eq!(search.status, SolveStatus::Infeasible),
            Some(expected) => {
                prop_assert_eq!(search.status, SolveStatus::Optimal);
                prop_assert!(
                    (search.objective - expected).abs() < 1e-6,
                    "search {} vs enumeration {}", search.objective, expected
                );
            }
        }
    }
}

/// The generator reaches both hard arms of the oracle above: over a fixed
/// set of specs, at least one model has no feasible assignment and at least
/// one needs more than the root node.
#[test]
fn generated_cases_include_infeasible_and_branching_models() {
    let (mut infeasible, mut branching) = (0, 0);
    for seed in 0u8..32 {
        let spec: Vec<(u8, u8, u8)> = (0..1 + seed % 4)
            .map(|r| (seed.wrapping_mul(53) ^ r, seed % 8, seed * 7 + r))
            .collect();
        let model = random_milp(&spec, 2 + usize::from(seed % 5), seed * 3);
        infeasible += usize::from(enumerated_optimum(&model).is_none());
        branching += usize::from(Solver::default().solve(&model).unwrap().stats.nodes > 1);
    }
    assert!(infeasible > 0, "no generated case is infeasible");
    assert!(branching > 0, "every generated case closed at the root");
}
