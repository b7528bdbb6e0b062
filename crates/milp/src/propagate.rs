//! Interval-arithmetic bound propagation.
//!
//! The MILPs generated by `qr-core` are dominated by indicator ("big-M")
//! constraints that link the refinement decision variables to the tuple
//! selection, rank and top-k membership variables. Once the decision
//! variables are fixed by branching, these constraints *imply* the values of
//! almost every other variable. Propagating bounds at every branch-and-bound
//! node therefore fixes large parts of the problem cheaply, exactly the role
//! CPLEX's presolve/node-presolve plays for the paper's implementation.
//!
//! The propagator performs standard activity-based bound tightening: for a
//! constraint `Σ a_j x_j <= b` and a variable `x_k` with `a_k > 0`,
//! `x_k <= (b - minactivity_{j≠k}) / a_k`, and symmetrically for the other
//! sign and for `>=` / `==` constraints. Integer variable bounds are rounded.
//! Propagation repeats until a fixpoint or a pass limit is reached.
//!
//! The constraints are read from the [`LpWorkspace`] the search already
//! built: the structural prefix of each CSR row lists the row's variables in
//! ascending index order with no zero coefficient, exactly as the model's
//! [`crate::expr::LinExpr`] terms do, so the arithmetic matches a walk over
//! the model term for term without a second copy of the matrix.

use crate::model::{Model, Sense, VarType};
use crate::simplex::LpWorkspace;

/// Result of a propagation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationResult {
    /// Bounds are consistent (possibly tightened).
    Consistent,
    /// Some constraint cannot be satisfied within the current bounds.
    Infeasible,
}

use crate::tol::BOUND_TIGHTEN_TOL;
/// Feasibility tolerance for propagation (the same constant the simplex
/// uses, so the two can never disagree on what counts as feasible).
use crate::tol::FEAS_TOL as TOL;

/// Whether each variable of `model` is integer or binary: the `integral`
/// mask [`propagate`] reads, computed once per search.
pub fn integrality_mask(model: &Model) -> Vec<bool> {
    model
        .variables()
        .iter()
        .map(|v| matches!(v.var_type, VarType::Integer | VarType::Binary))
        .collect()
}

/// Tighten `lower` / `upper` in place over the constraints of the model
/// `workspace` was built from. `integral[j]` says whether variable `j` is
/// integer or binary (its implied bounds are rounded; see
/// [`integrality_mask`]). Returns whether the bounds remain consistent.
pub fn propagate(
    workspace: &LpWorkspace,
    integral: &[bool],
    lower: &mut [f64],
    upper: &mut [f64],
    max_passes: usize,
) -> PropagationResult {
    for _ in 0..max_passes {
        let mut changed = false;
        for row in 0..workspace.n_rows {
            let (vars, coeffs) = workspace.structural_row(row);
            let (sense, rhs) = workspace.row_sense_rhs(row);
            // Compute the minimum and maximum activity of the constraint.
            let mut min_act = 0.0f64;
            let mut max_act = 0.0f64;
            for (&idx, &a) in vars.iter().zip(coeffs) {
                let (lo, up) = (lower[idx], upper[idx]);
                if a > 0.0 {
                    min_act += a * lo;
                    max_act += a * up;
                } else {
                    min_act += a * up;
                    max_act += a * lo;
                }
            }

            // Feasibility checks.
            match sense {
                Sense::Le => {
                    if min_act > rhs + TOL {
                        return PropagationResult::Infeasible;
                    }
                }
                Sense::Ge => {
                    if max_act < rhs - TOL {
                        return PropagationResult::Infeasible;
                    }
                }
                Sense::Eq => {
                    if min_act > rhs + TOL || max_act < rhs - TOL {
                        return PropagationResult::Infeasible;
                    }
                }
            }

            // Bound tightening per variable.
            for (&idx, &a) in vars.iter().zip(coeffs) {
                let (lo, up) = (lower[idx], upper[idx]);
                // Activity of the other terms.
                let (rest_min, rest_max) = if a > 0.0 {
                    (min_act - a * lo, max_act - a * up)
                } else {
                    (min_act - a * up, max_act - a * lo)
                };

                let mut new_lo = lo;
                let mut new_up = up;
                let tighten_le = |bound: f64, new_lo: &mut f64, new_up: &mut f64| {
                    // Σ a_j x_j <= bound
                    if rest_min.is_finite() {
                        if a > 0.0 {
                            let implied = (bound - rest_min) / a;
                            if implied < *new_up {
                                *new_up = implied;
                            }
                        } else {
                            let implied = (bound - rest_min) / a;
                            if implied > *new_lo {
                                *new_lo = implied;
                            }
                        }
                    }
                };
                let tighten_ge = |bound: f64, new_lo: &mut f64, new_up: &mut f64| {
                    // Σ a_j x_j >= bound
                    if rest_max.is_finite() {
                        if a > 0.0 {
                            let implied = (bound - rest_max) / a;
                            if implied > *new_lo {
                                *new_lo = implied;
                            }
                        } else {
                            let implied = (bound - rest_max) / a;
                            if implied < *new_up {
                                *new_up = implied;
                            }
                        }
                    }
                };
                match sense {
                    Sense::Le => tighten_le(rhs, &mut new_lo, &mut new_up),
                    Sense::Ge => tighten_ge(rhs, &mut new_lo, &mut new_up),
                    Sense::Eq => {
                        tighten_le(rhs, &mut new_lo, &mut new_up);
                        tighten_ge(rhs, &mut new_lo, &mut new_up);
                    }
                }

                // Integrality rounding.
                if integral[idx] {
                    if new_lo.is_finite() {
                        new_lo = (new_lo - TOL).ceil();
                    }
                    if new_up.is_finite() {
                        new_up = (new_up + TOL).floor();
                    }
                }

                if new_lo > lo + BOUND_TIGHTEN_TOL {
                    lower[idx] = new_lo;
                    changed = true;
                }
                if new_up < up - BOUND_TIGHTEN_TOL {
                    upper[idx] = new_up;
                    changed = true;
                }
                if lower[idx] > upper[idx] + TOL {
                    return PropagationResult::Infeasible;
                }
            }
        }
        if !changed {
            break;
        }
    }
    PropagationResult::Consistent
}

/// A lower bound on the objective over the box `[lower, upper]`, ignoring the
/// constraints. Used as a cheap fallback bound when the LP is skipped.
pub fn box_objective_bound(model: &Model, lower: &[f64], upper: &[f64]) -> f64 {
    let mut bound = model.objective().constant_part();
    for (v, c) in model.objective().terms() {
        let idx = v.index();
        let contrib = if c >= 0.0 {
            c * lower[idx]
        } else {
            c * upper[idx]
        };
        bound += contrib;
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::Model;
    use crate::tol::{ASSERT_GAP_TOL, ASSERT_TOL};
    use proptest::prelude::*;

    fn bounds_of(model: &Model) -> (Vec<f64>, Vec<f64>) {
        (
            model.variables().iter().map(|v| v.lower).collect(),
            model.variables().iter().map(|v| v.upper).collect(),
        )
    }

    /// Propagate over `model`'s rows as the search does: through the
    /// workspace built from the model.
    fn run(
        model: &Model,
        lower: &mut [f64],
        upper: &mut [f64],
        max_passes: usize,
    ) -> PropagationResult {
        let workspace = LpWorkspace::new(model).expect("valid model");
        propagate(
            &workspace,
            &integrality_mask(model),
            lower,
            upper,
            max_passes,
        )
    }

    #[test]
    fn fixing_cascades_through_equality() {
        // y = 3 x + 1 with x fixed to 2 -> y must be 7.
        let mut m = Model::new("t");
        let x = m.add_integer("x", 2.0, 2.0);
        let y = m.add_continuous("y", 0.0, 100.0);
        m.add_constraint(
            "link",
            LinExpr::term(y, 1.0) - LinExpr::term(x, 3.0),
            Sense::Eq,
            1.0,
        );
        let (mut lo, mut up) = bounds_of(&m);
        assert_eq!(run(&m, &mut lo, &mut up, 10), PropagationResult::Consistent);
        assert!((lo[y.index()] - 7.0).abs() < ASSERT_TOL);
        assert!((up[y.index()] - 7.0).abs() < ASSERT_TOL);
    }

    #[test]
    fn indicator_constraint_fixes_binary() {
        // Big-M style: s + 25*l >= 6.001 with s fixed to 4 -> l >= 0.08 -> l = 1.
        let mut m = Model::new("t");
        let s = m.add_continuous("s", 4.0, 4.0);
        let l = m.add_binary("l");
        m.add_constraint(
            "ind",
            LinExpr::term(s, 1.0) + LinExpr::term(l, 25.0),
            Sense::Ge,
            6.001,
        );
        let (mut lo, mut up) = bounds_of(&m);
        assert_eq!(run(&m, &mut lo, &mut up, 10), PropagationResult::Consistent);
        assert_eq!(lo[l.index()], 1.0);
    }

    #[test]
    fn infeasibility_detected() {
        let mut m = Model::new("t");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint(
            "c",
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Ge,
            3.0,
        );
        let (mut lo, mut up) = bounds_of(&m);
        assert_eq!(run(&m, &mut lo, &mut up, 10), PropagationResult::Infeasible);
    }

    #[test]
    fn integer_rounding() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", LinExpr::term(x, 2.0), Sense::Le, 7.0);
        let (mut lo, mut up) = bounds_of(&m);
        run(&m, &mut lo, &mut up, 10);
        assert_eq!(up[x.index()], 3.0);
    }

    #[test]
    fn box_bound_uses_right_ends() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 1.0, 2.0);
        let y = m.add_continuous("y", 3.0, 4.0);
        m.set_objective(LinExpr::term(x, 1.0) - LinExpr::term(y, 1.0) + LinExpr::constant(10.0));
        let (lo, up) = bounds_of(&m);
        // min = 10 + 1*1 - 1*4 = 7
        assert!((box_objective_bound(&m, &lo, &up) - 7.0).abs() < ASSERT_GAP_TOL);
    }

    #[test]
    fn no_false_infeasibility_on_loose_problem() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(
            "c1",
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Le,
            10.0,
        );
        m.add_constraint(
            "c2",
            LinExpr::term(x, 1.0) - LinExpr::term(y, 1.0),
            Sense::Ge,
            -5.0,
        );
        let (mut lo, mut up) = bounds_of(&m);
        assert_eq!(run(&m, &mut lo, &mut up, 20), PropagationResult::Consistent);
        // x is bounded above by 10 through c1.
        assert!(up[x.index()] <= 10.0 + ASSERT_GAP_TOL);
    }

    /// The propagator as it stood before it read the workspace's CSR rows:
    /// a walk over each constraint's `LinExpr` terms with a
    /// `model.variable(v)` lookup per term. Kept only so the proptest below
    /// can check that [`propagate`] reproduces it bit for bit.
    fn propagate_reference(
        model: &Model,
        lower: &mut [f64],
        upper: &mut [f64],
        max_passes: usize,
    ) -> PropagationResult {
        for _ in 0..max_passes {
            let mut changed = false;
            for cons in model.constraints() {
                let mut min_act = 0.0f64;
                let mut max_act = 0.0f64;
                for (v, a) in cons.expr.terms() {
                    let (lo, up) = (lower[v.index()], upper[v.index()]);
                    if a > 0.0 {
                        min_act += a * lo;
                        max_act += a * up;
                    } else {
                        min_act += a * up;
                        max_act += a * lo;
                    }
                }
                match cons.sense {
                    Sense::Le => {
                        if min_act > cons.rhs + TOL {
                            return PropagationResult::Infeasible;
                        }
                    }
                    Sense::Ge => {
                        if max_act < cons.rhs - TOL {
                            return PropagationResult::Infeasible;
                        }
                    }
                    Sense::Eq => {
                        if min_act > cons.rhs + TOL || max_act < cons.rhs - TOL {
                            return PropagationResult::Infeasible;
                        }
                    }
                }
                for (v, a) in cons.expr.terms() {
                    if a == 0.0 {
                        continue;
                    }
                    let idx = v.index();
                    let (lo, up) = (lower[idx], upper[idx]);
                    let (rest_min, rest_max) = if a > 0.0 {
                        (min_act - a * lo, max_act - a * up)
                    } else {
                        (min_act - a * up, max_act - a * lo)
                    };
                    let mut new_lo = lo;
                    let mut new_up = up;
                    let tighten_le = |bound: f64, new_lo: &mut f64, new_up: &mut f64| {
                        if rest_min.is_finite() {
                            if a > 0.0 {
                                let implied = (bound - rest_min) / a;
                                if implied < *new_up {
                                    *new_up = implied;
                                }
                            } else {
                                let implied = (bound - rest_min) / a;
                                if implied > *new_lo {
                                    *new_lo = implied;
                                }
                            }
                        }
                    };
                    let tighten_ge = |bound: f64, new_lo: &mut f64, new_up: &mut f64| {
                        if rest_max.is_finite() {
                            if a > 0.0 {
                                let implied = (bound - rest_max) / a;
                                if implied > *new_lo {
                                    *new_lo = implied;
                                }
                            } else {
                                let implied = (bound - rest_max) / a;
                                if implied < *new_up {
                                    *new_up = implied;
                                }
                            }
                        }
                    };
                    match cons.sense {
                        Sense::Le => tighten_le(cons.rhs, &mut new_lo, &mut new_up),
                        Sense::Ge => tighten_ge(cons.rhs, &mut new_lo, &mut new_up),
                        Sense::Eq => {
                            tighten_le(cons.rhs, &mut new_lo, &mut new_up);
                            tighten_ge(cons.rhs, &mut new_lo, &mut new_up);
                        }
                    }
                    let var = model.variable(v);
                    if matches!(var.var_type, VarType::Integer | VarType::Binary) {
                        if new_lo.is_finite() {
                            new_lo = (new_lo - TOL).ceil();
                        }
                        if new_up.is_finite() {
                            new_up = (new_up + TOL).floor();
                        }
                    }
                    if new_lo > lo + BOUND_TIGHTEN_TOL {
                        lower[idx] = new_lo;
                        changed = true;
                    }
                    if new_up < up - BOUND_TIGHTEN_TOL {
                        upper[idx] = new_up;
                        changed = true;
                    }
                    if lower[idx] > upper[idx] + TOL {
                        return PropagationResult::Infeasible;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        PropagationResult::Consistent
    }

    /// A random model in the shape of the refinement MILPs: continuous,
    /// integer and binary variables with finite, half-infinite or free
    /// bounds around a random point, and `≤`/`≥`/`=` rows of up to five
    /// terms whose coefficients mix unit, fractional and big-M magnitudes.
    /// Each right-hand side is the row's activity at that point moved by a
    /// slack that is usually feasible and sometimes not, so runs both
    /// tighten and prove infeasibility.
    fn random_model(seed: u64) -> Model {
        let mut rng = proptest::test_runner::TestRng::new(seed);
        let mut model = Model::new("random");
        let n = 1 + rng.below(12) as usize;
        let mut point = Vec::with_capacity(n);
        let vars: Vec<_> = (0..n)
            .map(|j| {
                let below = [0.0, 1.0, 3.0, f64::INFINITY][rng.below(4) as usize];
                let above = [0.0, 1.0, 2.5, f64::INFINITY][rng.below(4) as usize];
                match rng.below(3) {
                    0 => {
                        point.push(rng.below(2) as f64);
                        model.add_binary(format!("b{j}"))
                    }
                    1 => {
                        let x = rng.below(7) as f64 - 3.0;
                        point.push(x);
                        model.add_integer(format!("i{j}"), x - below, x + above.floor())
                    }
                    _ => {
                        let x = 6.0 * rng.next_f64() - 3.0;
                        point.push(x);
                        model.add_continuous(format!("x{j}"), x - below, x + above)
                    }
                }
            })
            .collect();
        for i in 0..1 + rng.below(10) {
            let terms: LinExpr = (0..rng.below(6))
                .map(|_| {
                    let v = vars[rng.below(n as u64) as usize];
                    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                    let mag = match rng.below(4) {
                        0 => 1.0,
                        1 => 0.5 + 2.0 * rng.next_f64(),
                        2 => 25.0,
                        _ => 1.0 / 3.0,
                    };
                    (v, sign * mag)
                })
                .collect();
            let activity = terms.evaluate(&point);
            let slack = [0.0, 0.0, 0.5, 2.0, -0.25][rng.below(5) as usize];
            let (sense, rhs) = match rng.below(3) {
                0 => (Sense::Le, activity + slack),
                1 => (Sense::Ge, activity - slack),
                _ => (Sense::Eq, activity),
            };
            model.add_constraint(format!("c{i}"), terms, sense, rhs);
        }
        model
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Propagating over the workspace's CSR rows with the integrality
        /// mask gives the `LinExpr` walk's verdict and bounds bit for bit,
        /// infeasible runs (and the bounds they leave behind) included.
        #[test]
        fn csr_walk_matches_linexpr_reference(seed in 1u64..1_000_000, passes in 1usize..12) {
            let model = random_model(seed);
            let (mut lo, mut up) = bounds_of(&model);
            let (mut lo_ref, mut up_ref) = (lo.clone(), up.clone());
            let verdict = run(&model, &mut lo, &mut up, passes);
            let verdict_ref = propagate_reference(&model, &mut lo_ref, &mut up_ref, passes);
            prop_assert_eq!(verdict, verdict_ref);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(&lo), bits(&lo_ref));
            prop_assert_eq!(bits(&up), bits(&up_ref));
        }
    }
}
