//! Construction of the refinement MILP (Section 3, Figure 1) and extraction
//! of refinements from its solutions.
//!
//! The model is built from the provenance annotations of `~Q(D)`:
//!
//! * expressions (1)/(2) link each numerical predicate's refined constant
//!   `C_{A,⋄}` to per-value indicator variables `A_{v,⋄}`,
//! * expression (3) links a tuple's selection variable `r_t` to its lineage
//!   (and, for `SELECT DISTINCT`, to the selection of higher-ranked
//!   duplicates `S(t)`),
//! * expression (4) guarantees at least `k*` output tuples,
//! * expression (5) defines the rank `s_t` of every selected tuple; its rows
//!   come from one running-count sweep over the scope, in O(scope + nnz)
//!   rather than a scope walk per rank tuple,
//! * expression (6) links ranks to top-`k` membership indicators `l_{t,k}`,
//! * expressions (7)/(8) bound the deviation from the constraint set by `ε`,
//! * the objective encodes the chosen distance measure: `DIS_pred` via a
//!   Charnes–Cooper + McCormick linearisation of the Jaccard term,
//!   `DIS_Jaccard` by maximising retained original top-`k*` tuples, and
//!   `DIS_Kendall` via the Case 2 / Case 3 variables of Section 5.1.
//!
//! The three optimizations of Section 4 (relevancy pruning, lineage merging,
//! single-bound relaxation) are applied here according to the
//! [`OptimizationConfig`].

use crate::constraint::{BoundType, ConstraintSet};
use crate::distance::DistanceMeasure;
use crate::error::{CoreError, Result};
use crate::optimize::OptimizationConfig;
use qr_milp::{LinExpr, Model, Sense, VarId};
use qr_provenance::{AnnotatedRelation, LineageAtom, PredicateAssignment};
use qr_relation::CmpOp;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Branch priority assigned to categorical selection variables `A_v`.
const PRIORITY_CATEGORICAL: i32 = 100;
/// Branch priority assigned to numerical indicator variables `A_{v,⋄}`.
const PRIORITY_NUMERIC_INDICATOR: i32 = 90;
/// Branch priority assigned to tuple selection variables `r_t`. Positive (so
/// the solver's structure-aware dive fixes them together with the predicate
/// decisions, and branching prefers them over the rank/top-k followers they
/// imply) but well below the predicate variables that actually *drive* the
/// refinement.
const PRIORITY_SELECTION: i32 = 10;

/// Key identifying a numerical predicate: attribute and comparison operator.
pub type NumericKey = (String, CmpOp);

/// Handles of the variables created for the refinement MILP, used to extract
/// a [`PredicateAssignment`] from a solution and to inspect the model in
/// tests.
#[derive(Debug, Clone, Default)]
pub struct ModelVariables {
    /// `A_v` per categorical predicate attribute and domain value.
    pub categorical: BTreeMap<(String, String), VarId>,
    /// `C_{A,⋄}` per numerical predicate.
    pub numeric_constant: BTreeMap<NumericKey, VarId>,
    /// `A_{v,⋄}` per numerical predicate and domain value (by domain index).
    pub numeric_indicator: BTreeMap<NumericKey, Vec<VarId>>,
    /// The (sorted) domain of each numerical predicate attribute.
    pub numeric_domain: BTreeMap<NumericKey, Vec<f64>>,
    /// Selection variable per scope tuple (shared between tuples when lineage
    /// merging is active).
    pub selection: HashMap<usize, VarId>,
    /// Rank variable `s_t` per tuple that needs one.
    pub rank: HashMap<usize, VarId>,
    /// Top-k indicator `l_{t,k}` per `(tuple, k)` pair that needs one.
    pub topk: HashMap<(usize, usize), VarId>,
    /// Error variable `E_{G,k}` per constraint (same order as the constraint set).
    pub error: Vec<VarId>,
    /// Tuples that are part of the generated program, in rank order: their
    /// indices into `~Q(D)` ascend strictly, which the expression (5) sweep
    /// relies on.
    pub scope: Vec<usize>,
    /// The original query's top-`k*` tuple indices (only for outcome-based
    /// distance measures).
    pub original_top_k: Vec<usize>,
}

/// A fully constructed refinement MILP.
#[derive(Debug, Clone)]
pub struct BuiltModel {
    /// The MILP, ready to hand to `qr_milp::Solver`.
    pub model: Model,
    /// Variable handles.
    pub vars: ModelVariables,
    /// `k*` of the constraint set.
    pub k_star: usize,
}

impl BuiltModel {
    /// Extract the refinement encoded by a solver assignment.
    ///
    /// Categorical predicates select exactly the values whose `A_v` variable
    /// is set. Numerical constants are *snapped* to the data domain implied by
    /// the indicator variables so that re-evaluating the refinement (with the
    /// engine or the provenance what-if) reproduces exactly the tuple set the
    /// MILP reasoned about, independent of floating-point slack in `C_{A,⋄}`.
    pub fn extract_assignment(&self, values: &[f64]) -> PredicateAssignment {
        let mut categorical: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for ((attr, value), var) in &self.vars.categorical {
            let selected = values.get(var.index()).copied().unwrap_or(0.0) > 0.5;
            let entry = categorical.entry(attr.clone()).or_default();
            if selected {
                entry.insert(value.clone());
            }
        }

        let mut numeric: BTreeMap<NumericKey, f64> = BTreeMap::new();
        for (key, indicator_vars) in &self.vars.numeric_indicator {
            let domain = &self.vars.numeric_domain[key];
            let selected: Vec<f64> = domain
                .iter()
                .zip(indicator_vars)
                .filter(|(_, var)| values.get(var.index()).copied().unwrap_or(0.0) > 0.5)
                .map(|(v, _)| *v)
                .collect();
            let unselected: Vec<f64> = domain
                .iter()
                .zip(indicator_vars)
                .filter(|(_, var)| values.get(var.index()).copied().unwrap_or(0.0) <= 0.5)
                .map(|(v, _)| *v)
                .collect();
            let constant = snap_constant(key.1, &selected, &unselected, domain, || {
                self.vars
                    .numeric_constant
                    .get(key)
                    .and_then(|var| values.get(var.index()).copied())
                    .unwrap_or(0.0)
            });
            numeric.insert(key.clone(), constant);
        }

        PredicateAssignment {
            categorical,
            numeric,
        }
    }
}

/// Choose a constant that realises exactly the indicated selection for the
/// given operator, falling back to the raw solver value when the selection is
/// empty in a direction that no domain constant can express.
fn snap_constant(
    op: CmpOp,
    selected: &[f64],
    unselected: &[f64],
    domain: &[f64],
    raw: impl Fn() -> f64,
) -> f64 {
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = if domain.is_empty() {
        1.0
    } else {
        (max(domain) - min(domain)).abs().max(1.0)
    };
    match op {
        CmpOp::Ge => {
            if selected.is_empty() {
                max(domain) + span
            } else {
                min(selected)
            }
        }
        CmpOp::Gt => {
            if selected.is_empty() {
                max(domain) + span
            } else {
                // Largest unselected value strictly below the selection, if any.
                let low = min(selected);
                unselected
                    .iter()
                    .copied()
                    .filter(|v| *v < low)
                    .fold(f64::NEG_INFINITY, f64::max)
                    .max(low - span)
            }
        }
        CmpOp::Le => {
            if selected.is_empty() {
                min(domain) - span
            } else {
                max(selected)
            }
        }
        CmpOp::Lt => {
            if selected.is_empty() {
                min(domain) - span
            } else {
                let high = max(selected);
                unselected
                    .iter()
                    .copied()
                    .filter(|v| *v > high)
                    .fold(f64::INFINITY, f64::min)
                    .min(high + span)
            }
        }
        CmpOp::Eq => {
            if selected.is_empty() {
                raw()
            } else {
                selected[0]
            }
        }
    }
}

/// Reject a maximum deviation ε that is not a finite, non-negative number.
/// NaN fails every comparison, and +∞ would put an infinite right-hand side
/// on the `max_deviation` row, so both are invalid input rather than a
/// budget. Shared by the MILP build and the exhaustive search.
pub(crate) fn check_epsilon(epsilon: f64) -> Result<()> {
    if epsilon.is_finite() && epsilon >= 0.0 {
        Ok(())
    } else {
        Err(CoreError::InvalidInput(format!(
            "maximum deviation ε must be finite and non-negative, got {epsilon}"
        )))
    }
}

/// Build the refinement MILP.
pub fn build_model(
    annotated: &AnnotatedRelation,
    constraints: &ConstraintSet,
    epsilon: f64,
    distance: DistanceMeasure,
    config: &OptimizationConfig,
) -> Result<BuiltModel> {
    check_epsilon(epsilon)?;
    constraints.validate(annotated)?;
    let query = annotated.query().clone();
    let k_star = constraints.k_star();
    if annotated.len() < k_star {
        return Err(CoreError::InvalidInput(format!(
            "the relaxed query has only {} tuples but the constraint set references the top-{k_star}",
            annotated.len()
        )));
    }

    let mut model = Model::new("best-approximation-refinement");
    let mut vars = ModelVariables::default();

    // ------------------------------------------------------------------
    // Scope: which tuples of ~Q(D) get variables.
    // ------------------------------------------------------------------
    let mut scope: Vec<usize> = if config.relevancy_pruning {
        annotated.relevant_indices(k_star)
    } else {
        (0..annotated.len()).collect()
    };
    // Drop tuples that no refinement can ever select.
    scope.retain(|&i| !annotated.tuples()[i].lineage.is_unsatisfiable());
    // For DISTINCT queries the duplicate sets S(t) must be closed under
    // predecessors, otherwise the de-duplication constraints would reference
    // pruned tuples.
    if query.distinct && config.relevancy_pruning {
        let mut in_scope: HashSet<usize> = scope.iter().copied().collect();
        let mut frontier: Vec<usize> = scope.clone();
        while let Some(i) = frontier.pop() {
            for &p in &annotated.tuples()[i].duplicate_predecessors {
                if !annotated.tuples()[p].lineage.is_unsatisfiable() && in_scope.insert(p) {
                    frontier.push(p);
                }
            }
        }
        scope = in_scope.into_iter().collect();
        scope.sort_unstable();
    }
    if scope.len() < k_star {
        return Err(CoreError::InvalidInput(format!(
            "only {} selectable tuples are available but the constraint set references the top-{k_star}",
            scope.len()
        )));
    }
    let scope_set: HashSet<usize> = scope.iter().copied().collect();
    let n_scope = scope.len();
    vars.scope = scope.clone();

    // ------------------------------------------------------------------
    // Predicate variables and expressions (1)/(2).
    // ------------------------------------------------------------------
    for pred in &query.categorical_predicates {
        let domain = annotated.categorical_domain(&pred.attribute)?;
        for value in domain {
            let var = model.add_binary(format!("cat[{}={}]", pred.attribute, value));
            model.set_branch_priority(var, PRIORITY_CATEGORICAL);
            vars.categorical
                .insert((pred.attribute.clone(), value), var);
        }
    }

    for pred in &query.numeric_predicates {
        let key: NumericKey = (pred.attribute.clone(), pred.op);
        let domain = annotated.numeric_domain(&pred.attribute)?;
        if domain.is_empty() {
            return Err(CoreError::InvalidInput(format!(
                "numerical predicate attribute `{}` has no values in ~Q(D)",
                pred.attribute
            )));
        }
        // lint: allow-panic(emptiness was rejected just above, so first() is Some)
        let lo = domain.first().copied().unwrap().min(pred.constant);
        // lint: allow-panic(emptiness was rejected just above, so last() is Some)
        let hi = domain.last().copied().unwrap().max(pred.constant);
        let constant_var =
            model.add_continuous(format!("C[{} {}]", pred.attribute, pred.op), lo, hi);
        vars.numeric_constant.insert(key.clone(), constant_var);

        let delta =
            (annotated.min_gap(&pred.attribute)? / 2.0).clamp(qr_milp::tol::MIN_STRICT_DELTA, 1.0);
        let big_m = (hi - lo) + hi.abs().max(lo.abs()) + 1.0;
        let mut indicator_vars = Vec::with_capacity(domain.len());
        for &v in &domain {
            let ind = model.add_binary(format!("ind[{} {} | v={v}]", pred.attribute, pred.op));
            model.set_branch_priority(ind, PRIORITY_NUMERIC_INDICATOR);
            indicator_vars.push(ind);
            match pred.op {
                CmpOp::Ge | CmpOp::Gt => {
                    add_lower_bound_indicator(
                        &mut model,
                        constant_var,
                        ind,
                        v,
                        big_m,
                        delta,
                        pred.op,
                    );
                }
                CmpOp::Le | CmpOp::Lt => {
                    add_upper_bound_indicator(
                        &mut model,
                        constant_var,
                        ind,
                        v,
                        big_m,
                        delta,
                        pred.op,
                    );
                }
                CmpOp::Eq => {
                    // A_{v,=} = (v >= C) AND (v <= C), via two auxiliary indicators.
                    let ge = model.add_binary(format!("ind_ge[{} = | v={v}]", pred.attribute));
                    let le = model.add_binary(format!("ind_le[{} = | v={v}]", pred.attribute));
                    add_lower_bound_indicator(
                        &mut model,
                        constant_var,
                        ge,
                        v,
                        big_m,
                        delta,
                        CmpOp::Ge,
                    );
                    add_upper_bound_indicator(
                        &mut model,
                        constant_var,
                        le,
                        v,
                        big_m,
                        delta,
                        CmpOp::Le,
                    );
                    model.add_constraint(
                        format!("eq_and_a[{v}]"),
                        LinExpr::term(ind, 1.0) - LinExpr::term(ge, 1.0),
                        Sense::Le,
                        0.0,
                    );
                    model.add_constraint(
                        format!("eq_and_b[{v}]"),
                        LinExpr::term(ind, 1.0) - LinExpr::term(le, 1.0),
                        Sense::Le,
                        0.0,
                    );
                    model.add_constraint(
                        format!("eq_and_c[{v}]"),
                        LinExpr::term(ind, 1.0) - LinExpr::term(ge, 1.0) - LinExpr::term(le, 1.0),
                        Sense::Ge,
                        -1.0,
                    );
                }
            }
        }
        vars.numeric_indicator.insert(key.clone(), indicator_vars);
        vars.numeric_domain.insert(key, domain);
    }

    // ------------------------------------------------------------------
    // Selection variables r_t and expression (3).
    // ------------------------------------------------------------------
    let merge_lineage = config.lineage_merging && !query.distinct;
    let preds_count = query.predicate_count() as f64;

    // Helper that maps a lineage atom to its predicate variable.
    let atom_var = |vars: &ModelVariables, atom: &LineageAtom| -> Option<VarId> {
        match atom {
            LineageAtom::Categorical { attribute, value } => vars
                .categorical
                .get(&(attribute.clone(), value.clone()))
                .copied(),
            LineageAtom::Numeric {
                attribute,
                op,
                value,
            } => {
                let key = (attribute.clone(), *op);
                let domain = vars.numeric_domain.get(&key)?;
                let v = value.as_f64()?;
                let idx = domain.iter().position(|d| (*d - v).abs() < f64::EPSILON)?;
                vars.numeric_indicator.get(&key).map(|inds| inds[idx])
            }
            LineageAtom::Unsatisfiable { .. } => None,
        }
    };

    if merge_lineage {
        // One selection variable per lineage class (restricted to scope).
        let mut class_var: HashMap<usize, VarId> = HashMap::new();
        for &t in &scope {
            let class = annotated.class_of(t);
            let var = *class_var.entry(class).or_insert_with(|| {
                let v = model.add_binary(format!("r_class[{class}]"));
                model.set_branch_priority(v, PRIORITY_SELECTION);
                v
            });
            vars.selection.insert(t, var);
        }
        // Expression (3) once per class: 0 <= Σp - P*r <= P - 1.
        let mut done: HashSet<usize> = HashSet::new();
        for &t in &scope {
            let class = annotated.class_of(t);
            if !done.insert(class) {
                continue;
            }
            let r = class_var[&class];
            let mut expr = LinExpr::zero();
            for atom in annotated.tuples()[t].lineage.atoms() {
                let var = atom_var(&vars, atom).ok_or_else(|| {
                    CoreError::InvalidInput(format!("lineage atom `{atom}` has no model variable"))
                })?;
                expr.add_term(var, 1.0);
            }
            expr.add_term(r, -preds_count);
            model.add_constraint(
                format!("select_lo[class {class}]"),
                expr.clone(),
                Sense::Ge,
                0.0,
            );
            model.add_constraint(
                format!("select_hi[class {class}]"),
                expr,
                Sense::Le,
                preds_count - 1.0,
            );
        }
    } else {
        for &t in &scope {
            let var = model.add_binary(format!("r[{t}]"));
            model.set_branch_priority(var, PRIORITY_SELECTION);
            vars.selection.insert(t, var);
        }
        for &t in &scope {
            let r = vars.selection[&t];
            let predecessors: Vec<usize> = annotated.tuples()[t]
                .duplicate_predecessors
                .iter()
                .copied()
                .filter(|p| scope_set.contains(p))
                .collect();
            let s_count = predecessors.len() as f64;
            let mut expr = LinExpr::zero();
            for atom in annotated.tuples()[t].lineage.atoms() {
                let var = atom_var(&vars, atom).ok_or_else(|| {
                    CoreError::InvalidInput(format!("lineage atom `{atom}` has no model variable"))
                })?;
                expr.add_term(var, 1.0);
            }
            for &p in &predecessors {
                // (1 - r_{t'})
                expr.add_constant(1.0);
                expr.add_term(vars.selection[&p], -1.0);
            }
            expr.add_term(r, -(preds_count + s_count));
            model.add_constraint(format!("select_lo[{t}]"), expr.clone(), Sense::Ge, 0.0);
            model.add_constraint(
                format!("select_hi[{t}]"),
                expr,
                Sense::Le,
                preds_count + s_count - 1.0,
            );
        }
    }

    // Expression (4): at least k* tuples in the output.
    {
        let mut expr = LinExpr::zero();
        for &t in &scope {
            expr.add_term(vars.selection[&t], 1.0);
        }
        model.add_constraint("min_output_size", expr, Sense::Ge, k_star as f64);
    }

    // ------------------------------------------------------------------
    // Which tuples need rank / top-k variables.
    // ------------------------------------------------------------------
    // Members of each constraint's group.
    let group_members: Vec<Vec<usize>> = constraints
        .constraints()
        .iter()
        .map(|c| {
            scope
                .iter()
                .copied()
                .filter(|&t| {
                    c.group
                        .matches(annotated.schema(), &annotated.tuples()[t].row)
                })
                .collect()
        })
        .collect();

    // Original top-k* (for outcome-based distance measures).
    let original_top_k: Vec<usize> = if distance.is_outcome_based() {
        let assignment = PredicateAssignment::from_query(&query);
        let output = qr_provenance::whatif::evaluate_refinement(annotated, &assignment);
        output.top_k(k_star).to_vec()
    } else {
        Vec::new()
    };
    vars.original_top_k = original_top_k.clone();

    // (tuple, k) pairs that need an l variable.
    let mut topk_pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (c, members) in constraints.constraints().iter().zip(&group_members) {
        for &t in members {
            topk_pairs.insert((t, c.k));
        }
    }
    match distance {
        DistanceMeasure::Predicate => {}
        DistanceMeasure::JaccardTopK => {
            for &t in &original_top_k {
                if scope_set.contains(&t) {
                    topk_pairs.insert((t, k_star));
                }
            }
        }
        DistanceMeasure::KendallTopK => {
            // Case 3 needs l_{t,k*} for every scope tuple.
            for &t in &scope {
                topk_pairs.insert((t, k_star));
            }
        }
    }

    let rank_tuples: BTreeSet<usize> = topk_pairs.iter().map(|&(t, _)| t).collect();

    // Bound classification for the single-bound relaxation: for each tuple,
    // which bound types constrain groups containing it.
    let mut tuple_bounds: HashMap<usize, (bool, bool)> = HashMap::new(); // (has_lower, has_upper)
    for (c, members) in constraints.constraints().iter().zip(&group_members) {
        for &t in members {
            let entry = tuple_bounds.entry(t).or_insert((false, false));
            match c.bound {
                BoundType::Lower => entry.0 = true,
                BoundType::Upper => entry.1 = true,
            }
        }
    }
    let objective_tuples: HashSet<usize> = match distance {
        DistanceMeasure::Predicate => HashSet::new(),
        DistanceMeasure::JaccardTopK => original_top_k.iter().copied().collect(),
        DistanceMeasure::KendallTopK => scope.iter().copied().collect(),
    };

    // ------------------------------------------------------------------
    // Rank variables s_t and expression (5).
    // ------------------------------------------------------------------
    let big_n = n_scope as f64;
    for &t in &rank_tuples {
        let s = model.add_continuous(format!("s[{t}]"), 1.0, 2.0 * big_n + 1.0);
        vars.rank.insert(t, s);
    }
    // One sweep: `rank_tuples` ascends (a BTreeSet), and so does `scope`
    // (`0..len`, or sorted by `relevant_indices` and the DISTINCT closure;
    // `retain` keeps the order), so one cursor into `scope` counts, per
    // selection variable, the scope tuples ranked above the current rank
    // tuple. The counts are small integers, exact in f64, so each row's
    // coefficients are those of adding its terms one by one.
    debug_assert!(scope.windows(2).all(|w| w[0] < w[1]), "scope must ascend");
    let mut above: Vec<(VarId, f64)> = Vec::new();
    let mut above_slot: HashMap<VarId, usize> = HashMap::new();
    let mut cursor = scope.iter().copied().peekable();
    for &t in &rank_tuples {
        while let Some(t2) = cursor.next_if(|&t2| t2 < t) {
            let var = vars.selection[&t2];
            let slot = *above_slot.entry(var).or_insert_with(|| {
                above.push((var, 0.0));
                above.len() - 1
            });
            above[slot].1 += 1.0;
        }
        let s = vars.rank[&t];
        // 1 + N*(1 - r_t) + Σ_{t' better-ranked} r_{t'}  (sense)  s_t
        let mut expr: LinExpr = above
            .iter()
            .copied()
            .chain([(vars.selection[&t], -big_n), (s, -1.0)])
            .collect();
        expr.add_constant(1.0 + big_n);

        let sense = if config.single_bound_relaxation && !objective_tuples.contains(&t) {
            match tuple_bounds.get(&t) {
                Some((true, false)) => Sense::Le, // lower-bound groups only: expression <= s_t
                Some((false, true)) => Sense::Ge, // upper-bound groups only: expression >= s_t
                _ => Sense::Eq,
            }
        } else {
            Sense::Eq
        };
        model.add_constraint(format!("rank[{t}]"), expr, sense, 0.0);
    }

    // ------------------------------------------------------------------
    // Top-k indicators l_{t,k} and expression (6).
    // ------------------------------------------------------------------
    let rank_big_m = 2.0 * big_n + 1.0;
    for &(t, k) in &topk_pairs {
        let l = model.add_binary(format!("l[{t},k={k}]"));
        vars.topk.insert((t, k), l);
        let s = vars.rank[&t];
        // s_t + (2N+1) * l >= k + δ
        model.add_constraint(
            format!("topk_lo[{t},k={k}]"),
            LinExpr::term(s, 1.0) + LinExpr::term(l, rank_big_m),
            Sense::Ge,
            k as f64 + 0.5,
        );
        // s_t - (2N+1) * (1 - l) <= k
        model.add_constraint(
            format!("topk_hi[{t},k={k}]"),
            LinExpr::term(s, 1.0) + LinExpr::term(l, rank_big_m),
            Sense::Le,
            k as f64 + rank_big_m,
        );
    }

    // ------------------------------------------------------------------
    // Error variables and expressions (7)/(8).
    // ------------------------------------------------------------------
    let mut deviation_expr = LinExpr::zero();
    for (idx, (c, members)) in constraints
        .constraints()
        .iter()
        .zip(&group_members)
        .enumerate()
    {
        let e = model.add_continuous(format!("E[{idx}]"), 0.0, c.k as f64);
        vars.error.push(e);
        // E >= Sign(c) * (n - Σ l_{t,k})
        let mut expr = LinExpr::term(e, 1.0);
        for &t in members {
            expr.add_term(vars.topk[&(t, c.k)], c.bound.sign());
        }
        model.add_constraint(
            format!("error[{idx}]"),
            expr,
            Sense::Ge,
            c.bound.sign() * c.n as f64,
        );
        let denom = if c.n == 0 { 1.0 } else { c.n as f64 };
        deviation_expr.add_term(e, 1.0 / denom);
    }
    // (1/|C|) Σ E/n <= ε
    model.add_constraint(
        "max_deviation",
        deviation_expr,
        Sense::Le,
        epsilon * constraints.len() as f64,
    );

    // ------------------------------------------------------------------
    // Objective.
    // ------------------------------------------------------------------
    let objective = match distance {
        DistanceMeasure::Predicate => build_predicate_objective(&mut model, &vars, annotated)?,
        DistanceMeasure::JaccardTopK => {
            let mut obj = LinExpr::constant(k_star as f64);
            for &t in &original_top_k {
                if let Some(&l) = vars.topk.get(&(t, k_star)) {
                    obj.add_term(l, -1.0);
                }
            }
            obj
        }
        DistanceMeasure::KendallTopK => {
            build_kendall_objective(&mut model, &vars, &original_top_k, &scope, k_star, big_n)
        }
    };
    model.set_objective(objective);

    Ok(BuiltModel {
        model,
        vars,
        k_star,
    })
}

/// Expression (1): indicators for lower-bound numerical predicates (`>=`, `>`).
fn add_lower_bound_indicator(
    model: &mut Model,
    constant: VarId,
    indicator: VarId,
    v: f64,
    big_m: f64,
    delta: f64,
    op: CmpOp,
) {
    let strict = if op.is_strict() { 1.0 } else { 0.0 };
    // C + M*A >= v + (1 - St)*δ
    model.add_constraint(
        format!("num_lo_a[{v}]"),
        LinExpr::term(constant, 1.0) + LinExpr::term(indicator, big_m),
        Sense::Ge,
        v + (1.0 - strict) * delta,
    );
    // C - M*(1 - A) <= v - St*δ    <=>   C + M*A <= v - St*δ + M
    model.add_constraint(
        format!("num_lo_b[{v}]"),
        LinExpr::term(constant, 1.0) + LinExpr::term(indicator, big_m),
        Sense::Le,
        v - strict * delta + big_m,
    );
}

/// Expression (2): indicators for upper-bound numerical predicates (`<=`, `<`).
fn add_upper_bound_indicator(
    model: &mut Model,
    constant: VarId,
    indicator: VarId,
    v: f64,
    big_m: f64,
    delta: f64,
    op: CmpOp,
) {
    let strict = if op.is_strict() { 1.0 } else { 0.0 };
    // C - M*A <= v - (1 - St)*δ
    model.add_constraint(
        format!("num_hi_a[{v}]"),
        LinExpr::term(constant, 1.0) - LinExpr::term(indicator, big_m),
        Sense::Le,
        v - (1.0 - strict) * delta,
    );
    // C + M*(1 - A) >= v + St*δ    <=>   C - M*A >= v + St*δ - M
    model.add_constraint(
        format!("num_hi_b[{v}]"),
        LinExpr::term(constant, 1.0) - LinExpr::term(indicator, big_m),
        Sense::Ge,
        v + strict * delta - big_m,
    );
}

/// The `DIS_pred` objective: normalised numerical constant changes plus the
/// Jaccard distance of every categorical predicate, linearised with the
/// Charnes–Cooper transformation and exact McCormick products (the factors
/// are binary).
fn build_predicate_objective(
    model: &mut Model,
    vars: &ModelVariables,
    annotated: &AnnotatedRelation,
) -> Result<LinExpr> {
    let query = annotated.query();
    let mut objective = LinExpr::zero();

    // Numerical part: |C - C_orig| / |C_orig| via an auxiliary absolute-value variable.
    for pred in &query.numeric_predicates {
        let key: NumericKey = (pred.attribute.clone(), pred.op);
        let c_var = vars.numeric_constant[&key];
        let denom = if pred.constant.abs() < f64::EPSILON {
            1.0
        } else {
            pred.constant.abs()
        };
        let dist = model.add_continuous(
            format!("numdist[{} {}]", pred.attribute, pred.op),
            0.0,
            f64::INFINITY,
        );
        // dist >= (C - C_orig)/denom  and  dist >= -(C - C_orig)/denom
        model.add_constraint(
            format!("numdist_pos[{} {}]", pred.attribute, pred.op),
            LinExpr::term(dist, 1.0) - LinExpr::term(c_var, 1.0 / denom),
            Sense::Ge,
            -pred.constant / denom,
        );
        model.add_constraint(
            format!("numdist_neg[{} {}]", pred.attribute, pred.op),
            LinExpr::term(dist, 1.0) + LinExpr::term(c_var, 1.0 / denom),
            Sense::Ge,
            pred.constant / denom,
        );
        objective.add_term(dist, 1.0);
    }

    // Categorical part: Jaccard distance 1 - |O ∩ C'| / |O ∪ C'|.
    for pred in &query.categorical_predicates {
        let domain = annotated.categorical_domain(&pred.attribute)?;
        let original: BTreeSet<&str> = pred.values.iter().map(|s| s.as_str()).collect();
        if original.is_empty() {
            continue;
        }
        let non_original: Vec<&String> = domain
            .iter()
            .filter(|v| !original.contains(v.as_str()))
            .collect();
        let o_size = original.len() as f64;
        let max_union = o_size + non_original.len() as f64;
        let (w_lo, w_up) = (1.0 / max_union, 1.0 / o_size);
        // w = 1 / |O ∪ C'|
        let w = model.add_continuous(format!("jacc_w[{}]", pred.attribute), w_lo, w_up);

        // Product variables: p_v = A_v * w for v in the domain.
        // Union normalisation: |O| * w + Σ_{v ∉ O} p_v = 1.
        let mut union_expr = LinExpr::term(w, o_size);
        // Intersection: Σ_{v ∈ O ∩ domain} p_v.
        let mut intersection_expr = LinExpr::zero();

        for value in &domain {
            let a = vars.categorical[&(pred.attribute.clone(), value.clone())];
            let in_original = original.contains(value.as_str());
            let p =
                model.add_continuous(format!("jacc_p[{}={}]", pred.attribute, value), 0.0, w_up);
            // Exact McCormick envelope for p = a * w with a binary:
            //   p <= w_up * a
            model.add_constraint(
                format!("mc1[{}={}]", pred.attribute, value),
                LinExpr::term(p, 1.0) - LinExpr::term(a, w_up),
                Sense::Le,
                0.0,
            );
            //   p <= w
            model.add_constraint(
                format!("mc2[{}={}]", pred.attribute, value),
                LinExpr::term(p, 1.0) - LinExpr::term(w, 1.0),
                Sense::Le,
                0.0,
            );
            //   p >= w - w_up * (1 - a)
            model.add_constraint(
                format!("mc3[{}={}]", pred.attribute, value),
                LinExpr::term(p, 1.0) - LinExpr::term(w, 1.0) - LinExpr::term(a, w_up),
                Sense::Ge,
                -w_up,
            );
            //   p >= w_lo * a
            model.add_constraint(
                format!("mc4[{}={}]", pred.attribute, value),
                LinExpr::term(p, 1.0) - LinExpr::term(a, w_lo),
                Sense::Ge,
                0.0,
            );
            if in_original {
                intersection_expr.add_term(p, 1.0);
            } else {
                union_expr.add_term(p, 1.0);
            }
        }
        model.add_constraint(
            format!("jacc_norm[{}]", pred.attribute),
            union_expr,
            Sense::Eq,
            1.0,
        );
        // Jaccard distance = 1 - intersection/union = 1 - Σ p_v (v ∈ O).
        objective.add_constant(1.0);
        objective -= intersection_expr;
    }

    Ok(objective)
}

/// The `DIS_Kendall` objective: Case 2 / Case 3 variables of Section 5.1 for
/// every tuple of the original top-`k*`.
fn build_kendall_objective(
    model: &mut Model,
    vars: &ModelVariables,
    original_top_k: &[usize],
    scope: &[usize],
    k_star: usize,
    big_n: f64,
) -> LinExpr {
    let mut objective = LinExpr::zero();
    let original_set: HashSet<usize> = original_top_k.iter().copied().collect();
    let coeff = big_n + 1.0;

    // Σ_{t' ∉ Q(D)_{k*}} l_{t',k*} is shared by every Case 3 expression.
    let newcomers: Vec<VarId> = scope
        .iter()
        .filter(|t| !original_set.contains(t))
        .filter_map(|&t| vars.topk.get(&(t, k_star)).copied())
        .collect();

    for (pos, &t) in original_top_k.iter().enumerate() {
        let Some(&l_t) = vars.topk.get(&(t, k_star)) else {
            continue;
        };

        // Case 2: original tuples ranked below t that remain in the top-k*.
        let mut worse = LinExpr::zero();
        for &t2 in &original_top_k[pos + 1..] {
            if let Some(&l) = vars.topk.get(&(t2, k_star)) {
                worse.add_term(l, 1.0);
            }
        }
        let case2 = model.add_continuous(format!("case2[{t}]"), 0.0, k_star as f64);
        model.add_constraint(
            format!("case2_zero_if_kept[{t}]"),
            LinExpr::term(case2, 1.0) + LinExpr::term(l_t, coeff),
            Sense::Le,
            coeff,
        );
        model.add_constraint(
            format!("case2_ub[{t}]"),
            LinExpr::term(case2, 1.0) - LinExpr::term(l_t, coeff) - worse.clone(),
            Sense::Le,
            0.0,
        );
        model.add_constraint(
            format!("case2_lb[{t}]"),
            LinExpr::term(case2, 1.0) + LinExpr::term(l_t, coeff) - worse,
            Sense::Ge,
            0.0,
        );
        objective.add_term(case2, 1.0);

        // Case 3: tuples outside the original top-k* that enter it.
        let case3 = model.add_continuous(format!("case3[{t}]"), 0.0, k_star as f64);
        model.add_constraint(
            format!("case3_zero_if_kept[{t}]"),
            LinExpr::term(case3, 1.0) + LinExpr::term(l_t, coeff),
            Sense::Le,
            coeff,
        );
        // l_t is never a newcomer, so no two of these terms merge.
        let case3_row = |l_t_coeff: f64| -> LinExpr {
            [(case3, 1.0), (l_t, l_t_coeff)]
                .into_iter()
                .chain(newcomers.iter().map(|&l| (l, -1.0)))
                .collect()
        };
        model.add_constraint(format!("case3_ub[{t}]"), case3_row(-coeff), Sense::Le, 0.0);
        model.add_constraint(format!("case3_lb[{t}]"), case3_row(coeff), Sense::Ge, 0.0);
        objective.add_term(case3, 1.0);
    }
    objective
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{CardinalityConstraint, Group};
    use crate::paper_example::{paper_database, scholarship_query};

    fn build_default(distance: DistanceMeasure, config: OptimizationConfig) -> BuiltModel {
        let db = paper_database();
        let query = scholarship_query();
        let annotated = AnnotatedRelation::build(&db, &query).unwrap();
        let constraints = ConstraintSet::new().with(CardinalityConstraint::at_least(
            Group::single("Gender", "F"),
            6,
            3,
        ));
        build_model(&annotated, &constraints, 0.0, distance, &config).unwrap()
    }

    #[test]
    fn model_has_expected_variable_families() {
        let built = build_default(DistanceMeasure::Predicate, OptimizationConfig::none());
        // 5 activity values + GPA domain indicators + C + r/s/l/E + distance aux.
        assert_eq!(
            built.vars.categorical.len(),
            5,
            "Activity domain is {{GD, MO, RB, SO, TU}}"
        );
        assert_eq!(built.vars.numeric_constant.len(), 1);
        // GPA values present in ~Q(D) (students with an activity): 3.6..4.0.
        assert_eq!(
            built.vars.numeric_indicator[&("GPA".to_string(), CmpOp::Ge)].len(),
            5
        );
        // All 14 tuples of Table 5 are in scope without optimizations.
        assert_eq!(built.vars.scope.len(), 14);
        assert_eq!(built.vars.error.len(), 1);
        assert!(built.model.num_constraints() > 40);
        assert!(built.model.validate().is_ok());
    }

    #[test]
    fn relevancy_pruning_shrinks_scope() {
        let without = build_default(DistanceMeasure::Predicate, OptimizationConfig::none());
        let with = build_default(DistanceMeasure::Predicate, OptimizationConfig::all());
        assert!(with.vars.scope.len() <= without.vars.scope.len());
        assert!(with.model.num_variables() <= without.model.num_variables());
    }

    #[test]
    fn outcome_measures_track_original_top_k() {
        let built = build_default(DistanceMeasure::JaccardTopK, OptimizationConfig::none());
        assert_eq!(built.vars.original_top_k.len(), 6);
        let built_pred = build_default(DistanceMeasure::Predicate, OptimizationConfig::none());
        assert!(built_pred.vars.original_top_k.is_empty());
        // Kendall needs l variables for every scope tuple.
        let built_ken = build_default(DistanceMeasure::KendallTopK, OptimizationConfig::none());
        assert_eq!(
            built_ken.vars.topk.keys().filter(|(_, k)| *k == 6).count(),
            built_ken.vars.scope.len()
        );
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let db = paper_database();
        let query = scholarship_query();
        let annotated = AnnotatedRelation::build(&db, &query).unwrap();
        let constraints = ConstraintSet::new().with(CardinalityConstraint::at_least(
            Group::single("Gender", "F"),
            6,
            3,
        ));
        let err = build_model(
            &annotated,
            &constraints,
            -0.1,
            DistanceMeasure::Predicate,
            &OptimizationConfig::all(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput(_)));
    }

    #[test]
    fn k_star_larger_than_data_rejected() {
        let db = paper_database();
        let query = scholarship_query();
        let annotated = AnnotatedRelation::build(&db, &query).unwrap();
        let constraints = ConstraintSet::new().with(CardinalityConstraint::at_least(
            Group::single("Gender", "F"),
            100,
            3,
        ));
        let err = build_model(
            &annotated,
            &constraints,
            0.5,
            DistanceMeasure::Predicate,
            &OptimizationConfig::all(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput(_)));
    }

    #[test]
    fn snap_constant_realises_indicated_selection() {
        // Domain 3.5..4.0; selection {3.7, 3.8, 3.9, 4.0} under >= must give C in (3.6, 3.7].
        let domain = [3.5, 3.6, 3.7, 3.8, 3.9, 4.0];
        let selected = [3.7, 3.8, 3.9, 4.0];
        let unselected = [3.5, 3.6];
        let c = snap_constant(CmpOp::Ge, &selected, &unselected, &domain, || 3.65);
        assert!((c - 3.7).abs() < 1e-12);
        // Nothing selected: constant beyond the domain maximum.
        let c = snap_constant(CmpOp::Ge, &[], &domain, &domain, || 0.0);
        assert!(c > 4.0);
        // <= with selection {3.5, 3.6}: constant 3.6.
        let c = snap_constant(CmpOp::Le, &[3.5, 3.6], &[3.7, 3.8], &domain, || 0.0);
        assert!((c - 3.6).abs() < 1e-12);
        // strict > with selection {3.8, 3.9, 4.0}: constant must exclude 3.7.
        let c = snap_constant(
            CmpOp::Gt,
            &[3.8, 3.9, 4.0],
            &[3.5, 3.6, 3.7],
            &domain,
            || 0.0,
        );
        assert!((3.7 - 1e-12..3.8).contains(&c));
        // strict < with selection {3.5}: constant must exclude 3.6.
        let c = snap_constant(CmpOp::Lt, &[3.5], &[3.6, 3.7], &domain, || 0.0);
        assert!(c > 3.5 && c <= 3.6 + 1e-12);
        // Eq snaps to the selected value.
        let c = snap_constant(CmpOp::Eq, &[3.8], &[], &domain, || 0.0);
        assert_eq!(c, 3.8);
    }
}
