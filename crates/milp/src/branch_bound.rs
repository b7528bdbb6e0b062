//! Branch-and-bound driver.
//!
//! The solver explores a depth-first tree of bound restrictions over the
//! integer variables. At every node it first runs bound propagation
//! ([`crate::propagate`]), then solves the LP relaxation
//! ([`crate::simplex`]); nodes are pruned when propagation detects
//! infeasibility, the LP is infeasible, or the LP bound cannot beat the
//! incumbent. Branching prefers variables with a higher user-assigned
//! priority (the `qr-core` model marks the refinement decision variables as
//! high priority), breaking ties by most-fractional value.
//!
//! Node LPs are **warm-started**: a child differs from its parent by a single
//! branched bound (plus propagation tightenings), so after the cold root
//! solve every node re-solves from its parent's optimal [`Basis`] with the
//! bound-flip dual simplex instead of a fresh two-phase run. One
//! [`crate::simplex::LpWorkspace`] is shared by all node solves (the sparse
//! matrix is extracted once, the basis factorization and scratch buffers are
//! reused), and the rounding-dive heuristic reuses the current node's basis
//! the same way. Restoring a sibling's basis is a sparse LU
//! refactorization of the sparse matrix — not a tableau re-pivot — and
//! refactorization cadence is owned by the factorization's stability policy
//! ([`crate::factor`]), not a fixed per-node counter. Warm solves that fail
//! (stale/singular basis, dual stall) fall back to a cold solve; the
//! warm/cold split and factorization health are reported in [`SolveStats`].

use crate::basis::Basis;
use crate::control::{SolveControl, SolveProgress, StopCondition};
use crate::error::{MilpError, Result};
use crate::model::{Model, VarType};
use crate::propagate::{box_objective_bound, integrality_mask, propagate, PropagationResult};
use crate::resume::{model_fingerprint, FrontierNode as Node, ResumeState};
use crate::simplex::{LpSolution, LpStatus, LpWorkspace};
use crate::solution::{Solution, SolveStats, SolveStatus};
use crate::tol::{ABSOLUTE_GAP, INTEGRALITY_TOL};
use std::sync::Arc;
use std::time::Instant;

/// Maximum number of bound-propagation sweeps per node (and per dive tier).
const PROPAGATION_PASSES: usize = 12;

/// Pivot cap for each LP solve. An LP that reaches it is unreliable: the
/// search falls back to the box bound and midpoint branching for that node,
/// and a solve that has to drop such a node ends `Feasible` or
/// `LimitReached` instead of claiming a proven answer.
const MAX_LP_ITERATIONS: usize = 50_000;

/// Tunable solver parameters.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Maximum number of branch-and-bound nodes to process. Reaching it ends
    /// the solve `Feasible` or `LimitReached`; wall-clock limits belong to
    /// the [`SolveControl`] instead.
    pub max_nodes: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { max_nodes: 200_000 }
    }
}

/// Cross-solve warm-start seed: hints carried from an earlier solve of a
/// *nearby* model (same columns, different bounds/right-hand side — e.g. the
/// same refinement query at a different ε) into a fresh search.
///
/// Both halves are optional and both are **hints**, never trusted:
///
/// * `basis` seeds the root node's LP, which then restarts through the same
///   bound-flipping dual-simplex path as any parent basis; a stale or
///   shape-mismatched basis falls back to the cold two-phase solve exactly
///   like a failed intra-tree warm start.
/// * `incumbent` is re-validated against *this* model (bounds, rows,
///   integrality) before it may prune anything — a cached assignment that the
///   new ε makes infeasible is silently discarded, so a warm entry can never
///   change what the search returns, only how fast it gets there.
///
/// Obtain the ingredients from a previous [`Solution`]'s
/// [`basis`](Solution::basis) / [`values`](Solution::values) and feed them to
/// [`Solver::solve_warm_with_control`]. [`SolveStats::warm_entry_solves`]
/// records whether the basis half was used.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Basis snapshot to seed the root LP from.
    pub basis: Option<Arc<Basis>>,
    /// Candidate incumbent assignment (full-length, by variable index).
    pub incumbent: Option<Vec<f64>>,
}

impl WarmStart {
    /// An empty warm start (equivalent to a cold [`Solver::solve_with_control`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Seed the root LP from a basis snapshot.
    #[must_use]
    pub fn with_basis(mut self, basis: Arc<Basis>) -> Self {
        self.basis = Some(basis);
        self
    }

    /// Offer a candidate incumbent (validated against the model before use).
    #[must_use]
    pub fn with_incumbent(mut self, values: Vec<f64>) -> Self {
        self.incumbent = Some(values);
        self
    }

    /// Whether this warm start carries no information at all.
    pub fn is_empty(&self) -> bool {
        self.basis.is_none() && self.incumbent.is_none()
    }
}

// A branch-and-bound node is a `resume::FrontierNode` (imported as `Node`):
// a box of variable bounds, the parent's LP bound (for pruning before paying
// for this node's LP), and the parent's optimal basis (for warm-starting this
// node's LP; shared with the sibling via `Arc` so the whole solve path stays
// `Send + Sync`). Sharing the struct with `ResumeState` means suspending a
// search is *moving* the node stack into the checkpoint, not translating it.

/// The MILP solver.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    /// Solver parameters.
    pub options: SolverOptions,
}

impl Solver {
    /// Create a solver with the given options.
    pub fn new(options: SolverOptions) -> Self {
        Solver { options }
    }

    /// Solve a model, minimising its objective, with no external execution
    /// control (equivalent to [`solve_with_control`](Self::solve_with_control)
    /// with a default [`SolveControl`]).
    pub fn solve(&self, model: &Model) -> Result<Solution> {
        self.solve_with_control(model, &SolveControl::default())
    }

    /// Solve a model under an execution control: cooperative cancellation
    /// and the unified deadline end the solve with
    /// [`SolveStatus::Interrupted`] — best incumbent and complete statistics
    /// still reported — and the attached
    /// [`SolveObserver`](crate::control::SolveObserver) receives incumbent /
    /// node / bound events as the search progresses.
    ///
    /// ```
    /// use qr_milp::control::SolveControl;
    /// use qr_milp::prelude::*;
    /// use std::time::Duration;
    ///
    /// let mut m = Model::new("doc");
    /// let x = m.add_binary("x");
    /// m.set_objective(LinExpr::term(x, 1.0));
    /// let control = SolveControl::new().with_time_limit(Duration::from_secs(30));
    /// let s = Solver::default().solve_with_control(&m, &control).unwrap();
    /// assert_eq!(s.status, SolveStatus::Optimal); // well within the deadline
    /// ```
    pub fn solve_with_control(&self, model: &Model, control: &SolveControl) -> Result<Solution> {
        self.run_search(model, control, None, None)
    }

    /// Solve a model seeded by a [`WarmStart`] from an earlier solve of a
    /// nearby model: the root LP restarts from the supplied basis and a
    /// re-validated incumbent prunes from node one. Hints that do not fit
    /// this model are discarded (basis → cold fallback, incumbent → dropped),
    /// so the returned optimum is identical to
    /// [`solve_with_control`](Self::solve_with_control)'s — the warm entry
    /// only changes how much work proving it takes.
    ///
    /// ```
    /// use qr_milp::branch_bound::WarmStart;
    /// use qr_milp::control::SolveControl;
    /// use qr_milp::prelude::*;
    ///
    /// let mut m = Model::new("doc-warm");
    /// let x = m.add_binary("x");
    /// m.set_objective(LinExpr::term(x, 1.0));
    /// let control = SolveControl::new();
    /// let first = Solver::default().solve_with_control(&m, &control).unwrap();
    /// let warm = WarmStart::new().with_incumbent(first.values.clone());
    /// let warm = match &first.basis {
    ///     Some(basis) => warm.with_basis(basis.clone()),
    ///     None => warm,
    /// };
    /// let second = Solver::default().solve_warm_with_control(&m, &warm, &control).unwrap();
    /// assert_eq!(second.status, SolveStatus::Optimal);
    /// assert!((second.objective - first.objective).abs() < qr_milp::tol::ASSERT_TOL);
    /// ```
    pub fn solve_warm_with_control(
        &self,
        model: &Model,
        warm: &WarmStart,
        control: &SolveControl,
    ) -> Result<Solution> {
        self.run_search(model, control, None, Some(warm))
    }

    /// Resume an interrupted solve from a captured [`ResumeState`],
    /// continuing the search exactly where it stopped: the open-node frontier
    /// (with its warm-start bases), incumbent and proven bound all survive,
    /// so subtrees pruned before the interruption are never re-explored and a
    /// chain of small-deadline solves converges to the same objective as one
    /// uninterrupted solve.
    ///
    /// `model` must be the same model the state was captured from
    /// (structurally — names may differ); a mismatch fails with
    /// [`MilpError::StaleResume`] instead of silently searching the wrong
    /// problem. The returned [`Solution`] reports *this segment's* statistics
    /// (with [`SolveStats::resumed_solves`] and
    /// [`SolveStats::nodes_restored`] set); cumulative node counts are
    /// available through [`ResumeState::nodes_so_far`]. The node limit
    /// ([`SolverOptions::max_nodes`]) is a per-segment budget.
    ///
    /// ```
    /// use qr_milp::control::{CancelToken, SolveControl};
    /// use qr_milp::prelude::*;
    ///
    /// let mut m = Model::new("doc-resume");
    /// let x = m.add_binary("x");
    /// m.set_objective(LinExpr::term(x, 1.0));
    /// let token = CancelToken::new();
    /// token.cancel(); // interrupt immediately: the root is pushed back intact
    /// let control = SolveControl::new().with_cancel_token(token);
    /// let first = Solver::default().solve_with_control(&m, &control).unwrap();
    /// assert_eq!(first.status, SolveStatus::Interrupted);
    /// let state = first.resume.expect("open frontier captured");
    /// // A later call picks the search back up under a fresh control.
    /// let second = Solver::default()
    ///     .resume_with_control(&m, &state, &SolveControl::new())
    ///     .unwrap();
    /// assert_eq!(second.status, SolveStatus::Optimal);
    /// assert_eq!(second.stats.resumed_solves, 1);
    /// ```
    pub fn resume_with_control(
        &self,
        model: &Model,
        state: &ResumeState,
        control: &SolveControl,
    ) -> Result<Solution> {
        self.run_search(model, control, Some(state.clone()), None)
    }

    /// The branch-and-bound search, optionally seeded by a [`ResumeState`]
    /// or a cross-solve [`WarmStart`] (all entry points funnel here, so
    /// fresh, resumed and warm-entered segments run the byte-identical
    /// search loop).
    fn run_search(
        &self,
        model: &Model,
        control: &SolveControl,
        seed: Option<ResumeState>,
        warm_entry: Option<&WarmStart>,
    ) -> Result<Solution> {
        model.validate()?;
        let fingerprint = model_fingerprint(model);
        if let Some(seed) = &seed {
            if seed.fingerprint != fingerprint {
                return Err(MilpError::StaleResume {
                    expected: seed.fingerprint,
                    actual: fingerprint,
                });
            }
        }
        let start = Instant::now();
        let mut stats = SolveStats {
            best_bound: f64::NEG_INFINITY,
            ..SolveStats::default()
        };

        let n = model.num_variables();
        // The one stop check of this search: the node loop, the node LPs and
        // the dive all poll it.
        let stop = control.stop_condition(start);
        let root_lower: Vec<f64> = model.variables().iter().map(|v| v.lower).collect();
        let root_upper: Vec<f64> = model.variables().iter().map(|v| v.upper).collect();

        let integral = integrality_mask(model);
        let integer_vars: Vec<usize> = (0..n).filter(|&i| integral[i]).collect();
        // The structure-aware dive fixes integer variables tier by tier in
        // descending branch-priority order (decision variables first, the
        // follower variables they imply last), re-solving the relaxation
        // between tiers.
        let priority_tiers: Vec<Vec<usize>> = {
            let mut levels: Vec<i32> = integer_vars
                .iter()
                .map(|&i| model.variables()[i].branch_priority)
                .collect();
            levels.sort_unstable_by(|a, b| b.cmp(a));
            levels.dedup();
            levels
                .into_iter()
                .map(|level| {
                    integer_vars
                        .iter()
                        .copied()
                        .filter(|&i| model.variables()[i].branch_priority == level)
                        .collect()
                })
                .collect()
        };

        // One workspace answers every node LP: the sparse matrix is extracted
        // once, scratch buffers are reused, and the previous node's basis
        // factorization makes first-child warm starts nearly free.
        let mut workspace = LpWorkspace::new(model)?;
        stats.matrix_nnz = workspace.matrix_nnz();

        let mut incumbent: Option<(f64, Vec<f64>)> = None;
        let mut limit_hit = false;
        let mut interrupted = false;

        let mut stack: Vec<Node> = vec![Node {
            lower: root_lower,
            upper: root_upper,
            parent_bound: f64::NEG_INFINITY,
            parent_basis: None,
        }];
        let mut root_processed = false;
        // Nodes processed by earlier segments of a resumed search. The dive
        // cadence below keys off `prior_nodes + stats.nodes`, so a chain of
        // interrupted segments fires its heuristics at the same global node
        // numbers the uninterrupted solve would — a prerequisite for the
        // chain converging along the same tree.
        let mut prior_nodes = 0usize;
        let mut prior_segments = 0usize;
        if let Some(seed) = seed {
            let ResumeState {
                frontier,
                incumbent: seeded_incumbent,
                best_bound,
                root_processed: seeded_root,
                prior_nodes: seeded_nodes,
                prior_segments: seeded_segments,
                pricing_cursor,
                fingerprint: _,
            } = seed;
            stats.resumed_solves = 1;
            stats.nodes_restored = frontier.len();
            stats.best_bound = best_bound;
            stack = frontier;
            incumbent = seeded_incumbent;
            root_processed = seeded_root;
            prior_nodes = seeded_nodes;
            prior_segments = seeded_segments;
            workspace.set_pricing_cursor(pricing_cursor);
        }

        // The basis that produced the current incumbent, exported on the
        // final `Solution` so callers (the cross-request cache) can seed the
        // next nearby solve. Tracked alongside `incumbent` at both
        // acceptance sites.
        let mut incumbent_basis: Option<Arc<Basis>> = None;

        // Cross-solve warm entry: seed the root LP and the incumbent from a
        // previous solve's artifacts. Both are hints — the basis falls back
        // to a cold solve if it no longer fits, and the incumbent is
        // re-validated against *this* model before it may prune anything —
        // so a warm entry can never change the returned optimum.
        if let Some(warm) = warm_entry {
            if let Some(basis) = &warm.basis {
                if let Some(root) = stack.last_mut() {
                    root.parent_basis = Some(basis.clone());
                    stats.warm_entry_solves = 1;
                }
            }
            if let Some(candidate) = &warm.incumbent {
                if let Some(objective) = validated_incumbent_objective(model, candidate) {
                    let better = incumbent
                        .as_ref()
                        .map(|(o, _)| objective < *o)
                        .unwrap_or(true);
                    if better {
                        incumbent = Some((objective, round_integers(candidate, &integer_vars)));
                    }
                }
            }
        }

        while let Some(node) = stack.pop() {
            if stop.should_stop() {
                // Push the un-processed node back so the captured frontier is
                // complete: resuming must re-see exactly the nodes this
                // segment did not finish.
                stack.push(node);
                interrupted = true;
                break;
            }
            if stats.nodes >= self.options.max_nodes {
                stack.push(node);
                limit_hit = true;
                break;
            }
            let Node {
                mut lower,
                mut upper,
                parent_bound,
                parent_basis,
            } = node;
            stats.nodes += 1;
            // `halt` marks the two mid-node push-back exits below: the node
            // was handed back (and un-counted), so the outer loop must stop
            // without telling the observer about it.
            let mut halt = false;
            'processed: {
                // Prune against the incumbent using the parent's bound.
                if let Some((inc_obj, _)) = &incumbent {
                    if parent_bound >= inc_obj - ABSOLUTE_GAP {
                        break 'processed;
                    }
                }

                // Node presolve: bound propagation.
                match propagate(
                    &workspace,
                    &integral,
                    &mut lower,
                    &mut upper,
                    PROPAGATION_PASSES,
                ) {
                    PropagationResult::Infeasible => break 'processed,
                    PropagationResult::Consistent => {}
                }

                // Cheap box bound before paying for an LP.
                if let Some((inc_obj, _)) = &incumbent {
                    let box_bound = box_objective_bound(model, &lower, &upper);
                    if box_bound >= inc_obj - ABSOLUTE_GAP {
                        break 'processed;
                    }
                }

                // LP relaxation, warm-started from the parent basis.
                let lp = solve_node_lp(
                    &mut workspace,
                    &lower,
                    &upper,
                    parent_basis.as_deref(),
                    &stop,
                    &mut stats,
                )?;
                // A control stop that fires *inside* this node's LP surfaces as
                // an iteration-limited LP. Re-pushing the node (propagated
                // bounds, original parent basis) instead of branching it on
                // meaningless midpoint values keeps the frontier exact: the
                // resumed segment re-solves this LP warm from the same basis and
                // branches exactly as the uninterrupted solve would have. Only
                // the interrupted LP's partial pivots are paid twice.
                if lp.status == LpStatus::IterationLimit && stop.should_stop() {
                    stack.push(Node {
                        lower,
                        upper,
                        parent_bound,
                        parent_basis,
                    });
                    // The popped node was counted above but not processed; hand
                    // the count back so chain node totals stay comparable to the
                    // uninterrupted run's.
                    stats.nodes -= 1;
                    interrupted = true;
                    halt = true;
                    break 'processed;
                }
                let (node_bound, lp_values, lp_reliable) = match lp.status {
                    LpStatus::Infeasible => break 'processed,
                    LpStatus::Unbounded => {
                        if !root_processed {
                            return Ok(Solution::without_assignment(SolveStatus::Unbounded, stats));
                        }
                        (f64::NEG_INFINITY, lp.values, true)
                    }
                    // An iteration-limited LP yields neither a usable bound nor a
                    // usable point: fall back to the box bound and branch on
                    // midpoints instead of the (possibly meaningless) LP values.
                    LpStatus::IterationLimit => {
                        let mid: Vec<f64> = (0..n)
                            .map(|i| {
                                let lo = lower[i];
                                let up = upper[i];
                                if lo.is_finite() && up.is_finite() {
                                    (lo + up) / 2.0
                                } else {
                                    lo.max(0.0)
                                }
                            })
                            .collect();
                        (box_objective_bound(model, &lower, &upper), mid, false)
                    }
                    LpStatus::Optimal => (lp.objective, lp.values, true),
                };
                if !root_processed {
                    stats.best_bound = node_bound;
                    root_processed = true;
                    if let Some(observer) = control.observer() {
                        observer.bound_improved(&progress_of(
                            &stats,
                            incumbent.as_ref().map(|(obj, _)| *obj),
                        ));
                    }
                }

                if let Some((inc_obj, _)) = &incumbent {
                    if node_bound >= inc_obj - ABSOLUTE_GAP {
                        break 'processed;
                    }
                }

                // Find a fractional integer variable to branch on.
                let branch_var =
                    select_branch_variable(model, &integer_vars, &lp_values, &lower, &upper);

                match branch_var {
                    None => {
                        // All integer variables are integral. Only an LP-optimal
                        // point is known to be MILP-feasible; an unreliable node
                        // (iteration-limited LP) is dropped rather than risking
                        // an infeasible incumbent — but dropping it forfeits
                        // completeness, so the final status must not claim a
                        // proven optimum or proven infeasibility.
                        if !lp_reliable {
                            limit_hit = true;
                            break 'processed;
                        }
                        let obj = node_bound;
                        let better = incumbent.as_ref().map(|(o, _)| obj < *o).unwrap_or(true);
                        if better {
                            incumbent = Some((obj, round_integers(&lp_values, &integer_vars)));
                            // The workspace still holds this leaf's optimal
                            // basis — snapshot it for the caller (cache seed).
                            incumbent_basis = if lp.status == LpStatus::Optimal {
                                workspace.snapshot_basis().map(Arc::new)
                            } else {
                                None
                            };
                            if let Some(observer) = control.observer() {
                                observer.incumbent_found(&progress_of(&stats, Some(obj)));
                            }
                        }
                    }
                    Some((var_idx, frac_value)) => {
                        // Snapshot this node's optimal basis for its children
                        // (and the dive below). Shared via Arc — both children
                        // and the heuristic read the same snapshot. Skipped for
                        // integral leaves, which have no consumers.
                        let node_basis: Option<Arc<Basis>> = if lp.status == LpStatus::Optimal {
                            workspace.snapshot_basis().map(Arc::new)
                        } else {
                            None
                        };

                        // Structure-aware dive: fix the refinement decision
                        // variables first, then the follower integers, to seed
                        // the incumbent. Run at the root and then periodically
                        // while no incumbent exists — deep DFS alone can take
                        // thousands of nodes to reach its first integral leaf on
                        // the big-M refinement models. Diving is attempted even
                        // from unreliable (iteration-limited) nodes: propagation
                        // rejects a bad rounding cheaply, and the fixed-integer
                        // LP that follows a good one is far easier than the node
                        // LP that just failed.
                        // Cadence keyed to the *global* node count so resumed
                        // segments dive at the same nodes the uninterrupted
                        // solve would.
                        let global_nodes = prior_nodes + stats.nodes;
                        if incumbent.is_none()
                            && (global_nodes == 1 || global_nodes.is_multiple_of(16))
                        {
                            if let Some((obj, values)) = structure_dive(
                                model,
                                &mut workspace,
                                &integral,
                                &integer_vars,
                                &priority_tiers,
                                &lp_values,
                                &lower,
                                &upper,
                                node_basis.as_deref(),
                                &stop,
                                &mut stats,
                            )? {
                                incumbent = Some((obj, values));
                                // The dive's last LP fixed every integer and
                                // solved to optimality; its basis is the one
                                // that produced this incumbent.
                                incumbent_basis = workspace.snapshot_basis().map(Arc::new);
                                if let Some(observer) = control.observer() {
                                    observer.incumbent_found(&progress_of(&stats, Some(obj)));
                                }
                            } else if stop.should_stop() {
                                // An empty-handed dive under a tripped stop is
                                // indistinguishable from a dive the stop aborted
                                // mid-flight — and an aborted dive may have lost
                                // the incumbent the uninterrupted solve finds at
                                // this cadence point, silently degrading pruning
                                // for the rest of the chain. Hand the node (and
                                // its count) back so the resumed segment re-dives
                                // here under a live control; like the mid-LP
                                // push-back above, only this node's LP pivots are
                                // paid twice.
                                stack.push(Node {
                                    lower,
                                    upper,
                                    parent_bound,
                                    parent_basis,
                                });
                                stats.nodes -= 1;
                                interrupted = true;
                                halt = true;
                                break 'processed;
                            }
                        }

                        let floor_val = frac_value.floor();
                        let ceil_val = frac_value.ceil();

                        // Down child: var <= floor, Up child: var >= ceil.
                        let mut down_upper = upper.clone();
                        down_upper[var_idx] = down_upper[var_idx].min(floor_val);
                        let down = Node {
                            lower: lower.clone(),
                            upper: down_upper,
                            parent_bound: node_bound,
                            parent_basis: node_basis.clone(),
                        };

                        let mut up_lower = lower.clone();
                        up_lower[var_idx] = up_lower[var_idx].max(ceil_val);
                        let up = Node {
                            lower: up_lower,
                            upper,
                            parent_bound: node_bound,
                            parent_basis: node_basis,
                        };

                        // Explore the child closer to the LP value first (pushed last).
                        if frac_value - floor_val <= 0.5 {
                            stack.push(up);
                            stack.push(down);
                        } else {
                            stack.push(down);
                            stack.push(up);
                        }
                    }
                }
            } // 'processed
            if halt {
                break;
            }
            // Report the node only once it is genuinely done (branched or
            // pruned), so the count the observer sees is never retracted. An
            // observer may cancel from inside this callback (node-budget
            // segmentation does exactly that); the cancel is honored at the
            // top of the next iteration, where the *next* — uncounted,
            // unobserved — node is pushed back into the frontier. The resumed
            // segment re-sees exactly the unprocessed nodes, and no node is
            // ever processed under an already-tripped stop.
            if let Some(observer) = control.observer() {
                observer.node_processed(&progress_of(
                    &stats,
                    incumbent.as_ref().map(|(obj, _)| *obj),
                ));
            }
        }

        // A control stop observed only after a node-limited or unreliable
        // exit still counts as the interruption it is.
        if limit_hit && !interrupted {
            interrupted = stop.should_stop();
        }
        // Checkpoint an interrupted search with open nodes: the frontier
        // moves (not copies) into the state, along with everything a later
        // segment needs to continue exactly here. An interrupted solve with
        // an *empty* stack has nothing left to explore (or lost a subtree to
        // the LP-iteration cap, which no checkpoint can recover), so it
        // carries no resume state.
        let resume = if interrupted && !stack.is_empty() {
            stats.resume_captures = 1;
            Some(Box::new(ResumeState {
                frontier: stack,
                incumbent: incumbent.clone(),
                best_bound: stats.best_bound,
                root_processed,
                prior_nodes: prior_nodes + stats.nodes,
                prior_segments: prior_segments + 1,
                pricing_cursor: workspace.pricing_cursor(),
                fingerprint,
            }))
        } else {
            None
        };
        stats.solve_time = start.elapsed();
        stats.interrupted = interrupted;
        let mut solution = match incumbent {
            Some((objective, values)) => {
                let status = if interrupted {
                    SolveStatus::Interrupted
                } else if limit_hit {
                    SolveStatus::Feasible
                } else {
                    SolveStatus::Optimal
                };
                if status == SolveStatus::Optimal {
                    stats.best_bound = objective;
                }
                Solution {
                    status,
                    objective,
                    values,
                    stats,
                    resume: None,
                    basis: incumbent_basis,
                }
            }
            None => {
                let status = if interrupted {
                    SolveStatus::Interrupted
                } else if limit_hit {
                    SolveStatus::LimitReached
                } else {
                    SolveStatus::Infeasible
                };
                Solution::without_assignment(status, stats)
            }
        };
        solution.resume = resume;
        Ok(solution)
    }
}

/// Structure-aware rounding dive: fix the integer variables tier by tier in
/// descending branch-priority order — the refinement decision variables
/// first; propagation then implies most of the follower variables they drive
/// — re-solving the LP (warm) between tiers so each tier is rounded from a
/// relaxation consistent with the fixes so far. With a single priority tier
/// this degenerates to the classic all-fix rounding dive. Returns
/// `(objective, values)` on success.
#[allow(clippy::too_many_arguments)]
fn structure_dive(
    model: &Model,
    workspace: &mut LpWorkspace,
    integral: &[bool],
    integer_vars: &[usize],
    priority_tiers: &[Vec<usize>],
    lp_values: &[f64],
    lower: &[f64],
    upper: &[f64],
    warm: Option<&Basis>,
    stop: &StopCondition,
    stats: &mut SolveStats,
) -> Result<Option<(f64, Vec<f64>)>> {
    let mut lo = lower.to_vec();
    let mut up = upper.to_vec();
    let mut values = lp_values.to_vec();
    let mut basis: Option<Basis> = warm.cloned();

    for (tier_idx, tier) in priority_tiers.iter().enumerate() {
        fix_rounded(tier, &values, &mut lo, &mut up);
        if propagate(workspace, integral, &mut lo, &mut up, PROPAGATION_PASSES)
            == PropagationResult::Infeasible
        {
            return Ok(None);
        }
        // Skip the intermediate LP when every remaining integer is already
        // integral (or this was the last tier anyway).
        let remaining_fractional = priority_tiers[tier_idx + 1..]
            .iter()
            .flatten()
            .any(|&i| (values[i] - values[i].round()).abs() > INTEGRALITY_TOL);
        if !remaining_fractional && tier_idx + 1 < priority_tiers.len() {
            fix_rounded(
                &priority_tiers[tier_idx + 1..].concat(),
                &values,
                &mut lo,
                &mut up,
            );
            if propagate(workspace, integral, &mut lo, &mut up, PROPAGATION_PASSES)
                == PropagationResult::Infeasible
            {
                return Ok(None);
            }
        }
        let lp = solve_node_lp(workspace, &lo, &up, basis.as_ref(), stop, stats)?;
        if lp.status != LpStatus::Optimal {
            return Ok(None);
        }
        values = lp.values;
        if !remaining_fractional {
            break;
        }
        basis = workspace.snapshot_basis();
    }

    // All integers are fixed (or integral), so the LP solution is
    // MILP-feasible.
    let objective = model.objective().constant_part()
        + model
            .objective()
            .terms()
            .map(|(v, c)| c * values[v.index()])
            .sum::<f64>();
    Ok(Some((objective, round_integers(&values, integer_vars))))
}

/// Solve one node LP through the shared workspace, recording warm/cold and
/// pivot statistics.
fn solve_node_lp(
    workspace: &mut LpWorkspace,
    lower: &[f64],
    upper: &[f64],
    warm: Option<&Basis>,
    stop: &StopCondition,
    stats: &mut SolveStats,
) -> Result<LpSolution> {
    let lp = workspace.solve(lower, upper, warm, MAX_LP_ITERATIONS, stop)?;
    // Exhaustive destructuring: a new `LpSolution` stat cannot be added
    // without deciding how it aggregates into `SolveStats` here.
    let LpSolution {
        status: _,
        objective: _,
        values: _,
        iterations,
        warm_started,
        refactorizations,
        eta_updates,
        lu_nnz,
    } = &lp;
    stats.lp_solves += 1;
    stats.simplex_iterations += iterations;
    stats.refactorizations += refactorizations;
    stats.eta_updates += eta_updates;
    stats.lu_nnz = stats.lu_nnz.max(*lu_nnz);
    if *warm_started {
        stats.warm_lp_solves += 1;
    } else {
        stats.cold_lp_solves += 1;
    }
    Ok(lp)
}

/// Validate a candidate incumbent from a [`WarmStart`] against *this* model:
/// correct length, within variable bounds, integral where required, and
/// satisfying every constraint row. Returns the assignment's objective when
/// it passes, `None` otherwise — a cached assignment that a changed ε or
/// constraint set makes infeasible must be discarded, not trusted to prune.
fn validated_incumbent_objective(model: &Model, values: &[f64]) -> Option<f64> {
    if values.len() != model.num_variables() {
        return None;
    }
    for (variable, &value) in model.variables().iter().zip(values) {
        if !value.is_finite()
            || value < variable.lower - crate::tol::FEAS_TOL
            || value > variable.upper + crate::tol::FEAS_TOL
        {
            return None;
        }
        if matches!(variable.var_type, VarType::Integer | VarType::Binary)
            && (value - value.round()).abs() > INTEGRALITY_TOL
        {
            return None;
        }
    }
    for constraint in model.constraints() {
        let activity: f64 = constraint
            .expr
            .terms()
            .map(|(v, c)| c * values[v.index()])
            .sum::<f64>()
            + constraint.expr.constant_part();
        // Same relative row slack as the LP optimum verification: rows with
        // big-M coefficients accumulate one rounding per nonzero.
        let slack = crate::tol::VERIFY_ROW_TOL * (1.0 + constraint.rhs.abs());
        let ok = match constraint.sense {
            crate::model::Sense::Le => activity <= constraint.rhs + slack,
            crate::model::Sense::Ge => activity >= constraint.rhs - slack,
            crate::model::Sense::Eq => (activity - constraint.rhs).abs() <= slack,
        };
        if !ok {
            return None;
        }
    }
    Some(
        model.objective().constant_part()
            + model
                .objective()
                .terms()
                .map(|(v, c)| c * values[v.index()])
                .sum::<f64>(),
    )
}

/// Snapshot the running statistics for a [`SolveObserver`](crate::control::SolveObserver) callback.
fn progress_of(stats: &SolveStats, incumbent_objective: Option<f64>) -> SolveProgress {
    SolveProgress {
        nodes: stats.nodes,
        lp_solves: stats.lp_solves,
        simplex_iterations: stats.simplex_iterations,
        incumbent_objective,
        best_bound: stats.best_bound,
    }
}

/// Clamp-and-fix a set of integer variables to their rounded values.
fn fix_rounded(vars: &[usize], values: &[f64], lo: &mut [f64], up: &mut [f64]) {
    for &idx in vars {
        let rounded = values[idx].round().clamp(lo[idx], up[idx]).round();
        lo[idx] = rounded;
        up[idx] = rounded;
    }
}

/// Choose the integer variable to branch on: highest branching priority,
/// ties broken by most-fractional LP value. Returns `None` when every integer
/// variable is integral (within [`INTEGRALITY_TOL`]).
fn select_branch_variable(
    model: &Model,
    integer_vars: &[usize],
    lp_values: &[f64],
    lower: &[f64],
    upper: &[f64],
) -> Option<(usize, f64)> {
    let mut best: Option<(i32, f64, usize, f64)> = None; // (priority, fractionality, idx, value)
    for &idx in integer_vars {
        if lower[idx] >= upper[idx] {
            continue; // already fixed
        }
        let value = lp_values[idx];
        let frac = (value - value.round()).abs();
        if frac <= INTEGRALITY_TOL {
            continue;
        }
        let priority = model.variables()[idx].branch_priority;
        let fractionality = 0.5 - (value - value.floor() - 0.5).abs();
        let candidate = (priority, fractionality, idx, value);
        let better = match &best {
            None => true,
            Some((p, f, _, _)) => priority > *p || (priority == *p && fractionality > *f),
        };
        if better {
            best = Some(candidate);
        }
    }
    best.map(|(_, _, idx, value)| (idx, value))
}

/// Snap integer variables to exact integers in a value vector.
fn round_integers(values: &[f64], integer_vars: &[usize]) -> Vec<f64> {
    let mut out = values.to_vec();
    for &idx in integer_vars {
        let rounded = out[idx].round();
        if (out[idx] - rounded).abs() <= INTEGRALITY_TOL * 10.0 {
            out[idx] = rounded;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Model, Sense};
    use crate::tol::ASSERT_TOL;

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binary => a=1,c=1 (17) vs b+c=20/…
        // values: a:10 w3, b:13 w4, c:7 w2 -> best is b + c = 20 (weight 6).
        let mut m = Model::new("knapsack");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constraint(
            "w",
            LinExpr::term(a, 3.0) + LinExpr::term(b, 4.0) + LinExpr::term(c, 2.0),
            Sense::Le,
            6.0,
        );
        m.set_objective(LinExpr::term(a, -10.0) + LinExpr::term(b, -13.0) + LinExpr::term(c, -7.0));
        let s = Solver::default().solve(&m).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective + 20.0).abs() < ASSERT_TOL);
        assert!(!s.is_set(a) && s.is_set(b) && s.is_set(c));
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y st 2x + 2y <= 5, integer => LP gives 2.5, MILP gives 2.
        let mut m = Model::new("int");
        let x = m.add_integer("x", 0.0, 10.0);
        let y = m.add_integer("y", 0.0, 10.0);
        m.add_constraint(
            "c",
            LinExpr::term(x, 2.0) + LinExpr::term(y, 2.0),
            Sense::Le,
            5.0,
        );
        m.set_objective(LinExpr::term(x, -1.0) + LinExpr::term(y, -1.0));
        let s = Solver::default().solve(&m).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective + 2.0).abs() < ASSERT_TOL);
        let total = s.value(x) + s.value(y);
        assert!((total - 2.0).abs() < ASSERT_TOL);
    }

    #[test]
    fn infeasible_milp() {
        let mut m = Model::new("inf");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint(
            "c1",
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Ge,
            3.0,
        );
        m.set_objective(LinExpr::term(x, 1.0));
        let s = Solver::default().solve(&m).unwrap();
        assert_eq!(s.status, SolveStatus::Infeasible);
        assert!(!s.status.has_solution());
    }

    #[test]
    fn mixed_continuous_and_integer() {
        // min y st y >= 1.5 x - 1, y >= -1.5 x + 2, x binary, y continuous.
        // x=0 -> y >= max(-1, 2) = 2 ; x=1 -> y >= max(0.5, 0.5) = 0.5. Optimal x=1, y=0.5.
        let mut m = Model::new("mix");
        let x = m.add_binary("x");
        let y = m.add_continuous("y", -10.0, 10.0);
        m.add_constraint(
            "c1",
            LinExpr::term(y, 1.0) - LinExpr::term(x, 1.5),
            Sense::Ge,
            -1.0,
        );
        m.add_constraint(
            "c2",
            LinExpr::term(y, 1.0) + LinExpr::term(x, 1.5),
            Sense::Ge,
            2.0,
        );
        m.set_objective(LinExpr::term(y, 1.0));
        let s = Solver::default().solve(&m).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 0.5).abs() < ASSERT_TOL);
        assert!(s.is_set(x));
    }

    #[test]
    fn big_m_indicator_structure() {
        // Mimics the paper's expressions (1): C + M*ind >= v + delta, C - M*(1-ind) <= v.
        // With C forced to 3.7, the indicator for v=3.7 must be 1 and for v=3.8 must be... >= C so 1 too;
        // for v=3.6 it must be 0.
        let mut m = Model::new("indicator");
        let c = m.add_continuous("C", 3.5, 4.0);
        let big_m = 5.0;
        let delta = 0.001;
        let values = [3.6, 3.7, 3.8];
        let inds: Vec<_> = values
            .iter()
            .map(|v| m.add_binary(format!("ind_{v}")))
            .collect();
        for (v, ind) in values.iter().zip(&inds) {
            // C + M*ind >= v + delta  (ind = 1 if v >= C)
            m.add_constraint(
                format!("lo_{v}"),
                LinExpr::term(c, 1.0) + LinExpr::term(*ind, big_m),
                Sense::Ge,
                v + delta,
            );
            // C - M*(1-ind) <= v   i.e.   C + M*ind <= v + M
            m.add_constraint(
                format!("hi_{v}"),
                LinExpr::term(c, 1.0) + LinExpr::term(*ind, big_m),
                Sense::Le,
                v + big_m,
            );
        }
        // Force C = 3.7 and check indicators.
        m.add_constraint("fix", LinExpr::term(c, 1.0), Sense::Eq, 3.7);
        m.set_objective(LinExpr::zero());
        let s = Solver::default().solve(&m).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(!s.is_set(inds[0]), "3.6 < 3.7 must not satisfy GPA >= C");
        assert!(s.is_set(inds[1]));
        assert!(s.is_set(inds[2]));
    }

    #[test]
    fn branching_priority_is_respected_for_correctness() {
        // Priorities must not change the optimum, only the search order.
        let mut m = Model::new("prio");
        let xs: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        let mut weight = LinExpr::zero();
        let mut profit = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            weight.add_term(x, (i + 1) as f64);
            profit.add_term(x, -((i + 2) as f64));
            m.set_branch_priority(x, (6 - i) as i32);
        }
        m.add_constraint("w", weight, Sense::Le, 10.0);
        m.set_objective(profit);
        let with_prio = Solver::default().solve(&m).unwrap();

        let mut m2 = m.clone();
        for &x in &xs {
            m2.set_branch_priority(x, 0);
        }
        let without_prio = Solver::default().solve(&m2).unwrap();
        assert!((with_prio.objective - without_prio.objective).abs() < ASSERT_TOL);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn equality_constrained_assignment_problem() {
        // 3x3 assignment problem, binary, each row/col exactly one.
        let costs = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = Model::new("assign");
        let mut x = vec![];
        for i in 0..3 {
            let mut row = vec![];
            for j in 0..3 {
                row.push(m.add_binary(format!("x{i}{j}")));
            }
            x.push(row);
        }
        for i in 0..3 {
            let mut e = LinExpr::zero();
            for j in 0..3 {
                e.add_term(x[i][j], 1.0);
            }
            m.add_constraint(format!("r{i}"), e, Sense::Eq, 1.0);
        }
        for j in 0..3 {
            let mut e = LinExpr::zero();
            for i in 0..3 {
                e.add_term(x[i][j], 1.0);
            }
            m.add_constraint(format!("c{j}"), e, Sense::Eq, 1.0);
        }
        let mut obj = LinExpr::zero();
        for i in 0..3 {
            for j in 0..3 {
                obj.add_term(x[i][j], costs[i][j]);
            }
        }
        m.set_objective(obj);
        let s = Solver::default().solve(&m).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        // Optimal assignment: (0,1)=2, (1,0)=4 or (1,2)? enumerate: best = 2 + 4 + 6 = 12
        // or (0,1)=2,(1,2)=7,(2,0)=3 = 12; optimum is 12.
        assert!((s.objective - 12.0).abs() < ASSERT_TOL);
    }

    #[test]
    fn node_limit_returns_limit_status() {
        let mut m = Model::new("limit");
        let xs: Vec<_> = (0..20).map(|i| m.add_binary(format!("x{i}"))).collect();
        let mut e = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            e.add_term(x, 1.0 + (i as f64) * 0.3);
        }
        m.add_constraint("c", e.clone(), Sense::Ge, 7.3);
        m.set_objective(e);
        let solver = Solver::new(SolverOptions { max_nodes: 1 });
        let s = solver.solve(&m).unwrap();
        assert!(matches!(
            s.status,
            SolveStatus::LimitReached | SolveStatus::Feasible | SolveStatus::Optimal
        ));
    }

    /// The optimum of an all-integer model by trying every assignment within
    /// `lower..=upper`, or `None` when no assignment meets every row.
    fn enumerated_optimum(m: &Model, lower: &[f64], upper: &[f64]) -> Option<f64> {
        let lo: Vec<f64> = lower.iter().map(|l| (l - INTEGRALITY_TOL).ceil()).collect();
        let up: Vec<f64> = upper
            .iter()
            .map(|u| (u + INTEGRALITY_TOL).floor())
            .collect();
        if lo.iter().zip(&up).any(|(l, u)| l > u) {
            return None;
        }
        let mut values = lo.clone();
        let mut best: Option<f64> = None;
        loop {
            let activity = |e: &LinExpr| {
                e.constant_part() + e.terms().map(|(v, c)| c * values[v.index()]).sum::<f64>()
            };
            let feasible = m.constraints().iter().all(|c| {
                let a = activity(&c.expr);
                match c.sense {
                    Sense::Le => a <= c.rhs,
                    Sense::Ge => a >= c.rhs,
                    Sense::Eq => a == c.rhs,
                }
            });
            if feasible {
                let objective = activity(m.objective());
                best = Some(best.map_or(objective, |b: f64| b.min(objective)));
            }
            let mut i = 0;
            loop {
                if i == values.len() {
                    return best;
                }
                if values[i] < up[i] {
                    values[i] += 1.0;
                    break;
                }
                values[i] = lo[i];
                i += 1;
            }
        }
    }

    /// The variable bounds a model declares, before any propagation.
    fn declared_box(m: &Model) -> (Vec<f64>, Vec<f64>) {
        let lower = m.variables().iter().map(|v| v.lower).collect();
        let upper = m.variables().iter().map(|v| v.upper).collect();
        (lower, upper)
    }

    /// Knapsack `seed` of 24: 5-9 binary or general integer (0..=3) items
    /// under one or two capacity rows, maximising profit.
    fn knapsack(seed: usize) -> Model {
        let n = 5 + seed % 5;
        let top = if seed.is_multiple_of(3) { 3.0 } else { 1.0 };
        let mut m = Model::new(format!("knapsack{seed}"));
        let xs: Vec<_> = (0..n)
            .map(|i| m.add_integer(format!("x{i}"), 0.0, top))
            .collect();
        let rows = 1 + seed % 2;
        for r in 0..rows {
            let mut weight = LinExpr::zero();
            let mut total = 0.0;
            for (i, &x) in xs.iter().enumerate() {
                let w = (1 + (seed * 7 + i * (13 + 4 * r)) % 9) as f64;
                weight.add_term(x, w);
                total += w * top;
            }
            let capacity = (total / (2.0 + r as f64)).floor() + (seed % 3) as f64;
            m.add_constraint(format!("w{r}"), weight, Sense::Le, capacity);
        }
        let mut profit = LinExpr::zero();
        for (i, &x) in xs.iter().enumerate() {
            profit.add_term(x, -((1 + (seed * 11 + i * 5) % 10) as f64));
        }
        m.set_objective(profit);
        m
    }

    /// The search propagates bounds at every node. Enumerating every
    /// assignment of the declared box, with no propagation at all, must find
    /// the optimum the search proves; and the root propagation must keep
    /// that optimum inside the box it leaves.
    #[test]
    fn propagation_disabled_still_correct() {
        let mut noprop = Model::new("noprop");
        let x = noprop.add_integer("x", 0.0, 10.0);
        let y = noprop.add_integer("y", 0.0, 10.0);
        noprop.add_constraint(
            "c",
            LinExpr::term(x, 3.0) + LinExpr::term(y, 5.0),
            Sense::Le,
            19.0,
        );
        noprop.set_objective(LinExpr::term(x, -2.0) + LinExpr::term(y, -3.0));
        let models = std::iter::once(noprop).chain((0..24).map(knapsack));
        let mut tightened = 0;
        for m in models {
            let name = m.name().to_string();
            let (lower, upper) = declared_box(&m);
            let expected =
                enumerated_optimum(&m, &lower, &upper).expect("the empty knapsack is feasible");
            let s = Solver::default().solve(&m).unwrap();
            assert_eq!(s.status, SolveStatus::Optimal, "{name}");
            assert!(
                (s.objective - expected).abs() < ASSERT_TOL,
                "{name}: search {} vs enumeration {expected}",
                s.objective
            );

            let (mut lo, mut up) = (lower.clone(), upper.clone());
            let workspace = LpWorkspace::new(&m).unwrap();
            let result = propagate(
                &workspace,
                &integrality_mask(&m),
                &mut lo,
                &mut up,
                PROPAGATION_PASSES,
            );
            assert_eq!(result, PropagationResult::Consistent, "{name}");
            if (&lo, &up) != (&lower, &upper) {
                tightened += 1;
                let within = enumerated_optimum(&m, &lo, &up);
                assert_eq!(
                    within,
                    Some(expected),
                    "{name}: propagation cut the optimum"
                );
            }
        }
        // 3x + 5y <= 19 bounds x by 6 and y by 3.
        assert!(tightened >= 1, "no instance exercised propagation");
    }

    /// Every child LP of the knapsack roots, warm-started from the root's
    /// basis, must reach the status and objective of the same LP solved cold
    /// in a workspace of its own; every LP is either warm or cold.
    #[test]
    fn warm_start_disabled_matches_enabled() {
        for seed in 0..24usize {
            let m = knapsack(seed);
            let (lower, upper) = declared_box(&m);
            let stop = StopCondition::none();
            let mut warm_ws = LpWorkspace::new(&m).unwrap();
            let mut cold_ws = LpWorkspace::new(&m).unwrap();
            let mut warm_stats = SolveStats::default();
            let mut cold_stats = SolveStats::default();
            let root =
                solve_node_lp(&mut warm_ws, &lower, &upper, None, &stop, &mut warm_stats).unwrap();
            assert_eq!(root.status, LpStatus::Optimal, "seed {seed}");
            let basis = warm_ws.snapshot_basis().expect("optimal root snapshots");
            for (var, &value) in root.values.iter().enumerate() {
                let down = (lower[var], value.floor().max(lower[var]));
                let up = (value.ceil().min(upper[var]), upper[var]);
                for (lo, up) in [down, up] {
                    let (mut child_lower, mut child_upper) = (lower.clone(), upper.clone());
                    child_lower[var] = lo;
                    child_upper[var] = up;
                    let warm = solve_node_lp(
                        &mut warm_ws,
                        &child_lower,
                        &child_upper,
                        Some(&basis),
                        &stop,
                        &mut warm_stats,
                    )
                    .unwrap();
                    let cold = solve_node_lp(
                        &mut cold_ws,
                        &child_lower,
                        &child_upper,
                        None,
                        &stop,
                        &mut cold_stats,
                    )
                    .unwrap();
                    assert_eq!(
                        warm.status, cold.status,
                        "seed {seed}, x{var} in {lo}..={up}"
                    );
                    if cold.status == LpStatus::Optimal {
                        assert!(
                            (warm.objective - cold.objective).abs() < ASSERT_TOL,
                            "seed {seed}, x{var} in {lo}..={up}: warm {} vs cold {}",
                            warm.objective,
                            cold.objective
                        );
                    }
                }
            }
            assert!(warm_stats.warm_lp_solves > 0, "seed {seed}");
            assert_eq!(cold_stats.warm_lp_solves, 0, "seed {seed}");
            for stats in [&warm_stats, &cold_stats] {
                assert_eq!(
                    stats.cold_lp_solves + stats.warm_lp_solves,
                    stats.lp_solves,
                    "seed {seed}"
                );
            }
            let s = Solver::default().solve(&m).unwrap();
            assert_eq!(
                s.stats.cold_lp_solves + s.stats.warm_lp_solves,
                s.stats.lp_solves,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn warm_starts_dominate_on_branchy_model() {
        // Max-weight matchings on odd cycles have half-integral LP optima, so
        // the tree must branch; most node LPs after the root must take the
        // warm path.
        let mut m = Model::new("warm-share");
        let mut profit = LinExpr::zero();
        for (cycle, len) in [5usize, 7, 9].into_iter().enumerate() {
            let xs: Vec<_> = (0..len)
                .map(|i| m.add_binary(format!("x{cycle}_{i}")))
                .collect();
            for i in 0..len {
                let j = (i + 1) % len;
                m.add_constraint(
                    format!("edge{cycle}_{i}"),
                    LinExpr::term(xs[i], 1.0) + LinExpr::term(xs[j], 1.0),
                    Sense::Le,
                    1.0,
                );
            }
            for (i, &x) in xs.iter().enumerate() {
                profit.add_term(x, -(1.0 + 0.01 * (i + cycle) as f64));
            }
        }
        m.set_objective(profit);
        let s = Solver::default().solve(&m).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(s.stats.lp_solves > 4, "model should branch");
        assert!(
            s.stats.warm_start_share() >= 0.5,
            "warm share {:.2} (warm {} / cold {})",
            s.stats.warm_start_share(),
            s.stats.warm_lp_solves,
            s.stats.cold_lp_solves
        );
        assert_eq!(
            s.stats.warm_lp_solves + s.stats.cold_lp_solves,
            s.stats.lp_solves
        );
    }
}
