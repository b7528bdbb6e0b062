//! Optimization configuration (Section 4).
//!
//! Three optimizations reduce the size (and solve difficulty) of the
//! generated MILP:
//!
//! 1. **Relevancy pruning** — tuples that can never reach the top-`k*` of any
//!    refinement (they rank below `k*` tuples with the same lineage) are
//!    dropped from the program.
//! 2. **Lineage merging** — tuples with identical lineage share one selection
//!    variable `r_[Lineage(t)]`; only valid for queries without `DISTINCT`.
//! 3. **Single-bound relaxation** — the rank-defining equality (expression 5)
//!    becomes an inequality for tuples whose groups carry only lower-bound
//!    (or only upper-bound) constraints.
//!
//! Each can be toggled independently to reproduce the paper's ablations
//! (Figures 3, 7) and the `ablation` figure of `qr-bench`'s `experiments`
//! binary, which switches them off one at a time.

/// Which of the Section 4 optimizations to apply when building the MILP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizationConfig {
    /// Relevancy-based pruning of tuples that cannot reach the top-`k*`.
    pub relevancy_pruning: bool,
    /// Merge selection variables of lineage-equivalent tuples (non-DISTINCT
    /// queries only; silently ignored otherwise).
    pub lineage_merging: bool,
    /// Relax the rank equality for tuples under a single type of bound.
    pub single_bound_relaxation: bool,
}

impl OptimizationConfig {
    /// All optimizations enabled (the paper's `MILP+opt`).
    pub fn all() -> Self {
        OptimizationConfig {
            relevancy_pruning: true,
            lineage_merging: true,
            single_bound_relaxation: true,
        }
    }

    /// No optimizations (the paper's plain `MILP`).
    pub fn none() -> Self {
        OptimizationConfig {
            relevancy_pruning: false,
            lineage_merging: false,
            single_bound_relaxation: false,
        }
    }

    /// Label used in benchmark output.
    pub fn label(&self) -> &'static str {
        if *self == Self::all() {
            "MILP+opt"
        } else if *self == Self::none() {
            "MILP"
        } else {
            "MILP+partial"
        }
    }
}

impl Default for OptimizationConfig {
    fn default() -> Self {
        Self::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(OptimizationConfig::all().relevancy_pruning);
        assert!(!OptimizationConfig::none().lineage_merging);
        assert_eq!(OptimizationConfig::default(), OptimizationConfig::all());
        assert_eq!(OptimizationConfig::all().label(), "MILP+opt");
        assert_eq!(OptimizationConfig::none().label(), "MILP");
        let partial = OptimizationConfig {
            lineage_merging: false,
            ..OptimizationConfig::all()
        };
        assert_eq!(partial.label(), "MILP+partial");
    }
}
