//! Model builder: variables, constraints, objective.

use crate::error::{MilpError, Result};
use crate::expr::LinExpr;
use std::fmt;

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable inside its model (dense, 0-based).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Kind of a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    /// Continuous variable.
    Continuous,
    /// General integer variable.
    Integer,
    /// Binary (0/1) variable.
    Binary,
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sense::Le => write!(f, "<="),
            Sense::Ge => write!(f, ">="),
            Sense::Eq => write!(f, "=="),
        }
    }
}

/// A declared variable.
#[derive(Debug, Clone)]
pub struct Variable {
    /// Human-readable name (used in diagnostics only).
    pub name: String,
    /// Variable kind.
    pub var_type: VarType,
    /// Lower bound (may be `f64::NEG_INFINITY`).
    pub lower: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub upper: f64,
    /// Branching priority: higher values are branched on first.
    pub branch_priority: i32,
}

/// A linear constraint `expr sense rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Human-readable name (used in diagnostics only).
    pub name: String,
    /// Left-hand side expression (its constant is folded into `rhs`).
    pub expr: LinExpr,
    /// Direction.
    pub sense: Sense,
    /// Right-hand side constant.
    pub rhs: f64,
}

/// A mixed-integer linear program: variables, constraints and a minimisation
/// objective.
#[derive(Debug, Clone)]
pub struct Model {
    name: String,
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
    objective: LinExpr,
}

impl Model {
    /// Create an empty model.
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            variables: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::zero(),
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a variable with explicit type and bounds.
    pub fn add_variable(
        &mut self,
        name: impl Into<String>,
        var_type: VarType,
        lower: f64,
        upper: f64,
    ) -> VarId {
        let name = name.into();
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name,
            var_type,
            lower,
            upper,
            branch_priority: 0,
        });
        id
    }

    /// Add a continuous variable.
    pub fn add_continuous(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_variable(name, VarType::Continuous, lower, upper)
    }

    /// Add a general integer variable.
    pub fn add_integer(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.add_variable(name, VarType::Integer, lower, upper)
    }

    /// Add a binary (0/1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_variable(name, VarType::Binary, 0.0, 1.0)
    }

    /// Set the branching priority of a variable (higher = branched earlier).
    pub fn set_branch_priority(&mut self, var: VarId, priority: i32) {
        self.variables[var.0].branch_priority = priority;
    }

    /// Add a linear constraint `expr sense rhs`. The expression's constant
    /// part is moved to the right-hand side.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        sense: Sense,
        rhs: f64,
    ) {
        let adjusted_rhs = rhs - expr.constant_part();
        let mut expr = expr;
        expr.add_constant(-expr.constant_part());
        self.constraints.push(Constraint {
            name: name.into(),
            expr,
            sense,
            rhs: adjusted_rhs,
        });
    }

    /// Set the (minimisation) objective.
    pub fn set_objective(&mut self, objective: LinExpr) {
        self.objective = objective;
    }

    /// The objective expression (minimised).
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// All variables.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// All constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Variable metadata for an id.
    pub fn variable(&self, var: VarId) -> &Variable {
        &self.variables[var.0]
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of structural nonzero coefficients across all constraints.
    /// The refinement encodings keep this near `3 × num_constraints` (big-M
    /// indicator rows touch 2–3 columns), which is what makes the revised
    /// simplex pay off. The LP workspace stores this plus one logical unit
    /// entry per row (`SolveStats::matrix_nnz = num_nonzeros() +
    /// num_constraints()`).
    pub fn num_nonzeros(&self) -> usize {
        self.constraints
            .iter()
            .map(|c| c.expr.terms().filter(|&(_, coeff)| coeff != 0.0).count())
            .sum()
    }

    /// Number of integer (incl. binary) variables.
    pub fn num_integer_variables(&self) -> usize {
        self.variables
            .iter()
            .filter(|v| matches!(v.var_type, VarType::Integer | VarType::Binary))
            .count()
    }

    /// Validate the model: finite coefficients, consistent bounds, all
    /// referenced variables declared.
    pub fn validate(&self) -> Result<()> {
        for v in &self.variables {
            if v.lower > v.upper {
                return Err(MilpError::InvalidBounds {
                    name: v.name.clone(),
                    lower: v.lower,
                    upper: v.upper,
                });
            }
            if v.lower.is_nan() || v.upper.is_nan() {
                return Err(MilpError::NonFiniteCoefficient(format!(
                    "bounds of `{}`",
                    v.name
                )));
            }
        }
        if !self.objective.is_finite() {
            return Err(MilpError::NonFiniteCoefficient("objective".into()));
        }
        for c in &self.constraints {
            if !c.expr.is_finite() || !c.rhs.is_finite() {
                return Err(MilpError::NonFiniteCoefficient(format!(
                    "constraint `{}`",
                    c.name
                )));
            }
            for (v, _) in c.expr.terms() {
                if v.0 >= self.variables.len() {
                    return Err(MilpError::UnknownVariable(v.0));
                }
            }
        }
        for (v, _) in self.objective.terms() {
            if v.0 >= self.variables.len() {
                return Err(MilpError::UnknownVariable(v.0));
            }
        }
        Ok(())
    }

    /// A short human-readable summary (sizes only).
    pub fn summary(&self) -> String {
        format!(
            "{}: {} variables ({} integer), {} constraints, {} nonzeros",
            self.name,
            self.num_variables(),
            self.num_integer_variables(),
            self.num_constraints(),
            self.num_nonzeros()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_model() {
        let mut m = Model::new("small");
        let x = m.add_continuous("x", 0.0, 10.0);
        let b = m.add_binary("b");
        let i = m.add_integer("i", -5.0, 5.0);
        m.add_constraint(
            "c1",
            LinExpr::term(x, 1.0) + LinExpr::term(b, 2.0),
            Sense::Le,
            5.0,
        );
        m.set_objective(LinExpr::term(i, 1.0));
        assert_eq!(m.num_variables(), 3);
        assert_eq!(m.num_integer_variables(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert!(m.validate().is_ok());
        assert!(m.summary().contains("3 variables"));
    }

    #[test]
    fn constraint_constant_folded_into_rhs() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        m.add_constraint(
            "c",
            LinExpr::term(x, 1.0) + LinExpr::constant(3.0),
            Sense::Le,
            5.0,
        );
        let c = &m.constraints()[0];
        assert_eq!(c.rhs, 2.0);
        assert_eq!(c.expr.constant_part(), 0.0);
    }

    #[test]
    fn validate_catches_bad_bounds_and_nan() {
        let mut m = Model::new("t");
        m.add_continuous("x", 5.0, 1.0);
        assert!(matches!(m.validate(), Err(MilpError::InvalidBounds { .. })));

        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.set_objective(LinExpr::term(x, f64::NAN));
        assert!(matches!(
            m.validate(),
            Err(MilpError::NonFiniteCoefficient(_))
        ));
    }

    #[test]
    fn branch_priority_set() {
        let mut m = Model::new("t");
        let b = m.add_binary("b");
        m.set_branch_priority(b, 10);
        assert_eq!(m.variable(b).branch_priority, 10);
    }

    #[test]
    fn unknown_variable_detected() {
        let mut m1 = Model::new("a");
        let mut m2 = Model::new("b");
        let _x1 = m1.add_continuous("x", 0.0, 1.0);
        let x2_extra = {
            let _ = m2.add_continuous("y", 0.0, 1.0);
            m2.add_continuous("z", 0.0, 1.0)
        };
        // Use a var id from m2 (index 1) in m1 which has only one variable.
        m1.add_constraint("c", LinExpr::term(x2_extra, 1.0), Sense::Le, 1.0);
        assert!(matches!(m1.validate(), Err(MilpError::UnknownVariable(1))));
    }
}
