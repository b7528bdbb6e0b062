//! Linear expressions over model variables.

use crate::model::VarId;
use std::collections::BTreeMap;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A linear expression `Σ coeff_i · x_i + constant`.
///
/// Expressions are built with the arithmetic operators (`+`, `-`, `*` by a
/// scalar), with the in-place [`LinExpr::add_term`] method, which is cheaper
/// when assembling large expressions term by term, or in bulk by
/// `collect()`ing `(VarId, f64)` pairs, which is cheaper still when a whole
/// row is known at once (see the [`FromIterator`] impl).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: BTreeMap<VarId, f64>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// An expression consisting of a single constant.
    pub fn constant(value: f64) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: value,
        }
    }

    /// An expression consisting of a single term `coeff · var`.
    pub fn term(var: VarId, coeff: f64) -> Self {
        let mut e = LinExpr::default();
        e.add_term(var, coeff);
        e
    }

    /// Add `coeff · var` to the expression in place.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        if coeff != 0.0 {
            let entry = self.terms.entry(var).or_insert(0.0);
            *entry += coeff;
            if *entry == 0.0 {
                self.terms.remove(&var);
            }
        }
        self
    }

    /// Add a constant to the expression in place.
    pub fn add_constant(&mut self, value: f64) -> &mut Self {
        self.constant += value;
        self
    }

    /// The constant part of the expression.
    pub fn constant_part(&self) -> f64 {
        self.constant
    }

    /// Iterate over `(variable, coefficient)` pairs (deterministic order).
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Number of terms with non-zero coefficients.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the expression has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The coefficient of a variable (0 if absent).
    pub fn coefficient(&self, var: VarId) -> f64 {
        self.terms.get(&var).copied().unwrap_or(0.0)
    }

    /// Evaluate the expression under an assignment (indexed by variable id).
    pub fn evaluate(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * values.get(v.index()).copied().unwrap_or(0.0))
                .sum::<f64>()
    }

    /// Whether every coefficient and the constant are finite.
    pub fn is_finite(&self) -> bool {
        self.constant.is_finite() && self.terms.values().all(|c| c.is_finite())
    }
}

impl From<VarId> for LinExpr {
    fn from(var: VarId) -> Self {
        LinExpr::term(var, 1.0)
    }
}

impl From<f64> for LinExpr {
    fn from(value: f64) -> Self {
        LinExpr::constant(value)
    }
}

/// The bulk path: the result equals folding the same pairs, in the same
/// order, through [`LinExpr::add_term`] on the zero expression — the same
/// terms with the same coefficient bits — but costs one sort of the pairs
/// and one bulk map build instead of a map insert per pair.
///
/// The pairs are stable-sorted by variable, each variable's coefficients are
/// summed in iteration order, and sums that are exactly zero are dropped.
impl FromIterator<(VarId, f64)> for LinExpr {
    fn from_iter<I: IntoIterator<Item = (VarId, f64)>>(iter: I) -> Self {
        // Zero coefficients are skipped, as `add_term` skips them.
        let mut pairs: Vec<(VarId, f64)> = iter.into_iter().filter(|&(_, c)| c != 0.0).collect();
        pairs.sort_by_key(|&(var, _)| var);
        let mut summed: Vec<(VarId, f64)> = Vec::with_capacity(pairs.len());
        for (var, coeff) in pairs {
            match summed.last_mut() {
                Some((last, sum)) if *last == var => *sum += coeff,
                _ => summed.push((var, coeff)),
            }
        }
        LinExpr {
            terms: summed.into_iter().filter(|&(_, c)| c != 0.0).collect(),
            constant: 0.0,
        }
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for c in self.terms.values_mut() {
            *c *= rhs;
        }
        self.terms.retain(|_, c| *c != 0.0);
        self.constant *= rhs;
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self * -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use proptest::prelude::*;

    #[test]
    fn build_and_evaluate() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        let e = LinExpr::term(x, 2.0) + LinExpr::term(y, 3.0) + LinExpr::constant(1.0);
        assert_eq!(e.len(), 2);
        assert_eq!(e.coefficient(x), 2.0);
        assert_eq!(e.evaluate(&[4.0, 5.0]), 2.0 * 4.0 + 3.0 * 5.0 + 1.0);
    }

    #[test]
    fn cancelling_terms_are_removed() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let e = LinExpr::term(x, 2.0) - LinExpr::term(x, 2.0);
        assert!(e.is_empty());
        assert_eq!(e.coefficient(x), 0.0);
    }

    #[test]
    fn scaling_and_negation() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let e = (LinExpr::term(x, 2.0) + LinExpr::constant(3.0)) * -2.0;
        assert_eq!(e.coefficient(x), -4.0);
        assert_eq!(e.constant_part(), -6.0);
        let n = -e;
        assert_eq!(n.coefficient(x), 4.0);
        assert_eq!(n.constant_part(), 6.0);
    }

    #[test]
    fn zero_coefficient_not_stored() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        let mut e = LinExpr::zero();
        e.add_term(x, 0.0);
        assert!(e.is_empty());
    }

    /// `(var, coeff)` pairs from generated `(var, kind, x)` triples: kinds 0
    /// and 1 give `0.0` and `-0.0`, kinds 2–4 a small pool of values that
    /// repeat across variables, the rest the random `x`.
    fn pairs_from(raw: &[(usize, usize, f64)]) -> Vec<(VarId, f64)> {
        const POOL: [f64; 3] = [0.1, 0.7, 3.0];
        raw.iter()
            .map(|&(var, kind, x)| {
                let coeff = match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2..=4 => POOL[kind - 2],
                    _ => x,
                };
                (VarId(var), coeff)
            })
            .collect()
    }

    fn fold_add_term(pairs: &[(VarId, f64)]) -> LinExpr {
        let mut e = LinExpr::zero();
        for &(var, coeff) in pairs {
            e.add_term(var, coeff);
        }
        e
    }

    fn term_bits(e: &LinExpr) -> Vec<(VarId, u64)> {
        e.terms().map(|(v, c)| (v, c.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `collect()` gives the terms, in order and bit for bit, of folding
        /// the same pairs through `add_term`, also when a variable repeats,
        /// a sum cancels part-way (`c` now, `-c` later) or a coefficient is
        /// zero.
        #[test]
        fn collect_equals_folding_add_term(
            raw in proptest::collection::vec((0usize..6, 0usize..8, -4.0f64..4.0), 0..24),
            negate in proptest::collection::vec(any::<bool>(), 0..24),
        ) {
            let mut pairs = pairs_from(&raw);
            let negated: Vec<(VarId, f64)> = pairs
                .iter()
                .zip(&negate)
                .filter(|(_, &n)| n)
                .map(|(&(v, c), _)| (v, -c))
                .collect();
            pairs.extend(negated);
            let bulk: LinExpr = pairs.iter().copied().collect();
            let folded = fold_add_term(&pairs);
            prop_assert_eq!(term_bits(&bulk), term_bits(&folded));
            prop_assert_eq!(bulk.constant_part(), 0.0);
        }

        /// A list followed by its own negation, in reverse, cancels to the
        /// empty expression. Quarter-integer coefficients keep every partial
        /// sum exact, so the cancellation is exact too.
        #[test]
        fn collect_of_a_list_and_its_negation_is_empty(
            raw in proptest::collection::vec((0usize..6, -16i64..16), 0..24),
        ) {
            let mut pairs: Vec<(VarId, f64)> =
                raw.iter().map(|&(v, q)| (VarId(v), q as f64 * 0.25)).collect();
            let negated: Vec<(VarId, f64)> = pairs.iter().rev().map(|&(v, c)| (v, -c)).collect();
            pairs.extend(negated);
            let bulk: LinExpr = pairs.iter().copied().collect();
            prop_assert!(bulk.is_empty());
            prop_assert_eq!(term_bits(&bulk), term_bits(&fold_add_term(&pairs)));
        }
    }

    #[test]
    fn finite_check() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, 10.0);
        assert!(LinExpr::term(x, 1.0).is_finite());
        assert!(!LinExpr::term(x, f64::NAN).is_finite());
        assert!(!LinExpr::constant(f64::INFINITY).is_finite());
    }
}
