//! Mixed-integer linear program model builder.
//!
//! Only minimization problems are supported (the BSP scheduling formulations
//! are all minimizations).  Variables are continuous or binary/integer with
//! box bounds; constraints are linear with `≤`, `≥` or `=` comparators.

use serde::{Deserialize, Serialize};

/// Identifier of a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of this variable in solution vectors.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Kind of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarKind {
    /// Continuous within its bounds.
    Continuous,
    /// Integer within its bounds (enforced by branch & bound).
    Integer,
}

/// A model variable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Variable {
    pub name: String,
    pub kind: VarKind,
    pub lower: f64,
    pub upper: f64,
    /// Coefficient in the (minimized) objective.
    pub objective: f64,
}

/// Comparator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Comparator {
    Le,
    Ge,
    Eq,
}

/// A linear constraint `Σ coeff · var  ⟨cmp⟩  rhs`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Constraint {
    pub name: String,
    pub terms: Vec<(VarId, f64)>,
    pub cmp: Comparator,
    pub rhs: f64,
}

/// A mixed-integer linear minimization problem.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Model {
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
    /// Constant added to the objective (bookkeeping only).
    pub objective_offset: f64,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a continuous variable with the given bounds and objective coefficient.
    pub fn add_continuous(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        self.add_var(name, VarKind::Continuous, lower, upper, objective)
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>, objective: f64) -> VarId {
        self.add_var(name, VarKind::Integer, 0.0, 1.0, objective)
    }

    /// Adds an integer variable with the given bounds.
    pub fn add_integer(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        self.add_var(name, VarKind::Integer, lower, upper, objective)
    }

    fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        assert!(
            lower <= upper,
            "variable bounds must satisfy lower <= upper"
        );
        assert!(lower.is_finite(), "lower bounds must be finite");
        self.vars.push(Variable {
            name: name.into(),
            kind,
            lower,
            upper,
            objective,
        });
        VarId(self.vars.len() - 1)
    }

    /// Adds a linear constraint.  Terms with the same variable are summed.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: Vec<(VarId, f64)>,
        cmp: Comparator,
        rhs: f64,
    ) {
        let mut merged: std::collections::BTreeMap<VarId, f64> = std::collections::BTreeMap::new();
        for (v, c) in terms {
            *merged.entry(v).or_insert(0.0) += c;
        }
        let terms: Vec<(VarId, f64)> = merged.into_iter().filter(|&(_, c)| c != 0.0).collect();
        self.constraints.push(Constraint {
            name: name.into(),
            terms,
            cmp,
            rhs,
        });
    }

    /// Convenience: `Σ terms ≤ rhs`.
    pub fn add_le(&mut self, name: impl Into<String>, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.add_constraint(name, terms, Comparator::Le, rhs);
    }

    /// Convenience: `Σ terms ≥ rhs`.
    pub fn add_ge(&mut self, name: impl Into<String>, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.add_constraint(name, terms, Comparator::Ge, rhs);
    }

    /// Convenience: `Σ terms = rhs`.
    pub fn add_eq(&mut self, name: impl Into<String>, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.add_constraint(name, terms, Comparator::Eq, rhs);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Variable metadata.
    pub fn variable(&self, id: VarId) -> &Variable {
        &self.vars[id.0]
    }

    /// All variables.
    pub fn variables(&self) -> &[Variable] {
        &self.vars
    }

    /// All constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Objective value of an assignment (including the constant offset).
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective_offset
            + self
                .vars
                .iter()
                .zip(values)
                .map(|(v, &x)| v.objective * x)
                .sum::<f64>()
    }

    /// Checks whether an assignment satisfies all constraints, bounds and
    /// integrality requirements within tolerance `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (v, &x) in self.vars.iter().zip(values) {
            if x < v.lower - tol || x > v.upper + tol {
                return false;
            }
            if v.kind == VarKind::Integer && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, coef)| coef * values[v.0]).sum();
            let ok = match c.cmp {
                Comparator::Le => lhs <= c.rhs + tol,
                Comparator::Ge => lhs >= c.rhs - tol,
                Comparator::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_small_model() {
        let mut m = Model::new();
        let x = m.add_binary("x", 1.0);
        let y = m.add_continuous("y", 0.0, 10.0, 2.0);
        m.add_le("cap", vec![(x, 1.0), (y, 1.0)], 5.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.variable(x).name, "x");
        assert!((m.objective_value(&[1.0, 2.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        m.add_le("c", vec![(x, 1.0), (x, 2.0)], 4.0);
        assert_eq!(m.constraints()[0].terms, vec![(x, 3.0)]);
    }

    #[test]
    fn feasibility_checks_bounds_integrality_and_constraints() {
        let mut m = Model::new();
        let x = m.add_binary("x", 1.0);
        let y = m.add_continuous("y", 0.0, 10.0, 1.0);
        m.add_ge("min", vec![(x, 1.0), (y, 1.0)], 2.0);
        assert!(m.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!m.is_feasible(&[0.5, 1.5], 1e-9)); // fractional binary
        assert!(!m.is_feasible(&[1.0, 0.5], 1e-9)); // constraint violated
        assert!(!m.is_feasible(&[1.0, 11.0], 1e-9)); // bound violated
        assert!(!m.is_feasible(&[1.0], 1e-9)); // wrong length
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        let mut m = Model::new();
        m.add_continuous("bad", 2.0, 1.0, 0.0);
    }
}
