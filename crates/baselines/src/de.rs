//! The plain differential-evolution baseline (the paper's "DE" column,
//! after the evolutionary core of Liu et al. 2009).
//!
//! Every candidate is simulated at high fidelity; constraints are handled
//! with Deb's feasibility rules. This is the cheapest algorithm per
//! iteration and by far the hungriest in simulations — exactly the contrast
//! the paper's tables show (9499 average simulations on the charge pump vs
//! 158 for the multi-fidelity method).

use mfbo::problem::{Fidelity, MultiFidelityProblem};
use mfbo::{EvaluationRecord, FidelityData, MfboError, Outcome};
use mfbo_opt::de::{DifferentialEvolution, Fitness};
use rand::Rng;
use std::cell::RefCell;

/// DE baseline configuration (paper Table 2 uses population-scale settings
/// with 100 initial members and a 10100-simulation budget). The mutation
/// uses [`DifferentialEvolution`]'s fixed F = 0.6 and CR = 0.9.
#[derive(Debug, Clone)]
pub struct DeBaselineConfig {
    /// Population size.
    pub population: usize,
    /// Total number of simulations.
    pub budget: usize,
}

impl Default for DeBaselineConfig {
    fn default() -> Self {
        DeBaselineConfig {
            population: 50,
            budget: 5000,
        }
    }
}

/// The DE baseline driver.
///
/// # Examples
///
/// ```
/// use mfbo_baselines::{DifferentialEvolutionBaseline, DeBaselineConfig};
/// use mfbo::problem::FunctionProblem;
/// use mfbo_opt::Bounds;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), mfbo::MfboError> {
/// let p = FunctionProblem::builder("sphere", Bounds::symmetric(2, 2.0))
///     .high(|x: &[f64]| x.iter().map(|v| v * v).sum())
///     .build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let config = DeBaselineConfig { population: 16, budget: 800 };
/// let out = DifferentialEvolutionBaseline::new(config).run(&p, &mut rng)?;
/// assert!(out.best_objective < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DifferentialEvolutionBaseline {
    config: DeBaselineConfig,
}

impl DifferentialEvolutionBaseline {
    /// Creates a DE baseline driver.
    pub fn new(config: DeBaselineConfig) -> Self {
        DifferentialEvolutionBaseline { config }
    }

    /// Runs DE on `problem`, simulating every candidate at high fidelity.
    ///
    /// # Errors
    ///
    /// Returns [`MfboError::InvalidConfig`] if the budget cannot cover the
    /// initial population.
    pub fn run<P, R>(&self, problem: &P, rng: &mut R) -> Result<Outcome, MfboError>
    where
        P: MultiFidelityProblem + ?Sized,
        R: Rng + ?Sized,
    {
        if self.config.budget < self.config.population.max(4) {
            return Err(MfboError::InvalidConfig {
                reason: "budget must cover the initial population".into(),
            });
        }
        let bounds = problem.bounds();
        let nc = problem.num_constraints();
        // Shared mutable trace, filled from inside the DE callback.
        let trace: RefCell<(FidelityData, Vec<EvaluationRecord>, f64)> =
            RefCell::new((FidelityData::new(nc), Vec::new(), 0.0));

        let fitness = |x: &[f64]| {
            let eval = problem.evaluate(x, Fidelity::High);
            let fit = Fitness {
                objective: eval.objective,
                violation: eval.total_violation(),
            };
            let mut t = trace.borrow_mut();
            t.2 += problem.cost(Fidelity::High);
            let cost = t.2;
            let iteration = t.1.len();
            t.0.push(x.to_vec(), &eval);
            t.1.push(EvaluationRecord {
                iteration,
                x: x.to_vec(),
                fidelity: Fidelity::High,
                evaluation: eval,
                cost_so_far: cost,
            });
            fit
        };

        let _ = DifferentialEvolution::new()
            .with_population(self.config.population)
            .with_max_evaluations(self.config.budget)
            .minimize(&fitness, &bounds, rng);

        let (data, history, _) = trace.into_inner();
        Ok(Outcome::from_data(data, FidelityData::new(nc), history))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbo::problem::FunctionProblem;
    use mfbo_opt::Bounds;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn solves_constrained_toy() {
        // min x0+x1 s.t. x0+x1 >= 1.
        let p = FunctionProblem::builder("ctoy", Bounds::unit(2))
            .high(|x: &[f64]| x[0] + x[1])
            .high_constraints(1, |x: &[f64]| vec![1.0 - x[0] - x[1]])
            .build();
        let mut rng = StdRng::seed_from_u64(4);
        let config = DeBaselineConfig {
            population: 20,
            budget: 2000,
        };
        let out = DifferentialEvolutionBaseline::new(config)
            .run(&p, &mut rng)
            .unwrap();
        assert!(out.feasible);
        assert!(
            (out.best_objective - 1.0).abs() < 0.01,
            "best = {}",
            out.best_objective
        );
        assert_eq!(out.n_high, 2000);
        assert_eq!(out.history.len(), 2000);
        assert!((out.total_cost - 2000.0).abs() < 1e-9);
        assert!(out.cost_to_best <= out.total_cost);
    }

    #[test]
    fn rejects_tiny_budget() {
        let p = FunctionProblem::builder("t", Bounds::unit(1))
            .high(|x: &[f64]| x[0])
            .build();
        let mut rng = StdRng::seed_from_u64(0);
        let e = DifferentialEvolutionBaseline::new(DeBaselineConfig {
            population: 50,
            budget: 10,
        })
        .run(&p, &mut rng);
        assert!(matches!(e, Err(MfboError::InvalidConfig { .. })));
    }
}
