//! The GASPAD baseline (Liu et al., TCAD 2014).
//!
//! GASPAD is a **surrogate-assisted evolutionary algorithm**: differential
//! evolution proposes a generation of candidates, a GP trained on all
//! simulated data *prescreens* them with a lower-confidence-bound (LCB)
//! rule, and only the single most promising candidate is actually
//! simulated. Constraints are folded into the prescreen with an
//! LCB-feasibility variant of Deb's rules (optimistic constraint bounds),
//! and into selection with the exact feasibility rules.

use mfbo::acquisition::lower_confidence_bound;
use mfbo::problem::{Fidelity, MultiFidelityProblem};
use mfbo::{EvaluationRecord, FidelityData, MfboError, Outcome, RefitSchedule};
use mfbo_gp::kernel::SquaredExponential;
use mfbo_gp::{Gp, GpConfig, InferenceMode};
use mfbo_opt::{de, sampling, Bounds};
use rand::Rng;

/// LCB exploration weight κ of the prescreen (the GASPAD paper uses ω ≈ 2).
const KAPPA: f64 = 2.0;

/// GASPAD configuration (paper Table 2 uses 120 initial points and a
/// 2500-simulation cap on the charge pump).
#[derive(Debug, Clone)]
pub struct GaspadConfig {
    /// Size of the initial Latin-hypercube design.
    pub initial_points: usize,
    /// Total number of simulations.
    pub budget: usize,
    /// Evolutionary population size.
    pub population: usize,
    /// GP inference engine for every surrogate fit (full and frozen
    /// refits); the GPs otherwise train with [`GpConfig::fast`].
    pub gp_inference: InferenceMode,
    /// Re-optimize hyperparameters every `refit_every` iterations, with
    /// frozen refreshes in between ([`mfbo::RefitSchedule`]).
    pub refit_every: usize,
}

impl Default for GaspadConfig {
    fn default() -> Self {
        GaspadConfig {
            initial_points: 40,
            budget: 300,
            population: 40,
            gp_inference: InferenceMode::Exact,
            refit_every: 1,
        }
    }
}

/// The GASPAD optimizer.
///
/// # Examples
///
/// ```
/// use mfbo_baselines::{Gaspad, GaspadConfig};
/// use mfbo::problem::FunctionProblem;
/// use mfbo_opt::Bounds;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), mfbo::MfboError> {
/// let p = FunctionProblem::builder("quad", Bounds::unit(1))
///     .high(|x: &[f64]| (x[0] - 0.3).powi(2))
///     .build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let config = GaspadConfig { initial_points: 8, budget: 24, ..GaspadConfig::default() };
/// let out = Gaspad::new(config).run(&p, &mut rng)?;
/// assert!(out.best_objective < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Gaspad {
    config: GaspadConfig,
}

impl Gaspad {
    /// Creates a GASPAD driver.
    pub fn new(config: GaspadConfig) -> Self {
        Gaspad { config }
    }

    /// Runs GASPAD on `problem` (high fidelity only).
    ///
    /// # Errors
    ///
    /// Returns [`MfboError::InvalidConfig`] for inconsistent settings and
    /// propagates surrogate-training failures.
    pub fn run<P, R>(&self, problem: &P, rng: &mut R) -> Result<Outcome, MfboError>
    where
        P: MultiFidelityProblem + ?Sized,
        R: Rng + ?Sized,
    {
        let cfg = &self.config;
        if cfg.initial_points < 4 {
            return Err(MfboError::InvalidConfig {
                reason: "GASPAD needs at least 4 initial points".into(),
            });
        }
        if cfg.budget <= cfg.initial_points {
            return Err(MfboError::InvalidConfig {
                reason: "budget must exceed the initial design size".into(),
            });
        }
        let bounds = problem.bounds();
        let unit = Bounds::unit(bounds.dim());
        let nc = problem.num_constraints();
        let mut data = FidelityData::new(nc);
        let mut history = Vec::new();
        let mut cost = 0.0;

        for x in sampling::latin_hypercube(&bounds, cfg.initial_points, rng) {
            let eval = problem.evaluate(&x, Fidelity::High);
            if !eval.is_finite() {
                return Err(MfboError::NonFiniteEvaluation { x });
            }
            cost += problem.cost(Fidelity::High);
            data.push(x.clone(), &eval);
            history.push(EvaluationRecord {
                iteration: 0,
                x,
                fidelity: Fidelity::High,
                evaluation: eval,
                cost_so_far: cost,
            });
        }

        let model = GpConfig {
            inference: cfg.gp_inference,
            ..GpConfig::fast()
        };
        let mut schedule = RefitSchedule::<Gp<SquaredExponential>>::new(cfg.refit_every);

        for iteration in 1.. {
            if data.len() >= cfg.budget {
                break;
            }
            let data_u = data.to_unit(&bounds);
            let (surrogates, _) = schedule.fit(&data_u, &model, rng)?;

            // Parent pool: the best `population` simulated designs (unit
            // space) under exact feasibility rules.
            let parents = self.select_parents(&data_u);

            // DE/rand/1/bin offspring from the parent pool.
            let candidates: Vec<Vec<f64>> = (0..parents.len())
                .map(|i| de::trial(&parents, i, &unit, rng))
                .collect();

            // LCB prescreen: optimistic objective under optimistic
            // feasibility (LCB of each constraint must be negative to count
            // as "predicted feasible").
            let mut best_idx = 0;
            let mut best_score = f64::INFINITY;
            for (k, cand) in candidates.iter().enumerate() {
                let obj = surrogates.objective().predict(cand);
                let lcb = lower_confidence_bound(obj.mean, obj.std_dev(), KAPPA);
                let viol: f64 = surrogates
                    .constraints()
                    .iter()
                    .map(|gp| {
                        let c = gp.predict(cand);
                        lower_confidence_bound(c.mean, c.std_dev(), KAPPA).max(0.0)
                    })
                    .sum();
                // Predicted-feasible candidates rank by LCB; others by
                // violation, shifted above any feasible score.
                let score = if viol <= 0.0 { lcb } else { 1e12 + viol };
                if score < best_score {
                    best_score = score;
                    best_idx = k;
                }
            }

            let xt = bounds.from_unit(&candidates[best_idx]);
            let eval = problem.evaluate(&xt, Fidelity::High);
            if !eval.is_finite() {
                return Err(MfboError::NonFiniteEvaluation { x: xt });
            }
            cost += problem.cost(Fidelity::High);
            data.push(xt.clone(), &eval);
            history.push(EvaluationRecord {
                iteration,
                x: xt,
                fidelity: Fidelity::High,
                evaluation: eval,
                cost_so_far: cost,
            });
        }

        Ok(Outcome::from_data(data, FidelityData::new(nc), history))
    }

    /// Picks the best `population` designs under exact feasibility rules.
    fn select_parents(&self, data_u: &FidelityData) -> Vec<Vec<f64>> {
        let mut idx: Vec<usize> = (0..data_u.len()).collect();
        idx.sort_by(|&a, &b| {
            let va = data_u.violation(a);
            let vb = data_u.violation(b);
            match (va <= 0.0, vb <= 0.0) {
                (true, true) => data_u.objective[a]
                    .partial_cmp(&data_u.objective[b])
                    .expect("non-NaN objective"),
                (true, false) => std::cmp::Ordering::Less,
                (false, true) => std::cmp::Ordering::Greater,
                (false, false) => va.partial_cmp(&vb).expect("non-NaN violation"),
            }
        });
        idx.truncate(self.config.population.max(4).min(data_u.len()));
        idx.into_iter().map(|i| data_u.xs[i].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbo::problem::FunctionProblem;
    use mfbo_circuits::testfns;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaspad_solves_forrester() {
        let p = testfns::forrester();
        let mut rng = StdRng::seed_from_u64(21);
        let config = GaspadConfig {
            initial_points: 10,
            budget: 40,
            population: 10,
            ..GaspadConfig::default()
        };
        let out = Gaspad::new(config).run(&p, &mut rng).unwrap();
        assert!(out.best_objective < -5.0, "best = {}", out.best_objective);
        assert_eq!(out.n_high, 40);
    }

    #[test]
    fn gaspad_handles_constraints() {
        let p = FunctionProblem::builder("ctoy", Bounds::unit(2))
            .high(|x: &[f64]| x[0] + x[1])
            .high_constraints(1, |x: &[f64]| vec![1.0 - x[0] - x[1]])
            .build();
        let mut rng = StdRng::seed_from_u64(5);
        let config = GaspadConfig {
            initial_points: 12,
            budget: 50,
            population: 12,
            ..GaspadConfig::default()
        };
        let out = Gaspad::new(config).run(&p, &mut rng).unwrap();
        assert!(out.feasible);
        assert!(out.best_objective < 1.15, "best = {}", out.best_objective);
    }

    #[test]
    fn rejects_bad_configs() {
        let p = testfns::forrester();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            Gaspad::new(GaspadConfig {
                initial_points: 2,
                ..GaspadConfig::default()
            })
            .run(&p, &mut rng),
            Err(MfboError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Gaspad::new(GaspadConfig {
                initial_points: 20,
                budget: 20,
                ..GaspadConfig::default()
            })
            .run(&p, &mut rng),
            Err(MfboError::InvalidConfig { .. })
        ));
    }
}
