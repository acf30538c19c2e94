//! Differential evolution (DE/rand/1/bin) with feasibility-rule constraint
//! handling.
//!
//! Two consumers in the workspace:
//!
//! * the paper's **DE baseline** (§5, Liu et al. 2009-style hybrid
//!   evolutionary optimizer reduced to its DE core), where each candidate
//!   evaluation is a circuit simulation and the evaluation budget is the
//!   reported cost metric;
//! * the evolution engine inside **GASPAD**, where DE proposes candidates
//!   that a GP surrogate prescreens with a lower-confidence-bound rule.
//!
//! Constraint handling follows Deb's feasibility rules, the standard for
//! evolutionary constrained optimization: feasible beats infeasible,
//! feasible compares by objective, infeasible compares by total violation.

use crate::{Bounds, OptResult};
use rand::Rng;

/// Objective + constraint evaluation of one candidate.
///
/// `violation` is the sum of positive constraint violations
/// (`Σ max(0, c_i(x))`); zero means feasible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fitness {
    /// Objective value (to minimize).
    pub objective: f64,
    /// Total constraint violation; `0.0` when feasible.
    pub violation: f64,
}

impl Fitness {
    /// A fitness for an unconstrained problem.
    pub fn unconstrained(objective: f64) -> Self {
        Fitness {
            objective,
            violation: 0.0,
        }
    }

    /// Returns `true` when the candidate satisfies all constraints.
    pub fn is_feasible(&self) -> bool {
        self.violation <= 0.0
    }

    /// Deb's feasibility rule: returns `true` if `self` is better than
    /// `other`.
    pub fn beats(&self, other: &Fitness) -> bool {
        match (self.is_feasible(), other.is_feasible()) {
            (true, true) => self.objective < other.objective,
            (true, false) => true,
            (false, true) => false,
            (false, false) => self.violation < other.violation,
        }
    }
}

/// Differential weight `F` of the mutation.
const SCALE: f64 = 0.6;
/// Crossover probability `CR` of the binomial crossover.
const CROSSOVER: f64 = 0.9;

/// Differential evolution (DE/rand/1/bin) configuration.
///
/// # Examples
///
/// ```
/// use mfbo_opt::{Bounds, de::{DifferentialEvolution, Fitness}};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let b = Bounds::symmetric(2, 5.0);
/// let f = |x: &[f64]| Fitness::unconstrained(x.iter().map(|v| v * v).sum());
/// let r = DifferentialEvolution::new()
///     .with_population(20)
///     .with_max_evaluations(2000)
///     .minimize(&f, &b, &mut rng);
/// assert!(r.value < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct DifferentialEvolution {
    population: usize,
    max_evaluations: usize,
}

impl Default for DifferentialEvolution {
    fn default() -> Self {
        DifferentialEvolution {
            population: 40,
            max_evaluations: 10_000,
        }
    }
}

impl DifferentialEvolution {
    /// Creates a solver with default settings (population 40, F = 0.6,
    /// CR = 0.9).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the population size (at least 4 individuals are required by the
    /// rand/1 mutation).
    pub fn with_population(mut self, n: usize) -> Self {
        self.population = n.max(4);
        self
    }

    /// Sets the evaluation budget (initial population included).
    pub fn with_max_evaluations(mut self, n: usize) -> Self {
        self.max_evaluations = n;
        self
    }

    /// Runs the evolution, minimizing `f` inside `bounds`.
    ///
    /// The returned [`OptResult::value`] is the best *feasible* objective if
    /// any feasible candidate was seen, otherwise the objective of the
    /// least-violating candidate.
    pub fn minimize<F, R>(&self, f: &F, bounds: &Bounds, rng: &mut R) -> OptResult
    where
        F: Fn(&[f64]) -> Fitness + ?Sized,
        R: Rng + ?Sized,
    {
        let np = self.population;
        let mut evals = 0usize;

        // Initial population.
        let mut pop: Vec<Vec<f64>> = (0..np).map(|_| bounds.sample_uniform(rng)).collect();
        let mut fit: Vec<Fitness> = Vec::with_capacity(np);
        for p in &pop {
            fit.push(f(p));
            evals += 1;
            if evals >= self.max_evaluations {
                break;
            }
        }
        // If the budget died mid-initialization, pad with +inf fitness so the
        // selection below stays well-formed.
        while fit.len() < np {
            fit.push(Fitness {
                objective: f64::INFINITY,
                violation: f64::INFINITY,
            });
        }

        let mut best = 0usize;
        for i in 1..np {
            if fit[i].beats(&fit[best]) {
                best = i;
            }
        }

        let mut generations = 0usize;
        'outer: while evals < self.max_evaluations {
            generations += 1;
            for i in 0..np {
                if evals >= self.max_evaluations {
                    break 'outer;
                }
                let trial = trial(&pop, i, bounds, rng);
                let tf = f(&trial);
                evals += 1;
                // Selection by feasibility rules.
                if tf.beats(&fit[i]) {
                    pop[i] = trial;
                    fit[i] = tf;
                    if fit[i].beats(&fit[best]) {
                        best = i;
                    }
                }
            }
        }

        OptResult {
            x: pop[best].clone(),
            value: fit[best].objective,
            evaluations: evals,
            iterations: generations,
            converged: false,
        }
    }
}

/// The DE/rand/1/bin trial vector of member `i` of `pop` (at least 4
/// members), clamped into `bounds`: `pop[i]` crossed with the mutant
/// `pop[a] + F·(pop[b] − pop[c])`. Draws the partners, `j_rand`, then one
/// uniform per other coordinate.
pub fn trial<R: Rng + ?Sized>(
    pop: &[Vec<f64>],
    i: usize,
    bounds: &Bounds,
    rng: &mut R,
) -> Vec<f64> {
    let (a, b, c) = pick_three(pop.len(), i, rng);
    let n = bounds.dim();
    let j_rand = rng.gen_range(0..n);
    let mut trial = pop[i].clone();
    for j in 0..n {
        if j == j_rand || rng.gen::<f64>() < CROSSOVER {
            trial[j] = pop[a][j] + SCALE * (pop[b][j] - pop[c][j]);
        }
    }
    bounds.clamp_in_place(&mut trial);
    trial
}

/// Chooses three mutually distinct indices in `0..np`, all different from
/// `skip`.
fn pick_three<R: Rng + ?Sized>(np: usize, skip: usize, rng: &mut R) -> (usize, usize, usize) {
    debug_assert!(np >= 4, "rand/1 mutation needs at least 4 individuals");
    let mut draw = |excl: &[usize]| loop {
        let v = rng.gen_range(0..np);
        if !excl.contains(&v) {
            return v;
        }
    };
    let a = draw(&[skip]);
    let b = draw(&[skip, a]);
    let c = draw(&[skip, a, b]);
    (a, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fitness_rules() {
        let feas_good = Fitness {
            objective: 1.0,
            violation: 0.0,
        };
        let feas_bad = Fitness {
            objective: 2.0,
            violation: 0.0,
        };
        let infeas_small = Fitness {
            objective: -10.0,
            violation: 0.5,
        };
        let infeas_large = Fitness {
            objective: -99.0,
            violation: 5.0,
        };
        assert!(feas_good.beats(&feas_bad));
        assert!(feas_bad.beats(&infeas_small));
        assert!(infeas_small.beats(&infeas_large));
        assert!(!infeas_large.beats(&feas_good));
        assert!(feas_good.is_feasible());
        assert!(!infeas_small.is_feasible());
    }

    #[test]
    fn solves_sphere() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = Bounds::symmetric(5, 5.0);
        let f = |x: &[f64]| Fitness::unconstrained(x.iter().map(|v| v * v).sum());
        let r = DifferentialEvolution::new()
            .with_population(30)
            .with_max_evaluations(6000)
            .minimize(&f, &b, &mut rng);
        assert!(r.value < 1e-4, "value = {}", r.value);
        assert_eq!(r.evaluations, 6000);
    }

    #[test]
    fn finds_constrained_optimum() {
        // min x0 + x1 subject to x0 + x1 >= 1 (i.e. 1 - x0 - x1 <= 0);
        // optimum on the constraint boundary with value 1.
        let mut rng = StdRng::seed_from_u64(11);
        let b = Bounds::new(vec![0.0, 0.0], vec![2.0, 2.0]);
        let f = |x: &[f64]| Fitness {
            objective: x[0] + x[1],
            violation: (1.0 - x[0] - x[1]).max(0.0),
        };
        let r = DifferentialEvolution::new()
            .with_population(30)
            .with_max_evaluations(6000)
            .minimize(&f, &b, &mut rng);
        assert!((r.value - 1.0).abs() < 1e-3, "value = {}", r.value);
    }

    #[test]
    fn respects_evaluation_budget() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = Bounds::unit(2);
        let count = std::cell::Cell::new(0usize);
        let f = |x: &[f64]| {
            count.set(count.get() + 1);
            Fitness::unconstrained(x[0] + x[1])
        };
        let r = DifferentialEvolution::new()
            .with_population(10)
            .with_max_evaluations(57)
            .minimize(&f, &b, &mut rng);
        assert_eq!(count.get(), 57);
        assert_eq!(r.evaluations, 57);
    }

    #[test]
    fn pick_three_distinct() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let (a, b, c) = pick_three(6, 2, &mut rng);
            assert!(a != 2 && b != 2 && c != 2);
            assert!(a != b && b != c && a != c);
        }
    }
}
