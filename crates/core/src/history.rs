//! Observation storage, run records, and optimization outcomes.

use crate::problem::{Evaluation, Fidelity};

/// All observations collected at one fidelity level.
///
/// Constraint values are stored transposed (`constraints[i][k]` = value of
/// constraint `i` at point `k`) because each constraint gets its own
/// surrogate model.
#[derive(Debug, Clone, Default)]
pub struct FidelityData {
    /// Design points.
    pub xs: Vec<Vec<f64>>,
    /// Objective observations.
    pub objective: Vec<f64>,
    /// Constraint observations, one vector per constraint.
    pub constraints: Vec<Vec<f64>>,
}

impl FidelityData {
    /// Creates empty storage for `num_constraints` constraints.
    pub fn new(num_constraints: usize) -> Self {
        FidelityData {
            xs: Vec::new(),
            objective: Vec::new(),
            constraints: vec![Vec::new(); num_constraints],
        }
    }

    /// Appends one evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the evaluation's constraint count disagrees with the
    /// storage layout.
    pub fn push(&mut self, x: Vec<f64>, eval: &Evaluation) {
        assert_eq!(
            eval.constraints.len(),
            self.constraints.len(),
            "constraint count mismatch"
        );
        self.xs.push(x);
        self.objective.push(eval.objective);
        for (store, &v) in self.constraints.iter_mut().zip(&eval.constraints) {
            store.push(v);
        }
    }

    /// The observations of output `i`: the objective at 0, constraint
    /// `i - 1` after it — the order of a surrogate bundle's models.
    pub(crate) fn output(&self, i: usize) -> &[f64] {
        match i {
            0 => &self.objective,
            _ => &self.constraints[i - 1],
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether no points are stored.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Returns `true` if point `k` satisfies every constraint.
    pub fn is_feasible(&self, k: usize) -> bool {
        self.constraints.iter().all(|c| c[k] < 0.0)
    }

    /// Index and objective of the best *feasible* point, if any.
    pub fn best_feasible(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for k in 0..self.len() {
            if self.is_feasible(k) {
                let better = best.is_none_or(|(_, v)| self.objective[k] < v);
                if better {
                    best = Some((k, self.objective[k]));
                }
            }
        }
        best
    }

    /// Index and objective of the best point regardless of feasibility
    /// (ties broken toward lower total violation).
    pub fn best_any(&self) -> Option<(usize, f64)> {
        if self.is_empty() {
            return None;
        }
        // Prefer feasible; among infeasible, prefer low violation then low
        // objective.
        if let Some(b) = self.best_feasible() {
            return Some(b);
        }
        let mut best_k = 0;
        let mut best_viol = self.violation(0);
        for k in 1..self.len() {
            let v = self.violation(k);
            if v < best_viol {
                best_viol = v;
                best_k = k;
            }
        }
        Some((best_k, self.objective[best_k]))
    }

    /// Total positive constraint violation of point `k`.
    pub fn violation(&self, k: usize) -> f64 {
        self.constraints.iter().map(|c| c[k].max(0.0)).sum()
    }

    /// Returns a copy with every input mapped into the unit cube of
    /// `bounds`. The BO loops store raw (physical-unit) designs but fit
    /// surrogates in normalized space, where unit-scale kernel
    /// hyperparameter priors are meaningful regardless of whether a
    /// variable is a 0.12 µm channel length or a 6000:1 W/L ratio.
    pub fn to_unit(&self, bounds: &mfbo_opt::Bounds) -> FidelityData {
        FidelityData {
            xs: self.xs.iter().map(|x| bounds.to_unit(x)).collect(),
            objective: self.objective.clone(),
            constraints: self.constraints.clone(),
        }
    }

    /// Returns a copy with every output column winsorized at
    /// `mean ± k·std`. Heavy-tailed circuit metrics (a badly-sized current
    /// mirror can be off by two orders of magnitude) otherwise dominate the
    /// GP standardization, crushing lengthscales and — through the inflated
    /// posterior variance — permanently disabling the fidelity-selection
    /// criterion. Clipping only reshapes the surrogate's view of the far
    /// tail; incumbents and reported results always use the raw values.
    pub fn winsorized(&self, k: f64) -> FidelityData {
        assert!(k > 0.0, "winsorization width must be positive");
        let clip = |v: &[f64]| -> Vec<f64> {
            let m = mfbo_linalg::mean(v);
            let s = mfbo_linalg::std_dev(v);
            if s <= 0.0 || s.is_nan() {
                return v.to_vec();
            }
            v.iter().map(|&y| y.clamp(m - k * s, m + k * s)).collect()
        };
        FidelityData {
            xs: self.xs.clone(),
            objective: clip(&self.objective),
            constraints: self.constraints.iter().map(|c| clip(c)).collect(),
        }
    }

    /// Reconstructs the [`Evaluation`] stored at index `k`.
    pub fn evaluation(&self, k: usize) -> Evaluation {
        Evaluation {
            objective: self.objective[k],
            constraints: self.constraints.iter().map(|c| c[k]).collect(),
        }
    }
}

/// One step of the optimization trace.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationRecord {
    /// Iteration index (initial design points share index 0).
    pub iteration: usize,
    /// The evaluated design.
    pub x: Vec<f64>,
    /// Fidelity level used.
    pub fidelity: Fidelity,
    /// The simulation result.
    pub evaluation: Evaluation,
    /// Accumulated cost (in equivalent high-fidelity simulations) *after*
    /// this evaluation.
    pub cost_so_far: f64,
}

/// Final result of an optimization run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Best feasible high-fidelity design found (best low-violation design
    /// if nothing was feasible).
    pub best_x: Vec<f64>,
    /// High-fidelity evaluation at [`Outcome::best_x`].
    pub best_evaluation: Evaluation,
    /// Objective at the best design.
    pub best_objective: f64,
    /// Whether the best design satisfies all constraints.
    pub feasible: bool,
    /// Number of low-fidelity simulations used.
    pub n_low: usize,
    /// Number of high-fidelity simulations used.
    pub n_high: usize,
    /// Total cost in equivalent high-fidelity simulations.
    pub total_cost: f64,
    /// Cost at which the final best design was first evaluated — the
    /// paper's "Avg. # Sim to reach the corresponding results" metric.
    pub cost_to_best: f64,
    /// Complete evaluation trace.
    pub history: Vec<EvaluationRecord>,
    /// Aggregate run telemetry: per-stage wall-clock stats and the
    /// fidelity-decision table. Always populated by the BO loops, with or
    /// without a telemetry sink installed.
    pub telemetry: mfbo_telemetry::RunTelemetry,
    /// How the run's evaluations were sourced (fresh / replayed / cached)
    /// and how the fault-tolerance machinery fired. All zeros for loops
    /// that don't route evaluations through the durable session.
    pub eval_stats: crate::evaluator::EvalStats,
}

impl Outcome {
    /// Assembles an outcome from collected per-fidelity data and the full
    /// evaluation trace. The best design is the best *feasible*
    /// high-fidelity point, falling back to the least-violating point when
    /// nothing is feasible.
    ///
    /// # Panics
    ///
    /// Panics if `high` is empty — every optimizer in this workspace
    /// guarantees at least one high-fidelity evaluation.
    pub fn from_data(
        high: FidelityData,
        low: FidelityData,
        history: Vec<EvaluationRecord>,
    ) -> Outcome {
        let (best_k, best_objective) = high
            .best_feasible()
            .or_else(|| high.best_any())
            .expect("high-fidelity data is non-empty");
        let best_x = high.xs[best_k].clone();
        let best_evaluation = high.evaluation(best_k);
        let feasible = best_evaluation.is_feasible();
        let total_cost = history.last().map(|r| r.cost_so_far).unwrap_or(0.0);
        // Cost at which the eventual best point was evaluated.
        let cost_to_best = history
            .iter()
            .find(|r| r.fidelity == Fidelity::High && r.x == best_x)
            .map(|r| r.cost_so_far)
            .unwrap_or(total_cost);
        Outcome {
            best_x,
            best_evaluation,
            best_objective,
            feasible,
            n_low: low.len(),
            n_high: high.len(),
            total_cost,
            cost_to_best,
            history,
            telemetry: mfbo_telemetry::RunTelemetry::default(),
            eval_stats: crate::evaluator::EvalStats::default(),
        }
    }

    /// Convergence trace: `(cost, best feasible objective so far)` after
    /// each high-fidelity evaluation. Useful for plotting optimization
    /// progress against simulation budget.
    pub fn convergence_trace(&self) -> Vec<(f64, f64)> {
        let mut best = f64::INFINITY;
        let mut out = Vec::new();
        for rec in &self.history {
            if rec.fidelity == Fidelity::High && rec.evaluation.is_feasible() {
                best = best.min(rec.evaluation.objective);
            }
            if rec.fidelity == Fidelity::High && best.is_finite() {
                out.push((rec.cost_so_far, best));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(obj: f64, cons: &[f64]) -> Evaluation {
        Evaluation {
            objective: obj,
            constraints: cons.to_vec(),
        }
    }

    #[test]
    fn push_and_len() {
        let mut d = FidelityData::new(2);
        assert!(d.is_empty());
        d.push(vec![0.1, 0.2], &eval(1.0, &[-1.0, 0.5]));
        d.push(vec![0.3, 0.4], &eval(2.0, &[-1.0, -0.5]));
        assert_eq!(d.len(), 2);
        assert_eq!(d.constraints[1], vec![0.5, -0.5]);
    }

    #[test]
    #[should_panic(expected = "constraint count mismatch")]
    fn push_rejects_wrong_constraint_count() {
        let mut d = FidelityData::new(2);
        d.push(vec![0.0], &eval(1.0, &[-1.0]));
    }

    #[test]
    fn feasibility_and_best() {
        let mut d = FidelityData::new(1);
        d.push(vec![0.0], &eval(5.0, &[0.2])); // infeasible
        d.push(vec![1.0], &eval(3.0, &[-0.1])); // feasible
        d.push(vec![2.0], &eval(1.0, &[0.9])); // infeasible but best objective
        d.push(vec![3.0], &eval(4.0, &[-0.2])); // feasible

        assert!(!d.is_feasible(0));
        assert!(d.is_feasible(1));
        let (k, v) = d.best_feasible().unwrap();
        assert_eq!(k, 1);
        assert_eq!(v, 3.0);
        // best_any prefers the feasible winner.
        assert_eq!(d.best_any().unwrap().0, 1);
    }

    #[test]
    fn best_any_without_feasible_prefers_low_violation() {
        let mut d = FidelityData::new(1);
        d.push(vec![0.0], &eval(0.0, &[2.0]));
        d.push(vec![1.0], &eval(9.0, &[0.1]));
        let (k, _) = d.best_any().unwrap();
        assert_eq!(k, 1);
        assert!(d.best_feasible().is_none());
        assert!((d.violation(0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn best_any_empty() {
        let d = FidelityData::new(0);
        assert!(d.best_any().is_none());
    }

    #[test]
    fn evaluation_round_trip() {
        let mut d = FidelityData::new(2);
        let e = eval(1.5, &[-0.5, 0.25]);
        d.push(vec![0.0], &e);
        assert_eq!(d.evaluation(0), e);
    }

    #[test]
    fn convergence_trace_tracks_best_feasible_high() {
        let outcome = Outcome {
            best_x: vec![0.0],
            best_evaluation: eval(1.0, &[]),
            best_objective: 1.0,
            feasible: true,
            n_low: 1,
            n_high: 3,
            total_cost: 3.1,
            cost_to_best: 2.1,
            telemetry: mfbo_telemetry::RunTelemetry::default(),
            eval_stats: crate::evaluator::EvalStats::default(),
            history: vec![
                EvaluationRecord {
                    iteration: 0,
                    x: vec![0.0],
                    fidelity: Fidelity::Low,
                    evaluation: eval(9.0, &[]),
                    cost_so_far: 0.1,
                },
                EvaluationRecord {
                    iteration: 1,
                    x: vec![0.1],
                    fidelity: Fidelity::High,
                    evaluation: eval(3.0, &[]),
                    cost_so_far: 1.1,
                },
                EvaluationRecord {
                    iteration: 2,
                    x: vec![0.2],
                    fidelity: Fidelity::High,
                    evaluation: eval(5.0, &[]),
                    cost_so_far: 2.1,
                },
                EvaluationRecord {
                    iteration: 3,
                    x: vec![0.3],
                    fidelity: Fidelity::High,
                    evaluation: eval(1.0, &[]),
                    cost_so_far: 3.1,
                },
            ],
        };
        let trace = outcome.convergence_trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0], (1.1, 3.0));
        assert_eq!(trace[1], (2.1, 3.0)); // no improvement
        assert_eq!(trace[2], (3.1, 1.0));
    }
}
