//! Scalable GP inference for the `analog-mfbo` workspace.
//!
//! The paper's budgets are ~100 evaluations, but a long-lived evaluation
//! service accumulates thousands of observations per run, and exact GP
//! inference is cubic in the training-set size. This crate provides the
//! subset-of-data approximation surveyed in the MFBO literature
//! (Do & Zhang, arXiv:2311.13050) in a form that preserves the workspace's
//! determinism contract:
//!
//! * [`select_subset`] — farthest-point selection over the
//!   *committed history order* of the training set. The output depends only
//!   on `(points, max_points)`, never on wall clock, threading, or
//!   map iteration order, so approximate runs journal and replay
//!   bit-identically.
//! * [`InferenceMode`] — the user-facing knob threaded through
//!   `GpConfig::inference`, the run configs' `gp_inference`,
//!   `mfbo-cli --gp-inference`, and the server `start` request. The exact Cholesky path stays the differential
//!   oracle: `Exact` must remain byte-identical to the pre-existing
//!   behavior, and the subset mode is tested against it.
//!
//! Telemetry: [`select_subset`] emits `infer_subset_selections` /
//! `infer_subset_size`, so operators can watch subset occupancy without
//! instrumenting callers.

#![deny(missing_docs)]

use std::fmt;

/// Default training-point cap for the subset-of-data regime.
pub const DEFAULT_SUBSET: usize = 1024;

/// Which inference engine a GP uses for fitting and prediction.
///
/// `Exact` is the pre-existing Cholesky path and the differential oracle
/// for the subset mode; it must stay byte-identical when selected. The
/// subset mode trades posterior fidelity for asymptotic cost and is only
/// worthwhile past ~1–2k observations (see BENCH_infer.json).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InferenceMode {
    /// Full Cholesky factorization: O(n³) fit, O(n²) per predictive
    /// variance. The default, and the oracle the subset mode is
    /// differentially tested against.
    #[default]
    Exact,
    /// Train and predict on a farthest-point subset of at most
    /// `max_points` observations; everything downstream of the selection
    /// is the exact path on the reduced set.
    SubsetOfData {
        /// Training-point cap.
        max_points: usize,
    },
}

impl InferenceMode {
    /// The subset-of-data regime with the default cap.
    pub fn subset_of_data() -> Self {
        InferenceMode::SubsetOfData {
            max_points: DEFAULT_SUBSET,
        }
    }

    /// Parses the CLI/server spelling: `exact` or `subset-of-data` (the
    /// cap takes its default).
    ///
    /// # Errors
    ///
    /// Returns a one-line message listing the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "exact" => Ok(InferenceMode::Exact),
            "subset-of-data" => Ok(InferenceMode::subset_of_data()),
            other => Err(format!(
                "unknown inference mode '{other}': expected exact|subset-of-data"
            )),
        }
    }

    /// Canonical spelling used by the CLI, the server protocol, and
    /// `meta.json` (knob values are not round-tripped).
    pub fn as_str(&self) -> &'static str {
        match self {
            InferenceMode::Exact => "exact",
            InferenceMode::SubsetOfData { .. } => "subset-of-data",
        }
    }

    /// `true` for the exact Cholesky path.
    pub fn is_exact(&self) -> bool {
        matches!(self, InferenceMode::Exact)
    }
}

impl fmt::Display for InferenceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Squared Euclidean distance, summed in ascending coordinate order.
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        s += d * d;
    }
    s
}

/// Deterministic farthest-point selection over committed history order.
///
/// Returns the indices of at most `max_points` points, **sorted
/// ascending** so downstream kernel matrices are assembled in the same
/// order the observations were committed — that is what makes approximate
/// runs journal-stable: the selection is a pure function of
/// `(points, max_points)`.
///
/// The walk starts at the first committed point and greedily adds the
/// point with the largest squared distance to the selected set, breaking
/// ties toward the lowest (earliest-committed) index.
pub fn select_subset(points: &[Vec<f64>], max_points: usize) -> Vec<usize> {
    let n = points.len();
    if n <= max_points {
        return (0..n).collect();
    }
    let m = max_points.max(1);
    let mut selected = Vec::with_capacity(m);
    selected.push(0);
    // min squared distance from each point to the selected set
    let mut mind: Vec<f64> = (0..n).map(|i| sq_dist(&points[i], &points[0])).collect();
    while selected.len() < m {
        let mut best = usize::MAX;
        let mut best_d = f64::NEG_INFINITY;
        for (i, &d) in mind.iter().enumerate() {
            if d > best_d {
                best_d = d;
                best = i;
            }
        }
        if best == usize::MAX || best_d <= 0.0 {
            // Remaining points duplicate the selected set; fill in
            // committed order for determinism.
            for i in 0..n {
                if !selected.contains(&i) {
                    selected.push(i);
                    if selected.len() == m {
                        break;
                    }
                }
            }
            break;
        }
        selected.push(best);
        mind[best] = f64::NEG_INFINITY;
        for i in 0..n {
            let d = sq_dist(&points[i], &points[best]);
            if d < mind[i] {
                mind[i] = d;
            }
        }
    }
    selected.sort_unstable();
    selected.dedup();
    mfbo_telemetry::counter!("infer_subset_selections", 1u64);
    mfbo_telemetry::counter!("infer_subset_size", selected.len() as u64);
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![i as f64 / n as f64, ((i * 13) % n) as f64 / n as f64])
            .collect()
    }

    #[test]
    fn subset_is_identity_when_small_enough() {
        let pts = grid(10);
        assert_eq!(select_subset(&pts, 10), (0..10).collect::<Vec<_>>());
        assert_eq!(select_subset(&pts, 64), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn subset_is_sorted_and_deterministic() {
        let pts = grid(50);
        let a = select_subset(&pts, 12);
        let b = select_subset(&pts, 12);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
        assert!(a.iter().all(|&i| i < 50));
        // The walk starts at the first committed point.
        assert_eq!(a[0], 0);
    }

    #[test]
    fn subset_handles_duplicate_points() {
        let pts: Vec<Vec<f64>> = (0..20).map(|_| vec![0.5, 0.5]).collect();
        let s = select_subset(&pts, 6);
        assert_eq!(s.len(), 6);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn subset_spreads_over_the_input_range() {
        // 1-D line: farthest-point with cap 3 must pick both extremes.
        let pts: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let s = select_subset(&pts, 3);
        assert!(s.contains(&0));
        assert!(s.contains(&99));
    }

    #[test]
    fn mode_parse_round_trips() {
        for s in ["exact", "subset-of-data"] {
            let m = InferenceMode::parse(s).unwrap();
            assert_eq!(m.as_str(), s);
            assert_eq!(m.to_string(), s);
        }
        assert_eq!(InferenceMode::default(), InferenceMode::Exact);
        assert!(InferenceMode::Exact.is_exact());
        assert!(!InferenceMode::subset_of_data().is_exact());
        for bad in ["bogus", "iterative"] {
            let e = InferenceMode::parse(bad).unwrap_err();
            assert!(e.contains(bad) && e.contains("exact|subset-of-data"), "{e}");
        }
    }
}
