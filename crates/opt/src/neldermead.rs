//! Nelder–Mead downhill simplex with box bounds.
//!
//! Used as the derivative-free local searcher inside the
//! multiple-starting-point strategy. The acquisition surfaces are
//! deterministic — the NARGP propagation uses fixed stratified quantiles,
//! not random draws — but no posterior here has an input gradient, and the
//! surfaces have flat zero regions (wEI far from the data) and kinks (the
//! `max(0, ·)` terms of the eq. (13) drive), which a simplex search
//! tolerates.
//!
//! # Batched objectives and lockstep searches
//!
//! Every search takes a batched objective `f(xs, out)` that must write the
//! objective value at `xs[i]` into `out[i]` for every `i`
//! (`out.len() == xs.len()`). A point's value must not depend on which
//! batch it arrives in, so the batching is invisible in the result.
//!
//! One search is a resumable state machine with the phases init, reflect,
//! expand, contract, shrink and done. A lockstep group steps several
//! searches side by side (the multi-start search runs its starts in
//! groups; see [`crate::msp`]) and makes three call shapes:
//!
//! - one call per search with the `n + 1` points of its initial simplex;
//! - one call per search with the `n` new vertices of each shrink;
//! - one pooled call per round with the single pending point (a
//!   reflection, expansion or contraction) of every live search of the
//!   group, in start order.
//!
//! Each search keeps the arithmetic and comparison order of a lone
//! search, so every result is bit-identical to [`NelderMead::minimize_batched`]
//! from the same start, which is a group of one. The pointwise
//! [`NelderMead::minimize`] adapts a scalar objective by scoring each batch
//! in point order.

use crate::{Bounds, OptResult};

/// Nelder–Mead configuration (standard coefficients: reflection 1, expansion
/// 2, contraction 0.5, shrink 0.5).
///
/// # Examples
///
/// ```
/// use mfbo_opt::{Bounds, neldermead::NelderMead};
///
/// let f = |x: &[f64]| (x[0] - 0.3).powi(2) + (x[1] + 0.7).powi(2);
/// let b = Bounds::symmetric(2, 2.0);
/// let r = NelderMead::new().minimize(&f, &[1.0, 1.0], &b);
/// assert!((r.x[0] - 0.3).abs() < 1e-4);
/// assert!((r.x[1] + 0.7).abs() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct NelderMead {
    max_iters: usize,
}

/// Simplex value-spread tolerance.
const F_TOL: f64 = 1e-10;
/// Simplex diameter tolerance.
const X_TOL: f64 = 1e-9;
/// Initial simplex edge length as a fraction of each bound width.
const INITIAL_STEP: f64 = 0.05;

impl Default for NelderMead {
    fn default() -> Self {
        NelderMead { max_iters: 400 }
    }
}

impl NelderMead {
    /// Creates a solver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the iteration cap.
    pub fn with_max_iters(mut self, n: usize) -> Self {
        self.max_iters = n;
        self
    }

    /// Minimizes `f` starting from `x0` inside `bounds`.
    ///
    /// Non-finite objective values are treated as `+inf`.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.dim()`.
    pub fn minimize<F>(&self, f: &F, x0: &[f64], bounds: &Bounds) -> OptResult
    where
        F: Fn(&[f64]) -> f64 + ?Sized,
    {
        self.minimize_batched(&pointwise(f), x0, bounds)
    }

    /// [`NelderMead::minimize`] with a batched objective: a lockstep group
    /// of one (see the module docs for the contract and the call shapes).
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.dim()`.
    pub fn minimize_batched<F>(&self, f: &F, x0: &[f64], bounds: &Bounds) -> OptResult
    where
        F: Fn(&[Vec<f64>], &mut [f64]) + ?Sized,
    {
        let mut results = self.minimize_lockstep(f, &[x0.to_vec()], bounds);
        results.pop().expect("one start yields one result")
    }

    /// Runs one search from each of `starts` in lockstep, pooling their
    /// single pending points into one objective call per round (see the
    /// module docs), and returns the results in start order. Each result
    /// is bit-identical to [`NelderMead::minimize_batched`] from its start.
    ///
    /// # Panics
    ///
    /// Panics if any start's dimension differs from `bounds.dim()`.
    pub(crate) fn minimize_lockstep<F>(
        &self,
        f: &F,
        starts: &[Vec<f64>],
        bounds: &Bounds,
    ) -> Vec<OptResult>
    where
        F: Fn(&[Vec<f64>], &mut [f64]) + ?Sized,
    {
        let score = |xs: &[Vec<f64>], out: &mut [f64]| {
            f(xs, out);
            for v in out.iter_mut().filter(|v| !v.is_finite()) {
                *v = f64::INFINITY;
            }
        };
        let mut searches: Vec<Search> = starts
            .iter()
            .map(|x0| Search::new(x0, self.max_iters, bounds))
            .collect();
        for s in &mut searches {
            s.run(&score, bounds);
        }
        // The pooled points are moved out of their searches and back, so a
        // round allocates nothing.
        let mut pooled: Vec<Vec<f64>> = Vec::with_capacity(searches.len());
        let mut values = vec![0.0; searches.len()];
        loop {
            pooled.extend(searches.iter_mut().filter_map(Search::take_pending));
            if pooled.is_empty() {
                break;
            }
            let scores = &mut values[..pooled.len()];
            score(&pooled, scores);
            let waiting = searches.iter_mut().filter(|s| s.is_waiting());
            for ((s, x), &v) in waiting.zip(pooled.drain(..)).zip(scores.iter()) {
                s.tell(x, v, bounds);
                s.run(&score, bounds);
            }
        }
        searches.into_iter().map(Search::into_result).collect()
    }
}

/// Where a [`Search`] stands: what it waits on next.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// The initial simplex awaits its scores.
    Init,
    /// The reflection awaits its value.
    Reflect,
    /// The expansion awaits its value; the reflection's is `fr`.
    Expand { fr: f64 },
    /// The contraction awaits its value, which must beat `f_ref`.
    Contract { f_ref: f64 },
    /// The shrunk vertices `1..=n` await their scores.
    Shrink,
    /// Converged or out of iterations.
    Done,
}

/// One Nelder–Mead search as a resumable state machine. The phases
/// reflect, expand and contract wait on one point, which the lockstep loop
/// scores and hands back through [`Search::tell`]; init and shrink are
/// scored in place by [`Search::run`].
#[derive(Debug)]
struct Search {
    max_iters: usize,
    phase: Phase,
    simplex: Vec<Vec<f64>>,
    values: Vec<f64>,
    centroid: Vec<f64>,
    /// The reflection, kept while an expansion or contraction is pending.
    reflect: Vec<f64>,
    /// The pending expansion or contraction.
    trial: Vec<f64>,
    /// Scratch for ordering the simplex by moving its rows.
    order: Vec<usize>,
    spare_rows: Vec<Vec<f64>>,
    spare_values: Vec<f64>,
    evals: usize,
    iters: usize,
    converged: bool,
}

impl Search {
    /// Builds the initial simplex: `x0` plus a step along each axis,
    /// projected into the box (stepping inward when at the upper bound).
    fn new(x0: &[f64], max_iters: usize, bounds: &Bounds) -> Self {
        assert_eq!(x0.len(), bounds.dim(), "x0 dimension mismatch");
        let n = x0.len();
        let widths = bounds.widths();
        let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        simplex.push(bounds.clamp(x0));
        for i in 0..n {
            let mut v = simplex[0].clone();
            let step = (INITIAL_STEP * widths[i]).max(1e-8);
            if v[i] + step <= bounds.upper()[i] {
                v[i] += step;
            } else {
                v[i] -= step;
            }
            bounds.clamp_in_place(&mut v);
            simplex.push(v);
        }
        Search {
            max_iters,
            phase: Phase::Init,
            simplex,
            values: vec![0.0; n + 1],
            centroid: vec![0.0; n],
            reflect: vec![0.0; n],
            trial: vec![0.0; n],
            order: Vec::with_capacity(n + 1),
            spare_rows: Vec::with_capacity(n + 1),
            spare_values: Vec::with_capacity(n + 1),
            evals: 0,
            iters: 0,
            converged: false,
        }
    }

    /// Scores the init and shrink phases with `score`, in place, until the
    /// search waits on a single point or is done.
    fn run(&mut self, score: &impl Fn(&[Vec<f64>], &mut [f64]), bounds: &Bounds) {
        loop {
            match self.phase {
                Phase::Init => {
                    score(&self.simplex, &mut self.values);
                    self.evals += self.simplex.len();
                }
                Phase::Shrink => {
                    score(&self.simplex[1..], &mut self.values[1..]);
                    self.evals += self.simplex.len() - 1;
                }
                _ => return,
            }
            self.begin_iteration(bounds);
        }
    }

    /// Whether the search waits on a single point.
    fn is_waiting(&self) -> bool {
        matches!(
            self.phase,
            Phase::Reflect | Phase::Expand { .. } | Phase::Contract { .. }
        )
    }

    /// Moves out the point the search waits on; [`Search::tell`] hands it
    /// back with its value.
    fn take_pending(&mut self) -> Option<Vec<f64>> {
        match self.phase {
            Phase::Reflect => Some(std::mem::take(&mut self.reflect)),
            Phase::Expand { .. } | Phase::Contract { .. } => Some(std::mem::take(&mut self.trial)),
            _ => None,
        }
    }

    /// Hands back the pending point `x` with its value `fx` and takes the
    /// step it decides.
    fn tell(&mut self, x: Vec<f64>, fx: f64, bounds: &Bounds) {
        let n = self.centroid.len();
        self.evals += 1;
        match self.phase {
            Phase::Reflect => {
                self.reflect = x;
                let fr = fx;
                if fr < self.values[0] {
                    // Expansion.
                    combine(&self.centroid, &self.simplex[n], 3.0, -2.0, &mut self.trial);
                    bounds.clamp_in_place(&mut self.trial);
                    self.phase = Phase::Expand { fr };
                } else if fr < self.values[n - 1] {
                    self.accept_reflect(fr, bounds);
                } else {
                    // Contraction (outside if the reflection improved on
                    // the worst, inside otherwise).
                    let worst = self.values[n];
                    let (towards, f_ref) = if fr < worst {
                        (&self.reflect, fr)
                    } else {
                        (&self.simplex[n], worst)
                    };
                    for ((t, c), w) in self.trial.iter_mut().zip(&self.centroid).zip(towards) {
                        *t = 0.5 * c + 0.5 * w;
                    }
                    bounds.clamp_in_place(&mut self.trial);
                    self.phase = Phase::Contract { f_ref };
                }
            }
            Phase::Expand { fr } => {
                self.trial = x;
                let fe = fx;
                if fe < fr {
                    self.accept_trial(fe, bounds);
                } else {
                    self.accept_reflect(fr, bounds);
                }
            }
            Phase::Contract { f_ref } => {
                self.trial = x;
                let fc = fx;
                if fc < f_ref {
                    self.accept_trial(fc, bounds);
                } else {
                    // Shrink toward the best vertex; `run` scores the n new
                    // vertices in one call.
                    let (best, rest) = self.simplex.split_at_mut(1);
                    for v in rest {
                        for (vi, b) in v.iter_mut().zip(&best[0]) {
                            *vi = 0.5 * (*vi + b);
                        }
                        bounds.clamp_in_place(v);
                    }
                    self.phase = Phase::Shrink;
                }
            }
            _ => unreachable!("no point is pending"),
        }
    }

    /// Replaces the worst vertex by the reflection.
    fn accept_reflect(&mut self, fr: f64, bounds: &Bounds) {
        let n = self.centroid.len();
        std::mem::swap(&mut self.simplex[n], &mut self.reflect);
        self.values[n] = fr;
        self.begin_iteration(bounds);
    }

    /// Replaces the worst vertex by the expansion or contraction.
    fn accept_trial(&mut self, ft: f64, bounds: &Bounds) {
        let n = self.centroid.len();
        std::mem::swap(&mut self.simplex[n], &mut self.trial);
        self.values[n] = ft;
        self.begin_iteration(bounds);
    }

    /// Starts the next iteration: orders the simplex, tests convergence
    /// and builds the reflection, or stops at the iteration cap.
    fn begin_iteration(&mut self, bounds: &Bounds) {
        if self.iters == self.max_iters {
            self.phase = Phase::Done;
            return;
        }
        self.iters += 1;
        let n = self.centroid.len();

        // Order the simplex by value, moving the rows.
        self.order.clear();
        self.order.extend(0..=n);
        let values = &self.values;
        self.order
            .sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("non-NaN"));
        self.spare_rows.clear();
        self.spare_values.clear();
        for &i in &self.order {
            self.spare_rows.push(std::mem::take(&mut self.simplex[i]));
            self.spare_values.push(self.values[i]);
        }
        std::mem::swap(&mut self.simplex, &mut self.spare_rows);
        std::mem::swap(&mut self.values, &mut self.spare_values);

        // Convergence: value spread, then (only when the spread is small)
        // the O(d²) simplex diameter.
        let spread = self.values[n] - self.values[0];
        let diam = || {
            self.simplex[1..]
                .iter()
                .map(|v| {
                    v.iter()
                        .zip(&self.simplex[0])
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max)
                })
                .fold(0.0, f64::max)
        };
        if spread.abs() < F_TOL && diam() < X_TOL {
            self.converged = true;
            self.phase = Phase::Done;
            return;
        }

        // Centroid of all but the worst point.
        self.centroid.fill(0.0);
        for v in &self.simplex[..n] {
            mfbo_linalg::axpy(1.0 / n as f64, v, &mut self.centroid);
        }

        // Reflection.
        combine(
            &self.centroid,
            &self.simplex[n],
            2.0,
            -1.0,
            &mut self.reflect,
        );
        bounds.clamp_in_place(&mut self.reflect);
        self.phase = Phase::Reflect;
    }

    /// The best vertex and the search's counters.
    fn into_result(mut self) -> OptResult {
        let (bi, bv) = self
            .values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("non-NaN"))
            .expect("simplex is non-empty");
        OptResult {
            value: *bv,
            x: std::mem::take(&mut self.simplex[bi]),
            evaluations: self.evals,
            iterations: self.iters,
            converged: self.converged,
        }
    }
}

/// Adapts a pointwise objective to the batched contract, scoring each
/// batch in point order.
pub(crate) fn pointwise<F>(f: &F) -> impl Fn(&[Vec<f64>], &mut [f64]) + '_
where
    F: Fn(&[f64]) -> f64 + ?Sized,
{
    move |xs, out| {
        for (x, o) in xs.iter().zip(out) {
            *o = f(x);
        }
    }
}

/// Writes `a * centroid + b * worst` into `out` (unprojected).
fn combine(centroid: &[f64], worst: &[f64], a: f64, b: f64, out: &mut [f64]) {
    for ((o, c), w) in out.iter_mut().zip(centroid).zip(worst) {
        *o = a * c + b * w;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn sphere_function() {
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let b = Bounds::symmetric(3, 5.0);
        let r = NelderMead::new()
            .with_max_iters(2000)
            .minimize(&f, &[2.0, -3.0, 1.0], &b);
        assert!(r.value < 1e-8, "value = {}", r.value);
    }

    #[test]
    fn rosenbrock_2d() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let b = Bounds::symmetric(2, 5.0);
        let r = NelderMead::new()
            .with_max_iters(5000)
            .minimize(&f, &[-1.2, 1.0], &b);
        assert!((r.x[0] - 1.0).abs() < 1e-3, "x = {:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn respects_bounds() {
        let f = |x: &[f64]| (x[0] + 10.0).powi(2);
        let b = Bounds::new(vec![-1.0], vec![1.0]);
        let r = NelderMead::new().minimize(&f, &[0.5], &b);
        assert!((r.x[0] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn starting_at_upper_bound_still_moves() {
        let f = |x: &[f64]| (x[0] - 0.2).powi(2);
        let b = Bounds::unit(1);
        let r = NelderMead::new().minimize(&f, &[1.0], &b);
        assert!((r.x[0] - 0.2).abs() < 1e-5);
    }

    /// Records the size of every batch a search scores.
    fn shapes_of(
        f: impl Fn(&[f64]) -> f64 + Sync,
        x0: &[f64],
        b: &Bounds,
    ) -> (Vec<usize>, OptResult) {
        let (shapes, mut r) = recorded(f, |g| vec![NelderMead::new().minimize_batched(g, x0, b)]);
        (shapes, r.pop().unwrap())
    }

    /// Runs `run` on a batched form of `f`, recording the size of every
    /// batch it scores.
    pub(crate) fn recorded<T>(
        f: impl Fn(&[f64]) -> f64 + Sync,
        run: impl FnOnce(&(dyn Fn(&[Vec<f64>], &mut [f64]) + Sync)) -> T,
    ) -> (Vec<usize>, T) {
        let shapes = std::sync::Mutex::new(Vec::new());
        let batched = |xs: &[Vec<f64>], out: &mut [f64]| {
            shapes.lock().unwrap().push(xs.len());
            for (x, o) in xs.iter().zip(out) {
                *o = f(x);
            }
        };
        let out = run(&batched);
        (shapes.into_inner().unwrap(), out)
    }

    /// A bowl with flat terraces: contractions often fail on a terrace, so
    /// searches shrink as well as reflect.
    pub(crate) fn terraced(x: &[f64]) -> f64 {
        x.iter()
            .map(|v| ((v - 0.3) * 6.0).round().powi(2) + 0.01 * v * v)
            .sum()
    }

    /// Checks the call shapes of searches run in lockstep groups of
    /// `group` at dimension `n > group`: `shapes` holds the batch sizes in
    /// call order, `lone` the batch sizes of a lone search from each start.
    ///
    /// - every start scores its `n + 1`-point initial simplex in one call,
    ///   and the shrinks are the lone searches' `n`-point shrinks;
    /// - the remaining (pooled) calls of a group hold one point per live
    ///   search: round `r` has every search whose lone run made more than
    ///   `r` single-point calls.
    pub(crate) fn assert_lockstep_shapes(
        shapes: &[usize],
        lone: &[Vec<usize>],
        n: usize,
        group: usize,
    ) {
        assert!(n > group, "shapes must tell pooled calls from shrinks");
        let count = |v: &[usize], m: usize| v.iter().filter(|&&k| k == m).count();
        assert_eq!(
            count(shapes, n + 1),
            lone.len(),
            "one initial simplex per start"
        );
        let shrinks: usize = lone.iter().map(|l| count(l, n)).sum();
        assert!(shrinks > 0, "the objective must make the searches shrink");
        assert_eq!(count(shapes, n), shrinks, "shrinks as in the lone searches");
        let pooled: Vec<usize> = shapes.iter().copied().filter(|&m| m < n).collect();
        let mut expected = Vec::new();
        for g in lone.chunks(group) {
            let singles: Vec<usize> = g.iter().map(|l| count(l, 1)).collect();
            let rounds = singles.iter().copied().max().unwrap_or(0);
            expected.extend((0..rounds).map(|r| singles.iter().filter(|&&k| k > r).count()));
        }
        assert!(
            pooled.iter().all(|&m| (1..=group).contains(&m)),
            "{pooled:?}"
        );
        assert_eq!(pooled, expected);
    }

    #[test]
    fn batched_call_shapes() {
        let b = Bounds::unit(3);
        // A constant objective rejects every reflection and contraction,
        // so each iteration is reflect, contract, then a 3-point shrink.
        let (shapes, r) = shapes_of(|_| 1.0, &[0.5, 0.5, 0.5], &b);
        assert!(r.converged);
        assert_eq!(shapes[0], 4, "initial simplex in one call");
        assert_eq!(shapes[1..].len(), 3 * r.iterations.saturating_sub(1));
        for it in shapes[1..].chunks(3) {
            assert_eq!(it, [1, 1, 3]);
        }
        assert_eq!(shapes.iter().sum::<usize>(), r.evaluations);
        // A smooth objective mixes the shapes: the simplex first, then only
        // single points and whole shrinks.
        let (shapes, r) = shapes_of(|x| x.iter().map(|v| v * v).sum(), &[0.9, 0.2, 0.7], &b);
        assert_eq!(shapes[0], 4);
        assert!(shapes[1..].iter().all(|&m| m == 1 || m == 3), "{shapes:?}");
        assert_eq!(shapes.iter().sum::<usize>(), r.evaluations);

        // A lockstep group pools one pending point per live search, and
        // the points scored add up to the summed evaluations.
        let n = 9;
        let b = Bounds::unit(n);
        let starts: Vec<Vec<f64>> = (0..5)
            .map(|k| {
                (0..n)
                    .map(|t| ((k * 7 + t * 3) % 10) as f64 / 10.0)
                    .collect()
            })
            .collect();
        let nm = NelderMead::new().with_max_iters(80);
        let lone: Vec<Vec<usize>> = starts
            .iter()
            .map(|x0| recorded(terraced, |g| nm.minimize_batched(g, x0, &b)).0)
            .collect();
        let (shapes, rs) = recorded(terraced, |g| nm.minimize_lockstep(g, &starts, &b));
        assert_lockstep_shapes(&shapes, &lone, n, starts.len());
        let total: usize = rs.iter().map(|r| r.evaluations).sum();
        assert_eq!(shapes.iter().sum::<usize>(), total);
    }

    #[test]
    fn tolerates_non_finite_values() {
        // -inf region for x < 0.1 must be avoided.
        let f = |x: &[f64]| {
            if x[0] < 0.1 {
                f64::NAN
            } else {
                (x[0] - 0.5).powi(2)
            }
        };
        let b = Bounds::unit(1);
        let r = NelderMead::new().minimize(&f, &[0.9], &b);
        assert!((r.x[0] - 0.5).abs() < 1e-5);
    }
}
