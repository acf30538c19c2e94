//! Multiple-starting-point (MSP) global search — paper §4.1.
//!
//! The acquisition functions of GP-based BO are extremely multi-modal, and
//! — as the paper's Figure 2 illustrates — nearly flat around incumbents, so
//! single-start local optimization routinely misses the useful optimum. The
//! MSP strategy scatters many starting points, runs a cheap local search
//! from each, and keeps the overall best.
//!
//! The paper's refinement is the *biased start distribution*: 10 % of starts
//! are Gaussian perturbations of the low-fidelity incumbent `τ_l`, 40 % of
//! the high-fidelity incumbent `τ_h`, and the rest uniform. [`MultiStart`]
//! exposes exactly this via [`MultiStart::with_anchor`].
//!
//! # Lockstep groups
//!
//! The local searches run in lockstep groups of [`LOCKSTEP_GROUP`]
//! consecutive starts (see [`crate::neldermead`]). Within a group,
//! each search scores its initial simplex (`n + 1` points) and each shrink
//! (`n` points) in one call of its own, and every round pools the single
//! pending point of each live search into one call of at most
//! [`LOCKSTEP_GROUP`] points. Pooling amortizes the per-call setup of a
//! batched objective (the acquisition's shared difference rows) over the
//! group; capping the group keeps the pooled batches, and so peak memory,
//! small. On a pool ([`Parallelism::Threads`] or [`Parallelism::Auto`])
//! the groups shrink to `⌈starts / workers⌉` when that is below
//! [`LOCKSTEP_GROUP`], so every worker gets a group, and the pool
//! distributes whole groups. Every search is bit-identical to a lone
//! search from its start, so the grouping and the parallelism never show
//! in the result.

use crate::neldermead::{pointwise, NelderMead};
use crate::{sampling, Bounds, OptResult};
use mfbo_pool::{par_map, Parallelism};
use rand::Rng;

/// Starts per lockstep group (see the module docs). A fixed constant, not
/// a setting: it trades the per-call setup the pooled calls amortize
/// against the memory of larger batches, and no result depends on it.
pub const LOCKSTEP_GROUP: usize = 8;

/// Starts per lockstep group for `starts` starts on `parallelism`'s pool:
/// [`LOCKSTEP_GROUP`], or fewer when that would leave workers idle, so
/// every worker gets a group. Inside a pool worker the map runs inline
/// (see [`mfbo_pool::in_worker`]), so the groups stay whole there.
fn group_len(starts: usize, parallelism: Parallelism) -> usize {
    let workers = if mfbo_pool::in_worker() {
        1
    } else {
        parallelism.workers()
    };
    starts.div_ceil(workers).clamp(1, LOCKSTEP_GROUP)
}

/// An anchor point around which a fraction of the starting points is
/// concentrated.
#[derive(Debug, Clone)]
struct Anchor {
    center: Vec<f64>,
    fraction: f64,
    spread: f64,
}

/// Multiple-starting-point minimizer.
///
/// # Examples
///
/// ```
/// use mfbo_opt::{Bounds, msp::MultiStart};
/// use rand::SeedableRng;
///
/// // A bimodal function whose better valley is easy to miss from a single
/// // start.
/// let f = |x: &[f64]| {
///     let a = (x[0] - 0.8).powi(2) - 0.05;
///     let b = (x[0] + 0.7).powi(2);
///     a.min(b)
/// };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let r = MultiStart::new(16).minimize(&f, &Bounds::symmetric(1, 1.0), &mut rng);
/// assert!((r.x[0] - 0.8).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct MultiStart {
    starts: usize,
    anchors: Vec<Anchor>,
    local: NelderMead,
    parallelism: Parallelism,
    taboo: Vec<Vec<f64>>,
    taboo_radius: f64,
}

impl MultiStart {
    /// Creates a driver with `starts` starting points and a default
    /// Nelder–Mead local search.
    pub fn new(starts: usize) -> Self {
        MultiStart {
            starts: starts.max(1),
            anchors: Vec::new(),
            local: NelderMead::new().with_max_iters(120),
            parallelism: Parallelism::Serial,
            taboo: Vec::new(),
            taboo_radius: 0.0,
        }
    }

    /// Distributes the lockstep groups of local searches over a thread
    /// pool.
    ///
    /// All randomness (the starting points) is drawn from the caller's RNG
    /// *before* the searches run, and the best result is reduced in start
    /// order, so every [`Parallelism`] mode returns bit-identical results.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Concentrates `fraction` of the starting points in a Gaussian cloud of
    /// relative width `spread` around `center` (paper §4.1: 0.10 around
    /// `τ_l`, 0.40 around `τ_h`).
    ///
    /// Fractions of all anchors are clamped so that at least one uniform
    /// start always remains.
    pub fn with_anchor(mut self, center: Vec<f64>, fraction: f64, spread: f64) -> Self {
        self.anchors.push(Anchor {
            center,
            fraction: fraction.clamp(0.0, 1.0),
            spread,
        });
        self
    }

    /// Excludes local optima within an L∞ `radius` of any of `points` from
    /// the returned best (used by batched BO to keep a q-batch from
    /// collapsing onto an in-flight candidate). Starting points and local
    /// searches are unaffected — only the final selection skips excluded
    /// optima. If *every* start lands in a taboo zone, the overall best is
    /// returned anyway (a duplicate beats no candidate at all), so the
    /// result is always well-defined. With no taboo points this is
    /// bit-identical to the unrestricted selection.
    pub fn with_taboo(mut self, points: Vec<Vec<f64>>, radius: f64) -> Self {
        self.taboo = points;
        self.taboo_radius = radius;
        self
    }

    /// Replaces the local-search configuration.
    pub fn with_local_search(mut self, nm: NelderMead) -> Self {
        self.local = nm;
        self
    }

    /// `true` when `x` sits within the L∞ exclusion radius of any taboo
    /// point (see [`MultiStart::with_taboo`]).
    fn is_taboo(&self, x: &[f64]) -> bool {
        self.taboo.iter().any(|t| {
            t.len() == x.len()
                && x.iter()
                    .zip(t)
                    .all(|(a, b)| (a - b).abs() <= self.taboo_radius)
        })
    }

    /// Generates the starting points (biased anchors first, then a
    /// Latin-hypercube remainder).
    fn starting_points<R: Rng + ?Sized>(&self, bounds: &Bounds, rng: &mut R) -> Vec<Vec<f64>> {
        let mut pts: Vec<Vec<f64>> = Vec::with_capacity(self.starts);
        for anchor in &self.anchors {
            let n = ((self.starts as f64 * anchor.fraction).round() as usize)
                .min(self.starts.saturating_sub(pts.len() + 1));
            pts.extend(sampling::around(
                bounds,
                &anchor.center,
                anchor.spread,
                n,
                rng,
            ));
        }
        let remaining = self.starts - pts.len();
        if remaining > 0 {
            pts.extend(sampling::latin_hypercube(bounds, remaining, rng));
        }
        pts
    }

    /// Minimizes `f` over `bounds`, running the local search from every
    /// starting point and returning the overall best result.
    pub fn minimize<F, R>(&self, f: &F, bounds: &Bounds, rng: &mut R) -> OptResult
    where
        F: Fn(&[f64]) -> f64 + Sync + ?Sized,
        R: Rng + ?Sized,
    {
        self.minimize_with_stats(f, bounds, rng).0
    }

    /// [`MultiStart::minimize`], additionally returning landscape statistics
    /// over the per-start local optima.
    pub fn minimize_with_stats<F, R>(
        &self,
        f: &F,
        bounds: &Bounds,
        rng: &mut R,
    ) -> (OptResult, LandscapeStats)
    where
        F: Fn(&[f64]) -> f64 + Sync + ?Sized,
        R: Rng + ?Sized,
    {
        self.minimize_batched_with_stats(&pointwise(f), bounds, rng)
    }

    /// The local optimum of every start, in start order: the starts run in
    /// lockstep groups of at most [`LOCKSTEP_GROUP`] (see `group_len`), the
    /// groups on [`MultiStart::with_parallelism`]'s pool.
    fn local_optima<F>(&self, f: &F, starts: &[Vec<f64>], bounds: &Bounds) -> Vec<OptResult>
    where
        F: Fn(&[Vec<f64>], &mut [f64]) + Sync + ?Sized,
    {
        let groups: Vec<&[Vec<f64>]> = starts
            .chunks(group_len(starts.len(), self.parallelism))
            .collect();
        par_map(self.parallelism, &groups, |g| {
            self.local.minimize_lockstep(f, g, bounds)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// [`MultiStart::minimize_with_stats`] with a batched objective, called
    /// with the call shapes of the module docs (see
    /// [`NelderMead::minimize_batched`] for the contract).
    pub fn minimize_batched_with_stats<F, R>(
        &self,
        f: &F,
        bounds: &Bounds,
        rng: &mut R,
    ) -> (OptResult, LandscapeStats)
    where
        F: Fn(&[Vec<f64>], &mut [f64]) + Sync + ?Sized,
        R: Rng + ?Sized,
    {
        let starts = self.starting_points(bounds, rng);
        let mut results = self.local_optima(f, &starts, bounds);
        // Selection: strictly-better wins, first occurrence kept — taboo'd
        // optima are skipped unless every start is taboo'd (the fallback
        // keeps the result well-defined; see `with_taboo`). With no taboo
        // points `allowed` always equals `overall` and this reduces to the
        // historical single-pass selection bit for bit.
        let mut overall: Option<(usize, f64)> = None;
        let mut allowed: Option<(usize, f64)> = None;
        let mut total_evals = 0usize;
        let mut total_iters = 0usize;
        let mut worst_value = f64::NEG_INFINITY;
        let mut zero_starts = 0usize;
        for (k, r) in results.iter().enumerate() {
            total_evals += r.evaluations;
            total_iters += r.iterations;
            if r.value == 0.0 {
                zero_starts += 1;
            }
            if r.value.is_finite() && r.value > worst_value {
                worst_value = r.value;
            }
            if overall.is_none_or(|(_, v)| r.value < v) {
                overall = Some((k, r.value));
            }
            if !self.is_taboo(&r.x) && allowed.is_none_or(|(_, v)| r.value < v) {
                allowed = Some((k, r.value));
            }
        }
        let (best_start, _) = allowed.or(overall).expect("at least one start");
        let mut out = results.swap_remove(best_start);
        out.evaluations = total_evals;
        out.iterations = total_iters;
        let stats = LandscapeStats {
            starts: starts.len(),
            best_start,
            best_value: out.value,
            worst_value,
            spread: if worst_value.is_finite() && out.value.is_finite() {
                worst_value - out.value
            } else {
                f64::NAN
            },
            frac_zero: zero_starts as f64 / starts.len() as f64,
        };
        // Anchored starts come first in `starting_points`, so a small
        // best_start index means a biased start won — the signal that the
        // paper's §4.1 start distribution is earning its keep. The landscape
        // fields diagnose acquisition health: a tiny spread means every
        // restart found the same optimum (a flat or unimodal landscape); a
        // large frac_zero on a wEI surface means most of the space offers no
        // expected improvement.
        mfbo_telemetry::debug_event!(
            "msp",
            starts = starts.len(),
            anchors = self.anchors.len(),
            best_start = best_start,
            evaluations = total_evals,
            iterations = total_iters,
            best_value = out.value,
            worst_value = stats.worst_value,
            spread = stats.spread,
            frac_zero = stats.frac_zero,
        );
        (out, stats)
    }

    /// Maximizes `f` over `bounds` (convenience wrapper that negates the
    /// objective; the returned [`OptResult::value`] is the *maximum*).
    pub fn maximize<F, R>(&self, f: &F, bounds: &Bounds, rng: &mut R) -> OptResult
    where
        F: Fn(&[f64]) -> f64 + Sync + ?Sized,
        R: Rng + ?Sized,
    {
        self.maximize_with_stats(f, bounds, rng).0
    }

    /// [`MultiStart::maximize`], additionally returning landscape statistics
    /// with the sign flipped back into the caller's (maximization) frame.
    pub fn maximize_with_stats<F, R>(
        &self,
        f: &F,
        bounds: &Bounds,
        rng: &mut R,
    ) -> (OptResult, LandscapeStats)
    where
        F: Fn(&[f64]) -> f64 + Sync + ?Sized,
        R: Rng + ?Sized,
    {
        let neg = |x: &[f64]| -f(x);
        let (mut r, mut stats) = self.minimize_with_stats(&neg, bounds, rng);
        r.value = -r.value;
        // In the maximization frame the internal best (most negative) is the
        // maximum and the internal worst is the minimum; spread and
        // frac_zero are sign-invariant.
        let max = -stats.best_value;
        let min = -stats.worst_value;
        stats.best_value = max;
        stats.worst_value = min;
        (r, stats)
    }
}

/// Statistics over the local optima found by one multi-start solve — the
/// acquisition-landscape health signal (wEI max, spread, fraction-zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LandscapeStats {
    /// Number of local searches launched.
    pub starts: usize,
    /// Index of the start that produced the returned optimum.
    pub best_start: usize,
    /// Objective value at the returned optimum, in the caller's frame
    /// (minimum for `minimize`, maximum for `maximize`).
    pub best_value: f64,
    /// The least favorable finite local optimum across starts (maximum for
    /// `minimize`, minimum for `maximize`; NaN if no start finished finite).
    pub worst_value: f64,
    /// `|worst_value - best_value|` — how multimodal the landscape looked.
    pub spread: f64,
    /// Fraction of starts whose local optimum was exactly zero. On a wEI
    /// surface this is the share of restarts stranded where the acquisition
    /// offers no improvement signal.
    pub frac_zero: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Rastrigin-like multimodal test function.
    fn rastrigin(x: &[f64]) -> f64 {
        10.0 * x.len() as f64
            + x.iter()
                .map(|v| v * v - 10.0 * (2.0 * std::f64::consts::PI * v).cos())
                .sum::<f64>()
    }

    #[test]
    fn finds_global_optimum_of_multimodal() {
        let mut rng = StdRng::seed_from_u64(123);
        let b = Bounds::symmetric(2, 3.0);
        let r = MultiStart::new(40).minimize(&rastrigin, &b, &mut rng);
        assert!(r.value < 1.0, "value = {}", r.value);
        // Evaluation accounting aggregates across all starts.
        assert!(r.evaluations > 40);
    }

    #[test]
    fn anchors_bias_the_start_cloud() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = Bounds::unit(2);
        let ms = MultiStart::new(20)
            .with_anchor(vec![0.9, 0.9], 0.4, 0.01)
            .with_anchor(vec![0.1, 0.1], 0.1, 0.01);
        let pts = ms.starting_points(&b, &mut rng);
        assert_eq!(pts.len(), 20);
        let near_high = pts
            .iter()
            .filter(|p| (p[0] - 0.9).abs() < 0.1 && (p[1] - 0.9).abs() < 0.1)
            .count();
        let near_low = pts
            .iter()
            .filter(|p| (p[0] - 0.1).abs() < 0.1 && (p[1] - 0.1).abs() < 0.1)
            .count();
        assert!(near_high >= 7, "near_high = {near_high}");
        assert!(near_low >= 1, "near_low = {near_low}");
    }

    #[test]
    fn anchor_fractions_never_eliminate_uniform_starts() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = Bounds::unit(1);
        let ms = MultiStart::new(4)
            .with_anchor(vec![0.5], 1.0, 0.01)
            .with_anchor(vec![0.5], 1.0, 0.01);
        let pts = ms.starting_points(&b, &mut rng);
        assert_eq!(pts.len(), 4);
    }

    #[test]
    fn maximize_negates_correctly() {
        let mut rng = StdRng::seed_from_u64(6);
        let b = Bounds::symmetric(1, 2.0);
        let f = |x: &[f64]| -(x[0] - 1.0).powi(2) + 3.0;
        let r = MultiStart::new(10).maximize(&f, &b, &mut rng);
        assert!((r.value - 3.0).abs() < 1e-6);
        assert!((r.x[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn single_start_still_optimizes() {
        let mut rng = StdRng::seed_from_u64(9);
        let b = Bounds::unit(1);
        let f = |x: &[f64]| (x[0] - 0.5).powi(2);
        let r = MultiStart::new(1).minimize(&f, &b, &mut rng);
        assert!((r.x[0] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn minimize_emits_msp_debug_event() {
        let sink = std::sync::Arc::new(mfbo_telemetry::sinks::CollectSink::with_level(
            mfbo_telemetry::Level::Debug,
        ));
        let _g = mfbo_telemetry::scoped_sink(sink.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let b = Bounds::unit(1);
        let f = |x: &[f64]| (x[0] - 0.5).powi(2);
        let r = MultiStart::new(4).minimize(&f, &b, &mut rng);
        let recs = sink.named("msp");
        assert_eq!(recs.len(), 1);
        assert_eq!(
            recs[0].field("starts"),
            Some(&mfbo_telemetry::Value::U64(4))
        );
        assert_eq!(
            recs[0].field("evaluations"),
            Some(&mfbo_telemetry::Value::U64(r.evaluations as u64))
        );
    }

    #[test]
    fn parallel_modes_match_serial_bit_for_bit() {
        let b = Bounds::symmetric(2, 3.0);
        // A batched objective scored independently of the pointwise path.
        let batched = |xs: &[Vec<f64>], out: &mut [f64]| {
            for (x, o) in xs.iter().zip(out) {
                *o = rastrigin(x);
            }
        };
        let run = |par: Parallelism, seed: u64, batch: bool| {
            let mut rng = StdRng::seed_from_u64(seed);
            let ms = MultiStart::new(24)
                .with_anchor(vec![0.5, 0.5], 0.3, 0.05)
                .with_parallelism(par);
            if batch {
                ms.minimize_batched_with_stats(&batched, &b, &mut rng).0
            } else {
                ms.minimize(&rastrigin, &b, &mut rng)
            }
        };
        for seed in [0u64, 9, 123] {
            let serial = run(Parallelism::Serial, seed, false);
            for par in [
                Parallelism::Serial,
                Parallelism::Threads(2),
                Parallelism::Threads(8),
            ] {
                for batch in [false, true] {
                    let other = run(par, seed, batch);
                    assert_eq!(serial.x, other.x);
                    assert_eq!(serial.value.to_bits(), other.value.to_bits());
                    assert_eq!(serial.evaluations, other.evaluations);
                    assert_eq!(serial.iterations, other.iterations);
                }
            }
        }
    }

    /// Lockstep groups against lone searches: at 1, 5 and 36 dimensions,
    /// with fewer, as many and more starts than [`LOCKSTEP_GROUP`], with
    /// anchors and a taboo set, in every [`Parallelism`] mode, each start's
    /// local optimum equals a lone search from that start bit for bit, and
    /// so does the selected best.
    #[test]
    fn bit_identity_lockstep_matches_lone_searches() {
        let batched = |xs: &[Vec<f64>], out: &mut [f64]| {
            for (x, o) in xs.iter().zip(out) {
                *o = rastrigin(x);
            }
        };
        for d in [1usize, 5, 36] {
            let b = Bounds::symmetric(d, 3.0);
            for starts in [1usize, LOCKSTEP_GROUP, 24] {
                let base = MultiStart::new(starts)
                    .with_anchor(vec![0.5; d], 0.3, 0.05)
                    .with_local_search(NelderMead::new().with_max_iters(60));
                let pts = base.starting_points(&b, &mut StdRng::seed_from_u64(d as u64));
                let lone: Vec<OptResult> = pts
                    .iter()
                    .map(|x0| base.local.minimize_batched(&batched, x0, &b))
                    .collect();
                // Taboo the lone best so the selection has to skip it.
                let (best, _) =
                    lone.iter()
                        .enumerate()
                        .fold((0, f64::INFINITY), |(bk, bv), (k, r)| {
                            if r.value < bv {
                                (k, r.value)
                            } else {
                                (bk, bv)
                            }
                        });
                let ms = base.with_taboo(vec![lone[best].x.clone()], 1e-9);
                let expected = lone
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !ms.is_taboo(&r.x))
                    .fold(None, |acc: Option<(usize, f64)>, (k, r)| match acc {
                        Some((_, v)) if r.value >= v => acc,
                        _ => Some((k, r.value)),
                    })
                    .map_or(best, |(k, _)| k);
                for par in [
                    Parallelism::Serial,
                    Parallelism::Threads(2),
                    Parallelism::Threads(8),
                ] {
                    let ms = ms.clone().with_parallelism(par);
                    let case = format!("d = {d}, {starts} starts, {par:?}");
                    for (a, l) in ms.local_optima(&batched, &pts, &b).iter().zip(&lone) {
                        assert_eq!(a.x, l.x, "{case}");
                        assert_eq!(a.value.to_bits(), l.value.to_bits(), "{case}");
                        assert_eq!(a.evaluations, l.evaluations, "{case}");
                        assert_eq!(a.iterations, l.iterations, "{case}");
                        assert_eq!(a.converged, l.converged, "{case}");
                    }
                    let mut rng = StdRng::seed_from_u64(d as u64);
                    let (r, stats) = ms.minimize_batched_with_stats(&batched, &b, &mut rng);
                    assert_eq!(stats.best_start, expected, "{case}");
                    assert_eq!(r.x, lone[expected].x, "{case}");
                    assert_eq!(r.value.to_bits(), lone[expected].value.to_bits());
                    let evals: usize = lone.iter().map(|l| l.evaluations).sum();
                    assert_eq!(r.evaluations, evals, "{case}");
                }
            }
        }
    }

    /// The call shapes of a multi-start solve: lockstep groups of at most
    /// [`LOCKSTEP_GROUP`] starts, each pooled call one point per live
    /// search of its group (see `assert_lockstep_shapes`).
    #[test]
    fn lockstep_groups_batched_call_shapes() {
        use crate::neldermead::tests::{assert_lockstep_shapes, recorded, terraced};
        let n = 9;
        let b = Bounds::unit(n);
        let ms = MultiStart::new(20).with_local_search(NelderMead::new().with_max_iters(60));
        let pts = ms.starting_points(&b, &mut StdRng::seed_from_u64(4));
        let lone: Vec<Vec<usize>> = pts
            .iter()
            .map(|x0| recorded(terraced, |g| ms.local.minimize_batched(g, x0, &b)).0)
            .collect();
        let (shapes, r) = recorded(terraced, |g| {
            ms.minimize_batched_with_stats(g, &b, &mut StdRng::seed_from_u64(4))
                .0
        });
        assert_lockstep_shapes(&shapes, &lone, n, LOCKSTEP_GROUP);
        assert_eq!(shapes.iter().sum::<usize>(), r.evaluations);
    }

    /// On a pool the groups shrink so every worker gets one: eight starts
    /// on two workers run as two groups of four, not one serial group of
    /// eight.
    #[test]
    fn lockstep_groups_spread_over_the_pool() {
        use crate::neldermead::tests::{recorded, terraced};
        assert_eq!(group_len(24, Parallelism::Serial), LOCKSTEP_GROUP);
        assert_eq!(group_len(24, Parallelism::Threads(2)), LOCKSTEP_GROUP);
        assert_eq!(group_len(24, Parallelism::Threads(4)), 6);
        assert_eq!(group_len(8, Parallelism::Threads(2)), 4);
        assert_eq!(group_len(1, Parallelism::Threads(8)), 1);
        let inner = mfbo_pool::par_map_indexed(Parallelism::Threads(2), 2, |_| {
            group_len(24, Parallelism::Threads(4))
        });
        assert_eq!(inner, [LOCKSTEP_GROUP; 2], "a worker's map runs inline");

        let n = 9;
        let b = Bounds::unit(n);
        for (starts, workers) in [(8usize, 2usize), (20, 4)] {
            let ms = MultiStart::new(starts)
                .with_local_search(NelderMead::new().with_max_iters(60))
                .with_parallelism(Parallelism::Threads(workers));
            let (shapes, r) = recorded(terraced, |g| {
                ms.minimize_batched_with_stats(g, &b, &mut StdRng::seed_from_u64(4))
                    .0
            });
            let group = starts.div_ceil(workers);
            let pooled = shapes.iter().filter(|&&m| m < n);
            assert!(pooled.clone().all(|&m| m <= group), "{shapes:?}");
            assert!(pooled.clone().any(|&m| m == group), "{shapes:?}");
            assert_eq!(shapes.iter().filter(|&&m| m == n + 1).count(), starts);
            assert_eq!(shapes.iter().sum::<usize>(), r.evaluations);
        }
    }

    #[test]
    fn taboo_excludes_optima_near_inflight_points() {
        // Bimodal: the better valley at 0.8 (value -0.05) is taboo'd, so the
        // selection must fall back to the valley at -0.7 (value 0.0).
        let f = |x: &[f64]| {
            let a = (x[0] - 0.8).powi(2) - 0.05;
            let b = (x[0] + 0.7).powi(2);
            a.min(b)
        };
        let b = Bounds::symmetric(1, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let r = MultiStart::new(16)
            .with_taboo(vec![vec![0.8]], 0.05)
            .minimize(&f, &b, &mut rng);
        assert!((r.x[0] + 0.7).abs() < 1e-2, "x = {:?}", r.x);
    }

    #[test]
    fn taboo_falls_back_to_overall_best_when_everything_is_excluded() {
        let f = |x: &[f64]| (x[0] - 0.5).powi(2);
        let b = Bounds::unit(1);
        let mut rng = StdRng::seed_from_u64(3);
        // Radius covers the whole box: every optimum is excluded, so the
        // unrestricted best must come back rather than nothing.
        let r = MultiStart::new(8)
            .with_taboo(vec![vec![0.5]], 10.0)
            .minimize(&f, &b, &mut rng);
        assert!((r.x[0] - 0.5).abs() < 1e-3, "x = {:?}", r.x);
    }

    #[test]
    fn empty_taboo_is_bitwise_neutral() {
        let b = Bounds::symmetric(2, 3.0);
        let run = |taboo: bool| {
            let mut rng = StdRng::seed_from_u64(42);
            let mut ms = MultiStart::new(12).with_anchor(vec![0.5, 0.5], 0.3, 0.05);
            if taboo {
                ms = ms.with_taboo(Vec::new(), 1e-6);
            }
            ms.minimize(&rastrigin, &b, &mut rng)
        };
        let plain = run(false);
        let with_empty = run(true);
        assert_eq!(plain.x, with_empty.x);
        assert_eq!(plain.value.to_bits(), with_empty.value.to_bits());
        assert_eq!(plain.evaluations, with_empty.evaluations);
    }

    #[test]
    fn anchor_helps_sharp_local_basin() {
        // A needle at 0.42 of width ~1e-3 that uniform starts with a coarse
        // local search are unlikely to locate reliably; an anchor at the
        // needle makes it deterministic.
        let needle = |x: &[f64]| {
            let d = (x[0] - 0.42).abs();
            if d < 1e-3 {
                -10.0 + d
            } else {
                (x[0] - 0.42).powi(2)
            }
        };
        let mut rng = StdRng::seed_from_u64(7);
        let b = Bounds::unit(1);
        let r = MultiStart::new(8)
            .with_anchor(vec![0.42], 0.5, 1e-4)
            .minimize(&needle, &b, &mut rng);
        assert!(r.value < -9.0, "value = {}", r.value);
    }
}
