//! The metric catalog and the reduction of repetitions to metric values.

use crate::probe::{CALIBRATION_REF_S, COUNTERS};
use crate::stats::{geometric_mean, median, quartiles};
use crate::workloads::Rep;
use mfbo_telemetry::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. All are lower-is-better and are
/// measured on untraced repetitions. `best_objective` and `cost_to_best`
/// (the paper's "# Sim" to reach the best design, in high-fidelity
/// simulations) are deterministic per seed: they guard the optimizer's
/// results against a change that trades quality for speed.
pub const END_TO_END: [(&str, &str); 5] = [
    ("run_wall_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("best_objective", "objective"),
    ("cost_to_best", "sims"),
];

/// Per-layer metrics, measured on traced repetitions: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("circuits.sim_low.calls", "count"),
    ("circuits.sim_low.busy_s", "s"),
    ("circuits.sim_high.calls", "count"),
    ("circuits.sim_high.busy_s", "s"),
    ("circuits.sim_high.mean_ms", "ms"),
    ("circuits.share", "ratio"),
    ("circuits.nonconverged", "count"),
    ("circuits.nonconverged_ratio", "ratio"),
    ("core.propose.calls", "count"),
    ("core.propose.busy_s", "s"),
    ("core.propose.share", "ratio"),
    ("core.propose.p50_ms", "ms"),
    ("core.propose.p90_ms", "ms"),
    ("core.unattributed.share", "ratio"),
    ("gp.fit.calls", "count"),
    ("gp.fit.busy_s", "s"),
    ("gp.fit.share", "ratio"),
    ("gp.nlml_evals", "count"),
    ("gp.kernel_matrix_builds", "count"),
    ("gp.diffbatch_builds", "count"),
    ("gp.diffbatch_appends", "count"),
    ("gp.diffbatch_shared_hits", "count"),
    ("gp.predict_batch_points", "count"),
    ("opt.acq.calls", "count"),
    ("opt.acq.busy_s", "s"),
    ("opt.acq.share", "ratio"),
    ("opt.acq.points_per_ms", "1/ms"),
    ("pool.jobs_submitted", "count"),
    ("runstore.journal_entries", "count"),
    ("runstore.journal_bytes", "bytes"),
    ("runstore.journal_flushes", "count"),
    ("runstore.group_commits", "count"),
    ("server.requests", "count"),
    ("server.status_p50_ms", "ms"),
    ("server.status_p90_ms", "ms"),
    ("server.overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The layers whose shares partition a run's wall time. `core.unattributed`
/// is what the simulator, the fit and the acquisition leave unexplained.
/// `core.propose`, the optimizer's think time between simulations, is not
/// among them: fit and acquisition run inside it.
pub const LAYERS: [&str; 4] = ["circuits", "gp.fit", "opt.acq", "core.unattributed"];

/// One pass over a workload's seed panel: its untraced repetitions, and
/// the set-up times of the set-up-only repetitions run before each.
#[derive(Debug, Default)]
pub struct Pass {
    pub reps: Vec<Rep>,
    pub setups_s: Vec<f64>,
}

/// One end-to-end metric: the value over every repetition, and one sample
/// per pass over the seed panel with their quartiles (what `compare` works
/// on).
#[derive(Debug, Clone)]
pub struct E2e {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Repetitions behind `value`.
    pub n: usize,
    pub samples: Vec<f64>,
}

/// A repetition's run time rescaled to the reference host speed: its wall
/// time, calibration slices left out, times [`CALIBRATION_REF_S`] over the
/// time per unit of the slices taken during the run.
pub fn run_wall_ref_s(rep: &Rep) -> f64 {
    let unit_s = rep.get("calib.slice_s") / rep.get("calib.units");
    rep.get("run_wall_s") * CALIBRATION_REF_S / unit_s
}

/// One end-to-end metric over a set of passes. `setup_s` is the median
/// set-up time, rescaled to the reference host speed by the calibration
/// slices of every untraced repetition in the passes. For the rest, each
/// panel member's median over its repetitions, then the panel's geometric
/// mean for `run_wall_ref_s` (so the noise of every member counts alike,
/// however cheap or dear its trajectory) and its median for the others.
fn e2e_value(name: &str, passes: &[&Pass]) -> f64 {
    if name == "setup_s" {
        let all: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.setups_s.iter().copied())
            .collect();
        let total = |key: &str| {
            passes
                .iter()
                .flat_map(|p| &p.reps)
                .map(|r| r.get(key))
                .sum::<f64>()
        };
        let unit_s = total("calib.slice_s") / total("calib.units");
        return median(&all) * CALIBRATION_REF_S / unit_s;
    }
    let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for r in passes.iter().flat_map(|p| &p.reps) {
        let v = match name {
            "run_wall_ref_s" => run_wall_ref_s(r),
            _ => r.get(name),
        };
        by_seed.entry(r.seed).or_default().push(v);
    }
    let per_seed: Vec<f64> = by_seed.values().map(|v| median(v)).collect();
    match name {
        "run_wall_ref_s" => geometric_mean(&per_seed),
        _ => median(&per_seed),
    }
}

/// End-to-end metrics over a workload's passes, in [`END_TO_END`] order.
/// The value pools every pass; the samples, one per whole pass, are what
/// `compare` works on.
pub fn end_to_end(passes: &[Pass], panel: usize) -> Vec<E2e> {
    let all: Vec<&Pass> = passes.iter().collect();
    END_TO_END
        .iter()
        .map(|&(name, _)| {
            let samples: Vec<f64> = passes
                .iter()
                .filter(|p| p.reps.len() == panel)
                .map(|p| e2e_value(name, &[p]))
                .collect();
            let (q1, q3) = quartiles(&samples);
            let n = match name {
                "setup_s" => passes.iter().map(|p| p.setups_s.len()).sum(),
                _ => passes.iter().map(|p| p.reps.len()).sum(),
            };
            E2e {
                value: e2e_value(name, &all),
                q1,
                q3,
                n,
                samples,
            }
        })
        .collect()
}

/// Per-layer metrics in [`PER_LAYER`] order: the program's work counters
/// averaged over the traced repetitions `counted`, everything else over
/// `timed`, with `pairs` the `(traced, untraced)` wall times of same-seed
/// rep pairs. Undefined ratios read 0.
pub fn per_layer(timed: &[&Rep], counted: &[&Rep], pairs: &[(f64, f64)]) -> Vec<f64> {
    let sum = |key: &str| timed.iter().map(|r| r.get(key)).sum::<f64>();
    let n = timed.len().max(1) as f64;
    let counter = |key: &str| {
        let total = counted.iter().map(|r| r.get(key)).sum::<f64>();
        total / counted.len().max(1) as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let wall = sum("layers.wall_s");
    let share = |layer: &str| ratio(sum(&format!("{layer}.busy_s")), wall);
    let pooled =
        |f: fn(&Rep) -> &[f64]| -> Vec<f64> { timed.iter().flat_map(|r| f(r)).copied().collect() };
    let status = pooled(|r| &r.status_ms);
    let propose = pooled(|r| &r.propose_ms);
    let or0 = |v: f64| if v.is_finite() { v } else { 0.0 };
    let percentile = |v: &[f64], p: f64| {
        if v.is_empty() {
            0.0
        } else {
            mfbo_bench::percentile(v.to_vec(), p)
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "circuits.sim_high.mean_ms" => ratio(
                sum("circuits.sim_high.busy_s") * 1e3,
                sum("circuits.sim_high.calls"),
            ),
            "circuits.nonconverged_ratio" => {
                ratio(sum("circuits.nonconverged"), sum("circuits.calls"))
            }
            "opt.acq.points_per_ms" => ratio(
                counter("gp.predict_batch_points"),
                sum("opt.acq.busy_s") / n * 1e3,
            ),
            "core.propose.p50_ms" => percentile(&propose, 0.5),
            "core.propose.p90_ms" => percentile(&propose, 0.9),
            "server.status_p50_ms" => percentile(&status, 0.5),
            "server.status_p90_ms" => percentile(&status, 0.9),
            "server.overhead_ratio" => or0(median(
                &counted
                    .iter()
                    .filter(|r| r.sums.contains_key(name))
                    .map(|r| r.get(name))
                    .collect::<Vec<_>>(),
            )),
            "trace.overhead_ratio" => or0(median(
                &pairs.iter().map(|&(t, u)| ratio(t, u)).collect::<Vec<_>>(),
            )),
            share_name if share_name.ends_with(".share") => {
                share(share_name.trim_end_matches(".share"))
            }
            key if COUNTERS.iter().any(|c| c.1 == key) => counter(key),
            key => sum(key) / n,
        })
        .collect()
}

/// `{"name": {"value": v, "unit": u}, ...}` — the metric map of the
/// result line.
pub fn metric_map<'a>(
    names: impl IntoIterator<Item = (&'a str, &'a str)>,
    values: impl IntoIterator<Item = f64>,
) -> Json {
    Json::obj(names.into_iter().zip(values).map(|((name, unit), v)| {
        (
            name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(sums: &[(&str, f64)]) -> Rep {
        let mut r = Rep::default();
        for &(k, v) in sums {
            r.sums.insert(k.into(), v);
        }
        r
    }

    #[test]
    fn layer_shares_sum_to_one() {
        // Two runs whose layer busy times partition their wall time; the
        // think time holds fit, acquisition and part of the unattributed.
        let mut a = rep(&[
            ("layers.wall_s", 10.0),
            ("circuits.busy_s", 1.0),
            ("gp.fit.busy_s", 3.0),
            ("opt.acq.busy_s", 5.5),
            ("core.propose.busy_s", 8.8),
            ("core.unattributed.busy_s", 0.5),
        ]);
        let mut b = rep(&[
            ("layers.wall_s", 4.0),
            ("circuits.busy_s", 3.9),
            ("core.unattributed.busy_s", 0.1),
        ]);
        a.propose_ms = vec![1.0, 2.0, 3.0];
        b.propose_ms = vec![10.0, 20.0];
        let mut traced = rep(&[("gp.nlml_evals", 40.0), ("gp.predict_batch_points", 1100.0)]);
        traced.propose_ms = vec![1e3];
        let v = per_layer(&[&a, &b], &[&traced], &[(10.5, 10.0)]);
        let get = |name: &str| v[PER_LAYER.iter().position(|m| m.0 == name).unwrap()];
        let total: f64 = LAYERS.iter().map(|l| get(&format!("{l}.share"))).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((get("circuits.share") - 4.9 / 14.0).abs() < 1e-12);
        assert!((get("opt.acq.share") - 5.5 / 14.0).abs() < 1e-12);
        assert!((get("core.propose.share") - 8.8 / 14.0).abs() < 1e-12);
        assert!((get("trace.overhead_ratio") - 1.05).abs() < 1e-12);
        // Counters come from the traced reps only, times from the others.
        assert_eq!(get("gp.nlml_evals"), 40.0);
        assert!((get("opt.acq.points_per_ms") - 1100.0 / 2750.0).abs() < 1e-12);
        // Percentiles pool the samples of every rep: p50 of five steps.
        assert_eq!(get("core.propose.p50_ms"), 3.0);
        assert_eq!(get("core.propose.p90_ms"), 20.0);
        // Undefined ratios read 0 rather than NaN.
        assert_eq!(get("circuits.sim_high.mean_ms"), 0.0);
    }

    #[test]
    fn end_to_end_balances_the_panel_and_samples_whole_passes() {
        // Ten calibration units at `calib` seconds each.
        let timed = |seed: u64, wall: f64, calib: f64, cost: f64| Rep {
            seed,
            ..rep(&[
                ("run_wall_s", wall),
                ("calib.slice_s", 10.0 * calib),
                ("calib.units", 10.0),
                ("cost_to_best", cost),
            ])
        };
        let r = CALIBRATION_REF_S;
        // On a host twice as slow as the reference, 8 s count as 4 s.
        let a = timed(1, 2.0, r, 7.0);
        let b = timed(2, 8.0, 2.0 * r, 5.0);
        let c = timed(1, 4.0, r, 7.0);
        // The second pass stopped short of seed 2.
        let passes = [
            Pass {
                reps: vec![a, b],
                setups_s: vec![0.001, 0.003, 0.004],
            },
            Pass {
                reps: vec![c],
                setups_s: vec![0.002],
            },
        ];
        let e = end_to_end(&passes, 2);
        let get = |name: &str| &e[END_TO_END.iter().position(|m| m.0 == name).unwrap()];
        let wall = get("run_wall_ref_s");
        // Seed 1's median (2, 4) and seed 2's 4, geometric mean: sqrt(12).
        assert!((wall.value - 12f64.sqrt()).abs() < 1e-12);
        assert_eq!(wall.n, 3);
        // Only the whole pass gives a sample: sqrt(2 * 4).
        assert_eq!(wall.samples.len(), 1);
        assert!((wall.samples[0] - 8f64.sqrt()).abs() < 1e-12);
        // Set-up: the median of every set-up-only repetition's time, over
        // the speed of all the passes' slices: 30 units in 40 r.
        let setup = get("setup_s");
        assert!((setup.value - 0.0025 * 3.0 / 4.0).abs() < 1e-12);
        assert_eq!(setup.n, 4);
        // The whole pass alone: 20 units in 30 r.
        assert_eq!(setup.samples.len(), 1);
        assert!((setup.samples[0] - 0.003 / 1.5).abs() < 1e-12);
        assert_eq!(get("cost_to_best").value, 6.0);
        assert_eq!(get("cost_to_best").samples, vec![6.0]);
    }
}
