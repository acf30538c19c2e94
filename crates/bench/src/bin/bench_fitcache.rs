//! Checks the fit-cache counter contract behind `BENCH_fitcache.json` and
//! prints the counters as JSON.
//!
//! One constrained-bundle surrogate refresh (objective + m constraint GPs
//! over the same X) runs through `SfSurrogates::fit_frozen` twice: along
//! the amortized refit path, where one persistent [`FitCache`] grows by an
//! O(n·d) append per iteration and its batch serves all 1+m models, and
//! with `cache: None`, which builds the shared batch from scratch. The
//! telemetry counters of both are asserted (see [`counter_evidence`]); a
//! violation panics.
//!
//! The legacy-vs-cached timing rows in `BENCH_fitcache.json` are the
//! historical evidence for the fit cache. The pre-fit-cache replica that
//! produced them is gone, so this binary no longer regenerates them.
//!
//! Usage: `cargo run --release -p mfbo-bench --bin bench_fitcache`
//! (`MFBO_BENCH_SCALE=quick` uses a smaller training set for smoke runs.)

use mfbo::{FidelityData, SfBundleThetas, SfSurrogates};
use mfbo_gp::{FitCache, GpConfig};
use mfbo_telemetry::metrics::MetricsRegistry;
use std::hint::black_box;
use std::sync::Arc;

const DIM: usize = 12;

/// Synthetic constrained training set in `[0,1]^DIM` — the `BENCH_infer.json`
/// data shape (dim = 12, middle of the paper's 10–36 design-variable range).
fn bench_data(n: usize, m: usize) -> FidelityData {
    let mut fd = FidelityData::new(m);
    for i in 0..n {
        let x: Vec<f64> = (0..DIM)
            .map(|d| ((i * 31 + d * 17) % 97) as f64 / 96.0)
            .collect();
        let objective = (7.0 * x[0]).sin() + x.iter().sum::<f64>();
        let constraints: Vec<f64> = (0..m)
            .map(|k| (5.0 * x[k % DIM]).cos() + x[(k + 1) % DIM] - 0.8)
            .collect();
        fd.push(
            x,
            &mfbo::problem::Evaluation {
                objective,
                constraints,
            },
        );
    }
    fd
}

/// Per-model frozen hyperparameters — slightly different per output, as a
/// real bundle's independently trained models would be.
fn bundle_thetas(m: usize) -> SfBundleThetas {
    let theta = |k: usize| -> Vec<f64> {
        let mut t = vec![0.1 * k as f64];
        t.extend((0..DIM).map(|d| -0.5 + 0.02 * ((k + d) % 5) as f64));
        t.push(-3.0);
        t
    };
    SfBundleThetas {
        objective: theta(0),
        constraints: (1..=m).map(theta).collect(),
    }
}

/// One shipped bundle refresh: rewind the persistent cache by the last
/// point, then let `fit_frozen` re-append it — so every
/// call pays the real per-iteration O(n·d) append plus the shared-batch
/// bundle rebuild, exactly as the BO loop does.
fn cached_bundle_refresh(data: &FidelityData, thetas: &SfBundleThetas, cache: &mut FitCache) {
    cache.sync(&data.xs[..data.xs.len() - 1]);
    black_box(
        SfSurrogates::fit_frozen(data, &GpConfig::default(), thetas, Some(cache))
            .expect("bundle refresh"),
    );
}

/// Counter evidence: over `iters` refreshes of an (1+m)-model bundle at
/// fixed n, the cached path must do ZERO from-scratch difference builds
/// (appends only) while serving every model from the shared batch, and the
/// `cache: None` path must do exactly ONE build per refresh for the whole
/// bundle. `kernel_matrix_builds` (theta-dependent assemblies) must
/// be 1+m per refresh in both — one per model, proving the models share
/// the single distance build instead of each paying for their own.
fn counter_evidence(n: usize, m: usize, iters: u64) -> Vec<(String, u64)> {
    let data = bench_data(n, m);
    let thetas = bundle_thetas(m);

    let mut cache = FitCache::default();
    cache.sync(&data.xs);
    let reg = Arc::new(MetricsRegistry::new());
    {
        let _g = mfbo_telemetry::scoped_sink(reg.clone());
        for _ in 0..iters {
            cached_bundle_refresh(&data, &thetas, &mut cache);
        }
    }
    let cached = reg.snapshot().counters;

    let reg = Arc::new(MetricsRegistry::new());
    {
        let _g = mfbo_telemetry::scoped_sink(reg.clone());
        for _ in 0..iters {
            black_box(
                SfSurrogates::fit_frozen(&data, &GpConfig::default(), &thetas, None)
                    .expect("bundle refresh"),
            );
        }
    }
    let fresh = reg.snapshot().counters;

    let get = |c: &std::collections::BTreeMap<String, u64>, k: &str| c.get(k).copied().unwrap_or(0);
    let models = 1 + m as u64;
    assert_eq!(
        get(&cached, "diffbatch_builds"),
        0,
        "cached path must never rebuild the difference batch from scratch"
    );
    assert_eq!(
        get(&cached, "diffbatch_appends"),
        iters,
        "cached path must grow by exactly one append per refresh"
    );
    assert_eq!(
        get(&cached, "diffbatch_shared_hits"),
        iters * models,
        "every model of the bundle must be served by the shared batch"
    );
    assert_eq!(
        get(&fresh, "diffbatch_builds"),
        iters,
        "uncached bundle must build exactly one shared batch per refresh"
    );
    assert_eq!(
        get(&fresh, "kernel_matrix_builds"),
        iters * models,
        "one theta-dependent assembly per model per refresh"
    );
    assert_eq!(
        get(&cached, "kernel_matrix_builds"),
        get(&fresh, "kernel_matrix_builds"),
        "the shared batch is layout-invisible to kernel-matrix assembly"
    );
    vec![
        ("iterations".into(), iters),
        ("models_per_bundle".into(), models),
        (
            "cached_diffbatch_builds".into(),
            get(&cached, "diffbatch_builds"),
        ),
        (
            "cached_diffbatch_appends".into(),
            get(&cached, "diffbatch_appends"),
        ),
        (
            "cached_diffbatch_shared_hits".into(),
            get(&cached, "diffbatch_shared_hits"),
        ),
        (
            "cached_kernel_matrix_builds".into(),
            get(&cached, "kernel_matrix_builds"),
        ),
        (
            "fresh_diffbatch_builds".into(),
            get(&fresh, "diffbatch_builds"),
        ),
        (
            "fresh_kernel_matrix_builds".into(),
            get(&fresh, "kernel_matrix_builds"),
        ),
    ]
}

fn main() {
    let n = match std::env::var("MFBO_BENCH_SCALE").as_deref() {
        Ok("quick") => 128,
        _ => 512,
    };
    let counters = counter_evidence(n, 2, 4)
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n");
    println!("{{\n  \"n\": {n},\n  \"m\": 2,\n{counters}\n}}");
}
