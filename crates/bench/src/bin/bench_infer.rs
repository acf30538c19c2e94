//! Generates the `BENCH_infer.json` measurements: frozen-hyperparameter
//! fit + 256-query predict under the two GP inference engines (exact
//! Cholesky, subset-of-data) across training-set sizes up to 5120
//! observations.
//!
//! Usage: `cargo run --release -p mfbo-bench --bin bench_infer > BENCH_infer.json`
//! (`MFBO_BENCH_SCALE=quick` restricts to the small sizes for smoke runs.)
//!
//! Harness: interleaved A/B sampling — one sample of each engine in
//! round-robin so container load drift affects all medians equally, median
//! statistic, one fit+predict per sample (a 4096-point exact factorization
//! is its own multi-second sample; calibrated inner loops would be noise).
//! Hyperparameters are frozen (`Gp::with_params`) so the rows compare
//! pure inference cost, not the L-BFGS restart schedule.

use mfbo_bench::median;
use mfbo_gp::kernel::SquaredExponential;
use mfbo_gp::{Gp, GpConfig, InferenceMode};
use std::hint::black_box;
use std::time::Instant;

const DIM: usize = 12;
const QUERIES: usize = 256;

/// Training inputs in `[0,1]^DIM` — the `BENCH_simd.json` data shape
/// (dim = 12, middle of the paper's 10–36 design-variable range).
fn bench_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..DIM)
                .map(|d| ((i * 31 + d * 17) % 97) as f64 / 96.0)
                .collect()
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (7.0 * x[0]).sin() + x.iter().sum::<f64>())
        .collect();
    (xs, ys)
}

fn queries() -> Vec<Vec<f64>> {
    (0..QUERIES)
        .map(|i| {
            (0..DIM)
                .map(|d| ((i * 13 + d * 29 + 5) % 89) as f64 / 88.0)
                .collect()
        })
        .collect()
}

/// One timed fit + 256-query predict under `mode`; returns nanoseconds.
fn fit_predict_ns(xs: &[Vec<f64>], ys: &[f64], qs: &[Vec<f64>], mode: InferenceMode) -> f64 {
    let mut params = vec![0.0];
    params.extend(std::iter::repeat_n(-0.5, DIM));
    let config = GpConfig {
        inference: mode,
        ..GpConfig::default()
    };
    let t = Instant::now();
    let gp = Gp::with_params(
        SquaredExponential::new(DIM),
        xs.to_vec(),
        ys.to_vec(),
        params,
        -3.0,
        &config,
    )
    .unwrap();
    black_box(gp.predict_batch(qs));
    t.elapsed().as_nanos() as f64
}

struct Row {
    n: usize,
    exact_ns: Option<f64>,
    subset_ns: f64,
}

fn main() {
    let scale = std::env::var("MFBO_BENCH_SCALE").unwrap_or_default();
    // Exact is the O(n^3) baseline; it is skipped above 4096 where the
    // acceptance only asks for the approximate engine ("5k fit+predict").
    // "quick" keeps everything below the subset cap (a smoke of the
    // harness itself); "large-smoke" is the CI time-budget check: one
    // n=2048 subset-of-data fit+predict, no exact baseline.
    let sizes: &[(usize, bool, usize)] = match scale.as_str() {
        "quick" => &[(256, true, 5), (512, true, 5)],
        "large-smoke" => &[(2048, false, 1)],
        _ => &[
            (512, true, 9),
            (1024, true, 7),
            (2048, true, 5),
            (4096, true, 3),
            (5120, false, 3),
        ],
    };
    let qs = queries();
    let mut rows = Vec::new();
    for &(n, with_exact, samples) in sizes {
        let (xs, ys) = bench_data(n);
        let mut se = Vec::new();
        let mut ss = Vec::new();
        for _ in 0..samples {
            if with_exact {
                se.push(fit_predict_ns(&xs, &ys, &qs, InferenceMode::Exact));
            }
            ss.push(fit_predict_ns(
                &xs,
                &ys,
                &qs,
                InferenceMode::subset_of_data(),
            ));
        }
        rows.push(Row {
            n,
            exact_ns: with_exact.then(|| median(se.clone())),
            subset_ns: median(ss),
        });
        eprintln!("n={n} done");
    }

    let speedup = |exact: Option<f64>, approx: f64| -> String {
        match exact {
            Some(e) => format!("{:.2}", e / approx),
            None => "null".into(),
        }
    };
    let at_4096 = rows.iter().find(|r| r.n == 4096);
    let speedup_4096 = at_4096
        .and_then(|r| r.exact_ns.map(|e| e / r.subset_ns))
        .unwrap_or(f64::NAN);

    println!("{{");
    println!("  \"description\": \"GP inference engine A/B: frozen-hyperparameter fit plus a 256-query predict_batch under the exact Cholesky path and subset-of-data (farthest-point cap 1024). The exact rows are the differential oracle the subset engine is tested against (crates/gp/src/gp.rs); these rows measure the cost it saves.\",");
    println!("  \"methodology\": {{");
    println!("    \"harness\": \"interleaved A/B sampling: one sample of each engine in round-robin so container load drift affects all medians equally\",");
    println!("    \"statistic\": \"median\",");
    println!("    \"samples_per_row\": \"9 at n=512 down to 3 at n>=4096 (one fit is its own multi-second sample at the top sizes)\",");
    println!("    \"build\": \"cargo --release, default codegen settings\",");
    println!("    \"dim\": {DIM},");
    println!("    \"queries_per_predict_call\": {QUERIES},");
    println!("    \"hyperparameters\": \"frozen via with_params (log-amplitude 0, log-lengthscales -0.5, log-noise -3); no L-BFGS so rows compare pure inference cost\",");
    println!("    \"date\": \"2026-08-08\",");
    println!("    \"caveats\": [");
    println!("      \"Measured in a shared 1-CPU container; absolute times carry +/-40% run-to-run drift. The interleaved harness makes the *ratios* stable to a few percent, but absolute nanoseconds should not be compared across machines or runs.\",");
    println!("      \"Subset-of-data trades accuracy for a hard O(cap^3) ceiling; below the cap it is the exact path.\",");
    println!("      \"Reproduce with: cargo run --release -p mfbo-bench --bin bench_infer > BENCH_infer.json (MFBO_BENCH_SCALE=quick for a small smoke run).\"");
    println!("    ]");
    println!("  }},");
    println!("  \"acceptance\": {{");
    println!("    \"required\": \">=5x speedup over exact at n=4096, and 5k-observation fit+predict completing under subset-of-data\",");
    println!("    \"subset_speedup_at_n4096\": {speedup_4096:.2}");
    println!("  }},");
    println!("  \"results\": {{");
    println!("    \"fit_predict\": {{");
    println!("      \"what\": \"one frozen-theta fit + one 256-query predict_batch; exact_ns is null where the O(n^3) baseline is skipped\",");
    println!("      \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let exact = r
            .exact_ns
            .map(|e| format!("{:.0}", e))
            .unwrap_or_else(|| "null".into());
        println!(
            "        {{ \"n\": {}, \"exact_ns\": {exact}, \"subset_ns\": {:.0}, \"subset_speedup\": {} }}{comma}",
            r.n,
            r.subset_ns,
            speedup(r.exact_ns, r.subset_ns),
        );
    }
    println!("      ]");
    println!("    }}");
    println!("  }}");
    println!("}}");
}
