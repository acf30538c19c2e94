//! Generates the `BENCH_simd.json` measurements: scalar-vs-dispatched A/B
//! medians for the SIMD micro-kernel layer. The `scalar_fallback_parity`
//! rows of that file are historical evidence: the pre-SIMD replicas that
//! produced them are gone, so this binary no longer emits that section.
//!
//! Usage: `cargo run --release -p mfbo-bench --bin bench_simd`
//!
//! Harness: interleaved A/B sampling (samples of the two compared rows
//! alternate A, B, A, B, ... so container load drift affects both medians
//! equally), 21 samples per row, median statistic, iteration counts
//! calibrated to a ~40 ms sample target — the same methodology as
//! `BENCH_linalg.json`.

use mfbo_bench::{ab_median_ns, AB_SAMPLES as SAMPLES, AB_TARGET_SAMPLE_MS as TARGET_SAMPLE_MS};
use mfbo_gp::kernel::{Kernel, SquaredExponential};
use mfbo_gp::{DiffBatch, Gp, GpConfig};
use mfbo_linalg::{Cholesky, Matrix};
use mfbo_simd::Backend;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Training inputs in `[0,1]^dim` — the `BENCH_linalg.json` data shape
/// (dim = 12, middle of the paper's 10–36 design-variable range).
fn bench_data(n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..dim)
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

fn spd(n: usize) -> Matrix {
    let b = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5);
    let mut a = b.matmul(&b.transpose());
    a.add_diag(n as f64);
    a
}

struct Row {
    n: usize,
    a_ns: f64,
    b_ns: f64,
}

fn rows_json(rows: &[Row], a_name: &str, b_name: &str) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "        {{ \"n\": {}, \"{}\": {}, \"{}\": {}, \"speedup\": {:.2} }}",
                r.n,
                a_name,
                r.a_ns.round() as u64,
                b_name,
                r.b_ns.round() as u64,
                r.a_ns / r.b_ns
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    let dim = 12;
    let detected = mfbo_simd::detect();
    let sizes = [32usize, 128, 512];
    eprintln!(
        "detected backend: {} ({} lanes)",
        detected.name(),
        detected.lanes()
    );

    // Kernel-matrix build: SE eval_from_diffs over the lower-triangle
    // workspace (the L-BFGS hot loop), scalar vs dispatched.
    let mut kernel_rows = Vec::new();
    for &n in &sizes {
        let (xs, _) = bench_data(n, dim);
        let kernel = SquaredExponential::new(dim);
        let theta = kernel.default_params();
        let scalar_batch = DiffBatch::lower_triangle_with_backend(&xs, Backend::Scalar);
        let simd_batch = DiffBatch::lower_triangle_with_backend(&xs, detected);
        let mut kv_a = vec![0.0; scalar_batch.len()];
        let mut kv_b = vec![0.0; simd_batch.len()];
        let (a, b) = ab_median_ns(
            || kernel.eval_from_diffs(black_box(&theta), black_box(&scalar_batch), &mut kv_a),
            || kernel.eval_from_diffs(black_box(&theta), black_box(&simd_batch), &mut kv_b),
        );
        eprintln!(
            "kernel_matrix_build n={n}: scalar {a:.0} ns, simd {b:.0} ns ({:.2}x)",
            a / b
        );
        kernel_rows.push(Row {
            n,
            a_ns: a,
            b_ns: b,
        });
    }

    // Blocked Cholesky factorization (trailing-update dominated at n=512):
    // scalar fold vs dispatched fold.
    let mut chol_rows = Vec::new();
    for &n in &sizes {
        let a_mat = spd(n);
        let (a, b) = ab_median_ns(
            || {
                black_box(Cholesky::new_with_backend(
                    black_box(&a_mat),
                    Backend::Scalar,
                ))
                .expect("spd");
            },
            || {
                black_box(Cholesky::new_with_backend(black_box(&a_mat), detected)).expect("spd");
            },
        );
        eprintln!(
            "trailing_update n={n}: scalar {a:.0} ns, simd {b:.0} ns ({:.2}x)",
            a / b
        );
        chol_rows.push(Row {
            n,
            a_ns: a,
            b_ns: b,
        });
    }

    // Batched posterior sweep (256 queries): scalar vs dispatched
    // (cache-tiled + interleaved multi-RHS solves in both modes).
    let mut predict_rows = Vec::new();
    let (queries, _) = bench_data(256, dim);
    for &n in &sizes {
        let (xs, ys) = bench_data(n, dim);
        let mut rng = StdRng::seed_from_u64(0);
        let gp = Gp::fit(
            SquaredExponential::new(dim),
            xs,
            ys,
            &GpConfig::fast(),
            &mut rng,
        )
        .expect("fit");
        let (a, b) =
            ab_median_ns(
                || {
                    black_box(gp.predict_batch_standardized_with_backend(
                        black_box(&queries),
                        Backend::Scalar,
                    ));
                },
                || {
                    black_box(
                        gp.predict_batch_standardized_with_backend(black_box(&queries), detected),
                    );
                },
            );
        eprintln!(
            "batched_predict n={n}: scalar {a:.0} ns, simd {b:.0} ns ({:.2}x)",
            a / b
        );
        predict_rows.push(Row {
            n,
            a_ns: a,
            b_ns: b,
        });
    }

    let kernel_128 = kernel_rows.iter().find(|r| r.n == 128).unwrap();
    let chol_512 = chol_rows.iter().find(|r| r.n == 512).unwrap();
    println!(
        r#"{{
  "description": "SIMD micro-kernel dispatch A/B: the same workloads under the forced scalar backend (MFBO_SIMD=scalar) and the runtime-detected instruction set (MFBO_SIMD=auto). Every row pair returns bit-identical results (enforced by to_bits differential proptests in crates/simd/tests/properties.rs, crates/linalg/tests/properties.rs, and crates/gp/tests/properties.rs); the rows measure pure dispatch speedup.",
  "methodology": {{
    "harness": "interleaved A/B sampling: samples of the two compared rows alternate (A, B, A, B, ...) so container load drift affects both medians equally",
    "samples_per_row": {SAMPLES},
    "statistic": "median",
    "iterations": "calibrated per row to a ~{TARGET_SAMPLE_MS:.0} ms sample target",
    "build": "cargo --release, default codegen settings",
    "detected_backend": "{backend}",
    "lanes": {lanes},
    "dim": {dim},
    "queries_per_predict_call": 256,
    "date": "2026-08-07",
    "caveats": [
      "Measured in a shared 1-CPU container; absolute times carry +/-40% run-to-run drift. The interleaved harness makes the *ratios* stable to a few percent, but absolute nanoseconds should not be compared across machines or runs.",
      "The scalar rows run the portable scalar fallback. Its parity with the pre-SIMD inner loops was measured once and is kept in BENCH_simd.json as historical evidence; this binary no longer emits it.",
      "Reproduce with: cargo run --release -p mfbo-bench --bin bench_simd (criterion group simd_kernels in crates/bench/benches/micro.rs covers the same shapes)."
    ]
  }},
  "acceptance": {{
    "kernel_matrix_build_n128_required_speedup": 1.5,
    "kernel_matrix_build_n128_measured_speedup": {k128:.2},
    "trailing_update_n512_required_speedup": 1.5,
    "trailing_update_n512_measured_speedup": {c512:.2}
  }},
  "results": {{
    "kernel_matrix_build": {{
      "what": "one SE eval_from_diffs sweep over the n(n+1)/2-pair lower-triangle DiffBatch (the L-BFGS inner loop's kernel-matrix assembly). scalar = portable fallback; simd = sq_norm micro-kernel across pairs on the dim-major difference rows, scalar exp finish",
      "rows": [
{kernel_rows}
      ]
    }},
    "trailing_update": {{
      "what": "blocked Cholesky factorization of an SPD n x n matrix, dominated by the panel trailing update at large n. scalar = per-element multi-column fold; simd = fold_cols micro-kernel (destination block held in registers across the panel's columns)",
      "rows": [
{chol_rows}
      ]
    }},
    "batched_predict": {{
      "what": "256-point standardized posterior sweep through predict_batch_standardized_with_backend. scalar = per-query forward solve; simd = lane-interleaved multi-RHS forward solves + sq_dist kernel rows from the fit-time layout",
      "rows": [
{predict_rows}
      ]
    }}
  }}
}}"#,
        backend = detected.name(),
        lanes = detected.lanes(),
        k128 = kernel_128.a_ns / kernel_128.b_ns,
        c512 = chol_512.a_ns / chol_512.b_ns,
        kernel_rows = rows_json(&kernel_rows, "scalar_ns", "simd_ns"),
        chol_rows = rows_json(&chol_rows, "scalar_ns", "simd_ns"),
        predict_rows = rows_json(&predict_rows, "scalar_ns", "simd_ns"),
    );
}
