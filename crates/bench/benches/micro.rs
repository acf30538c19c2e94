//! Criterion microbenchmarks of the computational kernels: Cholesky
//! factorization, GP training and prediction, fusion-model prediction, and
//! one transient PA simulation / one charge-pump corner solve.
//! Costly fixtures are [`LazyCell`]s built by the first row that reads
//! them, so a name filter (`cargo bench --bench micro -- cholesky/inverse`)
//! pays only for the set-up of the rows it runs.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use mfbo::{MfGp, MfGpConfig};
use mfbo_circuits::charge_pump::ChargePump;
use mfbo_circuits::pa::{PaFidelity, PowerAmplifier};
use mfbo_circuits::pvt::PvtCorner;
use mfbo_circuits::testfns;
use mfbo_gp::kernel::{Kernel, NargpKernel, SquaredExponential};
use mfbo_gp::{nlml_value_cached, nlml_with_grad, nlml_with_grad_cached, DiffBatch, Gp, GpConfig};
use mfbo_linalg::{Cholesky, Matrix};
use mfbo_opt::msp::MultiStart;
use mfbo_opt::Bounds;
use mfbo_pool::Parallelism;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::LazyCell;
use std::hint::black_box;

/// An SPD test matrix of order `n`: `B Bᵀ + n I`.
fn spd_matrix(n: usize) -> Matrix {
    let b = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5);
    let mut a = b.matmul(&b.transpose());
    a.add_diag(n as f64);
    a
}

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky");
    group.sample_size(10);
    for &n in &[32usize, 128, 256, 512] {
        let a = LazyCell::new(|| spd_matrix(n));
        group.bench_function(BenchmarkId::new("blocked", n), |bch| {
            bch.iter(|| Cholesky::new(black_box(&a)).expect("spd"))
        });
        group.bench_function(BenchmarkId::new("unblocked", n), |bch| {
            bch.iter(|| Cholesky::new_unblocked(black_box(&a)).expect("spd"))
        });
    }
    // The explicit inverse of the NLML gradient: n = 20 is a PA fit's size,
    // n = 345 the smallest subset size of the scalable-inference engine.
    for &n in &[20usize, 100, 345] {
        let chol = LazyCell::new(|| Cholesky::new(&spd_matrix(n)).expect("spd"));
        group.bench_function(BenchmarkId::new("inverse_lower", n), |bch| {
            bch.iter(|| black_box(&*chol).inverse_lower())
        });
    }
    group.finish();
}

/// Training inputs in [0,1]^dim with deterministic pseudo-random spread —
/// the data shape of the BENCH_linalg.json measurements (dim = 12, the
/// middle of the 10–36 design-variable range of the paper's circuits).
fn linalg_bench_data(n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
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

/// One NLML + gradient evaluation — the inner loop of hyperparameter
/// training (L-BFGS calls this hundreds of times per fit over fixed data).
/// `naive` rebuilds pairwise differences per call; `cached` replays them
/// from a [`DiffBatch`] (built once per fit, outside the timed loop, as
/// `Gp::fit` does). The two rows return bit-identical values. `value_only`
/// is the value half alone — the cost of one L-BFGS line-search probe,
/// which skips the inverse and trace-weight pass of the gradient.
fn bench_nlml_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("nlml_eval");
    group.sample_size(10);
    let dim = 12;
    for &n in &[32usize, 128, 512] {
        let (xs, ys) = linalg_bench_data(n, dim);
        let kernel = SquaredExponential::new(dim);
        let mut theta = kernel.default_params();
        theta.push((1e-3f64).ln());
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| nlml_with_grad(black_box(&kernel), black_box(&theta), &xs, &ys))
        });
        let batch = LazyCell::new(|| DiffBatch::lower_triangle(&xs));
        group.bench_with_input(BenchmarkId::new("cached", n), &n, |bch, _| {
            bch.iter(|| nlml_with_grad_cached(black_box(&kernel), black_box(&theta), &batch, &ys))
        });
        group.bench_with_input(BenchmarkId::new("value_only", n), &n, |bch, _| {
            bch.iter(|| nlml_value_cached(black_box(&kernel), black_box(&theta), &batch, &ys))
        });
    }
    // The fit sizes of the PA runs: SE over the 5 design variables, and the
    // NARGP stage over 6 augmented inputs (5 design variables plus the
    // low-fidelity mean).
    for n in [12, 20, 28] {
        nlml_rows(&mut group, "se_d5", n, &SquaredExponential::new(5), 5);
    }
    for n in [7, 12] {
        nlml_rows(&mut group, "nargp_d6", n, &NargpKernel::new(5), 6);
    }
    group.finish();
}

/// The `cached` and `value_only` rows of [`bench_nlml_eval`] for `kernel`
/// over `n` points in `[0,1]^dim`.
fn nlml_rows<K: Kernel>(group: &mut BenchmarkGroup, name: &str, n: usize, kernel: &K, dim: usize) {
    let (xs, ys) = linalg_bench_data(n, dim);
    let batch = LazyCell::new(|| DiffBatch::lower_triangle(&xs));
    let mut theta = kernel.default_params();
    theta.push((1e-3f64).ln());
    group.bench_with_input(
        BenchmarkId::new(format!("cached_{name}"), n),
        &n,
        |bch, _| {
            bch.iter(|| nlml_with_grad_cached(black_box(kernel), black_box(&theta), &batch, &ys))
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("value_only_{name}"), n),
        &n,
        |bch, _| bch.iter(|| nlml_value_cached(black_box(kernel), black_box(&theta), &batch, &ys)),
    );
}

/// An SE-ARD GP fitted to `(xs, ys)` under `config` from seed 0.
fn fit_se(xs: &[Vec<f64>], ys: &[f64], config: &GpConfig) -> Gp<SquaredExponential> {
    let kernel = SquaredExponential::new(xs[0].len());
    let mut rng = StdRng::seed_from_u64(0);
    Gp::fit(kernel, xs.to_vec(), ys.to_vec(), config, &mut rng).expect("fit")
}

/// 256-point posterior sweep — the shape of the MSP restart scoring and MC
/// propagation workloads. `pointwise` loops [`Gp::predict_standardized`];
/// `batched` issues one [`Gp::predict_batch_standardized`] call. Bit-identical
/// results.
fn bench_predict_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict_batch");
    group.sample_size(10);
    let dim = 12;
    let (queries, _) = linalg_bench_data(256, dim);
    for &n in &[32usize, 128, 512] {
        let (xs, ys) = linalg_bench_data(n, dim);
        let gp = LazyCell::new(|| fit_se(&xs, &ys, &GpConfig::fast()));
        group.bench_function(BenchmarkId::new("pointwise256", n), |bch| {
            bch.iter(|| {
                for q in &queries {
                    black_box(gp.predict_standardized(black_box(q)));
                }
            })
        });
        group.bench_function(BenchmarkId::new("batched256", n), |bch| {
            bch.iter(|| gp.predict_batch_standardized(black_box(&queries)))
        });
    }
    group.finish();
}

/// SIMD micro-kernel dispatch A/B: the same workload under the forced
/// scalar backend and the runtime-detected one (identical rows on hardware
/// without AVX2/NEON). Results are bit-identical in both modes — the rows
/// measure pure dispatch speedup on the kernel-matrix build, the blocked
/// Cholesky factorization (trailing-update dominated at large n), and the
/// batched posterior sweep. BENCH_simd.json holds the recorded medians.
fn bench_simd_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_kernels");
    group.sample_size(10);
    let dim = 12;
    let backends = [
        ("scalar", mfbo_simd::Backend::Scalar),
        ("detected", mfbo_simd::detect()),
    ];
    for &n in &[32usize, 128, 512] {
        let (xs, ys) = linalg_bench_data(n, dim);
        let kernel = SquaredExponential::new(dim);
        let theta = kernel.default_params();
        for (name, be) in backends {
            group.bench_function(
                BenchmarkId::new(format!("kernel_matrix_build_{name}"), n),
                |bch| {
                    let batch = DiffBatch::lower_triangle_with_backend(&xs, be);
                    let mut kv = vec![0.0; batch.len()];
                    bch.iter(|| {
                        kernel.eval_from_diffs(black_box(&theta), black_box(&batch), &mut kv)
                    })
                },
            );
        }
        let a = LazyCell::new(|| spd_matrix(n));
        for (name, be) in backends {
            group.bench_function(BenchmarkId::new(format!("cholesky_{name}"), n), |bch| {
                bch.iter(|| Cholesky::new_with_backend(black_box(&a), be).expect("spd"))
            });
        }
        let (queries, _) = linalg_bench_data(256, dim);
        let gp = LazyCell::new(|| fit_se(&xs, &ys, &GpConfig::fast()));
        for (name, be) in backends {
            group.bench_function(
                BenchmarkId::new(format!("predict_batch256_{name}"), n),
                |bch| {
                    bch.iter(|| gp.predict_batch_standardized_with_backend(black_box(&queries), be))
                },
            );
        }
    }
    group.finish();
}

fn gp_training_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| (7.0 * x[0]).sin()).collect();
    (xs, ys)
}

fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp");
    group.sample_size(10);
    for &n in &[25usize, 100] {
        let (xs, ys) = gp_training_data(n);
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |bch, _| {
            bch.iter(|| fit_se(&xs, &ys, &GpConfig::fast()))
        });
        let gp = LazyCell::new(|| fit_se(&xs, &ys, &GpConfig::fast()));
        group.bench_function(BenchmarkId::new("predict", n), |bch| {
            bch.iter(|| gp.predict(black_box(&[0.37])))
        });
    }
    group.finish();
}

fn bench_mfgp_predict(c: &mut Criterion) {
    // Both models draw from one seeded stream, the 1-D model first, so the
    // d = 36 model is the same whichever rows the filter selects.
    let rng = std::cell::RefCell::new(StdRng::seed_from_u64(0));
    let model = LazyCell::new(|| {
        let (xl, yl) = gp_training_data(40);
        let xh: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let yh: Vec<f64> = xh.iter().map(|x| testfns::pedagogical_high(x[0])).collect();
        let mut rng = rng.borrow_mut();
        MfGp::fit(xl, yl, xh, yh, &MfGpConfig::default(), &mut *rng).expect("fit")
    });
    c.bench_function("mfgp_predict_mc20", |b| {
        b.iter(|| model.predict(black_box(&[0.61])))
    });
    // The charge pump's 36 design variables: the pointwise NARGP path the
    // wEI searches call once per point.
    let model_d36 = LazyCell::new(|| {
        LazyCell::force(&model);
        let (xl, yl) = linalg_bench_data(60, 36);
        let (xh, yh) = linalg_bench_data(12, 36);
        let mut rng = rng.borrow_mut();
        MfGp::fit(xl, yl, xh, yh, &MfGpConfig::default(), &mut *rng).expect("fit")
    });
    let x = vec![0.37; 36];
    c.bench_function("mfgp_predict_mc20_d36", |b| {
        b.iter(|| model_d36.predict(black_box(&x)))
    });
}

fn bench_circuits(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuits");
    group.sample_size(10);
    let pa = PowerAmplifier::new();
    let design = [1.2, 0.44, 5000.0, 0.9, 1.9];
    group.bench_function("pa_low_fidelity", |b| {
        b.iter(|| {
            pa.simulate(black_box(&design), &PaFidelity::low())
                .expect("sim")
        })
    });
    group.bench_function("pa_high_fidelity", |b| {
        b.iter(|| {
            pa.simulate(black_box(&design), &PaFidelity::high())
                .expect("sim")
        })
    });
    let cp = ChargePump::new();
    let x = ChargePump::reference_design();
    group.bench_function("charge_pump_typical_corner", |b| {
        b.iter(|| {
            cp.measure(black_box(&x), &[PvtCorner::typical()])
                .expect("solve")
        })
    });
    let grid = PvtCorner::grid_27();
    group.bench_function("charge_pump_all_corners", |b| {
        b.iter(|| cp.measure(black_box(&x), &grid).expect("solve"))
    });
    group.finish();
}

/// Telemetry overhead on an instrumented hot path (a GP fit, which emits a
/// `gp_fit` debug event and nested `cholesky` diagnostics). The three rows
/// compare telemetry off entirely, a [`NullSink`](mfbo_telemetry::sinks::NullSink)
/// installed at Info (debug emissions gated out at the `enabled` check), and
/// a NullSink accepting every record. The acceptance bar for the subsystem
/// is `null_sink_info` within 2 % of `disabled`.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    let (xs, ys) = gp_training_data(50);
    let fit = |xs: &[Vec<f64>], ys: &[f64]| fit_se(xs, ys, &GpConfig::fast());
    group.bench_function("disabled", |b| b.iter(|| fit(black_box(&xs), &ys)));
    {
        let _g = mfbo_telemetry::scoped_sink(std::sync::Arc::new(
            mfbo_telemetry::sinks::NullSink::default(),
        ));
        group.bench_function("null_sink_info", |b| b.iter(|| fit(black_box(&xs), &ys)));
    }
    {
        let _g = mfbo_telemetry::scoped_sink(std::sync::Arc::new(
            mfbo_telemetry::sinks::NullSink::with_level(mfbo_telemetry::Level::Trace),
        ));
        group.bench_function("null_sink_trace", |b| b.iter(|| fit(black_box(&xs), &ys)));
    }
    group.finish();
}

/// Speedup of the deterministic pool on the two hottest fan-out sites:
/// multi-start acquisition optimization (MSP restarts) and multi-restart
/// NLML fitting. The pool is bit-deterministic, so `threads4` computes the
/// exact same result as `serial` — only wall clock differs. On a 1-core
/// host the two rows coincide (pool overhead is the delta).
fn bench_pool_speedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_speedup");
    group.sample_size(10);

    // MSP: 24 Nelder–Mead restarts on a rippled 5-D surface — the shape of
    // an acquisition landscape with many local optima.
    let bounds = Bounds::unit(5);
    let surface = |x: &[f64]| -> f64 {
        x.iter()
            .map(|&v| (23.0 * v).sin() * (9.0 * v).cos() + (v - 0.3).powi(2))
            .sum()
    };
    for (name, par) in [
        ("msp_serial", Parallelism::Serial),
        ("msp_threads4", Parallelism::Threads(4)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(0);
                MultiStart::new(24).with_parallelism(par).minimize(
                    black_box(&surface),
                    &bounds,
                    &mut rng,
                )
            })
        });
    }

    // Multi-restart NLML fit: 8 L-BFGS restarts on a 60-point GP.
    let (xs, ys) = gp_training_data(60);
    for (name, par) in [
        ("nlml_fit_serial", Parallelism::Serial),
        ("nlml_fit_threads4", Parallelism::Threads(4)),
    ] {
        let config = GpConfig {
            restarts: 8,
            parallelism: par,
            ..GpConfig::default()
        };
        group.bench_function(name, |b| b.iter(|| fit_se(&xs, &ys, &config)));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cholesky,
    bench_nlml_eval,
    bench_predict_batch,
    bench_simd_kernels,
    bench_gp,
    bench_mfgp_predict,
    bench_circuits,
    bench_telemetry_overhead,
    bench_pool_speedup
);
criterion_main!(benches);
