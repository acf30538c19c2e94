//! Bit-exact vectorized micro-kernels with runtime CPU dispatch.
//!
//! The GP hot loops (pairwise kernel sweeps, the blocked-Cholesky trailing
//! update, lane-interleaved triangular solves for batched posteriors and
//! for the NLML gradient's explicit inverse, the gradient's per-pair terms)
//! are straight-line floating-point code whose cost is dominated by
//! instruction throughput. This crate provides
//! SIMD implementations of those inner loops that are **bit-identical** to
//! the portable scalar reference in [`scalar`], which is what lets them sit
//! underneath the repository's reproducibility contract (golden trajectory
//! CSVs, `to_bits` differential tests) without a tolerance anywhere.
//!
//! # The bit-exactness rule
//!
//! Floating-point addition is not associative, so a vectorized loop is only
//! bit-exact when it assigns *whole* scalar reduction chains to SIMD lanes
//! instead of splitting one chain across lanes:
//!
//! - Vectorize **across independent entries** (pairs of a [`sq_norm`] batch,
//!   elements of a [`fold_cols`] column, right-hand sides of a
//!   [`forward_solve_interleaved`] or [`back_solve_interleaved`], such as
//!   the identity columns of an inverse). Each lane then executes exactly
//!   the scalar operation sequence for its entry.
//! - Keep every per-entry reduction (the `Σ_t z_t²` of one kernel pair, the
//!   `Σ_k L[i][k]·z[k]` of one solve row) **sequential in ascending order**,
//!   never tree- or lane-reduced.
//! - Use separate multiply and add/subtract instructions everywhere but
//!   inside [`exp`]. A fused `a*b+c` rounds once where `a*b` then `+c`
//!   rounds twice, so fusing an ordinary kernel's operations would change
//!   its low bits even with identical ordering.
//! - [`exp`] is the one transcendental, and fused multiply-adds are part of
//!   its definition: it is glibc's table-driven `exp` with the FMAs of glibc's
//!   FMA build written out. Its scalar form uses [`f64::mul_add`] (one
//!   correctly rounded operation, as the vector `vfmadd` is), so every
//!   backend computes the same bits, and callers use it instead of libm —
//!   their results then no longer depend on the platform's `exp`.
//! - Division and square root are IEEE-754 correctly rounded in both scalar
//!   and vector form, so `vdivpd`/`vsqrtpd` are safe to use.
//!
//! # Dispatch
//!
//! [`active`] resolves the process-wide backend once: AVX2 (with FMA) on
//! `x86_64`, NEON on `aarch64` (both runtime-detected), scalar otherwise. The
//! `MFBO_SIMD` environment variable overrides it (`scalar` forces the
//! fallback, `auto` is the default); any other value aborts loudly rather
//! than silently degrading — reproducibility knobs must not guess. Every
//! kernel takes the backend as an explicit argument so callers hoist the
//! decision out of their inner loops and differential tests can pin both
//! paths in one process.
//!
//! All `unsafe` lives in the private `avx2`/`neon` intrinsic modules; every
//! call into them is fenced by a runtime feature check at the dispatch site.

use std::sync::OnceLock;

pub mod scalar;

pub use scalar::exp;

#[cfg(target_arch = "x86_64")]
mod avx2;
mod exp_core;
#[cfg(target_arch = "aarch64")]
mod neon;

/// Instruction-set backend executing the micro-kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar reference ([`scalar`]).
    Scalar,
    /// 256-bit AVX2 with FMA on `x86_64` (4 f64 lanes).
    Avx2,
    /// 128-bit NEON on `aarch64` (2 f64 lanes).
    Neon,
}

impl Backend {
    /// Number of f64 lanes the backend processes per vector — the interleave
    /// factor callers use to lay out multi-RHS solves.
    pub fn lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Avx2 => 4,
            Backend::Neon => 2,
        }
    }

    /// Telemetry / display name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// User-facing dispatch mode, mirroring the `MFBO_THREADS` knob style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Force the portable scalar fallback.
    Scalar,
    /// Use the best runtime-detected instruction set.
    Auto,
}

impl SimdMode {
    /// Parses `"scalar"` / `"auto"` (the `MFBO_SIMD` and `--simd` values).
    /// Returns `None` for anything else — callers must fail loudly.
    pub fn parse(s: &str) -> Option<SimdMode> {
        match s {
            "scalar" => Some(SimdMode::Scalar),
            "auto" => Some(SimdMode::Auto),
            _ => None,
        }
    }
}

/// Whether the running CPU has both AVX2 and FMA, which the
/// [`Backend::Avx2`] kernels require ([`exp_in_place`] uses both).
#[cfg(target_arch = "x86_64")]
fn avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Best backend the running CPU supports, ignoring `MFBO_SIMD`.
pub fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_fma() {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Backend::Neon;
        }
    }
    Backend::Scalar
}

/// Resolves a dispatch mode to a concrete backend.
pub fn backend_for(mode: SimdMode) -> Backend {
    match mode {
        SimdMode::Scalar => Backend::Scalar,
        SimdMode::Auto => detect(),
    }
}

/// Pure resolution of an `MFBO_SIMD` value (`None` = variable unset).
///
/// # Errors
///
/// Returns the validation message for an unknown value.
fn resolve(var: Option<&str>) -> Result<Backend, String> {
    match var {
        None => Ok(backend_for(SimdMode::Auto)),
        Some(v) => match SimdMode::parse(v) {
            Some(m) => Ok(backend_for(m)),
            None => Err(format!(
                "invalid MFBO_SIMD value '{v}' (expected 'scalar' or 'auto')"
            )),
        },
    }
}

/// Resolves the backend from the `MFBO_SIMD` environment variable without
/// touching the process-wide cache — the CLI preflights this so a bad value
/// exits nonzero with a clean message instead of panicking mid-run.
///
/// # Errors
///
/// Returns the validation message for an unknown `MFBO_SIMD` value.
pub fn backend_from_env() -> Result<Backend, String> {
    resolve(std::env::var("MFBO_SIMD").ok().as_deref())
}

static ACTIVE: OnceLock<Backend> = OnceLock::new();

fn init_backend(forced: Option<SimdMode>) -> Backend {
    let (backend, source) = match forced {
        Some(m) => (backend_for(m), "cli"),
        None => match std::env::var("MFBO_SIMD") {
            Ok(v) => match SimdMode::parse(&v) {
                Some(m) => (backend_for(m), "env"),
                // Loud failure: a typo'd MFBO_SIMD silently running the
                // wrong backend would defeat the point of the knob.
                None => panic!("invalid MFBO_SIMD value '{v}' (expected 'scalar' or 'auto')"),
            },
            Err(_) => (backend_for(SimdMode::Auto), "default"),
        },
    };
    mfbo_telemetry::debug_event!(
        "simd_dispatch",
        backend = backend.name(),
        lanes = backend.lanes(),
        source = source,
    );
    mfbo_telemetry::counter!("simd_dispatch", 1u64);
    backend
}

/// The process-wide backend, resolved once from `MFBO_SIMD` (unset → auto
/// detection). The decision is reported as a `simd_dispatch` telemetry
/// event + counter on first call.
///
/// # Panics
///
/// Panics on an invalid `MFBO_SIMD` value (see [`backend_from_env`] for the
/// non-panicking preflight).
pub fn active() -> Backend {
    *ACTIVE.get_or_init(|| init_backend(None))
}

/// Seeds the process-wide backend from an explicit mode (the CLI `--simd`
/// flag), taking precedence over `MFBO_SIMD`. Must run before the first
/// [`active`] call; if the backend was already resolved, the existing
/// decision is returned unchanged.
pub fn force(mode: SimdMode) -> Backend {
    *ACTIVE.get_or_init(|| init_backend(Some(mode)))
}

/// Dispatches one micro-kernel call: scalar reference, or the intrinsic
/// module fenced by a runtime feature check (so even a hand-constructed
/// [`Backend`] value on the wrong CPU degrades safely to scalar).
macro_rules! dispatch {
    ($be:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $be {
            Backend::Scalar => scalar::$f($($arg),*),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if avx2_fma() =>
                // SAFETY: the guard just confirmed AVX2 and FMA are available
                // on the running CPU, the only requirement of the
                // `#[target_feature(enable = "avx2")]` kernels (and of the
                // `"avx2,fma"` one).
                unsafe { avx2::$f($($arg),*) },
            #[cfg(target_arch = "aarch64")]
            Backend::Neon if std::arch::is_aarch64_feature_detected!("neon") =>
                // SAFETY: the guard just confirmed NEON is available on the
                // running CPU, which is the only requirement of the
                // `#[target_feature(enable = "neon")]` kernels.
                unsafe { neon::$f($($arg),*) },
            _ => scalar::$f($($arg),*),
        }
    };
}

/// Batched squared weighted norms across independent entries:
/// `out[q] = Σ_t (rows[t*count + q] · inv_l[t])²`, the `t` terms added in
/// ascending order per entry — the per-pair reduction of the stationary
/// kernels, with `rows` holding the pair differences dimension-major.
///
/// # Panics
///
/// Panics if `rows.len() != count * inv_l.len()` or `out.len() != count`.
pub fn sq_norm(be: Backend, rows: &[f64], count: usize, inv_l: &[f64], out: &mut [f64]) {
    assert_eq!(rows.len(), count * inv_l.len(), "sq_norm shape mismatch");
    assert_eq!(out.len(), count, "sq_norm output length mismatch");
    dispatch!(be, sq_norm(rows, count, inv_l, out));
}

/// Squared weighted distances from one query to a dimension-major point
/// set: `out[j] = Σ_t ((q[t] − xt[t*out.len() + j]) · inv_l[t])²`, the `t`
/// terms added in ascending order per entry. This is [`sq_norm`] fused with
/// the query-minus-point differences it would read (the same subtraction,
/// then the same separate multiply and add), so a kernel row comes straight
/// from the query and a training layout built once per model. A point count
/// padded to a multiple of [`PAD`] leaves no scalar tail on any backend.
///
/// # Panics
///
/// Panics if `q.len() != inv_l.len()` or `xt.len() != inv_l.len() * out.len()`.
pub fn sq_dist(be: Backend, q: &[f64], xt: &[f64], inv_l: &[f64], out: &mut [f64]) {
    assert_eq!(q.len(), inv_l.len(), "sq_dist query length mismatch");
    assert_eq!(xt.len(), inv_l.len() * out.len(), "sq_dist shape mismatch");
    dispatch!(be, sq_dist(q, xt, inv_l, out));
}

/// A multiple of every backend's [`Backend::lanes`]: a point count rounded
/// up to it leaves [`sq_dist`] no scalar tail on any backend.
pub const PAD: usize = 4;

/// Weighted ARD gradient terms of one dimension across independent pairs:
/// `out[q] = w[q] · (a[q] · (z·z))` with `z = d[q]·inv_l` — the SE
/// lengthscale term `w·(k·z_t²)` of every pair, with `d` the pairs'
/// differences in dimension `t` (one dimension-major row) and `a` their
/// kernel values, parenthesized exactly as the per-pair gradient computes
/// it.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn sq_terms(be: Backend, d: &[f64], inv_l: f64, a: &[f64], w: &[f64], out: &mut [f64]) {
    let n = out.len();
    assert!(
        d.len() == n && a.len() == n && w.len() == n,
        "sq_terms shape mismatch"
    );
    dispatch!(be, sq_terms(d, inv_l, a, w, out));
}

/// [`sq_terms`] with a cross factor: `out[q] = w[q] · ((a[q] · (z·z)) ·
/// b[q])` — the product-rule shape of the NARGP `k1·k2` term's
/// lengthscale gradients (`a` the owning component's values, `b` the
/// other component's).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn sq_terms2(
    be: Backend,
    d: &[f64],
    inv_l: f64,
    a: &[f64],
    b: &[f64],
    w: &[f64],
    out: &mut [f64],
) {
    let n = out.len();
    assert!(
        d.len() == n && a.len() == n && b.len() == n && w.len() == n,
        "sq_terms2 shape mismatch"
    );
    dispatch!(be, sq_terms2(d, inv_l, a, b, w, out));
}

/// Multi-column axpy fold `dst[i] -= src[off + i] · m` for every
/// `(off, m)` in `cols`, columns applied in slice order per element — the
/// blocked-Cholesky trailing update with the destination column kept in
/// registers across the whole panel.
///
/// # Panics
///
/// Panics if any column slice `src[off..off + dst.len()]` is out of range.
pub fn fold_cols(be: Backend, dst: &mut [f64], src: &[f64], cols: &[(usize, f64)]) {
    for &(off, _) in cols {
        assert!(
            off + dst.len() <= src.len(),
            "fold_cols column out of range"
        );
    }
    dispatch!(be, fold_cols(dst, src, cols));
}

/// Interleaved multi-RHS forward substitution from row `start`: solves
/// rows `start..n` of `L z = b` for `width` right-hand sides stored
/// lane-interleaved (`b[r*width + c]` is row `start + r` of RHS `c`), with
/// the reduction of row `i` running over `k = start..i` — the full solve
/// when `start == 0`, and the identity-column solve of an inverse otherwise
/// (the rows of an identity column's solution above its `1` are exactly
/// `+0.0`, so skipping them changes no bit). Each lane executes exactly the
/// scalar single-RHS operation sequence. `l` is the row-major `n × n`
/// lower-triangular factor. `width` is one or four vectors of the backend
/// ([`Backend::lanes`] or four times that); with four, each row's
/// reduction runs as four independent chains.
///
/// # Panics
///
/// Panics if `l.len() != n*n`, `start > n`, `width` is not one or four
/// vectors, or the RHS/output lengths are not `(n - start) * width`.
pub fn forward_solve_interleaved(
    be: Backend,
    l: &[f64],
    n: usize,
    start: usize,
    width: usize,
    b: &[f64],
    out: &mut [f64],
) {
    assert_eq!(l.len(), n * n, "forward_solve_interleaved factor mismatch");
    assert!(
        start <= n,
        "forward_solve_interleaved start past the factor"
    );
    check_solve_width(be, width);
    let len = (n - start) * width;
    assert_eq!(b.len(), len, "forward_solve_interleaved rhs mismatch");
    assert_eq!(out.len(), len, "forward_solve_interleaved out mismatch");
    dispatch!(be, forward_solve_interleaved(l, n, start, width, b, out));
}

/// Interleaved multi-RHS back substitution down to row `stop`: solves rows
/// `stop..n` of `Lᵀ x = b` for `width` lane-interleaved right-hand sides
/// (`b[r*width + c]` is row `stop + r` of RHS `c`; `width` as for
/// [`forward_solve_interleaved`]), from row `n − 1` down. Row `i` reads
/// only rows below it in the solution vector (`k = i+1..n`, subtracted in
/// ascending order), so each lane's rows `≥ stop` are the bits of the full
/// scalar solve. `cols` holds `L` in packed column-major storage: column
/// `j`, `L[j..n][j]`, starts at `j·(2n − j + 1)/2`.
///
/// # Panics
///
/// Panics if `cols.len() != n(n+1)/2`, `stop > n`, `width` is not one or
/// four vectors, or the RHS/output lengths are not `(n - stop) * width`.
pub fn back_solve_interleaved(
    be: Backend,
    cols: &[f64],
    n: usize,
    stop: usize,
    width: usize,
    b: &[f64],
    out: &mut [f64],
) {
    assert_eq!(
        cols.len(),
        n * (n + 1) / 2,
        "back_solve_interleaved factor mismatch"
    );
    assert!(stop <= n, "back_solve_interleaved stop past the factor");
    check_solve_width(be, width);
    let len = (n - stop) * width;
    assert_eq!(b.len(), len, "back_solve_interleaved rhs mismatch");
    assert_eq!(out.len(), len, "back_solve_interleaved out mismatch");
    dispatch!(be, back_solve_interleaved(cols, n, stop, width, b, out));
}

/// Checks that an interleaved solve of `width` right-hand sides spans one
/// or four of `be`'s vectors.
///
/// # Panics
///
/// Panics for any other `width`.
fn check_solve_width(be: Backend, width: usize) {
    let lanes = be.lanes();
    assert!(
        width == lanes || width == 4 * lanes,
        "interleaved solve width {width} is not one or four {lanes}-lane vectors"
    );
}

/// `xs[i] = exp(xs[i])` for every entry: [`exp`] across independent lanes,
/// bit-identical to it per entry on every backend.
pub fn exp_in_place(be: Backend, xs: &mut [f64]) {
    dispatch!(be, exp_in_place(xs));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_accepts_known_values_only() {
        assert_eq!(SimdMode::parse("scalar"), Some(SimdMode::Scalar));
        assert_eq!(SimdMode::parse("auto"), Some(SimdMode::Auto));
        assert_eq!(SimdMode::parse("avx2"), None);
        assert_eq!(SimdMode::parse("SCALAR"), None);
        assert_eq!(SimdMode::parse(""), None);
    }

    #[test]
    fn resolve_forces_scalar_and_rejects_unknown() {
        // `MFBO_SIMD=scalar` must force the fallback even on SIMD hardware.
        assert_eq!(resolve(Some("scalar")), Ok(Backend::Scalar));
        // `auto` and unset follow detection.
        assert_eq!(resolve(Some("auto")), Ok(detect()));
        assert_eq!(resolve(None), Ok(detect()));
        // Unknown values are an error, never a silent fallback.
        let err = resolve(Some("fast")).unwrap_err();
        assert!(err.contains("MFBO_SIMD") && err.contains("fast"));
    }

    #[test]
    fn lanes_match_vector_widths() {
        assert_eq!(Backend::Scalar.lanes(), 1);
        assert_eq!(Backend::Avx2.lanes(), 4);
        assert_eq!(Backend::Neon.lanes(), 2);
    }

    #[test]
    fn detect_never_picks_a_foreign_backend() {
        let b = detect();
        #[cfg(target_arch = "x86_64")]
        assert_ne!(b, Backend::Neon);
        #[cfg(target_arch = "aarch64")]
        assert_ne!(b, Backend::Avx2);
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        assert_eq!(b, Backend::Scalar);
    }

    #[test]
    fn foreign_backend_degrades_to_scalar() {
        // A hand-constructed backend for another architecture must fall
        // back to the scalar kernels, not crash: the dispatch guard, not
        // the enum value, decides what runs.
        #[cfg(target_arch = "x86_64")]
        let foreign = Backend::Neon;
        #[cfg(not(target_arch = "x86_64"))]
        let foreign = Backend::Avx2;
        let d = [1.5, -2.0, 0.25];
        let a = [0.5, 2.0, 4.0];
        let w = [0.3, -1.0, 7.0];
        let mut got = [0.0; 3];
        let mut want = [0.0; 3];
        sq_terms(foreign, &d, 0.7, &a, &w, &mut got);
        scalar::sq_terms(&d, 0.7, &a, &w, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn dispatch_decision_emits_telemetry() {
        let sink = std::sync::Arc::new(mfbo_telemetry::sinks::CollectSink::with_level(
            mfbo_telemetry::Level::Debug,
        ));
        let _g = mfbo_telemetry::scoped_sink(sink.clone());
        let b = active();
        // `active` caches after the first call in the process, so the event
        // may have fired before this sink was installed; exercise the init
        // path directly to pin the payload.
        let fresh = init_backend(None);
        assert_eq!(b, fresh);
        let recs = sink.named("simd_dispatch");
        // Both the event and the counter share the name; pin the event.
        let rec = recs
            .iter()
            .find(|r| r.field("backend").is_some())
            .expect("simd_dispatch event with backend field");
        assert_eq!(
            rec.field("backend"),
            Some(&mfbo_telemetry::Value::Str(fresh.name().to_string()))
        );
        assert_eq!(
            rec.field("lanes"),
            Some(&mfbo_telemetry::Value::U64(fresh.lanes() as u64))
        );
        // The counter fired too.
        assert!(recs.iter().any(|r| r.field("backend").is_none()));
    }
}
