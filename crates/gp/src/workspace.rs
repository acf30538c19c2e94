//! Precomputed pairwise-difference workspaces for batch kernel evaluation.
//!
//! Every NLML evaluation of a fit rebuilds the kernel matrix over the *same*
//! point set — only the hyperparameters change between L-BFGS steps and
//! restarts. A [`DiffBatch`] materializes the per-dimension signed
//! differences `a_i - b_i` for every pair once, so the per-evaluation work
//! collapses to the parameter-dependent part (for stationary kernels, a
//! handful of `exp` calls hoisted out of the pair loop — see
//! [`Kernel::eval_from_diffs`](crate::kernel::Kernel::eval_from_diffs)).
//!
//! The stored differences are the exact floating-point values the scalar
//! kernel paths compute internally (signed, *not* squared: `(a-b)·w` and
//! `√((a-b)²)·w` differ in floating point), which is what lets the batch
//! paths reproduce the scalar paths bit for bit.

use std::sync::OnceLock;

/// Pairwise signed-difference tensor over two point sets.
///
/// Two layouts exist:
/// - [`DiffBatch::lower_triangle`] — all pairs `(i, j)` with `j ≤ i` of one
///   set, in the row-major lower-triangle order the kernel-matrix builder
///   walks. Used by NLML training.
/// - [`DiffBatch::cross`] — all pairs of an `M`-point query set against an
///   `n`-point training set, query-major. Used by batched prediction, and
///   built by the caller when one batch serves several models trained on
///   the same inputs.
#[derive(Debug)]
pub struct DiffBatch<'a> {
    dim: usize,
    /// Number of pairs.
    count: usize,
    /// Backing storage — owned by this batch (the fresh-build constructors)
    /// or borrowed from a [`FitCache`] that persists across fits.
    storage: Storage<'a>,
    /// Backend the transpose was built for; `None` when the backend is
    /// scalar and only the diff tensor exists.
    simd_backend: Option<mfbo_simd::Backend>,
}

/// Backing storage for a [`DiffBatch`].
#[derive(Debug)]
enum Storage<'a> {
    /// The first `count*dim` elements are the row-major difference tensor:
    /// `diffs[q*dim + t] = left[t] - right[t]` for pair `q`. When a SIMD
    /// backend is active the buffer is twice that size and the second half
    /// holds the dim-major transpose `rows[t*count + q]`, so a vector
    /// kernel can stream `lanes` consecutive pairs per load. One allocation
    /// holds both halves deliberately: batches are rebuilt per prediction
    /// tile, and two transient multi-hundred-KB allocations per build make
    /// glibc bounce the second one through fresh `mmap` pages every time
    /// (measured ~7× the cost of the copies themselves).
    Owned(Vec<f64>),
    /// The dim-major transpose of a cross batch built for a vector
    /// backend, the only layout its value hook reads. The pair-major
    /// tensor is transposed back on the first [`DiffBatch::diffs`] call
    /// (the gradient hooks read it), so every hook takes every batch.
    RowsOnly {
        rows: Vec<f64>,
        diffs: OnceLock<Vec<f64>>,
    },
    /// Views into a [`FitCache`]'s persistent buffers. `rows` is empty when
    /// no transpose is needed (scalar backend).
    Borrowed { diffs: &'a [f64], rows: &'a [f64] },
}

/// Whether a dim-major transpose should be built for this backend/shape.
fn simd_wanted(be: mfbo_simd::Backend, count: usize, dim: usize) -> bool {
    be.lanes() > 1 && count > 0 && dim > 0
}

/// Fill the second half of `buf` with the dim-major transpose of the
/// pair-major diff tensor in its first half.
fn fill_simd_rows(buf: &mut [f64], count: usize, dim: usize) {
    let (diffs, rows) = buf.split_at_mut(count * dim);
    transpose_rows(diffs, rows, count, dim);
}

/// Transpose the pair-major diff tensor into the dim-major `rows` layout.
fn transpose_rows(diffs: &[f64], rows: &mut [f64], count: usize, dim: usize) {
    // Tiled transpose: within each block of pairs the dimension loop is
    // outer, so writes into every `rows[t·count ..]` row are contiguous
    // runs while the block of `diffs` being read stays cache-resident
    // across all `dim` passes. A plain q-outer loop strides writes `count`
    // elements apart (every store on a fresh, set-conflicting cache line);
    // a plain t-outer loop re-streams the whole diff buffer `dim` times.
    const PAIR_BLOCK: usize = 256;
    let mut qb = 0;
    while qb < count {
        let qe = (qb + PAIR_BLOCK).min(count);
        for t in 0..dim {
            let row = &mut rows[t * count..t * count + count];
            for q in qb..qe {
                row[q] = diffs[q * dim + t];
            }
        }
        qb = qe;
    }
}

impl<'a> DiffBatch<'a> {
    /// Workspace over the lower triangle (`j ≤ i`) of one point set, in the
    /// `(0,0), (1,0), (1,1), (2,0), …` order of the kernel-matrix builder.
    ///
    /// # Panics
    ///
    /// Panics if the points have inconsistent dimensions.
    pub fn lower_triangle(xs: &'a [Vec<f64>]) -> Self {
        Self::lower_triangle_with_backend(xs, mfbo_simd::active())
    }

    /// [`DiffBatch::lower_triangle`] with an explicit SIMD backend — the
    /// differential-testing and A/B-bench hook.
    ///
    /// # Panics
    ///
    /// Panics if the points have inconsistent dimensions.
    pub fn lower_triangle_with_backend(xs: &'a [Vec<f64>], be: mfbo_simd::Backend) -> Self {
        // Every from-scratch O(n²·d) training-side difference build is
        // counted here; cache-served batches (`FitCache::batch`) and shared
        // workspaces (`NlmlWorkspace::from_batch`) avoid this cost and bump
        // `diffbatch_appends` / `diffbatch_shared_hits` instead.
        mfbo_telemetry::counter!("diffbatch_builds", 1u64);
        let n = xs.len();
        let dim = xs.first().map_or(0, Vec::len);
        let count = n * (n + 1) / 2;
        let want = simd_wanted(be, count, dim);
        let mut buf = vec![0.0; count * dim * if want { 2 } else { 1 }];
        let mut idx = 0;
        for (i, a) in xs.iter().enumerate() {
            assert_eq!(a.len(), dim, "inconsistent point dimension");
            for b in &xs[..=i] {
                for ((o, &at), &bt) in buf[idx..idx + dim].iter_mut().zip(a).zip(b) {
                    *o = at - bt;
                }
                idx += dim;
            }
        }
        if want {
            fill_simd_rows(&mut buf, count, dim);
        }
        DiffBatch {
            dim,
            count,
            storage: Storage::Owned(buf),
            simd_backend: want.then_some(be),
        }
    }

    /// Workspace over all `queries × xs` pairs, query-major — pair
    /// `qi * xs.len() + xj` is `(queries[qi], xs[xj])`, matching the
    /// `k(x_query, x_train)` argument order of the pointwise predict path.
    ///
    /// The differences run over the queries' dimension `d`: a training
    /// point may be longer, and only its leading `d` coordinates are read
    /// (the design columns of the NARGP augmented inputs).
    ///
    /// The batch stores only what the kernels' value hook reads: the
    /// dim-major rows under a vector backend, the pair-major tensor under
    /// the scalar one. A vector-backend batch builds its pair-major tensor
    /// only if [`DiffBatch::diffs`] asks for it.
    ///
    /// # Panics
    ///
    /// Panics if the queries have inconsistent dimensions or a training
    /// point is shorter than them.
    pub fn cross(queries: &'a [Vec<f64>], xs: &'a [Vec<f64>]) -> Self {
        Self::cross_with_backend(queries, xs, mfbo_simd::active())
    }

    /// [`DiffBatch::cross`] with an explicit SIMD backend — the
    /// differential-testing and A/B-bench hook.
    ///
    /// # Panics
    ///
    /// As for [`DiffBatch::cross`].
    pub fn cross_with_backend(
        queries: &'a [Vec<f64>],
        xs: &'a [Vec<f64>],
        be: mfbo_simd::Backend,
    ) -> Self {
        let dim = queries.first().or_else(|| xs.first()).map_or(0, Vec::len);
        for a in queries {
            assert_eq!(a.len(), dim, "inconsistent query dimension");
        }
        for b in xs {
            assert!(b.len() >= dim, "training point shorter than the queries");
        }
        let n = xs.len();
        let count = queries.len() * n;
        if simd_wanted(be, count, dim) {
            let mut rows = vec![0.0; count * dim];
            for (t, row) in rows.chunks_exact_mut(count).enumerate() {
                for (a, out) in queries.iter().zip(row.chunks_exact_mut(n)) {
                    for (o, b) in out.iter_mut().zip(xs) {
                        *o = a[t] - b[t];
                    }
                }
            }
            return DiffBatch {
                dim,
                count,
                storage: Storage::RowsOnly {
                    rows,
                    diffs: OnceLock::new(),
                },
                simd_backend: Some(be),
            };
        }
        let mut buf = vec![0.0; count * dim];
        let mut idx = 0;
        for a in queries {
            for b in xs {
                for ((o, &at), &bt) in buf[idx..idx + dim].iter_mut().zip(a).zip(b) {
                    *o = at - bt;
                }
                idx += dim;
            }
        }
        DiffBatch {
            dim,
            count,
            storage: Storage::Owned(buf),
            simd_backend: None,
        }
    }

    /// Workspace over the diagonal pairs `(i, i)` of one point set — the
    /// prior-variance terms `k(x, x)` of a batched prediction. The stored
    /// differences are the exact `a_i - a_i` values the scalar path
    /// computes (always `+0.0` for finite inputs), so the batch hook
    /// reproduces `eval(x, x)` bit for bit while hoisting the parameter
    /// `exp` transforms out of the per-query loop.
    ///
    /// # Panics
    ///
    /// Panics if the points have inconsistent dimensions.
    pub fn diagonal(xs: &'a [Vec<f64>]) -> Self {
        Self::diagonal_with_backend(xs, mfbo_simd::active())
    }

    /// [`DiffBatch::diagonal`] with an explicit SIMD backend — the
    /// differential-testing and A/B-bench hook.
    ///
    /// # Panics
    ///
    /// Panics if the points have inconsistent dimensions.
    pub fn diagonal_with_backend(xs: &'a [Vec<f64>], be: mfbo_simd::Backend) -> Self {
        let dim = xs.first().map_or(0, Vec::len);
        let count = xs.len();
        let want = simd_wanted(be, count, dim);
        let mut buf = vec![0.0; count * dim * if want { 2 } else { 1 }];
        let mut idx = 0;
        for a in xs {
            assert_eq!(a.len(), dim, "inconsistent point dimension");
            // Deliberately `a − a`, not a constant 0.0: the batch must hold
            // the exact value the scalar path computes for the pair (i, i).
            #[allow(clippy::eq_op)]
            for (o, &at) in buf[idx..idx + dim].iter_mut().zip(a) {
                *o = at - at;
            }
            idx += dim;
        }
        if want {
            fill_simd_rows(&mut buf, count, dim);
        }
        DiffBatch {
            dim,
            count,
            storage: Storage::Owned(buf),
            simd_backend: want.then_some(be),
        }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the workspace holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Dimensionality of the stored differences.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The flat `len() × dim` difference tensor; pair `q` occupies
    /// `[q*dim, (q+1)*dim)`. A cross batch built for a vector backend
    /// transposes it from its rows on the first call.
    pub fn diffs(&self) -> &[f64] {
        match &self.storage {
            Storage::Owned(buf) => &buf[..self.count * self.dim],
            Storage::RowsOnly { rows, diffs } => diffs.get_or_init(|| {
                let mut out = vec![0.0; self.count * self.dim];
                transpose_rows(rows, &mut out, self.dim, self.count);
                out
            }),
            Storage::Borrowed { diffs, .. } => diffs,
        }
    }

    /// The SIMD backend this workspace was built for, and the dim-major
    /// transpose `rows[t*len() + q]` of [`DiffBatch::diffs`] — `None` when
    /// the backend is scalar (no transpose is built). Kernel batch hooks use
    /// this to route to the vector micro-kernels; absence means "run the
    /// scalar path".
    pub fn simd_rows(&self) -> Option<(mfbo_simd::Backend, &[f64])> {
        self.simd_backend.map(|be| {
            let rows = match &self.storage {
                Storage::Owned(buf) => &buf[self.count * self.dim..],
                Storage::RowsOnly { rows, .. } => rows,
                Storage::Borrowed { rows, .. } => *rows,
            };
            (be, rows)
        })
    }
}

/// Persistent, growable lower-triangle difference cache over one training
/// set that grows across BO iterations.
///
/// The lower-triangle pair order `(0,0), (1,0), (1,1), (2,0), …` means
/// appending point `n` adds its `n + 1` pairs *contiguously at the end* of
/// the pair-major diff buffer, so [`FitCache::append_points`] does O(n·d)
/// work per new point instead of the O(n²·d) of a fresh
/// [`DiffBatch::lower_triangle`] build — while the resulting buffer is
/// bit-identical to the fresh build (the subtraction sequence per pair is
/// the same; the fresh build stays the differential oracle, see
/// `tests/properties.rs`). Only the dim-major SIMD transpose depends on the
/// total pair count (its row stride is `count`); it is rebuilt lazily in
/// [`FitCache::batch_with_backend`], and that rebuild is a pure copy of
/// already-computed diffs, so it cannot change any bits either.
///
/// [`FitCache::sync`] reconciles the cache with an arbitrary target set by
/// keeping the longest bitwise-identical prefix — this absorbs the
/// constant-liar batching flow where fantasy points are appended one
/// iteration and gone the next.
#[derive(Debug, Default)]
pub struct FitCache {
    xs: Vec<Vec<f64>>,
    dim: usize,
    /// Pair-major lower-triangle diffs over `xs`, append-only.
    diffs: Vec<f64>,
    /// Dim-major transpose of `diffs`, rebuilt lazily when stale.
    rows: Vec<f64>,
    /// Number of points `rows` currently covers; `None` means stale (never
    /// built, or invalidated by a mutation that can rewind the point count —
    /// a count match alone does not prove the contents match).
    rows_points: Option<usize>,
}

impl FitCache {
    /// An empty cache; the dimension is fixed by the first appended point.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the cache holds no points.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The cached points.
    pub fn xs(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// Appends points, computing only their new pair diffs (O(n·d) per
    /// point). The diff buffer afterwards is bit-identical to a fresh
    /// [`DiffBatch::lower_triangle`] build over the full set.
    ///
    /// # Panics
    ///
    /// Panics if a point's dimension disagrees with the cache's.
    pub fn append_points(&mut self, new_xs: &[Vec<f64>]) {
        if new_xs.is_empty() {
            return;
        }
        if self.xs.is_empty() {
            self.dim = new_xs[0].len();
        }
        for a in new_xs {
            assert_eq!(a.len(), self.dim, "inconsistent point dimension");
            self.xs.push(a.clone());
            let i = self.xs.len() - 1;
            for j in 0..=i {
                let (a, b) = (&self.xs[i], &self.xs[j]);
                for (&at, &bt) in a.iter().zip(b.iter()) {
                    self.diffs.push(at - bt);
                }
            }
        }
        mfbo_telemetry::counter!("diffbatch_appends", new_xs.len() as u64);
    }

    /// Drops all points past the first `n`, truncating the diff buffer to
    /// the corresponding triangle — O(1) (no diffs are recomputed).
    pub fn truncate(&mut self, n: usize) {
        if n >= self.xs.len() {
            return;
        }
        self.xs.truncate(n);
        self.diffs.truncate(n * (n + 1) / 2 * self.dim);
        // A later append can bring the point count back to exactly
        // `rows_points` with different contents (constant-liar resync), so
        // the transpose must be marked stale on any rewind.
        self.rows_points = None;
    }

    /// Makes the cache match `xs` exactly: keeps the longest
    /// bitwise-identical prefix, truncates past it, and appends the rest.
    pub fn sync(&mut self, xs: &[Vec<f64>]) {
        let dim = xs.first().map_or(0, Vec::len);
        if !xs.is_empty() && !self.xs.is_empty() && dim != self.dim {
            self.xs.clear();
            self.diffs.clear();
            // `rows` is sized for the old dim; the `truncate(0)` below
            // early-returns on the now-empty set, so invalidate here.
            self.rows.clear();
            self.rows_points = None;
        }
        let keep = self
            .xs
            .iter()
            .zip(xs)
            .take_while(|(a, b)| {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            })
            .count();
        self.truncate(keep);
        self.append_points(&xs[keep..]);
    }

    /// A lower-triangle [`DiffBatch`] view over the cached set, under the
    /// active SIMD backend.
    pub fn batch(&mut self) -> DiffBatch<'_> {
        self.batch_with_backend(mfbo_simd::active())
    }

    /// [`FitCache::batch`] with an explicit SIMD backend. Rebuilds the
    /// dim-major transpose only when it is stale for the current point
    /// count (a pure copy of the cached diffs — no bits change).
    pub fn batch_with_backend(&mut self, be: mfbo_simd::Backend) -> DiffBatch<'_> {
        let n = self.xs.len();
        let count = n * (n + 1) / 2;
        let want = simd_wanted(be, count, self.dim);
        if want && self.rows_points != Some(n) {
            self.rows.clear();
            self.rows.resize(count * self.dim, 0.0);
            transpose_rows(&self.diffs, &mut self.rows, count, self.dim);
            self.rows_points = Some(n);
        }
        DiffBatch {
            dim: self.dim,
            count,
            storage: Storage::Borrowed {
                diffs: &self.diffs,
                rows: if want {
                    &self.rows[..count * self.dim]
                } else {
                    &[]
                },
            },
            simd_backend: want.then_some(be),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_triangle_layout_and_values() {
        let xs = vec![vec![1.0, 2.0], vec![4.0, 8.0], vec![0.5, -1.0]];
        let b = DiffBatch::lower_triangle(&xs);
        assert_eq!(b.len(), 6);
        assert_eq!(b.dim(), 2);
        // Pair order (0,0), (1,0), (1,1), (2,0), (2,1), (2,2).
        let d = &b.diffs()[2..4]; // pair (1,0)
        assert_eq!(d, &[3.0, 6.0]);
        // Diagonal pairs have zero differences.
        assert_eq!(&b.diffs()[4..6], &[0.0, 0.0]);
    }

    #[test]
    fn cross_layout_and_values() {
        let queries = vec![vec![1.0], vec![5.0]];
        let xs = vec![vec![0.0], vec![2.0], vec![3.0]];
        let b = DiffBatch::cross_with_backend(&queries, &xs, mfbo_simd::Backend::Scalar);
        assert_eq!(b.len(), 6);
        // Query-major: pair 4 is (queries[1], xs[1]) → 5 − 2.
        assert_eq!(b.diffs(), &[1.0, -1.0, -2.0, 5.0, 3.0, 2.0]);
    }

    #[test]
    fn cross_reads_the_leading_columns_of_longer_training_points() {
        let queries = vec![vec![1.0, 2.0]];
        let augmented = vec![vec![0.5, 0.25, 9.0], vec![3.0, 1.0, -4.0]];
        let design: Vec<Vec<f64>> = augmented.iter().map(|z| z[..2].to_vec()).collect();
        for be in [mfbo_simd::Backend::Scalar, mfbo_simd::Backend::Avx2] {
            let a = DiffBatch::cross_with_backend(&queries, &augmented, be);
            let b = DiffBatch::cross_with_backend(&queries, &design, be);
            assert_eq!(a.dim(), 2);
            match (a.simd_rows(), b.simd_rows()) {
                (Some((_, ra)), Some((_, rb))) => assert_eq!(ra, rb),
                (None, None) => assert_eq!(a.diffs(), b.diffs()),
                _ => unreachable!("same backend, same layout"),
            }
        }
    }

    #[test]
    fn diagonal_layout_and_values() {
        let xs = vec![vec![1.0, 2.0], vec![4.0, 8.0], vec![0.5, -1.0]];
        let b = DiffBatch::diagonal(&xs);
        assert_eq!(b.len(), 3);
        assert_eq!(b.dim(), 2);
        assert!(b.diffs().iter().all(|&d| d == 0.0));
    }

    #[test]
    fn simd_rows_is_exact_transpose_of_diffs() {
        let xs = vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 8.0, 16.0],
            vec![0.5, -1.0, 2.5],
        ];
        let avx2 = mfbo_simd::Backend::Avx2;
        for (b, scalar) in [
            (
                DiffBatch::lower_triangle_with_backend(&xs, avx2),
                DiffBatch::lower_triangle_with_backend(&xs, mfbo_simd::Backend::Scalar),
            ),
            // A vector-backend cross batch keeps only the rows and
            // transposes them back on demand.
            (
                DiffBatch::cross_with_backend(&xs[..2], &xs, avx2),
                DiffBatch::cross_with_backend(&xs[..2], &xs, mfbo_simd::Backend::Scalar),
            ),
            (
                DiffBatch::diagonal_with_backend(&xs, avx2),
                DiffBatch::diagonal_with_backend(&xs, mfbo_simd::Backend::Scalar),
            ),
        ] {
            let (be, rows) = b.simd_rows().expect("vector backend builds rows");
            assert_eq!(be, avx2);
            assert!(scalar.simd_rows().is_none());
            let diffs = b.diffs();
            assert_eq!(diffs, scalar.diffs());
            for q in 0..b.len() {
                for t in 0..b.dim() {
                    assert_eq!(
                        rows[t * b.len() + q].to_bits(),
                        diffs[q * b.dim() + t].to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn differences_are_signed_exact_values() {
        // The workspace must store a−b, not |a−b| or (a−b)²: the scalar
        // kernel path scales the signed difference before squaring.
        let xs = vec![vec![0.1], vec![0.3]];
        let b = DiffBatch::lower_triangle(&xs);
        assert_eq!(b.diffs()[1].to_bits(), (0.3f64 - 0.1f64).to_bits());
    }

    fn cache_points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..3)
                    .map(|d| ((i * 7 + d * 5) % 11) as f64 / 10.0)
                    .collect()
            })
            .collect()
    }

    /// Fresh lower-triangle build is the oracle for an appended cache.
    fn assert_matches_fresh(cache: &mut FitCache, xs: &[Vec<f64>], be: mfbo_simd::Backend) {
        let fresh = DiffBatch::lower_triangle_with_backend(xs, be);
        let view = cache.batch_with_backend(be);
        assert_eq!(view.len(), fresh.len());
        assert_eq!(view.dim(), fresh.dim());
        for (a, b) in view.diffs().iter().zip(fresh.diffs()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        match (view.simd_rows(), fresh.simd_rows()) {
            (None, None) => {}
            (Some((ba, ra)), Some((bb, rb))) => {
                assert_eq!(ba, bb);
                for (a, b) in ra.iter().zip(rb) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            (a, b) => panic!("simd_rows mismatch: {:?} vs {:?}", a.is_some(), b.is_some()),
        }
    }

    #[test]
    fn fit_cache_append_bit_identity_with_fresh_build() {
        for be in [mfbo_simd::Backend::Scalar, mfbo_simd::Backend::Avx2] {
            let xs = cache_points(9);
            let mut cache = FitCache::new();
            cache.append_points(&xs[..4]);
            cache.append_points(&xs[4..7]);
            assert_matches_fresh(&mut cache, &xs[..7], be);
            cache.append_points(&xs[7..]);
            assert_matches_fresh(&mut cache, &xs, be);
        }
    }

    #[test]
    fn fit_cache_truncate_then_append_bit_identity() {
        let xs = cache_points(8);
        let mut cache = FitCache::new();
        cache.append_points(&xs);
        cache.truncate(5);
        assert_eq!(cache.len(), 5);
        let mut other = cache_points(10);
        other.reverse();
        cache.append_points(&other[..2]);
        let mut target = xs[..5].to_vec();
        target.extend_from_slice(&other[..2]);
        assert_matches_fresh(&mut cache, &target, mfbo_simd::Backend::Avx2);
    }

    #[test]
    fn fit_cache_sync_keeps_common_prefix_and_matches_target() {
        let xs = cache_points(8);
        let mut cache = FitCache::new();
        // Simulate the constant-liar flow: fantasy tail one iteration,
        // different tail the next.
        let mut with_fantasy = xs[..6].to_vec();
        with_fantasy.push(vec![0.9, 0.8, 0.7]);
        cache.sync(&with_fantasy);
        assert_matches_fresh(&mut cache, &with_fantasy, mfbo_simd::Backend::Scalar);
        cache.sync(&xs);
        assert_eq!(cache.len(), xs.len());
        assert_matches_fresh(&mut cache, &xs, mfbo_simd::Backend::Avx2);
        // Dimension change forces a clean rebuild.
        let flat: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        cache.sync(&flat);
        assert_matches_fresh(&mut cache, &flat, mfbo_simd::Backend::Scalar);
    }

    #[test]
    fn fit_cache_sync_to_same_count_invalidates_simd_rows() {
        // Regression: a sync that rewinds the cache and re-appends back to
        // the *same* point count must not serve the previous transpose —
        // the count matches but the contents don't (constant-liar flow
        // where one fantasy point is replaced by a different point).
        let xs = cache_points(6);
        let mut cache = FitCache::new();
        cache.append_points(&xs);
        // Build the transpose for the original set under a SIMD backend.
        assert_matches_fresh(&mut cache, &xs, mfbo_simd::Backend::Avx2);
        let mut swapped = xs.clone();
        swapped[5] = vec![0.9, 0.8, 0.7];
        cache.sync(&swapped);
        assert_eq!(cache.len(), xs.len());
        assert_matches_fresh(&mut cache, &swapped, mfbo_simd::Backend::Avx2);
    }

    #[test]
    fn fit_cache_dim_change_to_same_count_rebuilds_simd_rows() {
        // Regression: a dimension-change sync landing on the same point
        // count must rebuild the transpose for the new dim instead of
        // slicing the old-dim buffer (out-of-bounds when the dim grows).
        let flat: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64 / 10.0]).collect();
        let mut cache = FitCache::new();
        cache.append_points(&flat);
        assert_matches_fresh(&mut cache, &flat, mfbo_simd::Backend::Avx2);
        let wide = cache_points(4);
        cache.sync(&wide);
        assert_eq!(cache.len(), 4);
        assert_matches_fresh(&mut cache, &wide, mfbo_simd::Backend::Avx2);
    }

    #[test]
    fn fit_cache_empty_and_single_point() {
        let mut cache = FitCache::new();
        assert!(cache.is_empty());
        let view = cache.batch();
        assert!(view.is_empty());
        drop(view);
        cache.sync(&[vec![0.25, 0.5]]);
        assert_eq!(cache.len(), 1);
        assert_matches_fresh(&mut cache, &[vec![0.25, 0.5]], mfbo_simd::Backend::Scalar);
    }
}
