//! Precomputed layouts of the training inputs for batch kernel evaluation.
//!
//! One layout serves a model from its fit onward, and one more serves only
//! the NLML search:
//!
//! - **The fit-time layout.** A model stores its training inputs once,
//!   dimension-major and padded to whole SIMD lanes, in a [`TrainLayout`].
//!   A kernel row then comes straight from a query and the layout through
//!   the fused [`mfbo_simd::sq_dist`] kernel (see
//!   [`Kernel::eval_row`](crate::kernel::Kernel::eval_row)). Every kernel
//!   matrix built once — a fit's final factor and a frozen refresh — is
//!   built row by row this way, and so is every prediction.
//! - **The search's difference batch.** Every NLML evaluation of a fit
//!   rebuilds the kernel matrix over the *same* point set — only the
//!   hyperparameters change between L-BFGS steps and restarts. A
//!   [`DiffBatch`] materializes the per-dimension signed differences
//!   `a_t - b_t` of every lower-triangle pair once, so the per-evaluation
//!   work collapses to the parameter-dependent part (see
//!   [`Kernel::eval_from_diffs`](crate::kernel::Kernel::eval_from_diffs)).
//!   Only an NLML search builds one: once per fit, or once per bundle of
//!   fits over the same points, shared by reference.
//!
//! Both compute the exact floating-point differences the scalar kernel
//! paths compute internally (signed, *not* squared: `(a-b)·w` and
//! `√((a-b)²)·w` differ in floating point), which is what lets them
//! reproduce the scalar paths bit for bit.

/// Lower-triangle signed-difference tensor over one point set: all pairs
/// `(i, j)` with `j ≤ i`, in the `(0,0), (1,0), (1,1), (2,0), …` order the
/// NLML's kernel values and trace weights use. Only the NLML search reads
/// it.
///
/// The differences are stored dimension-major, `rows[t*len() + q] =
/// x_i[t] - x_j[t]` for pair `q = (i, j)`, so a micro-kernel of the backend
/// the batch was built for streams consecutive pairs per load.
#[derive(Debug, Clone)]
pub struct DiffBatch {
    dim: usize,
    /// Number of pairs.
    count: usize,
    /// `dim` rows of `count` differences each.
    rows: Vec<f64>,
    /// Backend the kernel hooks dispatch through.
    backend: mfbo_simd::Backend,
}

impl DiffBatch {
    /// Workspace over the lower triangle (`j ≤ i`) of one point set.
    ///
    /// # Panics
    ///
    /// Panics if the points have inconsistent dimensions.
    pub fn lower_triangle(xs: &[Vec<f64>]) -> Self {
        Self::lower_triangle_with_backend(xs, mfbo_simd::active())
    }

    /// [`DiffBatch::lower_triangle`] with an explicit SIMD backend — the
    /// differential-testing and A/B-bench hook.
    ///
    /// # Panics
    ///
    /// Panics if the points have inconsistent dimensions.
    pub fn lower_triangle_with_backend(xs: &[Vec<f64>], be: mfbo_simd::Backend) -> Self {
        // Every O(n²·d) training-side difference build is counted here; a
        // fit handed a caller's batch counts `diffbatch_shared_hits` instead.
        mfbo_telemetry::counter!("diffbatch_builds", 1u64);
        // Each row is written straight from one contiguous coordinate
        // column of the layout.
        let layout = TrainLayout::new(xs);
        let n = xs.len();
        let dim = xs.first().map_or(0, Vec::len);
        let count = n * (n + 1) / 2;
        let mut rows = vec![0.0; count * dim];
        for t in 0..dim {
            let col = &layout.rows(t..t + 1)[..n];
            let mut row = rows[t * count..(t + 1) * count].iter_mut();
            for (i, &a) in col.iter().enumerate() {
                // `col` leads the zip, so its end stops `row` unconsumed.
                for (&b, o) in col[..=i].iter().zip(row.by_ref()) {
                    *o = a - b;
                }
            }
        }
        DiffBatch {
            dim,
            count,
            rows,
            backend: be,
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

    /// The SIMD backend this workspace was built for, and the dim-major
    /// differences `rows[t*len() + q]` — what the kernel batch hooks hand
    /// to the [`mfbo_simd`] micro-kernels.
    pub fn simd_rows(&self) -> (mfbo_simd::Backend, &[f64]) {
        (self.backend, &self.rows)
    }
}

/// A fitted model's training inputs stored dimension-major and padded to
/// whole SIMD lanes — the fit-time layout every prediction reads.
///
/// Coordinate `t` of point `j` sits at `t * stride() + j`, so each
/// coordinate of all points is one contiguous row: the operand of the fused
/// [`mfbo_simd::sq_dist`], and for NARGP's augmented inputs the fidelity
/// column. The stride is the point count rounded up to [`mfbo_simd::PAD`],
/// so a row sweep has no scalar tail; padding entries hold `0.0`, and the
/// kernel values computed for them are never read.
#[derive(Debug, Clone)]
pub struct TrainLayout {
    len: usize,
    stride: usize,
    xt: Vec<f64>,
}

impl TrainLayout {
    /// Lays out `xs`.
    ///
    /// # Panics
    ///
    /// Panics if the points have inconsistent dimensions.
    pub fn new(xs: &[Vec<f64>]) -> Self {
        let len = xs.len();
        let dim = xs.first().map_or(0, Vec::len);
        let stride = len.next_multiple_of(mfbo_simd::PAD);
        let mut xt = vec![0.0; dim * stride];
        for (j, x) in xs.iter().enumerate() {
            assert_eq!(x.len(), dim, "inconsistent point dimension");
            for (t, &v) in x.iter().enumerate() {
                xt[t * stride + j] = v;
            }
        }
        TrainLayout { len, stride, xt }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the layout holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row length: [`TrainLayout::len`] rounded up to [`mfbo_simd::PAD`].
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Coordinates `dims` of every point: `dims.len()` rows of
    /// [`TrainLayout::stride`] entries each.
    ///
    /// # Panics
    ///
    /// Panics if `dims` reaches past the point dimension.
    pub fn rows(&self, dims: std::ops::Range<usize>) -> &[f64] {
        &self.xt[dims.start * self.stride..dims.end * self.stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-pair oracle: pair `q = (i, j)` in lower-triangle order holds
    /// `x_i[t] − x_j[t]` in row `t`, bit for bit, whatever the backend.
    fn check_against_subtraction(xs: &[Vec<f64>], be: mfbo_simd::Backend) {
        let b = DiffBatch::lower_triangle_with_backend(xs, be);
        let (got_be, rows) = b.simd_rows();
        assert_eq!(got_be, be);
        let n = xs.len();
        assert_eq!(b.len(), n * (n + 1) / 2);
        assert_eq!(rows.len(), b.len() * b.dim());
        let mut q = 0;
        for (i, a) in xs.iter().enumerate() {
            for c in &xs[..=i] {
                for t in 0..b.dim() {
                    assert_eq!(rows[t * b.len() + q].to_bits(), (a[t] - c[t]).to_bits());
                }
                q += 1;
            }
        }
    }

    #[test]
    fn rows_match_per_pair_subtraction() {
        let xs = vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 8.0, 16.0],
            vec![0.5, -1.0, 2.5],
        ];
        let wide: Vec<Vec<f64>> = (0..13)
            .map(|i| {
                (0..5)
                    .map(|t| ((i * 7 + t * 3) as f64 * 0.618).fract() - 0.4)
                    .collect()
            })
            .collect();
        for be in [mfbo_simd::Backend::Scalar, mfbo_simd::Backend::Avx2] {
            check_against_subtraction(&xs, be);
            check_against_subtraction(&wide, be);
            check_against_subtraction(&wide[..1], be);
            check_against_subtraction(&[], be);
        }
        let b = DiffBatch::lower_triangle(&xs);
        assert_eq!((b.len(), b.dim()), (6, 3));
        // Pair (1, 0) is pair 1; diagonal pairs have zero differences.
        let rows = b.simd_rows().1;
        assert_eq!([rows[1], rows[6 + 1], rows[12 + 1]], [3.0, 6.0, 13.0]);
        assert_eq!([rows[2], rows[6 + 2], rows[12 + 2]], [0.0; 3]);
    }

    #[test]
    fn train_layout_is_dimension_major_and_padded() {
        let xs = vec![vec![1.0, 2.0], vec![4.0, 8.0], vec![0.5, -1.0]];
        let layout = TrainLayout::new(&xs);
        assert_eq!(layout.len(), 3);
        assert_eq!(layout.stride() % mfbo_simd::PAD, 0);
        let s = layout.stride();
        assert_eq!(&layout.rows(0..1)[..3], &[1.0, 4.0, 0.5]);
        assert_eq!(&layout.rows(1..2)[..3], &[2.0, 8.0, -1.0]);
        assert_eq!(layout.rows(0..2).len(), 2 * s);
        assert!(layout.rows(0..2)[3..s].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn differences_are_signed_exact_values() {
        // The workspace must store a−b, not |a−b| or (a−b)²: the scalar
        // kernel path scales the signed difference before squaring.
        let xs = vec![vec![0.1], vec![0.3]];
        let b = DiffBatch::lower_triangle(&xs);
        assert_eq!(b.simd_rows().1[1].to_bits(), (0.3f64 - 0.1f64).to_bits());
    }
}
