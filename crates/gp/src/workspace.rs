//! Precomputed layouts of the training inputs for batch kernel evaluation.
//!
//! Two layouts serve the two halves of a GP's life:
//!
//! - **Training.** Every NLML evaluation of a fit rebuilds the kernel matrix
//!   over the *same* point set — only the hyperparameters change between
//!   L-BFGS steps and restarts. A [`DiffBatch`] materializes the
//!   per-dimension signed differences `a_i - b_i` of every lower-triangle
//!   pair once, so the per-evaluation work collapses to the
//!   parameter-dependent part (for stationary kernels, a handful of `exp`
//!   calls hoisted out of the pair loop — see
//!   [`Kernel::eval_from_diffs`](crate::kernel::Kernel::eval_from_diffs)).
//!   One batch is built per fit, or per bundle of fits over the same
//!   points, and shared by reference.
//! - **Prediction.** A fitted model stores its training inputs once,
//!   dimension-major and padded to whole SIMD lanes, in a [`TrainLayout`].
//!   A kernel row then comes straight from a query and the layout through
//!   the fused [`mfbo_simd::sq_dist`] kernel (see
//!   [`Kernel::eval_row`](crate::kernel::Kernel::eval_row)), with no
//!   difference tensor built per call.
//!
//! Both paths compute the exact floating-point differences the scalar kernel
//! paths compute internally (signed, *not* squared: `(a-b)·w` and
//! `√((a-b)²)·w` differ in floating point), which is what lets them
//! reproduce the scalar paths bit for bit.

/// Lower-triangle signed-difference tensor over one point set: all pairs
/// `(i, j)` with `j ≤ i`, in the row-major order the kernel-matrix builder
/// walks. NLML training reads it.
///
/// The batch owns one buffer holding two layouts of the same differences:
/// the row-major tensor `diffs[q*dim + t] = left[t] - right[t]` for pair
/// `q`, then its dim-major transpose `rows[t*count + q]`, so a micro-kernel
/// of the backend the batch was built for streams consecutive pairs per
/// load. Both are built for every backend, scalar included.
#[derive(Debug, Clone)]
pub struct DiffBatch {
    dim: usize,
    /// Number of pairs.
    count: usize,
    /// `count*dim` row-major differences, then their `count*dim` transpose.
    buf: Vec<f64>,
    /// Backend the kernel hooks dispatch through.
    backend: mfbo_simd::Backend,
}

impl DiffBatch {
    /// Workspace over the lower triangle (`j ≤ i`) of one point set, in the
    /// `(0,0), (1,0), (1,1), (2,0), …` order of the kernel-matrix builder.
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
        let n = xs.len();
        let dim = xs.first().map_or(0, Vec::len);
        let count = n * (n + 1) / 2;
        let mut buf = vec![0.0; 2 * count * dim];
        let (diffs, rows) = buf.split_at_mut(count * dim);
        let mut idx = 0;
        for (i, a) in xs.iter().enumerate() {
            assert_eq!(a.len(), dim, "inconsistent point dimension");
            for b in &xs[..=i] {
                for ((o, &at), &bt) in diffs[idx..idx + dim].iter_mut().zip(a).zip(b) {
                    *o = at - bt;
                }
                idx += dim;
            }
        }
        transpose_rows(diffs, rows, count, dim);
        DiffBatch {
            dim,
            count,
            buf,
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

    /// The flat `len() × dim` difference tensor; pair `q` occupies
    /// `[q*dim, (q+1)*dim)`.
    pub fn diffs(&self) -> &[f64] {
        &self.buf[..self.count * self.dim]
    }

    /// The SIMD backend this workspace was built for, and the dim-major
    /// transpose `rows[t*len() + q]` of [`DiffBatch::diffs`] — what the
    /// kernel batch hooks hand to the [`mfbo_simd`] micro-kernels.
    pub fn simd_rows(&self) -> (mfbo_simd::Backend, &[f64]) {
        (self.backend, &self.buf[self.count * self.dim..])
    }
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
    fn simd_rows_is_exact_transpose_of_diffs() {
        let xs = vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 8.0, 16.0],
            vec![0.5, -1.0, 2.5],
        ];
        let avx2 = mfbo_simd::Backend::Avx2;
        let b = DiffBatch::lower_triangle_with_backend(&xs, avx2);
        let scalar = DiffBatch::lower_triangle_with_backend(&xs, mfbo_simd::Backend::Scalar);
        let (be, rows) = b.simd_rows();
        assert_eq!(be, avx2);
        assert_eq!(scalar.simd_rows(), (mfbo_simd::Backend::Scalar, rows));
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

    #[test]
    fn differences_are_signed_exact_values() {
        // The workspace must store a−b, not |a−b| or (a−b)²: the scalar
        // kernel path scales the signed difference before squaring.
        let xs = vec![vec![0.1], vec![0.3]];
        let b = DiffBatch::lower_triangle(&xs);
        assert_eq!(b.diffs()[1].to_bits(), (0.3f64 - 0.1f64).to_bits());
    }
}
