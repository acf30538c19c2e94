//! Small dense-vector kernels used throughout the workspace.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(mfbo_linalg::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
///
/// # Examples
///
/// ```
/// assert_eq!(mfbo_linalg::norm2(&[3.0, 4.0]), 5.0);
/// ```
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Maximum absolute entry of a slice (the `l∞` norm); `0.0` for empty input.
#[inline]
pub fn infinity_norm(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

/// In-place `y ← y + alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[1.0, -2.0, 3.0], &[4.0, 5.0, 6.0]), 12.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[]), 0.0);
        assert!((norm2(&[1.0, 1.0]) - std::f64::consts::SQRT_2).abs() < 1e-15);
        assert_eq!(infinity_norm(&[-3.0, 2.0]), 3.0);
        assert_eq!(infinity_norm(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, vec![21.0, 42.0]);
    }
}
