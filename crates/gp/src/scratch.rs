//! Per-thread scratch buffers for the allocation-free predict paths.

use std::cell::RefCell;

thread_local! {
    /// Buffers handed back by finished [`with_scratch`] calls.
    static FREE: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on a zeroed buffer of `len` values, reusing a buffer an earlier
/// call on this thread handed back instead of allocating one. Nested calls
/// each get a buffer of their own.
///
/// The buffers live per thread, so a model shared by pool workers needs no
/// lock, and every buffer starts zeroed, so no result depends on which
/// thread ran it or what ran there before.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let mut buf = FREE
        .with(|free| free.borrow_mut().pop())
        .unwrap_or_default();
    buf.clear();
    buf.resize(len, 0.0);
    let r = f(&mut buf);
    FREE.with(|free| free.borrow_mut().push(buf));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_zeroed_reused_and_nest() {
        let first = with_scratch(8, |a| {
            assert!(a.iter().all(|&v| v == 0.0));
            a.fill(3.0);
            with_scratch(4, |b| {
                assert!(b.iter().all(|&v| v == 0.0));
                b.fill(5.0);
            });
            assert!(
                a.iter().all(|&v| v == 3.0),
                "a nested call has its own buffer"
            );
            a.as_ptr() as usize
        });
        let again = with_scratch(6, |a| {
            assert!(a.iter().all(|&v| v == 0.0));
            a.as_ptr() as usize
        });
        assert_eq!(first, again, "the outer buffer is reused");
    }
}
