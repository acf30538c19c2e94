//! Property tests for the deterministic pool: for arbitrary item counts and
//! thread counts, parallel maps must preserve index order and never depend
//! on scheduling.

use mfbo_pool::{par_map, par_map_indexed, Parallelism};
use proptest::prelude::*;

proptest! {
    #[test]
    fn par_map_preserves_ordering(n in 0usize..200, threads in 1usize..12) {
        let expect: Vec<usize> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
        let got = par_map_indexed(Parallelism::Threads(threads), n, |i| {
            i.wrapping_mul(2654435761)
        });
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn par_map_matches_serial_iterator(items in prop::collection::vec(-1.0e6f64..1.0e6, 40), threads in 2usize..9) {
        let f = |x: &f64| (x.sin() * 1e3).to_bits();
        let serial: Vec<u64> = items.iter().map(f).collect();
        let parallel = par_map(Parallelism::Threads(threads), &items, f);
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn thread_count_never_changes_results(n in 2usize..80) {
        let baseline = par_map_indexed(Parallelism::Serial, n, |i| (i as f64).sqrt().to_bits());
        for threads in [2, 3, 8, 64] {
            let got = par_map_indexed(Parallelism::Threads(threads), n, |i| {
                (i as f64).sqrt().to_bits()
            });
            prop_assert_eq!(&baseline, &got, "threads = {}", threads);
        }
    }
}
