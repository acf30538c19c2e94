//! The feasibility drive — the objective of the acquisition's local
//! searches, called thousands of times per BO iteration — allocates
//! nothing once its thread's scratch buffers are warm: every model
//! predicts from the layout it built at fit time.
//!
//! A counting global allocator is installed for this test binary only;
//! counts are per thread, so the harness's own threads do not leak in.

use mfbo::problem::Evaluation;
use mfbo::{FidelityData, MfGpConfig, MfSurrogates, SfSurrogates};
use mfbo_gp::GpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// `n` designs in the 3-dim unit cube with an objective and two
/// constraints; `bias` shifts every output (the low fidelity).
fn data(n: usize, bias: f64, seed: u64) -> FidelityData {
    let mut d = FidelityData::new(2);
    for i in 0..n {
        let x: Vec<f64> = (0..3)
            .map(|t| ((i as u64 * 7 + t * 3 + seed) % 11) as f64 / 10.0)
            .collect();
        let s: f64 = x.iter().map(|v| (3.0 * v).sin()).sum();
        d.push(
            x.clone(),
            &Evaluation {
                objective: s + bias,
                constraints: vec![x[0] - 0.5 + bias, 0.3 - x[1] * s + bias],
            },
        );
    }
    d
}

#[test]
fn warm_drive_tiles_allocate_nothing() {
    let (low, high) = (data(14, 0.2, 1), data(6, 0.0, 2));
    let mut rng = StdRng::seed_from_u64(3);
    let mf = MfSurrogates::fit(&low, &high, &MfGpConfig::fast(), None, &mut rng).unwrap();
    let sf = SfSurrogates::fit(&high, &GpConfig::fast(), None, &mut rng).unwrap();
    let tile: Vec<Vec<f64>> = (0..7)
        .map(|i| vec![0.13 * i as f64, 0.5, 1.0 - 0.1 * i as f64])
        .collect();
    let mut out = vec![0.0; tile.len()];
    // The first tile fills the thread's scratch pool.
    mf.drive(&tile, &mut out);
    sf.drive(&tile, &mut out);
    assert_eq!(allocations_of(|| mf.drive(&tile, &mut out)), 0);
    assert_eq!(allocations_of(|| sf.drive(&tile, &mut out)), 0);
    // A smaller tile reuses the same buffers.
    assert_eq!(allocations_of(|| mf.drive(&tile[..3], &mut out[..3])), 0);
}
