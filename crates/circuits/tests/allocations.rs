//! The charge-pump DC sweep allocates per corner only its two phase
//! netlists, and per measurement the shared Newton workspace (with the
//! LU's recorded pivot sequences) and the two phases' warm-start buffers;
//! never per Newton iteration, per LU replay miss or per sweep point: two
//! designs whose solves take different numbers of Newton iterations must
//! allocate exactly as often, and every corner after the first costs
//! exactly its two `build_netlist` calls.
//!
//! A counting global allocator is installed for this test binary only;
//! counts are per thread, so the harness's own threads do not leak in.

use mfbo_circuits::charge_pump::ChargePump;
use mfbo_circuits::pvt::PvtCorner;
use mfbo_telemetry::{sinks::CollectSink, Level, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// The `spice_newton_iters` and `spice_lu_replay_misses` counters of one
/// measurement.
fn work(cp: &ChargePump, x: &[f64], corners: &[PvtCorner]) -> (u64, u64) {
    let sink = Arc::new(CollectSink::with_level(Level::Debug));
    let _g = mfbo_telemetry::scoped_sink(sink.clone());
    cp.measure(x, corners).unwrap();
    let counter = |name| match sink.named(name)[0].field("value") {
        Some(&Value::U64(n)) => n,
        other => panic!("{name} value missing or mistyped: {other:?}"),
    };
    (
        counter("spice_newton_iters"),
        counter("spice_lu_replay_misses"),
    )
}

#[test]
fn sweep_allocations_do_not_depend_on_newton_iterations() {
    let cp = ChargePump::new();
    let corners = PvtCorner::grid_27();
    let easy = ChargePump::reference_design();
    let mut hard = easy.clone();
    // Minimum-length mirrors and switches: strong λ, a harder solve.
    for l in hard.iter_mut().skip(1).step_by(2) {
        *l = 0.12;
    }
    let ((iters_easy, _), (iters_hard, misses_hard)) =
        (work(&cp, &easy, &corners), work(&cp, &hard, &corners));
    assert_ne!(iters_easy, iters_hard, "the designs must differ in work");
    // Replay misses record new pivot sequences; they must not allocate
    // either.
    assert!(misses_hard > 0, "the hard design never missed a replay");
    // No telemetry sink is installed here, so the counters cost nothing.
    let a_easy = allocations_of(|| {
        cp.measure(&easy, &corners).unwrap();
    });
    let a_hard = allocations_of(|| {
        cp.measure(&hard, &corners).unwrap();
    });
    assert_eq!(
        a_easy, a_hard,
        "{iters_easy} vs {iters_hard} Newton iterations"
    );
    // Every corner after the first (which also creates the workspace and
    // the start buffers) costs exactly its two phase netlists.
    let netlists = allocations_of(|| {
        cp.build_netlist(&easy, &corners[1], true, 0.0);
        cp.build_netlist(&easy, &corners[1], false, 0.0);
    });
    let first = allocations_of(|| {
        cp.measure(&easy, &corners[..1]).unwrap();
    });
    let two = allocations_of(|| {
        cp.measure(&easy, &corners[..2]).unwrap();
    });
    assert_eq!(two - first, netlists, "per-corner allocations");
    assert_eq!(a_easy, first + 26 * netlists);
}
