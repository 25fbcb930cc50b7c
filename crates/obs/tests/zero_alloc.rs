//! Proves the recorder's steady-state hot path never touches the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after the
//! recorder is constructed (which allocates its ring exactly once), ten
//! thousand `record()` calls — including full wrap-around of a small ring
//! — must perform **zero** allocations. This test lives in its own
//! integration-test crate because the library itself forbids unsafe code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use espread_obs::{data_detail, EventKind, FlightRecorder, Role};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_record_allocates_nothing() {
    // Small ring so the measured window includes overwrite-on-overflow.
    let recorder = FlightRecorder::new(Role::Server, 256);

    // Warm up: first calls after construction exercise the same path but
    // let any lazy runtime initialisation (clock vDSO, lock) happen.
    for i in 0..512u32 {
        recorder.record(EventKind::Sent, 1, 0, i, data_detail(0, false));
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000u32 {
        let detail = data_detail((i % 4) as u16, i % 7 == 0);
        recorder.record(EventKind::Sent, 1, u64::from(i / 100), i, detail);
        // The transports' path: the caller's own clock value.
        let t_us = u64::from(i) * 3;
        recorder.record_at(t_us, EventKind::Delivered, 1, u64::from(i / 100), i, detail);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "record()/record_at() allocated on the steady-state path"
    );
    // The ring really did wrap: the drop counter saw the whole burst.
    assert!(recorder.dropped() >= 20_000);
}
