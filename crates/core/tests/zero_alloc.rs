//! Proves the steady-state order pipeline never touches the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator. After a
//! warm-up lap — which populates the process-global order cache, registers
//! the telemetry counters, and sizes the caller-owned buffers — repeated
//! laps of the per-window hot path (cached order lookup, `apply_into` to
//! sent order, `unapply_into` back to playout order) must perform **zero**
//! allocations. Arc clones out of the cache and telemetry counter bumps are
//! pure atomics, so the only heap traffic a lap could cause would be a
//! regression in this PR's buffer-reuse contract.
//!
//! Exactly one `#[test]` lives in this binary: the allocation counter is
//! process-global, so a second test running on a parallel thread would
//! pollute the measured delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use espread_core::calculate_permutation_cached;

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

/// One full window lap: cached order lookup, scramble to sent order,
/// simulate a loss-free receive, descramble to playout order.
fn window_lap(
    n: usize,
    b: usize,
    items: &[u32],
    sent: &mut Vec<u32>,
    received: &mut Vec<Option<u32>>,
    playout: &mut Vec<Option<u32>>,
) {
    let choice = calculate_permutation_cached(n, b);
    choice.permutation.apply_into(items, sent);
    received.clear();
    received.extend(sent.iter().map(|&x| Some(x)));
    choice.permutation.unapply_into(received, playout);
    assert_eq!(playout.len(), n);
}

#[test]
fn steady_state_order_pipeline_does_not_allocate() {
    const N: usize = 17;
    const B: usize = 5;

    let items: Vec<u32> = (0..N as u32).collect();
    let mut sent: Vec<u32> = Vec::with_capacity(N);
    let mut received: Vec<Option<u32>> = Vec::with_capacity(N);
    let mut playout: Vec<Option<u32>> = Vec::with_capacity(N);

    // Warm-up: first lookups compute the orders, insert cache entries, and
    // register the hit/miss telemetry counters; the buffers reach their
    // steady-state capacity.
    for _ in 0..3 {
        window_lap(N, B, &items, &mut sent, &mut received, &mut playout);
    }

    // Measure several rounds and take the *minimum* delta: the libtest
    // main thread may allocate concurrently right after spawning this
    // test's thread, so a single round can see ambient noise. A real
    // hot-path allocation would show up in every round.
    let mut min_delta = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10_000 {
            window_lap(N, B, &items, &mut sent, &mut received, &mut playout);
        }
        min_delta = min_delta.min(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }

    assert_eq!(
        min_delta, 0,
        "steady-state window laps must not allocate, saw {min_delta} allocations in the quietest round"
    );

    // Sanity: the laps really went through the cache, not a recompute path.
    assert_eq!(*playout.last().unwrap(), Some(N as u32 - 1));
}
