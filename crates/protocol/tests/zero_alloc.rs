//! Proves a steady-state planning round never touches the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator. After a
//! warm-up plan — which folds in the one ACK (filling the server's
//! `AdaptationRecord`), builds the window plan and memoizes it — every
//! further `Server::plan_window` call sees no fresh feedback and the same
//! estimates, so it must return the memoized plan without allocating.
//! The per-window reads the session makes of that plan (critical frames,
//! layer sizes, the worst projected CLF) must not allocate either.
//!
//! Exactly one `#[test]` lives in this binary: the allocation counter is
//! process-global, so a second test running on a parallel thread would
//! pollute the measured delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use espread_protocol::{ProtocolConfig, Server, WindowFeedback};
use espread_trace::GopPattern;

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
fn steady_state_memo_hit_does_not_allocate() {
    let poset = GopPattern::gop12().dependency_poset(2, false);
    let mut server = Server::new(&ProtocolConfig::paper(0.6, 1), &poset);
    let bursts = vec![1, 0, 0, 0, 3];
    server.offer_ack(
        1,
        WindowFeedback {
            window: 0,
            per_layer_burst: bursts.clone(),
        },
    );

    // Warm-up: applies the feedback and builds and memoizes the plan.
    let warm = server.plan_window(&poset);
    assert!(server.last_adaptation().is_some());

    // Measure several rounds and take the *minimum* delta: the libtest
    // main thread may allocate concurrently right after spawning this
    // test's thread, so a single round can see ambient noise. A real
    // planning allocation would show up in every round.
    let mut min_delta = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10_000 {
            let plan = server.plan_window(&poset);
            assert!(Arc::ptr_eq(&plan, &warm), "a memo hit shares the plan");
            assert!(server.last_adaptation().is_none());
            std::hint::black_box(plan.critical_frames().sum::<usize>());
            std::hint::black_box(plan.layer_sizes());
            std::hint::black_box(plan.worst_projected_clf(&bursts));
        }
        min_delta = min_delta.min(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }

    assert_eq!(
        min_delta, 0,
        "steady-state planning must not allocate, saw {min_delta} allocations in the quietest round"
    );
}
