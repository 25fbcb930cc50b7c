//! Proves a steady-state simulated window allocates only what the session
//! report keeps of it.
//!
//! A counting `#[global_allocator]` wraps the system allocator. After a
//! warm-up run (plan and order caches, telemetry handles), a
//! `Session::run` over `2N` windows may allocate more than one over `N`
//! windows by at most `N` times the per-window outputs: the window's
//! `LossPattern` (`SessionReport::patterns`), its `estimate_history` row
//! and the `WindowAck`'s feedback vector. Everything else a window does —
//! plan, send, deliver, reassemble, close, time, adapt — reuses buffers
//! the session sized at set-up. Both sessions log into a registry whose
//! event log holds nothing, as a long-running process's does once its
//! log is full.
//!
//! Exactly one `#[test]` lives in this binary: the allocation counter is
//! process-global, so a second test running on a parallel thread would
//! pollute the measured delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use espread_protocol::{ProtocolConfig, Session, StreamSource};
use espread_telemetry::Registry;
use espread_trace::{Movie, MpegTrace};

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

/// Allocations a window may make: its loss pattern, its estimate row and
/// its ACK's feedback vector.
const PER_WINDOW: u64 = 3;

#[test]
fn a_steady_window_allocates_only_its_report_rows() {
    const N: usize = 50;
    let trace = MpegTrace::new(Movie::JurassicPark, 1);
    let session = |windows: usize| {
        Session::new(
            ProtocolConfig::paper(0.6, 42),
            StreamSource::mpeg(&trace, 2, windows, false),
        )
        .with_telemetry(Registry::with_event_cap(0))
    };
    let (short, long) = (session(N), session(2 * N));
    // Warm-up: every plan both runs will need is cached, and every
    // telemetry handle resolved.
    let report = long.run();
    assert!(report.packets_lost > 0, "the channel must lose packets");
    assert!(
        report.estimate_history.first() != report.estimate_history.last(),
        "the estimates must adapt"
    );
    drop((short.run(), report));

    // The minimum over several rounds: the libtest main thread may
    // allocate concurrently right after spawning this test's thread, but
    // a real per-window allocation shows in every round.
    let allocations = |s: &Session| {
        (0..5)
            .map(|_| {
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                drop(std::hint::black_box(s.run()));
                ALLOCATIONS.load(Ordering::Relaxed) - before
            })
            .min()
            .expect("five rounds")
    };
    let (n, two_n) = (allocations(&short), allocations(&long));
    let extra = two_n.saturating_sub(n);
    assert!(
        extra <= PER_WINDOW * N as u64,
        "{N} more windows made {extra} more allocations ({n} over {N} windows, \
         {two_n} over {}); at most {PER_WINDOW} per window may stay in the report",
        2 * N
    );
}
