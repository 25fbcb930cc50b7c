//! Proves a steady-state simulated window never touches the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator. Each
//! window has the paper's shape: 25 data packets of 2048 bytes offered at
//! the window start over the 1.2 Mbps Gilbert link of §5.1, a mid-window
//! poll, the closing poll, one feedback packet back, and the server's poll
//! for it at the next window start. Once a warm-up has filled the
//! in-flight ring to a full window, every further window must reuse its
//! capacity, on a FIFO link and on a jittered (reordering) one alike.
//!
//! Exactly one `#[test]` lives in this binary: the allocation counter is
//! process-global, so a second test running on a parallel thread would
//! pollute the measured delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use espread_netsim::{DuplexChannel, GilbertModel, Link, SimDuration, SimTime};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments to `System` unchanged, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; the
// only addition is a relaxed counter increment, which never allocates.
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

const FRAMES: u64 = 25;
const CYCLE_US: u64 = 1_000_000;
const PROP: SimDuration = SimDuration::from_micros(11_500);

/// Runs window `w` on `ch`; returns how many data packets arrived.
fn window(ch: &mut DuplexChannel<u64, u64>, w: u64) -> usize {
    let start = SimTime::from_micros(w * CYCLE_US);
    let deadline = SimTime::from_micros((w + 1) * CYCLE_US) + PROP;
    let mut arrived = 0;
    for d in ch.poll_acks(start) {
        std::hint::black_box(d);
    }
    for frame in 0..FRAMES {
        ch.send_data(start, 2048, w * FRAMES + frame);
    }
    for d in ch.poll_data(start + SimDuration::from_micros(CYCLE_US / 5)) {
        arrived += 1;
        std::hint::black_box(d);
    }
    for d in ch.poll_data(deadline) {
        arrived += 1;
        std::hint::black_box(d);
    }
    ch.send_ack(deadline, 64, w);
    arrived
}

/// The fewest allocations any of 5 rounds of 10 000 windows made, after
/// warming `ch` up until one window delivered every packet.
fn quietest_round(mut ch: DuplexChannel<u64, u64>) -> u64 {
    let mut w = 0;
    while window(&mut ch, w) < FRAMES as usize {
        w += 1;
        assert!(w < 1_000, "no window delivered all {FRAMES} packets");
    }
    // Minimum over rounds: the libtest main thread may allocate
    // concurrently right after spawning this test's thread, so a single
    // round can see ambient noise. A real per-window allocation would
    // show up in every round.
    let mut min_delta = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10_000 {
            w += 1;
            window(&mut ch, w);
        }
        min_delta = min_delta.min(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }
    min_delta
}

#[test]
fn steady_state_windows_do_not_allocate() {
    for jitter_ms in [0, 30] {
        let data = Link::new(1_200_000, PROP, GilbertModel::paper(0.6, 42))
            .with_jitter(SimDuration::from_millis(jitter_ms), 7);
        let feedback = Link::new(64_000, PROP, GilbertModel::paper(0.6, 43));
        let min_delta = quietest_round(DuplexChannel::new(data, feedback));
        assert_eq!(
            min_delta, 0,
            "jitter {jitter_ms} ms: a steady-state window must not allocate, \
             saw {min_delta} allocations in the quietest round"
        );
    }
}
